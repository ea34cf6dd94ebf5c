"""The runtime path needs numpy and the standard library only.

scipy is a test dependency (the oracles in the other test files use it).
Each test here runs a fresh interpreter in which a `sys.meta_path` finder
makes every `import scipy...` fail, so any runtime use of scipy shows up as
an error instead of passing silently on a machine that has it installed.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

BLOCK_SCIPY = textwrap.dedent("""
    import sys

    class NoScipy:
        def find_spec(self, name, path=None, target=None):
            if name == "scipy" or name.startswith("scipy."):
                raise ModuleNotFoundError(f"No module named {name!r} (blocked)", name=name)
            return None

    sys.meta_path.insert(0, NoScipy())

    def scipy_modules():
        return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
""")


def run_without_scipy(body: str, tmp_path: Path) -> subprocess.CompletedProcess:
    script = tmp_path / "no_scipy.py"
    script.write_text(BLOCK_SCIPY + textwrap.dedent(body))
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)


def test_import_loads_no_scipy(tmp_path):
    proc = run_without_scipy("""
        import temof.cli
        assert scipy_modules() == [], scipy_modules()
        print("ok")
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_run_and_reports_without_scipy(tmp_path):
    # 11 seeds give the rank-sum 22 values, beyond its exact null, so the
    # summaries take the normal-approximation branch; 2 workers fork
    # processes that inherit the blocking finder
    proc = run_without_scipy("""
        import temof.stats as stats
        from temof.cli import main

        normal_calls = []
        normal_cdf = stats._normal_cdf
        stats._normal_cdf = lambda z: normal_calls.append(z) or normal_cdf(z)

        assert main(["run", "--problem", "ZDT6", "--problem", "DTLZ2",
                     "--algo", "nsga3", "--algo", "temof-nsga3", "--seeds", "11",
                     "--n", "12", "--max-fes", "120", "--metrics", "IGD", "GD", "HV",
                     "--workers", "2", "--out", "exp", "--quiet"]) == 0
        assert main(["report", "summarize", "--runs", "exp", "--base", "nsga3",
                     "--metric", "IGD"]) == 0
        assert main(["report", "ranks", "--runs", "exp"]) == 0
        assert normal_calls, "the normal approximation was never reached"
        assert scipy_modules() == [], scipy_modules()
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert not (tmp_path / "exp" / "failures.csv").exists()
    runs = (tmp_path / "exp" / "runs.csv").read_text().splitlines()
    assert len(runs) == 1 + 2 * 2 * 11 * 3  # header, problems x algorithms x seeds x metrics
    assert "| Problem |" in proc.stdout
    assert "metric,algorithm,mean_rank" in proc.stdout


def test_exact_hv_loads_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma lazily, which would cost every worker's
    # first 3-objective hypervolume about 11 ms
    proc = run_without_scipy("""
        from temof import hv

        assert hv([[0.2, 0.5, 0.5], [0.5, 0.2, 0.5], [0.5, 0.5, 0.2]],
                  [1.0, 1.0, 1.0], mode="exact").mode == "exact"
        masked = sorted(m for m in sys.modules if m == "numpy.ma" or m.startswith("numpy.ma."))
        assert masked == [], masked
        print("ok")
    """, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
