#!/usr/bin/env python3
"""Benchmark of `temof run`: end-to-end timings and a traced per-layer breakdown.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each repetition runs one experiment matrix
through the user path, `temof.cli.main(["run", "--config", ..., "--out",
<fresh dir>, "--quiet", "--workers", k])`, in a fresh interpreter, and checks
runs.csv and the summary/ranks files against perfbench/digests.json.
Repetitions follow each other (one client, closed loop) until --seconds have
passed.  The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; --trace 0 reports the end-to-end
metrics and --trace 1 the per-layer metrics of BENCHMARK.json.

--seed picks the experiment instances: repetition k runs master seed
`(seed + k) % INSTANCES`, whose expected outputs are committed.  End-to-end
times are divided by how slow the shared host ran while they were measured,
which a short fixed computation in this process samples.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import compileall
import csv
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import LAYER_METRICS, layer_metrics, read_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"

ALGORITHMS = ("nsga3", "temof-nsga3")
MAX_FES = 20_000
INSTANCES = 10       # master seeds 0..9, one committed digest set each
MIN_REPS = 2         # matrix repetitions per end-to-end run, at the least
SETUP_SAMPLES = 5    # set-up is timed at least this many times per run
DEADLINE_S = 165.0   # the whole benchmark ends within 180 s
REFERENCE_PASSES = 5
REFERENCE_S = 0.0178  # CPU time of reference_work(REFERENCE_PASSES), median on a 2-core x86 VM
SAMPLE_EVERY_S = 0.5  # the host's speed is sampled this often while a child runs

# Every workload runs both algorithms on 2 workers, so that a 60 s run makes
# 2-5 repetitions of a matrix (11-18 s on a 2-core host) and its medians have
# 4-10 optimizer runs of each algorithm.  Why each workload exists, and which
# layers it stresses, is in README.md.
WORKLOADS = {
    "manyobj-hv": {"problems": [{"name": "DTLZ2", "n_obj": 5}], "n": 126, "seeds": 2,
                   "metrics": ["IGD", "GD", "HV"], "igd_reference_size": 10_000,
                   "workers": 2},
    "irregular-2w": {"problems": ["DTLZ7", "ZDT3"], "n": 100, "seeds": 2,
                     "metrics": ["IGD", "HV"], "igd_reference_size": 2_000,
                     "workers": 2},
}

END_TO_END = {
    "setup_s": "s",
    "matrix_s": "s",
    "nsga3_run_ms_p50": "ms",
    "temof_run_ms_p50": "ms",
    "peak_rss_mb": "MB",
}


def experiment_config(workload: str, master_seed: int, max_fes: int = MAX_FES) -> dict:
    """The `temof run` JSON config of one workload instance."""
    spec = WORKLOADS[workload]
    return {"problems": spec["problems"], "algorithms": list(ALGORITHMS),
            "seeds": {"master_seed": master_seed, "n_runs": spec["seeds"]},
            "n": spec["n"], "max_fes": max_fes, "metrics": spec["metrics"],
            "igd_reference_size": spec["igd_reference_size"]}


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(work: Path, deadline: float, config: Path | None = None,
              workers: int = 1, spans: bool = False) -> dict | None:
    """Start child.py in a fresh interpreter and return its result, or None.

    The result gains setup_s (interpreter start to `import temof.cli`
    returning), and out/spans paths when a matrix ran.
    """
    work.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "child.py"), "--result", str(work / "result.json")]
    if config is not None:
        cmd += ["--config", str(config), "--out", str(work / "out"), "--workers", str(workers)]
        if spans:
            cmd += ["--spans", str(work / "spans.jsonl")]
    with open(work / "child.log", "w") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT,
                                env=_child_env(), cwd=ROOT, start_new_session=True)
        slowness = []
        while proc.poll() is None:
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)  # the child and its worker pool
                proc.wait()
                print(f"repetition killed at the {DEADLINE_S:.0f} s deadline",
                      file=sys.stderr)
                return None
            slowness.append((time.monotonic(), slowness_sample()))
            try:
                proc.wait(timeout=SAMPLE_EVERY_S)
            except subprocess.TimeoutExpired:
                pass
    result_path = work / "result.json"
    if proc.returncode != 0 or not result_path.exists():
        print(f"repetition exited with {proc.returncode}:\n"
              f"{(work / 'child.log').read_text()[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["import_done"] - start
    # time.monotonic() is one clock for every process on Linux, so the
    # samples taken while the child imported temof can be picked out.
    slowness = slowness or [(time.monotonic(), slowness_sample())]
    result["slowness"] = statistics.median(v for _, v in slowness)
    result["setup_slowness"] = statistics.median(
        [v for t, v in slowness if t <= result["import_done"] + SAMPLE_EVERY_S]
        or [v for _, v in slowness])
    result["out"] = work / "out"
    result["spans"] = work / "spans.jsonl"
    return result


# ---------------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def read_runs(out: Path) -> list[dict]:
    with open(out / "runs.csv", newline="") as fh:
        return list(csv.DictReader(fh))


def digest_outputs(out: Path, rows: list[dict]) -> dict:
    """Row count, per-cell digests of runs.csv without wall_ms, report digests."""
    cells: dict[str, list[str]] = {}
    for row in rows:
        key = f"{row['problem']}/{row['algorithm']}/{row['seed']}"
        cells.setdefault(key, []).append(
            ",".join(v for k, v in row.items() if k != "wall_ms"))
    reports = sorted(list(out.glob("summary_*")) + list(out.glob("ranks.csv")))
    return {"rows": len(rows),
            "cells": {k: _sha("\n".join(v)) for k, v in cells.items()},
            "reports": {p.name: _sha(p.read_text()) for p in reports}}


def failed_cells(got: dict, expected: dict) -> int:
    """Cells of one repetition whose outputs differ from the expected digest."""
    if got["rows"] != expected["rows"] or got["reports"] != expected["reports"]:
        return len(expected["cells"])
    return sum(1 for k, v in expected["cells"].items() if got["cells"].get(k) != v)


def hv_nonzero(rows: list[dict]) -> dict[str, bool]:
    """Whether each problem/algorithm cell has an HV value other than 0."""
    nonzero: dict[str, bool] = {}
    for row in rows:
        if row["metric"] == "HV":
            cell = f"{row['problem']}/{row['algorithm']}"
            nonzero[cell] = nonzero.get(cell, False) or float(row["value"]) != 0.0
    return nonzero


def cell_wall_ms(rows: list[dict]) -> dict[str, list[float]]:
    """Optimizer wall_ms per algorithm, one value per cell."""
    seen: dict[tuple, float] = {}
    for row in rows:
        seen[(row["problem"], row["algorithm"], row["seed"])] = float(row["wall_ms"])
    out: dict[str, list[float]] = {}
    for (_, algorithm, _), ms in seen.items():
        out.setdefault(algorithm, []).append(ms)
    return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def reference_work(passes: int) -> None:
    """Fixed work shaped like temof's hot path, outside temof.

    Each pass counts pairwise dominance of 200 three-objective points in
    numpy, then loops over the counts in the interpreter, as sort_fronts and
    niching do.
    """
    rng = np.random.default_rng(0)
    for _ in range(passes):
        f = rng.random((200, 3))
        counts = ((f[:, None, :] <= f[None, :, :]).all(-1)
                  & (f[:, None, :] < f[None, :, :]).any(-1)).sum(0)
        total = 0
        for i in range(200):
            total += int(counts[i]) * i


def slowness_sample() -> float:
    """How slow the host runs now: CPU time of a short reference_work() over REFERENCE_S."""
    start = time.thread_time()
    reference_work(REFERENCE_PASSES)
    return (time.thread_time() - start) / REFERENCE_S


def host_facts() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"), "git_sha": _git_sha()}


def _git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


class Session:
    """Repetitions of one workload, with their correctness tally.

    Repetition k of a run uses instance (seed + k) % INSTANCES, so that one
    run averages over the work that several instances happen to need.
    """

    def __init__(self, workload: str, seed: int, max_fes: int,
                 expected: dict | None, work: Path, deadline: float):
        self.workload = workload
        self.seed = seed
        self.max_fes = max_fes
        # instance -> digest; None: each instance's first repetition is the reference
        self.expected = expected if expected is not None else {}
        self.record = expected is None
        self.work = work
        self.deadline = deadline
        work.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.hv_nonzero: dict[str, bool] = {}
        self.instances: list[int] = []
        spec = WORKLOADS[workload]
        self.cells = len(spec["problems"]) * len(ALGORITHMS) * spec["seeds"]
        self._n = 0

    @property
    def zero_cells(self) -> list[str]:
        """problem/algorithm cells whose HV is 0 in every run (degenerate, report only)."""
        return sorted(cell for cell, nonzero in self.hv_nonzero.items() if not nonzero)

    def probe(self) -> dict | None:
        self._n += 1
        result = run_child(self.work / f"probe-{self._n}", self.deadline)
        shutil.rmtree(self.work / f"probe-{self._n}", ignore_errors=True)
        return result

    def instance(self, k: int) -> int:
        """The instance of repetition k of this run."""
        return (self.seed + k) % INSTANCES

    def rep(self, instance: int, workers: int, traced: bool = False) -> dict | None:
        """One checked matrix run: the child result with its rows, or None."""
        self._n += 1
        rep_dir = self.work / f"rep-{self._n}"
        config = self.work / f"config-{instance}.json"
        config.write_text(json.dumps(experiment_config(self.workload, instance, self.max_fes)))
        if instance not in self.instances:
            self.instances.append(instance)
        try:
            result = run_child(rep_dir, self.deadline, config, workers, traced)
            self.attempted += self.cells
            if result is None or result["rc"] != 0:
                self.failed += self.cells
                return None
            result["rows"] = read_runs(result["out"])
            got = digest_outputs(result["out"], result["rows"])
            if self.record and str(instance) not in self.expected:
                self.expected[str(instance)] = got
            self.failed += failed_cells(got, self.expected[str(instance)])
            for cell, nonzero in hv_nonzero(result["rows"]).items():
                self.hv_nonzero[cell] = self.hv_nonzero.get(cell, False) or nonzero
            if traced:
                result["layers"] = layer_metrics(read_spans(result["spans"]),
                                                 result["matrix_s"])
            return result
        finally:
            shutil.rmtree(rep_dir, ignore_errors=True)


def _time_left(started: float, seconds: float, longest: float) -> bool:
    """Another repetition as long as the longest so far still fits in the run."""
    return time.monotonic() - started + longest <= seconds


def measure_end_to_end(session: Session, seconds: float, workers: int) -> tuple[dict, dict]:
    reps: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        rep = session.rep(session.instance(len(reps)), workers)
        if rep is None:
            break
        reps.append(rep)
        longest = max(longest, time.monotonic() - t)
        if len(reps) >= MIN_REPS and not _time_left(started, seconds, longest):
            break
    if not reps:
        return {}, {}
    setups = [(r["setup_s"], r["setup_slowness"]) for r in reps]
    while len(setups) < SETUP_SAMPLES:
        probe = session.probe()
        if probe is None:
            break
        setups.append((probe["setup_s"], probe["setup_slowness"]))
    walls: dict[str, list[tuple[float, float]]] = {}
    for rep in reps:
        for algorithm, ms in cell_wall_ms(rep["rows"]).items():
            walls.setdefault(algorithm, []).extend((m, rep["slowness"]) for m in ms)
    timed = {
        "setup_s": setups,
        "matrix_s": [(r["matrix_s"], r["slowness"]) for r in reps],
        "nsga3_run_ms_p50": walls["nsga3"],
        "temof_run_ms_p50": walls["temof-nsga3"],
    }
    # Times are reported at the reference speed of the host: each one is
    # divided by how slow the host ran while it was measured.
    metrics = {name: statistics.median(t / slow for t, slow in pairs)
               for name, pairs in timed.items()}
    metrics["peak_rss_mb"] = statistics.median(r["maxrss_kb"] / 1024.0 for r in reps)
    for name, pairs in timed.items():
        print(f"  {name:40s} {statistics.median(t for t, _ in pairs):14.6g} as measured, "
              f"host slowness {statistics.median(slow for _, slow in pairs):.3f}")
    samples = {"setup_s": len(setups), "matrix_s": len(reps),
               "nsga3_run_ms_p50": len(walls["nsga3"]),
               "temof_run_ms_p50": len(walls["temof-nsga3"]),
               "peak_rss_mb": len(reps)}
    return metrics, samples


def measure_layers(session: Session, seconds: float) -> tuple[dict, dict]:
    """Alternate untraced and traced repetitions at 1 worker; medians of each."""
    plain: list[float] = []
    traced: list[dict] = []
    started = time.monotonic()
    longest = 0.0
    while True:
        t = time.monotonic()
        instance = session.instance(len(traced))
        rep = session.rep(instance, 1)
        if rep is None:
            break
        plain.append(rep["matrix_s"])
        rep = session.rep(instance, 1, traced=True)
        if rep is None:
            break
        traced.append(rep)
        longest = max(longest, time.monotonic() - t)
        if not _time_left(started, seconds, longest):
            break
    if not traced:
        return {}, {}
    missing = sorted({m for r in traced for m in r.get("trace_missing", [])})
    if missing:
        print(f"trace: not traced: {', '.join(missing)}")
    metrics = {name: statistics.median(r["layers"][name] for r in traced)
               for name in LAYER_METRICS if name in traced[0]["layers"]}
    metrics["trace.untraced_matrix_s"] = statistics.median(plain)
    # The recorder's cost is its span count times the calibrated cost of one
    # wrapper: comparing single traced and untraced matrices reads host noise.
    span_cost = statistics.median(r["span_cost_s"] for r in traced)
    metrics["trace.span_cost_us"] = span_cost * 1e6
    metrics["trace.overhead_frac"] = (metrics["trace.spans"] * span_cost
                                      / metrics["trace.untraced_matrix_s"])
    metrics["metrics.hv.zero_cells"] = len(session.zero_cells)
    return metrics, {name: len(traced) for name in metrics}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            max_fes: int = MAX_FES, expected: dict | None = None,
            work: Path | None = None) -> dict:
    """Run one benchmark invocation; returns the result object of the last line.

    expected maps each instance to its digest set; None makes the first
    repetition of each instance its reference (used by the smoke tests at a
    tiny budget).
    """
    begun = time.monotonic()
    compileall.compile_dir(SRC / "temof", quiet=1)  # the build: bytecode, once per checkout
    if work is None:
        WORK.mkdir(parents=True, exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    session = Session(workload, seed, max_fes, expected, work, begun + DEADLINE_S)
    try:
        if trace:
            metrics, samples = measure_layers(session, seconds)
            units = LAYER_METRICS
        else:
            metrics, samples = measure_end_to_end(session, seconds,
                                                  WORKLOADS[workload]["workers"])
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)
    mode = "traced, 1 worker" if trace else f"{WORKLOADS[workload]['workers']} worker(s)"
    print(f"workload {workload}: instances {', '.join(map(str, session.instances))} "
          f"of {INSTANCES} (--seed {seed}), {mode}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:40s} {metrics[name]:14.6g} {unit:6s} (n={samples[name]})")
    failed_frac = session.failed / session.attempted if session.attempted else 1.0
    print(f"  {'failed_frac':40s} {failed_frac:14.6g} {'ratio':6s} "
          f"({session.failed} of {session.attempted} cells)")
    if session.zero_cells:
        print(f"  HV is 0 in every run of: {' '.join(session.zero_cells)} (report only)")
    return {"correct": session.attempted > 0 and session.failed == 0,
            "attempted": session.attempted, "failed": session.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items() if name in metrics}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "temof" / "cli.py").is_file():
        print(f"error: no temof sources under {SRC}", file=sys.stderr)
        return 2
    digests = json.loads(DIGESTS.read_text())
    expected = digests.get(args.workload, {})
    if len(expected) != INSTANCES:
        print(f"error: {DIGESTS.name} lacks instances of {args.workload}", file=sys.stderr)
        return 2
    print("host " + json.dumps(host_facts(), sort_keys=True))
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace),
                     expected=expected)
    if len(result["metrics"]) != len(LAYER_METRICS if args.trace else END_TO_END):
        print("error: no repetition completed; no metrics to report", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
