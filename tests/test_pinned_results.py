"""Pinned run outputs: a faster selection must pick exactly the same members.

Each case hashes the bytes of one run's final population (x and f), plus, for
the framework, its archive and the per-generation mating sources.  The
ZDT3 and DTLZ2 (M = 3) digests were recorded with the straightforward
dominance and niching loops that tests/test_dominance.py and
tests/test_nsga3.py keep as oracles, and the DTLZ2 (M = 5) and DTLZ7 ones
before niching applied numpy's bounded-integer rule inline.  A
change that must alter results prints new ones with
`PYTHONPATH=src:tests python3 -c "import test_pinned_results as t; print(t.current_digests())"`
and says why, and bumps the version (see RECORDED).  They assume IEEE doubles and the numpy build the suite runs
on; a numpy upgrade that changes a last bit of sin/cos moves them too.
"""

import hashlib
import re
from pathlib import Path

import numpy as np
import pytest

from temof import FrameworkConfig, __version__, make_problem, nsga3_run, temof_run

MAX_FES = 3000
CASES = {  # label -> (problem, n_obj, population size)
    "ZDT3": ("ZDT3", 2, 100),
    "DTLZ2": ("DTLZ2", 3, 92),
    "DTLZ2-M5": ("DTLZ2", 5, 126),
    "DTLZ7": ("DTLZ7", 3, 100),
}
SEEDS = (0, 1)
KEYS = [f"{p}/{a}/{s}" for p in CASES for a in ("nsga3", "temof-nsga3") for s in SEEDS]
EXPECTED = {
    "ZDT3/nsga3/0": "12c0fde63de10299afa69cf8014ab80e77beecbfcc10a497f5a9c6009a530449",
    "ZDT3/nsga3/1": "4a72668a4ae9aa4552aa9f86f7f5ddb6dbc76192709d31ba1ea20a33c0ccafc2",
    "ZDT3/temof-nsga3/0": "dad73a445f03d618c36da04cea70786ada43e46985b7e5672cb7789dd98b420b",
    "ZDT3/temof-nsga3/1": "df1bb24d0006d6e9a74cdf994a020dfe8a9c744ba3bb3b995ab1728c473c9970",
    "DTLZ2/nsga3/0": "187d44eeda36a1e8633b0a4151a0176fe6f77a35cd00abe3976ff59efde4324d",
    "DTLZ2/nsga3/1": "d6c751b0f3ab2db550089226a7bf5d603913387312615299e7bb1b3f2ece251f",
    "DTLZ2/temof-nsga3/0": "5865e1fac995e43bc7df75aba2ae29b836a35a67f7eafb301eafcce613dd3fca",
    "DTLZ2/temof-nsga3/1": "ddccc1e5a896fc789bdee0944aa84219c2134df1fbeb86e5b475edac250488d4",
    "DTLZ2-M5/nsga3/0": "cbea693c210cd8b074963f5395b2f5edab76aec2d12c60d24a8daa3c2a231ee9",
    "DTLZ2-M5/nsga3/1": "15cf16b01d7f8f6bad26acb30680037fbf89938bf2721a0e467389bd984513ff",
    "DTLZ2-M5/temof-nsga3/0": "a29bd4165a8115eec3cdbe8c50b3a686fea5d964aed49ba056d3ff62a2ee20a4",
    "DTLZ2-M5/temof-nsga3/1": "4904d37908015657cb20ba9050c2a71ac821a15784647d3d9d91737f66340b4d",
    "DTLZ7/nsga3/0": "4dd6feb22ce448c22de68017e126608a74167f62c480061ed71c0fc961a6f197",
    "DTLZ7/nsga3/1": "9cd0260ae99505041aae7f54f95c8e405f8cb2af08b3e40570621bcabb3d31f1",
    "DTLZ7/temof-nsga3/0": "67e20acf5624f96b309fc919065a4f1b84fdb400bba9e495735f7de8f327ae1b",
    "DTLZ7/temof-nsga3/1": "7bf6a41ea8bfa7ac36bb1ff249dafdfa54b07aa614015ad3561e2ca41e4cb0c6",
}

# __version__ -> SHA-256 of the sorted EXPECTED digests, one per newline.  A
# results directory resumes only under the version that wrote it, so a
# re-record must come with a new version (here and in pyproject.toml), or a
# resumed runs.csv would mix the runs of two programs.
RECORDED = {
    "0.1.0": "b2f927a4ed49ff22375a18f9d0856c6da4cbdcbfd018435e252178f1641f4b50",
}


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr(part.shape).encode())
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def run_digest(key: str) -> str:
    label, algorithm, seed = key.split("/")
    problem_name, n_obj, n = CASES[label]
    problem = make_problem(problem_name, n_obj=n_obj)
    if algorithm == "nsga3":
        pop, fes = nsga3_run(problem, n, MAX_FES, int(seed))
        return _digest(pop.x, pop.f, fes)
    res = temof_run(problem, FrameworkConfig(n=n, max_fes=MAX_FES), int(seed))
    sources = ",".join(r.source.value for r in res.trace)
    return _digest(res.population.x, res.population.f,
                   res.archive.x, res.archive.f, sources, res.fes)


def current_digests() -> dict[str, str]:
    return {key: run_digest(key) for key in KEYS}


@pytest.mark.parametrize("key", KEYS)
def test_run_output_is_pinned(key):
    assert run_digest(key) == EXPECTED[key]


def test_digests_are_recorded_under_this_version():
    digest = hashlib.sha256("\n".join(sorted(EXPECTED.values())).encode()).hexdigest()
    assert RECORDED.get(__version__) == digest
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert re.search(r'^version = "(.*)"$', pyproject, re.M).group(1) == __version__
