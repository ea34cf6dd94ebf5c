"""Convergence floors: both optimizers must reach the front of problems that
need recombination.

DTLZ2 (criterion 5) converges on selection and mutation alone, so it cannot
show an SBX that does not recombine; ZDT1 and DTLZ1 can.  Each case runs 3
seeds at n = 100 and 20 000 FEs and bounds the median IGD of the final
population against the sampled true front.
"""

import numpy as np
import pytest

from temof import FrameworkConfig, igd, make_problem, nsga3_run, sample_true_front, temof_run

N = 100
MAX_FES = 20_000
SEEDS = (0, 1, 2)
REFERENCE_SIZE = 10_000

# the bounds sit well above the medians of an SBX that exchanges children
# (about 0.0046 on ZDT1 and 0.022 on DTLZ1) and far below today's (0.6, 3.3)
FLOORS = {"ZDT1": 0.01, "DTLZ1": 0.05}


def final_population(algorithm, problem, seed):
    if algorithm == "nsga3":
        return nsga3_run(problem, N, MAX_FES, seed)[0]
    return temof_run(problem, FrameworkConfig(n=N, max_fes=MAX_FES), seed).population


@pytest.mark.xfail(strict=True, reason="sbx_batch never exchanges a crossed variable's two "
                                       "child values, so the runs stall far from the front "
                                       "(ROADMAP item 14: exchange SBX children per variable)")
@pytest.mark.parametrize("algorithm", ["nsga3", "temof-nsga3"])
@pytest.mark.parametrize("name", sorted(FLOORS))
def test_median_igd_within_floor(name, algorithm):
    problem = make_problem(name)
    reference = sample_true_front(problem, REFERENCE_SIZE)
    values = [igd(final_population(algorithm, problem, seed).objectives, reference).value
              for seed in SEEDS]
    median = float(np.median(values))
    assert median <= FLOORS[name], f"median IGD {median:.4g} over seeds {SEEDS}: {values}"
