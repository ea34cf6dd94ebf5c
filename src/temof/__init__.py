"""Two-stage evolutionary multi-objective optimization (TEMOF).

A population/archive framework wrapped around a reference-point base
algorithm, with DTLZ/ZDT benchmarks, quality indicators, rank-based
statistics, and an experiment harness.
"""

__version__ = "0.1.0"

from .core import (ConfigurationError, EvaluationError, Population, ProblemSpec,
                   RngKey, TemofError, UnsupportedError, UsageError, rng_stream)
from .dominance import pareto_mask, sort_fronts
from .variation import VariationParams
from .nsga3 import Nsga3Base, ReferencePointSet, das_dennis, nsga3_run
from .framework import (FrameworkConfig, GenerationRecord, MatingSource,
                        RunTrace, TemofResult, temof_run)
from .benchmarks import make_problem, problem_names, sample_true_front
from .metrics import IndicatorResult, gd, hv, igd
from .stats import (HIGHER_IS_BETTER, LOWER_IS_BETTER, ComparisonMark,
                    FriedmanResult, SignedRankResult, friedman_ranks,
                    ranksum_mark, ranksum_p, signed_rank)
from .harness import (AlgorithmSpec, ExperimentConfig, ProblemSelection,
                      RunRecord, load_config, load_records, run_matrix,
                      summarize, write_ranks, write_summary)

__all__ = [
    "__version__",
    # core
    "TemofError", "ConfigurationError", "UsageError", "EvaluationError",
    "UnsupportedError", "ProblemSpec", "RngKey", "rng_stream", "Population",
    # dominance
    "sort_fronts", "pareto_mask",
    # variation
    "VariationParams",
    # nsga3
    "ReferencePointSet", "das_dennis", "Nsga3Base", "nsga3_run",
    # framework
    "FrameworkConfig", "MatingSource", "GenerationRecord", "RunTrace", "TemofResult",
    "temof_run",
    # benchmarks
    "make_problem", "problem_names", "sample_true_front",
    # metrics
    "IndicatorResult", "igd", "gd", "hv",
    # stats
    "LOWER_IS_BETTER", "HIGHER_IS_BETTER", "ComparisonMark", "SignedRankResult",
    "FriedmanResult", "ranksum_mark", "ranksum_p", "signed_rank", "friedman_ranks",
    # harness
    "ProblemSelection", "AlgorithmSpec", "ExperimentConfig", "RunRecord",
    "load_config", "load_records", "run_matrix", "summarize", "write_summary",
    "write_ranks",
]
