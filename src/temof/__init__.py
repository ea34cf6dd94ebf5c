"""Two-stage evolutionary multi-objective optimization (TEMOF).

A population/archive framework wrapped around a reference-point base
algorithm, with DTLZ/ZDT benchmarks, quality indicators, rank-based
statistics, and an experiment harness.
"""

__version__ = "0.1.0"

from .core import (ConfigurationError, EvaluationError, Population, ProblemSpec,
                   RngKey, TemofError, UnsupportedError, UsageError, concat,
                   initialize_population, merge_dedupe, rng_stream)
from .dominance import pareto_mask, sort_fronts
from .variation import VariationParams, generate_offspring, mating_pool
from .nsga3 import (NormalizationState, Nsga3Base, ReferencePointSet, associate,
                    das_dennis, environmental_selection, first_front_selection,
                    normalize, nsga3_run, reference_points_for)
from .framework import (FrameworkConfig, GenerationRecord, MatingSource,
                        RunTrace, TemofResult, stage_gate, temof_run)
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
    "UnsupportedError", "ProblemSpec", "RngKey", "rng_stream",
    "Population", "concat", "merge_dedupe",
    "initialize_population",
    # dominance
    "sort_fronts", "pareto_mask",
    # variation
    "VariationParams", "mating_pool", "generate_offspring",
    # nsga3
    "ReferencePointSet", "das_dennis", "reference_points_for",
    "NormalizationState", "normalize", "associate", "environmental_selection",
    "first_front_selection", "Nsga3Base", "nsga3_run",
    # framework
    "FrameworkConfig", "MatingSource", "stage_gate", "GenerationRecord",
    "RunTrace", "TemofResult", "temof_run",
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
