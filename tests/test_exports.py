import ast
from pathlib import Path

import temof

# what `from temof import *` promises; exporting one more name is a choice made here
EXPORTS = [
    "__version__",
    "TemofError", "ConfigurationError", "UsageError", "EvaluationError",
    "UnsupportedError", "ProblemSpec", "RngKey", "rng_stream", "Population",
    "sort_fronts", "pareto_mask",
    "VariationParams",
    "ReferencePointSet", "das_dennis", "Nsga3Base", "nsga3_run",
    "FrameworkConfig", "MatingSource", "GenerationRecord", "RunTrace", "TemofResult",
    "temof_run",
    "make_problem", "problem_names", "sample_true_front",
    "IndicatorResult", "igd", "gd", "hv",
    "LOWER_IS_BETTER", "HIGHER_IS_BETTER", "ComparisonMark", "SignedRankResult",
    "FriedmanResult", "ranksum_mark", "ranksum_p", "signed_rank", "friedman_ranks",
    "ProblemSelection", "AlgorithmSpec", "ExperimentConfig", "RunRecord",
    "load_config", "load_records", "run_matrix", "summarize", "write_summary",
    "write_ranks",
]


def test_exports_are_the_listed_names():
    assert temof.__all__ == EXPORTS


def test_every_exported_name_resolves():
    assert len(set(temof.__all__)) == len(temof.__all__)
    missing = [name for name in temof.__all__ if not hasattr(temof, name)]
    assert missing == []


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from temof import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(temof.__all__)


def test_acceptance_imports_resolve_from_the_package():
    tree = ast.parse((Path(__file__).parent / "test_acceptance.py").read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "temof"
             for alias in node.names]
    missing = [name for name in names if name not in temof.__all__]
    assert names and missing == []
