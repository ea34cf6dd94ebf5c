"""Experiment harness: run problem x algorithm x seed matrices and report.

Raw results land in runs.csv (one row per indicator value), alongside
metadata.json (config + fingerprint) and failures.csv.  Re-running with the
same config resumes: completed (problem, algorithm, seed) triples are
skipped, previously failed ones are retried.  Summaries reproduce the usual
comparison-table layout: mean (std) cells, per-problem rank-sum marks
against a base algorithm, a +/-/= footer, paired signed-rank lines, and
Friedman mean ranks.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .core import ConfigurationError, RngKey, UsageError, rng_stream
from .benchmarks import make_problem
from .framework import FrameworkConfig, temof_run
from .metrics import MC_DEFAULT_SAMPLES, gd, hv, igd
from .nsga3 import nsga3_run
from .stats import (HIGHER_IS_BETTER, LOWER_IS_BETTER, FriedmanResult,
                    SignedRankResult, friedman_ranks, ranksum_mark, signed_rank)
from .variation import VariationParams

RUNS_FILE = "runs.csv"
METADATA_FILE = "metadata.json"
FAILURES_FILE = "failures.csv"
RANKS_FILE = "ranks.csv"
RUN_COLUMNS = ("problem", "algorithm", "seed", "metric", "value", "fes", "wall_ms")
KNOWN_METRICS = ("IGD", "GD", "HV")
INDICATOR_ORIENTATION = {"IGD": LOWER_IS_BETTER, "GD": LOWER_IS_BETTER,
                         "HV": HIGHER_IS_BETTER}
ALGORITHM_NAMES = ("nsga3", "temof-nsga3")
WORKERS_ENV_VAR = "TEMOF_WORKERS"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSelection:
    """One benchmark instance in the matrix; label defaults to the name."""

    name: str
    n_var: int | None = None
    n_obj: int | None = None
    label: str | None = None

    def __post_init__(self) -> None:
        problem = make_problem(self.name, self.n_var, self.n_obj)  # fail fast on bad dims
        if problem.front_sampler is None:  # every known metric is scored against the front
            raise ConfigurationError(
                f"{problem.name} with n_obj={problem.n_obj} has no true-front sampler, "
                f"so its runs cannot be scored")

    @property
    def key(self) -> str:
        if self.label:
            return self.label
        if self.n_var is None and self.n_obj is None:
            return self.name.upper()
        return f"{self.name.upper()}_{self.n_var or 'd'}x{self.n_obj or 'm'}"

    def to_dict(self) -> dict:
        return {"name": self.name.upper(), "n_var": self.n_var,
                "n_obj": self.n_obj, "label": self.label}


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm column: plain base or the two-stage framework.

    p and stage_fraction only apply to the framework; operator parameters
    apply to both.
    """

    name: str
    label: str | None = None
    p: float = 0.5
    stage_fraction: float = 0.5
    pc: float = 1.0
    eta_c: float = 20.0
    pm: float | None = None
    eta_m: float = 20.0

    def __post_init__(self) -> None:
        if self.name not in ALGORITHM_NAMES:
            raise ConfigurationError(
                f"unknown algorithm {self.name!r}; known: {', '.join(ALGORITHM_NAMES)}")
        self.variation()  # validates operator parameters
        FrameworkConfig(n=2, max_fes=2, p=self.p, stage_fraction=self.stage_fraction)

    @property
    def key(self) -> str:
        return self.label if self.label else self.name

    def variation(self) -> VariationParams:
        return VariationParams(pc=self.pc, eta_c=self.eta_c, pm=self.pm, eta_m=self.eta_m)

    def to_dict(self) -> dict:
        return {"name": self.name, "label": self.label, "p": self.p,
                "stage_fraction": self.stage_fraction, "pc": self.pc,
                "eta_c": self.eta_c, "pm": self.pm, "eta_m": self.eta_m}


@dataclass(frozen=True)
class ExperimentConfig:
    problems: tuple[ProblemSelection, ...]
    algorithms: tuple[AlgorithmSpec, ...]
    seeds: tuple[int, ...]
    n: int
    max_fes: int
    master_seed: int = 0
    metrics: tuple[str, ...] = ("IGD", "HV")
    indicator_target: str = "population"
    igd_reference_size: int = 10_000
    hv_ref_scale: float = 1.1
    hv_mc_samples: int = MC_DEFAULT_SAMPLES
    output_dir: str = "results"

    def __post_init__(self) -> None:
        if not self.problems:
            raise ConfigurationError("experiment needs at least one problem")
        if not self.algorithms:
            raise ConfigurationError("experiment needs at least one algorithm")
        if not self.seeds:
            raise ConfigurationError("experiment needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigurationError("seeds must be unique")
        labels = [p.key for p in self.problems]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"problem labels are not unique: {labels}")
        labels = [a.key for a in self.algorithms]
        if len(set(labels)) != len(labels):
            raise ConfigurationError(f"algorithm labels are not unique: {labels}")
        if self.n < 2:
            raise ConfigurationError(f"population size must be >= 2, got {self.n}")
        if self.max_fes < self.n:
            raise ConfigurationError(
                f"max_fes={self.max_fes} cannot be below the population size {self.n}")
        for metric in self.metrics:
            if metric not in KNOWN_METRICS:
                raise ConfigurationError(
                    f"unknown metric {metric!r}; known: {', '.join(KNOWN_METRICS)}")
        if not self.metrics:
            raise ConfigurationError("experiment needs at least one metric")
        if self.indicator_target not in ("population", "archive"):
            raise ConfigurationError(
                f"indicator_target must be 'population' or 'archive', "
                f"got {self.indicator_target!r}")
        if self.igd_reference_size < 1:
            raise ConfigurationError("igd_reference_size must be >= 1")
        if self.hv_ref_scale <= 1.0:
            raise ConfigurationError(
                f"hv_ref_scale must exceed 1 so the reference point clears the "
                f"front, got {self.hv_ref_scale}")

    def to_dict(self, include_output_dir: bool = True) -> dict:
        d = {
            "problems": [p.to_dict() for p in self.problems],
            "algorithms": [a.to_dict() for a in self.algorithms],
            "seeds": list(self.seeds),
            "master_seed": self.master_seed,
            "n": self.n,
            "max_fes": self.max_fes,
            "metrics": list(self.metrics),
            "indicator_target": self.indicator_target,
            "igd_reference_size": self.igd_reference_size,
            "hv_ref_scale": self.hv_ref_scale,
            "hv_mc_samples": self.hv_mc_samples,
        }
        if include_output_dir:
            d["output_dir"] = self.output_dir
        return d

    def fingerprint(self) -> str:
        """Hash of everything that affects results (output_dir excluded)."""
        payload = json.dumps(self.to_dict(include_output_dir=False),
                             sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, with keyword validation."""
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config must be a JSON object, got {type(raw).__name__}")
    known = {"problems", "algorithms", "seeds", "master_seed", "n", "max_fes",
             "metrics", "indicator_target", "igd_reference_size", "hv_ref_scale",
             "hv_mc_samples", "output_dir"}
    unknown = set(raw) - known
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for required in ("problems", "algorithms", "seeds", "n", "max_fes"):
        if required not in raw:
            raise ConfigurationError(f"config is missing required key {required!r}")

    def coerce(kind, value, key, where="config key"):
        message = f"{where} {key!r} must be {kind.__name__}, got {value!r}"
        # int() would truncate 10.9 to 10 and take a bool, float() a bool, str() a null
        if (value is None or (kind is not str and isinstance(value, bool))
                or (kind is int and isinstance(value, float) and not value.is_integer())):
            raise ConfigurationError(message)
        try:
            return kind(value)
        except (TypeError, ValueError):
            raise ConfigurationError(message) from None

    def listed(key):
        if not isinstance(raw[key], list):
            raise ConfigurationError(f"config key {key!r} must be a list, got {raw[key]!r}")
        return raw[key]

    def build(cls, item, what, kinds):
        if isinstance(item, str):
            item = {"name": item}
        if not isinstance(item, dict):
            raise ConfigurationError(f"each {what} must be a name or an object, got {item!r}")
        # convert so that a bad value names its field; None stays in fields that default to it
        optional = {f.name for f in fields(cls) if f.default is None}
        values = dict(item)
        for key, kind in kinds.items():
            if key in values and not (values[key] is None and key in optional):
                values[key] = coerce(kind, values[key], key, f"{what} field")
        try:
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(f"bad {what} entry {item!r}: {exc}") from None

    problems = tuple(
        build(ProblemSelection, p, "problem", {"label": str, "n_var": int, "n_obj": int})
        for p in listed("problems"))
    algorithms = tuple(
        build(AlgorithmSpec, a, "algorithm",
              {"label": str, "p": float, "stage_fraction": float, "pc": float,
               "eta_c": float, "pm": float, "eta_m": float})
        for a in listed("algorithms"))
    seeds_raw = raw["seeds"]
    master_seed = coerce(int, raw.get("master_seed", 0), "master_seed")
    if isinstance(seeds_raw, dict):
        unknown = set(seeds_raw) - {"master_seed", "n_runs"}
        if unknown:
            raise ConfigurationError(f"unknown seeds keys: {sorted(unknown)}")
        if "n_runs" not in seeds_raw:
            raise ConfigurationError("seeds object needs n_runs")
        n_runs = coerce(int, seeds_raw["n_runs"], "n_runs")
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        master_seed = coerce(int, seeds_raw.get("master_seed", master_seed), "master_seed")
        seeds = tuple(range(n_runs))
    elif isinstance(seeds_raw, (list, tuple)):
        seeds = tuple(coerce(int, s, "seeds") for s in seeds_raw)
    else:
        raise ConfigurationError(
            "seeds must be a list of ints or {master_seed, n_runs}")
    kwargs = {}
    if "metrics" in raw:
        kwargs["metrics"] = tuple(listed("metrics"))
    for key, kind in (("indicator_target", str), ("output_dir", str),
                      ("igd_reference_size", int), ("hv_mc_samples", int),
                      ("hv_ref_scale", float)):
        if key in raw:
            kwargs[key] = coerce(kind, raw[key], key)
    return ExperimentConfig(problems=problems, algorithms=algorithms, seeds=seeds,
                            n=coerce(int, raw["n"], "n"),
                            max_fes=coerce(int, raw["max_fes"], "max_fes"),
                            master_seed=master_seed, **kwargs)


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    try:
        raw = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not valid JSON: {exc}") from None
    return config_from_dict(raw)


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    """All indicator values of one completed run."""

    problem: str
    algorithm: str
    seed: int
    metrics: dict[str, float]
    fes: int
    wall_ms: float


@dataclass(frozen=True)
class RunTask:
    """One (problem, algorithm, seed) cell of an experiment matrix."""

    config: ExperimentConfig
    problem: ProblemSelection
    algorithm: AlgorithmSpec
    seed: int


def _execute_run(task: RunTask) -> RunRecord:
    """Run one cell and score it.

    Kept top-level, with a picklable task, so worker processes can execute it.
    """
    config, algo = task.config, task.algorithm
    problem = make_problem(task.problem.name, task.problem.n_var, task.problem.n_obj)
    key = RngKey(config.master_seed, task.seed)
    start = time.perf_counter()
    if algo.name == "nsga3":
        population, fes = nsga3_run(problem, config.n, config.max_fes, key,
                                    variation=algo.variation())
        target = population.objectives
    else:
        result = temof_run(problem,
                           FrameworkConfig(n=config.n, max_fes=config.max_fes, p=algo.p,
                                           stage_fraction=algo.stage_fraction),
                           key, variation=algo.variation())
        fes = result.fes
        target = (result.archive if config.indicator_target == "archive"
                  else result.population).objectives
    wall_ms = (time.perf_counter() - start) * 1000.0
    front = problem.true_front(config.igd_reference_size)
    values = {}
    for metric in config.metrics:
        if metric == "IGD":
            values[metric] = igd(target, front).value
        elif metric == "GD":
            values[metric] = gd(target, front).value
        else:
            ref = config.hv_ref_scale * front.max(axis=0)
            values[metric] = hv(target, ref, samples=config.hv_mc_samples,
                                rng=rng_stream(config.master_seed, task.seed,
                                               "hv-mc")).value
    return RunRecord(task.problem.key, algo.key, task.seed, values, fes, wall_ms)


def _worker_count(workers: int | None) -> int:
    if workers is None:
        raw = os.environ.get(WORKERS_ENV_VAR, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ConfigurationError(
                f"{WORKERS_ENV_VAR} must be an integer, got {raw!r}") from None
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    return workers


def _read_runs(path: Path) -> dict[tuple[str, str, int], RunRecord]:
    """Existing runs keyed by (problem, algorithm, seed)."""
    records: dict[tuple[str, str, int], RunRecord] = {}
    if not path.exists():
        return records
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is not None and tuple(reader.fieldnames) != RUN_COLUMNS:
            raise ConfigurationError(
                f"{path} has columns {reader.fieldnames}, expected {list(RUN_COLUMNS)}")
        for row in reader:
            key = (row["problem"], row["algorithm"], int(row["seed"]))
            rec = records.get(key)
            if rec is None:
                rec = RunRecord(row["problem"], row["algorithm"], int(row["seed"]),
                                {}, int(row["fes"]), float(row["wall_ms"]))
                records[key] = rec
            rec.metrics[row["metric"]] = float(row["value"])
    return records


def run_matrix(config: ExperimentConfig, workers: int | None = None,
               progress=None) -> list[RunRecord]:
    """Execute every missing cell of the experiment matrix.

    Returns the full record list in matrix order.  progress, if given, is
    called as progress(done, total, record_or_none) after each cell.
    """
    workers = _worker_count(workers)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    meta_path = out / METADATA_FILE
    fingerprint = config.fingerprint()
    if meta_path.exists():
        meta = json.loads(meta_path.read_text())
        if meta.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"{out} already holds results for a different configuration "
                f"(fingerprint {meta.get('fingerprint')!r} != {fingerprint!r}); "
                f"choose another output_dir")
        if meta.get("package_version") != __version__:
            raise ConfigurationError(
                f"{out} holds results of temof {meta.get('package_version')!r}, "
                f"not of this version {__version__!r}; choose another output_dir")
    else:
        meta = {"fingerprint": fingerprint, "config": config.to_dict(),
                "package_version": __version__,
                "created": datetime.now(timezone.utc).isoformat()}
        meta_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")

    runs_path = out / RUNS_FILE
    existing = _read_runs(runs_path)
    need_metrics = set(config.metrics)
    tasks = []
    for problem in config.problems:
        for algorithm in config.algorithms:
            for seed in config.seeds:
                key = (problem.key, algorithm.key, seed)
                rec = existing.get(key)
                if rec is not None and need_metrics <= set(rec.metrics):
                    continue
                tasks.append(RunTask(config, problem, algorithm, seed))

    failures: list[dict] = []
    total = len(tasks)
    done = 0
    # an empty file (killed before the header flush, or touched) needs the header too
    new_header = not runs_path.exists() or runs_path.stat().st_size == 0
    with runs_path.open("a", newline="") as fh:
        writer = csv.writer(fh)
        if new_header:
            writer.writerow(RUN_COLUMNS)
            fh.flush()

        def consume(task, record, error):
            nonlocal done
            done += 1
            if error is None:
                for metric in config.metrics:
                    writer.writerow([record.problem, record.algorithm, record.seed, metric,
                                     repr(record.metrics[metric]), record.fes,
                                     repr(record.wall_ms)])
                fh.flush()
                existing[(record.problem, record.algorithm, record.seed)] = record
            else:
                failures.append({"problem": task.problem.key,
                                 "algorithm": task.algorithm.key,
                                 "seed": task.seed,
                                 "error": f"{type(error).__name__}: {error}"})
            if progress is not None:
                progress(done, total, record)

        if workers == 1 or not tasks:
            for task in tasks:
                try:
                    consume(task, _execute_run(task), None)
                except Exception as exc:  # record and move on
                    consume(task, None, exc)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [(task, pool.submit(_execute_run, task)) for task in tasks]
                for task, fut in futures:  # submission order keeps output deterministic
                    try:
                        consume(task, fut.result(), None)
                    except Exception as exc:
                        consume(task, None, exc)

    failures_path = out / FAILURES_FILE
    if failures:
        with failures_path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["problem", "algorithm", "seed", "error"])
            for f in failures:
                writer.writerow([f["problem"], f["algorithm"], f["seed"], f["error"]])
    elif failures_path.exists():
        failures_path.unlink()

    ordered = []
    for problem in config.problems:
        for algorithm in config.algorithms:
            for seed in config.seeds:
                rec = existing.get((problem.key, algorithm.key, seed))
                if rec is not None:
                    ordered.append(rec)
    return ordered


def load_records(output_dir: str | Path) -> list[RunRecord]:
    """Read back raw runs from a results directory."""
    path = Path(output_dir) / RUNS_FILE
    if not path.exists():
        raise UsageError(f"no {RUNS_FILE} under {output_dir}")
    records = _read_runs(path)
    return list(records.values())


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def format_sci(x: float) -> str:
    """Scientific notation with a single-digit mantissa: 1.4e+1, 7.6e-1."""
    if not np.isfinite(x):
        return str(x)
    mantissa, exponent = f"{x:.1e}".split("e")
    sign = exponent[0]
    digits = exponent[1:].lstrip("0") or "0"
    return f"{mantissa}e{sign}{digits}"


def format_cell(mean: float, std: float) -> str:
    return f"{format_sci(mean)} ({format_sci(std)})"


@dataclass
class SummaryCell:
    mean: float
    std: float
    values: np.ndarray
    mark: str | None = None  # None for the base column

    def text(self) -> str:
        cell = format_cell(self.mean, self.std)
        return f"{cell} {self.mark}" if self.mark else cell


@dataclass
class SummaryTable:
    """Comparison table of one metric against a base algorithm."""

    metric: str
    orientation: str
    alpha: float
    base: str
    problems: list[str]
    algorithms: list[str]  # base first
    cells: dict[tuple[str, str], SummaryCell]
    footer: dict[str, tuple[int, int, int]]  # algorithm -> (+, -, =) vs base
    signed: dict[str, SignedRankResult]
    friedman: FriedmanResult

    def to_markdown(self) -> str:
        header = ["Problem"] + self.algorithms
        lines = ["| " + " | ".join(header) + " |",
                 "|" + "|".join(["---"] * len(header)) + "|"]
        for problem in self.problems:
            row = [problem]
            for algo in self.algorithms:
                row.append(self.cells[(problem, algo)].text())
            lines.append("| " + " | ".join(row) + " |")
        footer_row = [f"+/-/= (vs {self.base})"]
        for algo in self.algorithms:
            if algo == self.base:
                footer_row.append("")
            else:
                w, l, t = self.footer[algo]
                footer_row.append(f"{w}/{l}/{t}")
        lines.append("| " + " | ".join(footer_row) + " |")
        lines.append("")
        for algo in self.algorithms:
            if algo == self.base:
                continue
            s = self.signed[algo]
            lines.append(
                f"signed-rank {algo} vs {self.base} ({self.metric}): "
                f"R+={s.r_plus:g} R-={s.r_minus:g} p={s.p_value:.6f}")
        if not math.isnan(self.friedman.chi_square):
            ranks = ", ".join(
                f"{algo}={self.friedman.mean_ranks[i]:.3f}"
                for i, algo in enumerate(self.algorithms))
            lines.append(f"Friedman mean ranks ({self.metric}): {ranks} "
                         f"(chi2={self.friedman.chi_square:.4f}, "
                         f"n={self.friedman.n_problems})")
        return "\n".join(lines) + "\n"

    def to_csv_rows(self) -> list[list[str]]:
        rows = [["problem"] + self.algorithms]
        for problem in self.problems:
            rows.append([problem] + [self.cells[(problem, a)].text()
                                     for a in self.algorithms])
        footer = [f"+/-/= (vs {self.base})"]
        for algo in self.algorithms:
            if algo == self.base:
                footer.append("")
            else:
                w, l, t = self.footer[algo]
                footer.append(f"{w}/{l}/{t}")
        rows.append(footer)
        return rows


def _group_values(records: list[RunRecord], metric: str):
    problems: list[str] = []
    algorithms: list[str] = []
    values: dict[tuple[str, str], list[tuple[int, float]]] = {}
    for rec in records:
        if metric not in rec.metrics:
            continue
        if rec.problem not in problems:
            problems.append(rec.problem)
        if rec.algorithm not in algorithms:
            algorithms.append(rec.algorithm)
        values.setdefault((rec.problem, rec.algorithm), []).append(
            (rec.seed, rec.metrics[metric]))
    arrays = {}
    for key, pairs in values.items():
        pairs.sort()
        arrays[key] = np.array([v for _, v in pairs])
    return problems, algorithms, arrays


def summarize(records: list[RunRecord], base: str, metric: str,
              alpha: float = 0.05) -> SummaryTable:
    """Build the comparison table of `metric` with `base` as the reference."""
    if metric not in INDICATOR_ORIENTATION:
        raise UsageError(f"unknown metric {metric!r}; known: {', '.join(KNOWN_METRICS)}")
    orientation = INDICATOR_ORIENTATION[metric]
    problems, algorithms, values = _group_values(records, metric)
    if not problems:
        raise UsageError(f"no records carry metric {metric!r}")
    if base not in algorithms:
        raise UsageError(f"base algorithm {base!r} not among {algorithms}")
    algorithms = [base] + [a for a in algorithms if a != base]
    missing = [(p, a) for p in problems for a in algorithms if (p, a) not in values]
    if missing:
        raise UsageError(f"records are incomplete; missing cells: {missing}")
    cells: dict[tuple[str, str], SummaryCell] = {}
    footer: dict[str, tuple[int, int, int]] = {}
    signed: dict[str, SignedRankResult] = {}
    for problem in problems:
        base_vals = values[(problem, base)]
        for algo in algorithms:
            vals = values[(problem, algo)]
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            cell = SummaryCell(float(vals.mean()), std, vals)
            if algo != base:
                cell.mark = ranksum_mark(vals, base_vals, alpha, orientation).mark
            cells[(problem, algo)] = cell
    for algo in algorithms[1:]:
        marks = [cells[(p, algo)].mark for p in problems]
        footer[algo] = (marks.count("+"), marks.count("-"), marks.count("="))
        algo_means = [cells[(p, algo)].mean for p in problems]
        base_means = [cells[(p, base)].mean for p in problems]
        signed[algo] = signed_rank(algo_means, base_means, orientation)
    mean_matrix = np.array([[cells[(p, a)].mean for a in algorithms]
                            for p in problems])
    if len(problems) >= 2 and len(algorithms) >= 2:
        fried = friedman_ranks(mean_matrix, orientation)
    else:
        fried = FriedmanResult(np.full(len(algorithms), np.nan), len(problems), float("nan"))
    return SummaryTable(metric=metric, orientation=orientation, alpha=alpha,
                        base=base, problems=problems, algorithms=algorithms,
                        cells=cells, footer=footer, signed=signed, friedman=fried)


def write_summary(table: SummaryTable, output_dir: str | Path) -> tuple[Path, Path]:
    """Persist one summary as CSV and markdown; returns both paths."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"summary_{table.metric}.csv"
    with csv_path.open("w", newline="") as fh:
        csv.writer(fh).writerows(table.to_csv_rows())
    md_path = out / f"summary_{table.metric}.md"
    md_path.write_text(table.to_markdown())
    return csv_path, md_path


def write_ranks(records: list[RunRecord], output_dir: str | Path,
                metrics: list[str] | None = None) -> Path:
    """Friedman mean ranks per metric, one CSV for the whole experiment."""
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if metrics is None:
        metrics = sorted({m for rec in records for m in rec.metrics})
    rows = [["metric", "algorithm", "mean_rank", "chi_square", "n_problems"]]
    for metric in metrics:
        problems, algorithms, values = _group_values(records, metric)
        if len(problems) < 2 or len(algorithms) < 2:
            continue
        missing = [(p, a) for p in problems for a in algorithms
                   if (p, a) not in values]
        if missing:
            raise UsageError(f"records are incomplete; missing cells: {missing}")
        matrix = np.array([[values[(p, a)].mean() for a in algorithms]
                           for p in problems])
        fried = friedman_ranks(matrix, INDICATOR_ORIENTATION[metric])
        for i, algo in enumerate(algorithms):
            rows.append([metric, algo, f"{fried.mean_ranks[i]:.6f}",
                         f"{fried.chi_square:.6f}", str(fried.n_problems)])
    path = out / RANKS_FILE
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path
