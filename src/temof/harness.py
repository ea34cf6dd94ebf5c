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
import io
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import MISSING, asdict, dataclass, fields, is_dataclass
from datetime import datetime, timezone
from functools import partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .core import ConfigurationError, RngKey, UsageError, seed_word
from .benchmarks import make_problem
from .framework import FrameworkConfig, temof_run
from .metrics import MC_DEFAULT_SAMPLES, gd, hv, igd
from .nsga3 import nsga3_run
from .stats import (HIGHER_IS_BETTER, LOWER_IS_BETTER, FriedmanResult, SignedRankResult,
                    _check_alpha, friedman_ranks, ranksum_mark, signed_rank)
from .variation import VariationParams

RUNS_FILE = "runs.csv"
METADATA_FILE = "metadata.json"
FAILURES_FILE = "failures.csv"
RANKS_FILE = "ranks.csv"
RUN_COLUMNS = ("problem", "algorithm", "seed", "metric", "value", "fes", "wall_ms")
INDICATOR_ORIENTATION = {"IGD": LOWER_IS_BETTER, "GD": LOWER_IS_BETTER,
                         "HV": HIGHER_IS_BETTER}
KNOWN_METRICS = tuple(INDICATOR_ORIENTATION)
ALGORITHM_NAMES = ("nsga3", "temof-nsga3")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSelection:
    """One benchmark instance, named by its upper-case registry key; label defaults to it."""

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
        object.__setattr__(self, "name", problem.name)
        object.__setattr__(self, "_n_obj", problem.n_obj)  # not a field, so not fingerprinted

    @property
    def key(self) -> str:
        if self.label:
            return self.label
        if self.n_var is None and self.n_obj is None:
            return self.name
        return f"{self.name}_{self.n_var or 'd'}x{self.n_obj or 'm'}"


@dataclass(frozen=True)
class AlgorithmSpec:
    """One algorithm column: plain base or the two-stage framework.

    p and stage_fraction only apply to the framework; operator parameters
    apply to both.
    """

    name: str
    label: str | None = None
    p: float = FrameworkConfig.p
    stage_fraction: float = FrameworkConfig.stage_fraction
    pc: float = VariationParams.pc
    eta_c: float = VariationParams.eta_c
    pm: float | None = VariationParams.pm
    eta_m: float = VariationParams.eta_m

    def __post_init__(self) -> None:
        if self.name not in ALGORITHM_NAMES:
            raise ConfigurationError(
                f"unknown algorithm {self.name!r}; known: {', '.join(ALGORITHM_NAMES)}")
        self.variation()  # validates operator parameters

    @property
    def key(self) -> str:
        return self.label if self.label else self.name

    def variation(self) -> VariationParams:
        return VariationParams(pc=self.pc, eta_c=self.eta_c, pm=self.pm, eta_m=self.eta_m)

    def framework(self, n: int, max_fes: int) -> FrameworkConfig:
        return FrameworkConfig(n=n, max_fes=max_fes, p=self.p, stage_fraction=self.stage_fraction)


@dataclass(frozen=True)
class ExperimentConfig:
    """A problem x algorithm x seed matrix and how its runs are scored.

    The field declarations are the JSON schema that config_from_dict reads,
    and asdict(config) is what metadata.json records.
    """

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
        for what, values in (("problem", [entry.key for entry in self.problems]),
                             ("algorithm", [entry.key for entry in self.algorithms]),
                             ("seed", list(self.seeds)), ("metric", list(self.metrics))):
            if not values:
                raise ConfigurationError(f"experiment needs at least one {what}")
            if len(set(values)) != len(values):
                raise ConfigurationError(f"{what}s must be unique, got {values}")
        words: dict[int, int] = {}
        for seed in self.seeds:  # distinct seeds with one word would run one stream twice
            twin = words.setdefault(seed_word(seed), seed)
            if twin != seed:
                raise ConfigurationError(
                    f"seeds {twin} and {seed} name one random stream, since seeds are "
                    f"taken modulo 2**64")
        for problem in self.problems:  # the reference directions need n >= n_obj >= 2
            if self.n < problem._n_obj:
                raise ConfigurationError(
                    f"population size {self.n} is below n_obj={problem._n_obj} of problem "
                    f"{problem.key}")
        for algorithm in self.algorithms:  # max_fes >= n, and p and stage_fraction in [0, 1]
            algorithm.framework(self.n, self.max_fes)
        for metric in self.metrics:
            if metric not in KNOWN_METRICS:
                raise ConfigurationError(
                    f"unknown metric {metric!r}; known: {', '.join(KNOWN_METRICS)}")
        if self.indicator_target not in ("population", "archive"):
            raise ConfigurationError(
                f"indicator_target must be 'population' or 'archive', "
                f"got {self.indicator_target!r}")
        if self.igd_reference_size < 1:
            raise ConfigurationError("igd_reference_size must be >= 1")
        if not self.hv_ref_scale > 1.0:  # NaN fails too
            raise ConfigurationError(
                f"hv_ref_scale must exceed 1 so the reference point clears the "
                f"front, got {self.hv_ref_scale}")
        if self.hv_mc_samples < 1:
            raise ConfigurationError(f"hv_mc_samples must be >= 1, got {self.hv_mc_samples}")

    def fingerprint(self) -> str:
        """Hash of everything that affects results (output_dir excluded)."""
        payload = asdict(self)
        del payload["output_dir"]
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _coerce(kind: type, value, key: str, where: str):
    message = f"{where} {key!r} must be {kind.__name__}, got {value!r}"
    # int() would truncate 10.9 to 10 and take a bool, float() a bool, str() a null
    if (value is None or (kind is not str and isinstance(value, bool))
            or (kind is int and isinstance(value, float) and not value.is_integer())):
        raise ConfigurationError(message)
    try:
        value = kind(value)
    except (TypeError, ValueError):
        raise ConfigurationError(message) from None
    if kind is float and not math.isfinite(value):  # json reads NaN and Infinity
        raise ConfigurationError(f"{where} {key!r} must be finite, got {value!r}")
    return value


def _convert(cls, raw: dict, where: str) -> dict:
    """raw with each value converted to its field's annotated type, naming a bad one.

    None stays in fields that default to it; a name is left for the registry to check.
    """
    hints = get_type_hints(cls)
    values = dict(raw)
    for f in fields(cls):
        value, hint = raw.get(f.name), hints[f.name]
        if f.name not in raw or f.name == "name" or (value is None and f.default is None):
            continue
        kind = (get_args(hint) or (hint,))[0]  # int | None -> int, tuple[int, ...] -> int
        if get_origin(hint) is not tuple:
            values[f.name] = _coerce(kind, value, f.name, where)
        elif not isinstance(value, list):
            raise ConfigurationError(f"{where} {f.name!r} must be a list, got {value!r}")
        elif is_dataclass(kind):
            values[f.name] = tuple(_entry(kind, item, f.name[:-1]) for item in value)
        else:
            values[f.name] = tuple(_coerce(kind, item, f.name, where) for item in value)
    return values


def _entry(cls, item, what: str):
    """One problem or algorithm entry: a name or an object of its fields."""
    if isinstance(item, str):
        item = {"name": item}
    if not isinstance(item, dict):
        raise ConfigurationError(f"each {what} must be a name or an object, got {item!r}")
    values = _convert(cls, item, f"{what} field")
    try:
        return cls(**values)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad {what} entry {item!r}: {exc}") from None


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Build a config from parsed JSON, with keyword validation.

    The keys are the fields of ExperimentConfig, and those without a default
    are required.  seeds may also be {master_seed, n_runs}: seeds 0..n_runs-1.
    """
    if not isinstance(raw, dict):
        raise ConfigurationError(f"config must be a JSON object, got {type(raw).__name__}")
    unknown = set(raw) - {f.name for f in fields(ExperimentConfig)}
    if unknown:
        raise ConfigurationError(f"unknown config keys: {sorted(unknown)}")
    for f in fields(ExperimentConfig):
        if f.default is MISSING and f.name not in raw:
            raise ConfigurationError(f"config is missing required key {f.name!r}")
    seeds = raw["seeds"]
    if isinstance(seeds, dict):
        unknown = set(seeds) - {"master_seed", "n_runs"}
        if unknown:
            raise ConfigurationError(f"unknown seeds keys: {sorted(unknown)}")
        if "master_seed" in seeds and "master_seed" in raw:
            raise ConfigurationError(
                f"master_seed is given twice: {seeds['master_seed']!r} in seeds and "
                f"{raw['master_seed']!r} at the top level")
        if "n_runs" not in seeds:
            raise ConfigurationError("seeds object needs n_runs")
        n_runs = _coerce(int, seeds["n_runs"], "n_runs", "config key")
        if n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {n_runs}")
        raw = {**raw, "seeds": list(range(n_runs)),
               "master_seed": seeds.get("master_seed", raw.get("master_seed", 0))}
    elif not isinstance(seeds, list):
        raise ConfigurationError("seeds must be a list of ints or {master_seed, n_runs}")
    return ExperimentConfig(**_convert(ExperimentConfig, raw, "config key"))


def _read_json(path: Path, what: str):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigurationError(f"{what} not found: {path}") from None
    except OSError as exc:  # a directory, or no permission
        raise ConfigurationError(f"cannot read {what} {path}: {exc.strerror}") from None
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on non-UTF-8 bytes
        raise ConfigurationError(f"{what} {path} is not valid JSON: {exc}") from None


def load_config(path: str | Path) -> ExperimentConfig:
    return config_from_dict(_read_json(Path(path), "config file"))


def _write(path: Path, content: str | list[list], append: bool = False,
           keep: int | None = None) -> Path:
    """Write, or append, text or CSV rows to path as UTF-8, creating its directory.

    keep first cuts the file to that many bytes.
    """
    if not isinstance(content, str):
        buffer = io.StringIO()
        csv.writer(buffer).writerows(content)
        content = buffer.getvalue()
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("a" if append else "w", encoding="utf-8", newline="") as fh:
            if keep is not None:
                fh.truncate(keep)
            fh.write(content)
    except OSError as exc:  # a directory in the way, a dangling link, or no permission
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None
    return path


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


def _execute_run(config: ExperimentConfig, selection: ProblemSelection,
                 algo: AlgorithmSpec, seed: int) -> RunRecord:
    """Run one (problem, algorithm, seed) cell and score it.

    Kept top-level, with picklable arguments, so worker processes can execute it.
    """
    problem = make_problem(selection.name, selection.n_var, selection.n_obj)
    key = RngKey(config.master_seed, seed)
    # sampled first, so an unscorable cell fails before it optimizes; freeing
    # the sampler's large temporaries first also raises glibc's mmap threshold,
    # so a fresh worker's run reuses heap memory instead of faulting in pages
    front = problem.true_front(config.igd_reference_size)
    # the box from the front's ideal point to the reference point bounds every
    # HV the cell can score, so an overflowing one fails before optimizing
    with np.errstate(over="ignore"):
        ref = config.hv_ref_scale * front.max(axis=0)
        box = np.prod(ref - front.min(axis=0))
    if "HV" in config.metrics and not np.isfinite(box):
        raise ConfigurationError(
            f"hv_ref_scale {config.hv_ref_scale:g} overflows the HV reference box of "
            f"{selection.key}")
    start = time.perf_counter()
    if algo.name == "nsga3":
        population, fes = nsga3_run(problem, config.n, config.max_fes, key,
                                    variation=algo.variation())
        target = population.objectives
    else:
        result = temof_run(problem, algo.framework(config.n, config.max_fes), key,
                           variation=algo.variation())
        fes = result.fes
        target = (result.archive if config.indicator_target == "archive"
                  else result.population).objectives
    wall_ms = (time.perf_counter() - start) * 1000.0
    values = {}
    for metric in config.metrics:
        if metric == "IGD":
            values[metric] = igd(target, front).value
        elif metric == "GD":
            values[metric] = gd(target, front).value
        else:
            values[metric] = hv(target, ref, samples=config.hv_mc_samples,
                                rng=key.stream("hv-mc")).value
    return RunRecord(selection.key, algo.key, seed, values, fes, wall_ms)


def _parse_runs(path: Path, data: bytes) -> dict[tuple[str, str, int], RunRecord]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path} is not UTF-8 text ({exc})") from None
    reader = csv.DictReader(io.StringIO(text, newline=""))
    if reader.fieldnames is not None and tuple(reader.fieldnames) != RUN_COLUMNS:
        raise ConfigurationError(
            f"{path} has columns {reader.fieldnames}, expected {list(RUN_COLUMNS)}")
    records: dict[tuple[str, str, int], RunRecord] = {}
    for row in reader:
        try:
            key = (row["problem"], row["algorithm"], int(row["seed"]))
            value, fes, wall_ms = float(row["value"]), int(row["fes"]), float(row["wall_ms"])
        except (TypeError, ValueError) as exc:  # a short row reads None
            raise ConfigurationError(
                f"{path} line {reader.line_num}: malformed run row ({exc})") from None
        if row["metric"] not in KNOWN_METRICS:
            raise ConfigurationError(
                f"{path} line {reader.line_num}: malformed run row (unknown metric "
                f"{row['metric']!r}; known: {', '.join(KNOWN_METRICS)})")
        rec = records.get(key)
        if rec is None:
            rec = records[key] = RunRecord(*key, {}, fes, wall_ms)
        rec.metrics[row["metric"]] = value
    return records


def _read_runs(path: Path) -> tuple[dict[tuple[str, str, int], RunRecord], int, bytes]:
    """Existing runs keyed by (problem, algorithm, seed), how many bytes of path hold
    them, and the last of those bytes.  A missing file holds none, and an unterminated
    last line that parses neither as a row nor as the header was cut off mid-write, so
    it is left out.
    """
    try:
        data = path.read_bytes()
    except (FileNotFoundError, NotADirectoryError):  # no file, or no directory to hold it
        data = b""
    except OSError as exc:
        raise ConfigurationError(f"cannot read {path}: {exc.strerror}") from None
    try:
        return _parse_runs(path, data), len(data), data[-1:]
    except ConfigurationError:
        size = data.rfind(b"\n") + 1  # the end of the last complete line
        if size == len(data):  # every line is complete, so the fault stands
            raise
        return _parse_runs(path, data[:size]), size, data[size - 1:size]


def run_matrix(config: ExperimentConfig, workers: int = 1,
               progress=None) -> list[RunRecord]:
    """Execute every missing cell of the experiment matrix.

    Cells run in a pool of min(workers, cells left) processes, or in this
    process when that is at most 1.  Returns the records of the cells that
    carry every metric, in matrix order.  progress, if given, is called as
    progress(done, total, record_or_none) after each cell.
    """
    if workers < 1:
        raise ConfigurationError(f"worker count must be >= 1, got {workers}")
    out = Path(config.output_dir)
    meta_path = out / METADATA_FILE
    fingerprint = config.fingerprint()
    known = meta_path.exists()
    if known:
        meta = _read_json(meta_path, "metadata file")
        if not isinstance(meta, dict):
            raise ConfigurationError(
                f"metadata file {meta_path} must hold a JSON object, got {type(meta).__name__}")
        if meta.get("fingerprint") != fingerprint:
            raise ConfigurationError(
                f"{out} already holds results for a different configuration "
                f"(fingerprint {meta.get('fingerprint')!r} != {fingerprint!r}); "
                f"choose another output_dir")
        if meta.get("package_version") != __version__:
            raise ConfigurationError(
                f"{out} holds results of temof {meta.get('package_version')!r}, "
                f"not of this version {__version__!r}; choose another output_dir")
    runs_path = out / RUNS_FILE
    existing, size, tail = _read_runs(runs_path)
    if not known:
        if existing:  # runs of an unknown configuration must not be adopted
            raise ConfigurationError(
                f"{runs_path} holds runs but {meta_path} is missing, so their "
                f"configuration is unknown; choose another output_dir")
        meta = {"fingerprint": fingerprint, "config": asdict(config),
                "package_version": __version__,
                "created": datetime.now(timezone.utc).isoformat()}
        _write(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")

    cells = {(problem.key, algorithm.key, seed): (problem, algorithm, seed)
             for problem in config.problems for algorithm in config.algorithms
             for seed in config.seeds}
    lacking = {key: [metric for metric in config.metrics
                     if key not in existing or metric not in existing[key].metrics]
               for key in cells}
    tasks = {key: cell for key, cell in cells.items() if lacking[key]}
    # a new, empty or cut-off file gets the header, and a last row without its
    # newline gets one before ours
    _write(runs_path, [RUN_COLUMNS] if not size else "" if tail == b"\n" else "\n",
           append=True, keep=size)

    failures: list[list] = []  # failures.csv rows
    # no more workers than cells: a fork-started pool launches them all at the first submit
    jobs = min(workers, len(tasks))
    with ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else nullcontext() as pool:
        # one zero-argument call per cell; a worker's is its future's result,
        # read in submission order so the output stays deterministic
        calls = {key: pool.submit(_execute_run, config, *cell).result if pool
                 else partial(_execute_run, config, *cell) for key, cell in tasks.items()}
        try:
            for done, (key, call) in enumerate(calls.items(), start=1):
                try:
                    record = call()
                except Exception as exc:  # record and move on
                    record = None
                    failures.append([*key, f"{type(exc).__name__}: {exc}"])
                    existing.pop(key, None)  # a partly saved cell stays incomplete
                else:  # a partly saved cell gets only its missing rows
                    _write(runs_path, [[*key, metric, repr(record.metrics[metric]), record.fes,
                                        repr(record.wall_ms)] for metric in lacking[key]],
                           append=True)
                    existing[key] = record
                if progress is not None:
                    progress(done, len(tasks), record)
        except BaseException:
            if pool:  # leaving the block would wait for every pending cell, then drop it
                pool.shutdown(cancel_futures=True)
            raise

    failures_path = out / FAILURES_FILE
    if failures:
        _write(failures_path, [["problem", "algorithm", "seed", "error"], *failures])
    else:
        try:
            failures_path.unlink(missing_ok=True)
        except OSError as exc:
            raise UsageError(f"cannot remove {failures_path}: {exc.strerror}") from None

    return [existing[key] for key in cells if key in existing]


def load_records(output_dir: str | Path) -> list[RunRecord]:
    """Read back raw runs from a results directory."""
    path = Path(output_dir) / RUNS_FILE
    if not path.exists():
        raise UsageError(f"no {RUNS_FILE} under {output_dir}")
    return list(_read_runs(path)[0].values())


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


@dataclass
class SummaryCell:
    mean: float
    std: float
    mark: str | None = None  # None for the base column

    def text(self) -> str:
        cell = f"{format_sci(self.mean)} ({format_sci(self.std)})"
        return f"{cell} {self.mark}" if self.mark else cell


@dataclass
class SummaryTable:
    """Comparison table of one metric against a base algorithm."""

    metric: str
    base: str
    problems: list[str]
    algorithms: list[str]  # base first
    cells: dict[tuple[str, str], SummaryCell]
    footer: dict[str, tuple[int, int, int]]  # algorithm -> (+, -, =) vs base
    signed: dict[str, SignedRankResult]
    friedman: FriedmanResult

    def to_markdown(self) -> str:
        rows = self.to_csv_rows()
        rows[0][0] = "Problem"
        lines = ["| " + " | ".join(cell.replace("|", "\\|") for cell in row) + " |"
                 for row in rows]
        lines.insert(1, "|" + "|".join(["---"] * len(rows[0])) + "|")
        lines.append("")
        for algo in self.algorithms[1:]:  # the base comes first
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
        rows.append([f"+/-/= (vs {self.base})", ""]
                    + ["{}/{}/{}".format(*self.footer[a]) for a in self.algorithms[1:]])
        return rows


def _group_values(records: list[RunRecord], metric: str):
    """Problems and algorithms in first-seen order, and each cell's values by seed.

    Raises UsageError when some problem lacks some algorithm's runs.
    """
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
    missing = [(p, a) for p in problems for a in algorithms if (p, a) not in arrays]
    if missing:
        raise UsageError(f"records are incomplete; missing cells: {missing}")
    return problems, algorithms, arrays


def summarize(records: list[RunRecord], base: str, metric: str,
              alpha: float = 0.05) -> SummaryTable:
    """Build the comparison table of `metric` with `base` as the reference."""
    if metric not in INDICATOR_ORIENTATION:
        raise UsageError(f"unknown metric {metric!r}; known: {', '.join(KNOWN_METRICS)}")
    _check_alpha(alpha)  # also when the base column alone is left to compare
    orientation = INDICATOR_ORIENTATION[metric]
    problems, algorithms, values = _group_values(records, metric)
    if not problems:
        raise UsageError(f"no records carry metric {metric!r}")
    if base not in algorithms:
        raise UsageError(f"base algorithm {base!r} not among {algorithms}")
    algorithms = [base] + [a for a in algorithms if a != base]
    cells: dict[tuple[str, str], SummaryCell] = {}
    for problem in problems:
        base_vals = values[(problem, base)]
        for algo in algorithms:
            vals = values[(problem, algo)]
            std = float(vals.std(ddof=1)) if vals.size > 1 else 0.0
            cell = SummaryCell(float(vals.mean()), std)
            if algo != base:
                cell.mark = ranksum_mark(vals, base_vals, alpha, orientation).mark
            cells[(problem, algo)] = cell
    means = np.array([[cells[(p, a)].mean for a in algorithms] for p in problems])
    footer: dict[str, tuple[int, int, int]] = {}
    signed: dict[str, SignedRankResult] = {}
    for j, algo in enumerate(algorithms[1:], start=1):
        marks = [cells[(p, algo)].mark for p in problems]
        footer[algo] = (marks.count("+"), marks.count("-"), marks.count("="))
        signed[algo] = signed_rank(means[:, j], means[:, 0], orientation)
    if len(problems) >= 2 and len(algorithms) >= 2:
        fried = friedman_ranks(means, orientation)
    else:
        fried = FriedmanResult(np.full(len(algorithms), np.nan), len(problems), float("nan"))
    return SummaryTable(metric=metric, base=base, problems=problems, algorithms=algorithms,
                        cells=cells, footer=footer, signed=signed, friedman=fried)


def write_summary(table: SummaryTable, output_dir: str | Path) -> tuple[Path, Path]:
    """Persist one summary as CSV and markdown; returns both paths."""
    out = Path(output_dir)
    return (_write(out / f"summary_{table.metric}.csv", table.to_csv_rows()),
            _write(out / f"summary_{table.metric}.md", table.to_markdown()))


def write_ranks(records: list[RunRecord], output_dir: str | Path) -> Path:
    """Friedman mean ranks per metric, one CSV for the whole experiment.

    Metrics come in the order the records first carry them, which for
    run_matrix's records and runs.csv read back is the config's order.
    """
    rows = [["metric", "algorithm", "mean_rank", "chi_square", "n_problems"]]
    for metric in dict.fromkeys(m for rec in records for m in rec.metrics):
        problems, algorithms, values = _group_values(records, metric)
        if len(problems) < 2 or len(algorithms) < 2:
            continue
        matrix = np.array([[values[(p, a)].mean() for a in algorithms]
                           for p in problems])
        fried = friedman_ranks(matrix, INDICATOR_ORIENTATION[metric])
        for i, algo in enumerate(algorithms):
            rows.append([metric, algo, f"{fried.mean_ranks[i]:.6f}",
                         f"{fried.chi_square:.6f}", str(fried.n_problems)])
    return _write(Path(output_dir) / RANKS_FILE, rows)
