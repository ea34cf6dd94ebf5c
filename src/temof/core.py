"""Core data types shared by the whole package.

Populations are thin wrappers around numpy arrays (decision matrix and
objective matrix); every member carries its objective values.  All
operations treat populations as immutable values: the backing arrays are
marked read-only and every transformation returns a new Population.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.random  # numpy 2 loads it on first use, which in a worker is inside a timed run


class TemofError(Exception):
    """Base class for every error raised by this package."""


class ConfigurationError(TemofError):
    """Invalid setup: bad bounds, dimensions, budgets, or parameter ranges."""


class UsageError(TemofError):
    """An operation was called on inputs that violate its preconditions."""


class EvaluationError(TemofError):
    """A problem evaluator returned non-finite objective values."""


class UnsupportedError(TemofError):
    """The requested feature is not available for this configuration."""


# ---------------------------------------------------------------------------
# Seeded random streams
# ---------------------------------------------------------------------------

def rng_stream(master_seed: int, run_key: int, purpose: str) -> np.random.Generator:
    """Independent generator for a (master seed, run, purpose) triple.

    The purpose string is hashed with crc32, so every named consumer of
    randomness (initialization, the stage gate, variation, niching, ...)
    gets its own substream.  Reordering or parallelizing runs can never
    change the numbers any single run sees.
    """
    if not isinstance(master_seed, (int, np.integer)):
        raise ConfigurationError(f"master_seed must be an int, got {type(master_seed).__name__}")
    if not isinstance(run_key, (int, np.integer)):
        raise ConfigurationError(f"run_key must be an int, got {type(run_key).__name__}")
    seq = np.random.SeedSequence(
        [int(master_seed) & 0xFFFFFFFFFFFFFFFF, int(run_key) & 0xFFFFFFFFFFFFFFFF,
         zlib.crc32(purpose.encode("utf-8"))]
    )
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class RngKey:
    """Identity of one run for the purpose of deriving random streams."""

    master_seed: int
    run_key: int = 0

    def stream(self, purpose: str) -> np.random.Generator:
        return rng_stream(self.master_seed, self.run_key, purpose)


# ---------------------------------------------------------------------------
# Problems
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ProblemSpec:
    """A box-constrained minimization problem with a batch evaluator.

    evaluator maps a (k, n_var) array to a (k, n_obj) array.  An optional
    front_sampler(count) returns `count` points from the true Pareto front.
    """

    name: str
    n_var: int
    n_obj: int
    lower: np.ndarray
    upper: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray]
    front_sampler: Callable[[int], np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.n_var < 1 or self.n_obj < 1:
            raise ConfigurationError(
                f"{self.name}: n_var and n_obj must be >= 1, got {self.n_var}, {self.n_obj}")
        lower = np.asarray(self.lower, dtype=float).reshape(-1)
        upper = np.asarray(self.upper, dtype=float).reshape(-1)
        if lower.shape != (self.n_var,) or upper.shape != (self.n_var,):
            raise ConfigurationError(
                f"{self.name}: bounds must have shape ({self.n_var},), "
                f"got {lower.shape} and {upper.shape}")
        if not np.all(lower < upper):
            bad = int(np.argmax(~(lower < upper)))
            raise ConfigurationError(
                f"{self.name}: lower bound must be strictly below upper bound "
                f"(variable {bad}: {lower[bad]} >= {upper[bad]})")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def evaluate_batch(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if x.shape[1] != self.n_var:
            raise UsageError(
                f"{self.name}: expected decision vectors of length {self.n_var}, "
                f"got shape {x.shape}")
        f = np.asarray(self.evaluator(x), dtype=float)
        if f.shape != (x.shape[0], self.n_obj):
            raise EvaluationError(
                f"{self.name}: evaluator returned shape {f.shape}, "
                f"expected {(x.shape[0], self.n_obj)}")
        bad = ~np.isfinite(f).all(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            raise EvaluationError(
                f"{self.name}: non-finite objectives {f[i]} for input {x[i]}")
        return f

    def true_front(self, count: int) -> np.ndarray:
        if self.front_sampler is None:
            raise UnsupportedError(f"{self.name}: no true-front sampler available")
        if count < 1:
            raise UsageError(f"front sample count must be >= 1, got {count}")
        return np.asarray(self.front_sampler(count), dtype=float)


# ---------------------------------------------------------------------------
# Populations
# ---------------------------------------------------------------------------

class Population:
    """Fixed-size collection of decision vectors with their objective values.

    x has shape (n, n_var), f has shape (n, n_obj).
    """

    __slots__ = ("x", "f")

    def __init__(self, x: np.ndarray, f: np.ndarray):
        x = np.array(x, dtype=float, ndmin=2)
        if x.ndim != 2:
            raise UsageError(f"decision matrix must be 2-D, got shape {x.shape}")
        f = np.array(f, dtype=float, ndmin=2)
        if f.shape[0] != x.shape[0]:
            raise UsageError(
                f"objective matrix has {f.shape[0]} rows for {x.shape[0]} individuals")
        x.flags.writeable = False
        f.flags.writeable = False
        self.x, self.f = x, f

    @property
    def n_var(self) -> int:
        return self.x.shape[1]

    @property
    def n_obj(self) -> int:
        return self.f.shape[1]

    @property
    def objectives(self) -> np.ndarray:
        return self.f

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, indices) -> "Population":
        idx = np.asarray(indices, dtype=int)
        return Population(self.x[idx], self.f[idx])

    def __repr__(self) -> str:
        return f"Population(n={len(self)}, n_var={self.n_var}, n_obj={self.n_obj})"


def concat(*populations: Population) -> Population:
    """Stack populations; dimensions must agree."""
    if not populations:
        raise UsageError("concat needs at least one population")
    n_var = populations[0].n_var
    n_obj = populations[0].n_obj
    for p in populations[1:]:
        if p.n_var != n_var or p.n_obj != n_obj:
            raise ConfigurationError(
                f"cannot concat populations with shapes ({n_var},{n_obj}) and "
                f"({p.n_var},{p.n_obj})")
    return Population(np.vstack([p.x for p in populations]),
                      np.vstack([p.f for p in populations]))


def merge_dedupe(a: Population, b: Population, *, n: int) -> Population:
    """Union of two populations with exact duplicate decision vectors dropped.

    Duplicates are detected by bitwise equality of the decision vector; the
    first occurrence wins (all of `a` first, then `b`).  If fewer than n rows
    remain, the earliest dropped copies follow them, up to n rows in all;
    n=0 is a pure dedupe.
    """
    both = concat(a, b)
    seen: set[bytes] = set()
    keep: list[int] = []
    dropped: list[int] = []
    for i, row in enumerate(both.x):
        key = row.tobytes()
        if key in seen:
            dropped.append(i)
        else:
            seen.add(key)
            keep.append(i)
    return both.take(keep + dropped[:max(n - len(keep), 0)])


def initialize_population(problem: ProblemSpec, n: int,
                          rng: np.random.Generator) -> Population:
    """Uniform random population within bounds, with objectives (n evaluations)."""
    if n < 1:
        raise ConfigurationError(f"population size must be >= 1, got {n}")
    x = rng.uniform(problem.lower, problem.upper, size=(n, problem.n_var))
    return Population(x, problem.evaluate_batch(x))
