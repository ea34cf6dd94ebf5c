"""Core data types shared by the whole package.

Populations are thin wrappers around numpy arrays (decision matrix and
objective matrix); every member carries its objective values.  All
operations treat populations as immutable values: the backing arrays are
marked read-only and every transformation returns a new Population.
"""

from __future__ import annotations

import functools
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

def seed_word(seed: int) -> int:
    """The 64-bit word a seed enters its streams as; seeds with one word share them."""
    return int(seed) & 0xFFFFFFFFFFFFFFFF


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
        [seed_word(master_seed), seed_word(run_key), zlib.crc32(purpose.encode("utf-8"))]
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

    x has shape (n, n_var), f has shape (n, n_obj).  The constructor copies
    its arrays; populations built from others (take, concat) keep the fresh
    arrays that indexing and stacking make, so each array is copied once.
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

    @classmethod
    def _own(cls, x: np.ndarray, f: np.ndarray) -> "Population":
        """Wrap fresh float arrays that nothing else references, without a copy."""
        x.flags.writeable = False
        f.flags.writeable = False
        pop = cls.__new__(cls)
        pop.x, pop.f = x, f
        return pop

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
        """The members at the given integer indices, in that order."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            if idx.size:  # a mask or fractions would be cast without a word
                raise UsageError(f"take needs integer indices, got dtype {idx.dtype}")
            idx = idx.astype(int)  # [] reads as float64
        if idx.ndim != 1:
            raise UsageError(f"take needs a 1-D index array, got shape {idx.shape}")
        return Population._own(self.x[idx], self.f[idx])

    def __repr__(self) -> str:
        return f"Population(n={len(self)}, n_var={self.n_var}, n_obj={self.n_obj})"


def concat(a: Population, b: Population) -> Population:
    """Stack two populations; dimensions must agree."""
    if (a.n_var, a.n_obj) != (b.n_var, b.n_obj):
        raise ConfigurationError(
            f"cannot concat populations with shapes ({a.n_var},{a.n_obj}) and "
            f"({b.n_var},{b.n_obj})")
    return Population._own(np.concatenate([a.x, b.x]), np.concatenate([a.f, b.f]))


@functools.lru_cache(maxsize=64)
def _odd_words(width: int) -> np.ndarray:
    """width fixed odd 64-bit multipliers, one per column of a row hash."""
    words = np.random.default_rng(width).integers(0, 1 << 64, size=width, dtype=np.uint64)
    words |= np.uint64(1)
    words.flags.writeable = False
    return words


def row_hashes(x: np.ndarray) -> np.ndarray:
    """A 64-bit hash of the bytes of each row of a C-contiguous float matrix.

    The hash is the sum of the row's 64-bit words times odd constants,
    modulo 2**64, so rows that differ in a single word never share a hash;
    first_copies confirms equal hashes on the bytes.
    """
    return x.view(np.uint64) @ _odd_words(x.shape[1])


def first_copies(x: np.ndarray, n: int) -> np.ndarray:
    """Positions of the rows of x kept by deduplication.

    A row is kept when no earlier row has the same bytes, and kept rows come
    in ascending order.  If fewer than n are kept, the earliest dropped
    copies follow them, up to n positions in all; n=0 is a pure dedupe.
    Rows are grouped by a stable sort of their row_hashes, and neighbours
    with equal hashes are compared byte for byte.  Should two distinct rows
    share a hash, the rows themselves are sorted as byte strings instead.
    """
    n_rows, width = x.shape
    bits = x.view(np.uint64)
    hashes = row_hashes(x)
    # a stable sort puts every copy right after the first occurrence of its key
    order = np.argsort(hashes, kind="stable")
    ranked = hashes[order]
    copy = ranked[1:] == ranked[:-1]
    later, earlier = order[1:][copy], order[:-1][copy]
    if not (bits[later] == bits[earlier]).all():  # a hash collision
        # with no columns all rows are copies
        order = (np.argsort(bits.view(np.dtype((np.void, 8 * width))).ravel(), kind="stable")
                 if width else np.arange(n_rows))
        ranked = bits[order]
        copy = (ranked[1:] == ranked[:-1]).all(axis=1)
    kept = np.ones(n_rows, dtype=bool)
    kept[order[1:][copy]] = False
    keep, dropped = np.flatnonzero(kept), np.flatnonzero(~kept)
    return np.concatenate([keep, dropped[:max(n - keep.size, 0)]])


def merge_dedupe(a: Population, b: Population, *, n: int) -> Population:
    """Union of two populations with exact duplicate decision vectors dropped.

    Duplicates are detected by bitwise equality of the decision vector; the
    first occurrence wins (all of `a` first, then `b`).  If fewer than n rows
    remain, the earliest dropped copies follow them, up to n rows in all;
    n=0 is a pure dedupe (first_copies).
    """
    both = concat(a, b)
    return both.take(first_copies(both.x, n))


def initialize_population(problem: ProblemSpec, n: int,
                          rng: np.random.Generator) -> Population:
    """Uniform random population within bounds, with objectives (n evaluations)."""
    if n < 1:
        raise ConfigurationError(f"population size must be >= 1, got {n}")
    x = rng.uniform(problem.lower, problem.upper, size=(n, problem.n_var))
    return Population(x, problem.evaluate_batch(x))
