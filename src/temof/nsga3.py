"""Reference-point based many-objective selection (NSGA-III style).

Provides Das-Dennis reference directions, adaptive normalization,
association, niching, the two environmental selection variants used by the
framework, and the plain NSGA-III runner, which is the framework loop with
the archive switched off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigurationError, Population, ProblemSpec, RngKey, UsageError
from .dominance import sort_fronts
from .variation import VariationParams

MAX_REFERENCE_POINTS = 100_000
INTERCEPT_FLOOR = 1e-12
# associate: a squared projection within this fraction of |f|^2 of the largest
# may order opposite to the rounded distances (rounding moves either by a few
# 1e-16 |f|^2), so such rows are decided by the distances themselves
NEAR_TIE = 1e-9


@dataclass(frozen=True)
class ReferencePointSet:
    """Unit-simplex reference directions, one row per point.

    unit holds the same directions scaled to unit length, computed once.
    """

    points: np.ndarray
    unit: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.shape[0] < 1 or pts.shape[1] < 2:
            raise ConfigurationError(f"reference point set has bad shape {pts.shape}")
        norms = np.linalg.norm(pts, axis=1, keepdims=True)
        if not np.all((norms > 0) & (norms < math.inf)):
            raise ConfigurationError("reference points must be finite and nonzero")
        unit = pts / norms
        pts.flags.writeable = False
        unit.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "unit", unit)

    @property
    def n_obj(self) -> int:
        return self.points.shape[1]

    def __len__(self) -> int:
        return self.points.shape[0]


def das_dennis(n_obj: int, divisions: int) -> ReferencePointSet:
    """Simplex-lattice reference points with the given number of divisions.

    Produces C(divisions + n_obj - 1, n_obj - 1) points whose coordinates
    are multiples of 1/divisions summing to one, in lexicographic order of
    the underlying gap composition.
    """
    if n_obj < 2:
        raise ConfigurationError(f"n_obj must be >= 2, got {n_obj}")
    if divisions < 1:
        raise ConfigurationError(f"divisions must be >= 1, got {divisions}")
    count = math.comb(divisions + n_obj - 1, n_obj - 1)
    if count > MAX_REFERENCE_POINTS:
        raise ConfigurationError(
            f"das_dennis(n_obj={n_obj}, divisions={divisions}) would produce "
            f"{count} points (limit {MAX_REFERENCE_POINTS})")
    # positions of n_obj-1 separators among divisions + n_obj - 1 slots
    from itertools import combinations
    sep = np.array(list(combinations(range(1, divisions + n_obj), n_obj - 1)), dtype=int)
    padded = np.column_stack([np.zeros(count, dtype=int), sep,
                              np.full(count, divisions + n_obj, dtype=int)])
    parts = np.diff(padded, axis=1) - 1
    return ReferencePointSet(parts / divisions)


def choose_divisions(n_obj: int, max_points: int) -> int:
    """Largest division count whose lattice has at most max_points points."""
    if max_points < 1:
        raise ConfigurationError(f"max_points must be >= 1, got {max_points}")
    h = 1
    while math.comb(h + n_obj, n_obj - 1) <= max_points:
        h += 1
    return h


def reference_points_for(n: int, n_obj: int) -> ReferencePointSet:
    """Densest Das-Dennis lattice with at most n points (at least n_obj)."""
    return das_dennis(n_obj, choose_divisions(n_obj, max(n, n_obj)))


class NormalizationState:
    """Running ideal point, shared by the normalizations of one run."""

    __slots__ = ("ideal",)

    def __init__(self) -> None:
        self.ideal: np.ndarray | None = None


def normalize(objs: np.ndarray, state: NormalizationState) -> np.ndarray:
    """Translate by the running ideal point and scale by hyperplane intercepts.

    Extreme points per axis are picked by the achievement scalarizing
    function with weights 1e-6 everywhere except 1 on the axis.  If the
    intercept system is singular or yields a non-positive intercept, the
    scale falls back to (max - ideal) with a 1e-12 floor.  The running
    ideal only ever decreases; it is the only state kept between calls.
    """
    f = np.atleast_2d(np.asarray(objs, dtype=float))
    if f.shape[0] == 0:
        raise UsageError("cannot normalize an empty objective set")
    m = f.shape[1]
    ideal = f.min(axis=0)
    if state.ideal is not None:
        ideal = np.minimum(ideal, state.ideal)
    shifted = f - ideal
    weights = np.full((m, m), 1e-6)
    np.fill_diagonal(weights, 1.0)
    # asf[j, i]: scalarized value of point i for axis j, the max taken one
    # objective column at a time (exact: a max does not depend on order)
    cols = np.ascontiguousarray(shifted.T)
    asf = cols[0] / weights[:, :1]
    for k in range(1, m):
        np.maximum(asf, cols[k] / weights[:, k:k + 1], out=asf)
    extremes = shifted[asf.argmin(axis=1)]
    intercepts = None
    try:
        plane = np.linalg.solve(extremes, np.ones(m))
        with np.errstate(divide="ignore", over="ignore"):
            candidate = 1.0 / plane
        if np.all(np.isfinite(candidate)) and np.all(candidate > 0):
            intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    if intercepts is None:
        intercepts = shifted.max(axis=0)
    intercepts = np.maximum(intercepts, INTERCEPT_FLOOR)
    state.ideal = ideal
    return shifted / intercepts


def associate(normalized: np.ndarray, refs: ReferencePointSet) -> tuple[np.ndarray, np.ndarray]:
    """Closest reference direction per point by perpendicular distance.

    Returns (reference index, distance) arrays; ties go to the lowest index.
    """
    f = np.atleast_2d(np.asarray(normalized, dtype=float))
    if f.shape[1] != refs.n_obj:
        raise UsageError(
            f"points have {f.shape[1]} objectives, reference set has {refs.n_obj}")
    unit = refs.unit
    proj = f @ unit.T
    # for a unit u, dist^2 = |f|^2 - (f.u)^2: the nearest direction has the
    # largest squared projection, and only its residual needs a norm
    sq = proj * proj
    idx = sq.argmax(axis=1)
    rows = np.arange(f.shape[0])
    floor = sq[rows, idx] - NEAR_TIE * np.einsum("ij,ij->i", f, f)
    # the largest always reaches its floor, so a row is near a tie when the
    # largest of the others does too
    sq[rows, idx] = -np.inf
    near = sq.max(axis=1) >= floor
    if near.any():  # the direct formula's argmin over every residual
        idx[near] = np.linalg.norm(f[near, None, :] - proj[near, :, None] * unit,
                                   axis=2).argmin(axis=1)
    return idx, np.linalg.norm(f - proj[rows, idx][:, None] * unit[idx], axis=1)


def _niche_select(rho: np.ndarray, crit_assoc: np.ndarray, crit_dist: np.ndarray,
                  k: int, rng: np.random.Generator) -> list[int]:
    """Pick k critical-front members by Deb's niching loop.

    rho holds current niche counts per reference point (from the already
    selected members).  Returns indices into the critical front arrays.  The
    draws are rng.integers(len(ties)) and rng.integers(len(bucket)) in loop
    order.  numpy draws integers(r) for 1 < r < 2**32 by Lemire's rule on the
    next 32-bit output: m = word * r is accepted when its low 32 bits are at
    least (2**32 - r) % r, and the draw is m >> 32; a rejected word is
    skipped, and r == 1 reads no word.  The loop applies that rule inline to
    words drawn in bulk, then rewinds the generator and redraws exactly the
    words used, so it ends where the scalar calls would have left it, also
    when the loop raises.
    """
    rho = np.asarray(rho, dtype=float).tolist()
    # per reference: critical members ordered by distance, nearest first
    members: list[list[int]] = [[] for _ in rho]
    assoc = crit_assoc.tolist()
    for i in np.argsort(crit_dist, kind="stable").tolist():
        members[assoc[i]].append(i)
    picked: list[int] = []
    saved = rng.bit_generator.state
    # each turn makes at most two draws and either picks or exhausts a niche
    words = rng.integers(0, 1 << 32, size=len(rho) + 2 * k, dtype=np.uint32).tolist()
    used = 0
    try:
        while len(picked) < k:
            low = min(rho)
            if low == math.inf:
                raise UsageError("niching ran out of candidates before filling the slots")
            # references at the lowest niche count, ascending; a visit lifts j
            # out of this level, so each turn draws from one fewer of them
            ties = [j for j, count in enumerate(rho) if count == low]
            for r in range(len(ties), 0, -1):
                t = 0
                if r > 1:
                    threshold = (0x100000000 - r) % r
                    while True:
                        if used == len(words):
                            words += rng.integers(0, 1 << 32, size=len(words),
                                                  dtype=np.uint32).tolist()
                        m = words[used] * r
                        used += 1
                        if m & 0xFFFFFFFF >= threshold:
                            t = m >> 32
                            break
                j = ties.pop(t)
                bucket = members[j]
                if not bucket:
                    rho[j] = math.inf  # niche exhausted, never revisit
                    continue
                b = 0  # an empty niche's nearest member; integers(1) reads no word
                if rho[j] != 0 and len(bucket) > 1:
                    size = len(bucket)
                    threshold = (0x100000000 - size) % size
                    while True:
                        if used == len(words):
                            words += rng.integers(0, 1 << 32, size=len(words),
                                                  dtype=np.uint32).tolist()
                        m = words[used] * size
                        used += 1
                        if m & 0xFFFFFFFF >= threshold:
                            b = m >> 32
                            break
                picked.append(bucket.pop(b))
                rho[j] += 1.0
                if len(picked) == k:
                    break
    finally:
        rng.bit_generator.state = saved
        if used:
            rng.integers(0, 1 << 32, size=used, dtype=np.uint32)
    return picked


def _fill(pop: Population, fronts: list[np.ndarray], n: int, refs: ReferencePointSet,
          state: NormalizationState, rng: np.random.Generator) -> Population:
    """Keep whole fronts, then niche the last front down to what is left of n.

    Normalization runs over every member of the fronts, so the running ideal
    advances even when nothing is niched.  Niche counts start from the
    associations of the fronts kept whole.
    """
    if n < 1:
        raise UsageError(f"selection size must be >= 1, got {n}")
    members = np.concatenate(fronts)
    normalized = normalize(pop.f[members], state)
    if members.size <= n:
        return pop.take(members)
    critical = fronts[-1]
    k = members.size - critical.size
    assoc, dist = associate(normalized, refs)
    rho = np.bincount(assoc[:k], minlength=len(refs))
    picks = _niche_select(rho, assoc[k:], dist[k:], n - k, rng)
    chosen = critical[np.sort(np.asarray(picks, dtype=int))]
    return pop.take(np.concatenate([members[:k], chosen]))


def environmental_selection(pop: Population, n: int, refs: ReferencePointSet,
                            state: NormalizationState,
                            rng: np.random.Generator) -> Population:
    """Front-wise selection with reference-point niching on the critical front.

    Returns min(n, len(pop)) members; the normalization state is advanced
    in place.
    """
    # a population that fits is kept in its own order, unsorted
    fronts = sort_fronts(pop.f, cover=n) if len(pop) > n else [np.arange(len(pop))]
    return _fill(pop, fronts, n, refs, state, rng)


def first_front_selection(pop: Population, n: int, refs: ReferencePointSet,
                          state: NormalizationState,
                          rng: np.random.Generator) -> Population:
    """Keep only the first front, niching it down to n if it is larger.

    May return fewer than n members; the result is always mutually
    non-dominated.
    """
    return _fill(pop, sort_fronts(pop.f, cover=1), n, refs, state, rng)


class Nsga3Base:
    """Selection pair for the framework.

    Bundles the reference set sized to the population, a shared
    normalization state (the running ideal spans both selection variants),
    and the niching RNG stream.
    """

    def __init__(self, problem: ProblemSpec, n: int, rng: np.random.Generator):
        if n < problem.n_obj:
            raise ConfigurationError(
                f"population size {n} is below n_obj={problem.n_obj}; "
                f"reference directions cannot be built")
        self.refs = reference_points_for(n, problem.n_obj)
        self.state = NormalizationState()
        self.rng = rng

    def environmental_selection(self, pop: Population, n: int) -> Population:
        return environmental_selection(pop, n, self.refs, self.state, self.rng)

    def first_front_selection(self, pop: Population, n: int) -> Population:
        return first_front_selection(pop, n, self.refs, self.state, self.rng)


def nsga3_run(problem: ProblemSpec, n: int, max_fes: int, seed: RngKey | int,
              variation: VariationParams = VariationParams()) -> tuple[Population, int]:
    """Plain generational NSGA-III: the framework loop with the archive off.

    Initializes n members (n FEs), then repeats offspring generation and
    environmental selection while the budget check FEs <= max_fes passes at
    the top of the loop.  Returns (final population, FEs used).
    """
    from .framework import FrameworkConfig, temof_run  # framework imports this module
    result = temof_run(problem, FrameworkConfig(n=n, max_fes=max_fes), seed,
                       variation=variation, disable_archive=True)
    return result.population, result.fes
