"""Reference-point based many-objective selection (NSGA-III style).

Provides Das-Dennis reference directions, adaptive normalization,
association, niching, the selection the framework's base makes from the
fronts it is given (Nsga3Base.select), the two environmental selection
variants of a population built on it, and the plain NSGA-III runner, which
is the framework loop with the archive switched off.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import groupby

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
    """What the normalizations of one run share: the running ideal point, and
    the bytes of the last extreme points with the intercepts solved for them
    (None when that system gave no usable intercepts).
    """

    __slots__ = ("ideal", "extremes", "solved")

    def __init__(self) -> None:
        self.ideal: np.ndarray | None = None
        self.extremes: bytes | None = None
        self.solved: np.ndarray | None = None

    def lower(self, f: np.ndarray) -> np.ndarray:
        """Lower the running ideal to the column minima of f, and return it."""
        if f.shape[0] == 0:
            raise UsageError("cannot normalize an empty objective set")
        ideal = f.min(axis=0)
        if self.ideal is not None:
            ideal = np.minimum(ideal, self.ideal)
        self.ideal = ideal
        return ideal


def _solve_intercepts(extremes: np.ndarray) -> np.ndarray | None:
    """Hyperplane intercepts through the extreme points, or None when the
    system is singular or an intercept is not positive and finite."""
    try:
        plane = np.linalg.solve(extremes, np.ones(extremes.shape[1]))
    except np.linalg.LinAlgError:
        return None
    with np.errstate(divide="ignore", over="ignore"):
        candidate = 1.0 / plane
    if (candidate > 0).all() and (candidate < math.inf).all():
        return candidate
    return None


def normalize(objs: np.ndarray, state: NormalizationState) -> np.ndarray:
    """Translate by the running ideal point and scale by hyperplane intercepts.

    Extreme points per axis are picked by the achievement scalarizing
    function with weights 1e-6 everywhere except 1 on the axis.  If the
    intercept system is singular or yields a non-positive intercept, the
    scale falls back to (max - ideal) with a 1e-12 floor.  The running
    ideal only ever decreases.  Extreme points byte-equal to the last
    call's reuse its solve; the fallback and the floor always come from the
    current rows.
    """
    f = np.atleast_2d(np.asarray(objs, dtype=float))
    m = f.shape[1]
    shifted = f - state.lower(f)
    weights = np.full((m, m), 1e-6)
    np.fill_diagonal(weights, 1.0)
    # asf[j, i]: scalarized value of point i for axis j, the max taken one
    # objective column at a time (exact: a max does not depend on order)
    cols = np.ascontiguousarray(shifted.T)
    asf = cols[0] / weights[:, :1]
    for k in range(1, m):
        np.maximum(asf, cols[k] / weights[:, k:k + 1], out=asf)
    extremes = shifted[asf.argmin(axis=1)]
    key = extremes.tobytes()
    if key != state.extremes:
        state.extremes, state.solved = key, _solve_intercepts(extremes)
    intercepts = state.solved
    if intercepts is None:
        intercepts = shifted.max(axis=0)
    return shifted / np.maximum(intercepts, INTERCEPT_FLOOR)


def associate(normalized: np.ndarray, refs: ReferencePointSet) -> tuple[np.ndarray, np.ndarray]:
    """Closest reference direction per point by perpendicular distance.

    Returns (reference index, distance) arrays; ties go to the lowest index.
    A row's result can depend on the other rows of the batch: the matrix
    product splits its work into blocks by the batch's shape, which can move
    a projection by a rounding step.  With OpenBLAS on an x86 host, about 1
    random row subset in 1000 (M = 2, 3, 5) gave some row an index or
    distance bits other than the full batch gave it, so associations are
    never reused across batches.
    """
    f = np.atleast_2d(np.asarray(normalized, dtype=float))
    if f.shape[1] != refs.n_obj:
        raise UsageError(
            f"points have {f.shape[1]} objectives, reference set has {refs.n_obj}")
    unit = refs.unit
    proj = f @ unit.T
    # for a unit u, dist^2 = |f|^2 - (f.u)^2: the nearest direction has the
    # largest squared projection, and only its residual needs a norm
    # (np.square rounds each product as proj * proj does, at half its cost)
    sq = np.square(proj)
    idx = sq.argmax(axis=1)
    starts = np.arange(0, proj.size, proj.shape[1])  # flat index of each row's first entry
    flat = starts + idx
    floor = sq.take(flat) - NEAR_TIE * np.einsum("ij,ij->i", f, f)
    # the largest always reaches its floor, so a row is near a tie when the
    # largest of the others does too (read at its argmax, which beats a max)
    sq.put(flat, -np.inf)
    near = sq.take(starts + sq.argmax(axis=1)) >= floor
    # residual norms are taken as np.linalg.norm takes them for real rows,
    # without its per-call checks
    if near.any():  # the direct formula's argmin over every residual
        resid = f[near, None, :] - proj[near, :, None] * unit
        idx[near] = np.sqrt(np.add.reduce(resid * resid, axis=2)).argmin(axis=1)
        flat = starts + idx
    resid = f - proj.take(flat)[:, None] * unit[idx]
    return idx, np.sqrt(np.add.reduce(resid * resid, axis=1))


class WordStream:
    """The 32-bit words of one generator, read strictly in order.

    integers(0, 2**32, dtype=uint32) returns a generator's next 32-bit
    outputs, and draws of any size continue one another, so the words are
    drawn in blocks of at least BLOCK.  block holds the words drawn and not
    yet dropped, words the same as Python ints, and the unread ones start at
    index pos of both.  A reader consumes words by moving pos, and leaves
    the stream where the generator's own scalar draws would have left it.
    """

    BLOCK = 4096
    __slots__ = ("rng", "block", "words", "pos")

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.block = np.empty(0, dtype=np.uint32)
        self.words: list[int] = []
        self.pos = 0

    def reserve(self, count: int) -> None:
        """Hold at least count unread words, drawing max(count, BLOCK) more if not.

        words stays the same list, so a reader may keep it; pos moves to 0.
        """
        if len(self.words) - self.pos < count:
            more = self.rng.integers(0, 1 << 32, size=max(count, self.BLOCK), dtype=np.uint32)
            self.block = np.concatenate([self.block[self.pos:], more])
            del self.words[:self.pos]
            self.words += more.tolist()
            self.pos = 0


def _accepted(m: int, r: int, stream: WordStream, used: int, need: int) -> tuple[int, int]:
    """Finish a draw below r whose product m = word * r has low 32 bits below r.

    Lemire's rule accepts m when those bits reach (2**32 - r) % r, which is
    below r, and otherwise reads the next word.  Before each such word the
    stream holds again the `need` words its call reserves, so the rest of
    the call still finds its words.  Returns the accepted product and the
    read position, which a refill moves.
    """
    threshold = (0x100000000 - r) % r
    words = stream.words
    while m & 0xFFFFFFFF < threshold:
        stream.pos = used
        stream.reserve(need)
        used = stream.pos
        m = words[used] * r
        used += 1
    return m, used


def _niche_select(rho: np.ndarray, crit_assoc: np.ndarray, crit_dist: np.ndarray,
                  k: int, stream: WordStream) -> list[int]:
    """Pick k critical-front members by Deb's niching loop.

    rho holds the whole-number niche count of each reference point (from the
    already selected members).  Returns indices into the critical front
    arrays, ascending.  The loop visits one level of tied counts at a time,
    in a random order: the draws are rng.integers(len(ties)) and, above
    count 0, rng.integers(len(bucket)) in loop order, for the generator
    that the stream reads.  Levels after the first hold the references the
    last level lifted and those whose starting count is one higher.

    numpy draws integers(r) for 1 < r < 2**32 by Lemire's rule on the next
    32-bit output: m = word * r is accepted when its low 32 bits are at
    least (2**32 - r) % r, and the draw is m >> 32; a rejected word is
    skipped, and r == 1 reads no word.  As (2**32 - r) % r < r, a product
    whose low 32 bits reach r is accepted at once; only one below r needs
    the exact test (_accepted).  The loop applies that rule inline to the
    stream's words, in order, so the stream ends where the scalar calls
    would have left the generator.  A visit either picks a member or drops
    an empty niche for good, and reads at most two words without a
    rejection, so a call reserves 2 * (k + len(rho)) words once.  More
    slots than critical members raise before any word is read; otherwise
    the loop fills every slot, as a niche that still holds members is
    lifted into the next level.

    A first level at count 0 settles in one step when fewer of its niches
    hold members than there are slots: no visit there draws a member, so
    whatever the visit order it picks the nearest member of each such
    niche, and it reads the next len(ties) - 1 words, for ranges len(ties)
    down to 2.  That holds when no word can be rejected, which is checked
    in bulk; otherwise the level goes through the loop.
    """
    if k > crit_assoc.size:
        raise UsageError("niching ran out of candidates before filling the slots")
    rho = np.asarray(rho)
    need = 2 * (k + rho.size)
    stream.reserve(need)
    words = stream.words
    used = stream.pos
    # per reference: critical members ordered by distance, nearest first
    members: list[list[int]] = [[] for _ in range(rho.size)]
    assoc = crit_assoc.tolist()
    for i in np.argsort(crit_dist, kind="stable").tolist():
        members[assoc[i]].append(i)
    # the starting levels, lowest count last: (count, its references ascending)
    if rho.any():
        levels = [(count, list(refs)) for count, refs in
                  groupby(np.argsort(rho, kind="stable").tolist(), rho.tolist().__getitem__)]
        levels.reverse()
    else:  # no member selected yet: one level of every reference
        levels = [(0, list(range(rho.size)))]
    low, ties = levels[-1]
    full = [j for j in ties if members[j]]
    picked: list[int] = []
    lifted: list[int] = []
    if low == 0 and len(full) < k:
        skip = len(ties) - 1
        # the uint32 products keep their low 32 bits
        ranges = np.arange(len(ties), 1, -1, dtype=np.uint32)
        if (stream.block[used:used + skip] * ranges >= ranges).all():
            used += skip
            levels.pop()
            picked = [members[j].pop(0) for j in full]
            lifted = full
    while len(picked) < k:  # one level per turn
        if lifted:
            low += 1
            if levels and levels[-1][0] == low:
                lifted += levels.pop()[1]
            lifted.sort()
        else:
            low, lifted = levels.pop()
        ties, lifted = lifted, []
        take = ties.pop
        drawn = low != 0  # an empty niche gives its nearest member
        # a visit lifts j out of this level, so each turn draws from one
        # fewer of its references
        for r in range(len(ties), 0, -1):
            t = 0
            if r > 1:
                m = words[used] * r
                used += 1
                if m & 0xFFFFFFFF < r:
                    m, used = _accepted(m, r, stream, used, need)
                t = m >> 32
            j = take(t)
            bucket = members[j]
            if not bucket:
                continue  # niche exhausted, never revisit
            b = 0  # integers(1) reads no word
            if drawn and len(bucket) > 1:
                size = len(bucket)
                m = words[used] * size
                used += 1
                if m & 0xFFFFFFFF < size:
                    m, used = _accepted(m, size, stream, used, need)
                b = m >> 32
            picked.append(bucket.pop(b))
            lifted.append(j)
            if len(picked) == k:
                break
    stream.pos = used
    picked.sort()
    return picked


def _keep(f: np.ndarray, fronts: list[np.ndarray], n: int, refs: ReferencePointSet,
          state: NormalizationState, stream: WordStream) -> np.ndarray:
    """The row indices of f kept out of fronts: whole fronts, then the last
    front niched down to what is left of n.

    The running ideal takes in every member of the fronts, also when they fit
    in n and nothing is normalized.  Niche counts start from the
    associations of the fronts kept whole.
    """
    if n < 1:
        raise UsageError(f"selection size must be >= 1, got {n}")
    members = fronts[0] if len(fronts) == 1 else np.concatenate(fronts)
    if members.size <= n:
        state.lower(f[members])
        return members
    normalized = normalize(f[members], state)
    critical = fronts[-1]
    k = members.size - critical.size
    assoc, dist = associate(normalized, refs)
    rho = np.bincount(assoc[:k], minlength=len(refs))
    picks = _niche_select(rho, assoc[k:], dist[k:], n - k, stream)
    chosen = critical[picks]
    return np.concatenate([members[:k], chosen]) if k else chosen


def _fill(pop: Population, fronts: list[np.ndarray], n: int, refs: ReferencePointSet,
          state: NormalizationState, stream: WordStream) -> Population:
    """The members of pop that _keep keeps."""
    return pop.take(_keep(pop.f, fronts, n, refs, state, stream))


def environmental_selection(pop: Population, n: int, refs: ReferencePointSet,
                            state: NormalizationState,
                            stream: WordStream) -> Population:
    """Front-wise selection with reference-point niching on the critical front.

    Returns min(n, len(pop)) members; the normalization state is advanced
    in place.
    """
    # a population that fits is kept in its own order, unsorted
    fronts = sort_fronts(pop.f, cover=n) if len(pop) > n else [np.arange(len(pop))]
    return _fill(pop, fronts, n, refs, state, stream)


def first_front_selection(pop: Population, n: int, refs: ReferencePointSet,
                          state: NormalizationState,
                          stream: WordStream) -> Population:
    """Keep only the first front, niching it down to n if it is larger.

    May return fewer than n members; the result is always mutually
    non-dominated.
    """
    return _fill(pop, sort_fronts(pop.f, cover=1), n, refs, state, stream)


class Nsga3Base:
    """Base algorithm of the framework: NSGA-III's selection.

    Bundles the reference set sized to the population, a shared
    normalization state (the running ideal spans every selection of a run),
    and the word stream of the niching generator, which nothing else reads.
    """

    def __init__(self, problem: ProblemSpec, n: int, rng: np.random.Generator):
        if n < problem.n_obj:
            raise ConfigurationError(
                f"population size {n} is below n_obj={problem.n_obj}; "
                f"reference directions cannot be built")
        self.refs = reference_points_for(n, problem.n_obj)
        self.state = NormalizationState()
        self.words = WordStream(rng)

    def select(self, objectives: np.ndarray, fronts: list[np.ndarray], n: int) -> np.ndarray:
        """The row indices of objectives kept out of fronts, at most n (_keep)."""
        return _keep(objectives, fronts, n, self.refs, self.state, self.words)


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
