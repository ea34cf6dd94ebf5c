"""Quality indicators: IGD, GD, and hypervolume.

Hypervolume is exact (dimension-sweep) for up to three objectives and
Monte Carlo for more.  All indicators assume minimization.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import UsageError, rng_stream

MC_DEFAULT_SAMPLES = 1_000_000
_MC_CHUNK_BYTES = 8 * 2**20  # working memory of one Monte Carlo chunk
_MC_TABLE_BYTES = 8 * 2**20  # cap on the Monte Carlo lookup tables
_MC_BUCKETS = 4096  # lookup-table buckets per objective, at most
_DISTANCE_BLOCK = 2**15  # entries of one distance plane (256 KiB), so it stays in cache


@dataclass(frozen=True)
class IndicatorResult:
    """Value of one indicator plus how it was computed."""

    name: str
    value: float
    mode: str = "exact"
    samples: int | None = None


def _check_sets(a: np.ndarray, b: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise UsageError(f"{what}: point sets must be non-empty")
    if a.shape[1] != b.shape[1]:
        raise UsageError(
            f"{what}: dimension mismatch, {a.shape[1]} vs {b.shape[1]} objectives")
    _check_finite(a, what, "solution set")
    _check_finite(b, what, "reference set")
    return a, b


def _check_finite(a: np.ndarray, what: str, name: str) -> None:
    if not np.isfinite(a).all():
        raise UsageError(f"{what}: {name} holds NaN or infinity")


def _squared_distance_planes(solution: np.ndarray, reference: np.ndarray):
    """Squared distances from a block of solution rows to every reference row.

    Yields one (block x reference) plane per block of consecutive solution
    rows.  The squared differences are summed one objective column at a time,
    in sequence, which is scipy's cdist order, so the square roots of the
    minima equal cdist's minima bit for bit.
    """
    rows = max(1, _DISTANCE_BLOCK // reference.shape[0])
    cols = [np.ascontiguousarray(c) for c in reference.T]
    for start in range(0, solution.shape[0], rows):
        block = solution[start:start + rows]
        d = block[:, 0, None] - cols[0]
        plane = d * d
        for j, col in enumerate(cols[1:], 1):
            np.subtract(block[:, j, None], col, out=d)
            d *= d
            plane += d
        yield plane


def _mean_distance(what: str, nearest: np.ndarray) -> IndicatorResult:
    """The mean of the roots of the nearest squared distances; an overflowed
    square is an error, not an infinite mean."""
    # sqrt is monotone, so the root of the minimum is the minimum of the roots
    value = float(np.sqrt(nearest).mean())
    if not np.isfinite(value):
        raise UsageError(f"{what}: a distance between the sets passes the float range")
    return IndicatorResult(what.upper(), value)


def igd(solution: np.ndarray, reference: np.ndarray) -> IndicatorResult:
    """Mean distance from each reference point to its nearest solution point."""
    solution, reference = _check_sets(solution, reference, "igd")
    nearest = np.full(reference.shape[0], np.inf)
    with np.errstate(over="ignore"):
        for plane in _squared_distance_planes(solution, reference):
            np.minimum(nearest, plane.min(axis=0), out=nearest)
    return _mean_distance("igd", nearest)


def gd(solution: np.ndarray, reference: np.ndarray) -> IndicatorResult:
    """Mean distance from each solution point to its nearest reference point."""
    solution, reference = _check_sets(solution, reference, "gd")
    with np.errstate(over="ignore"):
        nearest = np.concatenate([plane.min(axis=1) for plane
                                  in _squared_distance_planes(solution, reference)])
    return _mean_distance("gd", nearest)


def _hv_2d(points: np.ndarray, ref: np.ndarray) -> float:
    # slabs summed in sweep order by `np.cumsum`: a pairwise `np.sum` moves last bits
    x, y = points[np.lexsort((points[:, 1], points[:, 0]))].T
    ceiling = np.minimum.accumulate(np.concatenate((ref[1:2], y)))[:-1]
    below = y < ceiling
    slabs = (ref[0] - x[below]) * (ceiling[below] - y[below])
    return np.cumsum(np.concatenate(([0.0], slabs)))[-1]


def _sorted_levels(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as `np.unique` gives them.

    `np.unique` lazily imports `numpy.ma` (about 11 ms) on its first call.
    """
    levels = np.sort(values)
    return levels[np.concatenate(([True], levels[1:] != levels[:-1]))]


def _hv_exact(points: np.ndarray, ref: np.ndarray) -> float:
    """Dimension sweep on the last coordinate; recursion bottoms out at 2-D."""
    if points.shape[1] == 1:
        return float(ref[0] - points[:, 0].min())
    if points.shape[1] == 2:
        return _hv_2d(points, ref)
    levels = _sorted_levels(points[:, -1])
    volume = 0.0
    for i, z in enumerate(levels):
        top = levels[i + 1] if i + 1 < levels.size else ref[-1]
        active = points[points[:, -1] <= z][:, :-1]
        volume += (top - z) * _hv_exact(active, ref[:-1])
    return volume


def _mc_table(points: np.ndarray, lo: np.ndarray, scale: np.ndarray,
              buckets: int) -> np.ndarray:
    """Per objective and bucket of draws, the masks of the points covered.

    Bucket b of an objective holds the draws u with floor(u * buckets) == b;
    its least sample, made as `Generator.uniform` makes one, is
    ``lo + scale * (b / buckets)``, and samples never decrease as u grows.
    A mask is w = ceil(n / 64) uint64 words, bit i for point i.  Row `[d, b]`
    holds two: in words [0, w) the points that every draw in the bucket
    reaches in objective d (its least sample does), in words [w, 2w) a
    superset of those some draw in it reaches (the next bucket's least
    sample does; all points in the last bucket).  Each is a prefix OR over
    the buckets of the bits set at the first bucket that qualifies.
    """
    n, m = points.shape
    words = -(-n // 64)
    least = lo + scale * (np.arange(buckets) / buckets)[:, None]
    # the first full bucket, or the spare last row, which no draw indexes
    full = np.stack([np.searchsorted(c, p) for c, p in zip(least.T, points.T)], axis=1)
    point = np.arange(n)
    bit = np.left_shift(np.uint64(1), (point % 64).astype(np.uint64))[:, None]
    table = np.zeros((m, buckets + 1, 2 * words), dtype=np.uint64)
    for first, word in ((full, point // 64), (np.maximum(full - 1, 0), words + point // 64)):
        np.bitwise_or.at(table, (np.arange(m), first, word[:, None]), bit)
    np.bitwise_or.accumulate(table, axis=1, out=table)
    return table[:, :buckets]


def _any_word(masks: np.ndarray) -> np.ndarray:
    """Rows of a (k x w) mask array with a bit set; `any(axis=1)` is slow on short rows."""
    found = masks[:, 0] != 0
    for w in range(1, masks.shape[1]):
        found |= masks[:, w] != 0
    return found


def _hv_monte_carlo(points: np.ndarray, ref: np.ndarray, samples: int,
                    rng: np.random.Generator) -> float:
    lo = points.min(axis=0)
    scale = ref - lo
    box = float(np.prod(scale))
    n, m = points.shape
    words = -(-n // 64)
    buckets = _MC_BUCKETS
    while buckets > 1 and 16 * m * (buckets + 1) * words > _MC_TABLE_BYTES:
        buckets //= 2
    table = _mc_table(points, lo, scale, buckets)
    # a sample costs its m draws and m bucket indices, two rows of 2w mask
    # words (a fold and its operand), and at worst a position, a copy of its
    # draws and one entry in each of two n x k boolean planes of the exact
    # comparison; the generator fills in order, so the chunk size never
    # changes the value, and the buffers serve every chunk
    rows = min(samples, max(1, _MC_CHUNK_BYTES // (24 * m + 32 * words + 2 * n + 16)))
    draw = np.empty((rows, m))
    index = np.empty((m, rows), dtype=np.intp)
    fold = np.empty((rows, 2 * words), dtype=np.uint64)
    operand = np.empty_like(fold)
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(rows, remaining)
        u = draw[:k]
        rng.random(out=u)
        idx = index[:, :k]
        np.multiply(u.T, buckets, out=idx, casting="unsafe")  # exact, then floored
        acc, tmp = fold[:k], operand[:k]
        table[0].take(idx[0], axis=0, out=acc)
        for d in range(1, m):
            table[d].take(idx[d], axis=0, out=tmp)
            acc &= tmp
        covered = _any_word(acc[:, :words])
        hits += int(np.count_nonzero(covered))
        # the exact comparison decides a sample that no point fully covers
        # but that every objective's bucket lets some point reach
        near = np.flatnonzero(_any_word(acc[:, words:]) & ~covered)
        if near.size:
            # in place, the same bits as `lo + scale * u`
            x = u[near]
            x *= scale
            x += lo
            hit = x[:, 0] >= points[:, 0, None]
            for d in range(1, m):
                hit &= x[:, d] >= points[:, d, None]
            hits += int(np.count_nonzero(hit.any(axis=0)))
        remaining -= k
    value = box * hits / samples
    # box * hits can pass the float range when the HV itself does not
    return value if np.isfinite(value) else box * (hits / samples)


def hv(solution: np.ndarray, ref_point: np.ndarray, *, mode: str = "auto",
       samples: int = MC_DEFAULT_SAMPLES,
       rng: np.random.Generator | None = None) -> IndicatorResult:
    """Hypervolume dominated by the solution set relative to a reference point.

    Only points strictly below the reference point in every objective
    contribute; a NaN or infinite coordinate is an error, and so is a box
    from their ideal point to the reference point whose volume, or that of
    a face, passes the float range or falls below its normal numbers.  mode
    "auto" computes exactly for <= 3 objectives and falls back to Monte Carlo above;
    "exact" and "monte_carlo" force a method.  The Monte Carlo path uses the
    supplied generator or a fixed default stream, so repeated calls agree.
    """
    pts = np.atleast_2d(np.asarray(solution, dtype=float))
    ref = np.asarray(ref_point, dtype=float).reshape(-1)
    if pts.shape[0] == 0:
        raise UsageError("hv: solution set must be non-empty")
    if pts.shape[1] != ref.shape[0]:
        raise UsageError(
            f"hv: dimension mismatch, {pts.shape[1]} objectives vs "
            f"reference point of length {ref.shape[0]}")
    if mode not in ("auto", "exact", "monte_carlo"):
        raise UsageError(f"hv: unknown mode {mode!r}")
    _check_finite(pts, "hv", "solution set")
    _check_finite(ref, "hv", "reference point")
    if mode == "auto":
        mode = "exact" if ref.shape[0] <= 3 else "monte_carlo"
    if mode == "exact" and ref.shape[0] > 3:
        raise UsageError(
            f"hv: exact mode supports at most 3 objectives, got {ref.shape[0]}")
    if mode == "monte_carlo":
        if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)):
            raise UsageError(f"hv: samples must be an integer, got {samples!r}")
        if samples < 1:
            raise UsageError(f"hv: samples must be >= 1, got {samples}")
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return IndicatorResult("HV", 0.0, mode=mode,
                               samples=samples if mode == "monte_carlo" else None)
    # the sweep's partial volumes and the sampling box must be finite and
    # normal, or an overflow would be reported as an infinite HV and an
    # underflow as an HV of 0
    lo = pts.min(axis=0)
    with np.errstate(over="ignore"):
        volumes = np.cumprod(ref - lo)
    if not (np.isfinite(volumes) & (volumes >= np.finfo(float).tiny)).all():
        raise UsageError(
            f"hv: the box from {lo.tolist()} to the reference point {ref.tolist()} "
            f"has a volume beyond the float range")
    if mode == "exact":
        return IndicatorResult("HV", float(_hv_exact(pts, ref)))
    if rng is None:
        rng = rng_stream(0, 0, "hv-mc")
    value = _hv_monte_carlo(pts, ref, samples, rng)
    return IndicatorResult("HV", float(value), mode="monte_carlo", samples=samples)
