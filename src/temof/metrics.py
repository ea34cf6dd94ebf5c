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


def igd(solution: np.ndarray, reference: np.ndarray) -> IndicatorResult:
    """Mean distance from each reference point to its nearest solution point."""
    solution, reference = _check_sets(solution, reference, "igd")
    nearest = np.full(reference.shape[0], np.inf)
    for plane in _squared_distance_planes(solution, reference):
        np.minimum(nearest, plane.min(axis=0), out=nearest)
    # sqrt is monotone, so the root of the minimum is the minimum of the roots
    return IndicatorResult("IGD", float(np.sqrt(nearest).mean()))


def gd(solution: np.ndarray, reference: np.ndarray) -> IndicatorResult:
    """Mean distance from each solution point to its nearest reference point."""
    solution, reference = _check_sets(solution, reference, "gd")
    nearest = np.concatenate([plane.min(axis=1) for plane
                              in _squared_distance_planes(solution, reference)])
    return IndicatorResult("GD", float(np.sqrt(nearest).mean()))


def _hv_2d(points: np.ndarray, ref: np.ndarray) -> float:
    order = np.lexsort((points[:, 1], points[:, 0]))
    pts = points[order]
    area = 0.0
    ceiling = ref[1]
    for x, y in pts:
        if y < ceiling:
            area += (ref[0] - x) * (ceiling - y)
            ceiling = y
    return area


def _sorted_levels(values: np.ndarray) -> np.ndarray:
    """The distinct values in ascending order, as `np.unique` gives them.

    `np.unique` lazily imports `numpy.ma` (about 11 ms) on its first call.
    """
    levels = np.sort(values)
    return levels[np.concatenate(([True], levels[1:] != levels[:-1]))]


def _hv_exact(points: np.ndarray, ref: np.ndarray) -> float:
    """Dimension sweep on the last coordinate; recursion bottoms out at 2-D."""
    if points.shape[0] == 0:
        return 0.0
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


def _hv_monte_carlo(points: np.ndarray, ref: np.ndarray, samples: int,
                    rng: np.random.Generator) -> float:
    lo = points.min(axis=0)
    box = np.prod(ref - lo)
    n, m = points.shape
    # a sample costs its m float64 draws, their transposed copy, and one
    # entry in each of two n x k boolean planes (the running cover and one
    # comparison); the generator fills in order, so the chunk size never
    # changes the value.  Do not shrink the cap: a plane row is one point's
    # k samples, and short rows make every ufunc loop short again.
    rows = max(1, _MC_CHUNK_BYTES // (16 * m + 2 * n))
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(rows, remaining)
        draw = np.ascontiguousarray(rng.uniform(lo, ref, size=(k, m)).T)
        # one row per point with the samples contiguous along it, so each
        # comparison, the in-place fold and the final reduce over points run
        # k-long inner loops instead of n-long ones
        covered = draw[0] >= points[:, 0, None]
        for d in range(1, m):
            covered &= draw[d] >= points[:, d, None]
        hits += int(np.logical_or.reduce(covered, axis=0).sum())
        remaining -= k
    return box * hits / samples


def hv(solution: np.ndarray, ref_point: np.ndarray, *, mode: str = "auto",
       samples: int = MC_DEFAULT_SAMPLES,
       rng: np.random.Generator | None = None) -> IndicatorResult:
    """Hypervolume dominated by the solution set relative to a reference point.

    Only points strictly below the reference point in every objective
    contribute; a NaN or infinite coordinate is an error.  mode "auto"
    computes exactly for <= 3 objectives and falls back to Monte Carlo above;
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
    if mode == "monte_carlo" and samples < 1:
        raise UsageError(f"hv: samples must be >= 1, got {samples}")
    pts = pts[(pts < ref).all(axis=1)]
    if pts.shape[0] == 0:
        return IndicatorResult("HV", 0.0, mode=mode,
                               samples=samples if mode == "monte_carlo" else None)
    if mode == "exact":
        return IndicatorResult("HV", float(_hv_exact(pts, ref)))
    if rng is None:
        rng = rng_stream(0, 0, "hv-mc")
    value = _hv_monte_carlo(pts, ref, samples, rng)
    return IndicatorResult("HV", float(value), mode="monte_carlo", samples=samples)
