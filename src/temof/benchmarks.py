"""DTLZ and ZDT benchmark problems with true-front samplers.

All problems are minimization over box-constrained decision spaces.  Front
samplers return a requested number of points from the analytic Pareto
front, deterministically (lattices and grids, no randomness).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .core import ConfigurationError, ProblemSpec, UnsupportedError
from .nsga3 import das_dennis

# Least f1 = 1 - exp(-4 t) sin^6(6 pi t) over t in [0, 1/6], where ZDT6's front
# starts: the value bounded Brent minimization (xatol 1e-12) returns.  The
# closed form at t = atan(9 pi) / (6 pi) evaluates 4 ulp lower, so it is not used.
_ZDT6_F1_MIN = 0.28077531881537


# ---------------------------------------------------------------------------
# evaluators
# ---------------------------------------------------------------------------

def _dtlz_g1(tail: np.ndarray) -> np.ndarray:
    z = tail - 0.5
    return 100.0 * (tail.shape[1] + (z * z - np.cos(20.0 * np.pi * z)).sum(axis=1))


def _dtlz_g2(tail: np.ndarray) -> np.ndarray:
    z = tail - 0.5
    return (z * z).sum(axis=1)


def _shape(scale: np.ndarray, head: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """DTLZ objectives f_i = scale * prod(head[:, :M-1-i]) * tail[:, M-1-i]; f_0 has no tail."""
    m = head.shape[1] + 1
    f = np.empty((head.shape[0], m))
    for i in range(m):
        val = scale.copy()
        if m - 1 - i > 0:
            val *= np.prod(head[:, :m - 1 - i], axis=1)
        if i > 0:
            val *= tail[:, m - 1 - i]
        f[:, i] = val
    return f


def _concave_shape(theta: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Unit-sphere objectives from angles in [0, pi/2] and the g landscape."""
    return _shape(1.0 + g, np.cos(theta), np.sin(theta))


def _dtlz1(x: np.ndarray, m: int) -> np.ndarray:
    position = x[:, :m - 1]
    return _shape(0.5 * (1.0 + _dtlz_g1(x[:, m - 1:])), position, 1.0 - position)


def _dtlz2(x: np.ndarray, m: int) -> np.ndarray:
    return _concave_shape(x[:, :m - 1] * (np.pi / 2.0), _dtlz_g2(x[:, m - 1:]))


def _dtlz3(x: np.ndarray, m: int) -> np.ndarray:
    return _concave_shape(x[:, :m - 1] * (np.pi / 2.0), _dtlz_g1(x[:, m - 1:]))


def _dtlz4(x: np.ndarray, m: int) -> np.ndarray:  # bias alpha = 100
    return _concave_shape(x[:, :m - 1] ** 100.0 * (np.pi / 2.0), _dtlz_g2(x[:, m - 1:]))


def _dtlz56_theta(x: np.ndarray, m: int, g: np.ndarray) -> np.ndarray:
    theta = np.empty((x.shape[0], m - 1))
    theta[:, 0] = x[:, 0] * (np.pi / 2.0)
    if m > 2:
        scale = np.pi / (4.0 * (1.0 + g))
        theta[:, 1:] = scale[:, None] * (1.0 + 2.0 * g[:, None] * x[:, 1:m - 1])
    return theta


def _dtlz5(x: np.ndarray, m: int) -> np.ndarray:
    g = _dtlz_g2(x[:, m - 1:])
    return _concave_shape(_dtlz56_theta(x, m, g), g)


def _dtlz6(x: np.ndarray, m: int) -> np.ndarray:
    g = (x[:, m - 1:] ** 0.1).sum(axis=1)
    return _concave_shape(_dtlz56_theta(x, m, g), g)


def _dtlz7(x: np.ndarray, m: int) -> np.ndarray:
    g = 1.0 + 9.0 * x[:, m - 1:].mean(axis=1)
    f = np.empty((x.shape[0], m))
    f[:, :m - 1] = x[:, :m - 1]
    ratio = f[:, :m - 1] / (1.0 + g[:, None])
    h = m - (ratio * (1.0 + np.sin(3.0 * np.pi * f[:, :m - 1]))).sum(axis=1)
    f[:, m - 1] = (1.0 + g) * h
    return f


def _zdt_g(x: np.ndarray) -> np.ndarray:
    return 1.0 + 9.0 * x[:, 1:].sum(axis=1) / (x.shape[1] - 1)


# the ZDT shapes (f1, g * h(f1, g)); each front is its shape at g = 1
def _convex(f1: np.ndarray, g: np.ndarray | float) -> np.ndarray:  # ZDT1 and ZDT4
    return np.column_stack([f1, g * (1.0 - np.sqrt(f1 / g))])


def _concave(f1: np.ndarray, g: np.ndarray | float) -> np.ndarray:  # ZDT2 and ZDT6
    return np.column_stack([f1, g * (1.0 - (f1 / g) ** 2)])


def _disconnected(f1: np.ndarray, g: np.ndarray | float) -> np.ndarray:  # ZDT3
    return np.column_stack([f1, g * (1.0 - np.sqrt(f1 / g) - f1 / g * np.sin(10.0 * np.pi * f1))])


def _zdt4(x: np.ndarray) -> np.ndarray:
    tail = x[:, 1:]
    g = 1.0 + 10.0 * tail.shape[1] + (tail * tail - 10.0 * np.cos(4.0 * np.pi * tail)).sum(axis=1)
    return _convex(x[:, 0], g)


def _zdt6(x: np.ndarray) -> np.ndarray:
    f1 = 1.0 - np.exp(-4.0 * x[:, 0]) * np.sin(6.0 * np.pi * x[:, 0]) ** 6
    g = 1.0 + 9.0 * (x[:, 1:].sum(axis=1) / (x.shape[1] - 1)) ** 0.25
    return _concave(f1, g)


# ---------------------------------------------------------------------------
# front samplers
# ---------------------------------------------------------------------------

def _subsample(points: np.ndarray, count: int) -> np.ndarray:
    """Exactly count evenly spaced rows; requires len(points) >= count."""
    if points.shape[0] < count:
        raise UnsupportedError(
            f"front sampler produced only {points.shape[0]} candidates for {count} requested")
    idx = np.linspace(0, points.shape[0] - 1, count).astype(int)
    return points[idx]


def _grid_front(h: np.ndarray) -> np.ndarray:
    """Mask of the grid points whose f_M is below that of every point before them.

    h holds f_M over a grid whose coordinates ascend along every axis.  A point
    is dominated exactly when another point at or before it on every axis has
    an f_M no larger, so the mask is the non-dominated set, ties included.
    """
    low = np.pad(h, [(1, 0)] * h.ndim, constant_values=np.inf)
    for axis in range(h.ndim):
        low = np.minimum.accumulate(low, axis=axis)
    # the least f_M before a point lies at or before one step back along some axis
    back = [low[tuple(slice(None, -1) if a == b else slice(1, None) for b in range(h.ndim))]
            for a in range(h.ndim)]
    return h < np.minimum.reduce(back)


def _simplex_lattice(m: int, count: int) -> np.ndarray:
    h = 1
    while math.comb(h + m - 1, m - 1) < count:
        h += 1
    return das_dennis(m, h).points


@lru_cache(maxsize=64)
def _front_points(family: str, m: int, count: int) -> np.ndarray:
    if family == "DTLZ1":
        front = 0.5 * _subsample(_simplex_lattice(m, count), count)
    elif family in ("DTLZ2", "DTLZ3", "DTLZ4"):
        w = _subsample(_simplex_lattice(m, count), count)
        front = w / np.linalg.norm(w, axis=1, keepdims=True)
    elif family in ("DTLZ5", "DTLZ6"):
        theta = np.linspace(0.0, np.pi / 2.0, count)
        head = np.cos(theta) * np.cos(np.pi / 4.0) ** (m - 2)
        front = np.column_stack([head] * (m - 1) + [np.sin(theta)])
    elif family == "DTLZ7":
        # a 12x oversampled grid holds at least count front points (checked up to 20 000)
        side = 12 * count if m == 2 else math.ceil(math.sqrt(12 * count))
        axes = np.meshgrid(*[np.linspace(0.0, 1.0, side)] * (m - 1))  # rows f2, columns f1
        grid = np.column_stack([a.ravel() for a in axes])
        h = m - (grid * (1.0 + np.sin(3.0 * np.pi * grid))).sum(axis=1)
        keep = _grid_front(h.reshape(axes[0].shape)).ravel()
        front = _subsample(np.column_stack([grid, h])[keep], count)
    elif family in ("ZDT1", "ZDT4"):
        front = _convex(np.linspace(0.0, 1.0, count), 1.0)
    elif family == "ZDT3":
        points = _disconnected(np.linspace(0.0, 1.0, 16 * count), 1.0)
        front = _subsample(points[_grid_front(points[:, 1])], count)
    else:  # ZDT6's f1 cannot reach 0
        front = _concave(np.linspace(_ZDT6_F1_MIN if family == "ZDT6" else 0.0, 1.0, count), 1.0)
    front = np.asarray(front, dtype=float)
    front.flags.writeable = False
    return front


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# name -> (evaluator, k): the default n_var is n_obj - 1 + k, with the usual tail size k
_DTLZ = {"DTLZ1": (_dtlz1, 5), "DTLZ2": (_dtlz2, 10), "DTLZ3": (_dtlz3, 10),
         "DTLZ4": (_dtlz4, 10), "DTLZ5": (_dtlz5, 10), "DTLZ6": (_dtlz6, 10),
         "DTLZ7": (_dtlz7, 20)}
_ZDT = {"ZDT1": (lambda x: _convex(x[:, 0], _zdt_g(x)), 30),  # (evaluator, n_var)
        "ZDT2": (lambda x: _concave(x[:, 0], _zdt_g(x)), 30),
        "ZDT3": (lambda x: _disconnected(x[:, 0], _zdt_g(x)), 30),
        "ZDT4": (_zdt4, 10), "ZDT6": (_zdt6, 10)}


def problem_names() -> list[str]:
    return sorted(_DTLZ) + sorted(_ZDT)


def make_problem(name: str, n_var: int | None = None, n_obj: int | None = None) -> ProblemSpec:
    """Instantiate a benchmark by name with optional dimension overrides."""
    key = str(name).upper()  # a non-string name is reported as unknown below
    if key in _DTLZ:
        evaluator, k = _DTLZ[key]
        m = 3 if n_obj is None else int(n_obj)
        if m < 2:
            raise ConfigurationError(f"{key}: n_obj must be >= 2, got {m}")
        d = (m - 1 + k) if n_var is None else int(n_var)
        if d < m:
            raise ConfigurationError(
                f"{key}: n_var must be at least n_obj (got n_var={d}, n_obj={m})")
        # the DTLZ5/6 (degenerate) and DTLZ7 (disconnected) front samplers stop
        # at 3 objectives; without a sampler true_front raises UnsupportedError
        sampled = m <= 3 or key not in ("DTLZ5", "DTLZ6", "DTLZ7")
        return ProblemSpec(
            name=key, n_var=d, n_obj=m,
            lower=np.zeros(d), upper=np.ones(d),
            evaluator=lambda x, _e=evaluator, _m=m: _e(x, _m),
            front_sampler=(lambda count, _k=key, _m=m: _front_points(_k, _m, count))
            if sampled else None)
    if key in _ZDT:
        evaluator, default_vars = _ZDT[key]
        if n_obj is not None and int(n_obj) != 2:
            raise ConfigurationError(f"{key}: n_obj is fixed at 2, got {n_obj}")
        d = default_vars if n_var is None else int(n_var)
        if d < 2:
            raise ConfigurationError(f"{key}: n_var must be >= 2, got {d}")
        lower = np.zeros(d)
        upper = np.ones(d)
        if key == "ZDT4":
            lower[1:] = -5.0
            upper[1:] = 5.0
        return ProblemSpec(
            name=key, n_var=d, n_obj=2, lower=lower, upper=upper,
            evaluator=evaluator,
            front_sampler=lambda count, _k=key: _front_points(_k, 2, count))
    raise ConfigurationError(f"unknown problem {name!r}; known: {', '.join(problem_names())}")


def sample_true_front(problem: ProblemSpec, count: int) -> np.ndarray:
    """count points from the problem's analytic front."""
    return problem.true_front(count)
