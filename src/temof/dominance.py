"""Pareto dominance and fast non-dominated sorting (minimization)."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .core import ConfigurationError, UsageError


class DominanceRelation(Enum):
    FIRST_DOMINATES = "first"
    SECOND_DOMINATES = "second"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def dominates(a, b) -> DominanceRelation:
    """Pairwise dominance between two objective vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ConfigurationError(
            f"objective vectors must be 1-D and of equal length, got {a.shape} and {b.shape}")
    le = a <= b
    ge = a >= b
    if le.all() and ge.all():
        return DominanceRelation.EQUAL
    if le.all():
        return DominanceRelation.FIRST_DOMINATES
    if ge.all():
        return DominanceRelation.SECOND_DOMINATES
    return DominanceRelation.INCOMPARABLE


def domination_matrix(f: np.ndarray) -> np.ndarray:
    """Boolean matrix d[i, j] = row i dominates row j."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    le = (f[:, None, :] <= f[None, :, :]).all(axis=2)
    lt = (f[:, None, :] < f[None, :, :]).any(axis=2)
    return le & lt


def sort_fronts(f: np.ndarray) -> list[np.ndarray]:
    """Partition row indices of an objective matrix into non-dominated fronts.

    Front 0 holds the non-dominated rows; front k+1 the rows only dominated
    by fronts <= k.  Duplicate objective vectors land in the same front.
    Within a front, indices appear in ascending (original) order.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape[0] == 0:
        raise UsageError("cannot sort an empty objective matrix")
    dom = domination_matrix(f)
    n_dominators = dom.sum(axis=0).astype(np.int64)
    fronts: list[np.ndarray] = []
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append(current)
        n_dominators[current] = -1
        n_dominators -= dom[current].sum(axis=0)
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def pareto_mask(f: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows.

    Unlike sort_fronts this never builds the full pairwise matrix, so it is
    usable on large point sets (front sampling, archive checks).
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    n = f.shape[0]
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if not alive[i]:
            continue
        worse = (f >= f[i]).all(axis=1) & (f > f[i]).any(axis=1)
        alive[worse] = False
    return alive
