"""Pareto dominance and fast non-dominated sorting (minimization)."""

from __future__ import annotations

import numpy as np

from .core import UsageError


def _dominates(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise "a dominates b" for objectives on axis 0 of a and b.

    The rest of the two shapes broadcast.  One comparison per objective,
    folded in place, is much faster than reducing over a last axis only
    n_obj long.
    """
    le = a[0] <= b[0]
    lt = a[0] < b[0]
    for ak, bk in zip(a[1:], b[1:]):
        le &= ak <= bk
        lt |= ak < bk
    return le & lt


def domination_matrix(f: np.ndarray) -> np.ndarray:
    """Boolean matrix d[i, j] = row i dominates row j."""
    ft = np.ascontiguousarray(np.atleast_2d(np.asarray(f, dtype=float)).T)
    return _dominates(ft[:, :, None], ft[:, None, :])


def sort_fronts(f: np.ndarray, cover: int | None = None) -> list[np.ndarray]:
    """Partition row indices of an objective matrix into non-dominated fronts.

    Front 0 holds the non-dominated rows; front k+1 the rows only dominated
    by fronts <= k.  Duplicate objective vectors land in the same front.
    Within a front, indices appear in ascending (original) order.  With
    cover given, peeling stops once the fronts returned hold at least that
    many rows, so the result is a prefix of the full partition.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    if f.shape[0] == 0:
        raise UsageError("cannot sort an empty objective matrix")
    dom = domination_matrix(f)
    n_dominators = dom.sum(axis=0).astype(np.int64)
    fronts: list[np.ndarray] = []
    covered = 0
    current = np.flatnonzero(n_dominators == 0)
    while current.size:
        fronts.append(current)
        covered += current.size
        if cover is not None and covered >= cover:
            break
        n_dominators[current] = -1
        n_dominators -= dom[current].sum(axis=0)
        current = np.flatnonzero(n_dominators == 0)
    return fronts


def pareto_mask(f: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows.

    Unlike sort_fronts this never builds the full pairwise matrix, so it is
    usable on large point sets (front sampling, archive checks).
    """
    ft = np.ascontiguousarray(np.atleast_2d(np.asarray(f, dtype=float)).T)
    n = ft.shape[1]
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if alive[i]:
            alive[_dominates(ft[:, i], ft)] = False
    return alive
