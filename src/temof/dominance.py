"""Pareto dominance and fast non-dominated sorting (minimization)."""

from __future__ import annotations

import numpy as np

from .core import UsageError


def domination_matrix(f: np.ndarray) -> np.ndarray:
    """Boolean matrix d[i, j] = row i dominates row j, for f free of NaN.

    Each objective column is replaced by its dense ranks, so that
    r[k, i] <= r[k, j] exactly when f[i, k] <= f[j, k] (infinities included,
    -0.0 and 0.0 tied): small unsigned ints compare several times faster than
    floats.  One <= per objective gives weak dominance L.  When L[i, j] holds,
    the rank sum of i is at most that of j, and equal only when every rank
    is, so strict dominance is L with the rank sum of i strictly lower: one
    contiguous < instead of a pass over the transpose of L.  A rank sum is at
    most m * (n - 1), and the sums take the smallest unsigned type that holds it.
    """
    ft = np.ascontiguousarray(np.atleast_2d(np.asarray(f, dtype=float)).T)
    m, n = ft.shape
    order = np.argsort(ft, axis=1)
    order += np.arange(m)[:, None] * n  # flat indices into ft
    s = ft.take(order)
    dense = np.zeros((m, n), np.min_scalar_type(n - 1))
    np.cumsum(s[:, 1:] != s[:, :-1], axis=1, out=dense[:, 1:])
    r = np.empty_like(dense)
    r.put(order, dense)
    total = r.sum(axis=0, dtype=np.min_scalar_type(m * (n - 1)))
    dom = np.less(total[:, None], total)
    buf = np.empty_like(dom)
    for rk in r:
        dom &= np.less_equal(rk[:, None], rk, out=buf)
    return dom


def sort_fronts(f: np.ndarray, cover: int | None = None) -> list[np.ndarray]:
    """Partition row indices of an objective matrix into non-dominated fronts.

    Front 0 holds the non-dominated rows; front k+1 the rows only dominated
    by fronts <= k.  Duplicate objective vectors land in the same front.
    Within a front, indices appear in ascending (original) order.  With
    cover given, peeling stops once the fronts returned hold at least that
    many rows, so the result is a prefix of the full partition.  Infinite
    objectives are ordered as usual; NaN is an error.
    """
    f = np.atleast_2d(np.asarray(f, dtype=float))
    n = f.shape[0]
    if n == 0:
        raise UsageError("cannot sort an empty objective matrix")
    if np.isnan(f).any():
        raise UsageError("sort_fronts: objective matrix holds NaN")
    return _peel(domination_matrix(f), cover)


def subset_fronts(dom: np.ndarray, rows: np.ndarray, cover: int | None = None
                  ) -> list[np.ndarray]:
    """sort_fronts of the rows of an objective matrix at the given indices,
    read off its domination matrix dom.

    rows may repeat an index; the fronts hold positions in rows.  Only the
    subset's rows of dom are gathered: the columns of the subset are picked
    out of each front test.
    """
    return _peel(dom[rows], cover, rows)


def _peel(dom: np.ndarray, cover: int | None, cols=slice(None)) -> list[np.ndarray]:
    """Peel fronts off the rows of a domination matrix, which are overwritten,
    until they hold cover rows or all of them.  Column cols[i] of dom is the
    column of row i."""
    n = dom.shape[0]
    left = np.ones(n, dtype=bool)
    fronts: list[np.ndarray] = []
    covered = 0
    current = np.flatnonzero(~dom.any(axis=0)[cols])
    while True:
        fronts.append(current)
        covered += current.size
        if covered == n or cover is not None and covered >= cover:
            return fronts
        left[current] = False
        dom[current] = False  # a peeled row no longer counts as a dominator
        current = np.flatnonzero(left & ~dom.any(axis=0)[cols])


def pareto_mask(f: np.ndarray) -> np.ndarray:
    """Boolean mask of non-dominated rows.

    Unlike sort_fronts this never builds the full pairwise matrix, so it is
    the low-memory check that the acceptance suite and the tests run on large
    point sets; no optimizer or front sampler calls it.
    """
    ft = np.ascontiguousarray(np.atleast_2d(np.asarray(f, dtype=float)).T)
    n = ft.shape[1]
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if alive[i]:
            p = ft[:, i:i + 1]
            alive[(ft >= p).all(axis=0) & (ft > p).any(axis=0)] = False
    return alive
