"""Rank-based significance tests for comparing algorithm results.

Implements the rank-sum test (per-problem comparison marks), the paired
signed-rank test (across-problem summary), and Friedman mean ranks.  Small
samples use exact null distributions computed by dynamic programming; larger
or tied rank-sum samples use the normal approximation with tie correction
and a continuity correction of 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import UsageError

LOWER_IS_BETTER = "lower_is_better"
HIGHER_IS_BETTER = "higher_is_better"

RANKSUM_EXACT_MAX = 20   # combined sample size bound for the exact rank-sum null
SIGNED_RANK_EXACT_MAX = 25
_SQRT_HALF = math.sqrt(0.5)


def _check_orientation(orientation: str) -> None:
    if orientation not in (LOWER_IS_BETTER, HIGHER_IS_BETTER):
        raise UsageError(
            f"orientation must be {LOWER_IS_BETTER!r} or {HIGHER_IS_BETTER!r}, "
            f"got {orientation!r}")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:  # NaN fails too
        raise UsageError(f"alpha must be in (0, 1), got {alpha}")


@dataclass(frozen=True)
class ComparisonMark:
    """Outcome of one rank-sum comparison: '+' a better, '-' a worse, '=' no call."""

    mark: str
    p_value: float
    orientation: str
    method: str


@dataclass(frozen=True)
class SignedRankResult:
    """Paired signed-rank outcome; r_plus carries the ranks where `a` wins."""

    r_plus: float
    r_minus: float
    p_value: float
    n_effective: int
    method: str


@dataclass(frozen=True)
class FriedmanResult:
    """Mean ranks per algorithm (1 = best) and the tie-corrected chi-square."""

    mean_ranks: np.ndarray
    n_problems: int
    chi_square: float


def _midranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ranks 1..n of x, ties sharing their mean rank, and the size of each tie group.

    The ranks equal scipy's rankdata(x) exactly: a group covering sorted
    positions start..end-1 gets (start + 1 + end) / 2, a whole or half integer.
    """
    order = np.argsort(x, kind="stable")
    ordered = x[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, x.size])
    ranks = np.empty(x.size)
    ranks[order] = np.repeat((2 * starts + 1 + counts) / 2.0, counts)
    return ranks, counts


def _tie_term(counts: np.ndarray) -> float:
    return float(((counts ** 3) - counts).sum())


def _normal_cdf(z: float) -> float:
    """Standard normal CDF, branch for branch as scipy's ndtr.

    math.erf/erfc stand in for cephes, so values agree with scipy.stats.norm
    to about 1e-14 relative, not bit for bit.
    """
    x = z * _SQRT_HALF
    if abs(x) < _SQRT_HALF:
        return 0.5 + 0.5 * math.erf(x)
    tail = 0.5 * math.erfc(abs(x))
    return 1.0 - tail if x > 0 else tail


def _ranksum_exact_p(n1: int, n2: int, r: int) -> float:
    """Two-sided exact p for rank sum r of the first group, no ties."""
    n = n1 + n2
    max_sum = n * (n + 1) // 2
    dp = np.zeros((n1 + 1, max_sum + 1), dtype=np.float64)
    dp[0, 0] = 1.0
    for v in range(1, n + 1):
        for k in range(n1, 0, -1):
            dp[k, v:] += dp[k - 1, :-v]
    dist = dp[n1]
    total = math.comb(n, n1)
    mirror = n1 * (n + 1) - r
    t_low, t_high = min(r, mirror), max(r, mirror)
    p = (dist[: t_low + 1].sum() + dist[t_high:].sum()) / total
    return min(1.0, float(p))


def ranksum_p(a, b) -> tuple[float, float, str]:
    """Two-sided rank-sum p-value.

    Returns (p, rank sum of a, method).  Exact when the combined size is at
    most RANKSUM_EXACT_MAX and there are no ties; otherwise the normal
    approximation with midranks, tie correction, and continuity correction.
    """
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.size < 1 or b.size < 1:
        raise UsageError("rank-sum test needs at least one value per sample")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UsageError("rank-sum test requires finite values")
    n1, n2 = a.size, b.size
    n = n1 + n2
    pooled = np.concatenate([a, b])
    ranks, counts = _midranks(pooled)
    r_a = float(ranks[:n1].sum())
    if counts.size == 1:
        return 1.0, r_a, "degenerate"
    if n <= RANKSUM_EXACT_MAX and counts.size == n:
        return _ranksum_exact_p(n1, n2, int(round(r_a))), r_a, "exact"
    mu = n1 * (n + 1) / 2.0
    # with two or more tie groups the bracket is at least 3, so var > 0
    var = n1 * n2 / 12.0 * ((n + 1) - _tie_term(counts) / (n * (n - 1)))
    z = (abs(r_a - mu) - 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_cdf(-max(z, 0.0)))
    return p, r_a, "normal"


def ranksum_mark(a, b, alpha: float = 0.05,
                 orientation: str = LOWER_IS_BETTER) -> ComparisonMark:
    """Compare sample a against sample b at level alpha.

    '+' means a is significantly better under the orientation, '-' worse,
    '=' no significant difference.
    """
    _check_orientation(orientation)
    _check_alpha(alpha)
    p, r_a, method = ranksum_p(a, b)
    n1 = np.asarray(a).size
    n = n1 + np.asarray(b).size
    expected = n1 * (n + 1) / 2.0
    mark = "="
    if p < alpha and r_a != expected:
        a_low = r_a < expected
        a_better = a_low if orientation == LOWER_IS_BETTER else not a_low
        mark = "+" if a_better else "-"
    return ComparisonMark(mark, p, orientation, method)


def _signed_rank_exact_p(ranks: np.ndarray, r_plus: float) -> float:
    """Exact conditional two-sided p over all sign patterns of the given ranks."""
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    total = int(doubled.sum())
    counts = np.zeros(total + 1, dtype=np.float64)
    counts[0] = 1.0
    for r in doubled:  # every midrank is at least 1, so r >= 2
        counts[r:] += counts[:-r]  # numpy buffers the overlapping operands
    t2 = int(round(2.0 * r_plus))
    t_low, t_high = min(t2, total - t2), max(t2, total - t2)
    p = (counts[: t_low + 1].sum() + counts[t_high:].sum()) / (2.0 ** len(doubled))
    return min(1.0, float(p))


def signed_rank(a, b, orientation: str = LOWER_IS_BETTER) -> SignedRankResult:
    """Paired signed-rank test of a against b.

    Pairs with equal values are dropped.  r_plus accumulates the ranks of
    pairs where a is better under the orientation; exact p for up to
    SIGNED_RANK_EXACT_MAX effective pairs, normal approximation beyond.
    """
    _check_orientation(orientation)
    a = np.asarray(a, dtype=float).reshape(-1)
    b = np.asarray(b, dtype=float).reshape(-1)
    if a.shape != b.shape:
        raise UsageError(f"paired samples differ in length: {a.size} vs {b.size}")
    if a.size < 1:
        raise UsageError("signed-rank test needs at least one pair")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UsageError("signed-rank test requires finite values")
    gain = (b - a) if orientation == LOWER_IS_BETTER else (a - b)
    gain = gain[gain != 0.0]
    n_eff = int(gain.size)
    if n_eff == 0:
        return SignedRankResult(0.0, 0.0, 1.0, 0, "degenerate")
    ranks, counts = _midranks(np.abs(gain))
    r_plus = float(ranks[gain > 0].sum())
    r_minus = float(ranks[gain < 0].sum())
    if n_eff <= SIGNED_RANK_EXACT_MAX:
        p = _signed_rank_exact_p(ranks, r_plus)
        return SignedRankResult(r_plus, r_minus, p, n_eff, "exact")
    t = min(r_plus, r_minus)
    mu = n_eff * (n_eff + 1) / 4.0
    # at least n(n+1)^2/16 > 0, reached when every |gain| ties
    var = n_eff * (n_eff + 1) * (2 * n_eff + 1) / 24.0 - _tie_term(counts) / 48.0
    z = (t - mu + 0.5) / math.sqrt(var)
    p = min(1.0, 2.0 * _normal_cdf(z))
    return SignedRankResult(r_plus, r_minus, p, n_eff, "normal")


def friedman_ranks(matrix, orientation: str = LOWER_IS_BETTER) -> FriedmanResult:
    """Friedman mean ranks over a (problems x algorithms) score matrix.

    Rank 1 is the best algorithm on a problem under the orientation; ties
    get midranks.  The chi-square uses the standard tie correction; it is
    reported as 0 when every row is fully tied.
    """
    _check_orientation(orientation)
    m = np.atleast_2d(np.asarray(matrix, dtype=float))
    if m.shape[0] < 2 or m.shape[1] < 2:
        raise UsageError(
            f"Friedman ranking needs at least 2 problems and 2 algorithms, "
            f"got shape {m.shape}")
    if not np.isfinite(m).all():
        raise UsageError("Friedman ranking requires finite values")
    n, k = m.shape
    oriented = m if orientation == LOWER_IS_BETTER else -m
    ranked = [_midranks(row) for row in oriented]
    ranks = np.vstack([row_ranks for row_ranks, _ in ranked])
    mean_ranks = ranks.mean(axis=0)
    col_sums = ranks.sum(axis=0)
    chisq = 12.0 / (n * k * (k + 1)) * (col_sums ** 2).sum() - 3.0 * n * (k + 1)
    ties = sum(_tie_term(counts) for _, counts in ranked)
    correction = 1.0 - ties / (n * k * (k * k - 1))
    chi_square = 0.0 if correction <= 0 else chisq / correction
    mean_ranks.flags.writeable = False
    return FriedmanResult(mean_ranks, n, float(chi_square))
