import itertools
import math

import numpy as np
import pytest
import scipy.stats

from temof import (HIGHER_IS_BETTER, LOWER_IS_BETTER, UsageError, friedman_ranks,
                   ranksum_mark, signed_rank)
from temof.stats import _midranks, _normal_cdf, ranksum_p


def ranksum_enumeration_p(a, b):
    """Exact two-sided p by enumerating every group assignment (no ties)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    pooled = np.concatenate([a, b])
    ranks = scipy.stats.rankdata(pooled)
    n1 = len(a)
    t_obs = ranks[:n1].sum()
    mu = n1 * (len(pooled) + 1) / 2.0
    hits = 0
    total = 0
    for combo in itertools.combinations(range(len(pooled)), n1):
        t = ranks[list(combo)].sum()
        if abs(t - mu) >= abs(t_obs - mu) - 1e-9:
            hits += 1
        total += 1
    return hits / total


def signed_rank_enumeration_p(gains):
    """Exact conditional two-sided p over all sign patterns of |gains|."""
    gains = np.asarray(gains, dtype=float)
    gains = gains[gains != 0]
    ranks = scipy.stats.rankdata(np.abs(gains))
    t_obs = ranks[gains > 0].sum()
    total_rank = ranks.sum()
    mu = total_rank / 2.0
    hits = 0
    n = len(gains)
    for pattern in itertools.product([0, 1], repeat=n):
        t = sum(r for r, bit in zip(ranks, pattern) if bit)
        if abs(t - mu) >= abs(t_obs - mu) - 1e-9:
            hits += 1
    return hits / 2 ** n


class TestMidranksOracle:
    """_midranks against scipy.stats.rankdata and numpy's tie counts."""

    @staticmethod
    def assert_matches(x):
        x = np.asarray(x, dtype=float)
        ranks, counts = _midranks(x)
        assert np.array_equal(ranks, scipy.stats.rankdata(x))
        assert np.array_equal(counts, np.unique(x, return_counts=True)[1])

    @pytest.mark.parametrize("x", [
        [3.0],
        [2.0, 2.0, 2.0, 2.0],
        [1.0, 2.0, 2.0, 3.0, 1.0, 2.0],
        [0.0, -0.0, 1.0, -0.0, -1.0, 0.0],
        [5.0, 4.0, 3.0, 2.0, 1.0],
    ], ids=["single", "all-equal", "ties", "signed-zeros", "descending"])
    def test_cases(self, x):
        self.assert_matches(x)

    def test_random_with_ties(self):
        rng = np.random.default_rng(30)
        for n in (2, 7, 22, 41, 300):
            self.assert_matches(np.round(rng.normal(size=n), 1))
            self.assert_matches(rng.normal(size=n))


class TestNormalTailOracle:
    def test_matches_scipy_norm(self):
        z = np.linspace(-9.0, 9.0, 3601)
        cdf = np.array([_normal_cdf(v) for v in z])
        sf = np.array([_normal_cdf(-v) for v in z])
        assert np.allclose(cdf, scipy.stats.norm.cdf(z), rtol=1e-13, atol=0.0)
        assert np.allclose(sf, scipy.stats.norm.sf(z), rtol=1e-13, atol=0.0)

    def test_branch_edges(self):
        # the erf branch ends where |z| / sqrt(2) reaches sqrt(1/2), near |z| = 1
        near_one = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
        for z in [0.0, -0.0, 1e-300, -40.0, 40.0, *near_one, *(-v for v in near_one)]:
            assert _normal_cdf(z) == pytest.approx(scipy.stats.norm.cdf(z), rel=1e-13, abs=0)


class TestRanksumExact:
    def test_spec_hand_case(self):
        p, r_a, method = ranksum_p([1, 2, 3], [4, 5, 6])
        assert method == "exact"
        assert r_a == 6.0
        assert p == pytest.approx(0.1, abs=1e-15)

    def test_matches_enumeration_on_small_samples(self):
        rng = np.random.default_rng(23)
        for n1, n2 in [(2, 2), (3, 2), (3, 3), (4, 3), (5, 4)]:
            a = rng.random(n1) * 10
            b = rng.random(n2) * 10 + rng.random()
            p, _, method = ranksum_p(a, b)
            assert method == "exact"
            assert p == pytest.approx(ranksum_enumeration_p(a, b), abs=1e-12)

    def test_symmetry_in_arguments(self):
        rng = np.random.default_rng(3)
        a, b = rng.random(5), rng.random(6)
        assert ranksum_p(a, b)[0] == pytest.approx(ranksum_p(b, a)[0], abs=1e-12)

    def test_identical_samples_give_p_one(self):
        p, _, method = ranksum_p([2.0, 2.0, 2.0], [2.0, 2.0])
        assert p == 1.0 and method == "degenerate"


class TestRanksumApprox:
    def test_ties_route_to_normal_approximation(self):
        a = [1.0, 2.0, 2.0, 3.0]
        b = [2.0, 4.0, 5.0, 6.0]
        p, _, method = ranksum_p(a, b)
        assert method == "normal"
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic", use_continuity=True)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_large_samples_route_to_normal(self):
        rng = np.random.default_rng(8)
        a = rng.normal(0.0, 1.0, 15)
        b = rng.normal(0.8, 1.0, 15)
        p, _, method = ranksum_p(a, b)
        assert method == "normal"
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic", use_continuity=True)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)

    def test_exact_and_normal_agree_reasonably_at_the_boundary(self):
        # moderate effect: the approximation is only trustworthy off the far tail
        rng = np.random.default_rng(11)
        a = rng.normal(0.0, 1.0, 10)
        b = rng.normal(0.4, 1.0, 10)
        p_exact, _, method = ranksum_p(a, b)
        assert method == "exact"
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic", use_continuity=True)
        assert p_exact == pytest.approx(ref.pvalue, rel=0.25)


    @pytest.mark.parametrize("a, b", [([1.0] * 11, [1.0] * 10 + [2.0]),
                                      ([2.0] + [1.0] * 20, [1.0] * 3),
                                      ([1.0, 1.0], [2.0])])
    def test_all_but_one_tied_stays_normal(self, a, b):
        p, _, method = ranksum_p(a, b)
        assert method == "normal"
        ref = scipy.stats.mannwhitneyu(a, b, alternative="two-sided",
                                       method="asymptotic", use_continuity=True)
        assert p == pytest.approx(ref.pvalue, rel=1e-9)


class TestRanksumMark:
    def test_direction_lower_is_better(self):
        mark = ranksum_mark([1, 2, 3], [4, 5, 6], alpha=0.2)
        assert mark.mark == "+" and mark.p_value == pytest.approx(0.1)

    def test_direction_flips_with_orientation(self):
        mark = ranksum_mark([1, 2, 3], [4, 5, 6], alpha=0.2,
                            orientation=HIGHER_IS_BETTER)
        assert mark.mark == "-"

    def test_insignificant_is_equal(self):
        assert ranksum_mark([1, 2, 3], [4, 5, 6], alpha=0.05).mark == "="

    def test_bad_alpha_and_orientation(self):
        with pytest.raises(UsageError):
            ranksum_mark([1, 2], [3, 4], alpha=0.0)
        with pytest.raises(UsageError):
            ranksum_mark([1, 2], [3, 4], orientation="bigger")

    def test_empty_sample_rejected(self):
        with pytest.raises(UsageError):
            ranksum_mark([], [1.0, 2.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_sample_rejected(self, bad):
        with pytest.raises(UsageError, match="rank-sum test requires finite values"):
            ranksum_mark([1.0, bad], [1.0, 2.0])


class TestSignedRank:
    def test_spec_hand_case_all_wins(self):
        a = np.zeros(10)
        b = np.arange(1.0, 11.0)
        res = signed_rank(a, b)  # a lower on every pair
        assert res.r_plus == 55.0 and res.r_minus == 0.0
        assert res.n_effective == 10
        assert res.p_value == pytest.approx(2.0 / 1024.0, abs=1e-15)
        assert res.method == "exact"

    def test_rank_total_invariant(self):
        rng = np.random.default_rng(4)
        a, b = rng.random(12), rng.random(12)
        res = signed_rank(a, b)
        n = res.n_effective
        assert res.r_plus + res.r_minus == pytest.approx(n * (n + 1) / 2)

    def test_orientation_swaps_r_plus_and_r_minus(self):
        rng = np.random.default_rng(5)
        a, b = rng.random(9), rng.random(9)
        low = signed_rank(a, b, LOWER_IS_BETTER)
        high = signed_rank(a, b, HIGHER_IS_BETTER)
        assert low.r_plus == high.r_minus and low.r_minus == high.r_plus
        assert low.p_value == pytest.approx(high.p_value, abs=1e-15)

    def test_zero_differences_dropped(self):
        a = [1.0, 2.0, 3.0, 4.0]
        b = [1.0, 2.0, 5.0, 1.0]
        res = signed_rank(a, b)
        assert res.n_effective == 2

    def test_all_pairs_tied(self):
        res = signed_rank([1.0, 2.0], [1.0, 2.0])
        assert res.p_value == 1.0 and res.n_effective == 0

    def test_matches_enumeration_with_midrank_ties(self):
        rng = np.random.default_rng(17)
        for n in (4, 6, 8):
            gains = rng.integers(-4, 5, n).astype(float)
            gains[gains == 0] = 1.0  # keep every pair effective
            a = np.zeros(n)
            b = gains  # lower_is_better: positive gain means a wins
            res = signed_rank(a, b)
            assert res.p_value == pytest.approx(signed_rank_enumeration_p(gains),
                                                abs=1e-12)

    def test_matches_scipy_exact_without_ties(self):
        rng = np.random.default_rng(19)
        for n in (6, 9, 12):
            a = rng.normal(size=n)
            b = a + rng.normal(size=n) * 0.5 + 0.3
            res = signed_rank(a, b)
            ref = scipy.stats.wilcoxon(a, b, mode="exact")
            assert res.p_value == pytest.approx(ref.pvalue, abs=1e-12)

    def test_matches_scipy_normal_approximation(self):
        rng = np.random.default_rng(20)
        a = rng.normal(size=40)
        b = a + rng.normal(size=40) * 0.6 + 0.2
        res = signed_rank(a, b)
        assert res.method == "normal"
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=True)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    @pytest.mark.parametrize("wins", [26, 20, 13])
    def test_all_gains_tied_stays_normal(self, wins):
        a = np.zeros(26)
        b = np.where(np.arange(26) < wins, 1.0, -1.0)  # every |gain| is 1
        res = signed_rank(a, b)
        assert res.method == "normal" and res.n_effective == 26
        ref = scipy.stats.wilcoxon(a, b, mode="approx", correction=True)
        assert res.p_value == pytest.approx(ref.pvalue, rel=1e-6)

    def test_length_mismatch(self):
        with pytest.raises(UsageError):
            signed_rank([1.0, 2.0], [1.0])

    def test_no_pairs_rejected(self):
        with pytest.raises(UsageError, match="signed-rank test needs at least one pair"):
            signed_rank([], [])

    @pytest.mark.parametrize("bad", [float("nan"), float("-inf")])
    def test_non_finite_pair_rejected(self, bad):
        with pytest.raises(UsageError, match="signed-rank test requires finite values"):
            signed_rank([1.0, 2.0], [bad, 2.0])


class TestFriedman:
    def test_hand_case(self):
        matrix = [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [2.0, 1.0, 3.0]]
        res = friedman_ranks(matrix)
        assert np.allclose(res.mean_ranks, [4 / 3, 5 / 3, 3.0])
        assert res.n_problems == 3

    def test_mean_rank_average_is_midpoint(self):
        rng = np.random.default_rng(21)
        m = rng.random((10, 4))
        res = friedman_ranks(m)
        assert res.mean_ranks.mean() == pytest.approx((4 + 1) / 2)

    def test_orientation_reverses_ranking(self):
        rng = np.random.default_rng(22)
        m = rng.random((6, 3))
        low = friedman_ranks(m, LOWER_IS_BETTER)
        high = friedman_ranks(m, HIGHER_IS_BETTER)
        assert np.allclose(low.mean_ranks + high.mean_ranks, 4.0)

    def test_chi_square_matches_scipy(self):
        rng = np.random.default_rng(25)
        for trial in range(6):
            m = rng.random((8, 4))
            if trial % 2:
                m = np.round(m, 1)  # induce ties
            res = friedman_ranks(m)
            ref = scipy.stats.friedmanchisquare(*(m[:, j] for j in range(4)))
            assert res.chi_square == pytest.approx(ref.statistic, abs=1e-10)

    def test_fully_tied_rows_report_zero(self):
        res = friedman_ranks(np.ones((4, 3)))
        assert res.chi_square == 0.0
        assert np.allclose(res.mean_ranks, 2.0)

    def test_validation(self):
        with pytest.raises(UsageError):
            friedman_ranks(np.ones((1, 3)))
        with pytest.raises(UsageError):
            friedman_ranks(np.ones((3, 1)))
        with pytest.raises(UsageError):
            friedman_ranks([[1.0, np.nan], [2.0, 3.0]])
