import numpy as np
import pytest
from scipy.spatial.distance import cdist

import temof.metrics as metrics
from temof import UsageError, gd, hv, igd
from temof.core import rng_stream


def hv_grid_oracle_2d(points, ref, cells=2000):
    """Riemann-cell hypervolume: counts midpoints of a fine grid."""
    points = np.asarray(points, dtype=float)
    lo = points.min(axis=0)
    xs = lo[0] + (np.arange(cells) + 0.5) * (ref[0] - lo[0]) / cells
    ys = lo[1] + (np.arange(cells) + 0.5) * (ref[1] - lo[1]) / cells
    gx, gy = np.meshgrid(xs, ys)
    covered = np.zeros(gx.shape, dtype=bool)
    for p in points:
        covered |= (gx >= p[0]) & (gy >= p[1])
    cell = (ref[0] - lo[0]) * (ref[1] - lo[1]) / cells ** 2
    return covered.sum() * cell


def hv_monte_carlo_oracle(points, ref, samples, rng, rows=4096):
    """_hv_monte_carlo as first written: reduce over the objective axis."""
    lo = points.min(axis=0)
    box = np.prod(ref - lo)
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(rows, remaining)
        draw = rng.uniform(lo, ref, size=(k, points.shape[1]))
        covered = (draw[:, None, :] >= points[None, :, :]).all(axis=2).any(axis=1)
        hits += int(covered.sum())
        remaining -= k
    return box * hits / samples


class LatticeGenerator:
    """Stands in for a Generator: `uniform` ignores its bounds and returns
    values from `levels` in a fixed cyclic sequence, one flat position after
    another, so the values drawn never depend on how the caller chunks its
    requests."""

    def __init__(self, levels, period=1009):
        self.sequence = np.random.default_rng(0).choice(levels, size=period)
        self.drawn = 0

    def uniform(self, low, high, size):
        pos = self.drawn + np.arange(np.prod(size))
        self.drawn += pos.size
        return self.sequence[pos % self.sequence.size].reshape(size)


class TestIgdGd:
    def test_igd_hand_case(self):
        solution = [[0.0, 1.0], [1.0, 0.0]]
        reference = [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]]
        expected = (0.0 + 0.0 + np.sqrt(0.5)) / 3
        assert np.isclose(igd(solution, reference).value, expected, atol=1e-12)

    def test_igd_zero_when_sets_coincide(self):
        pts = np.random.default_rng(0).random((30, 3))
        assert igd(pts, pts).value == 0.0

    def test_gd_is_igd_with_roles_swapped(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((12, 3)), rng.random((40, 3))
        assert np.isclose(gd(a, b).value, igd(b, a).value, atol=1e-15)

    def test_gd_hand_case(self):
        # one stray solution point at distance 1 from the lone reference point
        assert np.isclose(gd([[1.0, 1.0], [1.0, 2.0]], [[1.0, 1.0]]).value, 0.5)

    def test_igd_penalizes_missing_coverage(self):
        reference = np.column_stack([np.linspace(0, 1, 100),
                                     1 - np.linspace(0, 1, 100)])
        full = reference[::10]
        partial = reference[:10]  # covers one corner only
        assert igd(full, reference).value < igd(partial, reference).value

    def test_errors(self):
        with pytest.raises(UsageError):
            igd(np.empty((0, 2)), [[1.0, 1.0]])
        with pytest.raises(UsageError):
            igd([[1.0, 1.0]], np.empty((0, 2)))
        with pytest.raises(UsageError):
            gd([[1.0, 1.0]], [[1.0, 1.0, 1.0]])

    @pytest.mark.parametrize("indicator", [igd, gd])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["solution", "reference"])
    def test_non_finite_point_rejected(self, indicator, bad, side):
        good = [[0.0, 1.0], [1.0, 0.0]]
        holed = [[0.0, 1.0], [bad, 0.0]]
        sets = (holed, good) if side == "solution" else (good, holed)
        name = indicator.__name__
        with pytest.raises(UsageError, match=f"^{name}: {side} set holds NaN or infinity"):
            indicator(*sets)


class TestDistanceOracle:
    """igd and gd equal scipy's cdist(...).min(axis=1).mean() bit for bit."""

    @staticmethod
    def assert_matches_cdist(solution, reference):
        solution = np.asarray(solution, dtype=float)
        reference = np.asarray(reference, dtype=float)
        assert igd(solution, reference).value == cdist(reference, solution).min(axis=1).mean()
        assert gd(solution, reference).value == cdist(solution, reference).min(axis=1).mean()
        planes = list(metrics._squared_distance_planes(solution, reference))
        assert np.array_equal(np.sqrt(np.vstack(planes)), cdist(solution, reference))

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 17])
    @pytest.mark.parametrize("scale", [1e-3, 1e-1, 1.0, 1e1, 1e3])
    def test_dimensions_and_scales(self, m, scale):
        rng = np.random.default_rng(m)
        self.assert_matches_cdist(rng.random((126, m)) * scale,
                                  (rng.random((3000, m)) - 0.25) * scale)

    def test_duplicate_rows(self):
        rng = np.random.default_rng(3)
        base = rng.random((20, 3))
        solution = np.vstack([base, base[:7], base[:7]])
        reference = np.vstack([base[::2], rng.random((30, 3)), base[::2]])
        self.assert_matches_cdist(solution, reference)

    @pytest.mark.parametrize("n_sol, n_ref", [(1, 1), (1, 50), (50, 1), (1, 10_000)])
    def test_one_row_sets(self, n_sol, n_ref):
        rng = np.random.default_rng(n_sol + n_ref)
        self.assert_matches_cdist(rng.random((n_sol, 4)), rng.random((n_ref, 4)))

    @pytest.mark.parametrize("n_ref", [10_000, 4096, 7])
    def test_solution_sizes_around_the_block(self, n_ref):
        rows = metrics._DISTANCE_BLOCK // n_ref  # solution rows per plane
        rng = np.random.default_rng(n_ref)
        reference = rng.random((n_ref, 5))
        for n_sol in sorted({1, rows - 1, rows, rows + 1, 2 * rows + 1} - {0}):
            self.assert_matches_cdist(rng.random((n_sol, 5)), reference)


class TestHvExact:
    def test_single_point_2d(self):
        r = hv([[0.5, 0.5]], [1.0, 1.0])
        assert r.mode == "exact"
        assert abs(r.value - 0.25) <= 1e-12

    def test_two_points_2d(self):
        r = hv([[0.25, 0.75], [0.75, 0.25]], [1.0, 1.0])
        assert abs(r.value - 0.3125) <= 1e-12

    def test_single_point_3d(self):
        assert abs(hv([[0.5, 0.5, 0.5]], [1.0, 1.0, 1.0]).value - 0.125) <= 1e-12

    @pytest.mark.parametrize("mode", ["exact", "monte_carlo"])
    def test_one_objective_is_the_distance_from_the_best(self, mode):
        # every Monte Carlo sample in [0.2, 1] is dominated, so both modes are exact
        r = hv([[0.2], [0.5]], [1.0], mode=mode, samples=1000)
        assert r.mode == mode
        assert r.value == pytest.approx(0.8, abs=1e-15)

    def test_two_boxes_3d_union(self):
        pts = [[0.5, 0.5, 0.5], [0.25, 0.25, 0.75]]
        expected = 0.125 + 0.75 * 0.75 * 0.25 - 0.5 * 0.5 * 0.25
        assert abs(hv(pts, [1.0, 1.0, 1.0]).value - expected) <= 1e-12

    def test_dominated_points_do_not_change_value(self):
        base = hv([[0.25, 0.25]], [1.0, 1.0]).value
        with_extra = hv([[0.25, 0.25], [0.5, 0.5], [0.9, 0.3]], [1.0, 1.0]).value
        assert abs(base - with_extra) <= 1e-12

    def test_points_outside_reference_ignored(self):
        assert hv([[2.0, 2.0]], [1.0, 1.0]).value == 0.0
        mixed = hv([[0.5, 0.5], [1.0, 0.2], [0.2, 3.0]], [1.0, 1.0]).value
        assert abs(mixed - 0.25) <= 1e-12  # boundary point (1.0, .2) not strictly inside

    def test_duplicate_points(self):
        assert abs(hv([[0.5, 0.5], [0.5, 0.5]], [1.0, 1.0]).value - 0.25) <= 1e-12

    def test_matches_grid_oracle_2d(self):
        rng = np.random.default_rng(14)
        for _ in range(5):
            pts = rng.random((12, 2))
            exact = hv(pts, [1.1, 1.1]).value
            approx = hv_grid_oracle_2d(pts, [1.1, 1.1])
            assert abs(exact - approx) < 5e-3

    def test_3d_consistent_with_monte_carlo(self):
        rng = np.random.default_rng(15)
        pts = rng.random((15, 3))
        exact = hv(pts, [1.1, 1.1, 1.1]).value
        mc = hv(pts, [1.1, 1.1, 1.1], mode="monte_carlo", samples=400_000).value
        assert abs(exact - mc) / exact < 0.02

    def test_exact_mode_rejects_many_objectives(self):
        with pytest.raises(UsageError):
            hv([[0.5] * 4], [1.0] * 4, mode="exact")

    def test_exact_mode_rejects_many_objectives_with_no_point_in_the_box(self):
        with pytest.raises(UsageError, match="at most 3 objectives"):
            hv([[2.0] * 4], [1.0] * 4, mode="exact")

    @pytest.mark.parametrize("values", [
        [0.5, 0.25, 0.5, 0.75, 0.25, 0.25],  # ties
        [0.0, -0.0, 1.0, -0.0, 0.0],  # -0.0 beside 0.0
        [-0.0, 0.0],
        [0.3],  # a single value
        [0.7, 0.7, 0.7],  # a single level
        np.random.default_rng(16).integers(-4, 5, 500) * 0.25,
    ])
    def test_sorted_levels_match_unique(self, values):
        values = np.asarray(values, dtype=float)
        assert metrics._sorted_levels(values).tobytes() == np.unique(values).tobytes()


class TestHvMonteCarlo:
    def test_auto_switches_above_three_objectives(self):
        r = hv([[0.4] * 4], [1.0] * 4, samples=1000)
        assert r.mode == "monte_carlo" and r.samples == 1000

    def test_box_fully_covered_is_exact(self):
        # sampling box = [0.5, 1]^4, every sample is dominated by the point
        r = hv([[0.5] * 4], [1.0] * 4, samples=10_000)
        assert r.value == pytest.approx(0.0625, abs=1e-15)

    def test_default_stream_is_reproducible(self):
        pts = np.random.default_rng(3).random((10, 4))
        a = hv(pts, [1.1] * 4, samples=20_000).value
        b = hv(pts, [1.1] * 4, samples=20_000).value
        assert a == b

    def test_explicit_rng_changes_draws(self):
        pts = np.random.default_rng(3).random((10, 4))
        a = hv(pts, [1.1] * 4, samples=20_000, rng=np.random.default_rng(1)).value
        b = hv(pts, [1.1] * 4, samples=20_000, rng=np.random.default_rng(2)).value
        assert a != b
        assert abs(a - b) / a < 0.05

    def test_chunk_budget_does_not_change_value(self, monkeypatch):
        pts = np.random.default_rng(4).random((30, 5))
        expected = hv(pts, [1.1] * 5, samples=50_000).value
        monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", 997)  # 7-row chunks
        assert hv(pts, [1.1] * 5, samples=50_000).value == expected

    @pytest.mark.parametrize("n", [1, 126, 300])
    @pytest.mark.parametrize("m", [4, 5, 8])
    def test_matches_oracle(self, monkeypatch, n, m):
        pts = np.random.default_rng(n * m).random((n, m)) ** 0.5
        ref = np.full(m, 1.1)
        for budget in (997, 100_003, metrics._MC_CHUNK_BYTES):  # 1 row and up
            monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", budget)
            rng, oracle_rng = np.random.default_rng(7), np.random.default_rng(7)
            value = metrics._hv_monte_carlo(pts, ref, 3000, rng)
            assert value == hv_monte_carlo_oracle(pts, ref, 3000, oracle_rng)
            assert rng.random() == oracle_rng.random()  # the same draws were made

    @pytest.mark.parametrize("samples", [3001, 10_007])
    def test_lattice_ties_and_duplicates_match_oracle(self, monkeypatch, samples):
        # samples equal to point coordinates make `>=` ties; repeated rows
        # are duplicate points; neither sample count divides any chunk
        levels = [0.0, 0.25, 0.5, 0.75, 0.9]
        pts = np.random.default_rng(17).choice(levels[1:4], size=(12, 4))
        pts = np.concatenate([pts, pts[:4]])
        ref = np.ones(4)
        for budget in (997, 100_003, metrics._MC_CHUNK_BYTES):
            monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", budget)
            rng, oracle_rng = LatticeGenerator(levels), LatticeGenerator(levels)
            value = metrics._hv_monte_carlo(pts, ref, samples, rng)
            assert value == hv_monte_carlo_oracle(pts, ref, samples, oracle_rng)
            assert rng.drawn == oracle_rng.drawn == samples * 4
            assert 0 < value < np.prod(ref - pts.min(axis=0))  # some samples miss

    # values recorded with the sample-major coverage planes (k samples x n
    # points) that came before the point-major ones; the draws, their order and
    # the hit count must not change with the layout
    @pytest.mark.parametrize("m, scale, seed, in_box, expected", [
        (5, 1.3, 0, 66, "0.9401058182329926"),
        (5, 1.3, 1, 57, "0.8115696342860548"),
        (8, 1.22, 0, 53, "0.23726676001348856"),
        (8, 1.22, 1, 58, "0.1980085089547361"),
    ])
    def test_pinned_values_at_a_million_samples(self, m, scale, seed, in_box, expected):
        pts = np.random.default_rng(100 + m + seed).random((126, m)) * scale
        ref = np.full(m, 1.1)
        assert (pts < ref).all(axis=1).sum() == in_box
        r = hv(pts, ref, samples=1_000_000, rng=rng_stream(3, seed, "hv-mc"))
        assert (r.mode, r.samples, repr(r.value)) == ("monte_carlo", 1_000_000, expected)

    def test_forced_monte_carlo_on_2d_near_exact(self):
        pts = [[0.25, 0.75], [0.75, 0.25]]
        mc = hv(pts, [1.0, 1.0], mode="monte_carlo", samples=300_000).value
        assert abs(mc - 0.3125) / 0.3125 < 0.02


class TestHvValidation:
    def test_empty_set(self):
        with pytest.raises(UsageError):
            hv(np.empty((0, 2)), [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            hv([[0.5, 0.5]], [1.0, 1.0, 1.0])

    def test_unknown_mode(self):
        with pytest.raises(UsageError):
            hv([[0.5, 0.5]], [1.0, 1.0], mode="fast")

    def test_bad_sample_count(self):
        with pytest.raises(UsageError):
            hv([[0.5] * 4], [1.0] * 4, samples=0)

    def test_bad_sample_count_with_no_point_in_the_box(self):
        with pytest.raises(UsageError, match="samples must be >= 1"):
            hv([[2.0] * 4], [1.0] * 4, samples=0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_rejected(self, bad):
        with pytest.raises(UsageError, match="^hv: solution set holds NaN or infinity"):
            hv([[0.5, 0.5], [bad, 0.25]], [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_reference_rejected(self, bad):
        with pytest.raises(UsageError, match="^hv: reference point holds NaN or infinity"):
            hv([[0.5, 0.5]], [1.0, bad])

    def test_nothing_dominates_reference(self):
        r = hv([[1.5, 0.5], [0.5, 1.5]], [1.0, 1.0])
        assert r.value == 0.0
