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


def hv_monte_carlo_point_major(points, ref, samples, rng):
    """_hv_monte_carlo before its lookup tables: point-major coverage planes."""
    lo = points.min(axis=0)
    box = np.prod(ref - lo)
    n, m = points.shape
    rows = max(1, metrics._MC_CHUNK_BYTES // (16 * m + 2 * n))
    hits = 0
    remaining = samples
    while remaining > 0:
        k = min(rows, remaining)
        draw = np.ascontiguousarray(rng.uniform(lo, ref, size=(k, m)).T)
        covered = draw[0] >= points[:, 0, None]
        for d in range(1, m):
            covered &= draw[d] >= points[:, d, None]
        hits += int(np.logical_or.reduce(covered, axis=0).sum())
        remaining -= k
    return box * hits / samples


def least_draw(level, low, high):
    """The least multiple u of 2**-53 in [0, 1] with low + (high - low) * u >= level."""
    j = max(0, int((level - low) / (high - low) * 2**53) - 8)
    assert j == 0 or low + (high - low) * (j / 2**53) < level  # started below
    while j < 2**53 and low + (high - low) * (j / 2**53) < level:
        j += 1
    return j / 2**53


def table_bits(table, n):
    """The (m x buckets x n) 0/1 planes of a lookup table's two masks: the
    points every draw in a bucket reaches, and those some draw may reach."""
    bits = np.unpackbits(table.view(np.uint8), axis=-1, bitorder="little")
    words = table.shape[2] // 2
    return bits[..., :n], bits[..., 64 * words:64 * words + n]


def first_bucket(bits):
    """Per objective and point, the first bucket whose bit is set, or the
    bucket count when none is."""
    return np.where(bits.any(axis=1), bits.argmax(axis=1), bits.shape[1])


class LatticeGenerator:
    """Stands in for a Generator whose samples in the box [low, high) land
    on `levels`: `random` returns, one flat position after another, values
    from a fixed cyclic sequence of draws, each the least that reaches its
    level, so the values drawn never depend on how the caller chunks its
    requests; `uniform` maps `random` onto its bounds as a Generator does."""

    def __init__(self, levels, low, high, period=1009):
        draws = [least_draw(level, low, high) for level in levels]
        self.sequence = np.random.default_rng(0).choice(draws, size=period)
        self.drawn = 0

    def random(self, size=None, out=None):
        shape = out.shape if out is not None else size
        pos = self.drawn + np.arange(np.prod(shape, dtype=int))
        self.drawn += pos.size
        values = self.sequence[pos % self.sequence.size].reshape(shape)
        if out is None:
            return values
        out[...] = values
        return out

    def uniform(self, low, high, size):
        return low + (high - low) * self.random(size)


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

    @pytest.mark.parametrize("indicator", [igd, gd])
    def test_overflowing_distance_rejected(self, indicator):
        # the squared distance passes the float range; numpy would warn and
        # the mean would read inf
        name = indicator.__name__
        with pytest.raises(UsageError, match=f"^{name}: a distance between the sets "
                                             f"passes the float range$"):
            indicator([[1e200, 1e200]], [[0.0, 0.0]])

    @pytest.mark.parametrize("indicator", [igd, gd])
    def test_overflow_off_the_nearest_pair_is_silent(self, indicator):
        # a square that overflows is never the nearest, so the value is exact
        # and no warning is raised
        far = [[1e200, 1e200], [3.0, 4.0]]
        near = [[0.0, 0.0]]
        sets = (far, near) if indicator is igd else (near, far)
        assert indicator(*sets).value == 5.0


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
        assert (pts.min(axis=0) == 0.25).all()  # the sampling box is [0.25, 1)^4
        for level in levels[1:4]:
            assert 0.25 + 0.75 * least_draw(level, 0.25, 1.0) == level
        for budget in (997, 100_003, metrics._MC_CHUNK_BYTES):
            monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", budget)
            rng = LatticeGenerator(levels, 0.25, 1.0)
            oracle_rng = LatticeGenerator(levels, 0.25, 1.0)
            value = metrics._hv_monte_carlo(pts, ref, samples, rng)
            assert value == hv_monte_carlo_oracle(pts, ref, samples, oracle_rng)
            assert rng.drawn == oracle_rng.drawn == samples * 4
            assert 0 < value < np.prod(ref - pts.min(axis=0))  # some samples miss

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 127, 128, 129, 300])
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
    def test_matches_point_major_kernel(self, monkeypatch, n, m):
        # n at the 64-bit boundaries of a mask word; rounded coordinates
        # share thresholds, and the small table budget leaves few buckets
        pts = np.round(np.random.default_rng(n + 10 * m).random((n, m)), 2)
        ref = np.full(m, 1.05)
        for chunk, table in ((997, metrics._MC_TABLE_BYTES), (100_003, 2**14),
                             (metrics._MC_CHUNK_BYTES, metrics._MC_TABLE_BYTES)):
            monkeypatch.setattr(metrics, "_MC_CHUNK_BYTES", chunk)
            monkeypatch.setattr(metrics, "_MC_TABLE_BYTES", table)
            rng, oracle_rng = np.random.default_rng(m), np.random.default_rng(m)
            value = metrics._hv_monte_carlo(pts, ref, 3001, rng)
            assert value == hv_monte_carlo_point_major(pts, ref, 3001, oracle_rng)
            assert rng.random() == oracle_rng.random()  # the same draws were made

    def test_coordinate_no_draw_reaches_matches_oracle(self):
        # ref - lo rounds to 1, so lo + (ref - lo) * u stays below 0 for every
        # draw, and even u = 1 would give 0 < 2**-61 < ref
        pts = np.array([[-1.0, 0.5], [2.0**-61, 0.25], [-0.5, 0.75]])
        ref = np.array([2.0**-60, 1.0])
        lo = pts.min(axis=0)
        full, reach = table_bits(metrics._mc_table(pts, lo, ref - lo, metrics._MC_BUCKETS), 3)
        assert not full[0, :, 1].any()  # no bucket is full for point 1
        assert np.flatnonzero(reach[0, :, 1]).tolist() == [metrics._MC_BUCKETS - 1]
        rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
        value = metrics._hv_monte_carlo(pts, ref, 20_000, rng)
        assert value == hv_monte_carlo_oracle(pts, ref, 20_000, oracle_rng)
        assert rng.random() == oracle_rng.random()

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


BIT_GENERATORS = [np.random.PCG64, np.random.MT19937, np.random.Philox,
                  np.random.SFC64, np.random.PCG64DXSM]


class TestMonteCarloThresholds:
    @pytest.mark.parametrize("bit_generator", BIT_GENERATORS)
    def test_uniform_is_the_affine_map_of_random(self, bit_generator):
        # the kernel draws with `random` and relies on this identity
        lo = np.array([-3.0, 0.0, 1e-9, 0.1, -1e6])
        ref = np.array([-1.0, 1.0, 0.3, 1.1, 7e5])
        a, b = np.random.Generator(bit_generator(9)), np.random.Generator(bit_generator(9))
        drawn = a.uniform(lo, ref, size=(20_000, 5))
        u = b.random((20_000, 5))
        assert (drawn == lo + (ref - lo) * u).all()
        assert (u * 2.0**53 == np.floor(u * 2.0**53)).all()  # multiples of 2**-53
        assert a.random() == b.random()

    @pytest.mark.parametrize("scale", [1.0, 0.3, 1.7, 1e-7, 3e8])
    def test_threshold_is_the_least_reaching_draw(self, scale):
        # a bucket is full exactly when its least draw is at or above the
        # least draw that reaches the point, found here by a scan over draws
        g = np.random.default_rng(int(scale * 1e3))
        pts = g.random((200, 4)) * scale - scale / 3
        pts[:20] = np.round(pts[:20], 1)
        ref = np.full(4, scale)
        pts = pts[(pts < ref).all(axis=1)]
        lo = pts.min(axis=0)
        buckets = metrics._MC_BUCKETS
        full, reach = table_bits(metrics._mc_table(pts, lo, ref - lo, buckets), pts.shape[0])
        t = np.array([[least_draw(p, low, high) for p, low, high in zip(row, lo, ref)]
                      for row in pts]).T[:, None, :]
        start = (np.arange(buckets) / buckets)[None, :, None]
        assert (full == (start >= t)).all()
        assert (reach == ((start + 1 / buckets >= t) | (start == 1 - 1 / buckets))).all()

    def test_threshold_of_the_ideal_point_is_zero(self):
        # bucket 0's least sample is lo itself, so only a coordinate at the
        # ideal point is full from the first bucket
        pts = np.array([[0.5, 0.2, 0.9], [0.3, 0.6, 0.4]])
        lo = pts.min(axis=0)
        full, _ = table_bits(metrics._mc_table(pts, lo, 1.0 - lo, metrics._MC_BUCKETS), 2)
        assert (full[:, 0, :] == (pts == lo).T).all()

    def test_thresholds_on_bucket_starts(self):
        # with lo = 0 and ref = 1 a sample is its draw, so a coordinate at a
        # bucket's first draw makes that bucket its first full one
        buckets = metrics._MC_BUCKETS
        width = 2**53 // buckets
        first = np.array([0, 1, 7, 2048, 4095])
        pts = np.stack([first * width / 2**53, first[::-1] * width / 2**53], axis=1)
        table = metrics._mc_table(pts, pts.min(axis=0), 1.0 - pts.min(axis=0), buckets)
        full, reach = table_bits(table, 5)
        assert first_bucket(full).tolist() == [first.tolist(), first[::-1].tolist()]
        assert (first_bucket(reach) == np.maximum(first_bucket(full) - 1, 0)).all()
        rng, oracle_rng = np.random.default_rng(2), np.random.default_rng(2)
        value = metrics._hv_monte_carlo(pts, np.ones(2), 20_000, rng)
        assert value == hv_monte_carlo_oracle(pts, np.ones(2), 20_000, oracle_rng)
        assert rng.random() == oracle_rng.random()

    def test_thresholds_at_the_ends_of_the_grid(self):
        buckets = metrics._MC_BUCKETS
        width = 2**53 // buckets
        j = np.array([0, 1, 2, 3, width - 1, width + 1, 2**53 - 2, 2**53 - 1])
        pts = np.stack([j / 2**53, j[::-1] / 2**53], axis=1)
        full, reach = table_bits(metrics._mc_table(pts, np.zeros(2), np.ones(2), buckets), 8)
        # the first bucket whose every draw reaches j, and the one holding j
        assert (first_bucket(full) == np.stack([-(-j // width), -(-j[::-1] // width)])).all()
        assert (first_bucket(reach) == np.stack([j // width, j[::-1] // width])).all()
        rng, oracle_rng = np.random.default_rng(4), np.random.default_rng(4)
        value = metrics._hv_monte_carlo(pts, np.ones(2), 20_000, rng)
        assert value == hv_monte_carlo_oracle(pts, np.ones(2), 20_000, oracle_rng)
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize("buckets", [1, 2, 64, 4096])
    def test_table_holds_full_and_reaching_points(self, buckets):
        # in objective 0, ref - lo rounds to 1 and no draw reaches 2**-61
        lo, ref = np.array([-1.0, 0.0, 3.0]), np.array([2.0**-60, 1e-7, 3e8])
        scale = ref - lo
        g = np.random.default_rng(buckets)
        pts = lo + scale * g.random((130, 3))
        pts[:10] = lo + scale * (g.integers(0, buckets, size=(10, 3)) / buckets)
        pts[10:14] = lo
        pts[14:18, 0] = 2.0**-61
        table = metrics._mc_table(pts, lo, scale, buckets)
        assert table.shape == (3, buckets, 6) and table.dtype == np.uint64
        bits = np.unpackbits(table.view(np.uint8), axis=-1, bitorder="little")
        assert not bits[..., 130:192].any() and not bits[..., 192 + 130:].any()
        full, reach = table_bits(table, 130)
        p = pts.T[:, None, :]
        least = (lo + scale * (np.arange(buckets + 1) / buckets)[:, None]).T[:, :, None]
        assert (full == (least[:, :-1] >= p)).all()
        assert (reach[:, :-1] == (least[:, 1:-1] >= p)).all() and reach[:, -1].all()
        # the bucket's greatest draw, (b + 1) / B - 2**-53
        greatest = lo + scale * (np.arange(1, buckets + 1) / buckets - 2.0**-53)[:, None]
        assert (reach >= (greatest.T[:, :, None] >= p)).all()
        assert not full[0, :, 14:18].any()


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

    @pytest.mark.parametrize("samples", [1000.0, True, "1000", None])
    def test_sample_count_must_be_an_integer(self, samples):
        with pytest.raises(UsageError, match="^hv: samples must be an integer, got "):
            hv([[0.2, 0.5, 0.5, 0.5]], [1.0] * 4, samples=samples)

    def test_numpy_integer_sample_count(self):
        assert hv([[0.2, 0.5, 0.5, 0.5]], [1.0] * 4, samples=np.int64(1000)) == \
            hv([[0.2, 0.5, 0.5, 0.5]], [1.0] * 4, samples=1000)

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

    @pytest.mark.parametrize("mode", ["auto", "exact", "monte_carlo"])
    def test_overflowing_box_rejected(self, mode):
        with pytest.raises(UsageError, match=r"^hv: the box from \[-1e\+308, -1e\+308\] "
                                             r"to the reference point \[1e\+308, 1e\+308\]"):
            hv([[-1e308, -1e308]], [1e308, 1e308], mode=mode)

    def test_overflowing_volume_rejected(self):
        with pytest.raises(UsageError, match="volume beyond the float range"):
            hv([[-1e200] * 4], [1e200] * 4)

    def test_overflowing_face_rejected(self):
        # the sweep's 2-D area overflows although the box's volume does not
        with pytest.raises(UsageError, match="volume beyond the float range"):
            hv([[0.0, 0.0, 0.0]], [1e200, 1e200, 1e-300])

    @pytest.mark.parametrize("ref", [
        [1e-200, 1e-200, 1e200],  # the sweep's 2-D area underflows
        [1e-200, 1e-200, 1e200, 1.0],  # the Monte Carlo box's product underflows
    ])
    def test_underflowing_volume_rejected(self, ref):
        with pytest.raises(UsageError, match="volume beyond the float range"):
            hv([[0.0] * len(ref)], ref, samples=1000)

    def test_small_box_with_normal_faces_is_measured(self):
        # the sides of the rejected box above, reordered so no prefix underflows
        assert hv([[0.0] * 4], [1e200, 1.0, 1e-200, 1e-200], samples=1000).value == 1e-200

    def test_box_near_the_float_limit_is_measured(self):
        # box * hits passes the float range; the HV itself does not
        ref = [1e77] * 4
        assert hv([[0.0] * 4], ref, samples=1000).value == np.prod(ref)

    def test_nothing_dominates_reference(self):
        r = hv([[1.5, 0.5], [0.5, 1.5]], [1.0, 1.0])
        assert r.value == 0.0
