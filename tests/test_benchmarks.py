import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from temof import (ConfigurationError, UnsupportedError, UsageError,
                   make_problem, pareto_mask, problem_names, sample_true_front)
from temof.benchmarks import _dtlz56_theta, _dtlz_g1, _dtlz_g2, _grid_front, _subsample


class TestRegistry:
    def test_names(self):
        names = problem_names()
        assert names == ["DTLZ1", "DTLZ2", "DTLZ3", "DTLZ4", "DTLZ5", "DTLZ6",
                         "DTLZ7", "ZDT1", "ZDT2", "ZDT3", "ZDT4", "ZDT6"]

    def test_unknown_name(self):
        with pytest.raises(ConfigurationError, match="known:"):
            make_problem("ZDT5")

    def test_case_insensitive(self):
        assert make_problem("dtlz2").name == "DTLZ2"

    def test_dtlz_dimension_overrides(self):
        p = make_problem("DTLZ2", n_var=11, n_obj=5)
        assert p.n_var == 11 and p.n_obj == 5
        with pytest.raises(ConfigurationError):
            make_problem("DTLZ2", n_var=3, n_obj=5)
        with pytest.raises(ConfigurationError):
            make_problem("DTLZ2", n_obj=1)

    def test_zdt_objectives_fixed(self):
        with pytest.raises(ConfigurationError):
            make_problem("ZDT1", n_obj=3)
        assert make_problem("ZDT1", n_obj=2).n_obj == 2

    def test_zdt_needs_two_variables(self):
        with pytest.raises(ConfigurationError, match="ZDT2: n_var must be >= 2, got 1"):
            make_problem("ZDT2", n_var=1)
        assert make_problem("ZDT2", n_var=2).n_var == 2

    def test_zdt4_bounds(self):
        p = make_problem("ZDT4")
        assert p.lower[0] == 0.0 and p.upper[0] == 1.0
        assert (p.lower[1:] == -5.0).all() and (p.upper[1:] == 5.0).all()


class TestHandValues:
    def test_dtlz1_optimal_tail(self):
        p = make_problem("DTLZ1")  # n_var=7, n_obj=3
        x = np.array([0.3, 0.7, 0.5, 0.5, 0.5, 0.5, 0.5])
        f = p.evaluate_batch(x)[0]
        assert np.allclose(f, [0.5 * 0.3 * 0.7, 0.5 * 0.3 * 0.3, 0.5 * 0.7])
        assert np.isclose(f.sum(), 0.5)

    def test_dtlz1_g_at_zero_tail(self):
        p = make_problem("DTLZ1")
        x = np.array([0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
        # each tail var contributes 0.25 - cos(-10*pi) = -0.75, so g = 100*5*0.25
        assert np.isclose(p.evaluate_batch(x)[0].sum(), 0.5 * (1 + 125.0))

    def test_dtlz2_corners(self):
        p = make_problem("DTLZ2")
        x = np.full(12, 0.5)
        x[:2] = [0.0, 0.0]
        assert np.allclose(p.evaluate_batch(x)[0], [1.0, 0.0, 0.0], atol=1e-12)
        x[:2] = [1.0, 0.0]
        assert np.allclose(p.evaluate_batch(x)[0], [0.0, 0.0, 1.0], atol=1e-12)
        x[:2] = [1.0, 1.0]
        assert np.allclose(p.evaluate_batch(x)[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_dtlz2_off_optimum_scales_by_g(self):
        p = make_problem("DTLZ2")
        x = np.zeros(12)  # tail at 0 gives g = 10 * 0.25 = 2.5
        f = p.evaluate_batch(x)[0]
        assert np.allclose(f, [3.5, 0.0, 0.0], atol=1e-12)

    def test_dtlz3_same_shape_harder_g(self):
        p3 = make_problem("DTLZ3")
        x = np.full(12, 0.5)
        x[:2] = [0.25, 0.75]
        f3 = p3.evaluate_batch(x)[0]
        f2 = make_problem("DTLZ2").evaluate_batch(x)[0]
        assert np.allclose(f3, f2, atol=1e-12)  # g = 0 at tail 0.5 for both

    def test_dtlz4_bias_collapses_small_coordinates(self):
        p = make_problem("DTLZ4")
        x = np.full(12, 0.5)
        x[:2] = [0.9, 0.9]  # 0.9**100 ~ 2.6e-5, so angles collapse to ~0
        assert np.allclose(p.evaluate_batch(x)[0], [1.0, 0.0, 0.0], atol=1e-3)

    def test_dtlz5_degenerate_curve(self):
        p = make_problem("DTLZ5")
        x = np.full(12, 0.5)
        x[0] = 0.0
        c = np.cos(np.pi / 4)
        assert np.allclose(p.evaluate_batch(x)[0], [c, c, 0.0], atol=1e-12)
        x[0] = 1.0
        assert np.allclose(p.evaluate_batch(x)[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_dtlz6_optimum_at_zero_tail(self):
        p = make_problem("DTLZ6")
        x = np.zeros(12)
        x[0] = 1.0
        assert np.allclose(p.evaluate_batch(x)[0], [0.0, 0.0, 1.0], atol=1e-12)

    def test_dtlz7_at_zero(self):
        p = make_problem("DTLZ7")
        x = np.zeros(22)
        assert np.allclose(p.evaluate_batch(x)[0], [0.0, 0.0, 6.0], atol=1e-12)

    def test_zdt1_endpoints(self):
        p = make_problem("ZDT1")
        assert np.allclose(p.evaluate_batch(np.zeros(30))[0], [0.0, 1.0])
        x = np.zeros(30)
        x[0] = 1.0
        assert np.allclose(p.evaluate_batch(x)[0], [1.0, 0.0])
        assert np.allclose(p.evaluate_batch(np.ones(30))[0], [1.0, 10.0 - np.sqrt(10.0)])

    def test_zdt2_endpoint(self):
        assert np.allclose(make_problem("ZDT2").evaluate_batch(np.zeros(30))[0], [0.0, 1.0])

    def test_zdt3_endpoint(self):
        assert np.allclose(make_problem("ZDT3").evaluate_batch(np.zeros(30))[0], [0.0, 1.0])

    def test_zdt4_optimal_tail(self):
        p = make_problem("ZDT4")
        x = np.zeros(10)
        x[0] = 0.5
        assert np.allclose(p.evaluate_batch(x)[0], [0.5, 1.0 - np.sqrt(0.5)])

    def test_zdt6_endpoint(self):
        p = make_problem("ZDT6")
        assert np.allclose(p.evaluate_batch(np.zeros(10))[0], [1.0, 0.0])


def linear_shape_oracle(position, g):
    """DTLZ1 objectives as first written, before the shape kernel was shared."""
    m = position.shape[1] + 1
    f = np.empty((position.shape[0], m))
    base = 0.5 * (1.0 + g)
    for i in range(m):
        val = base.copy()
        if m - 1 - i > 0:
            val *= np.prod(position[:, :m - 1 - i], axis=1)
        if i > 0:
            val *= 1.0 - position[:, m - 1 - i]
        f[:, i] = val
    return f


def concave_shape_oracle(theta, g):
    """Unit-sphere objectives as first written, before the shape kernel was shared."""
    m = theta.shape[1] + 1
    cos = np.cos(theta)
    sin = np.sin(theta)
    f = np.empty((theta.shape[0], m))
    for i in range(m):
        val = 1.0 + g
        if m - 1 - i > 0:
            val = val * np.prod(cos[:, :m - 1 - i], axis=1)
        if i > 0:
            val = val * sin[:, m - 1 - i]
        f[:, i] = val
    return f


def _dtlz56_oracle(x, m, g):
    return concave_shape_oracle(_dtlz56_theta(x, m, g), g)


DTLZ_ORACLES = {
    "DTLZ1": lambda x, m: linear_shape_oracle(x[:, :m - 1], _dtlz_g1(x[:, m - 1:])),
    "DTLZ2": lambda x, m: concave_shape_oracle(x[:, :m - 1] * (np.pi / 2.0),
                                               _dtlz_g2(x[:, m - 1:])),
    "DTLZ3": lambda x, m: concave_shape_oracle(x[:, :m - 1] * (np.pi / 2.0),
                                               _dtlz_g1(x[:, m - 1:])),
    "DTLZ4": lambda x, m: concave_shape_oracle(x[:, :m - 1] ** 100.0 * (np.pi / 2.0),
                                               _dtlz_g2(x[:, m - 1:])),
    "DTLZ5": lambda x, m: _dtlz56_oracle(x, m, _dtlz_g2(x[:, m - 1:])),
    "DTLZ6": lambda x, m: _dtlz56_oracle(x, m, (x[:, m - 1:] ** 0.1).sum(axis=1)),
}


class TestShapeKernel:
    # an oracle, not a recorded digest: DTLZ4's and DTLZ6's powers depend on
    # numpy's SIMD level, which the oracle shares with the evaluator
    @pytest.mark.parametrize("name", sorted(DTLZ_ORACLES))
    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_evaluator_is_byte_equal_to_oracle(self, name, m):
        problem = make_problem(name, n_obj=m)
        x = np.random.default_rng(m).random((64, problem.n_var))
        x[0], x[1] = 0.0, 1.0  # the box corners
        f = problem.evaluate_batch(x)
        assert f.tobytes() == DTLZ_ORACLES[name](x, m).tobytes()


DTLZ7_FRONT_BELOW = pytest.mark.xfail(
    strict=True, reason="the sampled DTLZ7 f_M = M - sum f_i(1 + sin 3 pi f_i) is M "
                        "below the attainable 2M - sum f_i(1 + sin 3 pi f_i) at g = 1")


class TestFrontSamplers:
    def test_exact_count_and_shape(self):
        for name in problem_names():
            problem = make_problem(name)
            front = sample_true_front(problem, 333)
            assert front.shape == (333, problem.n_obj), name

    def test_fronts_are_mutually_nondominated(self):
        for name in problem_names():
            problem = make_problem(name)
            front = sample_true_front(problem, 300)
            assert pareto_mask(front).all(), name

    def test_sampling_is_deterministic(self):
        p = make_problem("DTLZ7")
        a = sample_true_front(p, 250).copy()
        b = sample_true_front(p, 250).copy()
        assert np.array_equal(a, b)

    def test_dtlz1_front_sums_to_half(self):
        front = sample_true_front(make_problem("DTLZ1"), 500)
        assert np.allclose(front.sum(axis=1), 0.5, atol=1e-9)

    def test_dtlz2_front_on_unit_sphere(self):
        for name in ("DTLZ2", "DTLZ3", "DTLZ4"):
            front = sample_true_front(make_problem(name), 400)
            assert np.allclose(np.linalg.norm(front, axis=1), 1.0, atol=1e-9), name

    def test_dtlz5_front_on_curve(self):
        front = sample_true_front(make_problem("DTLZ5"), 200)
        assert np.allclose(np.linalg.norm(front, axis=1), 1.0, atol=1e-9)
        assert np.allclose(front[:, 0], front[:, 1], atol=1e-12)

    def test_dtlz7_front_satisfies_surface_equation(self):
        front = sample_true_front(make_problem("DTLZ7"), 300)
        x = front[:, :2]
        h = 3 - (x * (1 + np.sin(3 * np.pi * x))).sum(axis=1)
        assert np.allclose(front[:, 2], h, atol=1e-9)

    def test_zdt_front_curves(self):
        f = sample_true_front(make_problem("ZDT1"), 100)
        assert np.allclose(f[:, 1], 1 - np.sqrt(f[:, 0]), atol=1e-12)
        f = sample_true_front(make_problem("ZDT2"), 100)
        assert np.allclose(f[:, 1], 1 - f[:, 0] ** 2, atol=1e-12)
        f = sample_true_front(make_problem("ZDT4"), 100)
        assert np.allclose(f[:, 1], 1 - np.sqrt(f[:, 0]), atol=1e-12)

    def test_zdt3_front_on_curve_and_disconnected(self):
        f = sample_true_front(make_problem("ZDT3"), 400)
        expected = 1 - np.sqrt(f[:, 0]) - f[:, 0] * np.sin(10 * np.pi * f[:, 0])
        assert np.allclose(f[:, 1], expected, atol=1e-12)
        gaps = np.diff(np.sort(f[:, 0]))
        assert gaps.max() > 10 * np.median(gaps)  # disconnected segments

    @pytest.mark.parametrize("count", [50, 2000, 10_000])
    def test_zdt3_front_matches_loop_oracle(self, count):
        # the sampler's former record scan, kept verbatim as the reference
        f1 = np.linspace(0.0, 1.0, 16 * count)
        f2 = 1.0 - np.sqrt(f1) - f1 * np.sin(10.0 * np.pi * f1)
        objs = np.column_stack([f1, f2])
        keep = np.empty(objs.shape[0], dtype=bool)
        best = np.inf
        for i in range(objs.shape[0]):  # sorted by f1, keep strict f2 improvements
            keep[i] = objs[i, 1] < best
            if keep[i]:
                best = objs[i, 1]
        expected = _subsample(objs[keep], count)
        assert np.array_equal(sample_true_front(make_problem("ZDT3"), count), expected)

    @pytest.mark.parametrize("count", [1, 7, 50, 333, 2000])
    @pytest.mark.parametrize("m", [2, 3])
    def test_dtlz7_front_matches_scan_oracle(self, m, count):
        # the sampler's former pareto_mask grid scan, kept verbatim as the reference
        for factor in (12, 48, 192):
            if m == 2:
                grid = np.linspace(0.0, 1.0, factor * count)[:, None]
            else:
                side = math.ceil(math.sqrt(factor * count))
                g1, g2 = np.meshgrid(np.linspace(0.0, 1.0, side),
                                     np.linspace(0.0, 1.0, side))
                grid = np.column_stack([g1.ravel(), g2.ravel()])
            h = m - (grid * (1.0 + np.sin(3.0 * np.pi * grid))).sum(axis=1)
            objs = np.column_stack([grid, h])
            objs = objs[pareto_mask(objs)]
            if objs.shape[0] >= count:
                break
        expected = _subsample(objs, count)
        front = sample_true_front(make_problem("DTLZ7", n_obj=m), count)
        assert np.array_equal(front, expected)

    @pytest.mark.parametrize("shape", [(1,), (200,), (1, 9), (9, 1), (15, 15), (12, 17)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_grid_front_matches_pareto_mask(self, shape):
        axes = np.meshgrid(*(np.arange(n, dtype=float) for n in shape), indexing="ij")
        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            h = np.round(rng.random(shape), 1)  # one decimal forces ties
            objs = np.column_stack([a.ravel() for a in axes] + [h.ravel()])
            assert np.array_equal(_grid_front(h).ravel(), pareto_mask(objs))

    @pytest.mark.parametrize("name, n_obj", [
        *((name, None) for name in problem_names() if name != "DTLZ7"),
        *(pytest.param("DTLZ7", n_obj, marks=DTLZ7_FRONT_BELOW) for n_obj in (None, 2)),
        ("DTLZ2", 5), ("DTLZ5", 2), ("DTLZ6", 2)])
    def test_front_matches_evaluator_images(self, name, n_obj):
        # images of Pareto-optimal preimages and the sampled front lie within
        # sampling density of each other, in both directions
        problem = make_problem(name, n_obj=n_obj)
        positions = problem.n_obj - 1 if name.startswith("DTLZ") else 1
        tail = 0.5 if name in ("DTLZ1", "DTLZ2", "DTLZ3", "DTLZ4", "DTLZ5") else 0.0
        x = np.full((10_000, problem.n_var), tail)
        x[:, :positions] = np.random.default_rng(0).random((x.shape[0], positions))
        if name == "DTLZ4":
            x[:, :positions] **= 0.01  # undo the x**100 bias so images cover the front
        images = problem.evaluate_batch(x)
        images = images[pareto_mask(images)]
        front = sample_true_front(problem, 300 if problem.n_obj <= 3 else 1000)
        tol = 0.1 if problem.n_obj <= 3 else 0.3
        assert cKDTree(images).query(front)[0].max() < tol
        assert cKDTree(front).query(images)[0].max() < tol

    def test_zdt6_front_matches_evaluator_minimum(self):
        problem = make_problem("ZDT6")
        front = sample_true_front(problem, 200)
        assert np.allclose(front[:, 1], 1 - front[:, 0] ** 2, atol=1e-12)
        # the smallest reachable f1 on a fine grid cannot undercut the sampler
        x = np.zeros((20001, 10))
        x[:, 0] = np.linspace(0, 1, 20001)
        f1 = problem.evaluate_batch(x)[:, 0]
        assert f1.min() >= front[0, 0] - 1e-6
        assert front[0, 0] <= f1.min() + 1e-3

    def test_zdt6_front_starts_at_bounded_brent_minimum(self):
        # the constant is what the sampler computed with scipy before
        res = minimize_scalar(
            lambda t: 1.0 - np.exp(-4.0 * t) * np.sin(6.0 * np.pi * t) ** 6,
            bounds=(0.0, 1.0 / 6.0), method="bounded", options={"xatol": 1e-12})
        for count in (1, 2, 200, 10_000):
            front = sample_true_front(make_problem("ZDT6"), count)
            assert np.array_equal(front[:, 0], np.linspace(res.fun, 1.0, count))
            assert np.array_equal(front[:, 1], 1.0 - front[:, 0] ** 2)

    def test_degenerate_sampler_dimension_limit(self):
        with pytest.raises(UnsupportedError):
            sample_true_front(make_problem("DTLZ5", n_var=13, n_obj=4), 100)
        with pytest.raises(UnsupportedError):
            sample_true_front(make_problem("DTLZ7", n_var=23, n_obj=4), 100)

    def test_bad_count(self):
        with pytest.raises(UsageError):
            sample_true_front(make_problem("ZDT1"), 0)

    def test_front_points_are_feasible_objectives(self):
        # a front point must be reachable: evaluate the known optimal preimage
        problem = make_problem("DTLZ2")
        front = sample_true_front(problem, 50)
        # invert: theta0 from f2, theta1 from f0/f1; tail at 0.5
        theta0 = np.arcsin(np.clip(front[:, 2], 0, 1))
        with np.errstate(invalid="ignore", divide="ignore"):
            theta1 = np.arctan2(front[:, 1], front[:, 0])
        x = np.full((50, 12), 0.5)
        x[:, 0] = theta0 / (np.pi / 2)
        x[:, 1] = theta1 / (np.pi / 2)
        assert np.allclose(problem.evaluate_batch(x), front, atol=1e-9)
