import numpy as np
import pytest

from temof import ConfigurationError, Population, ProblemSpec, UsageError, VariationParams
from temof.variation import generate_offspring, mating_pool, mutate_batch, sbx_batch


def box_problem(n_var=6):
    return ProblemSpec("box", n_var, 2, np.zeros(n_var), np.ones(n_var),
                       lambda x: np.column_stack([x.sum(axis=1), (1 - x).sum(axis=1)]))


class TestVariationParams:
    def test_defaults(self):
        p = VariationParams()
        assert p.pc == 1.0 and p.eta_c == 20.0 and p.pm is None and p.eta_m == 20.0
        assert p.mutation_prob(10) == 0.1

    def test_explicit_pm_wins(self):
        assert VariationParams(pm=0.3).mutation_prob(10) == 0.3

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            VariationParams(pc=1.5)
        with pytest.raises(ConfigurationError):
            VariationParams(pm=-0.1)
        with pytest.raises(ConfigurationError):
            VariationParams(eta_c=-1)
        for field in ("eta_c", "eta_m"):  # NaN fails every comparison
            with pytest.raises(ConfigurationError, match="distribution indices"):
                VariationParams(**{field: float("nan")})


class TestMatingPool:
    def test_pair_count_and_range(self):
        pop = Population(np.zeros((7, 2)), np.zeros((7, 2)))
        rng = np.random.default_rng(0)
        pairs = mating_pool(pop, 10, rng)
        assert pairs.shape == (5, 2)
        assert pairs.min() >= 0 and pairs.max() < 7
        assert mating_pool(pop, 11, rng).shape == (6, 2)

    def test_with_replacement(self):
        pop = Population(np.zeros((2, 2)), np.zeros((2, 2)))
        pairs = mating_pool(pop, 40, np.random.default_rng(1))
        # only two parents: self-pairings must occur
        assert (pairs[:, 0] == pairs[:, 1]).any()

    def test_empty_source(self):
        pop = Population(np.zeros((1, 2)), np.zeros((1, 2))).take([])
        with pytest.raises(UsageError):
            mating_pool(pop, 4, np.random.default_rng(0))

    def test_determinism(self):
        pop = Population(np.zeros((9, 2)), np.zeros((9, 2)))
        a = mating_pool(pop, 8, np.random.default_rng(3))
        b = mating_pool(pop, 8, np.random.default_rng(3))
        assert np.array_equal(a, b)


class TestSbx:
    def test_sum_identity_without_clamping(self):
        # bounds wide enough that no child can hit them
        n = 12
        lower, upper = np.full(n, -1e9), np.full(n, 1e9)
        parents = np.random.default_rng(11).random((2, 40, n))
        children = sbx_batch(parents, VariationParams(), lower, upper,
                             np.random.default_rng(5))
        assert children.shape == parents.shape
        assert np.allclose(children.sum(axis=0), parents.sum(axis=0), atol=1e-9)

    def test_children_respect_bounds(self):
        n = 8
        lower, upper = np.zeros(n), np.ones(n)
        rng = np.random.default_rng(12)
        for _ in range(20):
            children = sbx_batch(rng.random((2, 1, n)), VariationParams(eta_c=0.5),
                                 lower, upper, rng)
            assert (children >= lower).all() and (children <= upper).all()

    def test_pc_zero_copies_parents(self):
        n = 5
        parents = np.stack([np.full((1, n), 0.2), np.full((1, n), 0.8)])
        children = sbx_batch(parents, VariationParams(pc=0.0),
                             np.zeros(n), np.ones(n), np.random.default_rng(0))
        assert np.array_equal(children, parents)

    def test_large_eta_keeps_children_near_parents(self):
        n = 6
        parents = np.stack([np.full((1, n), 0.3), np.full((1, n), 0.7)])
        children = sbx_batch(parents, VariationParams(eta_c=1e6),
                             np.zeros(n), np.ones(n), np.random.default_rng(2))
        assert np.allclose(np.sort(children, axis=0), parents, atol=1e-4)

    def test_determinism(self):
        n = 4
        parents = np.stack([np.full((1, n), 0.1), np.full((1, n), 0.9)])
        out1 = sbx_batch(parents, VariationParams(), np.zeros(n), np.ones(n),
                         np.random.default_rng(9))
        out2 = sbx_batch(parents, VariationParams(), np.zeros(n), np.ones(n),
                         np.random.default_rng(9))
        assert np.array_equal(out1, out2)


class TestPolynomialMutation:
    def test_stays_in_bounds(self):
        n = 10
        rng = np.random.default_rng(21)
        x = rng.random((200, n))
        out = mutate_batch(x, VariationParams(pm=1.0, eta_m=1.0),
                           np.zeros(n), np.ones(n), rng)
        assert (out >= 0).all() and (out <= 1).all()

    def test_pm_zero_is_identity(self):
        n = 6
        x = np.random.default_rng(0).random((1, n))
        out = mutate_batch(x, VariationParams(pm=0.0), np.zeros(n),
                           np.ones(n), np.random.default_rng(1))
        assert np.array_equal(out, x)

    def test_boundary_point_moves_inward_only(self):
        n = 4
        x = np.zeros((1, n))  # at the lower bound
        rng = np.random.default_rng(3)
        for _ in range(50):
            out = mutate_batch(x, VariationParams(pm=1.0), np.zeros(n),
                               np.ones(n), rng)
            assert (out >= 0).all()

    def test_symmetric_at_midpoint(self):
        # mutating x=0.5 in [0,1] is symmetric: the mean stays at 0.5
        draws = 100_000
        x = np.full((draws, 1), 0.5)
        out = mutate_batch(x, VariationParams(pm=1.0, eta_m=20.0),
                           np.zeros(1), np.ones(1), np.random.default_rng(77))
        assert abs(out.mean() - 0.5) < 0.01

    def test_respects_asymmetric_bounds(self):
        lower, upper = np.array([-5.0, 0.0]), np.array([5.0, 1.0])
        rng = np.random.default_rng(4)
        x = np.array([[4.9, 0.05]] * 100)
        out = mutate_batch(x, VariationParams(pm=1.0, eta_m=2.0), lower, upper, rng)
        assert (out >= lower).all() and (out <= upper).all()


def mutate_batch_oracle(x, params, lower, upper, rng):
    """mutate_batch as first written: both power branches at every variable."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    span = upper - lower
    pm = params.mutation_prob(x.shape[1])
    site = rng.random(x.shape) < pm
    u = rng.random(x.shape)
    d1 = (x - lower) / span
    d2 = (upper - x) / span
    exp = 1.0 / (params.eta_m + 1.0)
    low_side = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (params.eta_m + 1.0)) ** exp - 1.0
    high_side = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (params.eta_m + 1.0)) ** exp
    delta = np.where(u <= 0.5, low_side, high_side)
    out = np.where(site, x + delta * span, x)
    np.clip(out, lower, upper, out=out)
    return out


class TestMutationMatchesOracle:
    zdt4_lower = np.array([0.0] + [-5.0] * 9)
    zdt4_upper = np.array([1.0] + [5.0] * 9)

    @pytest.mark.parametrize("rows, n_var, params, bounds", [
        (100, 30, VariationParams(), None),
        (100, 30, VariationParams(pm=0.0), None),  # no sites
        (40, 12, VariationParams(pm=1.0, eta_m=5.0), None),  # every site
        (1, 7, VariationParams(), None),
        (60, 10, VariationParams(), (zdt4_lower, zdt4_upper)),
        (60, 10, VariationParams(pm=1.0), (zdt4_lower, zdt4_upper)),
    ], ids=["default", "pm0", "pm1", "one-row", "zdt4", "zdt4-pm1"])
    def test_byte_equal_over_seeds(self, rows, n_var, params, bounds):
        lower, upper = bounds if bounds else (np.zeros(n_var), np.ones(n_var))
        for seed in range(200):
            x = lower + np.random.default_rng(10_000 + seed).random((rows, n_var)) * (upper - lower)
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = mutate_batch(x, params, lower, upper, rng)
            expected = mutate_batch_oracle(x, params, lower, upper, oracle_rng)
            assert got.tobytes() == expected.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


def sbx_batch_oracle(p1, p2, params, lower, upper, rng):
    """sbx_batch as first written: both power branches, then np.clip."""
    do = rng.random(p1.shape) < params.pc
    u = rng.random(p1.shape)
    exp = 1.0 / (params.eta_c + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exp, (0.5 / (1.0 - u)) ** exp)
    beta = np.where(do, beta, 1.0)
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    np.clip(c1, lower, upper, out=c1)
    np.clip(c2, lower, upper, out=c2)
    return c1, c2


class _PlantedDraws(np.random.Generator):
    """A PCG64 generator whose random() draws hold 0.5 and 0.0 at fixed places.

    The places count along the stream of draws, so splitting the draws into
    calls does not move them: every 7th draw from the first is 0.5, and every
    11th from the fourth is 0.0.
    """

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def random(self, size=None, dtype=np.float64, out=None):
        draws = super().random(size, dtype, out)
        flat = draws.reshape(-1)
        at = self.drawn + np.arange(flat.size)
        flat[at % 7 == 0] = 0.5
        flat[at % 11 == 3] = 0.0
        self.drawn += flat.size
        return draws


class TestSbxMatchesOracle:
    @pytest.mark.parametrize("planted", [False, True], ids=["plain", "u=0.5"])
    @pytest.mark.parametrize("params", [VariationParams(), VariationParams(pc=0.5, eta_c=0.5)],
                             ids=["default", "wide"])
    def test_byte_equal_over_seeds(self, params, planted):
        lower, upper = np.array([0.0] + [-5.0] * 9), np.array([1.0] + [5.0] * 9)
        make = _PlantedDraws if planted else np.random.default_rng
        at_lower = at_upper = 0
        for seed in range(100):
            parents = np.random.default_rng(10_000 + seed).random((2, 30, 10))
            # parents near both bounds send children past them
            parents = lower + np.round(parents, 1) * (upper - lower)
            p1, p2 = parents
            rng, oracle_rng = make(seed), make(seed)
            got = sbx_batch(parents, params, lower, upper, rng)
            expected = sbx_batch_oracle(p1, p2, params, lower, upper, oracle_rng)
            assert got.shape == parents.shape
            for child, want in zip(got, expected):
                assert child.tobytes() == want.tobytes()
                at_lower += np.count_nonzero((child == lower) & (p1 != lower) & (p2 != lower))
                at_upper += np.count_nonzero((child == upper) & (p1 != upper) & (p2 != upper))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
        assert at_lower > 0 and at_upper > 0


class TestGenerateOffspring:
    def test_exact_count_and_budget(self):
        evaluated = []
        box = box_problem()

        def counting(x):
            evaluated.append(len(x))
            return box.evaluator(x)

        problem = ProblemSpec("box", 6, 2, box.lower, box.upper, counting)
        pop = Population(np.full((10, 6), 0.5), box.evaluate_batch(np.full((10, 6), 0.5)))
        for n in (9, 10):
            off = generate_offspring(pop, n, VariationParams(), problem,
                                     np.random.default_rng(1))
            assert len(off) == n
            assert np.array_equal(off.f, box.evaluate_batch(off.x))
            assert (off.x >= 0).all() and (off.x <= 1).all()
        assert evaluated == [9, 10]  # one evaluation per offspring

    def test_single_parent_source_works(self):
        problem = box_problem()
        pop = Population(np.full((1, 6), 0.5),
                         problem.evaluate_batch(np.full((1, 6), 0.5)))
        off = generate_offspring(pop, 4, VariationParams(), problem,
                                 np.random.default_rng(0))
        assert len(off) == 4

    def test_determinism(self):
        problem = box_problem()
        x = np.random.default_rng(8).random((12, 6))
        pop = Population(x, problem.evaluate_batch(x))
        a = generate_offspring(pop, 12, VariationParams(), problem,
                               np.random.default_rng(13))
        b = generate_offspring(pop, 12, VariationParams(), problem,
                               np.random.default_rng(13))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.f, b.f)


def generate_offspring_oracle(source, n, params, problem, rng):
    """generate_offspring as first written: one gather per parent, two SBX
    children from the two-formula oracle, joined by np.concatenate."""
    pairs = mating_pool(source, n, rng)
    c1, c2 = sbx_batch_oracle(source.x[pairs[:, 0]], source.x[pairs[:, 1]],
                              params, problem.lower, problem.upper, rng)
    children = np.concatenate([c1, c2])[:n]
    children = mutate_batch(children, params, problem.lower, problem.upper, rng)
    return Population(children, problem.evaluate_batch(children))


class TestGenerateOffspringMatchesOracle:
    @pytest.mark.parametrize("n", [1, 12, 13, 50], ids=lambda n: f"n={n}")
    @pytest.mark.parametrize("params", [VariationParams(), VariationParams(pc=0.5, eta_c=0.5)],
                             ids=["default", "wide"])
    def test_byte_equal_over_seeds(self, n, params):
        lower, upper = np.array([0.0] + [-5.0] * 9), np.array([1.0] + [5.0] * 9)
        problem = ProblemSpec("box", 10, 2, lower, upper,
                              lambda x: np.column_stack([x.sum(axis=1), -x.sum(axis=1)]))
        clipped = 0
        for seed in range(50):
            # parents on a coarse grid, many of them on a bound, so children clip
            grid = np.round(np.random.default_rng(20_000 + seed).random((17, 10)), 1)
            x = lower + grid * (upper - lower)
            source = Population(x, problem.evaluate_batch(x))
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = generate_offspring(source, n, params, problem, rng)
            expected = generate_offspring_oracle(source, n, params, problem, oracle_rng)
            assert got.x.tobytes() == expected.x.tobytes()
            assert got.f.tobytes() == expected.f.tobytes()
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
            # the same draws without bounds: some children fall outside the box
            replay = np.random.default_rng(seed)
            pairs = mating_pool(source, n, replay)
            unbounded = sbx_batch_oracle(x[pairs[:, 0]], x[pairs[:, 1]], params,
                                         np.full(10, -np.inf), np.full(10, np.inf), replay)
            clipped += sum(np.count_nonzero((c < lower) | (c > upper)) for c in unbounded)
        assert clipped > 0


def _ks_distance(sample, cdf):
    """Kolmogorov-Smirnov distance between a sample's empirical CDF and cdf."""
    x = np.sort(sample, axis=None)
    f = cdf(x)
    n = x.size
    return max((np.arange(1, n + 1) / n - f).max(), (f - np.arange(n) / n).max())


# about the 0.1% critical value of the one-sample KS distance (1.95 / sqrt(n))
KS_DRAWS = 100_000
KS_BOUND = 1.95 / KS_DRAWS ** 0.5


class TestOperatorLaws:
    """The operators' distributions, not their bits: these hold for any
    correct implementation, so they guard changes to how the draws are made."""

    @staticmethod
    def crossed(eta_c, seed):
        """KS_DRAWS crossed variables: parents, children, and the spread
        factor c1 - c2 = beta (p1 - p2) of Deb & Agrawal's SBX."""
        rng = np.random.default_rng(seed)
        shape = (KS_DRAWS // 100, 100)
        p1 = rng.uniform(0.3, 0.7, shape)
        p2 = p1 + rng.choice([-1.0, 1.0], shape) * rng.uniform(0.1, 0.3, shape)
        lower, upper = np.full(100, -10.0), np.full(100, 10.0)  # never reached
        c1, c2 = sbx_batch(np.stack([p1, p2]), VariationParams(eta_c=eta_c), lower, upper, rng)
        return p1, p2, c1, c2, (c1 - c2) / (p1 - p2)

    @pytest.mark.parametrize("eta_c", [20.0, 2.0])
    def test_sbx_spread_factor_follows_its_density(self, eta_c):
        # density 0.5 (eta + 1) beta^eta below 1 and 0.5 (eta + 1) / beta^(eta + 2)
        # above, so the CDF is 0.5 beta^(eta + 1), then 1 - 0.5 beta^-(eta + 1)
        *_, beta = self.crossed(eta_c, 31)
        e = eta_c + 1.0
        cdf = lambda b: np.where(b <= 1.0, 0.5 * b ** e, 1.0 - 0.5 * b ** -e)  # noqa: E731
        assert _ks_distance(np.abs(beta), cdf) < KS_BOUND
        assert _ks_distance(np.abs(beta), lambda b: np.minimum(b, 1.0)) > 10 * KS_BOUND

    @pytest.mark.parametrize("at", [0.5, 0.3, 0.85])
    def test_mutation_follows_its_density_at_interior_points(self, at):
        # Deb & Goyal's density 0.5 (eta + 1)(1 - |d|)^eta, bounded: below 0 the
        # perturbation d of a point a fraction d1 = at into its range has the CDF
        # ((1 + d)^e - (1 - d1)^e) / (2 (1 - (1 - d1)^e)), with e = eta + 1, and
        # above 0 its mirror image with d2 = 1 - at
        eta = 20.0
        e = eta + 1.0
        lower, upper = np.full(100, -1.0), np.full(100, 3.0)
        x = np.full((KS_DRAWS // 100, 100), lower + at * (upper - lower))
        out = mutate_batch(x, VariationParams(pm=1.0, eta_m=eta), lower, upper,
                           np.random.default_rng(32))
        d = ((out - x) / (upper - lower)).ravel()
        t1, t2 = (1.0 - at) ** e, at ** e

        def cdf(d):
            below = ((1.0 + np.minimum(d, 0.0)) ** e - t1) / (2.0 * (1.0 - t1))
            above = 1.0 - ((1.0 - np.maximum(d, 0.0)) ** e - t2) / (2.0 * (1.0 - t2))
            return np.where(d <= 0.0, below, above)

        assert _ks_distance(d, cdf) < KS_BOUND
        shifted = lambda d: cdf(d - 0.01)  # noqa: E731 - a law 1% of the range off
        assert _ks_distance(d, shifted) > 10 * KS_BOUND

    @pytest.mark.xfail(strict=True, reason="sbx_batch never exchanges a crossed variable's "
                                           "two child values, so a child stays on its own "
                                           "parent's side (ROADMAP: exchange SBX children "
                                           "per variable)")
    def test_sbx_exchanges_child_values_in_half_the_draws(self):
        p1, p2, c1, c2, _ = self.crossed(20.0, 33)
        swapped = np.sign(c1 - c2) != np.sign(p1 - p2)
        assert abs(swapped.mean() - 0.5) < 0.01
