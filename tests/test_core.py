import numpy as np
import pytest

from temof import (ConfigurationError, EvaluationError, Population, ProblemSpec,
                   RngKey, UsageError, concat, initialize_population, merge_dedupe,
                   rng_stream)


def sphere_problem(n_var=4, n_obj=2):
    def ev(x):
        f1 = (x ** 2).sum(axis=1)
        f2 = ((x - 1.0) ** 2).sum(axis=1)
        return np.column_stack([f1, f2])
    return ProblemSpec("sphere", n_var, n_obj, np.zeros(n_var), np.ones(n_var), ev)


class TestRngStreams:
    def test_same_triple_same_sequence(self):
        a = rng_stream(7, 3, "variation").random(10)
        b = rng_stream(7, 3, "variation").random(10)
        assert np.array_equal(a, b)

    def test_purposes_are_independent(self):
        a = rng_stream(7, 3, "variation").random(10)
        b = rng_stream(7, 3, "gate").random(10)
        assert not np.array_equal(a, b)

    def test_run_keys_are_independent(self):
        a = rng_stream(7, 0, "init").random(10)
        b = rng_stream(7, 1, "init").random(10)
        assert not np.array_equal(a, b)

    def test_rng_key_wrapper(self):
        key = RngKey(7, 3)
        assert np.array_equal(key.stream("x").random(5), rng_stream(7, 3, "x").random(5))

    def test_non_int_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            rng_stream("seven", 0, "init")

    def test_negative_seed_works(self):
        assert rng_stream(-3, -9, "init").random() == rng_stream(-3, -9, "init").random()


class TestProblemSpec:
    def test_invalid_bounds(self):
        with pytest.raises(ConfigurationError, match="strictly below"):
            ProblemSpec("bad", 2, 2, np.array([0.0, 1.0]), np.array([1.0, 1.0]),
                        lambda x: x)

    def test_bad_dimensions(self):
        with pytest.raises(ConfigurationError):
            ProblemSpec("bad", 0, 2, np.zeros(0), np.ones(0), lambda x: x)

    def test_bounds_shape_mismatch(self):
        with pytest.raises(ConfigurationError, match="shape"):
            ProblemSpec("bad", 3, 2, np.zeros(2), np.ones(3), lambda x: x)

    def test_evaluator_shape_checked(self):
        p = ProblemSpec("odd", 2, 3, np.zeros(2), np.ones(2), lambda x: x)
        with pytest.raises(EvaluationError, match="shape"):
            p.evaluate_batch(np.zeros((4, 2)))

    def test_non_finite_objectives_rejected(self):
        def ev(x):
            f = np.ones((x.shape[0], 2))
            f[0, 1] = np.nan
            return f
        p = ProblemSpec("nanny", 2, 2, np.zeros(2), np.ones(2), ev)
        with pytest.raises(EvaluationError, match="nanny"):
            p.evaluate_batch(np.zeros((3, 2)))

    def test_wrong_input_width(self):
        with pytest.raises(UsageError):
            sphere_problem().evaluate_batch(np.zeros((2, 3)))

    def test_true_front_without_sampler(self):
        from temof import UnsupportedError
        with pytest.raises(UnsupportedError):
            sphere_problem().true_front(10)


class TestPopulation:
    def test_evaluated_construction(self):
        pop = Population(np.zeros((3, 2)), np.ones((3, 4)))
        assert len(pop) == 3 and pop.n_var == 2 and pop.n_obj == 4
        assert np.array_equal(pop.objectives, np.ones((3, 4)))

    def test_objectives_required(self):
        with pytest.raises(TypeError):
            Population(np.zeros((3, 2)))

    def test_arrays_are_readonly(self):
        pop = Population(np.zeros((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            pop.x[0, 0] = 5.0
        with pytest.raises(ValueError):
            pop.f[0, 0] = 5.0

    def test_source_array_not_aliased(self):
        x = np.zeros((2, 2))
        pop = Population(x, np.ones((2, 2)))
        x[0, 0] = 9.0
        assert pop.x[0, 0] == 0.0

    def test_take_preserves_state(self):
        pop = Population(np.arange(8, dtype=float).reshape(4, 2),
                         np.arange(8, dtype=float).reshape(4, 2))
        sub = pop.take([2, 0])
        assert np.array_equal(sub.x, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.f, [[4.0, 5.0], [0.0, 1.0]])

    def test_row_count_mismatch(self):
        with pytest.raises(UsageError):
            Population(np.zeros((3, 2)), np.ones((2, 2)))


class TestConcatAndMerge:
    def test_concat(self):
        a = Population(np.zeros((2, 2)), np.zeros((2, 3)))
        b = Population(np.ones((1, 2)), np.ones((1, 3)))
        c = concat(a, b)
        assert len(c) == 3
        assert np.array_equal(c.x, [[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        assert np.array_equal(c.f[:, 0], [0.0, 0.0, 1.0])

    def test_concat_dim_mismatch(self):
        a = Population(np.zeros((2, 2)), np.zeros((2, 3)))
        b = Population(np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(ConfigurationError):
            concat(a, b)

    def test_merge_drops_exact_duplicates(self):
        a = Population(np.array([[0.5, 0.5], [0.1, 0.2]]), np.zeros((2, 2)))
        b = Population(np.array([[0.5, 0.5], [0.9, 0.9], [0.1, 0.2]]),
                       np.ones((3, 2)))
        merged = merge_dedupe(a, b, n=0)
        assert len(merged) == 3
        # first occurrence wins: a's rows first, then b's novel row
        assert np.array_equal(merged.x, [[0.5, 0.5], [0.1, 0.2], [0.9, 0.9]])
        assert np.array_equal(merged.f[0], [0.0, 0.0])

    def test_merge_tops_up_with_earliest_dropped_copies(self):
        a = Population(np.array([[0.5, 0.5], [0.1, 0.2]]), np.zeros((2, 2)))
        b = Population(np.array([[0.5, 0.5], [0.9, 0.9], [0.1, 0.2]]),
                       np.arange(6.0).reshape(3, 2))
        kept = [[0.5, 0.5], [0.1, 0.2], [0.9, 0.9]]
        for n in (0, 2, 3):  # n at or below the unique count: a pure dedupe
            assert np.array_equal(merge_dedupe(a, b, n=n).x, kept)
        # then b's copies of a's rows, in ascending order, up to n rows
        top4 = merge_dedupe(a, b, n=4)
        assert np.array_equal(top4.x, kept + [[0.5, 0.5]])
        assert np.array_equal(top4.f[3], [0.0, 1.0])
        for n in (5, 9):  # every dropped copy, and no more
            merged = merge_dedupe(a, b, n=n)
            assert np.array_equal(merged.x, kept + [[0.5, 0.5], [0.1, 0.2]])
            assert np.array_equal(merged.f[3:], [[0.0, 1.0], [4.0, 5.0]])

    def test_merge_keeps_near_duplicates(self):
        eps = np.nextafter(0.5, 1.0)
        a = Population(np.array([[0.5, 0.5]]), np.zeros((1, 2)))
        b = Population(np.array([[eps, 0.5]]), np.ones((1, 2)))
        assert len(merge_dedupe(a, b, n=0)) == 2

    def test_merge_dedupes_within_one_side(self):
        a = Population(np.array([[0.5, 0.5], [0.5, 0.5]]), np.zeros((2, 2)))
        b = Population(np.zeros((1, 2)), np.ones((1, 2)))
        assert np.array_equal(merge_dedupe(a, b, n=0).x, [[0.5, 0.5], [0.0, 0.0]])
        assert np.array_equal(merge_dedupe(a, b, n=3).x, [[0.5, 0.5], [0.0, 0.0], [0.5, 0.5]])

    def test_merge_dim_mismatch(self):
        a = Population(np.zeros((1, 2)), np.zeros((1, 2)))
        b = Population(np.zeros((1, 3)), np.zeros((1, 2)))
        with pytest.raises(ConfigurationError):
            merge_dedupe(a, b, n=0)


class TestInitializeAndEvaluate:
    def test_deterministic_initialization(self):
        p = sphere_problem()
        a = initialize_population(p, 10, rng_stream(3, 0, "init"))
        b = initialize_population(p, 10, rng_stream(3, 0, "init"))
        assert np.array_equal(a.x, b.x) and np.array_equal(a.f, b.f)
        assert np.array_equal(a.f, p.evaluate_batch(a.x))

    def test_bounds_respected(self):
        n_var = 5
        p = ProblemSpec("box", n_var, 2,
                        np.full(n_var, -2.0), np.full(n_var, 3.0),
                        lambda x: np.zeros((x.shape[0], 2)) + 1.0)
        pop = initialize_population(p, 50, rng_stream(0, 0, "init"))
        assert (pop.x >= -2.0).all() and (pop.x <= 3.0).all()

    def test_bad_size(self):
        with pytest.raises(ConfigurationError):
            initialize_population(sphere_problem(), 0, rng_stream(0, 0, "init"))
