import numpy as np
import pytest

from temof import (ConfigurationError, EvaluationError, Population, ProblemSpec,
                   RngKey, UsageError, rng_stream)
from temof import core
from temof.core import (concat, first_copies, initialize_population, merge_dedupe,
                        row_hashes)


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
        x, f = np.zeros((2, 2)), np.ones((2, 2))
        pop = Population(x, f)
        x[0, 0] = 9.0
        assert pop.x[0, 0] == 0.0
        assert f.flags.writeable and not np.shares_memory(pop.f, f)

    def test_take_preserves_state(self):
        pop = Population(np.arange(8, dtype=float).reshape(4, 2),
                         np.arange(8, dtype=float).reshape(4, 2))
        sub = pop.take([2, 0])
        assert np.array_equal(sub.x, [[4.0, 5.0], [0.0, 1.0]])
        assert np.array_equal(sub.f, [[4.0, 5.0], [0.0, 1.0]])

    def test_take_rejects_masks_and_fractions(self):
        pop = Population(np.arange(6.0).reshape(3, 2), np.zeros((3, 2)))
        with pytest.raises(UsageError, match="integer indices, got dtype bool"):
            pop.take(np.array([True, False, True]))
        with pytest.raises(UsageError, match="integer indices, got dtype float64"):
            pop.take([0.9, 2.2])
        with pytest.raises(UsageError, match="1-D index array"):
            pop.take([[0, 1]])
        assert len(pop.take([])) == 0 and pop.take([]).n_var == 2
        assert np.array_equal(pop.take(np.array([2, 0], dtype=np.uint8)).x, [[4.0, 5.0], [0.0, 1.0]])

    @pytest.mark.parametrize("build", [
        lambda a, b: a.take([1, 0, 1]),
        lambda a, b: concat(a, b),
        lambda a, b: merge_dedupe(a, b, n=5),
    ], ids=["take", "concat", "merge_dedupe"])
    def test_derived_arrays_are_fresh_and_readonly(self, build):
        a = Population(np.arange(6.0).reshape(3, 2), np.arange(9.0).reshape(3, 3))
        b = Population(np.arange(6.0).reshape(3, 2), np.ones((3, 3)))
        pop = build(a, b)
        for arr in (pop.x, pop.f):
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, src) for src in (a.x, a.f, b.x, b.f))

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

    @staticmethod
    def merge_oracle(a, b, n):
        """merge_dedupe as first written: one set of row bytes, row by row."""
        both = concat(a, b)
        seen: set[bytes] = set()
        keep: list[int] = []
        dropped: list[int] = []
        for i, row in enumerate(both.x):
            key = row.tobytes()
            if key in seen:
                dropped.append(i)
            else:
                seen.add(key)
                keep.append(i)
        return both.take(keep + dropped[:max(n - len(keep), 0)])

    def test_merge_matches_row_loop_oracle(self):
        # 0.0 beside -0.0, then rows without columns: all copies of the first
        cases = [(Population(np.array([[0.0, 1.0], [-0.0, 1.0]]), np.zeros((2, 2))),
                  Population(np.array([[0.0, 1.0]]), np.ones((1, 2)))),
                 (Population(np.zeros((3, 0)), np.arange(6.0).reshape(3, 2)),
                  Population(np.zeros((2, 0)), np.ones((2, 2))))]
        rng = np.random.default_rng(5)
        values = np.array([0.0, -0.0, 0.25, 1.0, np.nan, -np.inf])
        for _ in range(300):  # repeated rows, n below and above the unique count
            n_var = int(rng.integers(0, 5))
            sizes = rng.integers(0, 12, size=2)
            cases.append(tuple(Population(values[rng.integers(values.size, size=(size, n_var))],
                                          rng.random((size, 2))) for size in sizes))
        for a, b in cases:
            total = len(a) + len(b)
            for n in (0, 1, int(rng.integers(0, total + 3)), total + 2):
                got, want = merge_dedupe(a, b, n=n), self.merge_oracle(a, b, n)
                assert got.x.tobytes() == want.x.tobytes() and got.x.shape == want.x.shape
                assert got.f.tobytes() == want.f.tobytes()

    @staticmethod
    def first_copies_oracle(x, n):
        """Positions of the first copy of each row's bytes, then dropped copies."""
        keep, dropped, seen = [], [], set()
        for i, row in enumerate(x):
            (dropped if row.tobytes() in seen else keep).append(i)
            seen.add(row.tobytes())
        return keep + dropped[:max(n - len(keep), 0)]

    # the hash, a constant, and a hash of one bit: any function of the bytes
    HASHES = (row_hashes, lambda x: np.zeros(x.shape[0], dtype=np.uint64),
              lambda x: row_hashes(x) & np.uint64(1))

    def test_first_copies_with_true_and_forced_hash_collisions(self, monkeypatch):
        rng = np.random.default_rng(9)
        values = np.array([0.0, -0.0, 0.25, 1.0, -np.inf])
        for _ in range(200):
            rows, width = int(rng.integers(0, 15)), int(rng.integers(0, 4))
            x = values[rng.integers(values.size, size=(rows, width))]
            for n in (0, int(rng.integers(0, rows + 3))):
                want = self.first_copies_oracle(x, n)
                for hashes in self.HASHES:
                    monkeypatch.setattr(core, "row_hashes", hashes)
                    got = first_copies(x, n)
                    assert got.dtype == np.intp and got.tolist() == want

    def test_signed_zeros_hash_apart(self, monkeypatch):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0]])
        hashes = row_hashes(x)
        assert hashes[0] == hashes[2] != hashes[1]
        for patched in self.HASHES:  # and stay apart when their hashes collide
            monkeypatch.setattr(core, "row_hashes", patched)
            assert first_copies(x, 0).tolist() == [0, 1]

    def test_merge_when_every_hash_collides(self, monkeypatch):
        monkeypatch.setattr(core, "row_hashes", lambda x: np.zeros(x.shape[0], dtype=np.uint64))
        self.test_merge_matches_row_loop_oracle()

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
