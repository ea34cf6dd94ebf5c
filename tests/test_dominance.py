from enum import Enum

import numpy as np
import pytest

from temof import ConfigurationError, UsageError, pareto_mask, sort_fronts
from temof.dominance import domination_matrix, subset_fronts


class DominanceRelation(Enum):
    FIRST_DOMINATES = "first"
    SECOND_DOMINATES = "second"
    INCOMPARABLE = "incomparable"
    EQUAL = "equal"


def dominates(a, b) -> DominanceRelation:
    """Pairwise dominance between two objective vectors (the sorting oracle)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape:
        raise ConfigurationError(
            f"objective vectors must be 1-D and of equal length, got {a.shape} and {b.shape}")
    le = a <= b
    ge = a >= b
    if le.all() and ge.all():
        return DominanceRelation.EQUAL
    if le.all():
        return DominanceRelation.FIRST_DOMINATES
    if ge.all():
        return DominanceRelation.SECOND_DOMINATES
    return DominanceRelation.INCOMPARABLE


def peel_oracle(f):
    """Reference sorter: re-derive dominance pairwise at every peel."""
    f = np.asarray(f, dtype=float)
    remaining = list(range(len(f)))
    fronts = []
    while remaining:
        front = []
        for i in remaining:
            beaten = False
            for j in remaining:
                if j != i and dominates(f[j], f[i]) is DominanceRelation.FIRST_DOMINATES:
                    beaten = True
                    break
            if not beaten:
                front.append(i)
        fronts.append(np.array(front, dtype=int))
        gone = set(front)
        remaining = [i for i in remaining if i not in gone]
    return fronts


def domination_matrix_oracle(f):
    """domination_matrix as first written: reduce over the objective axis."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    le = (f[:, None, :] <= f[None, :, :]).all(axis=2)
    lt = (f[:, None, :] < f[None, :, :]).any(axis=2)
    return le & lt


def pareto_mask_oracle(f):
    """pareto_mask as first written: reduce over the objective axis per row."""
    f = np.atleast_2d(np.asarray(f, dtype=float))
    n = f.shape[0]
    alive = np.ones(n, dtype=bool)
    for i in range(n):
        if not alive[i]:
            continue
        worse = (f >= f[i]).all(axis=1) & (f > f[i]).any(axis=1)
        alive[worse] = False
    return alive


def tied_instances(seed):
    """Random objective matrices for M = 2..10 with duplicate rows and ties."""
    rng = np.random.default_rng(seed)
    for m in range(2, 11):
        for decimals in (1, 2, None):
            n = int(rng.integers(1, 60))
            f = rng.random((n, m))
            if decimals is not None:  # coarse grids tie many coordinates
                f = np.round(f, decimals)
            if n > 3:
                f[rng.integers(n, size=n // 3)] = f[rng.integers(n, size=n // 3)]
            yield f


# every kind of float the rank kernel must order exactly; -0.0 ties 0.0
SPECIAL_VALUES = np.array([-np.inf, -1e300, -1.0, -1e-300, -5e-324, -0.0, 0.0, 5e-324,
                           1e-310, 1e-300, 1.0, 1e300, np.inf])


def edge_instances():
    """(name, objective matrix) pairs at the edges of the rank kernel."""
    rng = np.random.default_rng(11)
    for n in (255, 256, 257):  # ranks switch from uint8 to uint16 above 256 rows
        for m in (2, 3):
            yield f"distinct-{n}x{m}", rng.random((n, m))  # ranks reach n - 1
            yield f"grid-{n}x{m}", np.round(rng.random((n, m)), 1)
    for n, m in ((86, 3), (129, 2)):  # rank sums reach m * (n - 1): 255 fits uint8, 256 not
        f = rng.random((n, m))
        f[rng.integers(n)] = 2.0  # last in every objective, so its sum is the largest
        yield f"ranksum-{n}x{m}", f
    for n in (1, 2, 7, 40):  # one objective: a total preorder
        yield f"grid-{n}x1", np.round(rng.random((n, 1)), 1)
    for m in (1, 2, 5):
        yield f"row-1x{m}", rng.random((1, m))
    f = np.round(rng.random((30, 3)), 1)
    yield "duplicates-60x3", f[rng.integers(30, size=60)]
    for n, m in ((3, 2), (40, 2), (60, 3), (257, 4)):
        yield f"special-{n}x{m}", rng.choice(SPECIAL_VALUES, size=(n, m))


EDGE_CASES = dict(edge_instances())


def assert_same_fronts(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.intp and np.array_equal(g, w)


def assert_cover_prefixes(f, want):
    """sort_fronts(f, cover) is the shortest prefix of want holding cover rows."""
    sizes = np.cumsum([w.size for w in want])
    for cover in range(1, len(f) + 2):
        k = min(int(np.searchsorted(sizes, cover)) + 1, len(want))
        assert_same_fronts(sort_fronts(f, cover=cover), want[:k])


class TestDominates:
    def test_strict(self):
        assert dominates([1, 1], [2, 2]) is DominanceRelation.FIRST_DOMINATES
        assert dominates([2, 2], [1, 1]) is DominanceRelation.SECOND_DOMINATES

    def test_weak_with_one_strict_component(self):
        assert dominates([1, 2], [1, 3]) is DominanceRelation.FIRST_DOMINATES

    def test_equal(self):
        assert dominates([1.5, 2.5], [1.5, 2.5]) is DominanceRelation.EQUAL

    def test_incomparable(self):
        assert dominates([1, 3], [2, 2]) is DominanceRelation.INCOMPARABLE

    def test_shape_mismatch(self):
        with pytest.raises(ConfigurationError):
            dominates([1, 2], [1, 2, 3])
        with pytest.raises(ConfigurationError):
            dominates([[1, 2]], [[1, 2]])


class TestSortFronts:
    def test_hand_case(self):
        f = [[1.0, 1.0], [2.0, 2.0], [1.5, 0.5], [3.0, 3.0]]
        fronts = sort_fronts(f)
        assert [list(fr) for fr in fronts] == [[0, 2], [1], [3]]

    def test_duplicates_share_a_front(self):
        fronts = sort_fronts([[1.0, 1.0], [1.0, 1.0], [2.0, 2.0]])
        assert [list(fr) for fr in fronts] == [[0, 1], [2]]

    def test_single_point(self):
        assert list(sort_fronts([[3.0, 4.0]])[0]) == [0]

    def test_all_incomparable(self):
        f = [[0.0, 3.0], [1.0, 2.0], [2.0, 1.0], [3.0, 0.0]]
        assert len(sort_fronts(f)) == 1

    def test_total_order_chain(self):
        f = [[3.0], [1.0], [2.0]]
        fronts = sort_fronts(np.column_stack([f, f]))
        assert [list(fr) for fr in fronts] == [[1], [2], [0]]

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            sort_fronts(np.empty((0, 2)))

    def test_partition_is_complete_and_disjoint(self):
        rng = np.random.default_rng(5)
        f = rng.random((40, 3))
        fronts = sort_fronts(f)
        joined = np.concatenate(fronts)
        assert sorted(joined) == list(range(40))

    def test_indices_ascending_within_front(self):
        rng = np.random.default_rng(6)
        f = rng.random((60, 3))
        for front in sort_fronts(f):
            assert np.array_equal(front, np.sort(front))

    def test_matches_peel_oracle_on_random_instances(self):
        rng = np.random.default_rng(42)
        for trial in range(30):
            n = int(rng.integers(1, 45))
            m = int(rng.integers(2, 6))
            f = rng.random((n, m))
            if n > 4 and trial % 2:  # inject duplicates and coordinate ties
                f[1] = f[0]
                f[3, 0] = f[2, 0]
            got = sort_fronts(f)
            want = peel_oracle(f)
            assert len(got) == len(want)
            for g, w in zip(got, want):
                assert np.array_equal(np.sort(g), np.sort(w))

    def test_cover_returns_a_prefix_of_the_full_sort(self):
        rng = np.random.default_rng(43)
        for trial in range(30):
            n = int(rng.integers(1, 45))
            f = np.round(rng.random((n, int(rng.integers(2, 6)))), 1)
            want = peel_oracle(f)
            for cover in range(1, n + 2):
                got = sort_fronts(f, cover=cover)
                k = next((i + 1 for i in range(len(want))
                          if sum(w.size for w in want[:i + 1]) >= cover), len(want))
                assert len(got) == k
                for g, w in zip(got, want):
                    assert np.array_equal(g, w)

    @pytest.mark.parametrize("case", EDGE_CASES)
    def test_matches_peel_oracle_at_kernel_edges(self, case):
        f = EDGE_CASES[case]
        want = peel_oracle(f)
        assert_same_fronts(sort_fronts(f), want)
        assert_cover_prefixes(f, want)

    def test_nan_rejected(self):
        with pytest.raises(UsageError, match="^sort_fronts: objective matrix holds NaN$"):
            sort_fronts([[0.0, 1.0], [np.nan, 0.0]])

    def test_infinities_and_signed_zeros(self):
        f = [[np.inf, 0.0], [-0.0, np.inf], [0.0, np.inf], [-np.inf, -np.inf], [np.inf, np.inf]]
        assert [list(fr) for fr in sort_fronts(f)] == [[3], [0, 1, 2], [4]]


class TestDominationMatrix:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, seed):
        for f in tied_instances(seed):
            assert np.array_equal(domination_matrix(f), domination_matrix_oracle(f))

    def test_single_row_and_single_objective(self):
        for f in ([[1.0, 2.0]], [[3.0], [1.0], [1.0]]):
            assert np.array_equal(domination_matrix(f), domination_matrix_oracle(f))

    def test_matches_oracle_at_kernel_edges(self):
        for f in EDGE_CASES.values():
            assert np.array_equal(domination_matrix(f), domination_matrix_oracle(f))

    def test_rank_sums_past_uint16(self):
        # 257 rows take uint16 ranks, and a row last in all 256 objectives sums
        # to 65 536; the rows form a chain of fronts about two rows wide
        rng = np.random.default_rng(13)
        f = np.arange(257.0)[:, None] + 2.0 * rng.random((257, 256))
        f[-1] = 1e3
        dom = domination_matrix(f)
        assert dom[:-1, -1].all()
        assert np.array_equal(dom, domination_matrix_oracle(f))


class TestSubsetFronts:
    """subset_fronts reads sort_fronts of a row subset off the full matrix."""

    @staticmethod
    def assert_matches_sort(f, rows):
        dom = domination_matrix(f)
        kept = dom.copy()
        sub = f[rows]
        for cover in [None, *range(1, rows.size + 1)]:
            assert_same_fronts(subset_fronts(dom, rows, cover), sort_fronts(sub, cover=cover))
        assert np.array_equal(dom, kept)  # the full matrix is left as it was

    @staticmethod
    def subsets(rng, n):
        """Random row subsets: without and with repeated rows, and every row."""
        yield rng.permutation(n)[:int(rng.integers(1, n + 1))]
        yield rng.integers(n, size=int(rng.integers(1, 2 * n + 1)))
        yield np.arange(n)

    @pytest.mark.parametrize("seed", range(2))
    def test_random_subsets(self, seed):
        rng = np.random.default_rng(seed)
        for f in tied_instances(seed):  # duplicate objective vectors and ties
            for rows in self.subsets(rng, len(f)):
                self.assert_matches_sort(f, rows)

    def test_infinities_and_signed_zeros(self):
        rng = np.random.default_rng(12)
        zeros = np.array([-0.0, 0.0, 1.0, -np.inf, np.inf])
        for n, m in ((2, 2), (9, 2), (40, 3), (60, 5)):
            for values in (SPECIAL_VALUES, zeros):
                f = rng.choice(values, size=(n, m))
                f[0, 0], f[-1, 0] = -0.0, 0.0
                for rows in self.subsets(rng, n):
                    self.assert_matches_sort(f, rows)


class TestParetoMask:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_oracle(self, seed):
        for f in tied_instances(seed):
            assert np.array_equal(pareto_mask(f), pareto_mask_oracle(f))

    def test_matches_first_front(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            f = rng.random((int(rng.integers(1, 80)), int(rng.integers(2, 5))))
            mask = pareto_mask(f)
            assert np.array_equal(np.flatnonzero(mask), sort_fronts(f)[0])

    def test_duplicates_kept(self):
        f = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 3.0]])
        assert list(pareto_mask(f)) == [True, True, False]
