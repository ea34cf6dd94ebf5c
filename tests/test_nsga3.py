import copy
import math

import numpy as np
import pytest

from temof import (ConfigurationError, FrameworkConfig, Nsga3Base, Population,
                   ReferencePointSet, UsageError, das_dennis, make_problem, nsga3,
                   nsga3_run, rng_stream, sort_fronts, temof_run)
from temof.nsga3 import (NormalizationState, WordStream, _fill, _niche_select, associate,
                         choose_divisions, environmental_selection, first_front_selection,
                         normalize, reference_points_for)


class TestDasDennis:
    def test_two_objective_four_divisions(self):
        pts = das_dennis(2, 4).points
        expected = [[0.0, 1.0], [0.25, 0.75], [0.5, 0.5], [0.75, 0.25], [1.0, 0.0]]
        assert np.allclose(pts, expected)

    def test_three_objective_twelve_divisions(self):
        refs = das_dennis(3, 12)
        assert len(refs) == 91
        assert np.all(np.abs(refs.points.sum(axis=1) - 1.0) <= 1e-9)
        assert (refs.points >= 0).all()

    def test_count_matches_binomial(self):
        for m in range(2, 6):
            for h in range(1, 7):
                assert len(das_dennis(m, h)) == math.comb(h + m - 1, m - 1)

    def test_rows_unique(self):
        pts = das_dennis(4, 6).points
        assert len(np.unique(pts, axis=0)) == len(pts)

    def test_lattice_coordinates(self):
        h = 5
        pts = das_dennis(3, h).points
        scaled = pts * h
        assert np.allclose(scaled, np.round(scaled), atol=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            das_dennis(1, 4)
        with pytest.raises(ConfigurationError):
            das_dennis(3, 0)
        with pytest.raises(ConfigurationError, match="limit"):
            das_dennis(7, 40)


class TestChooseDivisions:
    def test_largest_fitting_lattice(self):
        for m, cap in [(2, 100), (3, 92), (3, 100), (3, 91), (5, 210), (4, 120)]:
            h = choose_divisions(m, cap)
            assert math.comb(h + m - 1, m - 1) <= cap or h == 1
            assert math.comb(h + m, m - 1) > cap

    def test_reference_points_for(self):
        refs = reference_points_for(92, 3)
        assert len(refs) == 91
        refs = reference_points_for(100, 3)
        assert len(refs) == 91
        # cap below the minimal lattice still yields one division
        assert len(reference_points_for(2, 3)) == 3


def normalize_oracle(objs, state):
    """normalize as first written: the ASF max over the objective axis."""
    f = np.atleast_2d(np.asarray(objs, dtype=float))
    m = f.shape[1]
    ideal = f.min(axis=0)
    if state.ideal is not None:
        ideal = np.minimum(ideal, state.ideal)
    shifted = f - ideal
    weights = np.full((m, m), 1e-6)
    np.fill_diagonal(weights, 1.0)
    asf = (shifted[None, :, :] / weights[:, None, :]).max(axis=2)
    extremes = shifted[asf.argmin(axis=1)]
    intercepts = None
    try:
        plane = np.linalg.solve(extremes, np.ones(m))
        with np.errstate(divide="ignore", over="ignore"):
            candidate = 1.0 / plane
        if np.all(np.isfinite(candidate)) and np.all(candidate > 0):
            intercepts = candidate
    except np.linalg.LinAlgError:
        pass
    if intercepts is None:
        intercepts = shifted.max(axis=0)
    intercepts = np.maximum(intercepts, 1e-12)
    state.ideal = ideal
    return shifted / intercepts


class TestNormalize:
    def test_matches_oracle(self):
        rng = np.random.default_rng(12)
        for m in range(2, 11):
            for decimals in (1, None):
                state, oracle_state = NormalizationState(), NormalizationState()
                for _ in range(3):  # the running ideal carries over
                    f = rng.random((int(rng.integers(1, 40)), m)) * 10.0 ** rng.integers(-3, 4)
                    if decimals is not None:  # ties between scalarized values
                        f = np.round(f, decimals)
                    got = normalize(f, state)
                    assert np.array_equal(got, normalize_oracle(f, oracle_state))
                    assert np.array_equal(state.ideal, oracle_state.ideal)

    def test_hand_case_intercepts(self):
        state = NormalizationState()
        normalized = normalize(np.array([[1.0, 2.0], [3.0, 0.0]]), state)
        assert np.array_equal(state.ideal, [1.0, 0.0])
        # the extremes (0, 2) and (2, 0) span the plane with intercepts (2, 2)
        assert np.array_equal(normalized, [[0.0, 1.0], [1.0, 0.0]])

    def test_ideal_only_decreases(self):
        state = NormalizationState()
        normalize(np.array([[1.0, 2.0], [3.0, 0.0]]), state)
        normalize(np.array([[5.0, 5.0], [6.0, 4.0]]), state)
        assert np.allclose(state.ideal, [1.0, 0.0])
        normalize(np.array([[0.5, 5.0], [6.0, -1.0]]), state)
        assert np.allclose(state.ideal, [0.5, -1.0])

    def test_rank_deficient_falls_back_to_range(self):
        state = NormalizationState()
        objs = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        normalized = normalize(objs, state)
        # extremes coincide, so the scale is max - ideal = (2, 2)
        assert np.array_equal(normalized, [[0.0, 0.0], [0.5, 0.5], [1.0, 1.0]])

    def test_degenerate_set_floors_the_scale(self):
        normalized = normalize(np.array([[2.0, 2.0], [2.0, 2.0]]), NormalizationState())
        assert np.all(normalized == 0.0)
        # a range of 1e-13 on one axis and 0 on the other: both scales floor at 1e-12
        normalized = normalize(np.array([[0.0, 0.0], [1e-13, 0.0]]), NormalizationState())
        assert np.allclose(normalized, [[0.0, 0.0], [0.1, 0.0]], rtol=1e-12, atol=0)

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            normalize(np.empty((0, 3)), NormalizationState())

    def solves_over(self, sequence, monkeypatch):
        """Normalize each set in turn with one state, require the oracle's bytes,
        and return after how many calls the intercept system was solved."""
        solved, solve = [], nsga3._solve_intercepts

        def counted(extremes):
            solved.append(call)
            return solve(extremes)

        monkeypatch.setattr(nsga3, "_solve_intercepts", counted)
        state, oracle_state = NormalizationState(), NormalizationState()
        for call, f in enumerate(sequence, 1):
            f = np.array(f, dtype=float)
            got = normalize(f, state)
            want = normalize_oracle(f, oracle_state)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return solved

    def test_repeated_extremes_reuse_the_solve(self, monkeypatch):
        # the extremes (0, 2) and (2, 0) with other rows that change
        sequence = [[[0, 2], [2, 0], [1, 1]],
                    [[0, 2], [2, 0], [0.5, 0.5], [1.5, 0.25]],
                    [[2, 0], [0, 2]]]
        assert self.solves_over(sequence, monkeypatch) == [1]

    def test_repeated_singular_extremes_fall_back_to_the_current_rows(self, monkeypatch):
        # (0, 0) is the extreme of both axes; the range fallback changes each call
        sequence = [[[0, 0], [3, 1]], [[0, 0], [1, 5]], [[0, 0], [1e-13, 0]], [[0, 0], [1, 5]]]
        assert self.solves_over(sequence, monkeypatch) == [1]

    def test_repeated_negative_intercepts_fall_back_to_the_current_rows(self, monkeypatch):
        # the extremes (1, 0, 1), (0, 2, 0), (1, 1, 3) give intercepts (0.8, 2, -4)
        extremes = [[2, 1, 1], [1, 3, 0], [2, 2, 3]]
        sequence = [extremes + [[3, 2, 2]], extremes + [[5, 4, 6]], [[5, 4, 6]] + extremes]
        assert self.solves_over(sequence, monkeypatch) == [1]

    def test_a_moving_ideal_shifts_the_extremes(self, monkeypatch):
        # the rows (0, 2) and (2, 0) stay the extremes of base, but the third
        # call lowers the ideal to (-1, -1) and so moves them
        base = [[0, 2], [2, 0], [1, 1]]
        sequence = [base, base, [[-1, 5], [5, -1]], base, base]
        assert self.solves_over(sequence, monkeypatch) == [1, 3, 4]


def associate_oracle(normalized, refs):
    """associate as first written: the norm of an N x R x M residual tensor."""
    f = np.atleast_2d(np.asarray(normalized, dtype=float))
    w = refs.points
    unit = w / np.linalg.norm(w, axis=1, keepdims=True)
    proj = f @ unit.T
    residual = f[:, None, :] - proj[:, :, None] * unit[None, :, :]
    dist = np.linalg.norm(residual, axis=2)
    idx = dist.argmin(axis=1)
    return idx, dist[np.arange(f.shape[0]), idx]


class TestAssociate:
    # associate picks the largest squared projection, settles near-ties by the
    # oracle's own residuals, and takes each distance as the norm of one
    # contiguous M-long residual row, as the oracle does, so the bytes agree;
    # m spans numpy's sequential (< 8), pairwise and split (> 128) row sums
    @pytest.mark.parametrize("m", [*range(2, 18), 130, 260])
    def test_matches_oracle(self, m):
        rng = np.random.default_rng(m)
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            for n_refs in (1, int(rng.integers(2, 60))):
                refs = ReferencePointSet(rng.random((n_refs, m)))
                f = rng.random((int(rng.integers(1, 50)), m)) * scale
                f[rng.integers(f.shape[0], size=f.shape[0] // 3)] = f[0]  # duplicates
                signs = np.where(rng.random(f.shape) < 0.3, -1.0, 1.0)
                f = np.vstack([f, f * signs])  # and the same rows with mixed signs
                idx, dist = associate(f, refs)
                want_idx, want_dist = associate_oracle(f, refs)
                assert np.array_equal(idx, want_idx)
                assert np.array_equal(dist, want_dist)

    def test_matches_oracle_on_lattices(self):
        rng = np.random.default_rng(2)
        for m, h in [(3, 12), (5, 6), (8, 3), (10, 3)]:
            refs = das_dennis(m, h)
            f = np.vstack([rng.random((40, m)), 0.5 * refs.points[:10]])  # on-ray points tie
            idx, dist = associate(f, refs)
            want_idx, want_dist = associate_oracle(f, refs)
            assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)

    @pytest.mark.parametrize("m,h", [(2, 12), (3, 12), (5, 6), (8, 3), (10, 3), (130, 0), (260, 0)])
    def test_matches_oracle_on_near_ties(self, m, h):
        # bisectors of two directions have equal projections on both; a nudge
        # of 1 or 2 ulp leaves the two within rounding of each other, where the
        # largest rounded projection alone often disagrees with the oracle;
        # h = 0 stands for 20 random directions in place of a lattice
        rng = np.random.default_rng(m)
        refs = das_dennis(m, h) if h else ReferencePointSet(rng.random((20, m)))
        unit = refs.points / np.linalg.norm(refs.points, axis=1, keepdims=True)
        i, j = np.arange(len(unit) - 1), rng.permutation(len(unit) - 1) + 1
        mid = np.vstack([unit[i] + unit[i + 1], unit[i] + unit[j]])
        nudged = []
        for c in rng.choice(m, size=min(m, 3), replace=False):
            for k in (-2, -1, 1, 2):
                p = mid.copy()
                p[:, c] += k * np.spacing(p[:, c])
                nudged.append(p)
        f = np.vstack(nudged)
        idx, dist = associate(f, refs)
        want_idx, want_dist = associate_oracle(f, refs)
        assert np.array_equal(idx, want_idx) and np.array_equal(dist, want_dist)

    def test_negative_coordinates(self):
        refs = ReferencePointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        idx, dist = associate(np.array([[-1.0, 0.0]]), refs)
        assert idx[0] == 0 and dist[0] == 0.0

    def test_hand_case(self):
        refs = ReferencePointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        idx, dist = associate(np.array([[0.9, 0.1]]), refs)
        assert idx[0] == 0
        assert np.isclose(dist[0], 0.1)

    def test_tie_goes_to_lowest_index(self):
        refs = ReferencePointSet(np.array([[1.0, 0.0], [0.0, 1.0]]))
        idx, _ = associate(np.array([[0.5, 0.5]]), refs)
        assert idx[0] == 0

    def test_point_on_ray_has_zero_distance(self):
        refs = das_dennis(3, 4)
        pts = 0.7 * refs.points[5][None, :]
        idx, dist = associate(pts, refs)
        assert idx[0] == 5 and dist[0] < 1e-12

    def test_matches_direct_computation(self):
        rng = np.random.default_rng(9)
        refs = das_dennis(3, 6)
        pts = rng.random((25, 3))
        idx, dist = associate(pts, refs)
        unit = refs.points / np.linalg.norm(refs.points, axis=1, keepdims=True)
        for i, p in enumerate(pts):
            perp = [np.linalg.norm(p - (p @ w) * w) for w in unit]
            assert idx[i] == int(np.argmin(perp))
            assert np.isclose(dist[i], min(perp), atol=1e-10)

    def test_dimension_mismatch(self):
        refs = das_dennis(3, 2)
        with pytest.raises(UsageError):
            associate(np.zeros((2, 2)), refs)

    def test_unit_directions_computed_once_and_checked(self):
        refs = das_dennis(4, 3)
        want = refs.points / np.linalg.norm(refs.points, axis=1, keepdims=True)
        assert refs.unit.tobytes() == want.tobytes()
        with pytest.raises(ValueError):
            refs.unit[0, 0] = 2.0
        associate(np.random.default_rng(0).random((5, 4)), refs)
        assert refs.unit.tobytes() == want.tobytes()
        for bad in ([[0.0, 0.0], [1.0, 0.0]], [[np.nan, 1.0]], [[np.inf, 1.0]]):
            with pytest.raises(ConfigurationError, match="finite and nonzero"):
                ReferencePointSet(np.array(bad))


def _evaluated(f):
    f = np.asarray(f, dtype=float)
    return Population(np.zeros((len(f), 2)), f)


class TestEnvironmentalSelection:
    def test_small_population_passes_through(self):
        refs = das_dennis(2, 4)
        state = NormalizationState()
        pop = _evaluated([[1.0, 2.0], [2.0, 1.0]])
        out = environmental_selection(pop, 5, refs, state, WordStream(np.random.default_rng(0)))
        assert len(out) == 2
        assert state.ideal is not None  # state still advances

    def test_whole_fronts_kept_before_critical(self):
        rng = np.random.default_rng(33)
        f = rng.random((50, 3))
        pop = Population(np.zeros((50, 3)), f)
        refs = das_dennis(3, 5)
        out = environmental_selection(pop, 20, refs, NormalizationState(), WordStream(rng))
        assert len(out) == 20
        ranks_all = {tuple(row): r for r, front in enumerate(sort_fronts(f))
                     for row in f[front]}
        out_ranks = [ranks_all[tuple(row)] for row in out.objectives]
        # ranks are non-decreasing and all better fronts are fully included
        assert out_ranks == sorted(out_ranks)
        worst = max(out_ranks)
        for r, front in enumerate(sort_fronts(f)):
            if r < worst:
                assert sum(1 for x in out_ranks if x == r) == front.size

    def test_empty_niche_takes_closest_member(self):
        refs = das_dennis(2, 1)  # rays (0,1) and (1,0)
        pts = np.array([[0.8, 0.2], [0.75, 0.25], [0.2, 0.8], [0.18, 0.82]])
        pop = _evaluated(pts)
        for seed in range(5):  # RNG only affects the order niches are visited
            out = first_front_selection(pop, 2, refs, NormalizationState(),
                                        WordStream(np.random.default_rng(seed)))
            chosen = {tuple(row) for row in out.objectives}
            assert chosen == {(0.8, 0.2), (0.18, 0.82)}

    def test_selection_count_never_exceeds_n(self):
        rng = np.random.default_rng(4)
        pop = Population(np.zeros((37, 3)), rng.random((37, 3)))
        refs = das_dennis(3, 4)
        words = WordStream(rng)
        for n in (1, 5, 36, 37):
            out = environmental_selection(pop, n, refs, NormalizationState(), words)
            assert len(out) == min(n, 37)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        f = rng.random((60, 3))
        pop = Population(np.zeros((60, 3)), f)
        refs = das_dennis(3, 6)
        a = environmental_selection(pop, 25, refs, NormalizationState(),
                                    WordStream(np.random.default_rng(77)))
        b = environmental_selection(pop, 25, refs, NormalizationState(),
                                    WordStream(np.random.default_rng(77)))
        assert np.array_equal(a.f, b.f)


@pytest.mark.parametrize("select", [environmental_selection, first_front_selection])
def test_selection_size_checked_before_normalizing(select):
    state = NormalizationState()
    normalize(np.array([[1.0, 1.0], [2.0, 0.5]]), state)
    ideal = state.ideal.copy()
    pop = _evaluated([[0.0, 2.0], [2.0, 0.0], [3.0, 3.0]])  # below the running ideal
    with pytest.raises(UsageError, match="selection size must be >= 1, got 0"):
        select(pop, 0, das_dennis(2, 4), state, WordStream(np.random.default_rng(0)))
    assert np.array_equal(state.ideal, ideal)



def test_fronts_that_fit_lower_the_ideal_as_normalize_does():
    rng = np.random.default_rng(26)
    mixed = 0
    for trial in range(300):
        size, m = int(rng.integers(1, 30)), int(rng.integers(2, 6))
        # columns that mix 0.0 and -0.0, where the sign of a zero minimum
        # depends on how it is taken
        if trial % 2:
            f = rng.choice([0.0, -0.0, 1.0, 2.0], size=(size, m))
        else:
            f = rng.random((size, m))
        mixed += bool(trial % 2 and (np.signbit(f) & (f == 0)).any())
        pop = Population(np.arange(2.0 * size).reshape(size, 2), f)
        state, state2 = NormalizationState(), NormalizationState()
        if trial % 3:  # start from an earlier ideal point, zeros of either sign too
            start = rng.choice([0.0, -0.0, 0.5], size=(2, m))
            normalize(start, state)
            normalize(start, state2)
        fronts = sort_fronts(f)
        members = np.concatenate(fronts)
        words = WordStream(np.random.default_rng(trial))
        out = _fill(pop, fronts, size + int(rng.integers(0, 3)), das_dennis(m, 2), state, words)
        assert words.pos == 0 and words.words == []  # nothing niched, no word read
        normalize(f[members], state2)
        assert state.ideal.tobytes() == state2.ideal.tobytes()
        assert out.x.tobytes() == pop.x[members].tobytes()
        assert out.f.tobytes() == f[members].tobytes()
    assert mixed > 100


def niche_select_oracle(rho, crit_assoc, crit_dist, k, rng):
    """_niche_select as first written: rescan the lowest level on every pick."""
    n_refs = rho.shape[0]
    # per reference: critical members ordered by distance, nearest first
    members: list[list[int]] = [[] for _ in range(n_refs)]
    by_dist = np.argsort(crit_dist, kind="stable")
    for i in by_dist:
        members[crit_assoc[i]].append(int(i))
    rho = rho.astype(float).copy()
    picked: list[int] = []
    while len(picked) < k:
        low = rho.min()
        if not np.isfinite(low):
            raise UsageError("niching ran out of candidates before filling the slots")
        ties = np.flatnonzero(rho == low)
        j = int(ties[rng.integers(ties.size)])
        bucket = members[j]
        if not bucket:
            rho[j] = np.inf  # niche exhausted, never revisit
            continue
        if rho[j] == 0:
            i = bucket.pop(0)  # nearest member of an empty niche
        else:
            i = bucket.pop(int(rng.integers(len(bucket))))
        picked.append(i)
        rho[j] += 1.0
    return picked


def _zero_word_first(rng):
    """Make the next 32-bit output of a PCG64 generator the word 0.

    Lemire's rule rejects 0 for every r that is not a power of two, so the
    first draw below such an r reads a second word.
    """
    state = rng.bit_generator.state
    state["has_uint32"], state["uinteger"] = 1, 0
    rng.bit_generator.state = state
    return rng


class _Counted(np.random.Generator):
    """A PCG64 generator that counts the 32-bit words its bulk draws return."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.drawn = 0

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if size is not None:  # a bulk draw of words
            assert (low, high, dtype) == (0, 1 << 32, np.uint32)
            self.drawn += size
        return super().integers(low, high, size=size, dtype=dtype, endpoint=endpoint)


class _PlantedWords(_Counted):
    """A counted PCG64 generator whose next 32-bit words are `planted`, then its own.

    Bulk uint32 draws and scalar integers(r), by Lemire's rule, read the same
    words.  Its state counts the planted words read.
    """

    def __init__(self, seed, planted):
        super().__init__(seed)
        self.planted, self.read = list(planted), 0

    @property
    def bit_generator(self):
        return self  # callers only read .state

    @property
    def state(self):
        return {"read": self.read, "pcg64": super().bit_generator.state}

    def _words(self, n):
        take = self.planted[self.read:self.read + n]
        self.read += len(take)
        own = np.random.Generator.integers(self, 0, 1 << 32, size=n - len(take),
                                           dtype=np.uint32)
        return take + own.tolist()

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        if size is not None:  # a bulk draw of words
            assert (low, high, dtype) == (0, 1 << 32, np.uint32)
            self.drawn += size
            return np.array(self._words(size), dtype=np.uint32)
        r = low
        while r > 1:
            m = self._words(1)[0] * r
            if m % (1 << 32) >= ((1 << 32) - r) % r:
                return m >> 32
        return 0


def _words_read(stream):
    """The words that readers of the stream took from its counted generator."""
    return stream.rng.drawn - (len(stream.words) - stream.pos)


def _read_as(make, stream, oracle_rng):
    """Whether the stream read the oracle's words: a fresh make() advanced by
    as many 32-bit draws as the stream read ends in the oracle's state, PCG64's
    buffered 32-bit half included, which the next random() would not read."""
    fresh = make()
    fresh.integers(0, 1 << 32, size=_words_read(stream), dtype=np.uint32)
    return fresh.bit_generator.state == oracle_rng.bit_generator.state


@pytest.fixture
def small_blocks(monkeypatch):
    """WordStream draws 3 words at a time, or what one reserve asks for."""
    monkeypatch.setattr(WordStream, "BLOCK", 3)


class TestNicheSelect:
    @staticmethod
    def generators(seed, zero_word=False, planted=()):
        """make() for a counted generator and an oracle generator made by it."""
        def make():
            if planted:
                return _PlantedWords(seed, planted)
            rng = _Counted(seed)
            return _zero_word_first(rng) if zero_word else rng
        return make, make()

    @classmethod
    def check(cls, rho, assoc, dist, k, seed=0, *, zero_word=False, planted=()):
        make, oracle_rng = cls.generators(seed, zero_word, planted)
        stream = WordStream(make())
        got = cls.step(stream, oracle_rng, rho, assoc, dist, k)
        assert _read_as(make, stream, oracle_rng)
        return got

    @staticmethod
    def step(stream, oracle_rng, rho, assoc, dist, k):
        """One call on the stream and on the oracle: the same picks, ascending,
        or both run out (None), the stream before it reads a word."""
        rho = np.asarray(rho, dtype=float)
        assoc, dist = np.asarray(assoc), np.asarray(dist, dtype=float)
        before = _words_read(stream)
        try:
            got = _niche_select(rho.copy(), assoc, dist, k, stream)
        except UsageError:
            assert _words_read(stream) == before
            with pytest.raises(UsageError, match="ran out"):  # whatever its draws
                niche_select_oracle(rho.copy(), assoc, dist, k, np.random.default_rng())
            return None
        assert got == sorted(niche_select_oracle(rho.copy(), assoc, dist, k, oracle_rng))
        return got

    @staticmethod
    def random_instance(rng, short=False):
        n_refs = int(rng.integers(1, 30))
        size = int(rng.integers(1, 40))
        assoc = rng.integers(n_refs, size=size)
        dist = np.round(rng.random(size), 1)  # tied distances keep stable order
        rho = rng.integers(0, 4, size=n_refs) * rng.integers(0, 2, size=n_refs)
        k = int(rng.integers(size + 1, size + 4) if short else rng.integers(1, size + 1))
        return rho, assoc, dist, k

    def test_zero_counts_and_memberless_niches(self):
        # ten empty niches, only 0, 2 and 4 have members: the rest drop out
        assoc = [0, 2, 4, 0, 2, 4, 0, 2]
        dist = [0.5, 0.1, 0.3, 0.2, 0.1, 0.9, 0.7, 0.4]
        nearest = {3, 1, 2}  # of niches 0, 2 and 4
        for seed in range(10):
            for k in (1, 3, 5, 8):
                got = set(self.check(np.zeros(10), assoc, dist, k, seed))
                assert nearest <= got if k >= 3 else got <= nearest

    @staticmethod
    def filled(n_refs, filled, size, rng):
        """A critical front of `size` spread over the first `filled` of n_refs niches."""
        assoc = np.concatenate([np.arange(filled), rng.integers(filled, size=size - filled)])
        return assoc, rng.random(size)

    def test_first_level_settles(self):
        rng = np.random.default_rng(15)
        for seed in range(40):  # fewer filled zero-count niches than slots
            assoc, dist = self.filled(12, 5, 20, rng)
            k = int(rng.integers(6, 21))
            got = self.check(np.zeros(12), assoc, dist, k, seed)
            nearest = {int(np.flatnonzero(assoc == j)[np.argmin(dist[assoc == j])])
                       for j in range(5)}
            assert nearest <= set(got)

    def test_first_level_that_fills_the_slots(self):
        rng = np.random.default_rng(16)
        for seed in range(40):  # as many filled zero-count niches as slots, or more
            filled = int(rng.integers(2, 12))
            assoc, dist = self.filled(12, filled, 20, rng)
            self.check(np.zeros(12), assoc, dist, filled - seed % 2, seed)

    def test_one_zero_count_niche(self):
        rng = np.random.default_rng(17)
        for seed in range(20):
            assoc, dist = self.filled(6, int(rng.integers(1, 7)), 15, rng)
            rho = np.array([1, 2, 0, 1, 3, 2]) if seed % 2 else np.array([2, 1, 0, 1, 1, 2])
            self.check(rho, assoc, dist, int(rng.integers(1, 16)), seed)

    def test_first_level_below_counts_above_zero(self):
        rng = np.random.default_rng(18)
        for seed in range(40):  # the lifted niches merge with those starting at 1
            rho = rng.integers(0, 3, size=15) * (rng.random(15) < 0.5)
            assoc, dist = self.filled(15, int(rng.integers(1, 16)), 30, rng)
            self.check(rho, assoc, dist, int(rng.integers(1, 31)), seed)

    def test_words_run_out_in_the_first_level(self, small_blocks):
        rng = np.random.default_rng(19)
        for seed in range(40):  # each draw holds what the level asks for, no more
            assoc, dist = self.filled(12, 6, 20, rng)
            self.check(np.zeros(12), assoc, dist, int(rng.integers(7, 21)), seed)

    def test_rejected_word_past_the_first(self):
        rng = np.random.default_rng(20)
        ties = 12
        for p in range(1, ties - 1):
            r = ties - p  # the range of the draw that reads word p
            if r & (r - 1) == 0:
                continue  # a power of two rejects no word
            threshold = (1 << 32) % r
            rejected = [0]
            if r % 2:  # also a word below r that Lemire's rule accepts
                rejected.append(threshold * pow(r, -1, 1 << 32) % (1 << 32))
            for word in rejected:
                for seed in range(5):
                    planted = rng.integers(0, 1 << 32, size=p).tolist() + [word]
                    assoc, dist = self.filled(ties, 5, 20, rng)
                    self.check(np.zeros(ties), assoc, dist, int(rng.integers(6, 21)), seed,
                               planted=planted)

    def test_rejected_word_after_a_refill(self, small_blocks):
        # words read before the call make its first level's refill drop them,
        # and the bulk check must still find the rejected word
        rng = np.random.default_rng(27)
        ties = 12
        for before in range(1, 6):
            for p in (1, 5, 9):  # the word read below r = 11, 7 and 3
                planted = rng.integers(0, 1 << 32, size=before + p).tolist() + [0]
                make, oracle_rng = self.generators(before, planted=planted)
                stream = WordStream(make())
                stream.reserve(before)
                stream.pos += before
                oracle_rng.integers(0, 1 << 32, size=before, dtype=np.uint32)
                assoc, dist = self.filled(ties, 5, 20, rng)
                self.step(stream, oracle_rng, np.zeros(ties), assoc, dist,
                          int(rng.integers(6, 21)))
                assert _read_as(make, stream, oracle_rng)

    def test_rejections_run_the_words_out(self, small_blocks):
        rng = np.random.default_rng(22)
        for zeros in range(1, 40):  # rejected words from the first on, past each draw
            planted = [0] * zeros + rng.integers(0, 1 << 32, size=5).tolist()
            rho = np.array([1, 1, 1, 2]) if zeros % 2 else np.zeros(4)
            assoc, dist = self.filled(4, 3, 12, rng)
            self.check(rho, assoc, dist, int(rng.integers(4, 13)), zeros, planted=planted)

    def test_real_sized_first_levels(self):
        rng = np.random.default_rng(21)
        for seed in range(200):  # every count 0, k = n, a critical front of 1.05-1.7 n
            n_refs = int(rng.integers(91, 127))
            n = int(rng.integers(n_refs, 127))
            size = int(n * rng.uniform(1.05, 1.7))
            assoc, dist = self.filled(n_refs, int(rng.integers(n_refs // 4, n_refs + 1)),
                                      size, rng)
            self.check(np.zeros(n_refs, dtype=int), assoc, dist, n, seed)

    def test_tie_levels_of_one(self):
        for seed in range(10):  # distinct counts: the first levels hold one reference each
            self.check(np.arange(6), [0, 1, 2, 3, 4, 5] * 3,
                       np.linspace(1.0, 0.1, 18), 12, seed)

    def test_whole_critical_front(self):
        rng = np.random.default_rng(3)
        for seed in range(10):
            assoc = rng.integers(7, size=15)
            got = self.check(rng.integers(0, 3, size=7), assoc, rng.random(15), 15, seed)
            assert sorted(got) == list(range(15))

    def test_random_instances(self):
        rng = np.random.default_rng(11)
        for seed in range(200):
            self.check(*self.random_instance(rng), seed)

    def test_rejected_word_is_skipped(self):
        assert _zero_word_first(np.random.default_rng(0)).integers(0, 1 << 32,
                                                                   dtype=np.uint32) == 0
        rng = np.random.default_rng(12)
        for seed in range(50):
            # three references at the lowest count: the first draw is below 3
            rho = np.array([0, 0, 0, 1, 2])
            assoc = rng.integers(5, size=int(rng.integers(3, 20)))
            assoc[:3] = [0, 1, 2]
            dist = rng.random(assoc.size)
            self.check(rho, assoc, dist, int(rng.integers(1, assoc.size + 1)), seed,
                       zero_word=True)
        for seed in range(50):
            self.check(*self.random_instance(rng), seed, zero_word=True)

    def test_words_refill_when_used_up(self, small_blocks):
        rng = np.random.default_rng(13)
        for seed in range(50):
            self.check(*self.random_instance(rng), seed, zero_word=bool(seed % 2))

    def test_too_few_candidates(self):
        make, oracle_rng = self.generators(0)
        stream = WordStream(make())
        assert self.step(stream, oracle_rng, np.zeros(3), [0, 1], [0.1, 0.2], 3) is None
        assert stream.rng.drawn == 0  # raised before reserving a word

    def test_more_slots_than_candidates_read_no_word(self):
        rng = np.random.default_rng(14)
        for seed in range(50):  # more slots than candidates: every case runs out
            instance = self.random_instance(rng, short=True)
            assert self.check(*instance, seed) is None
            assert self.check(*instance, seed, zero_word=True) is None

    @staticmethod
    def calls(rng, count):
        """count random instances, the odd ones with more slots than candidates."""
        return [TestNicheSelect.random_instance(rng, short=bool(i % 2)) for i in range(count)]

    def test_a_raising_call_leaves_the_shared_stream_unread(self, small_blocks):
        rng = np.random.default_rng(23)
        raised = 0
        for seed in range(30):  # the calls of a run share one stream, read on past a raise
            make, oracle_rng = self.generators(seed, zero_word=bool(seed % 2))
            stream = WordStream(make())
            for instance in self.calls(rng, 6):
                if self.step(stream, oracle_rng, *instance) is None:
                    raised += 1
                assert _read_as(make, stream, oracle_rng)
        assert raised > 0

    def test_a_level_reads_words_of_two_draws(self, small_blocks, monkeypatch):
        held = []  # unread words at each draw: a call's words straddle two draws
        reserve = WordStream.reserve

        def spy(stream, count):
            if len(stream.words) - stream.pos < count:
                held.append(len(stream.words) - stream.pos)
            reserve(stream, count)

        monkeypatch.setattr(WordStream, "reserve", spy)
        rng = np.random.default_rng(24)
        for seed in range(30):
            make, oracle_rng = self.generators(seed)
            stream = WordStream(make())
            for instance in self.calls(rng, 4):
                self.step(stream, oracle_rng, *instance)
            assert _read_as(make, stream, oracle_rng)
        assert any(held)

    def test_a_rejection_refills_the_stream(self, small_blocks, monkeypatch):
        refilled = []  # whether an _accepted call drew from the generator
        accepted = nsga3._accepted

        def spy(m, r, stream, used, need):
            drawn = stream.rng.drawn
            out = accepted(m, r, stream, used, need)
            refilled.append(stream.rng.drawn > drawn)
            return out

        monkeypatch.setattr(nsga3, "_accepted", spy)
        rng = np.random.default_rng(25)
        for zeros in range(1, 12):  # each word 0 is rejected below 3 and 5
            for seed in range(5):
                planted = rng.integers(0, 1 << 32, size=seed).tolist() + [0] * zeros
                assoc, dist = self.filled(5, 4, 15, rng)
                rho = np.array([0, 0, 0, 1, 1]) if seed % 2 else np.zeros(5)
                self.check(rho, assoc, dist, int(rng.integers(3, 16)), seed, planted=planted)
        assert any(refilled) and not all(refilled)

    def test_a_call_without_a_rejection_reserves_once(self, monkeypatch):
        reserved = []  # the counts one call reserves
        reserve = WordStream.reserve

        def spy(stream, count):
            reserved.append(count)
            reserve(stream, count)

        def exact_test(*args):
            raise AssertionError("these draws take no exact test")

        monkeypatch.setattr(WordStream, "reserve", spy)
        monkeypatch.setattr(nsga3, "_accepted", exact_test)
        rng = np.random.default_rng(26)
        # distinct counts: a level per pick, then random instances of one or more levels
        instances = [(np.arange(6), [0, 1, 2, 3, 4, 5] * 3, np.linspace(1.0, 0.1, 18), 12)]
        instances += [self.random_instance(rng) for _ in range(50)]
        for seed, (rho, assoc, dist, k) in enumerate(instances):
            reserved.clear()
            self.check(rho, assoc, dist, k, seed)
            assert reserved == [2 * (k + len(rho))]


def lemire_replay(stream, ranges):
    """rng.integers(r) for each r, by Lemire's rule on the stream's 32-bit words.

    m = word * r is accepted when m % 2**32 >= (2**32 - r) % r, and the draw
    is m >> 32; r == 1 reads no word.  The stream's position stays at the
    words used, also when `ranges` raises.  This is the rule _niche_select
    applies inline.
    """
    draws = []
    for r in ranges:
        if r == 1:
            draws.append(0)
            continue
        while True:
            stream.reserve(1)
            m = stream.words[stream.pos] * r
            stream.pos += 1
            if m % (1 << 32) >= (2**32 - r) % r:
                draws.append(m >> 32)
                break
    return draws


def _scalar_and_replayed(make, ranges, block):
    """Whether lemire_replay on a stream of make() that draws `block` words at a
    time gives make()'s scalar integers(r) draws and reads their words."""
    scalar_rng = make()
    scalar = [int(scalar_rng.integers(r)) for r in ranges]
    stream = _stream(make(), block)
    return lemire_replay(stream, ranges) == scalar and _read_as(make, stream, scalar_rng)


def _stream(rng, block):
    return type("Stream", (WordStream,), {"__slots__": (), "BLOCK": block})(rng)


class TestBoundedDrawsMatchNumpy:
    """The numpy facts the niching draws rest on, checked by name.

    Generator.integers(r) for 1 < r < 2**32 applies Lemire's rule to the next
    32-bit output, integers(0, 2**32, dtype=uint32) returns those outputs,
    bulk draws continue one another, so a stream of them reads the words
    the scalar calls read, and integers(1) reads nothing.  A numpy that
    changes any of these fails here.
    """

    @pytest.mark.parametrize("half_word", [0, 1])
    @pytest.mark.parametrize("ranges", [
        range(1, 5001),
        [2**31 + d for d in range(-40, 41)] + [2**32 - 1, 3 * 2**30],  # rejections likely
    ], ids=["1-5000", "near-2^31"])
    def test_integers_follow_lemire_on_uint32_words(self, ranges, half_word):
        for seed in range(3):
            def make():
                rng = _Counted(seed)
                if half_word:  # start with PCG64's buffered 32-bit half pending
                    np.random.Generator.integers(rng, 0, 1 << 32, dtype=np.uint32)
                return rng
            assert make().bit_generator.state["has_uint32"] == half_word
            assert _scalar_and_replayed(make, list(ranges), 2 * len(ranges))

    def test_integers_of_one_reads_no_state(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == before

    def test_buffer_refills_when_used_up(self):
        ranges = [7, 1, 3**19, 2, 2**31 + 1] * 40
        for block in (1, 2, 50):
            assert _scalar_and_replayed(lambda: _Counted(9), ranges, block)

    def test_state_settles_when_the_block_raises(self):
        def ranges():
            yield from (5, 2**31 + 3)
            raise KeyError

        stream, scalar_rng = _stream(_Counted(6), 100), np.random.default_rng(6)
        with pytest.raises(KeyError):
            lemire_replay(stream, ranges())
        for r in (5, 2**31 + 3):
            scalar_rng.integers(r)
        assert _read_as(lambda: _Counted(6), stream, scalar_rng)


class TestFirstFrontSelection:
    def test_keeps_only_first_front(self):
        pop = _evaluated([[1.0, 1.0], [0.5, 2.0], [2.0, 2.0], [3.0, 0.1]])
        out = first_front_selection(pop, 10, das_dennis(2, 3),
                                    NormalizationState(), WordStream(np.random.default_rng(0)))
        assert len(out) == 3  # (2,2) is dominated, the rest are front 0
        assert {tuple(r) for r in out.objectives} == {(1.0, 1.0), (0.5, 2.0), (3.0, 0.1)}

    def test_truncates_large_front_to_n(self):
        rng = np.random.default_rng(3)
        theta = rng.random(40) * np.pi / 2
        f = np.column_stack([np.cos(theta), np.sin(theta)])
        out = first_front_selection(Population(np.zeros((40, 2)), f), 12,
                                    das_dennis(2, 11), NormalizationState(), WordStream(rng))
        assert len(out) == 12

    def test_result_mutually_nondominated(self):
        rng = np.random.default_rng(8)
        f = rng.random((50, 3))
        out = first_front_selection(Population(np.zeros((50, 3)), f), 20,
                                    das_dennis(3, 4), NormalizationState(), WordStream(rng))
        assert len(sort_fronts(out.objectives)) == 1

    @pytest.mark.parametrize("n", [30, 8])  # first front of 20: smaller, then larger
    def test_equals_environmental_selection_of_first_front(self, n):
        rng = np.random.default_rng(21)
        theta = rng.random(20) * np.pi / 2
        front = np.column_stack([np.cos(theta), np.sin(theta)])
        f = np.vstack([front * 1.5, front])  # the second half is the first front
        pop = Population(np.arange(80, dtype=float).reshape(40, 2), f)
        refs = das_dennis(2, 5)
        state = NormalizationState()
        normalize(np.array([[0.2, 1.4], [1.3, 0.3]]), state)
        words, words2 = WordStream(_Counted(5)), WordStream(_Counted(5))
        state2 = copy.deepcopy(state)
        out = first_front_selection(pop, n, refs, state, words)
        first = pop.take(sort_fronts(pop.f)[0])
        expected = environmental_selection(first, n, refs, state2, words2)
        assert len(out) == min(n, 20)
        assert np.array_equal(out.x, expected.x) and np.array_equal(out.f, expected.f)
        assert np.array_equal(state.ideal, state2.ideal)
        assert _words_read(words) == _words_read(words2)


def _fill_oracle(pop, selected, critical, n, refs, state, rng):
    """_fill with separate selected and critical index arrays, as first written,
    niching with the scalar-draw oracle."""
    if critical is None:
        normalize(pop.f[selected], state)
        return pop.take(selected)
    normalized = normalize(pop.f[np.concatenate([selected, critical])], state)
    assoc, dist = associate(normalized, refs)
    k = selected.size
    rho = np.bincount(assoc[:k], minlength=len(refs))
    picks = niche_select_oracle(rho, assoc[k:], dist[k:], n - k, rng)
    chosen = critical[np.sort(np.asarray(picks, dtype=int))]
    return pop.take(np.concatenate([selected, chosen]))


def environmental_selection_oracle(pop, n, refs, state, rng):
    if n < 1:
        raise UsageError(f"selection size must be >= 1, got {n}")
    selected, critical = np.arange(len(pop)), None
    if len(pop) > n:
        fronts = sort_fronts(pop.f, cover=n)
        selected = np.concatenate(fronts)
        if selected.size > n:  # the last front does not fit: niche it
            critical = fronts[-1]
            selected = selected[:selected.size - critical.size]
    return _fill_oracle(pop, selected, critical, n, refs, state, rng)


def first_front_selection_oracle(pop, n, refs, state, rng):
    if n < 1:
        raise UsageError(f"selection size must be >= 1, got {n}")
    first = sort_fronts(pop.f, cover=1)[0]
    if first.size <= n:
        return _fill_oracle(pop, first, None, n, refs, state, rng)
    return _fill_oracle(pop, np.empty(0, dtype=int), first, n, refs, state, rng)


class TestSelectionMatchesOracle:
    """Both selections against the two-body versions they replaced."""

    @staticmethod
    def sizes(pop):
        """n below, at and above the first front, at the first two fronts and at len(pop)."""
        fronts = sort_fronts(pop.f)
        first = fronts[0].size
        sizes = {first, first + 1, len(pop), len(pop) + 3}
        if first > 1:
            sizes.add(first - 1)
        if len(fronts) > 1:
            sizes.add(first + fronts[1].size)
        return sorted(sizes)

    @pytest.mark.parametrize("select, oracle", [
        (environmental_selection, environmental_selection_oracle),
        (first_front_selection, first_front_selection_oracle)])
    def test_random_populations(self, select, oracle):
        rng = np.random.default_rng(2024)
        for trial in range(40):
            m = int(rng.choice([2, 3, 5]))
            size = int(rng.integers(2, 60))
            f = np.round(rng.random((size, m)), int(rng.integers(1, 4)))  # ties too
            pop = Population(np.arange(2.0 * size).reshape(size, 2), f)
            refs = das_dennis(m, int(rng.integers(1, 6)))
            state = NormalizationState()
            if trial % 2:  # start some runs from an earlier ideal point
                normalize(rng.random((3, m)), state)
            state2 = copy.deepcopy(state)
            words, rng2 = WordStream(_Counted(trial)), np.random.default_rng(trial)
            for n in self.sizes(pop):  # one running state and stream across the calls
                got = select(pop, n, refs, state, words)
                expected = oracle(pop, n, refs, state2, rng2)
                assert np.array_equal(got.x, expected.x) and np.array_equal(got.f, expected.f)
                assert np.array_equal(state.ideal, state2.ideal)
            assert _read_as(lambda: _Counted(trial), words, rng2)


class TestNsga3Base:
    def test_reference_count_within_population_size(self):
        problem = make_problem("DTLZ2")
        base = Nsga3Base(problem, 100, rng_stream(0, 0, "selection"))
        assert len(base.refs) == 91

    def test_population_below_objectives_rejected(self):
        problem = make_problem("DTLZ2", n_obj=5, n_var=9)
        with pytest.raises(ConfigurationError):
            Nsga3Base(problem, 3, rng_stream(0, 0, "selection"))


class TestNsga3Run:
    def test_budget_accounting(self):
        problem = make_problem("ZDT1", n_var=6)
        pop, fes = nsga3_run(problem, 20, 100, 0)
        # init 20, then offspring batches of 20 while fes <= 100
        assert fes == 120
        assert len(pop) == 20

    def test_budget_below_population_rejected(self):
        with pytest.raises(ConfigurationError):
            nsga3_run(make_problem("ZDT1"), 50, 40, 0)

    def test_deterministic_for_seed(self):
        problem = make_problem("DTLZ2", n_var=7)
        a, _ = nsga3_run(problem, 12, 300, 5)
        b, _ = nsga3_run(problem, 12, 300, 5)
        assert np.array_equal(a.x, b.x)
        c, _ = nsga3_run(problem, 12, 300, 6)
        assert not np.array_equal(a.x, c.x)

    def test_observer_sees_every_generation(self):
        problem = make_problem("ZDT1", n_var=5)
        seen = []
        temof_run(problem, FrameworkConfig(n=10, max_fes=50), 0, disable_archive=True,
                  observer=lambda gen, fes, src, pop, arch: seen.append((gen, fes, len(pop))))
        assert [g for g, _, _ in seen] == list(range(1, len(seen) + 1))
        assert all(size == 10 for _, _, size in seen)
        assert seen[-1][1] == 60
