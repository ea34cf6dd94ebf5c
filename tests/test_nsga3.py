import copy
import math

import numpy as np
import pytest

from temof import (ConfigurationError, FrameworkConfig, NormalizationState, Nsga3Base,
                   Population, ReferencePointSet, UsageError, associate, das_dennis,
                   environmental_selection, first_front_selection, make_problem,
                   normalize, nsga3_run, reference_points_for, rng_stream,
                   sort_fronts, temof_run)
from temof.nsga3 import _BoundedDraws, _niche_select, choose_divisions


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
    # numpy sums up to 7 values in sequence and 8 or more pairwise, and splits
    # runs above 128; associate reproduces each order, so results are identical
    @pytest.mark.parametrize("m", [*range(2, 18), 130, 260])
    def test_matches_oracle(self, m):
        rng = np.random.default_rng(m)
        for scale in (1e-3, 1e-1, 1.0, 1e1, 1e3):
            for n_refs in (1, int(rng.integers(2, 60))):
                refs = ReferencePointSet(rng.random((n_refs, m)))
                f = rng.random((int(rng.integers(1, 50)), m)) * scale
                f[rng.integers(f.shape[0], size=f.shape[0] // 3)] = f[0]  # duplicates
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


def _evaluated(f):
    f = np.asarray(f, dtype=float)
    return Population(np.zeros((len(f), 2)), f)


class TestEnvironmentalSelection:
    def test_small_population_passes_through(self):
        refs = das_dennis(2, 4)
        state = NormalizationState()
        pop = _evaluated([[1.0, 2.0], [2.0, 1.0]])
        out = environmental_selection(pop, 5, refs, state, np.random.default_rng(0))
        assert len(out) == 2
        assert state.ideal is not None  # state still advances

    def test_whole_fronts_kept_before_critical(self):
        rng = np.random.default_rng(33)
        f = rng.random((50, 3))
        pop = Population(np.zeros((50, 3)), f)
        refs = das_dennis(3, 5)
        out = environmental_selection(pop, 20, refs, NormalizationState(), rng)
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
                                        np.random.default_rng(seed))
            chosen = {tuple(row) for row in out.objectives}
            assert chosen == {(0.8, 0.2), (0.18, 0.82)}

    def test_selection_count_never_exceeds_n(self):
        rng = np.random.default_rng(4)
        pop = Population(np.zeros((37, 3)), rng.random((37, 3)))
        refs = das_dennis(3, 4)
        for n in (1, 5, 36, 37):
            out = environmental_selection(pop, n, refs, NormalizationState(), rng)
            assert len(out) == min(n, 37)

    def test_determinism(self):
        rng = np.random.default_rng(10)
        f = rng.random((60, 3))
        pop = Population(np.zeros((60, 3)), f)
        refs = das_dennis(3, 6)
        a = environmental_selection(pop, 25, refs, NormalizationState(),
                                    np.random.default_rng(77))
        b = environmental_selection(pop, 25, refs, NormalizationState(),
                                    np.random.default_rng(77))
        assert np.array_equal(a.f, b.f)


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


class TestNicheSelect:
    @staticmethod
    def check(rho, assoc, dist, k, seed=0):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rho = np.asarray(rho, dtype=float)
        assoc, dist = np.asarray(assoc), np.asarray(dist, dtype=float)
        got = _niche_select(rho.copy(), assoc, dist, k, rng)
        assert got == niche_select_oracle(rho.copy(), assoc, dist, k, oracle_rng)
        # same draws, in the same order: the whole state, PCG64's buffered
        # 32-bit half included, which the next random() would not read
        assert rng.bit_generator.state == oracle_rng.bit_generator.state
        return got

    def test_zero_counts_and_memberless_niches(self):
        # ten empty niches, only 0, 2 and 4 have members: the rest go to inf
        assoc = [0, 2, 4, 0, 2, 4, 0, 2]
        dist = [0.5, 0.1, 0.3, 0.2, 0.1, 0.9, 0.7, 0.4]
        for seed in range(10):
            for k in (1, 3, 5, 8):
                got = self.check(np.zeros(10), assoc, dist, k, seed)
                assert set(got[:3]) <= {1, 2, 3}  # nearest of each empty niche first

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
            n_refs = int(rng.integers(1, 30))
            size = int(rng.integers(1, 40))
            assoc = rng.integers(n_refs, size=size)
            dist = np.round(rng.random(size), 1)  # tied distances keep stable order
            rho = rng.integers(0, 4, size=n_refs) * rng.integers(0, 2, size=n_refs)
            self.check(rho, assoc, dist, int(rng.integers(1, size + 1)), seed)

    def test_too_few_candidates(self):
        states = []
        for select in (_niche_select, niche_select_oracle):
            rng = np.random.default_rng(0)
            with pytest.raises(UsageError, match="ran out"):
                select(np.zeros(3), np.array([0, 1]), np.array([0.1, 0.2]), 3, rng)
            states.append(rng.bit_generator.state)
        assert states[0] == states[1]  # the failed call's draws are still consumed


def _scalar_and_replayed(rng, ranges, expected):
    """(scalar integers(r) draws, final state) and the same from _BoundedDraws."""
    start = rng.bit_generator.state
    scalar = [int(rng.integers(r)) for r in ranges]
    scalar_state = rng.bit_generator.state
    rng.bit_generator.state = start
    with _BoundedDraws(rng, expected) as draws:
        replayed = [draws.below(r) for r in ranges]
    return (scalar, scalar_state), (replayed, rng.bit_generator.state)


class TestBoundedDrawsMatchNumpy:
    """The numpy facts the niching replay rests on, checked by name.

    Generator.integers(r) for 1 < r < 2**32 applies Lemire's rule to the next
    32-bit output, integers(0, 2**32, dtype=uint32) returns those outputs,
    and integers(1) reads nothing.  A numpy that changes any of these fails
    here.
    """

    @pytest.mark.parametrize("half_word", [0, 1])
    @pytest.mark.parametrize("ranges", [
        range(1, 5001),
        [2**31 + d for d in range(-40, 41)] + [2**32 - 1, 3 * 2**30],  # rejections likely
    ], ids=["1-5000", "near-2^31"])
    def test_integers_follow_lemire_on_uint32_words(self, ranges, half_word):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            if half_word:  # start with PCG64's buffered 32-bit half pending
                rng.integers(0, 1 << 32, dtype=np.uint32)
            assert rng.bit_generator.state["has_uint32"] == half_word
            scalar, replayed = _scalar_and_replayed(rng, list(ranges), 2 * len(ranges))
            assert replayed == scalar

    def test_integers_of_one_reads_no_state(self):
        rng = np.random.default_rng(4)
        before = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == before

    def test_buffer_refills_when_used_up(self):
        ranges = [7, 1, 3**19, 2, 2**31 + 1] * 40
        for expected in (1, 2, 50):
            scalar, replayed = _scalar_and_replayed(np.random.default_rng(9), ranges, expected)
            assert replayed == scalar

    def test_state_settles_when_the_block_raises(self):
        rng, scalar_rng = np.random.default_rng(6), np.random.default_rng(6)
        with pytest.raises(KeyError):
            with _BoundedDraws(rng, 100) as draws:
                for r in (5, 2**31 + 3):
                    draws.below(r)
                raise KeyError
        for r in (5, 2**31 + 3):
            scalar_rng.integers(r)
        assert rng.bit_generator.state == scalar_rng.bit_generator.state


class TestFirstFrontSelection:
    def test_keeps_only_first_front(self):
        pop = _evaluated([[1.0, 1.0], [0.5, 2.0], [2.0, 2.0], [3.0, 0.1]])
        out = first_front_selection(pop, 10, das_dennis(2, 3),
                                    NormalizationState(), np.random.default_rng(0))
        assert len(out) == 3  # (2,2) is dominated, the rest are front 0
        assert {tuple(r) for r in out.objectives} == {(1.0, 1.0), (0.5, 2.0), (3.0, 0.1)}

    def test_truncates_large_front_to_n(self):
        rng = np.random.default_rng(3)
        theta = rng.random(40) * np.pi / 2
        f = np.column_stack([np.cos(theta), np.sin(theta)])
        out = first_front_selection(Population(np.zeros((40, 2)), f), 12,
                                    das_dennis(2, 11), NormalizationState(), rng)
        assert len(out) == 12

    def test_result_mutually_nondominated(self):
        rng = np.random.default_rng(8)
        f = rng.random((50, 3))
        out = first_front_selection(Population(np.zeros((50, 3)), f), 20,
                                    das_dennis(3, 4), NormalizationState(), rng)
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
        niche_rng = np.random.default_rng(5)
        state2, rng2 = copy.deepcopy(state), copy.deepcopy(niche_rng)
        out = first_front_selection(pop, n, refs, state, niche_rng)
        first = pop.take(sort_fronts(pop.f)[0])
        expected = environmental_selection(first, n, refs, state2, rng2)
        assert len(out) == min(n, 20)
        assert np.array_equal(out.x, expected.x) and np.array_equal(out.f, expected.f)
        assert np.array_equal(state.ideal, state2.ideal)
        assert niche_rng.bit_generator.state == rng2.bit_generator.state


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
            niche_rng, rng2 = np.random.default_rng(trial), np.random.default_rng(trial)
            for n in self.sizes(pop):  # one running state across the calls
                got = select(pop, n, refs, state, niche_rng)
                expected = oracle(pop, n, refs, state2, rng2)
                assert np.array_equal(got.x, expected.x) and np.array_equal(got.f, expected.f)
                assert np.array_equal(state.ideal, state2.ideal)
            assert niche_rng.bit_generator.state == rng2.bit_generator.state


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
