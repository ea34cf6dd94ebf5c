import dataclasses

import numpy as np
import pytest

from temof import (ConfigurationError, FrameworkConfig, MatingSource, Nsga3Base,
                   VariationParams, make_problem, nsga3_run, pareto_mask, sort_fronts,
                   temof_run)
from temof import core, dominance, framework
from temof.core import RngKey, concat, initialize_population
from temof.framework import GenerationRecord, RunTrace, TemofResult, stage_gate
from temof.nsga3 import environmental_selection, first_front_selection
from temof.variation import generate_offspring


class TestStageGate:
    def test_second_stage_archive_when_draw_below_p(self):
        assert stage_gate(60_000, 100_000, 0.5, 0.3) is MatingSource.ARCHIVE

    def test_second_stage_population_when_draw_above_p(self):
        assert stage_gate(60_000, 100_000, 0.5, 0.7) is MatingSource.POPULATION

    def test_first_stage_always_population(self):
        assert stage_gate(1_000, 100_000, 0.5, 0.0) is MatingSource.POPULATION
        assert stage_gate(49_999, 100_000, 1.0, 0.0) is MatingSource.POPULATION

    def test_boundary_is_inclusive(self):
        assert stage_gate(50_000, 100_000, 0.5, 0.3) is MatingSource.ARCHIVE

    def test_custom_stage_fraction(self):
        assert stage_gate(30_000, 100_000, 0.5, 0.3, stage_fraction=0.25) \
            is MatingSource.ARCHIVE
        assert stage_gate(30_000, 100_000, 0.5, 0.3, stage_fraction=0.75) \
            is MatingSource.POPULATION


class TestFrameworkConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            FrameworkConfig(n=0, max_fes=100)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(n=100, max_fes=50)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(n=10, max_fes=100, p=1.5)
        with pytest.raises(ConfigurationError):
            FrameworkConfig(n=10, max_fes=100, stage_fraction=-0.1)

    def test_defaults(self):
        cfg = FrameworkConfig(n=10, max_fes=100)
        assert cfg.p == 0.5 and cfg.stage_fraction == 0.5


def tiny_problem():
    return make_problem("DTLZ2", n_var=7)


class TestRunLoopAccounting:
    def test_generation_count_divisible_budget(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=100, max_fes=2000), 0)
        assert len(res.trace) == 20
        assert res.fes == 2100

    def test_generation_count_non_divisible_budget(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=100, max_fes=250), 0)
        assert len(res.trace) == 2
        assert res.fes == 300

    def test_trace_is_contiguous(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=50, max_fes=500), 1)
        for i, rec in enumerate(res.trace):
            assert rec.generation == i + 1
            assert rec.fes_before == 50 * (i + 1)
            assert rec.fes_after == rec.fes_before + 50

    def test_budget_overshoot_bounded_by_one_batch(self):
        for max_fes in (130, 200, 373):
            res = temof_run(tiny_problem(), FrameworkConfig(n=25, max_fes=max_fes), 0)
            assert max_fes < res.fes <= max_fes + 25

    def test_fes_equal_rows_evaluated(self):
        dtlz2 = tiny_problem()
        rows, observed = [], []

        def counting(x):
            rows.append(len(x))
            return dtlz2.evaluator(x)

        problem = dataclasses.replace(dtlz2, evaluator=counting)
        res = temof_run(problem, FrameworkConfig(n=30, max_fes=373), 0,
                        observer=lambda gen, fes, src, pop, arch: observed.append(fes))
        assert res.fes == res.trace[-1].fes_after == observed[-1] == sum(rows)

    def test_population_sizes(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=30, max_fes=300), 2)
        assert len(res.population) == 30
        assert 1 <= len(res.archive) <= 30


class TestStageBehavior:
    def test_no_archive_mating_before_half_budget(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=50, max_fes=2000, p=1.0), 3)
        for rec in res.trace:
            if rec.fes_before < 1000:
                assert rec.source is MatingSource.POPULATION
            else:
                assert rec.source is MatingSource.ARCHIVE

    def test_p_zero_never_uses_archive(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=50, max_fes=2000, p=0.0), 3)
        assert res.trace.archive_generations() == 0

    def test_p_half_mixes_sources_in_second_stage(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=50, max_fes=4000, p=0.5), 4)
        late = [r.source for r in res.trace if r.fes_before >= 2000]
        assert MatingSource.ARCHIVE in late and MatingSource.POPULATION in late
        early = [r.source for r in res.trace if r.fes_before < 2000]
        assert all(s is MatingSource.POPULATION for s in early)


class TestStructuralInvariants:
    def test_archive_mutually_nondominated_every_generation(self):
        archives = []
        temof_run(tiny_problem(), FrameworkConfig(n=40, max_fes=1200), 5,
                  observer=lambda gen, fes, src, pop, arch: archives.append(arch))
        assert archives
        for arch in archives:
            assert pareto_mask(arch.objectives).all()

    def test_population_capacity_every_generation(self):
        sizes = []
        temof_run(tiny_problem(), FrameworkConfig(n=40, max_fes=1200), 5,
                  observer=lambda gen, fes, src, pop, arch: sizes.append(len(pop)))
        assert all(s == 40 for s in sizes)

    def test_population_capacity_when_children_copy_parents(self):
        # with pc=0 and pm=0 every child is a copy of a parent, so the
        # deduplicated union falls short of n and is topped up with copies
        pops = []
        temof_run(tiny_problem(), FrameworkConfig(n=40, max_fes=1200), 5,
                  variation=VariationParams(pc=0.0, pm=0.0),
                  observer=lambda gen, fes, src, pop, arch: pops.append(pop))
        assert len(pops) == 30
        assert all(len(pop) == 40 for pop in pops)
        assert all(len({row.tobytes() for row in pop.x}) < 40 for pop in pops)

    def test_population_has_no_duplicate_decisions(self):
        pops = []
        temof_run(tiny_problem(), FrameworkConfig(n=40, max_fes=1200), 5,
                  observer=lambda gen, fes, src, pop, arch: pops.append(pop))
        final = pops[-1]
        assert len({row.tobytes() for row in final.x}) == len(final)

    def test_result_archive_first_front_only(self):
        res = temof_run(tiny_problem(), FrameworkConfig(n=30, max_fes=900), 6)
        assert len(sort_fronts(res.archive.objectives)) == 1


class TestAblation:
    def test_disable_archive_matches_plain_base_run(self):
        problem = tiny_problem()
        seen = []
        res = temof_run(problem, FrameworkConfig(n=20, max_fes=600, p=0.0), 9,
                        disable_archive=True,
                        observer=lambda gen, fes, src, pop, arch: seen.append(arch is pop))
        pop, fes = nsga3_run(problem, 20, 600, 9)
        assert np.array_equal(res.population.x, pop.x)
        assert np.array_equal(res.population.f, pop.f)
        assert res.fes == fes
        # without an archive, the archive reported is the population
        assert res.archive is res.population
        assert seen and all(seen)

    def test_disable_archive_ignores_p(self):
        problem = tiny_problem()
        a = temof_run(problem, FrameworkConfig(n=20, max_fes=600, p=0.9), 9,
                      disable_archive=True)
        pop, _ = nsga3_run(problem, 20, 600, 9)
        assert np.array_equal(a.population.x, pop.x)
        assert a.trace.archive_generations() == 0

    def test_archive_changes_the_search(self):
        problem = tiny_problem()
        on = temof_run(problem, FrameworkConfig(n=20, max_fes=1200, p=0.5), 9)
        off, _ = nsga3_run(problem, 20, 1200, 9)
        assert not np.array_equal(on.population.x, off.x)


class TestHooks:
    def test_observer_arguments(self):
        calls = []
        temof_run(tiny_problem(), FrameworkConfig(n=20, max_fes=200), 0,
                  observer=lambda gen, fes, src, pop, arch:
                  calls.append((gen, fes, src, len(pop), len(arch))))
        # init spends 20 FEs, then one batch of 20 per generation while fes <= 200
        assert len(calls) == 10
        for gen, fes, src, pop_len, arch_len in calls:
            assert isinstance(src, MatingSource)
            assert pop_len == 20 and arch_len >= 1

    def test_base_factory_receives_selection_calls(self):
        calls = []

        class CountingBase(Nsga3Base):
            def select(self, objectives, fronts, n):
                calls.append(sum(front.size for front in fronts))
                return super().select(objectives, fronts, n)

        # population step, then archive and union steps when there is an archive
        for disable_archive, per_generation in ((False, 3), (True, 1)):
            calls.clear()
            res = temof_run(tiny_problem(), FrameworkConfig(n=20, max_fes=200), 1,
                            base_factory=CountingBase, disable_archive=disable_archive)
            assert len(calls) == per_generation * len(res.trace)
            assert all(size >= 1 for size in calls)

    def test_determinism(self):
        problem = tiny_problem()
        cfg = FrameworkConfig(n=25, max_fes=800)
        a = temof_run(problem, cfg, 12)
        b = temof_run(problem, cfg, 12)
        assert np.array_equal(a.population.x, b.population.x)
        assert np.array_equal(a.archive.x, b.archive.x)
        assert [r.source for r in a.trace] == [r.source for r in b.trace]

    def test_seed_changes_the_run(self):
        problem = tiny_problem()
        cfg = FrameworkConfig(n=25, max_fes=800)
        a = temof_run(problem, cfg, 12)
        b = temof_run(problem, cfg, 13)
        assert not np.array_equal(a.population.x, b.population.x)


def legacy_run(problem, config, seed, variation=VariationParams(), observer=None,
               disable_archive=False):
    """temof_run as three selections of populations, each sorting its own rows:
    the loop before the row pool.  Returns the result and the base."""
    key = RngKey(seed)
    population = initialize_population(problem, config.n, key.stream("init"))
    fes = len(population)
    base = Nsga3Base(problem, config.n, key.stream("selection"))
    p = 0.0 if disable_archive else config.p
    gate_rng, var_rng = key.stream("gate"), key.stream("variation")
    archive = population
    trace = RunTrace()
    generation = 0

    def env(pop):
        return environmental_selection(pop, config.n, base.refs, base.state, base.words)

    while fes <= config.max_fes:
        generation += 1
        fes_before = fes
        source = stage_gate(fes_before, config.max_fes, p, float(gate_rng.random()),
                            config.stage_fraction)
        parents = archive if source is MatingSource.ARCHIVE else population
        offspring = generate_offspring(parents, config.n, variation, problem, var_rng)
        fes += len(offspring)
        selected = env(concat(population, offspring))
        if disable_archive:
            population = archive = selected
        else:
            archive = first_front_selection(concat(archive, offspring), config.n,
                                            base.refs, base.state, base.words)
            population = env(byte_sort_merge(selected, archive, config.n))
        trace.append(GenerationRecord(generation, fes_before, source, fes))
        if observer is not None:
            observer(generation, fes, source, population, archive)
    return TemofResult(population, archive, trace, fes), base


def byte_sort_merge(a, b, n):
    """merge_dedupe as a stable sort of the rows as byte strings."""
    both = concat(a, b)
    n_rows, width = both.x.shape
    bits = both.x.view(np.uint64)
    order = (np.argsort(bits.view(np.dtype((np.void, 8 * width))).ravel(), kind="stable")
             if width else np.arange(n_rows))
    ranked = bits[order]
    first = np.ones(n_rows, dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    kept = np.zeros(n_rows, dtype=bool)
    kept[order[first]] = True
    keep, dropped = np.flatnonzero(kept), np.flatnonzero(~kept)
    return both.take(np.concatenate([keep, dropped[:max(n - keep.size, 0)]]))


def _pop_bytes(pop):
    return pop.x.shape, pop.x.tobytes(), pop.f.tobytes()


def _pool_run(problem, config, seed, variation, disable_archive):
    """temof_run with every observed argument and the base recorded."""
    seen, bases = [], []

    def factory(*args):
        bases.append(Nsga3Base(*args))
        return bases[-1]

    res = temof_run(problem, config, seed, base_factory=factory, variation=variation,
                    disable_archive=disable_archive,
                    observer=lambda *args: seen.append(_observed(*args)))
    return res, bases[0], seen


def _observed(gen, fes, source, pop, arch):
    return gen, fes, source, _pop_bytes(pop), _pop_bytes(arch), arch is pop


def assert_runs_equal(problem, config, seed, variation=VariationParams(),
                      disable_archive=False):
    res, base, seen = _pool_run(problem, config, seed, variation, disable_archive)
    want_seen = []
    want, want_base = legacy_run(problem, config, seed, variation,
                                 observer=lambda *args: want_seen.append(_observed(*args)),
                                 disable_archive=disable_archive)
    assert _pop_bytes(res.population) == _pop_bytes(want.population)
    assert _pop_bytes(res.archive) == _pop_bytes(want.archive)
    assert (res.archive is res.population) == disable_archive
    assert list(res.trace) == list(want.trace) and res.fes == want.fes
    assert seen == want_seen
    # the niching stream stopped at the same word
    assert base.words.pos == want_base.words.pos
    assert base.words.words == want_base.words.words
    assert base.words.rng.bit_generator.state == want_base.words.rng.bit_generator.state
    assert base.state.ideal.tobytes() == want_base.state.ideal.tobytes()


def _oracle_cases():
    rng = np.random.default_rng(30)
    cases = []
    for m in (2, 3, 4, 5):
        for p in (0.0, 0.5, 1.0):
            for stage_fraction in (0.0, 1.0):
                for disable_archive in (False, True):
                    n = int(rng.integers(m, 41))
                    copies = bool(rng.integers(2))  # children that copy their parents
                    cases.append((m, p, stage_fraction, disable_archive, n, copies))
    return cases


class TestRowPoolMatchesLegacyLoop:
    """The pooled loop against the three-selection loop it replaced."""

    @pytest.mark.parametrize("m, p, stage_fraction, disable_archive, n, copies",
                             _oracle_cases())
    def test_byte_equal(self, m, p, stage_fraction, disable_archive, n, copies):
        problem = (make_problem("ZDT3", n_var=6) if m == 2 and n % 2 else
                   make_problem("DTLZ7" if n % 3 == 0 else "DTLZ2", n_obj=m))
        variation = (VariationParams(pc=0.0, pm=0.0) if copies and n % 2
                     else VariationParams(pc=0.5, pm=0.05) if copies else VariationParams())
        config = FrameworkConfig(n=n, max_fes=n * 9 + 3, p=p, stage_fraction=stage_fraction)
        assert_runs_equal(problem, config, n + m, variation, disable_archive)


@pytest.mark.parametrize("run", [
    lambda problem: temof_run(problem, FrameworkConfig(n=24, max_fes=400), 3),
    lambda problem: nsga3_run(problem, 24, 400, 3),
], ids=["temof_run", "nsga3_run"])
def test_one_domination_matrix_per_generation(monkeypatch, run):
    """One domination matrix over the pool, and one concat that rebuilds it."""
    calls = {"domination_matrix": [], "concat": []}
    for name, home in (("domination_matrix", dominance), ("concat", core)):
        def counting(*args, _counted=getattr(home, name), _calls=calls[name]):
            _calls.append(args)
            return _counted(*args)

        for module in (home, framework):
            monkeypatch.setattr(module, name, counting)
    res = run(tiny_problem())
    fes = res[1] if isinstance(res, tuple) else res.fes
    generations = (fes - 24) // 24  # of 24 offspring each
    assert len(calls["domination_matrix"]) == len(calls["concat"]) == generations
