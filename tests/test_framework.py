import dataclasses

import numpy as np
import pytest

from temof import (ConfigurationError, FrameworkConfig, MatingSource, Nsga3Base,
                   VariationParams, make_problem, nsga3_run, pareto_mask, sort_fronts,
                   stage_gate, temof_run)


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
        res = temof_run(problem, FrameworkConfig(n=20, max_fes=600, p=0.0), 9,
                        disable_archive=True)
        pop, fes = nsga3_run(problem, 20, 600, 9)
        assert np.array_equal(res.population.x, pop.x)
        assert np.array_equal(res.population.f, pop.f)
        assert res.fes == fes

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
        env_calls = []
        ffs_calls = []

        class CountingBase(Nsga3Base):
            def environmental_selection(self, pop, n):
                env_calls.append(len(pop))
                return super().environmental_selection(pop, n)

            def first_front_selection(self, pop, n):
                ffs_calls.append(len(pop))
                return super().first_front_selection(pop, n)

        res = temof_run(tiny_problem(), FrameworkConfig(n=20, max_fes=200), 1,
                        base_factory=CountingBase)
        gens = len(res.trace)
        assert len(env_calls) == 2 * gens  # population step and union step
        assert len(ffs_calls) == gens

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
