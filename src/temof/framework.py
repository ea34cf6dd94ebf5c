"""Two-stage evolutionary framework (TEMOF) wrapped around a base MOEA.

The framework maintains the base algorithm's population alongside a
first-front archive.  Early on, offspring always come from the population;
once half of the evaluation budget is spent, each generation mates from the
archive with probability p instead.  Every generation the archive is
truncated to the first front of (archive + offspring), and the population
is re-selected from the deduplicated union of both sets.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .core import (ConfigurationError, Population, ProblemSpec, RngKey, concat,
                   initialize_population, merge_dedupe)
from .nsga3 import Nsga3Base
from .variation import VariationParams, generate_offspring


class MatingSource(Enum):
    POPULATION = "population"
    ARCHIVE = "archive"


@dataclass(frozen=True)
class FrameworkConfig:
    """Settings of one framework run.

    n               population (and archive) capacity
    max_fes         evaluation budget; the loop runs while FEs <= max_fes
    p               probability of mating from the archive in the second stage
    stage_fraction  fraction of the budget after which the gate can open
    """

    n: int
    max_fes: int
    p: float = 0.5
    stage_fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigurationError(f"population size must be >= 1, got {self.n}")
        if self.max_fes < self.n:
            raise ConfigurationError(
                f"max_fes={self.max_fes} cannot be below the population size {self.n}")
        if not 0.0 <= self.p <= 1.0:
            raise ConfigurationError(f"p must be in [0, 1], got {self.p}")
        if not 0.0 <= self.stage_fraction <= 1.0:
            raise ConfigurationError(
                f"stage_fraction must be in [0, 1], got {self.stage_fraction}")


def stage_gate(fes: int, max_fes: int, p: float, u: float,
               stage_fraction: float = FrameworkConfig.stage_fraction) -> MatingSource:
    """Decide the mating source for one generation.

    The archive is used only when fes >= stage_fraction * max_fes and the
    uniform draw u falls below p.
    """
    if fes >= stage_fraction * max_fes and u < p:
        return MatingSource.ARCHIVE
    return MatingSource.POPULATION


@dataclass(frozen=True)
class GenerationRecord:
    """One generation's bookkeeping in the run trace."""

    generation: int
    fes_before: int
    source: MatingSource
    fes_after: int


class RunTrace(list):
    """Per-generation records (GenerationRecord) of a framework run."""

    def archive_generations(self) -> int:
        return sum(1 for r in self if r.source is MatingSource.ARCHIVE)


@dataclass
class TemofResult:
    """Final state of a framework run.

    The population is the base algorithm's last selection; the archive is
    the maintained first-front set.  Both are reported because they answer
    different questions (convergence+spread vs pure non-dominated set).
    """

    population: Population
    archive: Population
    trace: RunTrace
    fes: int


def temof_run(problem: ProblemSpec, config: FrameworkConfig, seed: RngKey | int,
              *, base_factory=None, variation: VariationParams | None = None,
              observer=None, disable_archive: bool = False) -> TemofResult:
    """Run the two-stage framework on one problem.

    base_factory(problem, n, rng) builds the base algorithm's selection pair;
    the default is the reference-point base (Nsga3Base).  variation defaults
    to VariationParams().  With disable_archive=True the archive is neither
    maintained nor mated from, which reduces the loop to the plain base
    algorithm; the gate stream is still advanced every generation so seeds
    stay comparable.
    """
    key = seed if isinstance(seed, RngKey) else RngKey(int(seed))
    factory = base_factory if base_factory is not None else Nsga3Base
    population = initialize_population(problem, config.n, key.stream("init"))
    fes = len(population)
    base = factory(problem, config.n, key.stream("selection"))
    variation = variation if variation is not None else VariationParams()
    gate_rng = key.stream("gate")
    var_rng = key.stream("variation")
    archive = population
    trace = RunTrace()
    generation = 0
    while fes <= config.max_fes:
        generation += 1
        fes_before = fes
        u = float(gate_rng.random())
        if disable_archive:
            source = MatingSource.POPULATION
        else:
            source = stage_gate(fes_before, config.max_fes, config.p, u,
                                config.stage_fraction)
        parents = archive if source is MatingSource.ARCHIVE else population
        offspring = generate_offspring(parents, config.n, variation, problem, var_rng)
        fes += len(offspring)
        selected = base.environmental_selection(concat(population, offspring), config.n)
        if disable_archive:
            population = selected
        else:
            archive = base.first_front_selection(concat(archive, offspring), config.n)
            # variation can copy a parent bit for bit, so the union is topped
            # back up to n with the earliest dropped copies
            population = base.environmental_selection(
                merge_dedupe(selected, archive, n=config.n), config.n)
        trace.append(GenerationRecord(generation, fes_before, source, fes))
        if observer is not None:
            observer(generation, fes, source, population, archive)
    return TemofResult(population, archive, trace, fes)
