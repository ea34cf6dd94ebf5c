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

import numpy as np

from .core import (ConfigurationError, Population, ProblemSpec, RngKey, first_copies,
                   initialize_population, row_hashes)
from .dominance import domination_matrix, subset_fronts
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


def _members(x: np.ndarray, f: np.ndarray, rows: np.ndarray) -> Population:
    return Population._own(x[rows], f[rows])


def temof_run(problem: ProblemSpec, config: FrameworkConfig, seed: RngKey | int,
              *, base_factory=Nsga3Base, variation: VariationParams = VariationParams(),
              observer=None, disable_archive: bool = False) -> TemofResult:
    """Run the two-stage framework on one problem.

    base_factory(problem, n, rng) builds the base algorithm, whose
    select(objectives, fronts, n) returns the row indices it keeps out of
    the given fronts of row indices.  With disable_archive=True no archive
    is maintained or mated from, which reduces the loop to the plain base
    algorithm; the archive reported to the observer and in the result is
    then the population.  Its gate has p = 0, and the gate stream is a
    stream of its own, so its draws affect no other.

    The rows of the population and the archive live in one pool; with an
    archive, each decision vector is hashed once, when its row is born.
    Each generation rebuilds the pool from the population, the archive's
    other rows and the offspring, and builds one domination matrix over it,
    from which every selection of the generation reads its fronts.
    """
    key = seed if isinstance(seed, RngKey) else RngKey(int(seed))
    n = config.n
    initial = initialize_population(problem, n, key.stream("init"))
    fes = len(initial)
    base = base_factory(problem, n, key.stream("selection"))
    p = 0.0 if disable_archive else config.p
    gate_rng = key.stream("gate")
    var_rng = key.stream("variation")
    # the pool: x and f of its rows, which population and archive index, and
    # the hashes of the x rows, which only the union's dedupe reads
    x, f = initial.x, initial.f
    population = np.arange(n)
    archive = None if disable_archive else population
    hashes = None if disable_archive else row_hashes(x)
    trace = RunTrace()
    generation = 0
    while fes <= config.max_fes:
        generation += 1
        fes_before = fes
        source = stage_gate(fes_before, config.max_fes, p, float(gate_rng.random()),
                            config.stage_fraction)
        parents = archive if source is MatingSource.ARCHIVE else population
        offspring = generate_offspring(_members(x, f, parents), n, variation, problem, var_rng)
        fes += len(offspring)
        # the next pool: the population in its order, the other rows of the
        # archive, the offspring
        keep = population
        if archive is not None:
            moved = np.full(len(x), -1)  # each kept row's index in the next pool
            moved[population] = np.arange(n)
            others = archive[moved[archive] < 0]
            moved[others] = np.arange(n, n + others.size)
            archive = moved[archive]
            keep = np.concatenate([population, others])
            hashes = np.concatenate([hashes[keep], row_hashes(offspring.x)])
        x = np.concatenate([x[keep], offspring.x])
        f = np.concatenate([f[keep], offspring.f])
        population = np.arange(n)
        born = np.arange(keep.size, len(x))
        dom = domination_matrix(f)
        selected = _select(base, f, dom, np.concatenate([population, born]), n, n)
        if archive is None:
            population = selected
        else:
            archive = _select(base, f, dom, np.concatenate([archive, born]), n, 1)
            # variation can copy a parent bit for bit, so the union is topped
            # back up to n with the earliest dropped copies
            union = np.concatenate([selected, archive])
            union = union[first_copies(x[union], hashes[union], n)]
            population = _select(base, f, dom, union, n, n)
        trace.append(GenerationRecord(generation, fes_before, source, fes))
        if observer is not None:
            observer(generation, fes, source, *_reported(x, f, population, archive))
    return TemofResult(*_reported(x, f, population, archive), trace, fes)


def _select(base, f: np.ndarray, dom: np.ndarray, rows: np.ndarray, n: int,
            cover: int) -> np.ndarray:
    """The pool rows that base keeps out of rows, at most n, from the fronts
    of rows that hold cover of them; rows that fit in cover are one front,
    in their own order."""
    fronts = ([rows] if rows.size <= cover else
              [rows[front] for front in subset_fronts(dom, rows, cover)])
    return base.select(f, fronts, n)


def _reported(x: np.ndarray, f: np.ndarray, population: np.ndarray,
              archive: np.ndarray | None) -> tuple[Population, Population]:
    """Population and archive as populations; without an archive, the
    population twice."""
    pop = _members(x, f, population)
    return pop, pop if archive is None else _members(x, f, archive)
