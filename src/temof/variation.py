"""Variation operators: random mating, SBX crossover, polynomial mutation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, Population, ProblemSpec, UsageError


@dataclass(frozen=True)
class VariationParams:
    """Operator parameters.

    pc     per-variable crossover probability
    eta_c  SBX distribution index
    pm     per-variable mutation probability (None = 1 / n_var)
    eta_m  mutation distribution index
    """

    pc: float = 1.0
    eta_c: float = 20.0
    pm: float | None = None
    eta_m: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.pc <= 1.0:
            raise ConfigurationError(f"pc must be in [0, 1], got {self.pc}")
        if self.pm is not None and not 0.0 <= self.pm <= 1.0:
            raise ConfigurationError(f"pm must be in [0, 1], got {self.pm}")
        if not (self.eta_c >= 0 and self.eta_m >= 0):  # NaN fails too
            raise ConfigurationError(
                f"distribution indices must be >= 0, got eta_c={self.eta_c}, eta_m={self.eta_m}")

    def mutation_prob(self, n_var: int) -> float:
        return 1.0 / n_var if self.pm is None else self.pm


def mating_pool(source: Population, n: int, rng: np.random.Generator) -> np.ndarray:
    """ceil(n/2) parent index pairs drawn uniformly with replacement."""
    if len(source) == 0:
        raise UsageError("cannot draw parents from an empty population")
    if n < 1:
        raise UsageError(f"offspring count must be >= 1, got {n}")
    pairs = rng.integers(0, len(source), size=(math.ceil(n / 2), 2))
    return pairs


def sbx_batch(parents: np.ndarray, params: VariationParams,
              lower: np.ndarray, upper: np.ndarray,
              rng: np.random.Generator) -> np.ndarray:
    """Simulated binary crossover on a (2, pairs, n_var) plane of parent pairs.

    Returns the children in the same layout, child k of a pair on plane k.
    Each variable recombines independently with probability pc; untouched
    variables copy straight through.  Before clamping, the two children of a
    pair sum to its two parents.
    """
    parents = np.asarray(parents, dtype=float)
    do, u = rng.random(parents.shape)  # two draws of one parent matrix's shape, in order
    exp = 1.0 / (params.eta_c + 1.0)
    beta = np.where(u <= 0.5, 2.0 * u, 0.5 / (1.0 - u)) ** exp
    if params.pc < 1.0:  # a draw in [0, 1) is always below pc == 1
        # beta == 1 leaves both children on the parents
        beta = np.where(do < params.pc, beta, 1.0)
    children = 0.5 * ((1.0 + beta) * parents + (1.0 - beta) * parents[::-1])
    np.maximum(children, lower, out=children)
    np.minimum(children, upper, out=children)
    return children


def mutate_batch(x: np.ndarray, params: VariationParams,
                 lower: np.ndarray, upper: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Bounded polynomial mutation applied per variable with probability pm.

    Both power branches are computed at the mutating sites only, about 1/n_var
    of the entries; every other entry is copied, then everything is clamped.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pm = params.mutation_prob(x.shape[1])
    sites, u = rng.random((2, *x.shape))  # as two draws of x's shape, in order
    flat = np.flatnonzero(sites < pm)  # row-major indices of the mutating sites
    cols = flat % x.shape[1]
    u = u.take(flat)
    xs, lo, up = x.take(flat), lower[cols], upper[cols]
    span = up - lo
    d1 = (xs - lo) / span
    d2 = (up - xs) / span
    exp = 1.0 / (params.eta_m + 1.0)
    low_side = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (params.eta_m + 1.0)) ** exp - 1.0
    high_side = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (params.eta_m + 1.0)) ** exp
    delta = np.where(u <= 0.5, low_side, high_side)
    out = x.copy()
    out.put(flat, xs + delta * span)
    np.maximum(out, lower, out=out)
    np.minimum(out, upper, out=out)
    return out


def generate_offspring(source: Population, n: int, params: VariationParams,
                       problem: ProblemSpec, rng: np.random.Generator) -> Population:
    """Produce and evaluate exactly n offspring from a mating source.

    Pipeline: random pairs -> SBX -> trim to n -> polynomial mutation ->
    evaluation (n FEs).
    """
    pairs = mating_pool(source, n, rng)
    children = sbx_batch(source.x[pairs.T], params, problem.lower, problem.upper, rng)
    children = children.reshape(-1, problem.n_var)[:n]  # all first children, then all second
    children = mutate_batch(children, params, problem.lower, problem.upper, rng)
    return Population(children, problem.evaluate_batch(children))
