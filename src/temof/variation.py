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


def sbx_batch(p1: np.ndarray, p2: np.ndarray, params: VariationParams,
              lower: np.ndarray, upper: np.ndarray,
              rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Simulated binary crossover on matched parent matrices.

    Each variable recombines independently with probability pc; untouched
    variables copy straight through.  Before clamping, c1 + c2 == p1 + p2.
    """
    p1 = np.atleast_2d(np.asarray(p1, dtype=float))
    p2 = np.atleast_2d(np.asarray(p2, dtype=float))
    if p1.shape != p2.shape:
        raise UsageError(f"parent shapes differ: {p1.shape} vs {p2.shape}")
    do = rng.random(p1.shape) < params.pc
    u = rng.random(p1.shape)
    exp = 1.0 / (params.eta_c + 1.0)
    beta = np.where(u <= 0.5, (2.0 * u) ** exp, (0.5 / (1.0 - u)) ** exp)
    beta = np.where(do, beta, 1.0)  # beta == 1 leaves both children on the parents
    c1 = 0.5 * ((1.0 + beta) * p1 + (1.0 - beta) * p2)
    c2 = 0.5 * ((1.0 - beta) * p1 + (1.0 + beta) * p2)
    np.clip(c1, lower, upper, out=c1)
    np.clip(c2, lower, upper, out=c2)
    return c1, c2


def mutate_batch(x: np.ndarray, params: VariationParams,
                 lower: np.ndarray, upper: np.ndarray,
                 rng: np.random.Generator) -> np.ndarray:
    """Bounded polynomial mutation applied per variable with probability pm.

    Both power branches are computed at the mutating sites only, about 1/n_var
    of the entries; every other entry is copied, then everything is clamped.
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    pm = params.mutation_prob(x.shape[1])
    rows, cols = np.nonzero(rng.random(x.shape) < pm)
    u = rng.random(x.shape)[rows, cols]
    xs, lo, up = x[rows, cols], lower[cols], upper[cols]
    span = up - lo
    d1 = (xs - lo) / span
    d2 = (up - xs) / span
    exp = 1.0 / (params.eta_m + 1.0)
    low_side = (2.0 * u + (1.0 - 2.0 * u) * (1.0 - d1) ** (params.eta_m + 1.0)) ** exp - 1.0
    high_side = 1.0 - (2.0 * (1.0 - u) + 2.0 * (u - 0.5) * (1.0 - d2) ** (params.eta_m + 1.0)) ** exp
    delta = np.where(u <= 0.5, low_side, high_side)
    out = x.copy()
    out[rows, cols] = xs + delta * span
    np.clip(out, lower, upper, out=out)
    return out


def generate_offspring(source: Population, n: int, params: VariationParams,
                       problem: ProblemSpec, rng: np.random.Generator) -> Population:
    """Produce and evaluate exactly n offspring from a mating source.

    Pipeline: random pairs -> SBX -> trim to n -> polynomial mutation ->
    evaluation (n FEs).
    """
    pairs = mating_pool(source, n, rng)
    c1, c2 = sbx_batch(source.x[pairs[:, 0]], source.x[pairs[:, 1]],
                       params, problem.lower, problem.upper, rng)
    children = np.vstack([c1, c2])[:n]
    children = mutate_batch(children, params, problem.lower, problem.upper, rng)
    return Population(children, problem.evaluate_batch(children))
