"""Real-coded genetic algorithm over PID gains.

Normalized geometric ranking selection, whole-vector arithmetic crossover,
uniform per-gene mutation, one-elite survival, fixed generation budget.
Chromosomes are rows (kd, kp, ki) of a population matrix; fitness lives in a
parallel vector (conceptually the appended fitness column).

Runs are deterministic for a fixed seed: the generator is consumed in a
fixed pattern per generation (parent draws, one crossover weight per pair,
then a mutation mask and resample array of fixed shape), so identical
configurations reproduce bit-identical results.
"""

import math
from dataclasses import dataclass

import numpy as np

from .tuners import GeneBounds


@dataclass
class GaConfig:
    bounds: GeneBounds
    pop_size: int = 80
    max_generations: int = 300
    selection_q: float = 0.08
    crossover_pairs: int = None  # defaults to pop_size // 2
    mutation_prob: float = 0.001
    elite_count: int = 1
    rng_seed: int = 0

    def __post_init__(self):
        if self.max_generations < 1:
            raise ValueError("max_generations must be at least 1")
        if not 0 < self.selection_q < 1:
            raise ValueError("selection_q must lie in (0, 1)")
        if not 0 <= self.mutation_prob <= 1:
            raise ValueError("mutation_prob must lie in [0, 1]")
        if self.crossover_pairs is None:
            self.crossover_pairs = self.pop_size // 2
        if self.elite_count >= self.pop_size:
            raise ValueError("elite_count must be below pop_size")
        if 2 * self.crossover_pairs < self.pop_size - self.elite_count:
            raise ValueError("not enough crossover offspring to refill the "
                             "population")


@dataclass(frozen=True)
class Chromosome:
    genes: np.ndarray
    fitness: float


@dataclass(frozen=True)
class GaResult:
    best: Chromosome
    best_index_value: float
    fitness_history: np.ndarray  # per-generation best (non-decreasing)
    converged: bool


def geometric_selection_probs(n, q):
    """Normalized geometric ranking: P(rank r) = q'(1-q)^(r-1), r = 1 best.

    q is the raw probability of picking the best; q' = q/(1-(1-q)^n)
    renormalizes the truncated geometric series to sum to one.
    """
    if n < 1:
        raise ValueError("need at least one rank")
    if not 0 < q < 1:
        raise ValueError("q must lie in (0, 1)")
    qn = q / (1.0 - (1.0 - q) ** n)
    return qn * (1.0 - q) ** np.arange(n)


def sample_ranks(cum_probs, rng, shape):
    """Draw rank indices with the distribution whose cumsum is cum_probs."""
    return np.searchsorted(cum_probs, rng.random(shape))


def arithmetic_crossover(p1, p2, a):
    """Convex blend of two parent vectors with one weight for all genes."""
    p1 = np.asarray(p1, dtype=float)
    p2 = np.asarray(p2, dtype=float)
    return a * p1 + (1.0 - a) * p2, (1.0 - a) * p1 + a * p2


def mutate(genes, bounds, prob, rng):
    """Resample each gene uniformly within its bounds with probability prob.

    The mask and replacement draws are always consumed from the generator
    (even at prob = 0) so RNG alignment does not depend on outcomes.
    """
    genes = np.asarray(genes, dtype=float)
    mask = rng.random(genes.shape) < prob
    fresh = bounds.low + rng.random(genes.shape) * bounds.span
    return np.where(mask, fresh, genes)


def run_ga(config, evaluate):
    """Maximize fitness over the bounded gene box.

    evaluate maps the whole (pop_size, n_genes) population matrix to its
    fitness vector in one call.  Non-finite fitness is treated as the 1e-12
    penalty.  Returns the best-ever chromosome, its reciprocal as
    best_index_value, the per-generation best-fitness history, and a
    convergence flag (less than 1e-9 improvement over the final 50
    generations).
    """
    bounds = config.bounds
    ngenes = len(bounds.low)
    rng = np.random.default_rng(config.rng_seed)
    pop = bounds.low + rng.random((config.pop_size, ngenes)) * bounds.span
    cum = np.cumsum(geometric_selection_probs(config.pop_size,
                                              config.selection_q))
    cum[-1] = 1.0  # guard the top edge against rounding
    n_children = config.pop_size - config.elite_count
    history = np.empty(config.max_generations)
    best_genes = None
    best_fit = -math.inf
    for gen in range(config.max_generations):
        fit = np.asarray(evaluate(pop), dtype=float)
        fit = np.where(np.isfinite(fit), fit, 1e-12)
        order = np.argsort(-fit, kind="stable")  # rank 0 = best, ties by row
        pop = pop[order]
        fit = fit[order]
        if fit[0] > best_fit:
            best_fit = float(fit[0])
            best_genes = pop[0].copy()
        history[gen] = best_fit
        if gen == config.max_generations - 1:
            break
        parents = sample_ranks(cum, rng, (config.crossover_pairs, 2))
        a = rng.random(config.crossover_pairs)[:, None]
        children = np.empty((2 * config.crossover_pairs, ngenes))
        children[0::2], children[1::2] = arithmetic_crossover(
            pop[parents[:, 0]], pop[parents[:, 1]], a)
        children = mutate(children[:n_children], bounds, config.mutation_prob,
                          rng)
        # convexity keeps children inside the box; clip only sweeps up the
        # occasional one-ulp float excursion
        np.clip(children, bounds.low, bounds.high, out=children)
        pop = np.concatenate([pop[:config.elite_count], children])
    window = min(50, len(history) - 1)
    converged = bool(history[-1] - history[-1 - window] < 1e-9) if window > 0 \
        else True
    return GaResult(best=Chromosome(best_genes, best_fit),
                    best_index_value=1.0 / best_fit,
                    fitness_history=history,
                    converged=converged)
