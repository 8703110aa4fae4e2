"""Genetic algorithm operators and the full optimization loop."""

import numpy as np
import pytest

from pidga.ga import (Chromosome, GaConfig, GaResult, arithmetic_crossover,
                      geometric_selection_probs, mutate, run_ga, sample_ranks)
from pidga.tuners import GeneBounds

BOWL_CENTER = np.array([0.5, 10.0, 30.0])
BOWL_BOUNDS = GeneBounds([0.0, 0.0, 0.0], [1.2, 24.0, 120.0])


def bowl_fitness_pop(pop):
    return 1.0 / (1e-6 + ((pop - BOWL_CENTER) ** 2).sum(axis=1))


# ------------------------------------------------------------------ selection

def test_geometric_probs_three_ranks():
    probs = geometric_selection_probs(3, 0.5)
    np.testing.assert_allclose(probs, [0.5714, 0.2857, 0.1429], atol=1e-4)


def test_geometric_probs_normalize():
    for n, q in ((1, 0.5), (7, 0.08), (80, 0.08), (100, 0.3)):
        probs = geometric_selection_probs(n, q)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert (np.diff(probs) < 0).all() or n == 1


def test_geometric_probs_single_rank():
    np.testing.assert_allclose(geometric_selection_probs(1, 0.3), [1.0])


def test_geometric_probs_validation():
    with pytest.raises(ValueError):
        geometric_selection_probs(0, 0.5)
    with pytest.raises(ValueError):
        geometric_selection_probs(5, 0.0)
    with pytest.raises(ValueError):
        geometric_selection_probs(5, 1.0)


def test_sample_ranks_matches_distribution():
    n, q, draws = 8, 0.25, 100_000
    probs = geometric_selection_probs(n, q)
    cum = np.cumsum(probs)
    cum[-1] = 1.0
    rng = np.random.default_rng(42)
    ranks = sample_ranks(cum, rng, draws)
    emp = np.bincount(ranks, minlength=n) / draws
    sigma = np.sqrt(probs * (1.0 - probs) / draws)
    assert (np.abs(emp - probs) <= 3.0 * sigma + 1e-12).all()


# ------------------------------------------------------------------ crossover

def test_crossover_endpoints():
    p1 = np.array([1.0, 2.0, 3.0])
    p2 = np.array([4.0, 5.0, 6.0])
    c1, c2 = arithmetic_crossover(p1, p2, 1.0)
    np.testing.assert_array_equal(c1, p1)
    np.testing.assert_array_equal(c2, p2)


def test_crossover_midpoint():
    p1 = np.array([0.0, 10.0])
    p2 = np.array([2.0, 20.0])
    c1, c2 = arithmetic_crossover(p1, p2, 0.5)
    np.testing.assert_array_equal(c1, [1.0, 15.0])
    np.testing.assert_array_equal(c2, c1)


def test_crossover_children_stay_in_parent_envelope():
    rng = np.random.default_rng(9)
    for _ in range(50):
        p1 = rng.uniform(0.0, 10.0, 3)
        p2 = rng.uniform(0.0, 10.0, 3)
        a = float(rng.random())
        lo = np.minimum(p1, p2) - 1e-12
        hi = np.maximum(p1, p2) + 1e-12
        for child in arithmetic_crossover(p1, p2, a):
            assert ((lo <= child) & (child <= hi)).all()


# ------------------------------------------------------------------- mutation

def test_mutate_zero_probability_is_identity():
    rng = np.random.default_rng(0)
    genes = np.array([[0.5, 12.0, 50.0]])
    out = mutate(genes, BOWL_BOUNDS, 0.0, rng)
    np.testing.assert_array_equal(out, genes)


def test_mutate_full_probability_resamples_in_bounds():
    rng = np.random.default_rng(0)
    genes = np.zeros((100, 3))
    out = mutate(genes, BOWL_BOUNDS, 1.0, rng)
    assert not np.array_equal(out, genes)
    assert (out >= BOWL_BOUNDS.low).all() and (out <= BOWL_BOUNDS.high).all()


def test_mutate_rate_matches_probability():
    rng = np.random.default_rng(123)
    genes = np.full((100_000, 3), 0.5)
    bounds = GeneBounds([0.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    out = mutate(genes, bounds, 0.001, rng)
    frac = np.mean(out != genes)
    assert frac == pytest.approx(0.001, abs=0.0005)


# --------------------------------------------------------------------- run_ga

def test_run_ga_finds_the_bowl_center():
    config = GaConfig(bounds=BOWL_BOUNDS, rng_seed=1)
    result = run_ga(config, bowl_fitness_pop)
    rel_err = np.abs(result.best.genes - BOWL_CENTER) / BOWL_CENTER
    assert (rel_err <= 0.01).all()
    assert result.best_index_value == pytest.approx(1.0 / result.best.fitness)


def test_run_ga_is_deterministic():
    config = GaConfig(bounds=BOWL_BOUNDS, rng_seed=3)
    r1 = run_ga(config, bowl_fitness_pop)
    r2 = run_ga(GaConfig(bounds=BOWL_BOUNDS, rng_seed=3), bowl_fitness_pop)
    np.testing.assert_array_equal(r1.best.genes, r2.best.genes)
    assert r1.best.fitness == r2.best.fitness
    np.testing.assert_array_equal(r1.fitness_history, r2.fitness_history)
    assert r1.converged == r2.converged


def test_run_ga_history_is_monotone():
    result = run_ga(GaConfig(bounds=BOWL_BOUNDS, rng_seed=7), bowl_fitness_pop)
    assert len(result.fitness_history) == 300
    assert (np.diff(result.fitness_history) >= 0.0).all()


def test_run_ga_population_stays_in_bounds():
    seen = []

    def spy(pop):
        seen.append(pop.copy())
        return bowl_fitness_pop(pop)

    run_ga(GaConfig(bounds=BOWL_BOUNDS, pop_size=30, max_generations=40,
                    rng_seed=11), spy)
    assert len(seen) == 40
    for pop in seen:
        assert pop.shape == (30, 3)
        assert (pop >= BOWL_BOUNDS.low).all()
        assert (pop <= BOWL_BOUNDS.high).all()


def test_run_ga_tolerates_non_finite_fitness():
    def patchy(pop):
        f = bowl_fitness_pop(pop)
        f[pop[:, 0] > 0.6] = np.nan
        return f

    result = run_ga(GaConfig(bounds=BOWL_BOUNDS, pop_size=20,
                             max_generations=30, rng_seed=13), patchy)
    assert np.isfinite(result.best.fitness)
    assert np.isfinite(result.fitness_history).all()


def test_run_ga_flags_convergence_on_flat_objective():
    result = run_ga(GaConfig(bounds=BOWL_BOUNDS, pop_size=10,
                             max_generations=60, rng_seed=2),
                    lambda pop: np.ones(len(pop)))
    assert result.converged
    assert result.best.fitness == 1.0


def test_ga_config_validation():
    with pytest.raises(ValueError):
        GaConfig(bounds=BOWL_BOUNDS, selection_q=0.0)
    with pytest.raises(ValueError):
        GaConfig(bounds=BOWL_BOUNDS, mutation_prob=1.5)
    with pytest.raises(ValueError):
        GaConfig(bounds=BOWL_BOUNDS, pop_size=10, elite_count=10)
    with pytest.raises(ValueError):
        GaConfig(bounds=BOWL_BOUNDS, pop_size=10, crossover_pairs=2)
    config = GaConfig(bounds=BOWL_BOUNDS, pop_size=10)
    assert config.crossover_pairs == 5


@pytest.mark.parametrize("generations", [0, -3])
def test_ga_config_needs_a_generation(generations):
    # run_ga with no generation has no best chromosome to return
    with pytest.raises(ValueError, match="max_generations"):
        GaConfig(bounds=BOWL_BOUNDS, max_generations=generations)


def test_ga_result_types():
    result = run_ga(GaConfig(bounds=BOWL_BOUNDS, pop_size=10,
                             max_generations=5, rng_seed=0),
                    bowl_fitness_pop)
    assert isinstance(result, GaResult)
    assert isinstance(result.best, Chromosome)
    assert BOWL_BOUNDS.contains(result.best.genes)
