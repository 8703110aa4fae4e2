"""The tuning experiment: delay sweep, GA-vs-baseline rows, CSV tables.

A sweep crosses a delay grid with the five error-integral objectives.  Each
(delay, objective) cell runs one seeded GA inside Ziegler-Nichols-derived
gene bounds.  The GA population and every reported row take their loop from
one builder, loop_polys, and a reported row is the population path's
single-row case: its index is the value the GA ranked it by, bit for bit.
Seeds are derived per cell from the master seed, so any row can be
recomputed in isolation.
"""

import csv
import math
import os
from dataclasses import dataclass, fields, replace

import numpy as np

from .delay import dfr_delay
from .ga import GaConfig, run_ga
from .lti import (UNITY, TransferFunction, batch_step, closed_loop, pad_left,
                  realize, sample_count, step_response)
from .metrics import (OBJECTIVES, PerformanceIndices, StandardMeasures,
                      fitness, index_sums, indices, stability_margin,
                      standard_measures)
from .tuners import PidGains, PlantFolpd, bounds_from_baseline, ziegler_nichols

DEFAULT_DELAYS = (0.01, 0.025, 0.05, 0.075, 0.1, 0.25, 0.5, 0.75, 1.0)

MEASURE_FIELDS = ("percent_overshoot", "settling_time", "rise_time",
                  "peak_time", "stability_margin")


@dataclass
class ExperimentConfig:
    plant: PlantFolpd = PlantFolpd()  # delay comes from `delays`
    delays: tuple[float, ...] = DEFAULT_DELAYS
    objectives: tuple[str, ...] = OBJECTIVES
    dt: float = 0.01
    horizon: float = 15.0
    pop_size: int = GaConfig.pop_size
    generations: int = GaConfig.max_generations
    selection_q: float = GaConfig.selection_q
    mutation_prob: float = GaConfig.mutation_prob
    elite_count: int = GaConfig.elite_count
    crossover_pairs: int = GaConfig.crossover_pairs
    bounds_factor: float = 2.0
    master_seed: int = 0

    def __post_init__(self):
        self.delays = tuple(float(d) for d in self.delays)
        self.objectives = tuple(self.objectives)
        if not self.delays or not all(0 < d < math.inf for d in self.delays):
            raise ValueError("delays must be positive and finite")
        if list(self.delays) != sorted(self.delays):
            raise ValueError("delays must be sorted ascending")
        for obj in self.objectives:
            if obj not in OBJECTIVES:
                raise ValueError(f"unknown objective {obj!r}")
        sample_count(self.dt, self.horizon)
        # a cell's GA settings, on a box of this factor: fail here, not mid-run
        self.ga_config(bounds_from_baseline(np.ones(3), self.bounds_factor), 0)

    def ga_config(self, bounds, seed):
        """The GA settings of one cell searched inside bounds."""
        return GaConfig(bounds=bounds, pop_size=self.pop_size,
                        max_generations=self.generations,
                        selection_q=self.selection_q,
                        crossover_pairs=self.crossover_pairs,
                        mutation_prob=self.mutation_prob,
                        elite_count=self.elite_count, rng_seed=seed)


@dataclass(frozen=True)
class SweepRow:
    delay: float
    method: str  # "zn" or "ga-<objective>"
    gains: PidGains
    indices: PerformanceIndices
    measures: StandardMeasures
    converged: bool
    seed: int
    retried: bool = False
    valid: bool = True


@dataclass(frozen=True)
class SweepReport:
    config: ExperimentConfig
    rows: tuple

    @property
    def methods(self):
        return ("zn",) + tuple(f"ga-{o}" for o in self.config.objectives)

    def method_rows(self, method):
        return [r for r in self.rows if r.method == method]

    @property
    def n_retried(self):
        return sum(1 for r in self.rows if r.retried)

    @property
    def n_invalid(self):
        return sum(1 for r in self.rows if not r.valid)

    def _means(self, attr, cls):
        """Per-method column means of the rows' `attr` records of type cls."""
        return {m: cls(*(float(np.mean([getattr(getattr(r, attr), f.name)
                                        for r in self.method_rows(m)]))
                         for f in fields(cls)))
                for m in self.methods}

    def average_indices(self):
        return self._means("indices", PerformanceIndices)

    def average_measures(self):
        return self._means("measures", StandardMeasures)


def derive_seed(master, *key):
    """Stable per-cell seed: the master entropy spawned at the given key."""
    ss = np.random.SeedSequence(master, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def loop_polys(genes, plant, tau):
    """Loop numerators num_L (p, 5) and the shared denominator den_L (5,) of
    L = pid(genes)*lag*DFR for gene rows (kd, kp, ki).

    num_L is linear in the genes.  Each row is its own (1, 3) x (3, 5)
    product: one gemm over the whole stack would pick its kernel, and so its
    rounding, by the row count, and a row must not depend on its company.
    """
    genes = np.atleast_2d(np.asarray(genes, dtype=float))
    lag = plant.lag_tf()
    d = dfr_delay(tau).tf
    base = np.convolve(d.num, lag.num)  # gain * delay numerator
    den_l = np.convolve(np.convolve([1.0, 0.0], lag.den), d.den)
    rows = np.array([pad_left(np.convolve(base, s_pow), len(den_l))
                     for s_pow in ([1.0, 0.0, 0.0], [1.0, 0.0], [1.0])])
    return (genes[:, None] @ rows)[:, 0], den_l


def simulate_gains(gains, plant, tau, dt=0.01, horizon=15.0):
    """Closed-loop step response of one gain set: the single-row case of
    evaluate_objective's simulation."""
    num_l, den_l = loop_polys(gains, plant, tau)
    loop = closed_loop(TransferFunction(num_l[0], den_l), UNITY)
    return step_response(loop, dt, horizon)


def loop_margin(gains, plant, tau):
    """Loop-gain stability margin for one gain set (nan if indeterminate)."""
    num_l, den_l = loop_polys(gains, plant, tau)
    try:
        return stability_margin(TransferFunction(num_l[0], den_l), UNITY)
    except ValueError:
        return math.nan


def report_gains(gains, plant, tau, dt=0.01, horizon=15.0):
    """(indices, measures with margin, valid) of one gain set's response.
    A response without measures (diverged, or ending at y <= 0) gives nan
    records and valid=False."""
    resp = simulate_gains(gains, plant, tau, dt, horizon)
    try:
        meas = standard_measures(resp)
    except ValueError:
        return (PerformanceIndices(*(math.nan,) * 5),
                StandardMeasures(*(math.nan,) * 5), False)
    return (indices(resp), meas.with_margin(loop_margin(gains, plant, tau)),
            True)


def evaluate_objective(genes, plant, tau, objective, dt=0.01, horizon=15.0):
    """Objective values and divergence flags for a stack of gene rows: one
    batch_step call on the realizations of T = num_L/(den_L + num_L).

    The leading den_T coefficient is bounded below by den_L's, the
    plant/delay part, so every row has the same-order companion form with no
    cancellation."""
    num_l, den_l = loop_polys(genes, plant, tau)
    nsamp = sample_count(dt, horizon)
    Y, diverged = batch_step(*realize(num_l, den_l + num_l), dt, nsamp)
    e = np.subtract(1.0, Y, out=Y)  # in place: Y is not needed again
    vals, = index_sums(e, np.arange(nsamp) * dt, dt, horizon, (objective,))
    return vals, diverged


# --------------------------------------------------------------------------
# sweep

def _tuned_row(config, plant, tau, objective, bounds, seed, retried):
    def eval_pop(pop):
        vals, div = evaluate_objective(pop, plant, tau, objective,
                                       config.dt, config.horizon)
        return fitness(vals, div)

    result = run_ga(config.ga_config(bounds, seed), eval_pop)
    gains = PidGains(*result.best.genes.tolist())
    idx, meas, valid = report_gains(gains, plant, tau, config.dt,
                                    config.horizon)
    return SweepRow(tau, f"ga-{objective}", gains, idx, meas,
                    result.converged, seed, retried, valid)


def run_sweep(config, progress=None):
    """Baseline + GA rows over the delay grid.

    For each delay: one Ziegler-Nichols row, then one GA row per objective
    searched inside bounds_from_baseline of that delay's baseline gains.  A
    GA row that fails to beat the baseline on its own objective is rerun
    once with the cell's alternate seed and the better of the two runs is
    kept (flagged retried).  A best response that diverged or ends at y <= 0
    marks its row invalid; the sweep continues.
    """
    say = progress or (lambda msg: None)
    rows = []
    for di, tau in enumerate(config.delays):
        plant = replace(config.plant, delay=tau)
        zn_gains = ziegler_nichols(plant)
        zn_idx, meas, valid = report_gains(zn_gains, plant, tau, config.dt,
                                           config.horizon)
        rows.append(SweepRow(tau, "zn", zn_gains, zn_idx, meas,
                             converged=True, seed=config.master_seed,
                             valid=valid))
        say(f"delay {tau:g}: zn gains kd={zn_gains.kd:g} kp={zn_gains.kp:g} "
            f"ki={zn_gains.ki:g}")
        bounds = bounds_from_baseline(zn_gains, config.bounds_factor)
        for oi, objective in enumerate(config.objectives):
            row = _tuned_row(config, plant, tau, objective, bounds,
                             derive_seed(config.master_seed, di, oi),
                             retried=False)
            beats = (row.valid and row.indices.by_name(objective)
                     <= zn_idx.by_name(objective))
            if not beats:
                alt = _tuned_row(config, plant, tau, objective, bounds,
                                 derive_seed(config.master_seed, di, oi, 1),
                                 retried=True)
                if not row.valid:
                    row = alt
                elif alt.valid and (alt.indices.by_name(objective)
                                    < row.indices.by_name(objective)):
                    row = alt
                else:
                    row = replace(row, retried=True)
            say(f"delay {tau:g}: ga-{objective} "
                f"{objective}={row.indices.by_name(objective):.6g} "
                f"(zn {zn_idx.by_name(objective):.6g})"
                + ("" if row.converged else " [non-converged]")
                + ("" if not row.retried else " [retried]"))
            rows.append(row)
    return SweepReport(config, tuple(rows))


# --------------------------------------------------------------------------
# CSV emission

def fmt6(x):
    """Six significant digits; plain decimal notation inside [1e-3, 1e6),
    lowercase scientific outside.  nan/inf spelled out."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0:
        return "0.00000"
    ax = abs(x)
    if 1e-3 <= ax < 1e6:
        digits = 5 - int(math.floor(math.log10(ax)))
        return f"{x:.{digits}f}"
    return f"{x:.5e}"


def emit_csv(report, outdir):
    """Write measures.csv / indices.csv / details.csv; returns the paths.

    measures.csv: per-method averages of the standard measures.
    indices.csv: one row per (delay, method) plus per-method average rows.
    details.csv: everything per row (gains, seed, flags) at full precision,
    enough to reproduce any row in isolation.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = []

    path = os.path.join(outdir, "measures.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["method", *MEASURE_FIELDS])
        avg = report.average_measures()
        for m in report.methods:
            w.writerow([m] + [fmt6(getattr(avg[m], f)) for f in MEASURE_FIELDS])
    paths.append(path)

    path = os.path.join(outdir, "indices.csv")
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delay", "method"] + list(OBJECTIVES))
        for row in report.rows:
            w.writerow([fmt6(row.delay), row.method]
                       + [fmt6(row.indices.by_name(o)) for o in OBJECTIVES])
        for m, idx in report.average_indices().items():
            w.writerow(["avg", m] + [fmt6(idx.by_name(o)) for o in OBJECTIVES])
    paths.append(path)

    path = os.path.join(outdir, "details.csv")
    measures = [f.name for f in fields(StandardMeasures)]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["delay", "method", "seed", "converged", "retried",
                    "valid", "kd", "kp", "ki", *OBJECTIVES, *measures])
        for r in report.rows:
            w.writerow([repr(r.delay), r.method, r.seed, int(r.converged),
                        int(r.retried), int(r.valid), repr(r.gains.kd),
                        repr(r.gains.kp), repr(r.gains.ki)]
                       + [repr(r.indices.by_name(o)) for o in OBJECTIVES]
                       + [repr(getattr(r.measures, f)) for f in measures])
    paths.append(path)
    return paths
