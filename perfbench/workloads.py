"""The pidga benchmark workloads, their timed units and their output checks.

Every workload drives pidga in-process through its public functions, from a
single caller that waits for each call (a closed loop with one client).  A
workload is measured in *units*: one unit is one complete piece of user work
(a sweep, a tune, a pass over the row set) that makes the same outputs every
time for the same seed, so repeated units double as a determinism check.

Calls into pidga go through module attributes (`experiment.simulate_gains`,
not a name imported once) so that the tracer's wrappers see them.
"""

import csv
import hashlib
import io
import logging
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from pidga import delay, experiment, lti, metrics, plots
from pidga.experiment import DEFAULT_DELAYS, ExperimentConfig
from pidga.lti import TransferFunction
from pidga.metrics import OBJECTIVES
from pidga.tuners import PidGains, bounds_from_baseline, ziegler_nichols

from oracle import exact_ise

# The paper's grid at the default population, dt and horizon, with the
# generation budget cut from 300 so that several sweeps fit in one run.
SWEEP_GENERATIONS = 10
# `pidga tune` at ten times the default population: one cell, so cross-cell
# parallelism has nothing to gain here, and the (p, nsamp, 4) state tensor
# (about 47 MB at p = 800) no longer fits a 32 MiB L3.
TUNE_POP = 800
TUNE_GENERATIONS = 25
TUNE_DELAY = 0.1
TUNE_OBJECTIVE = "ise"
# Random gain sets per delay for row-report: 9 x 112 = 1,008 rows.
ROWS_PER_DELAY = 112

STATES = 4  # order of the DFR loop's companion form


@dataclass
class Unit:
    """Measurements and outputs of one timed unit."""

    wall: float
    cells: list          # seconds per (delay, objective) cell
    row_ms: list         # per reported row, its timings in milliseconds
    evals: int           # 1,501-sample step responses simulated
    digests: dict        # output name -> SHA-256
    # (tau, flagged, routh_stable, bad): a row is bad when it failed or
    # its divergence flag contradicts the exact stability verdict
    verdicts: list = field(default_factory=list)
    # (method, |ISE - exact| / exact) over stable reported rows
    rel_errs: list = field(default_factory=list)
    # (delay, objective) -> best Z-N index / row index among graded rows
    cell_gain: dict = field(default_factory=dict)
    attempted: int = 0   # operations: reported rows
    failed: int = 0      # operations that raised or gave an invalid row
    retried: int = 0     # GA cells rerun with the alternate seed
    outputs: list = field(default_factory=list)  # row-report: per-row outputs

    def gain(self, tau, objective, ratio):
        key = (tau, objective)
        self.cell_gain[key] = max(self.cell_gain.get(key, 0.0), ratio)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def loop_tf(gains, plant, tau):
    """Closed loop of the DFR model (the Routh verdict's polynomial)."""
    return lti.closed_loop(lti.pid_tf(gains), plant.lag_tf(),
                           delay.dfr_delay(tau).tf)


def csv_float(text):
    """A details.csv number.  Under numpy 2 the GA gains are written as
    repr(np.float64), e.g. "np.float64(0.4955...)"; the inner repr is exact."""
    if text.startswith("np.float64(") and text.endswith(")"):
        text = text[len("np.float64("):-1]
    return float(text)


# --------------------------------------------------------------------------
# GA workloads: sweep-grid and tune-wide

class GaWorkload:
    """run_sweep over a configured grid; outputs are the sweep's CSVs."""

    def __init__(self, name, make_config, emit_timed):
        self.name = name
        self.make_config = make_config
        self.emit_timed = emit_timed  # CSV/SVG writes inside the timed part

    def prepare(self, seed):
        return self.make_config(seed)

    def warmup(self, config):
        tau = config.delays[0]
        plant = replace(config.plant, delay=tau)
        box = bounds_from_baseline(ziegler_nichols(plant), config.bounds_factor)
        rng = np.random.default_rng(0)
        pop = box.low + rng.random((config.pop_size, 3)) * box.span
        experiment.evaluate_objective(pop, plant, tau, config.objectives[0],
                                      config.dt, config.horizon)

    def unit(self, config, outdir):
        stamps = []
        t0 = time.perf_counter()
        report = experiment.run_sweep(
            config, progress=lambda msg: stamps.append((time.perf_counter(),
                                                        msg)))
        if self.emit_timed:
            experiment.emit_csv(report, outdir)
            plots.emit_plots(report, outdir)
        wall = time.perf_counter() - t0
        if not self.emit_timed:
            experiment.emit_csv(report, outdir)
        cells = []
        prev = t0
        for t, msg in stamps:
            if ": ga-" in msg:
                cells.append(t - prev)
            prev = t
        runs = len(config.delays) * len(config.objectives) + report.n_retried
        evals = (runs * config.pop_size * config.generations
                 + runs + len(config.delays))
        return Unit(wall, cells, [], evals, digests={},
                    attempted=len(report.rows), failed=report.n_invalid,
                    retried=report.n_retried)

    def check(self, config, outdir, unit, problems):
        """Re-simulate every reported row from details.csv and grade it.

        The reporting chain simulate_gains -> indices -> standard_measures
        -> loop_margin runs twice per valid row, timed (row_ms); both
        re-simulated ISE values must equal the reported one bit for bit.
        The reported ISE is graded against the exact continuous ISE of the
        same loop.
        """
        for name in sorted(os.listdir(outdir)):
            if name.endswith(".csv"):
                with open(os.path.join(outdir, name), "rb") as fh:
                    unit.digests[name] = sha256(fh.read())
        with open(os.path.join(outdir, "details.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        expected = len(config.delays) * (1 + len(config.objectives))
        if len(rows) != expected:
            problems.append(f"details.csv has {len(rows)} rows, "
                            f"expected {expected}")
        zn = {r["delay"]: r for r in rows if r["method"] == "zn"}
        for r in rows:
            tau = float(r["delay"])
            plant = replace(config.plant, delay=tau)
            gains = PidGains(*(csv_float(r[k]) for k in ("kd", "kp", "ki")))
            stable = metrics.routh_stable(loop_tf(gains, plant, tau).den)
            valid = r["valid"] == "1"
            unit.verdicts.append((tau, not valid, stable,
                                  not (valid and stable)))
            if r["method"] != "zn":
                box = bounds_from_baseline(ziegler_nichols(plant),
                                           config.bounds_factor)
                if not box.contains(gains):
                    problems.append(f"{r['method']} at delay {tau:g}: "
                                    "gains outside the Z-N box")
            if not valid:
                continue
            times = []
            for _ in range(2):
                ise = self.report_row(config, gains, plant, tau, times)
                if ise != float(r["ise"]):
                    problems.append(f"{r['method']} at delay {tau:g}: "
                                    f"re-simulated ise {ise!r} != reported "
                                    f"{r['ise']}")
            unit.row_ms.append(times)
            if stable:
                loop = loop_tf(gains, plant, tau)
                exact = exact_ise(loop.num, loop.den)
                unit.rel_errs.append((r["method"], abs(float(r["ise"]) - exact)
                                      / exact))
                if r["method"] != "zn":
                    obj = r["method"][len("ga-"):]
                    unit.gain(tau, obj,
                              float(zn[r["delay"]][obj]) / float(r[obj]))

    @staticmethod
    def report_row(config, gains, plant, tau, row_ms):
        """The reporting chain for one row, timed into row_ms; returns ISE."""
        t0 = time.perf_counter()
        resp = experiment.simulate_gains(gains, plant, tau, config.dt,
                                         config.horizon)
        ise = metrics.indices(resp).ise
        metrics.standard_measures(resp)
        experiment.loop_margin(gains, plant, tau)
        row_ms.append((time.perf_counter() - t0) * 1e3)
        return ise


def _sweep_config(seed):
    return ExperimentConfig(generations=SWEEP_GENERATIONS, master_seed=seed)


def _tune_config(seed):
    return ExperimentConfig(delays=(TUNE_DELAY,), objectives=(TUNE_OBJECTIVE,),
                            pop_size=TUNE_POP, generations=TUNE_GENERATIONS,
                            master_seed=seed)


# --------------------------------------------------------------------------
# row-report: the single-path reporting chain on random gain sets

@dataclass(frozen=True)
class RowInput:
    tau: float
    plant: object
    gains: PidGains
    zn: object  # the Z-N baseline's PerformanceIndices at this delay


class RowReport:
    """Seeded random gain sets inside each delay's Z-N box, all 9 delays.

    The box [0, 2 x Z-N gain] holds stable and unstable loops alike, so the
    divergence flag can be graded against the exact Routh verdict.
    """

    name = "row-report"

    def prepare(self, seed):
        config = ExperimentConfig(master_seed=seed)
        inputs = []
        for di, tau in enumerate(config.delays):
            plant = replace(config.plant, delay=tau)
            zn = ziegler_nichols(plant)
            zn_idx = metrics.indices(experiment.simulate_gains(
                zn, plant, tau, config.dt, config.horizon))
            box = bounds_from_baseline(zn, config.bounds_factor)
            rng = np.random.default_rng(
                np.random.SeedSequence(seed, spawn_key=(di,)))
            genes = box.low + rng.random((ROWS_PER_DELAY, 3)) * box.span
            inputs += [RowInput(tau, plant, PidGains(*map(float, g)), zn_idx)
                       for g in genes]
        return config, inputs

    def warmup(self, state):
        config, inputs = state
        self.row(config, inputs[0])

    @staticmethod
    def row(config, r):
        """The per-row work: the reporting chain, the exact delay line and
        the Routh verdict.  Returns the row's outputs."""
        resp = experiment.simulate_gains(r.gains, r.plant, r.tau, config.dt,
                                         config.horizon)
        idx = metrics.indices(resp)
        try:
            overshoot = metrics.standard_measures(resp).percent_overshoot
        except ValueError:  # diverged, or a non-positive final value
            overshoot = math.nan
        margin = experiment.loop_margin(r.gains, r.plant, r.tau)
        ctrl = lti.pid_tf(r.gains)
        lag = r.plant.lag_tf()
        line = delay.delayed_step_sim(
            TransferFunction(lti.poly_mul(ctrl.num, lag.num),
                             lti.poly_mul(ctrl.den, lag.den)),
            r.tau, config.dt, config.horizon)
        stable = metrics.routh_stable(loop_tf(r.gains, r.plant, r.tau).den)
        dead = int(round(r.tau / config.dt))
        return (resp.diverged, stable, idx, overshoot, margin,
                float(line.e @ line.e) * config.dt, bool(line.y[:dead].any()))

    def unit(self, state, outdir):
        config, inputs = state
        unit = Unit(0.0, [], [], 2 * len(inputs), {},
                    attempted=len(inputs))
        t0 = cell_start = time.perf_counter()
        for i, r in enumerate(inputs):
            t = time.perf_counter()
            try:
                unit.outputs.append(self.row(config, r))
            except Exception as exc:  # a failed row is counted, not fatal
                unit.outputs.append(f"{type(exc).__name__}: {exc}")
                unit.failed += 1
                print(f"row {i} (tau={r.tau:g}) raised {unit.outputs[-1]}",
                      file=sys.stderr)
            end = time.perf_counter()
            unit.row_ms.append([(end - t) * 1e3])
            if i + 1 == len(inputs) or inputs[i + 1].tau != r.tau:
                unit.cells.append(end - cell_start)
                cell_start = end
        unit.wall = time.perf_counter() - t0
        return unit

    def check(self, state, outdir, unit, problems):
        """Grade each row and digest the row outputs.

        A row's divergence flag is graded against the exact Routh verdict,
        and its ISE, when the loop is stable and unflagged, against the
        exact continuous ISE.
        """
        config, inputs = state
        buf = io.StringIO()
        out = csv.writer(buf)
        for r, o in zip(inputs, unit.outputs):
            if isinstance(o, str):  # the row raised; counted in unit.failed
                out.writerow([repr(r.tau), o])
                continue
            diverged, stable, idx, overshoot, margin, line_ise, early = o
            out.writerow([repr(r.tau), repr(r.gains.kd), repr(r.gains.kp),
                          repr(r.gains.ki), int(diverged), int(stable),
                          repr(idx.ise), repr(line_ise), repr(overshoot),
                          repr(margin)])
            unit.verdicts.append((r.tau, diverged, stable,
                                  diverged == stable))
            if early:
                problems.append(f"delay line answered before tau={r.tau:g}")
            if stable != (margin > 1.0):  # nan compares False: unstable
                problems.append(f"margin {margin!r} disagrees with the "
                                f"Routh verdict {stable} at tau={r.tau:g}")
            if stable and not diverged:
                loop = loop_tf(r.gains, r.plant, r.tau)
                exact = exact_ise(loop.num, loop.den)
                unit.rel_errs.append(("random", abs(idx.ise - exact) / exact))
                for obj in OBJECTIVES:
                    unit.gain(r.tau, obj, r.zn.by_name(obj) / idx.by_name(obj))
        unit.digests["rows.csv"] = sha256(buf.getvalue().encode())


WORKLOADS = {
    w.name: w for w in (
        GaWorkload("sweep-grid", _sweep_config, emit_timed=True),
        GaWorkload("tune-wide", _tune_config, emit_timed=False),
        RowReport(),
    )
}


# --------------------------------------------------------------------------
# tracing: which pidga bindings are wrapped, and what each span counts

def _count_eval(counts, args, kwargs, result):
    genes = np.atleast_2d(args[0])
    dt = args[4] if len(args) > 4 else kwargs.get("dt", 0.01)
    horizon = args[5] if len(args) > 5 else kwargs.get("horizon", 15.0)
    p = genes.shape[0]
    k = lti.sample_count(dt, horizon)
    n = STATES
    counts["rows"] = p
    counts["penalized"] = int(np.count_nonzero(result[1]))
    counts["row_steps"] = p * (k - 1)
    # Computed from the shapes, not measured: per step a (p, n, n) x (p, n)
    # product plus the N add, then y = C x + D over all samples.
    counts["flops_computed"] = (k - 1) * p * (2 * n * n + n) + p * k * 2 * n
    # 8-byte words per step: M, x, N read; x and X[:, k] written.  After
    # the loop: X read for y, the finiteness test and the magnitude test,
    # and y written.
    counts["bytes_computed"] = 8 * ((k - 1) * p * (n * n + 4 * n)
                                    + p * k * (3 * n + 1))


def _count_ga(counts, args, kwargs, result):
    counts["nonconverged"] = int(not result.converged)


def _count_steps(counts, args, kwargs, result):
    steps = len(result.y) - 1
    if result.diverged:  # samples after the break repeat the last value
        moved = np.flatnonzero(result.y != result.y[-1])
        steps = int(moved[-1]) + 1 if moved.size else 0
    counts["steps"] = steps


def _count_bytes(counts, args, kwargs, result):
    counts["bytes"] = sum(os.path.getsize(p) for p in result)


TRACE_POINTS = (
    # (module whose global is replaced, name, span name, counter)
    (experiment, "run_sweep", "experiment.run_sweep", None),
    (experiment, "run_ga", "ga.run_ga", _count_ga),
    (experiment, "evaluate_objective", "experiment.evaluate_objective",
     _count_eval),
    (experiment, "index_sums", "metrics.index_sums", None),
    (experiment, "fitness", "metrics.fitness", None),
    (experiment, "simulate_gains", "experiment.simulate_gains", None),
    (experiment, "closed_loop", "lti.closed_loop", None),
    (lti, "closed_loop", "lti.closed_loop", None),
    (experiment, "step_response", "lti.step_response", _count_steps),
    (experiment, "indices", "metrics.indices", None),
    (metrics, "indices", "metrics.indices", None),
    (experiment, "standard_measures", "metrics.standard_measures", None),
    (metrics, "standard_measures", "metrics.standard_measures", None),
    (experiment, "loop_margin", "experiment.loop_margin", None),
    (experiment, "stability_margin", "metrics.stability_margin", None),
    (metrics, "routh_stable", "metrics.routh_stable", None),
    (delay, "delayed_step_sim", "delay.delayed_step_sim", None),
    (experiment, "emit_csv", "experiment.emit_csv", _count_bytes),
    (plots, "emit_plots", "plots.emit_plots", _count_bytes),
)


def flag_split(verdicts):
    """Rows whose divergence flag contradicts the Routh verdict, by delay
    and cause."""
    m = {}
    for tau in DEFAULT_DELAYS:
        rows = [v for v in verdicts if v[0] == tau]
        m[f"rows.unstable_unflagged.d{tau!r}"] = (
            sum(1 for _, flag, stable, _ in rows if not stable and not flag),
            "count")
        m[f"rows.stable_penalized.d{tau!r}"] = (
            sum(1 for _, flag, stable, _ in rows if stable and flag), "count")
    return m


def quiet_delay_rounding():
    """delayed_step_sim warns on every call when tau/dt is not whole, which
    the grid's 0.025 and 0.075 delays are at dt = 0.01; that is expected."""
    logging.getLogger("pidga.delay").setLevel(logging.ERROR)


def setup_probe(name, seed):
    """What a fresh process pays before the first unit: import, config
    build and one warm-up call (run in a child process by run.py)."""
    quiet_delay_rounding()
    w = WORKLOADS[name]
    w.warmup(w.prepare(seed))

