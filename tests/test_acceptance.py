"""End-to-end acceptance checks, one test (and one result line) per criterion.

Criteria 5, 6 and 9 share one full default sweep (criterion 9 runs a second
one for the determinism comparison), so this file takes on the order of ten
minutes.  Two checks are expected to fail and are left failing on purpose:

* criterion 4: the rational delay model is biproper, so its closed loop jumps
  to kd/(1+kd) at t = 0 while the exact delay line is still inside its dead
  time; the full-window gap between the two simulators equals that
  feedthrough (0.375 for the reference gains) and cannot meet 0.05.
* criterion 7: the measured Ziegler-Nichols loop-gain margins grow mildly
  with delay on this grid instead of shrinking.

Both are analyzed in the project notes; the assertions state the required
behavior rather than the observed one.
"""

import numpy as np
import pytest

from pidga.delay import delayed_step_sim, dfr_delay
from pidga.experiment import (ExperimentConfig, derive_seed, emit_csv,
                              evaluate_objective, run_sweep, simulate_gains)
from pidga.ga import GaConfig, run_ga
from pidga.lti import (TransferFunction, UNITY, closed_loop, pid_tf,
                       poly_mul, step_response)
from pidga.metrics import OBJECTIVES, fitness, indices, stability_margin
from pidga.tuners import PlantFolpd, bounds_from_baseline, ziegler_nichols


@pytest.fixture(scope="module")
def default_report():
    return run_sweep(ExperimentConfig(master_seed=0))


@pytest.fixture(scope="module")
def repeat_report():
    return run_sweep(ExperimentConfig(master_seed=0))


def _zn_rows(report):
    return [r for r in report.rows if r.method == "zn"]


def _ga_row(report, tau, objective):
    return next(r for r in report.rows
                if r.delay == tau and r.method == f"ga-{objective}")


def test_criterion_1_simulation_fidelity():
    lag = TransferFunction([1.0], [1.0, 1.0])
    resp = step_response(closed_loop(UNITY, lag))  # T = 1/(s+2)
    analytic = 0.5 * (1.0 - np.exp(-2.0 * resp.t))  # unit-step response
    err = np.abs(resp.y - analytic).max()
    assert err <= 1e-6, f"max |y - analytic| = {err:.3e} > 1e-6"


def test_criterion_2_delay_model_all_pass_and_phase():
    w = np.logspace(-2, 2, 50)
    for tau in (0.01, 0.1, 1.0):
        h = dfr_delay(tau).tf(1j * w)
        mag_err = np.abs(np.abs(h) - 1.0).max()
        assert mag_err <= 1e-12, f"tau={tau}: | |H|-1 | = {mag_err:.2e}"
        band = w * tau <= 1.0
        phase_err = np.abs(np.angle(h[band]) + w[band] * tau).max()
        assert phase_err <= 0.01, f"tau={tau}: phase error {phase_err:.4f} rad"


def test_criterion_3_routh_ultimate_gain():
    loop = TransferFunction([1.0], [1.0, 3.0, 2.0, 0.0])
    margin = stability_margin(loop, UNITY)
    assert margin == pytest.approx(6.0, abs=1e-3), f"K_c = {margin}"


def test_criterion_4_dual_oracle_cross_check():
    plant = PlantFolpd(1.0, 1.0, 0.1)
    gains = ziegler_nichols(plant)
    c, lag = pid_tf(gains), plant.lag_tf()
    forward = TransferFunction(poly_mul(c.num, lag.num),
                               poly_mul(c.den, lag.den))
    exact = delayed_step_sim(forward, 0.1)
    approx = simulate_gains(gains, plant, 0.1)
    linf = np.abs(exact.y - approx.y).max()
    tail = np.abs(exact.y - approx.y)[exact.t >= 1.0].max()
    assert linf <= 0.05, (
        f"Linf(exact, rational) = {linf:.4f} > 0.05: the rational closed "
        f"loop is biproper and jumps to kd/(1+kd) = "
        f"{gains.kd / (1 + gains.kd):.4f} at t = 0, while the exact loop is "
        f"identically zero during its dead time; the gap is structural, not "
        f"numerical (for t >= 1 s the simulators agree to {tail:.4f})")


@pytest.mark.slow
def test_criterion_5_ga_dominates_baseline_all_cells(default_report):
    report = default_report
    assert report.n_invalid == 0, "sweep produced invalid rows"
    failures = []
    for zn in _zn_rows(report):
        for objective in report.config.objectives:
            ga = _ga_row(report, zn.delay, objective)
            if not ga.indices.by_name(objective) <= zn.indices.by_name(objective):
                failures.append((zn.delay, objective,
                                 ga.indices.by_name(objective),
                                 zn.indices.by_name(objective)))
    assert not failures, f"GA lost to Z-N in {len(failures)} cells: {failures}"
    assert report.n_retried <= 2, (
        f"{report.n_retried} cells needed the alternate seed (allowed: 2)")


@pytest.mark.slow
def test_criterion_6_overshoot_halved(default_report):
    avg = default_report.average_measures()
    zn_po = avg["zn"].percent_overshoot
    ga_po = avg["ga-iae"].percent_overshoot
    assert ga_po <= 0.5 * zn_po, (
        f"average overshoot: ga-iae {ga_po:.2f}% vs zn {zn_po:.2f}% "
        f"(ratio {ga_po / zn_po:.3f} > 0.5)")


def test_criterion_7_baseline_trends():
    config = ExperimentConfig(master_seed=0)
    rows = []
    for tau in config.delays:
        plant = PlantFolpd(1.0, 1.0, tau)
        gains = ziegler_nichols(plant)
        resp = simulate_gains(gains, plant, tau)
        margin = stability_margin(pid_tf(gains), plant.lag_tf(),
                                  dfr_delay(tau).tf)
        rows.append((tau, indices(resp), margin))
    for objective in OBJECTIVES:
        vals = [idx.by_name(objective) for _, idx, _ in rows]
        assert all(b >= a for a, b in zip(vals, vals[1:])), (
            f"Z-N {objective} not nondecreasing in delay: {vals}")
    margins = [m for _, _, m in rows]
    assert all(b < a for a, b in zip(margins, margins[1:])), (
        "Z-N stability margin is not strictly decreasing in delay: measured "
        + ", ".join(f"{m:.4f}" for m in margins)
        + " over delays "
        + ", ".join(f"{tau:g}" for tau, _, _ in rows)
        + " (the loop-gain margin of these loops grows mildly with delay)")


def test_criterion_8_ga_matches_grid_oracle():
    plant = PlantFolpd(1.0, 1.0, 0.25)
    bounds = bounds_from_baseline(ziegler_nichols(plant))
    axes = [np.linspace(lo, hi, 21) for lo, hi in zip(bounds.low, bounds.high)]
    mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    best_grid = np.inf
    for i in range(0, len(mesh), 1024):
        vals, div = evaluate_objective(mesh[i:i + 1024], plant, 0.25, "ise")
        vals = np.where(div, np.inf, vals)
        best_grid = min(best_grid, float(vals.min()))

    def eval_pop(pop):
        vals, div = evaluate_objective(pop, plant, 0.25, "ise")
        return fitness(vals, div)

    seed = derive_seed(0, 5, 3)  # the sweep's (tau=0.25, ise) cell
    result = run_ga(GaConfig(bounds=bounds, rng_seed=seed), eval_pop)
    ratio = result.best_index_value / best_grid
    assert ratio <= 1.05, (
        f"GA ise {result.best_index_value:.6f} vs grid best "
        f"{best_grid:.6f} (ratio {ratio:.4f})")


@pytest.mark.slow
def test_criterion_9_deterministic_csv(default_report, repeat_report,
                                       tmp_path):
    d1 = tmp_path / "first"
    d2 = tmp_path / "second"
    p1 = emit_csv(default_report, d1)
    p2 = emit_csv(repeat_report, d2)
    for a, b in zip(p1, p2):
        assert open(a, "rb").read() == open(b, "rb").read(), (
            f"{a} and {b} differ between identically seeded sweeps")
