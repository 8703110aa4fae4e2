"""Sweep orchestration, batch evaluation, CSV/SVG emission."""

import csv
import math
import os

import numpy as np
import pytest

from pidga.experiment import (DEFAULT_DELAYS, ExperimentConfig, SweepReport,
                              SweepRow, derive_seed, emit_csv,
                              evaluate_objective, fmt6, loop_margin,
                              loop_polys, report_gains, run_sweep,
                              simulate_gains)
from pidga.lti import (batch_step, closed_loop, open_loop, pid_tf, realize,
                       step_response)
from pidga.metrics import (OBJECTIVES, PerformanceIndices, StandardMeasures,
                           index_sums, indices)
from pidga.delay import dfr_delay, true_margin
from pidga.plots import INDEX_FIGS, MEASURE_FIGS, emit_plots
from pidga.tuners import (PidGains, PlantFolpd, bounds_from_baseline,
                          ziegler_nichols)

PLANT = PlantFolpd(1.0, 1.0, 0.0)

TINY = dict(delays=(0.5,), objectives=("ise",), pop_size=12, generations=15,
            master_seed=3)


# ------------------------------------------------------------------ seeds

def test_derive_seed_is_stable_and_keyed():
    assert derive_seed(0, 5, 3) == derive_seed(0, 5, 3)
    assert derive_seed(0, 5, 3) != derive_seed(0, 5, 4)
    assert derive_seed(0, 5, 3) != derive_seed(1, 5, 3)
    assert derive_seed(0, 5, 3) != derive_seed(0, 5, 3, 1)
    assert 0 <= derive_seed(12345, 8, 2) < 2**64


# ----------------------------------------------------------- simulation paths

def _box_rows(tau, count, seed):
    """The plant at tau and seeded random gene rows in its Z-N box."""
    plant = PlantFolpd(1.0, 1.0, tau)
    box = bounds_from_baseline(ziegler_nichols(plant), 2.0)
    rng = np.random.default_rng(seed)
    return plant, box.low + rng.random((count, 3)) * box.span


def test_simulate_gains_matches_manual_composition():
    gains = PidGains(0.6, 12.0, 60.0)
    plant = PlantFolpd(1.0, 1.0, 0.1)
    direct = simulate_gains(gains, plant, 0.1)
    loop = closed_loop(pid_tf(gains), plant.lag_tf(), dfr_delay(0.1).tf)
    manual = step_response(loop)
    np.testing.assert_array_equal(direct.y, manual.y)


@pytest.mark.parametrize("tau,gains", [
    (0.1, (0.6, 12.0, 60.0)),
    (0.25, (0.6, 4.8, 9.6)),
    (1.0, (0.3, 0.9, 0.45)),
])
def test_batch_evaluation_matches_single_path(tau, gains):
    plant = PlantFolpd(1.0, 1.0, tau)
    resp = simulate_gains(gains, plant, tau)
    single = indices(resp)
    for objective in OBJECTIVES:
        vals, div = evaluate_objective(np.array([gains]), plant, tau,
                                       objective)
        assert not div[0]
        assert vals[0] == single.by_name(objective)


def test_batch_divergence_flags_match_single_path():
    plant = PlantFolpd(1.0, 1.0, 1.0)
    rows = np.array([
        [0.6, 1.2, 0.6],       # Z-N point, stable
        [1.2, 12.0, 24.0],     # far beyond the margin
    ])
    vals, div = evaluate_objective(rows, plant, 1.0, "ise")
    for row, flag in zip(rows, div):
        resp = simulate_gains(PidGains(*row), plant, 1.0)
        assert resp.diverged == bool(flag)
    assert not div[0]


def test_evaluate_objective_is_its_column_of_index_sums():
    # each objective sums only its own error power, bit for bit as in the
    # full set, on a population with diverged (clamped) rows
    plant, genes = _box_rows(0.1, 40, 4)
    num_l, den_l = loop_polys(genes, plant, 0.1)
    Y, diverged = batch_step(*realize(num_l, den_l + num_l), 0.01, 1501)
    assert 0 < diverged.sum() < len(genes)
    full = index_sums(1.0 - Y, np.arange(1501) * 0.01, 0.01, 15.0)
    for i, objective in enumerate(OBJECTIVES):
        vals, div = evaluate_objective(genes, plant, 0.1, objective)
        np.testing.assert_array_equal(div, diverged)
        np.testing.assert_array_equal(vals, full[i])


def test_reported_row_is_the_population_row():
    # a reported row's indices are the values the GA ranked its gains by,
    # bit for bit, diverged (clamped) rows included
    diverged = 0
    for tau in (0.01, 0.1, 1.0):
        plant, genes = _box_rows(tau, 40, 7)
        resps = [simulate_gains(g, plant, tau) for g in genes]
        flags = [r.diverged for r in resps]
        diverged += sum(flags)
        single = [indices(r) for r in resps]
        for objective in OBJECTIVES:
            vals, div = evaluate_objective(genes, plant, tau, objective)
            assert div.tolist() == flags
            assert vals.tolist() == [i.by_name(objective) for i in single]
    assert 0 < diverged < 120


def test_loop_polys_rows_do_not_depend_on_the_row_count():
    plant, genes = _box_rows(0.1, 80, 9)
    num_l, den_l = loop_polys(genes, plant, 0.1)
    assert num_l.shape == (80, 5) and den_l.shape == (5,)
    for g, row in zip(genes, num_l):
        one, den_one = loop_polys(g, plant, 0.1)
        np.testing.assert_array_equal(one[0], row)
        np.testing.assert_array_equal(den_one, den_l)


def test_report_gains_marks_a_negative_final_value_invalid():
    # an unstable box row that stays under the divergence limit and ends at
    # y < 0 has no measures: it is reported like a diverged row
    plant = PlantFolpd(1.0, 1.0, 1.0)
    gains = PidGains(1.1, 0.56, 0.094)
    resp = simulate_gains(gains, plant, 1.0)
    assert not resp.diverged and resp.y[-1] < 0
    idx, meas, valid = report_gains(gains, plant, 1.0)
    assert not valid
    assert all(math.isnan(idx.by_name(o)) for o in OBJECTIVES)
    assert math.isnan(meas.percent_overshoot)


def test_reported_rows_are_scale_covariant():
    # K e^{-tau s}/(T s + 1) with Z-N-derived gains is one problem in tau/T:
    # with tau, dt and the horizon scaled by T, IAE and ISE scale by T, ITAE
    # and ITSE by T^2 and the times by T; MSE, the overshoot and both
    # margins keep their values
    K, T = 2.5, 3.0
    power = {"mse": 0, "iae": 1, "ise": 1, "itae": 2, "itse": 2}
    rng = np.random.default_rng(13)
    valid = 0
    for tau in DEFAULT_DELAYS:
        plants = (PlantFolpd(1.0, 1.0, tau), PlantFolpd(K, T, T * tau))
        zn = [ziegler_nichols(p) for p in plants]
        boxes = [bounds_from_baseline(g, 2.0) for g in zn]
        rows = [zn] + [[PidGains(*(b.low + u * b.span)) for b in boxes]
                       for u in rng.random((8, 3))]
        for g1, g2 in rows:
            idx1, m1, ok1 = report_gains(g1, plants[0], tau)
            idx2, m2, ok2 = report_gains(g2, plants[1], T * tau, T * 0.01,
                                         T * 15.0)
            assert ok1 == ok2
            c1, c2 = (true_margin(open_loop(pid_tf(g), p.lag_tf()), p.delay)
                      for g, p in ((g1, plants[0]), (g2, plants[1])))
            assert c2 == pytest.approx(c1, rel=1e-11)
            if not ok1:
                continue
            valid += 1
            for o, k in power.items():
                assert idx2.by_name(o) == pytest.approx(
                    T ** k * idx1.by_name(o), rel=1e-10)
            for f in ("settling_time", "rise_time", "peak_time"):
                assert getattr(m2, f) == pytest.approx(T * getattr(m1, f),
                                                       rel=1e-11)
            for f in ("percent_overshoot", "stability_margin"):
                assert getattr(m2, f) == pytest.approx(
                    getattr(m1, f), rel=1e-11, abs=1e-11, nan_ok=True)
    assert 0 < valid < 9 * len(DEFAULT_DELAYS)


def test_loop_margin_nan_for_unstable_gains():
    plant = PlantFolpd(1.0, 1.0, 1.0)
    assert loop_margin(PidGains(0.6, 1.2, 0.6), plant, 1.0) > 1.0
    assert math.isnan(loop_margin(PidGains(1.2, 12.0, 24.0), plant, 1.0))


# ---------------------------------------------------------------------- sweep

def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(delays=())
    with pytest.raises(ValueError):
        ExperimentConfig(delays=(0.5, 0.1))
    with pytest.raises(ValueError):
        ExperimentConfig(delays=(-0.1, 0.5))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            ExperimentConfig(delays=(0.1, bad))
    with pytest.raises(ValueError):
        ExperimentConfig(objectives=("ise", "rmse"))
    with pytest.raises(ValueError):
        ExperimentConfig(dt=0.0)
    assert ExperimentConfig().delays == DEFAULT_DELAYS


def test_small_sweep_layout_and_consistency():
    config = ExperimentConfig(**TINY)
    report = run_sweep(config)
    assert report.methods == ("zn", "ga-ise")
    assert len(report.rows) == 2
    zn, ga = report.rows
    assert zn.method == "zn" and ga.method == "ga-ise"
    assert zn.delay == ga.delay == 0.5
    # every reported row must reproduce its stored indices when re-simulated
    for row in report.rows:
        if not row.valid:
            continue
        resp = simulate_gains(row.gains, PlantFolpd(1.0, 1.0, row.delay),
                              row.delay, config.dt, config.horizon)
        again = indices(resp)
        for o in OBJECTIVES:
            assert again.by_name(o) == pytest.approx(row.indices.by_name(o),
                                                     rel=1e-9)
    # retry bookkeeping: a kept row that lost to the baseline is marked
    if ga.valid and ga.indices.ise > zn.indices.ise:
        assert ga.retried


def test_sweep_progress_callback_and_determinism(tmp_path):
    config = ExperimentConfig(**TINY)
    lines = []
    r1 = run_sweep(config, progress=lines.append)
    r2 = run_sweep(ExperimentConfig(**TINY))
    assert any("zn gains" in ln for ln in lines)
    d1 = tmp_path / "a"
    d2 = tmp_path / "b"
    emit_csv(r1, d1)
    emit_csv(r2, d2)
    for name in ("measures.csv", "indices.csv", "details.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_sweep_rows_carry_their_cell_seeds():
    config = ExperimentConfig(**TINY)
    report = run_sweep(config)
    ga = report.rows[1]
    if ga.retried:
        # the kept row is whichever of the two seeded runs won
        assert ga.seed in (derive_seed(3, 0, 0), derive_seed(3, 0, 0, 1))
    else:
        assert ga.seed == derive_seed(3, 0, 0)


# ------------------------------------------------------- synthetic report data

def _measures(seed):
    rng = np.random.default_rng(seed)
    po, st, rt, pt, sm = rng.uniform(0.5, 50.0, 5)
    return StandardMeasures(po, st, rt, pt, 0.01, sm)


def _indices(seed):
    rng = np.random.default_rng(seed)
    return PerformanceIndices(*rng.uniform(0.1, 3.0, 5))


def synthetic_report():
    config = ExperimentConfig(delays=(0.1, 0.2, 0.4), objectives=("iae", "ise"))
    rows = []
    for di, tau in enumerate(config.delays):
        rows.append(SweepRow(tau, "zn", PidGains(0.6, 1.2, 0.6),
                             _indices(di), _measures(di), True, 0))
        for oi, obj in enumerate(config.objectives):
            rows.append(SweepRow(tau, f"ga-{obj}", PidGains(0.5, 1.0, 0.5),
                                 _indices(10 * di + oi),
                                 _measures(10 * di + oi), oi == 0,
                                 derive_seed(0, di, oi)))
    return SweepReport(config, tuple(rows))


def test_report_averages_are_column_means():
    report = synthetic_report()
    avg = report.average_indices()
    for m in report.methods:
        rows = report.method_rows(m)
        assert len(rows) == 3
        for o in OBJECTIVES:
            expected = np.mean([r.indices.by_name(o) for r in rows])
            assert avg[m].by_name(o) == pytest.approx(expected, rel=1e-12)
    avgm = report.average_measures()
    for m in report.methods:
        rows = report.method_rows(m)
        expected = np.mean([r.measures.percent_overshoot for r in rows])
        assert avgm[m].percent_overshoot == pytest.approx(expected, rel=1e-12)


# ------------------------------------------------------------------------ csv

def test_fmt6_formatting():
    assert fmt6(0.0) == "0.00000"
    assert fmt6(1.0) == "1.00000"
    assert fmt6(-0.5) == "-0.500000"
    assert fmt6(1234.567891) == "1234.57"
    assert fmt6(0.0012345678) == "0.00123457"
    assert fmt6(999999.4) == "999999"
    assert fmt6(1e6) == "1.00000e+06"
    assert fmt6(1.23456789e-4) == "1.23457e-04"
    assert fmt6(float("nan")) == "nan"
    assert fmt6(float("inf")) == "inf"
    assert fmt6(float("-inf")) == "-inf"


def test_emit_csv_layout(tmp_path):
    report = synthetic_report()
    paths = emit_csv(report, tmp_path)
    assert [os.path.basename(p) for p in paths] == [
        "measures.csv", "indices.csv", "details.csv"]

    with open(paths[0], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["method", "percent_overshoot", "settling_time",
                       "rise_time", "peak_time", "stability_margin"]
    assert [r[0] for r in rows[1:]] == ["zn", "ga-iae", "ga-ise"]

    with open(paths[1], newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["delay", "method"] + list(OBJECTIVES)
    data = rows[1:]
    assert len(data) == 3 * 3 + 3  # (1 zn + 2 ga) x 3 delays, then averages
    assert [r[1] for r in data[-3:]] == ["zn", "ga-iae", "ga-ise"]
    assert all(r[0] == "avg" for r in data[-3:])

    with open(paths[2], newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    assert header[:9] == ["delay", "method", "seed", "converged", "retried",
                          "valid", "kd", "kp", "ki"]
    # details carry full precision: fields round-trip through float()
    first = dict(zip(header, rows[1]))
    assert float(first["kd"]) == 0.6
    assert float(first["delay"]) == 0.1


def test_details_csv_numbers_parse_as_floats(tmp_path):
    report = run_sweep(ExperimentConfig(**TINY))
    with open(emit_csv(report, tmp_path)[2], newline="") as fh:
        records = list(csv.DictReader(fh))
    assert len(records) == 2
    for record in records:
        for key, cell in record.items():
            if key != "method":
                float(cell)  # GA gains once came out as "np.float64(...)"


def test_emit_csv_six_significant_digits(tmp_path):
    report = synthetic_report()
    paths = emit_csv(report, tmp_path)
    with open(paths[1], newline="") as fh:
        next(fh)
        for record in csv.reader(fh):
            for cell in record[2:]:
                # the printed value is already at 6 significant digits, so
                # reformatting its parse must reproduce it exactly
                assert fmt6(float(cell)) == cell


# ----------------------------------------------------------------------- svg

def test_emit_plots_files_and_structure(tmp_path):
    report = synthetic_report()
    paths = emit_plots(report, tmp_path)
    names = [os.path.basename(p) for p in paths]
    assert names == [f[0] for f in MEASURE_FIGS + INDEX_FIGS]
    assert names[0] == "fig3a_po.svg"
    assert names[-1] == "fig4e_itse.svg"
    for p in paths:
        with open(p) as fh:
            svg = fh.read()
        assert svg.count('<polyline class="series"') == len(report.methods)
        assert svg.count('class="legend-label"') == len(report.methods)
        # every finite series carries one point per delay
        for chunk in svg.split('points="')[1:]:
            pts = chunk.split('"')[0].split()
            assert len(pts) == len(report.config.delays)


def test_emit_plots_log_axis_on_rise_time(tmp_path):
    report = synthetic_report()
    paths = emit_plots(report, tmp_path)
    by_name = {os.path.basename(p): p for p in paths}
    with open(by_name["fig3c_rt.svg"]) as fh:
        assert 'class="chart log"' in fh.read()
    with open(by_name["fig3a_po.svg"]) as fh:
        assert 'class="chart linear"' in fh.read()


def test_emit_plots_needs_two_delays():
    config = ExperimentConfig(delays=(0.1,), objectives=("iae",))
    row = SweepRow(0.1, "zn", PidGains(0.6, 1.2, 0.6), _indices(0),
                   _measures(0), True, 0)
    with pytest.raises(ValueError):
        emit_plots(SweepReport(config, (row,)), "unused")
