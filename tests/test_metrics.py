"""Performance indices, fitness, standard measures, Routh stability."""

import math

import numpy as np
import pytest

from pidga.delay import dfr_delay
from pidga.lti import (StepResponse, TransferFunction, UNITY, closed_loop,
                       open_loop, pid_tf, poly_add)
from pidga.metrics import (DIVERGED_FITNESS, FITNESS_CAP, OBJECTIVES,
                           fitness, index_sums, indices, routh_stable,
                           stability_margin, standard_measures)
from pidga.tuners import PlantFolpd, ziegler_nichols


def make_response(y, dt, diverged=False):
    y = np.asarray(y, dtype=float)
    t = np.arange(len(y)) * dt
    return StepResponse(dt, t[-1] if len(y) > 1 else dt, t, y, 1.0 - y,
                        diverged)


# -------------------------------------------------------------------- indices

def test_indices_zero_error():
    resp = make_response(np.ones(200), 0.01)
    idx = indices(resp)
    assert all(idx.by_name(o) == 0.0 for o in OBJECTIVES)


def test_indices_constant_error():
    # e = 1 on [0, 2]: every integral equals 2 (MSE = 1), up to one sample
    resp = make_response(np.zeros(201), 0.01)
    idx = indices(resp)
    assert idx.iae == pytest.approx(2.0, abs=0.02)
    assert idx.ise == pytest.approx(2.0, abs=0.02)
    assert idx.itae == pytest.approx(2.0, abs=0.02)
    assert idx.itse == pytest.approx(2.0, abs=0.02)
    assert idx.mse == pytest.approx(1.0, abs=0.02)


def test_indices_ramp_error():
    # e(t) = t on [0, 1]: IAE 1/2, ISE 1/3, ITAE 1/3, ITSE 1/4, MSE 1/3
    n = 1001
    t = np.arange(n) * 0.001
    resp = make_response(1.0 - t, 0.001)
    idx = indices(resp)
    assert idx.iae == pytest.approx(1 / 2, abs=0.01)
    assert idx.ise == pytest.approx(1 / 3, abs=0.01)
    assert idx.itae == pytest.approx(1 / 3, abs=0.01)
    assert idx.itse == pytest.approx(1 / 4, abs=0.01)
    assert idx.mse == pytest.approx(1 / 3, abs=0.01)


def test_indices_by_name_rejects_unknown():
    idx = indices(make_response(np.ones(10), 0.01))
    with pytest.raises(KeyError):
        idx.by_name("itae2")


def test_index_sums_vectorizes_over_population():
    rng = np.random.default_rng(11)
    e = rng.standard_normal((6, 300))
    t = np.arange(300) * 0.01
    batch = index_sums(e, t, 0.01, t[-1])
    for i in range(6):
        single = index_sums(e[i], t, 0.01, t[-1])
        for b, s in zip(batch, single):
            assert b[i] == s


def test_index_scaling_laws():
    rng = np.random.default_rng(3)
    e = rng.standard_normal(500)
    t = np.arange(500) * 0.01
    c = 3.7
    mse1, itae1, iae1, ise1, itse1 = index_sums(e, t, 0.01, t[-1])
    mse2, itae2, iae2, ise2, itse2 = index_sums(c * e, t, 0.01, t[-1])
    assert iae2 == pytest.approx(c * iae1, rel=1e-12)
    assert itae2 == pytest.approx(c * itae1, rel=1e-12)
    assert ise2 == pytest.approx(c * c * ise1, rel=1e-12)
    assert itse2 == pytest.approx(c * c * itse1, rel=1e-12)
    assert mse2 == pytest.approx(c * c * mse1, rel=1e-12)


def test_index_inequalities():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(10, 400))
        e = rng.standard_normal(n)
        t = np.arange(n) * 0.01
        horizon = t[-1]
        mse, itae, iae, ise, itse = index_sums(e, t, 0.01, horizon)
        assert itae <= horizon * iae + 1e-12
        assert itse <= horizon * ise + 1e-12
        # Cauchy-Schwarz on the discrete grid
        assert iae**2 <= n * ise * 0.01 + 1e-12


# -------------------------------------------------------------------- fitness

def test_fitness_is_reciprocal():
    assert fitness(4.0) == 0.25


def test_fitness_caps_vanishing_index():
    assert fitness(0.0) == FITNESS_CAP
    assert fitness(1e-15) == FITNESS_CAP


def test_fitness_penalizes_divergence():
    assert fitness(4.0, diverged=True) == DIVERGED_FITNESS
    assert fitness(0.0, diverged=True) == DIVERGED_FITNESS


def test_fitness_vectorized():
    vals = np.array([4.0, 0.0, 2.0])
    div = np.array([False, False, True])
    np.testing.assert_array_equal(fitness(vals, div),
                                  [0.25, FITNESS_CAP, DIVERGED_FITNESS])


# ----------------------------------------------------------- standard measures

def test_measures_peak_and_overshoot_on_synthetic_trace():
    t = np.arange(0, 10.001, 0.1)
    y = 1.0 + 0.53 * np.exp(-((t - 3.2) ** 2) / 0.1)
    resp = make_response(y, 0.1)
    m = standard_measures(resp)
    assert m.percent_overshoot == pytest.approx(53.0, abs=1e-9)
    assert m.peak_time == pytest.approx(3.2, abs=1e-12)
    assert m.rise_time <= m.peak_time


def test_measures_first_order_response():
    t = np.arange(1501) * 0.01
    resp = make_response(1.0 - np.exp(-t), 0.01)
    m = standard_measures(resp)
    assert m.percent_overshoot == 0.0
    assert m.rise_time == pytest.approx(3.00, abs=0.01)   # ln 20
    assert m.settling_time == pytest.approx(3.00, abs=0.01)
    assert m.steady_state_error == pytest.approx(0.0, abs=1e-6)
    assert math.isnan(m.stability_margin)


def test_measures_flat_unit_response():
    m = standard_measures(make_response(np.ones(100), 0.01))
    assert m.percent_overshoot == 0.0
    assert m.rise_time == 0.0
    assert m.settling_time == 0.0
    assert m.peak_time == 0.0
    assert m.steady_state_error == 0.0


def test_measures_settle_at_last_band_violation():
    y = np.ones(100)
    y[:10] = 0.0
    y[40] = 1.2  # late excursion outside the 5% band
    m = standard_measures(make_response(y, 0.01))
    assert m.settling_time == pytest.approx(0.41)
    assert m.percent_overshoot == pytest.approx(20.0)
    assert m.peak_time == pytest.approx(0.40)


def test_measures_reject_diverged_and_nonpositive_final():
    with pytest.raises(ValueError):
        standard_measures(make_response(np.ones(10), 0.01, diverged=True))
    with pytest.raises(ValueError):
        standard_measures(make_response(np.zeros(10), 0.01))


def test_measures_with_margin_fills_field():
    m = standard_measures(make_response(np.ones(10), 0.01))
    m2 = m.with_margin(2.5)
    assert m2.stability_margin == 2.5
    assert m2.percent_overshoot == m.percent_overshoot


# ---------------------------------------------------------------------- routh

def test_routh_stable_accepts_hurwitz():
    assert routh_stable([1.0, 1.0, 1.0])  # s^2 + s + 1


def test_routh_marginal_counts_as_unstable():
    assert not routh_stable([1.0, 1.0, 1.0, 1.0])  # roots include +-j
    assert not routh_stable([1.0, 3.0, 2.0, 6.0])  # ultimate-gain boundary


def test_routh_normalizes_leading_sign():
    assert routh_stable([-1.0, -3.0, -2.0])  # -(s+1)(s+2)


def test_routh_rejects_degenerate_input():
    with pytest.raises(ValueError):
        routh_stable([0.0])
    with pytest.raises(ValueError):
        routh_stable([5.0])


def test_routh_agrees_with_companion_roots():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        deg = int(rng.integers(1, 6))
        c = rng.uniform(-2.0, 2.0, deg + 1)
        if abs(c[0]) < 0.1:
            continue
        re = np.real(np.roots(c))
        if np.abs(re).min() < 1e-6:
            continue  # too close to the boundary for a strict predicate
        assert routh_stable(c) == bool((re < 0).all())
        checked += 1


# ------------------------------------------------------------ stability margin

def test_stability_margin_textbook_ultimate_gain():
    # loop K/(s(s+1)(s+2)): characteristic s^3 + 3s^2 + 2s + K, K_u = 6
    loop = TransferFunction([1.0], [1.0, 3.0, 2.0, 0.0])
    assert stability_margin(loop, UNITY) == pytest.approx(6.0, abs=1e-3)


def test_stability_margin_unbounded_first_order_loop():
    lag = TransferFunction([1.0], [1.0, 1.0])
    assert math.isinf(stability_margin(UNITY, lag))


def test_stability_margin_rejects_unstable_nominal_loop():
    unstable = TransferFunction([1.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        stability_margin(UNITY, unstable)


def test_stability_margin_scales_whole_loop():
    # doubling the plant gain must halve the margin of the same loop
    loop = TransferFunction([1.0], [1.0, 3.0, 2.0, 0.0])
    hot = TransferFunction([2.0], [1.0, 3.0, 2.0, 0.0])
    m1 = stability_margin(loop, UNITY)
    m2 = stability_margin(hot, UNITY)
    assert m2 == pytest.approx(m1 / 2.0, rel=1e-3)


def test_stability_margin_matches_closed_loop_divergence():
    # just below the margin the loop converges, just above it diverges
    from pidga.lti import step_response
    loop = TransferFunction([1.0], [1.0, 3.0, 2.0, 0.0])
    margin = stability_margin(loop, UNITY)
    for k, stable in ((0.9 * margin, True), (1.1 * margin, False)):
        t = closed_loop(TransferFunction([k], [1.0]), loop)
        resp = step_response(t, horizon=60.0)
        settled = np.abs(resp.e[-100:]).max() < 0.5
        assert settled == stable


def test_stability_margin_textbook_gains_are_exact():
    loop = TransferFunction([1.0], [1.0, 3.0, 2.0, 0.0])
    hot = TransferFunction([2.0], [1.0, 3.0, 2.0, 0.0])
    assert stability_margin(loop, UNITY) == pytest.approx(6.0, abs=1e-12)
    assert stability_margin(hot, UNITY) == pytest.approx(3.0, abs=1e-12)


def test_stability_margin_brackets_the_routh_boundary():
    # random gain sets in the [0, 2 x Z-N] box: Routh-stable just below the
    # margin, not just above it
    rng = np.random.default_rng(11)
    checked = 0
    for tau in (0.01, 0.1, 1.0):
        plant = PlantFolpd(1.0, 1.0, tau)
        zn = np.array(ziegler_nichols(plant))
        delay = dfr_delay(tau).tf
        for _ in range(200):
            controller = pid_tf(rng.uniform(0.0, 2.0 * zn))
            loop = open_loop(controller, plant.lag_tf(), delay)
            if not routh_stable(poly_add(loop.den, loop.num)):
                continue
            k = stability_margin(controller, plant.lag_tf(), delay)
            assert routh_stable(poly_add(loop.den, k * (1 - 1e-6) * loop.num))
            assert not routh_stable(
                poly_add(loop.den, k * (1 + 1e-6) * loop.num))
            checked += 1
    assert checked >= 300
