"""DFR delay approximation and the exact-delay oracles."""

import logging
import math

import numpy as np
import pytest

from pidga.delay import DelayLine, delayed_step_sim, dfr_delay, true_margin
from pidga.experiment import DEFAULT_DELAYS, simulate_gains
from pidga.lti import (TransferFunction, UNITY, closed_loop, open_loop,
                       pid_tf, step_response)
from pidga.metrics import routh_stable, stability_margin
from pidga.tuners import PidGains, PlantFolpd, ziegler_nichols


def _forward_path(gains, plant):
    """Controller*plant product (the delay-free forward chain)."""
    return open_loop(pid_tf(gains), plant.lag_tf())


# ------------------------------------------------------------------ dfr_delay

def test_dfr_delay_unit_tau_coefficients():
    d = dfr_delay(1.0)
    np.testing.assert_allclose(d.tf.num, [0.0954, -0.49, 1.0])
    np.testing.assert_allclose(d.tf.den, [0.0954, 0.49, 1.0])
    assert d.tau == 1.0


def test_dfr_delay_zero_is_identity():
    d = dfr_delay(0.0)
    np.testing.assert_array_equal(d.tf.num, [1.0])
    np.testing.assert_array_equal(d.tf.den, [1.0])


def test_dfr_delay_rejects_negative():
    with pytest.raises(ValueError):
        dfr_delay(-0.1)


def test_dfr_delay_unit_magnitude_spot():
    h = dfr_delay(0.5).tf(2j)
    assert abs(abs(h) - 1.0) <= 1e-12


@pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
def test_dfr_delay_is_all_pass(tau):
    w = np.logspace(-2, 2, 50)
    h = dfr_delay(tau).tf(1j * w)
    assert np.abs(np.abs(h) - 1.0).max() <= 1e-12


@pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
def test_dfr_delay_phase_tracks_true_delay(tau):
    w = np.logspace(-2, 2, 50)
    band = w * tau <= 1.0
    h = dfr_delay(tau).tf(1j * w[band])
    phase_err = np.abs(np.angle(h) + w[band] * tau)
    assert phase_err.max() <= 0.01


def test_dfr_delay_numerator_mirrors_denominator():
    for tau in (0.05, 0.3, 0.8):
        tf = dfr_delay(tau).tf
        signs = np.array([1.0, -1.0, 1.0])
        np.testing.assert_array_equal(tf.num, tf.den * signs)


# ------------------------------------------------------------------ DelayLine

def test_delay_line_is_exact_sample_shift():
    rng = np.random.default_rng(7)
    u = rng.standard_normal(40)
    line = DelayLine(0.01, 0.05)  # n = 5
    out = np.array([line.push(v) for v in u])
    np.testing.assert_array_equal(out[:5], np.zeros(5))
    np.testing.assert_array_equal(out[5:], u[:-5])


def test_delay_line_peek_matches_next_output():
    line = DelayLine(0.01, 0.03)
    for v in (1.0, 2.0, 3.0, 4.0):
        ahead = line.peek()
        assert line.push(v) == ahead


def test_delay_line_zero_length_passes_through():
    line = DelayLine(0.01, 0.0)
    assert line.n == 0
    assert line.push(3.5) == 3.5
    with pytest.raises(ValueError):
        line.peek()


def test_delay_line_warns_on_non_multiple_tau(caplog):
    with caplog.at_level(logging.WARNING, logger="pidga.delay"):
        line = DelayLine(0.01, 0.015)
    assert line.n == 2
    assert any("not a multiple" in rec.message for rec in caplog.records)


def test_delay_line_validation():
    with pytest.raises(ValueError):
        DelayLine(0.0, 0.1)
    with pytest.raises(ValueError):
        DelayLine(0.01, -0.1)


# ----------------------------------------------------------- delayed_step_sim

def test_open_loop_pure_delay_shifts_the_step():
    resp = delayed_step_sim(UNITY, 0.5, feedback=False)
    np.testing.assert_array_equal(resp.y[resp.t < 0.5], 0.0)
    np.testing.assert_array_equal(resp.y[resp.t >= 0.5], 1.0)


def test_open_loop_delayed_lag_obeys_shift_theorem():
    lag = TransferFunction([1.0], [1.0, 1.0])
    resp = delayed_step_sim(lag, 0.25, feedback=False)
    after = resp.t >= 0.25
    expected = 1.0 - np.exp(-(resp.t[after] - 0.25))
    np.testing.assert_allclose(resp.y[after], expected, atol=1e-4)
    np.testing.assert_array_equal(resp.y[~after], 0.0)


def test_open_loop_delay_equals_shifted_undelayed_response():
    tf = TransferFunction([2.0, 1.0], [1.0, 2.0, 2.0])
    n = 30
    plain = step_response(tf)
    shifted = delayed_step_sim(tf, n * 0.01, feedback=False)
    np.testing.assert_array_equal(shifted.y[n:], plain.y[:-n])
    np.testing.assert_array_equal(shifted.y[:n], np.zeros(n))


def test_open_loop_delay_line_shares_the_divergence_rule():
    # pole at s = +2: the state crosses 1e9 at the same sample j on both
    # paths, and both hold their output from j on
    tf = TransferFunction([1.0], [1.0, 0.0, -4.0])
    n = 30
    plain = step_response(tf)
    shifted = delayed_step_sim(tf, n * 0.01, feedback=False)
    assert plain.diverged and shifted.diverged
    j = int(np.argmax(plain.y == plain.y[-1])) + 1
    np.testing.assert_array_equal(shifted.y[n:j], plain.y[:j - n])
    np.testing.assert_array_equal(shifted.y[j:], plain.y[j - 1 - n])


def test_delayed_step_sim_validation():
    with pytest.raises(ValueError):
        delayed_step_sim(UNITY, 0.1, dt=0.0)
    with pytest.raises(ValueError):
        delayed_step_sim(UNITY, 0.1, dt=0.01, horizon=0.001)


def test_zero_delay_feedback_loop_matches_rational_loop():
    # with tau = 0 the loop is algebraic; it must track T = 1/(s+2)
    lag = TransferFunction([1.0], [1.0, 1.0])
    resp = delayed_step_sim(lag, 0.0)
    expected = 0.5 * (1.0 - np.exp(-2.0 * resp.t))
    assert np.abs(resp.y - expected).max() <= 0.01


def test_closed_loop_dual_simulation_envelope():
    """Exact-delay loop vs the rational approximation, Z-N gains, tau=0.1.

    The rational closed loop is biproper (feedthrough kd/(1+kd) = 0.375), so
    it jumps at t = 0 while the exact loop still sits in its dead time; the
    recorded full-window gap therefore equals that feedthrough.  Past the
    initial transient the two loops agree to well under 1%.
    """
    plant = PlantFolpd(1.0, 1.0, 0.1)
    gains = ziegler_nichols(plant)
    exact = delayed_step_sim(_forward_path(gains, plant), 0.1)
    approx = simulate_gains(gains, plant, 0.1)
    diff = np.abs(exact.y - approx.y)
    assert 0.37 <= diff.max() <= 0.38
    assert diff[exact.t >= 1.0].max() <= 0.01
    assert abs(exact.y[-1] - approx.y[-1]) <= 1e-6


def test_divergent_delay_loop_is_flagged():
    plant = PlantFolpd(1.0, 1.0, 1.0)
    gains = ziegler_nichols(plant)
    inner = _forward_path(gains, plant)
    hot = TransferFunction(3.0 * inner.num, inner.den)  # above threshold
    resp = delayed_step_sim(hot, 1.0, horizon=60.0)
    env_mid = np.abs(resp.e[2000:4000]).max()
    env_end = np.abs(resp.e[4000:]).max()
    assert resp.diverged or env_end >= env_mid


# ---------------------------------------------------------------- true_margin

def _pade(tau, m):
    """Closed-form [m/m] Pade approximant of e^{-s tau}."""
    f = math.factorial
    c = [f(2 * m - k) * f(m) / (f(2 * m) * f(k) * f(m - k)) * tau ** k
         for k in range(m + 1)]
    den = np.array(c[::-1])
    return TransferFunction(den * (-1.0) ** np.arange(m, -1, -1), den)


def test_true_margin_of_zn_gains_at_unit_delay():
    plant = PlantFolpd(1.0, 1.0, 1.0)
    inner = _forward_path(ziegler_nichols(plant), plant)
    assert true_margin(inner, 1.0) == pytest.approx(1.569467, abs=1e-6)


def test_true_margin_matches_pade_8_routh_margin():
    plant = PlantFolpd(1.0, 1.0, 1.0)
    gains = ziegler_nichols(plant)
    pade = stability_margin(pid_tf(gains), plant.lag_tf(), _pade(1.0, 8))
    exact = true_margin(_forward_path(gains, plant), 1.0)
    assert exact == pytest.approx(pade, rel=1e-9)


@pytest.mark.parametrize("tau", [0.01, 0.1, 0.25])
def test_routh_judges_badly_scaled_pade_8_loops(tau):
    # the Pade [8/8] loop's coefficients span about tau^8/5e8 to 1; every
    # root has Re s <= -1.97 at these delays
    plant = PlantFolpd(1.0, 1.0, tau)
    gains = ziegler_nichols(plant)
    pade = _pade(tau, 8)
    assert routh_stable(closed_loop(pid_tf(gains), plant.lag_tf(), pade).den)
    margin = stability_margin(pid_tf(gains), plant.lag_tf(), pade)
    exact = true_margin(_forward_path(gains, plant), tau)
    assert margin == pytest.approx(exact, rel=1e-9)


def test_true_margin_of_delayed_integrator_lag():
    # e^{-s}/(s(s+1)): phase crossover at w + atan(w) = pi/2, where
    # c = 1/|L(jw)| = w*sqrt(1 + w^2)
    w = 1.0
    for _ in range(50):
        w -= (w + math.atan(w) - math.pi / 2) / (1.0 + 1.0 / (1.0 + w * w))
    margin = true_margin(TransferFunction([1.0], [1.0, 1.0, 0.0]), 1.0)
    assert margin == pytest.approx(w * math.sqrt(1.0 + w * w), rel=1e-12)
    assert margin == pytest.approx(1.134915, abs=1e-6)


def test_true_margin_at_twice_zn_gains_is_half_and_unstable():
    # the nominal loop is already unstable here; the margin says so (<= 1)
    # instead of raising
    plant = PlantFolpd(1.0, 1.0, 1.0)
    inner = _forward_path(ziegler_nichols(plant), plant)
    hot = TransferFunction(2.0 * inner.num, inner.den)
    assert true_margin(hot, 1.0) == true_margin(inner, 1.0) / 2.0
    assert true_margin(hot, 1.0) <= 1.0


def test_true_margin_neutral_chain_bound():
    # c*K*kd > T puts the neutral root chain in the right half-plane
    inner = _forward_path(PidGains(1.25, 1.2, 0.6), PlantFolpd(1.0, 1.0, 1.0))
    assert true_margin(inner, 1.0) == pytest.approx(0.8, rel=1e-15)


@pytest.mark.parametrize("tau", DEFAULT_DELAYS)
def test_true_margin_tracks_dfr_margin(tau):
    plant = PlantFolpd(1.0, 1.0, tau)
    gains = ziegler_nichols(plant)
    dfr = stability_margin(pid_tf(gains), plant.lag_tf(), dfr_delay(tau).tf)
    exact = true_margin(_forward_path(gains, plant), tau)
    assert abs(dfr - exact) / exact <= 0.005
