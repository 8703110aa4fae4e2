"""Polynomial algebra, transfer functions, realizations, step responses."""

import tracemalloc

import numpy as np
import pytest

from pidga.lti import (DIVERGENCE_LIMIT, TransferFunction, UNITY,
                       batch_step, closed_loop, pad_left, pid_tf, poly_add,
                       poly_mul, poly_trim, realize, rk4_transition,
                       sample_count, step_response)


# ---------------------------------------------------------------- polynomials

def test_poly_trim_drops_leading_zeros():
    np.testing.assert_array_equal(poly_trim([0.0, 0.0, 1.0, 2.0]), [1.0, 2.0])
    np.testing.assert_array_equal(poly_trim([0.0, 0.0]), [0.0])
    np.testing.assert_array_equal(poly_trim(3.0), [3.0])


def test_poly_mul_expands_products():
    # (s+1)(s+2) = s^2 + 3s + 2
    np.testing.assert_allclose(poly_mul([1, 1], [1, 2]), [1, 3, 2])


def test_poly_mul_identity_and_absorber():
    p = [2.0, 0.0, -1.0]
    np.testing.assert_array_equal(poly_mul(p, [1.0]), p)
    np.testing.assert_array_equal(poly_mul(p, [0.0]), [0.0])


def test_poly_add_aligns_degrees():
    # (s^2+1) + s = s^2 + s + 1
    np.testing.assert_array_equal(poly_add([1, 0, 1], [1, 0]), [1, 1, 1])
    p = [4.0, 5.0]
    np.testing.assert_array_equal(poly_add(p, [0.0]), p)


def test_poly_add_cancellation_collapses_to_zero():
    np.testing.assert_array_equal(poly_add([1.0, 1.0], [-1.0, -1.0]), [0.0])


# ----------------------------------------------------------- TransferFunction

def test_transfer_function_trims_and_freezes():
    tf = TransferFunction([0.0, 1.0, 2.0], [0.0, 1.0, 1.0])
    np.testing.assert_array_equal(tf.num, [1.0, 2.0])
    np.testing.assert_array_equal(tf.den, [1.0, 1.0])
    with pytest.raises(ValueError):
        tf.num[0] = 5.0


def test_transfer_function_rejects_zero_denominator():
    with pytest.raises(ValueError):
        TransferFunction([1.0], [0.0, 0.0])


def test_transfer_function_evaluates_rationally():
    tf = TransferFunction([1.0, 2.0], [1.0, 3.0, 2.0])
    s = 1j * 2.0
    expected = (s + 2.0) / (s * s + 3.0 * s + 2.0)
    assert tf(s) == pytest.approx(expected)


def test_pid_tf_structure():
    tf = pid_tf((0.6, 12.0, 60.0))
    np.testing.assert_array_equal(tf.num, [0.6, 12.0, 60.0])
    np.testing.assert_array_equal(tf.den, [1.0, 0.0])


def test_pid_tf_keeps_unreduced_forms():
    # pure P control gives s/s, pure D gives s^2/s; neither is cancelled
    p_only = pid_tf((0.0, 1.0, 0.0))
    np.testing.assert_array_equal(p_only.num, [1.0, 0.0])
    np.testing.assert_array_equal(p_only.den, [1.0, 0.0])
    d_only = pid_tf((1.0, 0.0, 0.0))
    np.testing.assert_array_equal(d_only.num, [1.0, 0.0, 0.0])


def test_pid_tf_rejects_all_zero_gains():
    with pytest.raises(ValueError):
        pid_tf((0.0, 0.0, 0.0))


# ----------------------------------------------------------------- close loop

def test_closed_loop_first_order():
    lag = TransferFunction([1.0], [1.0, 1.0])
    t = closed_loop(UNITY, lag)
    np.testing.assert_array_equal(t.num, [1.0])
    np.testing.assert_array_equal(t.den, [1.0, 2.0])


def test_closed_loop_with_pid_numerator():
    c = TransferFunction([1.0, 1.0, 1.0], [1.0, 0.0])
    lag = TransferFunction([1.0], [1.0, 1.0])
    t = closed_loop(c, lag)
    np.testing.assert_array_equal(t.num, [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(t.den, [2.0, 2.0, 1.0])


def test_closed_loop_dc_gain_is_exactly_one_with_integrator():
    lag = TransferFunction([1.0], [1.0, 1.0])
    t = closed_loop(pid_tf((0.6, 12.0, 60.0)), lag)
    assert t(0.0) == 1.0


def test_closed_loop_rejects_improper_result():
    # leading coefficients of num(L) and den(L) cancel in 1 + L
    bad_plant = TransferFunction([-1.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        closed_loop(UNITY, bad_plant)


# ---------------------------------------------------------------- realization

def _realize_tf(tf):
    """realize's single row for tf: A (n, n), C (n,), D; B is e0."""
    n = len(tf.den) - 1
    A, C, D = realize(pad_left(tf.num, n + 1)[None], tf.den[None])
    return A[0], C[0], D[0]


def test_realize_first_order():
    A, C, D = _realize_tf(TransferFunction([1.0], [1.0, 1.0]))
    np.testing.assert_array_equal(A, [[-1.0]])
    np.testing.assert_array_equal(C, [1.0])
    assert D == 0.0


def test_realize_biproper_feedthrough():
    # (s+2)/(s+1) = 1 + 1/(s+1)
    A, C, D = _realize_tf(TransferFunction([1.0, 2.0], [1.0, 1.0]))
    assert D == 1.0
    np.testing.assert_array_equal(C, [1.0])


def test_realize_companion_form():
    A, C, D = _realize_tf(TransferFunction([1.0], [1.0, 3.0, 2.0]))
    np.testing.assert_array_equal(A, [[-3.0, -2.0], [1.0, 0.0]])
    np.testing.assert_array_equal(C, [0.0, 1.0])
    assert D == 0.0


def test_step_response_rejects_improper():
    with pytest.raises(ValueError, match="improper"):
        step_response(TransferFunction([1.0, 0.0, 0.0], [1.0, 0.0]))


def _freq_response(A, C, D, w):
    n = A.shape[0]
    B = np.eye(n)[0]
    return np.array([C @ np.linalg.solve(1j * wi * np.eye(n) - A, B) + D
                     for wi in w])


@pytest.mark.parametrize("tf", [
    TransferFunction([1.0], [1.0, 3.0, 2.0]),
    TransferFunction([1.0, 2.0], [1.0, 1.0]),
    TransferFunction([0.6, 12.0, 60.0], [1.0, 1.0, 12.6, 60.0]),
])
def test_realization_matches_rational_evaluation(tf):
    w = np.logspace(-2, 2, 20)
    h_ss = _freq_response(*_realize_tf(tf), w)
    h_tf = tf(1j * w)
    np.testing.assert_allclose(h_ss, h_tf, rtol=1e-9)


# -------------------------------------------------------------- step response

def test_sample_count_handles_near_integer_quotients():
    assert sample_count(0.01, 15.0) == 1501
    assert sample_count(0.01, 0.07) == 8   # 0.07/0.01 lands just below 7.0
    assert sample_count(0.01, 0.075) == 8  # floor(7.5) + 1


def test_step_response_grid_layout():
    resp = step_response(TransferFunction([1.0], [1.0, 1.0]))
    assert len(resp) == 1501
    assert len(resp.t) == len(resp.y) == len(resp.e)
    np.testing.assert_array_equal(resp.t, np.arange(1501) * 0.01)


def test_step_response_first_order_values():
    resp = step_response(TransferFunction([1.0], [1.0, 1.0]))
    assert resp.y[0] == 0.0
    assert resp.y[100] == pytest.approx(0.63212, abs=1e-4)  # y(1) = 1 - 1/e
    assert not resp.diverged


def test_step_response_rk4_accuracy():
    resp = step_response(TransferFunction([1.0], [1.0, 1.0]))
    err = np.abs(resp.y - (1.0 - np.exp(-resp.t))).max()
    assert err <= 1e-6


def test_step_response_biproper_initial_value():
    resp = step_response(TransferFunction([1.0, 2.0], [1.0, 1.0]))
    assert resp.y[0] == 1.0


def test_step_response_of_a_pure_gain():
    # order-0 realization: no state, the output is the feedthrough
    resp = step_response(TransferFunction([3.0], [2.0]))
    np.testing.assert_array_equal(resp.y, 1.5)
    assert not resp.diverged


def test_step_response_error_channel_is_bit_exact():
    resp = step_response(TransferFunction([0.6, 12.0, 60.0],
                                          [1.0, 1.0, 12.6, 60.0]))
    np.testing.assert_array_equal(resp.e, 1.0 - resp.y)


def test_step_response_flags_divergence_and_pads():
    # pole at s = +2 crosses the 1e9 state limit inside the horizon
    resp = step_response(TransferFunction([1.0], [1.0, 0.0, -4.0]))
    assert resp.diverged
    assert np.isfinite(resp.y).all()
    k = np.flatnonzero(np.diff(resp.y) != 0.0)[-1] + 1
    assert np.all(resp.y[k:] == resp.y[k])
    assert np.abs(resp.y).max() <= DIVERGENCE_LIMIT * 10


def test_step_response_argument_validation():
    tf = TransferFunction([1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        step_response(tf, dt=0.0)
    with pytest.raises(ValueError):
        step_response(tf, dt=0.01, horizon=0.001)


def test_rk4_transition_matches_scalar_series():
    # scalar x' = -x: M must equal the 4-term Taylor series of e^{-dt}
    M, N = rk4_transition(np.array([[-1.0]]), np.array([1.0]), 0.1)
    p = -0.1
    assert M[0, 0] == pytest.approx(1 + p + p**2 / 2 + p**3 / 6 + p**4 / 24,
                                    rel=1e-15)
    assert N[0] == pytest.approx(0.1 * (1 + p / 2 + p**2 / 6 + p**3 / 24),
                                 rel=1e-15)


def test_step_response_integrates_marginal_integrator_pole():
    # s/s from P-only control must not break the simulation
    lag = TransferFunction([1.0], [1.0, 1.0])
    t = closed_loop(pid_tf((0.0, 1.0, 0.0)), lag)
    resp = step_response(t)
    assert not resp.diverged
    # P control of a first-order lag settles at K/(1+K) = 0.5
    assert resp.y[-1] == pytest.approx(0.5, abs=1e-6)


# --------------------------------------------------------------- batch_step

def _stable_rows(rng, p, order):
    """(A, C, D) of p random stable biproper realizations of one order:
    real poles in [-5, -0.5] and, from order 2, one pair -a +- bj."""
    den = np.empty((p, order + 1))
    for i in range(p):
        poles = list(-rng.uniform(0.5, 5.0, order))
        if order >= 2:
            a, b = rng.uniform(0.3, 2.0), rng.uniform(0.5, 5.0)
            poles[:2] = [complex(-a, b), complex(-a, -b)]
        den[i] = np.poly(poles).real
    return realize(rng.standard_normal((p, order + 1)), den)


def _reference_step(A, C, D, dt, nsamp):
    """The one-step recursion x <- Mx + N, y = Cx + D, with every state."""
    p, n, _ = A.shape
    M, N = rk4_transition(A, np.eye(1, n)[0], dt)
    X = np.zeros((p, nsamp, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, nsamp):
            X[:, k] = (M @ X[:, k - 1, :, None])[..., 0] + N
        Y = (X @ C[..., None])[..., 0] + D[:, None]
    return Y, X


@pytest.mark.parametrize("nsamp", [2, 3, 40, 1501, 1502])
@pytest.mark.parametrize("order", range(5))
def test_batch_step_matches_one_step_recursion(order, nsamp):
    rng = np.random.default_rng(100 * order + nsamp)
    for p in (1, 7):
        A, C, D = _stable_rows(rng, p, order)
        Y, diverged = batch_step(A, C, D, 0.01, nsamp)
        ref, _ = _reference_step(A, C, D, 0.01, nsamp)
        assert Y.shape == (p, nsamp) and not diverged.any()
        scale = np.abs(ref).max(axis=1, keepdims=True)
        assert (np.abs(Y - ref) <= 1e-12 * scale).all()


def test_batch_step_clamps_like_the_recursion():
    # a pole at s = +2 among stable rows: the same rows are flagged, and
    # each flagged row holds its output from the recursion's first bad state
    rng = np.random.default_rng(5)
    A, C, D = _stable_rows(rng, 4, 2)
    A[2], C[2], D[2] = _realize_tf(TransferFunction([1.0], [1.0, 0.0, -4.0]))
    Y, diverged = batch_step(A, C, D, 0.01, 1501)
    ref, X = _reference_step(A, C, D, 0.01, 1501)
    bad = ~(np.abs(X) <= DIVERGENCE_LIMIT).all(axis=2)
    np.testing.assert_array_equal(diverged, bad.any(axis=1))
    assert diverged.tolist() == [False, False, True, False]
    j = int(np.argmax(bad[2]))
    assert 1 < j < 1500
    np.testing.assert_array_equal(Y[2, j:], Y[2, j - 1])
    assert Y[2, j - 1] != Y[2, j - 2]
    np.testing.assert_allclose(Y[2, :j], ref[2, :j], rtol=1e-12)


def test_batch_step_never_holds_the_state_history():
    # the full (p, nsamp, n) state array alone would be 38 MB here
    A, C, D = _stable_rows(np.random.default_rng(8), 800, 4)
    tracemalloc.start()
    try:
        batch_step(A, C, D, 0.01, 1501)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6


@pytest.mark.parametrize("den, dt, flagged", [
    (np.poly([2000.0, -1.0, -2.0]), 0.01, True),  # past 1e9 in block one
    (np.poly([1e5, -1.0, -2.0]), 0.01, True),     # M^j overflows to inf
    ([1.0, 0.0, 0.0, 0.0], 1.0, False),           # 1/s^3 ramps to 5.6e8
])
def test_batch_step_bound_keeps_adversarial_rows_exact(den, dt, flagged):
    # between two benign rows: the row's flag, its first clamped sample and
    # its outputs before the clamp follow the one-step recursion
    benign = np.poly([-0.5, -0.6, -0.7])
    A, C, D = realize(np.eye(1, 4, 3).repeat(3, axis=0),
                      np.array([benign, den, benign]))
    Y, diverged = batch_step(A, C, D, dt, 1501)
    ref, X = _reference_step(A, C, D, dt, 1501)
    bad = ~(np.abs(X) <= DIVERGENCE_LIMIT).all(axis=2)
    np.testing.assert_array_equal(diverged, bad.any(axis=1))
    assert diverged.tolist() == [False, flagged, False]
    j = int(np.argmax(bad[1])) if flagged else 1501
    np.testing.assert_array_equal(Y[1, j:], Y[1, j - 1])
    assert Y[1, j - 1] != Y[1, j - 2]
    np.testing.assert_allclose(Y[:, :j], ref[:, :j], rtol=1e-12)
    if not flagged:
        assert 1e8 < np.abs(X[1]).max() < DIVERGENCE_LIMIT
