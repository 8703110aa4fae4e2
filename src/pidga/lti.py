"""Rational LTI models and fixed-step closed-loop step-response simulation.

Polynomials are plain 1-D coefficient arrays in descending powers of the
Laplace variable s (coeffs[0]*s^n + ... + coeffs[n]).  All modules share this
convention.  No pole-zero cancellation is attempted anywhere: cancelling
floating-point coefficients is fragile, and the marginal integrator pole
contributed by a PID controller is exact by construction, so the integrator
copes with unreduced forms like s/s.
"""

import math
from dataclasses import dataclass

import numpy as np


def poly_trim(c):
    """Drop leading zero coefficients; the zero polynomial collapses to [0]."""
    c = np.atleast_1d(np.asarray(c, dtype=float))
    nz = np.flatnonzero(c)
    if nz.size == 0:
        return np.zeros(1)
    return c[nz[0]:].copy()


def poly_mul(a, b):
    """Polynomial product (coefficient convolution)."""
    return poly_trim(np.convolve(poly_trim(a), poly_trim(b)))


def pad_left(c, width):
    """Coefficients c right-aligned in a zero row of the given width."""
    out = np.zeros(width)
    out[width - len(c):] = c
    return out


def poly_add(a, b):
    """Polynomial sum with right-aligned coefficients, leading zeros trimmed."""
    a, b = poly_trim(a), poly_trim(b)
    n = max(len(a), len(b))
    return poly_trim(pad_left(a, n) + pad_left(b, n))


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function num(s)/den(s), coefficients descending."""

    num: np.ndarray
    den: np.ndarray

    def __post_init__(self):
        num = poly_trim(self.num)
        den = poly_trim(self.den)
        if not den.any():
            raise ValueError("zero denominator")
        num.flags.writeable = False
        den.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, s):
        """Evaluate at a (complex) point or array of points."""
        return np.polyval(self.num, s) / np.polyval(self.den, s)

    def __repr__(self):
        return f"TransferFunction({list(self.num)}, {list(self.den)})"


UNITY = TransferFunction([1.0], [1.0])


def pid_tf(gains):
    """PID controller (Kd s^2 + Kp s + Ki)/s from a (kd, kp, ki) triple.

    The result may be unreduced (e.g. s/s for a pure P controller); the
    simulation path tolerates that.
    """
    kd, kp, ki = (float(g) for g in gains)
    if kd == 0.0 and kp == 0.0 and ki == 0.0:
        raise ValueError("degenerate controller: all gains zero")
    return TransferFunction([kd, kp, ki], [1.0, 0.0])


def open_loop(controller, plant, delay=None):
    """The loop L = controller*plant*delay, by polynomial products."""
    if delay is None:
        delay = UNITY
    return TransferFunction(
        poly_mul(poly_mul(controller.num, plant.num), delay.num),
        poly_mul(poly_mul(controller.den, plant.den), delay.den))


def closed_loop(controller, plant, delay=None):
    """Unity-feedback closed loop T = L/(1+L) with L = open_loop(...).

    Built purely by polynomial arithmetic: T.num = num(L),
    T.den = num(L) + den(L).  Raises if the result is improper.
    """
    loop = open_loop(controller, plant, delay)
    den_t = poly_add(loop.den, loop.num)
    if len(loop.num) > len(den_t):
        raise ValueError("closed loop is improper")
    return TransferFunction(loop.num, den_t)


def realize(num, den):
    """Controllable-canonical A (p, n, n), C (p, n), D (p,) of the transfer
    functions num[i]/den[i], given as (p, n+1) left-padded coefficient rows.
    B = e0 for every row; n = 0 gives order-0 realizations (pure gains)."""
    lead = den[:, :1]
    a = den / lead
    b = num / lead
    D = b[:, 0].copy()
    C = b[:, 1:] - a[:, 1:] * D[:, None]
    p, n = C.shape
    A = np.zeros((p, n, n))
    if n > 0:
        A[:, 0, :] = -a[:, 1:]
        A[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    return A, C, D


def rk4_transition(A, B, dt):
    """One-step maps (M, N) of classical RK4 for x' = Ax + B*u, u frozen.

    For a linear system with the input held constant over the step, the four
    RK4 stages collapse algebraically to x+ = M x + N u with
    M = I + P + P^2/2 + P^3/6 + P^4/24 and N = dt*(I + P/2 + P^2/6 + P^3/24)B,
    P = dt*A.  Iterating the maps one step at a time, as delayed_step_sim
    does, is identical to running the stages; batch_step, which composes
    the maps by doubling, matches that only up to rounding.  A may be a stack
    (..., n, n) sharing the input vector B.
    """
    n = A.shape[-1]
    P = dt * A
    I = np.eye(n)
    P2 = P @ P
    P3 = P2 @ P
    M = I + P + P2 / 2.0 + P3 / 6.0 + P3 @ P / 24.0
    N = dt * ((I + P / 2.0 + P2 / 6.0 + P3 / 24.0) @ B)
    return M, N


@dataclass(frozen=True)
class StepResponse:
    """Sampled unit-step response: t[k] = k*dt, e = 1 - y, len = floor(h/dt)+1.

    diverged is set when the state left |x_i| <= 1e9 (or went non-finite)
    during integration; remaining samples then repeat the last good value.
    """

    dt: float
    horizon: float
    t: np.ndarray
    y: np.ndarray
    e: np.ndarray
    diverged: bool = False

    def __len__(self):
        return len(self.t)


DIVERGENCE_LIMIT = 1e9


def sample_count(dt, horizon):
    """Samples on the grid t = k*dt, 0 <= t <= horizon; validates both."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError("horizon shorter than one step")
    # floor(horizon/dt) + 1 with a guard against float quotients landing
    # a hair under an integer (e.g. 0.075/0.01)
    return int(horizon / dt + 1e-9) + 1


def divergence_mask(X):
    """(..., m) mask of states X (..., m, n) that left |x_i| <= 1e9 or went
    non-finite (a nan fails the comparison)."""
    return ~(np.abs(X) <= DIVERGENCE_LIMIT).all(axis=-1)


def clamp_divergence(bad, Y):
    """(p,) flags of rows whose state mask bad (p, m) has a bad sample; the
    initial state, bad[:, 0], is zero and good.  From a flagged row's first
    bad state j on, its outputs Y (p, <= m) repeat the last good sample
    Y[:, j-1]."""
    diverged = bad.any(axis=1)
    for i in np.flatnonzero(diverged):
        j = int(np.argmax(bad[i]))
        Y[i, j:] = Y[i, j - 1]
    return diverged


def batch_step(A, C, D, dt, nsamp):
    """Unit-step responses Y (p, nsamp) and divergence flags (p,) of stacked
    realizations, stepped from rest by the RK4 maps and clamped by
    clamp_divergence.

    The samples advance in blocks of B = round(sqrt(nsamp - 1)).  M^j and
    S_j = sum_{i<j} M^i N, j = 1..B, are built by doubling
    (M^{a+b} = M^a M^b, S_{a+b} = M^a S_b + S_a).  From x_k a block's
    outputs are Q_j x_k + R_j, with Q_j = C M^j and R_j = C S_j + D, and
    only its end state M^B x_k + S_B is formed: no state history is held.
    Its states and their divergence mask are built only for unflagged rows
    whose bound G*|x_k|_inf + H (G = max_j |M^j|_inf, H = max_j |S_j|_inf)
    comes within a rounding guard of the limit.  The outputs match the
    one-step recursion up to rounding.
    """
    p, n, _ = A.shape
    M, N = rk4_transition(A, np.eye(1, n)[0], dt)
    nb = max(1, round(math.sqrt(nsamp - 1)))
    # P[:, :, j-1] = M^j (rows i of each power along axis 1, so that a block
    # of powers is one (n, n) x (n, g*n) product per row), S[:, :, j-1] = S_j
    P, S = np.empty((p, n, nb, n)), np.empty((p, n, nb))
    with np.errstate(over="ignore", invalid="ignore"):
        P[:, :, 0], S[:, :, 0] = M, N
        for h in (1 << i for i in range((nb - 1).bit_length())):
            g = min(h, nb - h)
            Mh = P[:, :, h - 1]
            P[:, :, h:h + g] = (Mh @ P[:, :, :g].reshape(p, n, g * n)
                                ).reshape(p, n, g, n)
            S[:, :, h:h + g] = Mh @ S[:, :, :g] + S[:, :, h - 1:h]
        Q = (C[:, None] @ P.reshape(p, n, nb * n)).reshape(p, nb, n)
        R = (C[:, None] @ S)[:, 0] + D[:, None]
        G = (np.abs(P) @ np.ones(n)).max(axis=(1, 2), initial=0.0)
        H = np.abs(S).max(axis=(1, 2), initial=0.0)
        Y = np.empty((p, nsamp))
        Y[:, 0] = D
        bad = np.zeros((p, nsamp), dtype=bool)
        flagged = np.zeros(p, dtype=bool)
        x = np.zeros((p, n, 1))
        for k in range(1, nsamp, nb):
            m = min(nb, nsamp - k)
            Y[:, k:k + m] = (Q[:, :m] @ x)[..., 0] + R[:, :m]
            bound = G * np.abs(x).max(axis=(1, 2), initial=0.0) + H
            rows = np.flatnonzero(~(bound <= DIVERGENCE_LIMIT * (1 - 1e-9))
                                  & ~flagged)
            if rows.size:
                X = (P[rows, :, :m].reshape(len(rows), n * m, n) @ x[rows]
                     ).reshape(len(rows), n, m) + S[rows, :, :m]
                bad[rows, k:k + m] = divergence_mask(X.transpose(0, 2, 1))
                flagged[rows] = bad[rows, k:k + m].any(axis=1)
            x = P[:, :, m - 1] @ x + S[:, :, m - 1:m]
    return Y, clamp_divergence(bad, Y)


def step_response(tf, dt=0.01, horizon=15.0):
    """Unit-step response of a proper/biproper TF by fixed-step RK4: the
    single-row case of batch_step.

    Divergence (|x_i| > 1e9 or non-finite state) does not raise: the response
    is flagged and padded so that optimizers can penalize unstable gains.
    """
    nsamp = sample_count(dt, horizon)
    n = len(tf.den) - 1
    if len(tf.num) > n + 1:
        raise ValueError("improper transfer function")
    A, C, D = realize(pad_left(tf.num, n + 1)[None], tf.den[None])
    Y, diverged = batch_step(A, C, D, dt, nsamp)
    y = Y[0]
    return StepResponse(dt, horizon, np.arange(nsamp) * dt, y, 1.0 - y,
                        bool(diverged[0]))
