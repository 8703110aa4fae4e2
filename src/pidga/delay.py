"""Time-delay models: DFR rational approximation and two exact oracles.

The tuning sweeps run entirely on the second-order DFR series, an all-pass
rational approximation of e^{-s*tau}.  Two ground truths validate that
model: the sample-shift delay line realizes the delay in the time domain (a
pure shift by round(tau/dt) samples) for closed-loop step responses, and
true_margin gives the exact loop-gain stability margin of the delayed loop
from its frequency response.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .lti import (StepResponse, TransferFunction, block_step,
                  clamp_divergence, divergence_mask, rk4_transition,
                  sample_count, to_state_space)
from .metrics import crossing_gain

log = logging.getLogger(__name__)

# e^{-s tau} ~ (1 - 0.49 s tau + 0.0954 s^2 tau^2)/(1 + 0.49 s tau + 0.0954 s^2 tau^2)
DFR_C1 = 0.49
DFR_C2 = 0.0954


@dataclass(frozen=True)
class DelayApprox:
    """A rational stand-in for a pure delay of tau seconds."""

    tau: float
    tf: TransferFunction


def dfr_delay(tau):
    """Second-order DFR all-pass approximation of a tau-second delay.

    The numerator is the denominator with odd-power signs flipped, so the
    magnitude is exactly 1 at every frequency; tau = 0 degenerates to 1/1.
    """
    if tau < 0:
        raise ValueError("negative delay")
    if tau == 0:
        return DelayApprox(0.0, TransferFunction([1.0], [1.0]))
    c2 = DFR_C2 * tau * tau
    c1 = DFR_C1 * tau
    return DelayApprox(float(tau),
                       TransferFunction([c2, -c1, 1.0], [c2, c1, 1.0]))


class DelayLine:
    """Ring buffer delaying a sampled signal by round(tau/dt) samples.

    Output at step k is the input pushed at step k - n, zero before any
    input has propagated through.  Single-owner mutable state: one simulation
    at a time.
    """

    def __init__(self, dt, tau):
        if dt <= 0:
            raise ValueError("dt must be positive")
        if tau < 0:
            raise ValueError("negative delay")
        ratio = tau / dt
        n = int(round(ratio))
        if abs(ratio - n) > 1e-9:
            log.warning("delay %.6g is not a multiple of dt=%.6g; "
                        "rounding to %d samples", tau, dt, n)
        self.dt = dt
        self.tau = tau
        self.n = n
        self._buf = np.zeros(n)
        self._head = 0

    def peek(self):
        """The value about to come out (input from n steps ago)."""
        if self.n == 0:
            raise ValueError("zero-length delay line has no stored sample")
        return self._buf[self._head]

    def push(self, value):
        """Push one input sample; returns the sample delayed by n steps."""
        if self.n == 0:
            return value
        out = self._buf[self._head]
        self._buf[self._head] = value
        self._head = (self._head + 1) % self.n
        return out


def delayed_step_sim(inner, tau, dt=0.01, horizon=15.0, feedback=True):
    """Unit-step response with the delay realized exactly as a sample shift.

    inner is the forward-path transfer function (controller*plant product),
    realized in state space and stepped with the same RK4 maps as the
    rational simulations; its input is held constant across each step.  The
    delay-line output is the measured signal y, and with feedback=True it is
    also fed back, closing the loop e = 1 - y.  feedback=False leaves the
    chain open (the delayed step response of inner itself).

    The open chain is lti.block_step's response of inner shifted by
    n = round(tau/dt) samples, clamped from its first bad state's sample
    index on, so it equals step_response(inner) shifted, bit for bit.  The
    closed loop feeds each output back into the next input, so it steps one
    sample per iteration and builds its divergence mask from its own states.

    The exact loop cannot respond before the dead time, so y is identically
    zero for t < tau regardless of any direct feedthrough in inner.
    """
    nsamp = sample_count(dt, horizon)
    ss = to_state_space(inner)
    line = DelayLine(dt, tau)
    if not feedback:
        Y, bad = block_step(ss.A[None], ss.C[None], np.array([ss.D]), dt,
                            nsamp)
        y = np.zeros((1, nsamp))
        y[:, line.n:] = Y[:, :max(nsamp - line.n, 0)]
    else:
        M, N = rk4_transition(ss.A, ss.B, dt)
        y = np.empty((1, nsamp))
        X = np.zeros((nsamp + 1, ss.order))
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(nsamp):
                cx = ss.C @ X[k]
                if line.n > 0:
                    yk = line.peek()
                else:  # zero-length line: the loop is algebraic through D
                    yk = (cx + ss.D) / (1.0 + ss.D)
                y[0, k] = yk
                u = 1.0 - yk
                line.push(cx + ss.D * u)
                X[k + 1] = M @ X[k] + N * u
        bad = divergence_mask(X)[None]
    diverged = bool(clamp_divergence(bad, y)[0])
    y = y[0]
    return StepResponse(dt, horizon, np.arange(nsamp) * dt, y, 1.0 - y,
                        diverged)


# true_margin's crossover search: a log grid of w*tau, then secant steps
CROSSOVER_GRID = np.geomspace(1e-4, 200.0, 4000)
SECANT_STEPS = 5


def true_margin(inner, tau):
    """Loop-gain multiplier c1 such that c*inner(s)*e^{-s tau} is stable for
    c in (0, c1); c1 <= 1 means the nominal loop is unstable.

    Roots reach the jw axis only where c*L(jw) = -1 (D-decomposition,
    Neimark 1948), i.e. at c = -1/Re L on a phase crossover of
    L(jw) = inner(jw)*e^{-jw tau} with Re L < 0.  A biproper inner adds a
    neutral root chain at Re s = ln(c*|num0/den0|)/tau (Silva, Datta &
    Bhattacharyya, IEEE TAC 47(2), 2002), so c1 <= |den0/num0|.
    """
    if tau <= 0:
        raise ValueError("true_margin needs a positive delay")

    def loop_jw(w):
        return inner(1j * w) * np.exp(-1j * w * tau)

    w = CROSSOVER_GRID / tau
    f = loop_jw(w).imag
    cross = np.flatnonzero(np.sign(f[:-1]) != np.sign(f[1:]))
    w0, w1, f0, f1 = w[cross], w[cross + 1], f[cross], f[cross + 1]
    for _ in range(SECANT_STEPS):
        with np.errstate(divide="ignore", invalid="ignore"):
            w2 = w1 - f1 * (w1 - w0) / (f1 - f0)
        w2 = np.where(np.isfinite(w2), w2, w1)  # converged: f1 == f0
        w0, f0, w1, f1 = w1, f1, w2, loop_jw(w2).imag
    extra = (abs(inner.den[0] / inner.num[0])
             if len(inner.num) == len(inner.den) else ())
    return crossing_gain(loop_jw, w1, 0.0, extra)
