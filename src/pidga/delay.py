"""Time-delay models: DFR rational approximation and an exact delay line.

The tuning sweeps run entirely on the second-order DFR series, an all-pass
rational approximation of e^{-s*tau}.  The sample-shift delay line exists as
a ground-truth oracle: it realizes the delay exactly (a pure shift by
round(tau/dt) samples), so closed-loop responses and stability thresholds
computed with it validate the rational model.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .lti import (StepResponse, TransferFunction, clamp_divergence,
                  rk4_transition, sample_count, to_state_space)

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
    realized in state space and stepped with the same RK4 scheme as the
    rational simulations; its input is held constant across each step.  The
    delay-line output is the measured signal y, and with feedback=True it is
    also fed back, closing the loop e = 1 - y.  feedback=False leaves the
    chain open (the delayed step response of inner itself).

    The exact loop cannot respond before the dead time, so y is identically
    zero for t < tau regardless of any direct feedthrough in inner.
    """
    nsamp = sample_count(dt, horizon)
    ss = to_state_space(inner)
    C = ss.C[None]
    M, N = rk4_transition(ss.A[None], ss.B, dt)
    line = DelayLine(dt, tau)
    y = np.empty((1, nsamp))
    X = np.zeros((1, nsamp + 1, ss.order))
    x = X[:, 0]
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsamp):
            # the batch_step expressions, so an open chain reproduces
            # step_response bit for bit
            cx = np.einsum("pj,pkj->pk", C, x[:, None])[0, 0]
            if line.n > 0:
                yk = line.peek()
            elif feedback:
                # zero-length line: the loop is algebraic through D
                yk = (cx + ss.D) / (1.0 + ss.D)
            else:
                yk = cx + ss.D
            y[0, k] = yk
            u = 1.0 - yk if feedback else 1.0
            line.push(cx + ss.D * u)
            x = np.einsum("pij,pj->pi", M, x) + N * u
            X[:, k + 1] = x
    diverged = bool(clamp_divergence(X, y)[0])
    y = y[0]
    return StepResponse(dt, horizon, np.arange(nsamp) * dt, y, 1.0 - y,
                        diverged)


def gain_threshold(inner, tau, dt=0.01, horizon=60.0, k_max=1e6,
                   rel_tol=1e-3):
    """Loop-gain multiplier at which the exact-delay loop stops decaying.

    Simulation-side twin of the Routh-based stability margin computed on the
    rational model: scale the forward path by K, run the delay-line loop
    over a long horizon, and call the loop unstable once the error envelope
    stops shrinking (peak |e| over the final third of the horizon no smaller
    than over the middle third, i.e. sustained or growing oscillation).
    Doubling then bisection, as in the Routh search, but with a looser
    default tolerance since each probe is a full simulation.
    """

    def grows(k):
        resp = delayed_step_sim(
            TransferFunction(k * inner.num, inner.den), tau, dt, horizon)
        if resp.diverged:
            return True
        e = np.abs(resp.e)
        n = len(e)
        return e[2 * n // 3:].max() >= e[n // 3:2 * n // 3].max()

    if grows(1.0):
        raise ValueError("nominal loop already oscillatory")
    lo, hi = 1.0, 2.0
    while not grows(hi):
        lo = hi
        if hi >= k_max:
            return float("inf")
        hi = min(hi * 2.0, k_max)
    while hi - lo > rel_tol * lo:
        mid = 0.5 * (lo + hi)
        if grows(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
