"""Time-delay models: DFR rational approximation and two exact oracles.

The tuning sweeps run entirely on the second-order DFR series, an all-pass
rational approximation of e^{-s*tau}.  Two ground truths validate that
model: delayed_step_sim gives the closed-loop step response with the delay
realized in the time domain (a pure shift by round(tau/dt) samples), and
true_margin gives the exact loop-gain stability margin of the delayed loop
from its frequency response.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .lti import (StepResponse, TransferFunction, clamp_divergence,
                  divergence_mask, rk4_transition, sample_count,
                  to_state_space)
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
    magnitude is exactly 1 at every frequency; tau = 0 trims to 1/1.
    """
    if tau < 0:
        raise ValueError("negative delay")
    c2 = DFR_C2 * tau * tau
    c1 = DFR_C1 * tau
    return DelayApprox(float(tau),
                       TransferFunction([c2, -c1, 1.0], [c2, c1, 1.0]))


def delayed_step_sim(inner, tau, dt=0.01, horizon=15.0):
    """Unit-step response of the loop closed around inner(s)*e^{-s tau},
    with the delay realized exactly as a shift by n = round(tau/dt) samples.

    inner is the forward-path transfer function (controller*plant product),
    realized in state space and stepped with the same RK4 maps as the
    rational simulations; its input u = 1 - y is held across each step.  The
    recursion keeps inner's outputs in v behind n leading zeros, so the
    measured output y[k] = v[k] is inner's output n samples earlier, and 0
    before n: the exact loop cannot respond within the dead time, whatever
    inner's direct feedthrough.  Divergence is judged on the loop's own
    states by lti's rule.

    tau must round to at least one sample.  A tau that is not a multiple of
    dt is rounded half to even, with a warning: at dt = 0.01 the default
    delays 0.025 and 0.075 are 2.5 and 7.5 samples, simulated as 2 and 8
    (0.02 s and 0.08 s).
    """
    nsamp = sample_count(dt, horizon)
    ratio = tau / dt
    n = round(ratio)
    if n < 1:
        raise ValueError("delayed_step_sim needs a delay of at least one "
                         "sample")
    if abs(ratio - n) > 1e-9:
        log.warning("delay %.6g is not a multiple of dt=%.6g; "
                    "rounding to %d samples", tau, dt, n)
    ss = to_state_space(inner)
    M, N = rk4_transition(ss.A, ss.B, dt)
    v = np.zeros(n + nsamp)
    X = np.zeros((nsamp + 1, ss.order))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(nsamp):
            u = 1.0 - v[k]
            v[k + n] = ss.C @ X[k] + ss.D * u
            X[k + 1] = M @ X[k] + N * u
    y = v[:nsamp]
    diverged = bool(clamp_divergence(divergence_mask(X)[None], y[None])[0])
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
