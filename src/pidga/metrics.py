"""Error-integral performance indices, step-response measures, stability.

Indices are dt-weighted Riemann sums, i.e. true approximations of the
continuous integrals (IAE = sum |e| dt and so on, MSE = ISE/horizon).  That
keeps them dimensionally consistent and comparable across sampling rates;
orderings between tuning methods are unaffected by the constant dt factor.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .lti import open_loop, poly_add, poly_trim

OBJECTIVES = ("mse", "itae", "iae", "ise", "itse")

FITNESS_CAP = 1e12
DIVERGED_FITNESS = 1e-12


@dataclass(frozen=True)
class PerformanceIndices:
    mse: float
    itae: float
    iae: float
    ise: float
    itse: float

    def by_name(self, name):
        if name not in OBJECTIVES:
            raise KeyError(f"unknown objective {name!r}")
        return getattr(self, name)


# each index's error power and its weight row (0: 1, 1: t)
_INDEX_TERMS = {"mse": (np.square, 0), "itae": (np.abs, 1), "iae": (np.abs, 0),
                "ise": (np.square, 0), "itse": (np.square, 1)}


def index_sums(e, t, dt, horizon, names=OBJECTIVES):
    """The named indices, by default all five, for error samples along the
    last axis: e may be a single trace (n,) or a stack (..., n) sharing the
    time grid t, so a whole GA population evaluates in one call.  Only the
    error powers the named indices need are summed, each as in the full set.
    """
    # one (2, n) x (n,) product per row and error power; matmul runs it
    # row by row, so a stacked row sums exactly as it would alone
    w = np.stack([np.ones_like(t), t]) * dt
    pairs, out = {}, []
    for name in names:
        power, weight = _INDEX_TERMS[name]
        if power not in pairs:
            pairs[power] = np.moveaxis((w @ power(e)[..., None])[..., 0], -1, 0)
        val = pairs[power][weight]
        out.append(val / horizon if name == "mse" else val)
    return tuple(out)


def indices(resp):
    """The five indices of a step response (diverged traces included as
    clamped: padding samples simply keep contributing their last error)."""
    vals = index_sums(resp.e, resp.t, resp.dt, resp.horizon)
    return PerformanceIndices(*(float(v) for v in vals))


def fitness(index_value, diverged=False):
    """Reciprocal-index fitness, capped at 1e12 for a vanishing index.

    Diverged responses get the flat penalty 1e-12 regardless of their
    (meaningless) clamped index.  Accepts scalars or arrays.
    """
    iv = np.asarray(index_value, dtype=float)
    with np.errstate(divide="ignore"):
        f = np.where(iv < 1e-12, FITNESS_CAP, 1.0 / np.where(iv > 0, iv, 1.0))
    f = np.where(diverged, DIVERGED_FITNESS, f)
    if np.ndim(index_value) == 0 and np.ndim(diverged) == 0:
        return float(f)
    return f


@dataclass(frozen=True)
class StandardMeasures:
    """Classical step-response measures: 5% settling band, 0-95% rise time.

    stability_margin is not derivable from the trace alone and is filled in
    separately (see stability_margin); it defaults to nan.
    """

    percent_overshoot: float
    settling_time: float
    rise_time: float
    peak_time: float
    steady_state_error: float
    stability_margin: float = math.nan

    def with_margin(self, margin):
        return replace(self, stability_margin=float(margin))


def standard_measures(resp):
    """Measure a non-diverged step response against its own final value.

    The final value is the last sample, not the reference: integral action
    drives them together, but P/PD gain sets explored by the optimizer have
    offset, and measuring against the actual asymptote keeps the numbers
    meaningful there too.  A non-positive final value has no sensible
    percent-of-final semantics and raises.
    """
    if resp.diverged:
        raise ValueError("measures undefined for a diverged response")
    y = resp.y
    t = resp.t
    final = y[-1]
    if final <= 0:
        raise ValueError("non-positive final value; measures undefined")
    k_peak = int(np.argmax(y))  # first maximum
    overshoot = max(0.0, (y[k_peak] - final) / final * 100.0)
    outside = np.abs(y - final) > 0.05 * final
    if outside.any():
        settling = t[np.flatnonzero(outside)[-1] + 1]
    else:
        settling = 0.0
    rise = t[int(np.argmax(y >= 0.95 * final))]
    return StandardMeasures(
        percent_overshoot=float(overshoot),
        settling_time=float(settling),
        rise_time=float(rise),
        peak_time=float(t[k_peak]),
        steady_state_error=float(1.0 - final),
    )


def routh_stable(poly):
    """Strict Hurwitz test: every first-column Routh entry positive.

    The leading sign is normalized first.  Then s is rescaled by
    r = |c_0/c_deg|^(1/deg), multiplying c_k (of s^k) by r^k: the roots'
    real parts keep their signs, and the leading and constant coefficients
    get one magnitude, so a badly scaled polynomial is not judged by its
    tiny coefficients.  A zero constant term is a root at 0.  A pivot at or
    below 1e-12 of the current row scale counts as a zero pivot and returns
    False: marginal polynomials are "not strictly stable".
    """
    c = poly_trim(poly)
    if len(c) == 1:
        if c[0] == 0:
            raise ValueError("zero polynomial")
        raise ValueError("constant polynomial: stability test needs degree >= 1")
    if c[-1] == 0:
        return False
    if c[0] < 0:
        c = -c
    deg = len(c) - 1
    c = c * abs(c[-1] / c[0]) ** (np.arange(deg, -1, -1) / deg)
    width = deg // 2 + 1
    r0 = np.zeros(width)
    r1 = np.zeros(width)
    r0[:len(c[0::2])] = c[0::2]
    r1[:len(c[1::2])] = c[1::2]
    for _ in range(deg):
        scale = max(np.abs(r0).max(), np.abs(r1).max(), 1e-300)
        pivot = r1[0]
        if pivot <= 1e-12 * scale:  # catches negatives and near-zero pivots
            return False
        nxt = np.zeros(width)
        nxt[:width - 1] = r0[1:] - (r0[0] / pivot) * r1[1:]
        r0, r1 = r1, nxt
    return True


def crossing_gain(loop_jw, w, above, extra=()):
    """Smallest gain c > above that puts a root of 1 + c*L on the jw axis:
    c = -1/L(jw) at the phase crossovers w of loop_jw(w) = L(jw), where L is
    real, or one of the extra candidate gains; inf if there is none."""
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.append(-1.0 / np.real(loop_jw(w)), extra)
    c = c[c > above]
    return float(c.min()) if c.size else math.inf


def stability_margin(controller, plant, delay=None):
    """Smallest loop-gain multiplier K > 1 that destabilizes the loop.

    The whole loop L = num_L/den_L = controller*plant*delay is scaled by K.
    From a Routh-stable nominal loop (K = 1; raises otherwise) the roots of
    den_L + K*num_L first leave the left half-plane through s = jw, at
    K = -den_L(jw)/num_L(jw) for a real root w >= 0 of
    Im[den_L(jw)*conj(num_L(jw))], or through infinity, at
    K = -lead(den_L)/lead(num_L) when the degrees are equal.  Returns the
    smallest such K above 1, math.inf if none.
    """
    loop = open_loop(controller, plant, delay)
    if not routh_stable(poly_add(loop.den, loop.num)):
        raise ValueError("nominal closed loop is unstable")
    # den_L(jw), num_L(jw) as polynomials in w: c_k s^k -> c_k j^k w^k
    j_pow = np.array([1, 1j, -1, -1j])
    den_jw, num_jw = (c * j_pow[np.arange(len(c))[::-1] % 4]
                      for c in (loop.den, loop.num))
    w = np.roots(np.polymul(den_jw, num_jw.conj()).imag)
    w = np.abs(w.real[np.abs(w.imag) <= 1e-6 * np.abs(w)])
    extra = (-loop.den[0] / loop.num[0] if len(loop.num) == len(loop.den)
             else ())
    return crossing_gain(lambda x: loop(1j * x), w, 1.0, extra)
