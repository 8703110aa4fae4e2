"""Ziegler-Nichols baseline tuning and GA gene bounds derived from it."""

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .lti import TransferFunction


class PidGains(NamedTuple):
    """Chromosome payload, in the fixed gene order (kd, kp, ki)."""

    kd: float
    kp: float
    ki: float


@dataclass(frozen=True)
class PlantFolpd:
    """First-order lag plus delay: gain * e^(-delay*s) / (time_constant*s + 1)."""

    gain: float = 1.0
    time_constant: float = 1.0
    delay: float = 0.0

    def __post_init__(self):
        if self.gain <= 0:
            raise ValueError("plant gain must be positive")
        if self.time_constant <= 0:
            raise ValueError("time constant must be positive")
        if self.delay < 0:
            raise ValueError("delay must be non-negative")

    def lag_tf(self):
        """The rational (delay-free) part, gain/(time_constant*s + 1)."""
        return TransferFunction([self.gain], [self.time_constant, 1.0])


def ziegler_nichols(plant):
    """Open-loop (process reaction curve) Ziegler-Nichols PID gains.

    Kp = 1.2*T/(K*L), Ti = 2L, Td = L/2, mapped to the parallel gains
    ki = Kp/Ti and kd = Kp*Td.  Undefined for a delay-free plant.
    """
    if plant.delay <= 0:
        raise ValueError("reaction-curve rule needs a positive delay")
    kp = 1.2 * plant.time_constant / (plant.gain * plant.delay)
    ti = 2.0 * plant.delay
    td = 0.5 * plant.delay
    return PidGains(kd=kp * td, kp=kp, ki=kp / ti)


@dataclass(frozen=True)
class GeneBounds:
    """Per-gene [low, high] intervals, aligned with the (kd, kp, ki) order."""

    low: np.ndarray
    high: np.ndarray

    def __post_init__(self):
        low = np.asarray(self.low, dtype=float)
        high = np.asarray(self.high, dtype=float)
        if low.shape != high.shape:
            raise ValueError("bound arrays must have matching shapes")
        if (low < 0).any() or (low >= high).any():
            raise ValueError("need 0 <= low < high for every gene")
        low.flags.writeable = False
        high.flags.writeable = False
        object.__setattr__(self, "low", low)
        object.__setattr__(self, "high", high)

    @property
    def span(self):
        return self.high - self.low

    def contains(self, genes):
        g = np.asarray(genes)
        return bool(np.all(g >= self.low) and np.all(g <= self.high))


def bounds_from_baseline(base, factor=2.0):
    """Search box [0, factor*gene] per gene around a baseline gain set.

    A zero baseline gene would collapse its interval, so it falls back to
    [0, factor].
    """
    if factor <= 1:
        raise ValueError("factor must exceed 1")
    base = np.asarray(base, dtype=float)
    if (base < 0).any():
        raise ValueError("baseline gains must be non-negative")
    high = np.where(base > 0, factor * base, factor)
    return GeneBounds(np.zeros(base.shape), high)
