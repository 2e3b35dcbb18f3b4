"""The input phasor, phase wrapping and the pulse-count guard of the time base.

The sampled signal itself is made by the Monte Carlo engine
(``sbcpmu.mc``), which runs the forward chain on rows of trials.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ScheduleGuardError

TWO_PI = 2.0 * math.pi


def wrap_phase(phi):
    """Wrap an angle (scalar or array) into (-pi, pi]."""
    wrapped = np.mod(np.asarray(phi, dtype=float) + math.pi, TWO_PI) - math.pi
    wrapped = np.where(wrapped == -math.pi, math.pi, wrapped)
    if np.ndim(phi) == 0:
        return float(wrapped)
    return wrapped


@dataclass(frozen=True)
class Phasor:
    """Amplitude/phase/frequency triple of a steady sinusoid.

    Phase is normalized to (-pi, pi] on construction.
    """

    amplitude: float
    phase: float
    frequency: float

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be > 0, got {self.frequency}")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @property
    def omega(self) -> float:
        return TWO_PI * self.frequency

    @property
    def value(self) -> complex:
        """Complex phasor A*exp(j*phi)."""
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


def guard_margin(deviation_ratio: float, samples_per_interval: int) -> float:
    """The pulse-count margin |R-1|*N_s; raises ``ScheduleGuardError`` unless it is < 1."""
    guard = abs(deviation_ratio - 1.0) * samples_per_interval
    if guard >= 1.0:
        raise ScheduleGuardError(
            "N_s pulse-count approximation invalid: "
            f"|R-1|*N_s = {guard:.3g} >= 1 "
            f"(R={deviation_ratio!r}, N_s={samples_per_interval})"
        )
    return guard
