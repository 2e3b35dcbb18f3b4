"""Phasor and waveform primitives.

Reference signal synthesis, the analytic-signal / complex-envelope view of
a sinusoid, and the sampling-instant schedules produced by a PPS-disciplined
time base with a per-interval synchronization delay.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

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


def _check_times(times: np.ndarray) -> None:
    if times.ndim != 1:
        raise ValueError("sample times must be one-dimensional")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValueError("sample times must be strictly increasing")


@dataclass(frozen=True)
class Waveform:
    """Real-valued sampled signal with strictly increasing sample times."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching shapes")
        _check_times(times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size


@dataclass(frozen=True)
class ComplexEnvelope:
    """Dynamic phasor X(t): complex-valued samples over strictly increasing times."""

    times: np.ndarray
    values: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=complex)
        if times.shape != values.shape:
            raise ValueError("times and values must have matching shapes")
        _check_times(times)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return self.times.size

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.values)

    @property
    def angle(self) -> np.ndarray:
        return np.angle(self.values)


@dataclass(frozen=True)
class SamplingSchedule:
    """Realized sampling instants of a PPS-disciplined converter.

    One entry of ``delays`` per PPS interval; the time-base deviation ratio R
    scales the sample spacing within each interval.  Delays are signed: a
    positive value means sampling starts late relative to the PPS edge, a
    negative value models an effective lead of the sample labeling.
    """

    nominal_rate: float
    deviation_ratio: float
    delays: tuple
    pps_period: float = 1.0

    def __post_init__(self):
        if self.nominal_rate <= 0:
            raise ValueError("nominal_rate must be > 0")
        if self.pps_period <= 0:
            raise ValueError("pps_period must be > 0")
        if len(self.delays) == 0:
            raise ValueError("at least one PPS interval is required")
        object.__setattr__(self, "delays", tuple(float(d) for d in self.delays))
        guard_margin(self.deviation_ratio, self.samples_per_interval)

    @property
    def sample_period(self) -> float:
        return 1.0 / self.nominal_rate

    @property
    def samples_per_interval(self) -> int:
        return round(self.pps_period * self.nominal_rate)

    @property
    def intervals(self) -> int:
        return len(self.delays)

    def nominal_instants(self) -> np.ndarray:
        """Sample times as the device believes them: k*T + n*T_s."""
        k = np.arange(self.intervals) * self.pps_period
        return interval_instants(self.sample_period, 1.0, k, self.samples_per_interval).ravel()

    def realized_instants(self) -> np.ndarray:
        """Physical sampling times: k*T + n*T_s*R + tau_k."""
        k = np.arange(self.intervals) * self.pps_period
        starts = k + np.asarray(self.delays)
        return interval_instants(
            self.sample_period, self.deviation_ratio, starts, self.samples_per_interval
        ).ravel()


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


def interval_instants(sample_period: float, deviation_ratio, starts, samples: int) -> np.ndarray:
    """Sample instants start + n*T_s*R, one row of ``samples`` per entry of ``starts``.

    ``deviation_ratio`` is a scalar, or a column with one ratio per row.
    """
    n = np.arange(samples) * sample_period * deviation_ratio
    return np.asarray(starts)[:, None] + n


def build_schedule(
    nominal_rate: float,
    deviation_ratio: float = 1.0,
    delays: Sequence[float] = (0.0,),
    pps_period: float = 1.0,
) -> SamplingSchedule:
    """Build a :class:`SamplingSchedule`, enforcing the pulse-count guard."""
    return SamplingSchedule(
        nominal_rate=float(nominal_rate),
        deviation_ratio=float(deviation_ratio),
        delays=tuple(delays),
        pps_period=float(pps_period),
    )


def synthesize(phasor: Phasor, schedule: SamplingSchedule) -> Waveform:
    """Sample A*cos(w*t + phi) at the schedule's realized instants.

    The returned waveform carries the realized (true) sample times; see
    ``sbcpmu.blocks.acquire`` for the device-apparent view.
    """
    t = schedule.realized_instants()
    values = phasor.amplitude * np.cos(phasor.omega * t + phasor.phase)
    return Waveform(times=t, values=values)


def ideal_envelope(phasor: Phasor, times) -> ComplexEnvelope:
    """Constant dynamic phasor A*exp(j*phi) evaluated at the given times."""
    t = np.asarray(times, dtype=float)
    values = np.full(t.shape, phasor.value, dtype=complex)
    return ComplexEnvelope(times=t, values=values)
