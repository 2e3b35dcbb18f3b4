"""Dynamic phasor extraction, standard error metrics and compensation.

The estimator is the one-cycle Fourier coefficient of the fundamental,
evaluated over a window sliding one sample at a time.  It operates on the
timestamps the device believes in, so acquisition errors appear in the
recovered envelope rather than being silently corrected.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .blocks import BlockResponse
from .errors import EstimationError
from .signals import wrap_phase

MIN_WINDOW_SAMPLES = 10


@dataclass(frozen=True)
class EstimationWindow:
    """One-cycle estimation window at the nominal line frequency."""

    nominal_frequency: float

    def __post_init__(self):
        if self.nominal_frequency <= 0:
            raise ValueError("nominal_frequency must be > 0")

    @property
    def window_length(self) -> float:
        return 1.0 / self.nominal_frequency


@dataclass(frozen=True)
class CompensatedPhasor:
    """Compensated phasor with residual errors against a reference, if known."""

    value: complex
    magnitude_error: float = 0.0
    phase_error: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.magnitude_error) and math.isfinite(self.phase_error)):
            raise ValueError("residual errors must be finite")


@dataclass(frozen=True)
class _FourierPlan:
    """The sliding one-cycle estimator on one sample grid, applied to rows of samples.

    ``c(t) = (2/T_p) * sum s(t_i) * exp(-j*2*pi*f*t_i) * dt`` over one window,
    a left rectangular-rule approximation of the integral.  Each envelope
    sample is attributed to the center of its window.

    Everything that depends only on the grid (the weights, the window length
    and the envelope timestamps) is computed once by ``build``; ``rows`` then
    estimates any number of signals sampled on that grid, in two complex
    buffers the caller owns.  A weight folds the demodulating exponential,
    the sample interval and the ``2/T_p`` scale into one factor per sample.
    """

    weights: np.ndarray  # exp(-j*omega*t)*dt*2/T_p, one per sample interval
    n_win: int
    times: np.ndarray  # envelope timestamps, at the window centers

    @classmethod
    def build(cls, t, window: EstimationWindow) -> "_FourierPlan":
        if t.size < 2:
            raise EstimationError("waveform too short to estimate a phasor")
        dt = np.diff(t)
        # statistics.median gives np.median's value without loading numpy.ma
        step = statistics.median(dt.tolist())
        t_p = window.window_length
        n_win = round(t_p / step)
        if n_win < MIN_WINDOW_SAMPLES:
            raise EstimationError(
                f"unresolvable window: {n_win} samples per cycle (need >= {MIN_WINDOW_SAMPLES})"
            )
        if t.size <= n_win:  # n_win + 1 samples bound the first window
            raise EstimationError("waveform spans less than one estimation window")
        omega = 2.0 * math.pi * window.nominal_frequency
        # window j integrates the n_win sample intervals starting at sample j
        starts = t[: t.size - n_win]
        return cls(
            weights=np.exp(-1j * omega * t[:-1]) * dt * (2.0 / t_p),
            n_win=n_win,
            times=starts + 0.5 * t_p,
        )

    def rows(self, values: np.ndarray, demod: np.ndarray, csum: np.ndarray) -> np.ndarray:
        """Envelope coefficients (rows x windows) of real samples (rows x grid points).

        ``demod`` and ``csum`` are complex scratch shaped like ``values``.  The
        envelope is written over the first ``windows`` columns of ``demod`` and
        returned as a view of them; nothing else is allocated.
        """
        terms = np.multiply(values[:, :-1], self.weights, out=demod[:, :-1])
        csum[:, 0] = 0.0
        np.cumsum(terms, axis=1, out=csum[:, 1:])
        n_windows, n_win = self.times.size, self.n_win
        return np.subtract(
            csum[:, n_win : n_windows + n_win], csum[:, :n_windows], out=demod[:, :n_windows]
        )


def tve(measured, reference):
    """Total Vector Error |measured - reference| / |reference| (fraction)."""
    ref = np.asarray(reference, dtype=complex)
    if np.any(np.abs(ref) == 0):
        raise ValueError("reference phasor must be nonzero")
    out = np.abs(np.asarray(measured, dtype=complex) - ref) / np.abs(ref)
    if np.ndim(measured) == 0 and np.ndim(reference) == 0:
        return float(out)
    return out


def fe(nominal: float, deviation_ratio: float) -> float:
    """Frequency Error f*|1 - R| of a time base with deviation ratio R."""
    if nominal <= 0:
        raise ValueError("nominal frequency must be > 0")
    return nominal * abs(1.0 - deviation_ratio)


def compensate(
    measured: complex,
    observed_response: BlockResponse,
    reference: Optional[complex] = None,
    t: float = 0.0,
) -> CompensatedPhasor:
    """Divide out the observed system response (K = 1/Lambda).

    ``t`` is the elapsed time within the PPS interval at which the
    time-dependent part of the response phase is evaluated.  Residual errors
    are computed against ``reference`` when it is supplied.
    """
    if observed_response.magnitude <= 0:
        raise ValueError("observed response magnitude must be > 0")
    phase = observed_response.phase_at(t)
    factor = observed_response.magnitude * complex(math.cos(phase), math.sin(phase))
    z = complex(measured) / factor
    if reference is None:
        return CompensatedPhasor(value=z)
    ref = complex(reference)
    mag_err = abs(z) - abs(ref)
    phase_err = wrap_phase(np.angle(z) - np.angle(ref))
    return CompensatedPhasor(value=z, magnitude_error=mag_err, phase_error=float(phase_err))


__all__ = [
    "CompensatedPhasor",
    "EstimationWindow",
    "compensate",
    "fe",
    "tve",
]
