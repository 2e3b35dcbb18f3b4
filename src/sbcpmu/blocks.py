"""The four parametric error blocks, their combined response and the chain profile.

Each block contributes one complex factor to the combined system response:
the anti-aliasing filter (static magnitude/phase), the ADC static transfer
(pure gain), the PWM time base (phase ramp within each PPS interval) and the
software-PLL synchronization delay (pure phase).  ``expected_response``
gives the terms of the combined factor; a block's own terms are those of a
chain that holds only that block.  ``pll_sample`` draws one delay, and
``Phasor`` is the steady input sinusoid.  The time-domain chain, which
samples a phasor through all four blocks one row per Monte Carlo trial,
lives in ``sbcpmu.mc`` beside the buffers it computes in.

The model classes and the profile reader and writer need only the standard
library, so loading, checking, merging and showing a profile loads no numpy:
it loads at the first array computation.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Mapping, NamedTuple, Optional

from .errors import (
    ConfigError,
    ModelParameterError,
    integer,
    number,
    numbers,
    of_type,
    positive,
    read_json,
    reject_unknown_keys,
    section,
    write_json,
)

SQRT3 = math.sqrt(3.0)


def _require_finite(error: type, model, *names: str) -> None:
    """Raise ``error`` naming the first field of ``model`` that is NaN or infinite; None passes."""
    for name in names:
        value = getattr(model, name)
        if value is not None and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value!r}")


class ExpectedResponse(NamedTuple):
    """The expected combined response ``exp(log_magnitude + 1j * phase)``.

    Magnitudes multiply and phases add, so the terms of several blocks are
    sums.  From ``expected_response`` the phase and its std hold one value
    per elapsed time, and the stds are worst-case sums (every block's std
    taken with the same sign); the terms of one block are the response of a
    chain holding only that block.  ``aaf_response`` gives scalars.
    """

    log_magnitude: float
    phase: np.ndarray
    log_magnitude_std: float
    phase_std: np.ndarray

    @property
    def compensation(self):
        """The compensation factor ``K = 1/Lambda`` that a measured phasor is multiplied by."""
        import numpy as np

        return math.exp(-self.log_magnitude) * np.exp(-1j * self.phase)


# ---------------------------------------------------------------------------
# AAF
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AafModel:
    """First-order RC anti-aliasing filter with component tolerances.

    ``AafModel``, ``aaf_cutoff_model`` and ``aaf_response`` are the RC design
    analysis: they predict the AAF terms from the component tolerances, and
    feed no chain.  A ``ChainModel`` carries the measured AAF gain and phase
    errors of a profile (``aaf.gain_err_ppm``, ``aaf.phase_err_urad``).
    """

    resistance: float
    capacitance: float
    resistor_tolerance: float = 0.0
    capacitor_tolerance: float = 0.0

    def __post_init__(self):
        if self.resistance <= 0 or self.capacitance <= 0:
            raise ValueError("R and C must be strictly positive")
        if not (0 <= self.resistor_tolerance < 1 and 0 <= self.capacitor_tolerance < 1):
            raise ValueError("tolerances must lie in [0, 1)")

    @property
    def tau(self) -> float:
        return self.resistance * self.capacitance

    @property
    def tau_std(self) -> float:
        """Standard uncertainty of tau, tolerances taken as uniform half-widths."""
        u_r = self.resistance * self.resistor_tolerance / SQRT3
        u_c = self.capacitance * self.capacitor_tolerance / SQRT3
        return math.hypot(self.resistance * u_c, self.capacitance * u_r)


def aaf_cutoff_model(
    cutoff_hz: float,
    resistor_tolerance: float = 0.0,
    capacitor_tolerance: float = 0.0,
    resistance: float = 1.0e3,
) -> AafModel:
    """An RC design from its -3 dB cutoff frequency (design analysis; see ``AafModel``)."""
    tau = 1.0 / (2.0 * math.pi * cutoff_hz)
    return AafModel(
        resistance=resistance,
        capacitance=tau / resistance,
        resistor_tolerance=resistor_tolerance,
        capacitor_tolerance=capacitor_tolerance,
    )


def aaf_response(model: AafModel, omega: float) -> ExpectedResponse:
    """Magnitude/phase response of the RC design with propagated uncertainty.

    Design analysis (see ``AafModel``): the model curve and the Monte Carlo
    use the profile's measured AAF terms, not this response.
    """
    if omega <= 0:
        raise ValueError("omega must be > 0")
    tau = model.tau
    wt = omega * tau
    h = 1.0 / math.sqrt(1.0 + wt * wt)
    u_tau = model.tau_std
    # u_H = u_tau * H^3 * omega^2 * tau; relative to H it is the std of log H
    return ExpectedResponse(
        log_magnitude=math.log(h),
        phase=-math.atan(wt),
        log_magnitude_std=(u_tau / tau) * wt * wt * h * h if tau > 0 else 0.0,
        phase_std=u_tau * h * h * omega,
    )


# ---------------------------------------------------------------------------
# PWM time base
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TimebaseModel:
    """Time-base deviation statistics over the operating temperature range.

    ``e_r_by_temperature`` holds (temperature_c, mean_ppm, std_ppm) rows on a
    strictly increasing temperature grid.  ``overall_mean_ppm`` and
    ``overall_std_ppm`` are the all-conditions statistics used when no
    temperature is supplied.  ``estimator_std_ppm`` (the one-counter
    estimator's scatter) and ``board_std_ppm`` (the board-to-board scatter)
    are recorded characterization results: the Monte Carlo does not draw from
    them, and nothing in the model reads them.
    """

    overall_mean_ppm: float
    overall_std_ppm: float
    e_r_by_temperature: tuple = ()
    estimator_std_ppm: float = 0.0
    board_std_ppm: float = 0.0

    def __post_init__(self):
        rows = tuple((float(t), float(m), float(s)) for t, m, s in self.e_r_by_temperature)
        _require_finite(ModelParameterError, self, "overall_mean_ppm", "overall_std_ppm",
                        "estimator_std_ppm", "board_std_ppm")
        for i, row in enumerate(rows):
            if not all(map(math.isfinite, row)):
                raise ModelParameterError(f"e_r_by_temperature[{i}] must be finite, got {row}")
        temps = [r[0] for r in rows]
        if temps != sorted(temps) or len(set(temps)) != len(temps):
            raise ModelParameterError("temperature grid must be strictly increasing")
        if any(r[2] < 0 for r in rows) or self.overall_std_ppm < 0:
            raise ModelParameterError("stds must be >= 0")
        for name in ("estimator_std_ppm", "board_std_ppm"):
            if getattr(self, name) < 0:
                raise ModelParameterError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "e_r_by_temperature", rows)

    def check_temperature(self, temperature: Optional[float]) -> None:
        """Raise a ``ConfigError`` unless ``temperature`` is None or on the grid's span.

        The statistics are not extrapolated: ``np.interp`` would clamp an
        off-grid temperature to the nearest end of the grid in silence.
        """
        grid = [r[0] for r in self.e_r_by_temperature]
        if temperature is not None and not (grid and grid[0] <= temperature <= grid[-1]):
            span = f"[{grid[0]}, {grid[-1]}]" if grid else "(empty)"
            raise ConfigError(
                f"temperature_c: {temperature} is off timebase.by_temperature_c {span}"
            )

    def _interp(self, temperature: float, column: int) -> float:
        import numpy as np

        self.check_temperature(temperature)
        grid = np.array([r[0] for r in self.e_r_by_temperature])
        vals = np.array([r[column] for r in self.e_r_by_temperature])
        return float(np.interp(temperature, grid, vals))

    def mean_ppm(self, temperature: Optional[float] = None) -> float:
        if temperature is None:
            return self.overall_mean_ppm
        return self._interp(temperature, 1)

    def std_ppm(self, temperature: Optional[float] = None) -> float:
        if temperature is None:
            return self.overall_std_ppm
        return self._interp(temperature, 2)

    def deviation_ratio(self, temperature: Optional[float] = None) -> float:
        return 1.0 + 1e-6 * self.mean_ppm(temperature)


# ---------------------------------------------------------------------------
# PLL delay
# ---------------------------------------------------------------------------

_PLL_FAMILIES = ("shifted-gamma", "truncated-normal", "empirical-histogram")


def _us(seconds: float) -> str:
    """A time in µs to 6 significant digits, free of the seconds' float noise."""
    return f"{seconds * 1e6:.6g}"


@dataclass(frozen=True)
class PllDelayModel:
    """Random synchronization delay of the software PLL.

    All times are seconds.  ``min`` is a hard lower bound of the support.
    The default shifted-gamma family matches the hard lower bound and the
    positive skew seen in the delay histograms; truncated-normal and an
    empirical histogram are available for sensitivity studies.  For
    truncated-normal, ``mean``/``std`` locate the underlying normal, which may
    lie outside ``[min, max]`` when ``std > 0``.  For shifted-gamma they are
    the gamma's own, and a finite ``max`` clips the gamma's tail.  An
    empirical histogram ignores them.  ``drawn_moments`` gives the mean and
    std of the delays ``pll_sample`` actually draws.  ``mode`` and
    ``mode_std`` are recorded statistics of a measured sample (its histogram
    mode and the rms spread about it) that nothing draws from; the mode need
    only lie in ``[min, max]``, since for a near-symmetric sample it lies
    above the mean about half the time.
    """

    family: str = "shifted-gamma"
    min: float = 0.0
    max: float = math.inf
    mean: float = 0.0
    std: float = 0.0
    mode: Optional[float] = None
    mode_std: Optional[float] = None
    histogram: Optional[tuple] = None  # (bin_edges, counts)

    def __post_init__(self):
        if self.family not in _PLL_FAMILIES:
            raise ModelParameterError(f"unknown delay family {self.family!r}")
        _require_finite(ModelParameterError, self, "min", "mean", "std", "mode", "mode_std")
        if math.isnan(self.max):  # +inf is no bound
            raise ModelParameterError(f"max must be a number or +inf, got {self.max!r}")
        if self.std < 0:
            raise ModelParameterError("std must be >= 0")
        if self.mode_std is not None and self.mode_std < 0:
            raise ModelParameterError(f"mode_std must be >= 0, got {_us(self.mode_std)} µs")
        if self.family == "empirical-histogram":
            if self.histogram is None:
                raise ModelParameterError("empirical-histogram requires bin data")
            edges, counts = self.histogram
            edges = tuple(float(e) for e in edges)
            counts = tuple(int(c) for c in counts)
            if len(edges) != len(counts) + 1 or sum(counts) <= 0 or min(counts) < 0:
                raise ModelParameterError("malformed histogram")
            shown = f"{' / '.join(map(_us, edges))} µs"
            if not all(map(math.isfinite, edges)):
                raise ModelParameterError(f"histogram bin_edges_us must be finite, got {shown}")
            if any(hi <= lo for lo, hi in zip(edges, edges[1:])):
                raise ModelParameterError(f"histogram bin_edges_us must increase strictly, got {shown}")
            object.__setattr__(self, "histogram", (edges, counts))
            return
        if self.histogram is not None:
            raise ModelParameterError(f"a {self.family} delay takes no histogram")
        # messages give times in µs, as profiles write them
        lo, hi, mean = _us(self.min), _us(self.max), _us(self.mean)
        if self.family == "truncated-normal" and self.std > 0:
            if not self.min < self.max:
                raise ModelParameterError(f"need min < max, got {lo} / {hi} µs")
            p_lo, p_hi, _ = _truncated_normal_bounds(self)
            if not p_hi > p_lo:
                raise ModelParameterError(
                    f"truncated-normal support [{lo}, {hi}] µs holds no representable "
                    f"mass of the normal with mean {mean} µs and std {_us(self.std)} µs"
                )
        elif not (self.min <= self.mean <= self.max):
            raise ModelParameterError(f"need min <= mean <= max, got {lo} / {mean} / {hi} µs")
        if self.mode is not None and not (self.min <= self.mode <= self.max):
            raise ModelParameterError(
                f"need min <= mode <= max, got {lo} / {_us(self.mode)} / {hi} µs"
            )
        if self.family == "shifted-gamma" and self.std > 0 and self.mean <= self.min:
            raise ModelParameterError(
                f"shifted-gamma needs mean > min when std > 0, got {mean} / {lo} µs"
            )

    @property
    def degenerate(self) -> bool:
        return self.std == 0.0

    @functools.cached_property
    def drawn_moments(self) -> tuple:
        """``(mean, std)`` in seconds of the delays ``pll_sample`` draws, computed on first use.

        An empirical histogram draws a bin by its count, then a uniform point
        in it: the mixture's mean, and its std by the law of total variance.
        A truncated normal has the closed form of ``_truncated_normal_moments``.
        A shifted gamma has ``mean``/``std``, exact when ``max`` is infinite
        (a finite ``max`` clips the tail and lowers both); so has a
        degenerate model.
        """
        if self.family == "empirical-histogram":
            edges, counts = self.histogram
            total = sum(counts)
            bins = [(c / total, lo, hi) for c, lo, hi in zip(counts, edges, edges[1:])]
            mean = math.fsum(p * 0.5 * (lo + hi) for p, lo, hi in bins)
            var = math.fsum(
                p * ((hi - lo) ** 2 / 12.0 + (0.5 * (lo + hi) - mean) ** 2) for p, lo, hi in bins
            )
            return mean, math.sqrt(var)
        if self.degenerate or self.family == "shifted-gamma":
            return self.mean, self.std
        return _truncated_normal_moments(self)

    @functools.cached_property
    def _draw_constants(self) -> tuple:
        """What ``pll_sample`` derives from a histogram or truncated normal, computed on first use.

        An empirical histogram gives its bin edges as an array and the bins'
        normalised cumulative probabilities, as ``Generator.choice`` forms them
        from ``p`` on every call; a truncated normal gives
        ``_truncated_normal_bounds`` and the standard normal's inverse CDF
        (``statistics`` is imported here, so a process that draws no
        truncated normal never loads it).
        """
        import numpy as np

        if self.family == "empirical-histogram":
            edges, counts = self.histogram
            p = np.asarray(counts, dtype=float)
            p /= p.sum()
            cdf = p.cumsum()
            cdf /= cdf[-1]
            return np.asarray(edges), cdf
        from statistics import NormalDist

        return (*_truncated_normal_bounds(self), NormalDist().inv_cdf)


# inv_cdf needs 0 < p < 1; rounding in rng.uniform can land on either end
_P_OPEN = (math.ulp(0.0), 1.0 - 2.0**-53)


def pll_sample(model: PllDelayModel, rng: np.random.Generator) -> float:
    """Draw one synchronization delay from the model (seconds)."""
    if model.family == "empirical-histogram":
        edges, cdf = model._draw_constants
        # the bin rng.choice(cdf.size, p=p) draws, without re-checking p
        idx = cdf.searchsorted(rng.random(), side="right")
        lo, hi = edges[idx], edges[idx + 1]
        return lo + rng.uniform(0.0, 1.0) * (hi - lo)
    if model.degenerate:
        return model.mean
    if model.family == "shifted-gamma":
        span = model.mean - model.min
        shape = (span / model.std) ** 2
        scale = model.std**2 / span
        return min(model.min + rng.gamma(shape, scale), model.max)
    # truncated-normal: an inverse-CDF draw; min/max give np.clip's values without its per-call cost
    p_lo, p_hi, sign, inv_cdf = model._draw_constants
    u = min(max(float(rng.uniform(p_lo, p_hi)), _P_OPEN[0]), _P_OPEN[1])
    z = inv_cdf(u)
    return float(min(max(model.mean + sign * model.std * z, model.min), model.max))


def _truncated_normal_bounds(model: PllDelayModel):
    """The standard-normal CDF at the support's ends, and the mirror sign.

    An interval above the mean is mirrored below it first (sign -1), and the
    CDF is taken as ``erfc(-z/sqrt(2))/2``: that form keeps its relative
    precision in the lower tail, where ``NormalDist.cdf`` (``(1 + erf)/2``)
    rounds to 0 beyond about 8 std, so a deep one-sided truncation stays
    resolved.  ``PllDelayModel`` rejects a support where ``p_hi > p_lo`` fails.
    """
    a = (model.min - model.mean) / model.std
    b = (model.max - model.mean) / model.std
    sign = 1.0
    if a > 0:
        a, b, sign = -b, -a, -1.0
    p_lo, p_hi = (0.5 * math.erfc(-z / math.sqrt(2.0)) for z in (a, b))
    return p_lo, p_hi, sign


def _truncated_normal_moments(model: PllDelayModel) -> tuple:
    """Mean and std of the normal(mean, std) restricted to [min, max], in closed form.

    On the support's standard-normal ends ``a < b``, mirrored below the mean
    as the draws are (``_truncated_normal_bounds``), with the mass
    ``Z = Phi(b) - Phi(a)`` and the density ``phi``, a standard draw has the
    mean ``d = (phi(a) - phi(b))/Z`` and the variance
    ``1 + (a*phi(a) - b*phi(b))/Z - d*d``.
    """
    p_lo, p_hi, sign = _truncated_normal_bounds(model)
    a, b = sorted(sign * (x - model.mean) / model.std for x in (model.min, model.max))
    # an infinite end has phi = 0 and z*phi = 0
    pdf_a, pdf_b = (math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) for z in (a, b))
    zpdf_a, zpdf_b = (z * f if math.isfinite(z) else 0.0 for z, f in ((a, pdf_a), (b, pdf_b)))
    mass = p_hi - p_lo
    d = (pdf_a - pdf_b) / mass
    # rounding can take the variance of a support far narrower than std below 0
    var = max(1.0 + (zpdf_a - zpdf_b) / mass - d * d, 0.0)
    return model.mean + sign * model.std * d, model.std * math.sqrt(var)


# ---------------------------------------------------------------------------
# Combination and the forward operator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianTerm:
    """Mean and standard deviation of one scalar error parameter."""

    mean: float
    std: float = 0.0

    def __post_init__(self):
        _require_finite(ValueError, self, "mean", "std")
        if self.std < 0:
            raise ValueError("std must be >= 0")


@dataclass(frozen=True)
class ChainModel:
    """The four parameterized error blocks plus noise terms.

    Field names carry explicit units.  The ADC carries two gain dispersions:
    ``adc_gain_ppm.std`` is the full state-of-knowledge uncertainty
    (board-to-board included) used for model bands, while
    ``adc_gain_within_device_ppm`` is the channel-to-channel dispersion of a
    single board, which is what uncorrelated sub-sequences acquired on one
    device actually exhibit.
    """

    aaf_gain_ppm: GaussianTerm = GaussianTerm(0.0)
    aaf_phase_urad: GaussianTerm = GaussianTerm(0.0)
    adc_gain_ppm: GaussianTerm = GaussianTerm(0.0)
    adc_gain_within_device_ppm: Optional[float] = None
    adc_offset_uv: GaussianTerm = GaussianTerm(0.0)
    adc_bits: Optional[int] = None  # None: ideal converter (no quantization)
    adc_vref_v: float = 10.0
    adc_noise_rms_uv: float = 0.0
    timebase: TimebaseModel = TimebaseModel(0.0, 0.0)
    pll: PllDelayModel = PllDelayModel(std=0.0)
    pll_profiles: Mapping[str, PllDelayModel] = field(default_factory=dict)
    name: str = "chain"

    def __post_init__(self):
        _require_finite(ModelParameterError, self, "adc_vref_v", "adc_noise_rms_uv",
                        "adc_gain_within_device_ppm")
        if self.adc_noise_rms_uv < 0:
            raise ModelParameterError(f"adc_noise_rms_uv must be >= 0, got {self.adc_noise_rms_uv}")
        # float64 holds the code grid exactly up to 2**53 codes
        if self.adc_bits is not None and not 1 <= self.adc_bits <= 53:
            raise ModelParameterError(f"adc_bits must be in [1, 53] or None, got {self.adc_bits}")
        if not self.adc_vref_v > 0:
            raise ModelParameterError(f"adc_vref_v must be > 0, got {self.adc_vref_v}")
        if self.adc_gain_within_device_ppm is not None and self.adc_gain_within_device_ppm < 0:
            raise ModelParameterError(
                f"adc_gain_within_device_ppm must be >= 0, got {self.adc_gain_within_device_ppm}"
            )

    def sequence_gain_std_ppm(self) -> float:
        """Gain dispersion across uncorrelated sub-sequences of one device."""
        if self.adc_gain_within_device_ppm is not None:
            return self.adc_gain_within_device_ppm
        return self.adc_gain_ppm.std


def expected_response(
    chain: ChainModel, omega: float, t, temperature: Optional[float] = None
) -> ExpectedResponse:
    """The chain's expected response at elapsed times ``t`` within a PPS interval.

    The AAF and ADC gain errors add in the log-magnitude.  The AAF phase,
    the time-base ramp ``omega*e_r*t`` and the mean PLL delay phase
    ``omega*tau`` add in the phase, with the mean and std of the drawn
    delays (``PllDelayModel.drawn_moments``).  At a ``temperature`` the
    time-base mean and std are interpolated there, as the Monte Carlo draws
    them.  The trials apply the two gains as ``(1+a)(1+b)``, which differs
    from ``exp(a+b)`` by about ``(a*a + b*b)/2``: about 1e-5 on the paper
    profile.
    """
    import numpy as np

    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0 (elapsed time since the PPS reset)")
    e_r = 1e-6 * chain.timebase.mean_ppm(temperature)
    delay_mean, delay_std = chain.pll.drawn_moments
    return ExpectedResponse(
        log_magnitude=1e-6 * (chain.aaf_gain_ppm.mean + chain.adc_gain_ppm.mean),
        phase=1e-6 * chain.aaf_phase_urad.mean + omega * t * e_r + omega * delay_mean,
        log_magnitude_std=1e-6 * (chain.aaf_gain_ppm.std + chain.adc_gain_ppm.std),
        phase_std=(
            1e-6 * chain.aaf_phase_urad.std
            + omega * t * 1e-6 * chain.timebase.std_ppm(temperature)
            + omega * delay_std
        ),
    )


def wrap_phase(phi: float) -> float:
    """Wrap an angle, a scalar, into (-pi, pi]; arrays are not accepted.

    Python's float ``%`` is numpy's ``np.mod`` (``fmod``, plus the divisor when
    the signs differ), so the result has the bits of the numpy formula
    without loading numpy.
    """
    wrapped = (float(phi) + math.pi) % (2.0 * math.pi) - math.pi
    return math.pi if wrapped == -math.pi else wrapped


@dataclass(frozen=True)
class Phasor:
    """Amplitude/phase/frequency triple of a steady sinusoid.

    Each value must be finite.  Phase is normalized to (-pi, pi] on
    construction.
    """

    amplitude: float
    phase: float
    frequency: float

    def __post_init__(self):
        _require_finite(ValueError, self, "amplitude", "phase", "frequency")
        if self.amplitude < 0:
            raise ValueError(f"amplitude must be >= 0, got {self.amplitude}")
        if self.frequency <= 0:
            raise ValueError(f"frequency must be > 0, got {self.frequency}")
        object.__setattr__(self, "phase", wrap_phase(self.phase))

    @property
    def omega(self) -> float:
        return 2.0 * math.pi * self.frequency

    @property
    def value(self) -> complex:
        """Complex phasor A*exp(j*phi)."""
        return self.amplitude * complex(math.cos(self.phase), math.sin(self.phase))


# ---------------------------------------------------------------------------
# Profile (de)serialization
# ---------------------------------------------------------------------------


def _term_to_json(term: GaussianTerm) -> dict:
    return {"mean": term.mean, "std": term.std}


def _term_from_json(obj, path: str) -> GaussianTerm:
    if not isinstance(obj, dict):
        return GaussianTerm(float(number(obj, path)))
    if "mean" not in obj:
        raise ConfigError(f"{path}.mean: missing")
    mean = float(number(obj["mean"], path + ".mean"))
    std = float(number(obj.get("std", 0.0), path + ".std"))
    try:
        return GaussianTerm(mean, std)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def _pll_to_json(model: PllDelayModel) -> dict:
    out = {
        "family": model.family,
        "min_us": model.min * 1e6,
        "mean_us": model.mean * 1e6,
        "std_us": model.std * 1e6,
    }
    if math.isfinite(model.max):
        out["max_us"] = model.max * 1e6
    if model.mode is not None:
        out["mode_us"] = model.mode * 1e6
    if model.mode_std is not None:
        out["mode_std_us"] = model.mode_std * 1e6
    if model.histogram is not None:
        edges, counts = model.histogram
        out["histogram"] = {"bin_edges_us": [e * 1e6 for e in edges], "counts": list(counts)}
    return out


def _pll_from_json(obj, path: str) -> PllDelayModel:
    obj = of_type(obj, path, dict)

    def us(key, default=None):
        if key not in obj:
            return default
        return number(obj[key], f"{path}.{key}") * 1e-6

    hist = None
    if "histogram" in obj:
        h = section(obj, "histogram", path + ".")
        where = path + ".histogram."
        for key in ("bin_edges_us", "counts"):
            if key not in h:
                raise ConfigError(f"{where}{key}: missing")
        counts = of_type(h["counts"], where + "counts", list)
        hist = (
            tuple(e * 1e-6 for e in numbers(h["bin_edges_us"], where + "bin_edges_us")),
            tuple(integer(c, f"{where}counts[{i}]", 0) for i, c in enumerate(counts)),
        )
    try:
        return PllDelayModel(
            family=of_type(obj.get("family", "shifted-gamma"), path + ".family", str),
            min=us("min_us", 0.0),
            max=us("max_us", math.inf),
            mean=us("mean_us", 0.0),
            std=us("std_us", 0.0),
            mode=us("mode_us"),
            mode_std=us("mode_std_us"),
            histogram=hist,
        )
    except ModelParameterError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def chain_to_json(chain: ChainModel) -> dict:
    return {
        "name": chain.name,
        "aaf": {
            "gain_err_ppm": _term_to_json(chain.aaf_gain_ppm),
            "phase_err_urad": _term_to_json(chain.aaf_phase_urad),
        },
        "adc": {
            "gain_err_ppm": _term_to_json(chain.adc_gain_ppm),
            "gain_err_within_device_ppm": chain.adc_gain_within_device_ppm,
            "offset_uv": _term_to_json(chain.adc_offset_uv),
            "bits": chain.adc_bits,
            "vref_v": chain.adc_vref_v,
            "noise_rms_uv": chain.adc_noise_rms_uv,
        },
        "timebase": {
            "e_r_ppm": {
                "mean": chain.timebase.overall_mean_ppm,
                "std": chain.timebase.overall_std_ppm,
            },
            "estimator_std_ppm": chain.timebase.estimator_std_ppm,
            "board_std_ppm": chain.timebase.board_std_ppm,
            "by_temperature_c": [list(r) for r in chain.timebase.e_r_by_temperature],
        },
        "pll": {
            "delay": _pll_to_json(chain.pll),
            "profiles": {k: _pll_to_json(v) for k, v in chain.pll_profiles.items()},
        },
    }


def chain_from_json(obj) -> ChainModel:
    """Build a chain from its profile form; a value of the wrong shape is a ``ConfigError``.

    The error names the dotted key path of the first bad value or unknown key.
    """
    obj = of_type(obj, "profile", dict)
    aaf = section(obj, "aaf")
    adc = section(obj, "adc")
    tb = section(obj, "timebase")
    pll = section(obj, "pll")
    e_r = _term_from_json(tb.get("e_r_ppm", 0.0), "timebase.e_r_ppm")
    rows = of_type(tb.get("by_temperature_c", []), "timebase.by_temperature_c", list)
    for i, row in enumerate(rows):
        where = f"timebase.by_temperature_c[{i}]"
        if len(numbers(row, where)) != 3:
            raise ConfigError(f"{where}: expected [temperature_c, mean_ppm, std_ppm]")
    try:
        timebase = TimebaseModel(
            overall_mean_ppm=e_r.mean,
            overall_std_ppm=e_r.std,
            e_r_by_temperature=tuple(tuple(r) for r in rows),
            estimator_std_ppm=number(
                tb.get("estimator_std_ppm", 0.0), "timebase.estimator_std_ppm"
            ),
            board_std_ppm=number(tb.get("board_std_ppm", 0.0), "timebase.board_std_ppm"),
        )
    except ModelParameterError as exc:
        raise ConfigError(f"timebase: {exc}") from exc
    profiles = section(pll, "profiles", "pll.")
    noise_rms_uv = number(adc.get("noise_rms_uv", 0.0), "adc.noise_rms_uv")
    if noise_rms_uv < 0:
        raise ConfigError(f"adc.noise_rms_uv: expected a number >= 0, got {noise_rms_uv!r}")
    try:
        chain = ChainModel(
            aaf_gain_ppm=_term_from_json(aaf.get("gain_err_ppm", 0.0), "aaf.gain_err_ppm"),
            aaf_phase_urad=_term_from_json(aaf.get("phase_err_urad", 0.0), "aaf.phase_err_urad"),
            adc_gain_ppm=_term_from_json(adc.get("gain_err_ppm", 0.0), "adc.gain_err_ppm"),
            adc_gain_within_device_ppm=number(
                adc.get("gain_err_within_device_ppm"), "adc.gain_err_within_device_ppm", null=True
            ),
            adc_offset_uv=_term_from_json(adc.get("offset_uv", 0.0), "adc.offset_uv"),
            adc_bits=integer(adc.get("bits"), "adc.bits", 1, null=True),
            adc_vref_v=positive(adc.get("vref_v", 10.0), "adc.vref_v"),
            adc_noise_rms_uv=noise_rms_uv,
            timebase=timebase,
            pll=_pll_from_json(pll["delay"], "pll.delay") if "delay" in pll else PllDelayModel(),
            pll_profiles={
                k: _pll_from_json(v, f"pll.profiles.{k}") for k, v in profiles.items()
            },
            name=of_type(obj.get("name", "chain"), "name", str),
        )
    except ModelParameterError as exc:
        raise ConfigError(f"adc: {exc}") from exc
    reject_unknown_keys(obj, chain_to_json(chain))
    return chain


def load_profile(path) -> ChainModel:
    """Read a chain profile; a profile of the wrong shape is a ``ConfigError`` naming the file."""
    obj = read_json(path)
    try:
        return chain_from_json(obj)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_profile(chain: ChainModel, path) -> None:
    """Write a chain profile; a failed write leaves the file at ``path`` as it was."""
    write_json(chain_to_json(chain), path)


def paper_profile() -> ChainModel:
    """The bundled characterization of the reference single-board PMU."""
    text = resources.files("sbcpmu.data").joinpath("sbc-pmu-paper.json").read_text()
    return chain_from_json(json.loads(text))


def identity_chain(bits: Optional[int] = None) -> ChainModel:
    """A chain that passes the signal through unchanged (no quantization by default)."""
    return ChainModel(adc_bits=bits, name="identity")


__all__ = [
    "AafModel",
    "ChainModel",
    "ExpectedResponse",
    "GaussianTerm",
    "Phasor",
    "PllDelayModel",
    "TimebaseModel",
    "aaf_cutoff_model",
    "aaf_response",
    "chain_from_json",
    "chain_to_json",
    "expected_response",
    "identity_chain",
    "load_profile",
    "paper_profile",
    "pll_sample",
    "save_profile",
    "wrap_phase",
]
