"""Offline characterization procedures that produce chain-model parameters.

Covers the static ADC sweep (OLS gain/offset with covariance and slew-rate
planning), counter-based time-base and delay measurements, descriptive delay
statistics, and the nested variance decompositions used to separate
estimator noise, channel-to-channel and board-to-board dispersion.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from statistics import NormalDist
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError


# ---------------------------------------------------------------------------
# OLS sweep fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """Input/output voltage pairs of one static sweep on one channel."""

    v_in: np.ndarray
    v_out: np.ndarray
    channel: str = ""
    device: str = ""

    def __post_init__(self):
        v_in = np.asarray(self.v_in, dtype=float)
        v_out = np.asarray(self.v_out, dtype=float)
        if v_in.shape != v_out.shape or v_in.ndim != 1:
            raise ValueError("v_in and v_out must be 1-d arrays of equal length")
        if v_in.size < 3:
            raise ValueError("need at least 3 sweep points")
        object.__setattr__(self, "v_in", v_in)
        object.__setattr__(self, "v_out", v_out)


@dataclass(frozen=True)
class OlsResult:
    """Two-parameter regression result v_out = gain*v_in + offset."""

    offset: float
    gain: float
    covariance: np.ndarray  # 2x2, [offset, gain] ordering
    rss: float
    dof: int

    @property
    def offset_std(self) -> float:
        return math.sqrt(self.covariance[0, 0])

    @property
    def gain_std(self) -> float:
        return math.sqrt(self.covariance[1, 1])

    def to_json(self) -> dict:
        return {
            "offset_v": self.offset,
            "gain": self.gain,
            "offset_std_v": self.offset_std,
            "gain_std": self.gain_std,
            "covariance_v2": [list(row) for row in self.covariance],
            "rss_v2": self.rss,
            "dof": self.dof,
        }


def ols_fit(record: SweepRecord) -> OlsResult:
    """OLS fit of the static transfer with homoscedastic error covariance."""
    x = record.v_in
    y = record.v_out
    if np.ptp(x) == 0:
        raise ValueError("sweep input is constant; regressor matrix is rank deficient")
    # Centered normal equations with the regressor scaled to [-1, 1], so a
    # sweep whose input spread is tiny next to 1 V keeps full precision (a
    # least-squares solve on [1, x] treats that column as rank deficient).
    x_mean = float(x.mean())
    y_mean = float(y.mean())
    u = x - x_mean
    scale = float(np.max(np.abs(u)))
    u /= scale
    dy = y - y_mean
    suu = float(u @ u)
    gain = float(u @ dy) / suu / scale
    offset = y_mean - gain * x_mean
    resid = dy - (gain * scale) * u
    rss = float(resid @ resid)
    dof = x.size - 2
    var_gain = rss / dof / suu / scale / scale
    cov = np.array(
        [
            [rss / dof / x.size + x_mean * x_mean * var_gain, -x_mean * var_gain],
            [-x_mean * var_gain, var_gain],
        ]
    )
    return OlsResult(offset=offset, gain=gain, covariance=cov, rss=rss, dof=dof)


@dataclass(frozen=True)
class SweepPlan:
    slew_rate: float  # V/s
    gain_error: float  # dimensionless
    offset_error: float  # V


def sweep_plan(full_scale: float, filter_tau: float, duration: float) -> SweepPlan:
    """Quasi-static errors of a full-scale ramp through the input filter.

    The ramp of duration ``duration`` over ``full_scale`` is treated as a
    sinusoid of angular frequency SR/FS; the filter attenuates its amplitude
    (gain error) and delays it by tau (offset error -SR*tau).
    """
    if duration <= 0:
        raise ValueError("duration must be > 0")
    sr = full_scale / duration
    omega_r = sr / full_scale
    wt = omega_r * filter_tau
    gain_error = 1.0 / math.sqrt(1.0 + wt * wt) - 1.0
    offset_error = -sr * filter_tau
    return SweepPlan(slew_rate=sr, gain_error=gain_error, offset_error=offset_error)


# ---------------------------------------------------------------------------
# Counter measurements
# ---------------------------------------------------------------------------

MAX_MEAN_ERROR_PPM = 1.0


@dataclass(frozen=True)
class OneCounterResult:
    r_mean: float
    r_values: np.ndarray
    per_measurement_error: float  # T_k / T_s, relative
    required_averages: int

    def to_json(self) -> dict:
        return {
            "e_r_ppm": (self.r_mean - 1.0) * 1e6,
            "r_mean": self.r_mean,
            "per_measurement_error_ppm": self.per_measurement_error * 1e6,
            "required_averages": self.required_averages,
            "n": int(self.r_values.size),
        }


def one_counter_estimate(
    counts: Sequence[float], known_base: float, nominal_period: float
) -> OneCounterResult:
    """Time-base deviation from edge counts of a known reference frequency.

    Each count N over one period of the unknown signal gives
    T_hat = N / F_k and R = T_hat / T_s.  The per-measurement quantization
    error is one reference period, T_k / T_s relative; the result includes
    the number of averages needed to push the error on the mean below 1 ppm.
    """
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValueError("counts must be nonempty")
    if np.any(counts <= 0):
        raise ValueError("zero or negative edge counts are not valid")
    t_hat = counts / known_base
    r = t_hat / nominal_period
    per_meas = 1.0 / (known_base * nominal_period)
    required = math.ceil((per_meas / (MAX_MEAN_ERROR_PPM * 1e-6)) ** 2)
    return OneCounterResult(
        r_mean=float(r.mean()),
        r_values=r,
        per_measurement_error=per_meas,
        required_averages=required,
    )


def edge_separation(count: int, known_base: float):
    """Two-signal edge-separation delay: (delay, resolution) in seconds."""
    if count < 0:
        raise ValueError("count must be >= 0")
    return count / known_base, 1.0 / known_base


# ---------------------------------------------------------------------------
# Delay statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StatSummary:
    """Descriptive statistics of a delay sample."""

    n: int
    minimum: float
    maximum: float
    mean: float
    std: float
    mode: float
    mode_std: float
    qq_deviation: float

    def to_json(self, scale: float = 1e6, unit: str = "us") -> dict:
        return {
            "n": self.n,
            f"min_{unit}": self.minimum * scale,
            f"max_{unit}": self.maximum * scale,
            f"mean_{unit}": self.mean * scale,
            f"std_{unit}": self.std * scale,
            f"mode_{unit}": self.mode * scale,
            f"mode_std_{unit}": self.mode_std * scale,
            f"qq_deviation_{unit}": self.qq_deviation * scale,
        }


def _histogram_mode(samples: np.ndarray) -> float:
    """Mode as the center of the tallest Freedman-Diaconis bin.

    Ties are broken toward the bin nearest the sample median.
    """
    q75, q25 = np.percentile(samples, [75, 25])
    iqr = q75 - q25
    if iqr == 0 or np.ptp(samples) == 0:
        return float(np.median(samples))
    width = 2.0 * iqr / samples.size ** (1.0 / 3.0)
    n_bins = max(1, math.ceil(np.ptp(samples) / width))
    counts, edges = np.histogram(samples, bins=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    best = counts.max()
    candidates = centers[counts == best]
    median = np.median(samples)
    return float(candidates[np.argmin(np.abs(candidates - median))])


def _qq_deviation(samples: np.ndarray) -> float:
    """Max |sample quantile - fitted normal quantile| over the 1-99% range."""
    mean = samples.mean()
    std = samples.std(ddof=1)
    if std == 0:
        return 0.0
    probs = np.linspace(0.01, 0.99, 99)
    sample_q = np.quantile(samples, probs)
    normal_q = mean + std * np.vectorize(NormalDist().inv_cdf)(probs)
    return float(np.max(np.abs(sample_q - normal_q)))


def delay_statistics(samples: Sequence[float]) -> StatSummary:
    """Summary statistics of measured delays: spread, histogram mode, normality."""
    s = np.asarray(samples, dtype=float)
    if s.size < 2:
        raise ValueError("need at least 2 samples")
    mode = _histogram_mode(s)
    mode_std = float(np.sqrt(np.mean((s - mode) ** 2)))
    return StatSummary(
        n=int(s.size),
        minimum=float(s.min()),
        maximum=float(s.max()),
        mean=float(s.mean()),
        std=float(s.std(ddof=1)),
        mode=mode,
        mode_std=mode_std,
        qq_deviation=_qq_deviation(s),
    )


# ---------------------------------------------------------------------------
# Nested variance decomposition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GroupedSamples:
    """Values grouped by a nesting factor (device, temperature, ...).

    ``estimator_stds`` optionally carries the per-value estimator standard
    deviations (e.g. from the OLS covariance) in the same layout.
    """

    groups: Mapping[str, np.ndarray]
    estimator_stds: Optional[Mapping[str, np.ndarray]] = None

    def __post_init__(self):
        groups = {k: np.asarray(v, dtype=float) for k, v in self.groups.items()}
        if not groups or any(v.size == 0 for v in groups.values()):
            raise ValueError("every group must be nonempty")
        object.__setattr__(self, "groups", groups)
        if self.estimator_stds is not None:
            stds = {k: np.asarray(v, dtype=float) for k, v in self.estimator_stds.items()}
            object.__setattr__(self, "estimator_stds", stds)


@dataclass(frozen=True)
class DecompositionResult:
    """Law-of-total-variance split of a nested sample.

    ``within_std`` is sqrt of the expected within-group variance,
    ``total_std`` adds the variance of the group means on top.
    Ordering estimator <= within <= total is reported, not enforced.
    """

    grand_mean: float
    estimator_std: float
    within_std: float
    total_std: float
    between_std: float
    group_means: Mapping[str, float] = field(default_factory=dict)
    ordering_ok: bool = True

    def to_json(self, scale: float = 1.0, unit: str = "") -> dict:
        suffix = f"_{unit}" if unit else ""
        return {
            f"grand_mean{suffix}": self.grand_mean * scale,
            f"estimator_std{suffix}": self.estimator_std * scale,
            f"within_std{suffix}": self.within_std * scale,
            f"between_std{suffix}": self.between_std * scale,
            f"total_std{suffix}": self.total_std * scale,
            "ordering_ok": self.ordering_ok,
        }


def variance_decomposition(grouped: GroupedSamples, ddof: int = 0) -> DecompositionResult:
    """Split total variance into within-group and between-group parts.

    With ``ddof=0`` and equal group sizes the identity
    total = mean(within variances) + var(group means) matches the pooled
    population variance exactly; ``ddof=1`` gives unbiased components for
    small numbers of groups.
    """
    groups = grouped.groups
    names = list(groups)
    if len(names) < 2:
        raise ValueError("between-group variance undefined with a single group")
    sizes = np.array([groups[k].size for k in names])
    if ddof >= sizes.min() and sizes.min() > 1:
        raise ValueError("ddof too large for the smallest group")
    means = np.array([groups[k].mean() for k in names])
    within_vars = np.array(
        [groups[k].var(ddof=ddof) if groups[k].size > 1 else 0.0 for k in names]
    )
    if ddof == 0:
        # frequency-weighted: exact law of total variance on the pooled sample
        weights = sizes / sizes.sum()
        within = float(weights @ within_vars)
        grand_mean = float(weights @ means)
        between = float(weights @ (means - grand_mean) ** 2)
    else:
        within = float(within_vars.mean())
        grand_mean = float(means.mean())
        between = float(means.var(ddof=ddof))
    total = within + between

    estimator = 0.0
    if grouped.estimator_stds is not None:
        flat = np.concatenate([np.ravel(grouped.estimator_stds[k]) for k in names])
        estimator = float(np.sqrt(np.mean(flat**2)))

    within_std = math.sqrt(within)
    total_std = math.sqrt(total)
    return DecompositionResult(
        grand_mean=grand_mean,
        estimator_std=estimator,
        within_std=within_std,
        total_std=total_std,
        between_std=math.sqrt(between),
        group_means=dict(zip(names, means.tolist())),
        ordering_ok=(estimator <= within_std + 1e-12) and (within_std <= total_std + 1e-12),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def _read_rows(path, required: Sequence[str]):
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        missing = [c for c in required if c not in header]
        if missing:
            raise ConfigError(f"{path}: missing required columns: {', '.join(missing)}")
        return header, list(reader)


def read_sweep_csv(path) -> dict:
    """Parse `v_in,v_out,channel,device` rows into SweepRecords keyed by (device, channel)."""
    _, rows = _read_rows(path, ["v_in", "v_out", "channel", "device"])
    buckets: dict = {}
    for row in rows:
        key = (row["device"], row["channel"])
        buckets.setdefault(key, ([], []))
        buckets[key][0].append(float(row["v_in"]))
        buckets[key][1].append(float(row["v_out"]))
    return {
        key: SweepRecord(v_in=vi, v_out=vo, device=key[0], channel=key[1])
        for key, (vi, vo) in buckets.items()
    }


def read_counter_csv(path) -> list:
    """Parse `count,device,temperature_c` rows (temperature may be blank)."""
    _, rows = _read_rows(path, ["count", "device"])
    out = []
    for row in rows:
        temp = row.get("temperature_c")
        out.append(
            {
                "count": float(row["count"]),
                "device": row["device"],
                "temperature_c": float(temp) if temp not in (None, "") else None,
            }
        )
    return out


def read_delay_csv(path, known_base: float = 100e6) -> dict:
    """Parse delay captures into arrays of seconds keyed by stress profile.

    Accepts either a `count` column (edge counts against ``known_base``) or a
    direct `delay_us` column, plus a `profile` column.
    """
    header, rows = _read_rows(path, ["profile"])
    if "count" not in header and "delay_us" not in header:
        raise ConfigError(f"{path}: need a `count` or `delay_us` column")
    buckets: dict = {}
    for row in rows:
        if row.get("delay_us") not in (None, ""):
            delay = float(row["delay_us"]) * 1e-6
        else:
            delay, _ = edge_separation(int(float(row["count"])), known_base)
        buckets.setdefault(row["profile"], []).append(delay)
    return {k: np.asarray(v) for k, v in buckets.items()}


__all__ = [
    "DecompositionResult",
    "GroupedSamples",
    "OlsResult",
    "OneCounterResult",
    "StatSummary",
    "SweepPlan",
    "SweepRecord",
    "delay_statistics",
    "edge_separation",
    "ols_fit",
    "one_counter_estimate",
    "read_counter_csv",
    "read_delay_csv",
    "read_sweep_csv",
    "sweep_plan",
    "variance_decomposition",
]
