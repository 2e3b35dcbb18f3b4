"""The model curve, the one-cycle estimator and the Monte Carlo validation engine.

The TVE of the expected system response (``blocks.expected_response``) with
its worst-case band over one PPS interval, and the seeded Monte Carlo that
replays the error chain trial by trial and compares the measured TVE
statistics against the model.  This module holds the Monte Carlo's whole
sampled path: the forward chain's sinusoid tables and ADC pass
(``_acquire_rows``, ``_convert``), the block buffers it and the estimator
share (``_Workspace``), and the engine that runs them.
The Monte Carlo estimates each trial's envelope with the sliding one-cycle
Fourier estimator (``_FourierPlan``) on the grid ``n*T_s`` the device
believes in, so acquisition errors appear in the envelope rather than being
silently corrected.  ``tve`` and ``fe`` are the standard error metrics.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .blocks import ChainModel, Phasor, _require_finite, expected_response, pll_sample
from .errors import EstimationError, ScheduleGuardError

DEFAULT_COVERAGE_FACTOR = 3.3


# ---------------------------------------------------------------------------
# Error metrics
# ---------------------------------------------------------------------------


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


# ---------------------------------------------------------------------------
# Analytic model curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCurve:
    times: np.ndarray
    expected: np.ndarray
    band_hi: np.ndarray
    band_lo: np.ndarray


def model_curve(
    chain: ChainModel,
    omega: float,
    t_grid,
    compensated: bool = False,
    temperature: Optional[float] = None,
) -> ModelCurve:
    """Expected TVE over one PPS interval plus the worst-case uncertainty band.

    The worst-case band takes all uncertainty terms with the same sign; with
    ``compensated=True`` the means are removed (ideal compensation) and only
    the uncertainty band remains.  At a given ``temperature`` the time-base
    mean and std are interpolated there, as the Monte Carlo draws them.
    """
    t = np.asarray(t_grid, dtype=float)
    m_r, m_p, u_r, u_p = expected_response(chain, omega, t, temperature)
    if compensated:
        m_r, m_p = 0.0, np.zeros_like(t)
    expected = tve(np.exp(m_r + 1j * m_p), 1.0)
    corners = [
        tve(np.exp(m_r + sr * u_r + 1j * (m_p + sp * u_p)), 1.0)
        for sr in (-1.0, 1.0)
        for sp in (-1.0, 1.0)
    ]
    return ModelCurve(
        times=t,
        expected=expected,
        band_hi=np.max(corners, axis=0),
        band_lo=np.min(corners, axis=0),
    )


# ---------------------------------------------------------------------------
# One-cycle estimator
# ---------------------------------------------------------------------------

MIN_WINDOW_SAMPLES = 10


@dataclass(frozen=True)
class _FourierPlan:
    """The sliding one-cycle estimator on the grid ``n*T_s``, applied to rows of samples.

    ``c(t) = (2/T_p) * sum s(t_n) * exp(-j*omega*t_n) * T_s`` over one window
    of ``n_win`` sample intervals, a left rectangular-rule approximation of
    the integral, divided by the reference phasor.  Each envelope sample is
    attributed to the center of its window.

    Everything that depends only on the grid (the weights, the window length
    and the envelope timestamps) is computed once by ``build``; ``rows`` then
    estimates any number of signals sampled on that grid, in two complex
    buffers the caller owns.  A weight folds the demodulating exponential,
    the sample interval, the ``2/T_p`` scale and the reference into one
    factor per sample.
    """

    weights: np.ndarray  # exp(-j*omega*n*T_s)*2*T_s*f/ref, one per sample interval
    n_win: int
    times: np.ndarray  # envelope timestamps, at the window centers

    @classmethod
    def build(
        cls, samples: int, sample_period: float, frequency: float, ref: complex
    ) -> "_FourierPlan":
        """The plan for ``samples`` instants ``n*sample_period``, estimating at ``frequency``.

        A window holds ``T_p/T_s`` sample intervals, rounded half up: 100.5
        samples per cycle (5025 Hz at 50 Hz) gives 101.
        """
        t_p = 1.0 / frequency
        n_win = math.floor(t_p / sample_period + 0.5)
        if n_win < MIN_WINDOW_SAMPLES:
            raise EstimationError(
                f"unresolvable window: {n_win} samples per cycle (need >= {MIN_WINDOW_SAMPLES})"
            )
        if samples <= n_win:  # n_win + 1 samples bound the first window
            raise EstimationError("waveform spans less than one estimation window")
        omega = 2.0 * math.pi * frequency
        try:
            steps = np.arange(samples - 1)
        except ValueError as exc:  # numpy's refusal of a size beyond any index
            raise MemoryError(f"{samples} samples: {exc}") from exc
        # window j integrates the n_win sample intervals starting at sample j
        return cls(
            weights=np.exp(-1j * omega * (steps * sample_period))
            * (2.0 * sample_period * frequency / ref),
            n_win=n_win,
            times=np.arange(samples - n_win) * sample_period + 0.5 * t_p,
        )

    def rows(self, values: np.ndarray, demod: np.ndarray, csum: np.ndarray) -> np.ndarray:
        """Envelope coefficients (rows x windows) of real samples (rows x grid points).

        ``demod`` and ``csum`` are complex scratch shaped like ``values``, which
        may be a view of ``csum``'s memory: it is read into ``demod`` before
        ``csum`` is written.  The envelope is written over the first
        ``windows`` columns of ``demod`` and returned as a view of them;
        nothing else is allocated.

        The prefix sums are taken one row at a time: the same additions in the
        same order as ``np.cumsum(axis=1)``, so the same bits, but numpy holds
        the GIL through an accumulate along the rows of a 2-D array and
        releases it for a 1-D one, so two threads running blocks overlap.
        """
        terms = np.multiply(values[:, :-1], self.weights, out=demod[:, :-1])
        csum[:, 0] = 0.0
        for row, out in zip(terms, csum[:, 1:]):
            np.cumsum(row, out=out)
        n_windows, n_win = self.times.size, self.n_win
        return np.subtract(
            csum[:, n_win : n_windows + n_win], csum[:, :n_windows], out=demod[:, :n_windows]
        )


# ---------------------------------------------------------------------------
# Sampled forward chain and its block buffers
# ---------------------------------------------------------------------------


def _convert(v: np.ndarray, gain, offset, noise, chain: ChainModel):
    """The ADC transfer in place: ``v <- Q(gain*v + offset + noise)``.

    ``gain`` is the factor ``1 + gain_ppm/1e6`` and ``offset`` the offset in
    volts, ``offset_uv/1e6``, each a scalar or a per-row column; ``noise`` is
    None or volts shaped like ``v``.  The code grid is the chain's: ``adc_bits``
    over the bipolar full scale ``[-adc_vref_v, +adc_vref_v)``, or no
    quantization when ``adc_bits`` is None.  Returns the end-code saturation
    mask, or None when no sample saturated (always, for an ideal converter):
    when the smallest and largest rounded codes lie on the grid, two
    reductions stand in for the mask and the clip.
    """
    np.multiply(gain, v, out=v)
    v += offset
    if noise is not None:
        v += noise
    if chain.adc_bits is None:
        return None
    q = 2.0 * chain.adc_vref_v / (1 << chain.adc_bits)
    np.divide(v, q, out=v)
    np.rint(v, out=v)
    code_min = -(1 << (chain.adc_bits - 1))
    code_max = (1 << (chain.adc_bits - 1)) - 1
    saturated = None
    if not (v.min() >= code_min and v.max() <= code_max):
        saturated = (v < code_min) | (v > code_max)
        np.clip(v, code_min, code_max, out=v)
    v *= q
    return saturated


def _table_shape(samples: int) -> tuple:
    """``(A, B)`` with ``B = ceil(sqrt(samples))`` and ``A*B >= samples``: sample ``n`` is ``a*B + b``."""
    b = math.isqrt(samples - 1) + 1
    return -(-samples // b), b


def _acquire_rows(
    phasor: Phasor, aaf_gain_ppm, aaf_phase_urad, adc_gain_ppm, adc_offset_uv, starts, steps,
    chain: ChainModel, samples: int, rngs, out: np.ndarray,
):
    """The forward chain on rows of ``samples`` instants ``starts[r] + n*steps[r]``, computed in ``out``.

    Row ``r`` is scaled by the AAF gain error ``aaf_gain_ppm[r]``, shifted by
    its phase error ``aaf_phase_urad[r]`` and converted on the chain's code
    grid with the ADC gain error ``adc_gain_ppm[r]``, offset
    ``adc_offset_uv[r]`` and the chain's ADC noise drawn from ``rngs[r]`` (not
    used for a noise-free chain).  Each parameter is one value per row or one
    for every row.

    The sampled phase is linear in ``n``.  With ``n = a*B + b``
    (``_table_shape``), ``amp*cos(omega*t_n + ph)`` is ``Re(P[a]*Q[b])`` with
    ``P[a] = amp*exp(j*(omega*(start + a*B*step) + ph))`` and
    ``Q[b] = exp(j*omega*b*step)``: two tables of about ``sqrt(samples)``
    entries per row stand in for a cosine per sample, and
    ``Re(P[a]*Q[b]) = Re(P[a])*Re(Q[b]) - Im(P[a])*Im(Q[b])`` makes each
    row's samples one ``(A x 2) @ (2 x B)`` matrix product.  Every value is
    computed element by element, so a row's samples have the same bits
    whichever rows are run with it.

    Each row's matrix product is written straight into ``out`` (rows x A*B
    floats, overwritten) in one pass that runs without the GIL.  Each row of
    ``out`` must be contiguous, and the rows may lie at any stride: the
    rows x A x B reshape is then a view, so the product lands in ``out``.
    Returns ``(values, clipped)``: the converted samples, a rows x ``samples``
    view of ``out``, and each row's number of samples clipped at the end codes.
    """
    aaf_gain_ppm, aaf_phase_urad, adc_gain_ppm, adc_offset_uv, starts, steps = (
        np.asarray(values, dtype=float).reshape(-1, 1)
        for values in (aaf_gain_ppm, aaf_phase_urad, adc_gain_ppm, adc_offset_uv, starts, steps)
    )
    rows = out.shape[0]
    a, b = _table_shape(samples)
    # steady-state filtering: scale the envelope, shift the phase
    amp = phasor.amplitude * (1.0 + 1e-6 * aaf_gain_ppm)
    ph = phasor.phase + 1e-6 * aaf_phase_urad
    p = amp * np.exp(1j * (phasor.omega * (starts + (b * np.arange(a)) * steps) + ph))
    q = np.exp(1j * (phasor.omega * (np.arange(b) * steps)))
    left = np.stack((p.real, -p.imag), axis=-1)  # rows x A x 2
    right = np.stack((q.real, q.imag), axis=-2)  # rows x 2 x B
    np.matmul(left, right, out=out.reshape(rows, a, b))
    v = out[:, :samples]
    noise = None
    if chain.adc_noise_rms_uv > 0:
        noise_rms = 1e-6 * chain.adc_noise_rms_uv
        noise = np.array([rng.normal(0.0, noise_rms, size=samples) for rng in rngs])
    saturated = _convert(v, 1.0 + 1e-6 * adc_gain_ppm, 1e-6 * adc_offset_uv, noise, chain)
    if saturated is None:
        return v, np.zeros(rows, dtype=np.intp)
    return v, np.count_nonzero(saturated, axis=1)


class _Workspace:
    """The two complex buffers one block of trials computes in, reused block after block.

    ``demod`` and ``csum`` (rows x samples) are the Fourier plan's buffers.
    ``adc``, the first A*B floats of each row of ``csum`` (``_table_shape``),
    is ``_acquire_rows``'s ``out``: it holds the converted samples until
    ``_FourierPlan.rows`` has read them into ``demod``, before it writes
    ``csum``, which is then ``_error_rows``'s scratch.  ``monte_carlo`` gives
    each kernel thread one workspace of its own, and ``run_trial`` one of a
    single row.
    """

    def __init__(self, rows: int, samples: int):
        a, b = _table_shape(samples)
        self.demod = np.empty((rows, samples), dtype=complex)
        self.csum = np.empty_like(self.demod)
        self.adc = self.csum.view(np.float64)[:, : a * b]


# ---------------------------------------------------------------------------
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McScenario:
    """One seeded Monte Carlo experiment.

    A trial is one PPS-interval sub-sequence.  ``duration`` and ``channels``
    describe the test session: they are checked and never used, and no
    relation to ``trials`` is checked or implied.  Deleting them waits for a
    benchmark change: ``perfbench/inputs.py``'s ``simulate_config`` writes
    the scenario keys ``run.duration_s`` and ``run.channels``, and
    ``perfbench/make_expected.py``'s ``simulate_result`` passes them to
    ``McScenario`` as ``duration=`` and ``channels=``.
    """

    chain: ChainModel
    phasor: Phasor
    nominal_rate: float = 5000.0
    pps_period: float = 1.0
    trials: int = 240
    base_seed: int = 0
    duration: float = 30.0
    channels: int = 8
    compensate: bool = False
    temperature_c: Optional[float] = None

    def __post_init__(self):
        if not self.nominal_rate > 0:  # NaN too
            raise ValueError("nominal_rate must be > 0")
        if not self.pps_period > 0:
            raise ValueError("pps_period must be > 0")
        _require_finite(ValueError, self, "nominal_rate", "pps_period")
        if not _is_int(self.trials):
            raise ValueError(f"trials must be an integer, got {self.trials!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_seed_int("base_seed", self.base_seed)
        if not self.duration >= self.pps_period:  # NaN too
            raise ValueError(
                f"duration must cover at least one PPS period, got {self.duration!r}"
            )
        _require_finite(ValueError, self, "duration")
        if not (_is_int(self.channels) and self.channels >= 1):
            raise ValueError(f"channels must be an integer >= 1, got {self.channels!r}")
        if not isinstance(self.compensate, bool):
            raise ValueError(f"compensate must be True or False, got {self.compensate!r}")
        self.chain.timebase.check_temperature(self.temperature_c)


@dataclass(frozen=True)
class TrialDraw:
    """The per-trial parameter realization (natural units)."""

    aaf_gain_ppm: float
    aaf_phase_urad: float
    adc_gain_ppm: float
    adc_offset_uv: float
    e_r_ppm: float
    delay_s: float

    def to_json(self) -> dict:
        return {
            "aaf_gain_ppm": self.aaf_gain_ppm,
            "aaf_phase_urad": self.aaf_phase_urad,
            "adc_gain_ppm": self.adc_gain_ppm,
            "adc_offset_uv": self.adc_offset_uv,
            "e_r_ppm": self.e_r_ppm,
            "delay_us": self.delay_s * 1e6,
        }


@dataclass(frozen=True)
class McResult:
    """Per-trial TVE traces sliced over one PPS interval plus model overlay."""

    t_in_pps: np.ndarray
    trial_tve: np.ndarray  # trials x len(t_in_pps)
    mean_tve: np.ndarray
    band_lo: np.ndarray
    band_hi: np.ndarray
    model_tve: np.ndarray
    model_band: np.ndarray
    compensated: bool
    fe_hz: float
    grand_mean_tve: float
    grand_mean_mag_err: float  # mean |relative magnitude error|
    grand_mean_phase_err: float  # mean |phase error|, rad
    window_gap_s: float  # unestimated tail of each PPS interval
    saturated_samples: int  # ADC end-code clips, summed over trials
    max_guard_margin: float  # max over trials of the pulse-count margin |R-1|*N_s
    max_trial_saturated_samples: int  # most ADC end-code clips in one trial

    @property
    def trials(self) -> int:
        return self.trial_tve.shape[0]


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, a numpy one included, and not a bool."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _check_seed_int(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a non-negative integer (not a bool)."""
    if not _is_int(value) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)


def _words(n: int) -> list:
    """The 32-bit words of ``n >= 0``, least significant first, as SeedSequence splits it (0 is [0])."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _seed_state(entropy: list) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of SeedSequences, one per entry of the uint32 arrays ``entropy``.

    ``entropy[k]`` holds word ``k`` of every sequence.  This is numpy's ``mix_entropy`` then
    ``generate_state``, hash by hash on whole arrays, which wrap as the C code does; the hash
    constant advances with each hash whatever the data, so one Python int serves every sequence.
    """
    hash_const = _INIT_A

    def hashmix(value, mult=_MULT_A):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * mult & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ (result >> _XSHIFT)

    # mix_entropy: a pool of four words, hashing zeros past the end of the entropy
    zero = np.zeros_like(entropy[0])
    mixer = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(4)]
    for i_src in range(4):
        for i_dst in range(4):
            if i_src != i_dst:
                mixer[i_dst] = mix(mixer[i_dst], hashmix(mixer[i_src]))
    for i_src in range(4, len(entropy)):
        for i_dst in range(4):
            mixer[i_dst] = mix(mixer[i_dst], hashmix(entropy[i_src]))
    # generate_state: the pool's words in turn, hashed under INIT_B; pairs are little-endian uint64s
    hash_const = _INIT_B
    state = [hashmix(mixer[i % 4], _MULT_B).astype(np.uint64) for i in range(8)]
    return np.stack([lo | (hi << np.uint64(32)) for lo, hi in zip(state[::2], state[1::2])], axis=1)


def _trial_seeds(base_seed: int, start: int, stop: int) -> np.ndarray:
    """Row ``i - start`` is ``SeedSequence([base_seed, i]).generate_state(4, np.uint64)``.

    One pass of numpy arrays for trials ``start`` to ``stop - 1``: the entropy
    of trial ``i`` is the 32-bit words of ``base_seed`` then those of ``i``,
    and the trials whose ``i`` has the same number of words share a pass.
    ``base_seed`` and ``start`` must be non-negative.
    """
    base = _words(int(base_seed))
    parts = []
    lo, stop = int(start), int(stop)
    while lo < stop:
        k = len(_words(lo))
        hi = min(stop, 1 << 32 * k)
        if hi <= 1 << 64:
            index = np.arange(lo, hi, dtype=np.uint64)
        else:
            index = np.array(range(lo, hi), dtype=object)
        # arrays, not numpy scalars, whose uint32 arithmetic warns when it wraps
        entropy = [np.full(hi - lo, word, dtype=np.uint32) for word in base]
        entropy += [((index >> 32 * j) & _MASK32).astype(np.uint32) for j in range(k)]
        parts.append(_seed_state(entropy))
        lo = hi
    return np.concatenate(parts)


class _TrialSeed(ISeedSequence):
    """One trial's precomputed seed state, handed to ``PCG64`` in place of its SeedSequence.

    ``PCG64`` asks its seed sequence once for ``generate_state(4, np.uint64)``
    and seeds its 128-bit state from those words in C, so
    ``Generator(PCG64(_TrialSeed(row)))`` equals ``default_rng([base_seed, i])``
    for row ``i`` of ``_trial_seeds``.
    """

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError(f"a trial seed holds 4 uint64 words, not {n_words} {dtype}")
        return self.state


# Trials per block.  A block's complex buffers (about 1.3 MB each at 5 kHz and
# 1 s PPS intervals) stay near the cache; the engine never holds a complex
# array of every trial.
BLOCK_TRIALS = 16


@dataclass
class _Draws:
    """Consecutive trials, drawn: what the kernels need to run them."""

    params: np.ndarray  # rows x 6, one trial per row, columns in TrialDraw's field order
    rngs: Optional[list]  # each trial's generator, kept for its ADC noise; None without noise
    ratios: np.ndarray  # time-base deviation ratio R per trial
    guard_margins: np.ndarray  # |R-1|*N_s per trial


class _Engine:
    """One scenario's trials: drawn in order (``draw``), then run a block at a time (``envelopes``).

    What does not change between trials is computed once: the nominal sample
    period, the Fourier plan on the grid ``n*T_s``, the time-base statistics
    at the scenario's temperature and the compensation factor.  The plan's
    weights are divided by the reference phasor, so it gives each trial's
    relative envelope ``z = env/ref`` and the errors need no divide.
    """

    def __init__(self, scenario: McScenario):
        self.scenario = scenario
        chain = scenario.chain
        ref = scenario.phasor.value
        if ref == 0:
            raise ValueError("reference phasor must be nonzero")
        # the instants the device believes in: n*T_s within one PPS interval
        self.samples = round(scenario.pps_period * scenario.nominal_rate)
        self.sample_period = 1.0 / scenario.nominal_rate
        self.plan = _FourierPlan.build(
            self.samples, self.sample_period, scenario.phasor.frequency, ref
        )
        # the means and stds of the five Gaussian draws, in TrialDraw's field order
        self.means, self.stds = np.array(
            [
                (chain.aaf_gain_ppm.mean, chain.aaf_gain_ppm.std),
                (chain.aaf_phase_urad.mean, chain.aaf_phase_urad.std),
                (chain.adc_gain_ppm.mean, chain.sequence_gain_std_ppm()),
                (chain.adc_offset_uv.mean, chain.adc_offset_uv.std),
                (
                    chain.timebase.mean_ppm(scenario.temperature_c),
                    chain.timebase.std_ppm(scenario.temperature_c),
                ),
            ],
            dtype=float,
        ).T
        self.compensation = None
        if scenario.compensate:
            # K = 1/Lambda: the envelopes are multiplied by it
            self.compensation = expected_response(
                chain, scenario.phasor.omega, self.plan.times, scenario.temperature_c
            ).compensation

    def draw(self, start: int, stop: int) -> _Draws:
        """Trials ``start`` to ``stop - 1``, drawn in trial order.

        Each trial's generator is seeded by (base_seed, trial index) alone
        (``_trial_seeds``) and draws five standard normals, then the PLL
        delay, into its row of ``params``; one pass then scales the normals
        to the five terms.  numpy's ``rng.normal(mean, std)`` is
        ``mean + std*z`` of the same standard normal ``z``, so each row equals
        five scalar ``normal`` calls and a ``pll_sample``, bit for bit.  A
        guard violation names the lowest failing trial.
        """
        seeds = _trial_seeds(self.scenario.base_seed, start, stop)
        params = np.empty((len(seeds), 6))
        pll = self.scenario.chain.pll
        rngs = [] if self.scenario.chain.adc_noise_rms_uv > 0 else None
        for row, seed in zip(params, seeds):
            rng = Generator(PCG64(_TrialSeed(seed)))
            rng.standard_normal(5, out=row[:5])
            row[5] = pll_sample(pll, rng)
            if rngs is not None:
                rngs.append(rng)
        normals = params[:, :5]
        normals *= self.stds
        normals += self.means
        ratios = 1.0 + 1e-6 * params[:, 4]  # e_r_ppm
        margins = np.abs(ratios - 1.0) * self.samples
        failing = np.flatnonzero(margins >= 1.0)
        if failing.size:
            r = int(failing[0])
            raise ScheduleGuardError(
                f"trial {start + r} aborted: N_s pulse-count approximation invalid: "
                f"|R-1|*N_s = {float(margins[r]):.3g} >= 1 "
                f"(R={float(ratios[r])!r}, N_s={self.samples}); "
                f"draw = {TrialDraw(*params[r].tolist()).to_json()}"
            )
        return _Draws(params, rngs, ratios, margins)

    def envelopes(self, draws: _Draws, lo: int, hi: int, ws: _Workspace):
        """The relative envelopes of rows ``lo`` to ``hi - 1`` of ``draws`` (rows x windows, a view of ``ws``) and ADC clips per row.

        Each trial is sampled at its realized instants delay + n*T_s*R.  The
        forward chain (with each trial's ADC noise from its generator), the
        Fourier estimate and, if the scenario compensates, the compensation
        all run in ``ws``.  Row ``r`` is the envelope of row ``lo + r`` of
        ``draws`` divided by the reference phasor (times ``K`` when
        compensating).
        """
        rows = hi - lo
        aaf_gain, aaf_phase, adc_gain, adc_offset, _, delay = draws.params[lo:hi].T
        rngs = None if draws.rngs is None else draws.rngs[lo:hi]
        values, clipped = _acquire_rows(
            self.scenario.phasor, aaf_gain, aaf_phase, adc_gain, adc_offset, delay,
            self.sample_period * draws.ratios[lo:hi], self.scenario.chain, self.samples, rngs,
            ws.adc[:rows],
        )
        z = self.plan.rows(values, ws.demod[:rows], ws.csum[:rows])
        if self.compensation is not None:
            np.multiply(z, self.compensation, out=z)
        return z, clipped


def run_trial(scenario: McScenario, trial_index: int):
    """Run one seeded trial: the Monte Carlo engine on a block of one.

    Returns ``(t_in_pps, tve_trace, envelope_values, draw, saturated_samples)``,
    the last being the number of samples the ADC clipped at its end codes.
    With ``scenario.compensate`` the envelope and its TVE are compensated.
    The envelope is the engine's relative envelope times the reference
    phasor, and the trace comes from the same error kernel on a one-row
    block, so it equals row ``trial_index`` of
    ``monte_carlo(scenario).trial_tve`` bit for bit.

    Seeding depends only on (base_seed, trial_index) so results are invariant
    under any execution order.
    """
    _check_seed_int("trial_index", trial_index)
    engine = _Engine(scenario)
    draws = engine.draw(trial_index, trial_index + 1)
    ws = _Workspace(1, engine.samples)
    z, clipped = engine.envelopes(draws, 0, 1, ws)
    env = z[0] * scenario.phasor.value
    trace = np.empty(z.shape)
    _error_rows(z, trace, ws.csum)
    return engine.plan.times, trace[0], env, TrialDraw(*draws.params[0].tolist()), int(clipped[0])


def _error_rows(z, tve_rows, scratch):
    """Write the TVE of relative envelope rows into ``tve_rows``; return their summed errors.

    With ``z = env/ref`` the relative magnitude error is ``|z| - 1``, the
    phase error ``angle(z)`` and the TVE ``|z - 1|``.  The sums are of
    |relative magnitude error| and |phase error| over the block.  A TVE
    below 1 means ``re > 0`` and a finite ``|im/re| < sqrt(2/re)``: when every
    TVE is, the phase error is ``arctan(im/re)``, within an ulp of
    ``arctan2(im, re)`` and faster; otherwise it is ``arctan2``.  ``z`` is
    only read.  ``scratch``, the block's ``csum`` (C-contiguous complex, at
    least ``z.size``), holds ``z - 1`` until the TVE is in ``tve_rows``
    (floats shaped like ``z``), then the errors as floats; nothing is allocated.
    """
    flat = scratch.reshape(-1)
    np.abs(np.subtract(z, 1.0, out=flat[: z.size].reshape(z.shape)), out=tve_rows)
    err = flat.view(np.float64)[: z.size].reshape(z.shape)  # contiguous: .sum() adds as for a fresh array
    np.abs(z, out=err)
    err -= 1.0
    np.abs(err, out=err)
    mag_sum = float(err.sum())
    if tve_rows.max() < 1:  # not for a NaN
        np.divide(z.imag, z.real, out=err)
        np.arctan(err, out=err)
    else:
        np.arctan2(z.imag, z.real, out=err)  # np.angle, in place
    np.abs(err, out=err)
    return mag_sum, float(err.sum())


# kernel threads per run: the count benchmarked; more were never measured, and
# each holds a block workspace beyond ``trial_tve``
_MAX_WORKERS = 2


def _workers(blocks: int) -> int:
    """Kernel threads for a run of ``blocks`` blocks: at most ``_MAX_WORKERS``, one per usable CPU."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        cpus = os.cpu_count() or 1
    return min(_MAX_WORKERS, cpus, blocks)


def _column_std(rows: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """Each column's ddof-1 std of ``rows`` (C-contiguous, two rows or more) about ``mean``.

    ``mean`` is ``rows.mean(axis=0)``.  ``np.add.reduce(axis=0)`` adds the
    rows of a C-contiguous array one after another, so the squared
    deviations are formed ``BLOCK_TRIALS`` rows at a time below a running sum
    in the first row of a small buffer: each column is summed in numpy's
    order, the result equals ``rows.std(axis=0, ddof=1)`` bit for bit, and
    no full-size temporary is made.
    """
    n = rows.shape[0]
    buf = np.zeros((1 + min(BLOCK_TRIALS, n), rows.shape[1]))
    std = np.empty_like(mean)
    for start in range(0, n, BLOCK_TRIALS):
        d = buf[1 : 1 + min(BLOCK_TRIALS, n - start)]
        np.subtract(rows[start : start + BLOCK_TRIALS], mean, out=d)
        d *= d
        np.add.reduce(buf[: 1 + d.shape[0]], axis=0, out=std)
        buf[0] = std
    std /= n - 1
    return np.sqrt(std, out=std)


def monte_carlo(scenario: McScenario) -> McResult:
    """Run all trials, aggregate the TVE statistics and overlay the model curve.

    A run has two phases.  First the calling thread draws every trial's
    parameters, in trial order, so a guard violation names the lowest
    failing trial before any kernel runs.  Then one kernel is mapped over
    the starts of the blocks of ``BLOCK_TRIALS`` trials on a pool of
    ``_MAX_WORKERS`` (two) worker threads, fewer if the process may use
    fewer CPUs or the run has fewer blocks.  A kernel builds its block's
    sinusoid tables, then runs the forward chain, Fourier estimate,
    compensation and errors, each a pass over the whole block; it writes its
    TVE rows straight into ``trial_tve`` and returns its summed magnitude and
    phase errors, which are added in block order, so every result is bit for
    bit the same for any number of workers.  Once every kernel has returned,
    the calling thread takes the traces' column mean and std and their
    grand mean.
    Memory is the float64 per-trial traces, about 100 bytes of seeds and
    draws per trial (and its generator, about 0.75 kB, for a chain with ADC
    noise), and per worker one block's tables (about 36 kB) while its kernel
    runs and one block workspace: two complex block buffers, 2.6 MB at
    5 kHz and 1 s PPS intervals.  Each worker thread allocates its own
    workspace at its first task and reuses it for every task after, so no
    workspace is shared between threads.  The workspaces go with the worker
    threads when the pool shuts down, before the statistics and the model
    curve are taken.
    """
    from concurrent.futures import ThreadPoolExecutor

    omega = scenario.phasor.omega
    chain = scenario.chain

    engine = _Engine(scenario)
    t_in_pps = engine.plan.times
    trials = scenario.trials
    draws = engine.draw(0, trials)
    trial_tve = np.empty((trials, t_in_pps.size))
    clipped = np.empty(trials, dtype=np.int64)
    workers = _workers(-(-trials // BLOCK_TRIALS))
    # each kernel thread's workspace, allocated in its first task, so that a
    # MemoryError reaches the caller through the task's future
    local = threading.local()

    def kernel(start: int):
        if not hasattr(local, "ws"):
            local.ws = _Workspace(min(BLOCK_TRIALS, trials), engine.samples)
        stop = min(start + BLOCK_TRIALS, trials)
        z, clipped[start:stop] = engine.envelopes(draws, start, stop, local.ws)
        return _error_rows(z, trial_tve[start:stop], local.ws.csum)

    mag_err_sum = phase_err_sum = 0.0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for mag, phase in pool.map(kernel, range(0, trials, BLOCK_TRIALS)):
            mag_err_sum += mag
            phase_err_sum += phase
    # the pool's threads have exited with their workspaces: the statistics'
    # and the model curve's temporaries do not sit on top of them
    mean_tve = trial_tve.mean(axis=0)
    spread = _column_std(trial_tve, mean_tve) if trials > 1 else np.zeros_like(mean_tve)
    grand_mean_tve = float(trial_tve.mean())

    k = DEFAULT_COVERAGE_FACTOR
    curve = model_curve(
        chain, omega, t_in_pps, compensated=scenario.compensate,
        temperature=scenario.temperature_c,
    )

    fe_hz = fe(
        scenario.phasor.frequency,
        chain.timebase.deviation_ratio(scenario.temperature_c),
    )
    return McResult(
        t_in_pps=t_in_pps,
        trial_tve=trial_tve,
        mean_tve=mean_tve,
        band_lo=np.maximum(mean_tve - k * spread, 0.0),
        band_hi=mean_tve + k * spread,
        model_tve=curve.expected,
        model_band=curve.band_hi,
        compensated=scenario.compensate,
        fe_hz=fe_hz,
        grand_mean_tve=grand_mean_tve,
        grand_mean_mag_err=mag_err_sum / trial_tve.size,
        grand_mean_phase_err=phase_err_sum / trial_tve.size,
        window_gap_s=float(scenario.pps_period - t_in_pps[-1]),
        saturated_samples=int(clipped.sum()),
        max_guard_margin=float(draws.guard_margins.max()),
        max_trial_saturated_samples=int(clipped.max()),
    )


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------


def write_run(result: McResult, outdir) -> None:
    """Emit trials.npy and summary.csv into a run directory.

    ``trials.npy`` holds ``trial_tve`` as a float64, C-order array of shape
    ``(trials, len(t_in_pps))``: row ``i`` is trial ``i`` and column ``j``
    belongs to row ``j`` of ``summary.csv``'s ``t_in_pps_s`` column.

    An earlier run's ``manifest.json`` and ``report.txt`` are removed before
    anything is written: they describe the arrays replaced here, and
    ``report`` refuses a directory without a manifest rather than show the old run.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in ("manifest.json", "report.txt"):
        (out / stale).unlink(missing_ok=True)

    trial_tve = np.ascontiguousarray(result.trial_tve, dtype=np.float64)
    np.save(out / "trials.npy", trial_tve, allow_pickle=False)

    columns = (
        result.t_in_pps, result.mean_tve, result.band_lo, result.band_hi,
        result.model_tve, result.model_band,
    )
    rows = zip(*(np.asarray(c, dtype=np.float64).tolist() for c in columns))
    with open(out / "summary.csv", "w", newline="") as fh:
        fh.write("t_in_pps_s,mean_tve,band_lo,band_hi,model_tve,model_band\n")
        fh.write("".join(f"{a!r},{b!r},{c!r},{d!r},{e!r},{f!r}\n" for a, b, c, d, e, f in rows))


__all__ = [
    "DEFAULT_COVERAGE_FACTOR",
    "McResult",
    "McScenario",
    "ModelCurve",
    "TrialDraw",
    "fe",
    "model_curve",
    "monte_carlo",
    "run_trial",
    "tve",
    "write_run",
]
