"""Uncertainty budgets, the model curve and the Monte Carlo validation engine.

Per-block uncertainty budgets, the TVE of the expected system response
(``blocks.expected_response``) with its worst-case band over one PPS
interval, and the seeded Monte Carlo that replays the error chain trial by
trial and compares the measured TVE statistics against the model.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import platform
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

from .blocks import (
    ChainModel,
    _acquire_rows,
    _table_shape,
    expected_response,
    pll_sample,
)
from .errors import ScheduleGuardError
from .estimate import EstimationWindow, _FourierPlan, fe, tve
from .signals import Phasor, guard_margin

DEFAULT_COVERAGE_FACTOR = 3.3


@dataclass(frozen=True)
class UncertaintyBudget:
    """Per-block uncertainty contributions with combined totals."""

    contributions: tuple  # (name, rel_magnitude_std, phase_std)
    coverage_factor: float = DEFAULT_COVERAGE_FACTOR

    @property
    def worst_case(self):
        rel = sum(c[1] for c in self.contributions)
        ph = sum(c[2] for c in self.contributions)
        return rel, ph

    @property
    def quadrature(self):
        rel = math.hypot(*(c[1] for c in self.contributions))
        ph = math.hypot(*(c[2] for c in self.contributions))
        return rel, ph

    def to_json(self) -> dict:
        wc, quad = self.worst_case, self.quadrature
        return {
            "contributions": [
                {"block": n, "rel_magnitude_std": r, "phase_std_rad": p}
                for n, r, p in self.contributions
            ],
            "worst_case": {"rel_magnitude_std": wc[0], "phase_std_rad": wc[1]},
            "quadrature": {"rel_magnitude_std": quad[0], "phase_std_rad": quad[1]},
            "coverage_factor": self.coverage_factor,
        }


def budget(
    blocks: Sequence, k: float = DEFAULT_COVERAGE_FACTOR
) -> UncertaintyBudget:
    """Assemble a budget from (name, BlockResponse) pairs."""
    contributions = tuple(
        (name, resp.rel_magnitude_std, resp.phase_std) for name, resp in blocks
    )
    return UncertaintyBudget(contributions=contributions, coverage_factor=k)


# ---------------------------------------------------------------------------
# Analytic model curve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModelCurve:
    times: np.ndarray
    expected: np.ndarray
    band_hi: np.ndarray
    band_lo: np.ndarray


def _tve_of_exponent(r, p):
    return np.abs(np.exp(r + 1j * np.asarray(p)) - 1.0)


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
    expected = _tve_of_exponent(m_r, m_p)
    corners = [
        _tve_of_exponent(m_r + sr * u_r, m_p + sp * u_p)
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
# Monte Carlo engine
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class McScenario:
    """One seeded Monte Carlo experiment.

    A trial is one PPS-interval sub-sequence; ``trials`` should equal
    ``channels * duration / pps_period`` when mirroring a parallel-channel
    test session.
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
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        _check_seed_int("base_seed", self.base_seed)
        if self.duration < self.pps_period:
            raise ValueError("duration must cover at least one PPS period")
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


def _check_seed_int(name: str, value) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a non-negative integer (not a bool)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_POOL_SIZE = 4


def _words(n: int) -> list:
    """The 32-bit words of ``n >= 0``, least significant first, as SeedSequence splits it (0 is [0])."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hash_constants(first: int, mult: int, calls: int) -> np.ndarray:
    """SeedSequence's running hash constant before and after each of ``calls`` hashes, as a uint32 column."""
    h = [first]
    for _ in range(calls):
        h.append(h[-1] * mult & _MASK32)
    return np.array(h, dtype=np.uint32)[:, None]


def _hashmix(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's ``hashmix`` of ``values`` (uint32) under the constants ``h``, one row per hash.

    Hash ``k`` xors with ``h[k]`` and multiplies by ``h[k+1]``; a single row
    of ``values`` is hashed once per row of ``h[:-1]``.  uint32 arrays wrap
    as the C code does.
    """
    v = values ^ h[:-1]
    v *= h[1:]
    v ^= v >> 16
    return v


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    v = x * _MIX_MULT_L - y * _MIX_MULT_R
    v ^= v >> 16
    return v


def _seed_state(entropy: np.ndarray, words: int) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of the SeedSequences whose entropy is ``entropy``'s columns.

    ``entropy`` is uint32, ``max(words, 4)`` rows by one column per
    sequence, zero below its first ``words`` rows.  SeedSequence hashes the
    first four words into its pool, mixes every pool word into every other,
    then mixes in each word beyond the fourth; its hash constant advances
    with each hash whatever the data, so the three hashes of one pool word
    into the others are one array operation here.
    """
    # four hashes fill the pool, twelve mix it, and each word beyond the fourth takes four
    h = _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * max(words, _POOL_SIZE))
    pool = _hashmix(entropy[:_POOL_SIZE], h[: _POOL_SIZE + 1])
    c = _POOL_SIZE
    for src in range(_POOL_SIZE):
        dst = [d for d in range(_POOL_SIZE) if d != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[c : c + _POOL_SIZE]))
        c += _POOL_SIZE - 1
    for src in range(_POOL_SIZE, words):
        pool = _mix(pool, _hashmix(entropy[src], h[c : c + _POOL_SIZE + 1]))
        c += _POOL_SIZE
    # eight uint32 words from the pool, in turn; word pairs are little-endian uint64s
    state = _hashmix(np.tile(pool, (2, 1)), _hash_constants(_INIT_B, _MULT_B, 2 * _POOL_SIZE))
    state = state.astype(np.uint64)
    return np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)


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
        words = len(base) + k
        entropy = np.zeros((max(words, _POOL_SIZE), hi - lo), dtype=np.uint32)
        entropy[: len(base)] = np.array(base, dtype=np.uint32)[:, None]
        for j in range(k):
            entropy[len(base) + j] = (index >> 32 * j) & _MASK32
        parts.append(_seed_state(entropy, words))
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
    """One block of consecutive trials, drawn: what the kernel needs to run it."""

    start: int
    stop: int
    params: np.ndarray  # rows x 6, one trial per row, columns in TrialDraw's field order
    rngs: list  # each trial's generator, for its ADC noise
    ratios: np.ndarray  # time-base deviation ratio R per trial
    guard_margins: np.ndarray  # |R-1|*N_s per trial


class _Workspace:
    """The buffers one block of trials computes in, allocated once and reused.

    ``real`` (rows x A*B, see ``blocks._table_shape``) holds the converted
    samples, then the per-trial errors, and at the end of a run the column
    statistics' scratch; ``demod`` and ``csum`` are the Fourier plan's
    buffers, and ``demod`` is the forward chain's scratch before that.
    """

    def __init__(self, rows: int, samples: int):
        a, b = _table_shape(samples)
        self.real = np.empty((rows, a * b))
        self.demod = np.empty((rows, samples), dtype=complex)
        self.csum = np.empty_like(self.demod)


class _Engine:
    """One scenario's trials, a block at a time: drawn in order, then run by a kernel.

    What does not change between trials is computed once: the nominal sample
    period, the Fourier plan's weights, the time-base statistics at the
    scenario's temperature and the compensation factor.
    """

    def __init__(self, scenario: McScenario):
        self.scenario = scenario
        chain = scenario.chain
        # the instants the device believes in: n*T_s within one PPS interval
        self.samples = round(scenario.pps_period * scenario.nominal_rate)
        self.sample_period = 1.0 / scenario.nominal_rate
        self.plan = _FourierPlan.build(
            np.arange(self.samples) * self.sample_period,
            EstimationWindow(scenario.phasor.frequency),
        )
        # (mean, std) of the five Gaussian draws, in TrialDraw's field order
        self.normals = (
            (chain.aaf_gain_ppm.mean, chain.aaf_gain_ppm.std),
            (chain.aaf_phase_urad.mean, chain.aaf_phase_urad.std),
            (chain.adc_gain_ppm.mean, chain.sequence_gain_std_ppm()),
            (chain.adc_offset_uv.mean, chain.adc_offset_uv.std),
            (
                chain.timebase.mean_ppm(scenario.temperature_c),
                chain.timebase.std_ppm(scenario.temperature_c),
            ),
        )
        self.compensation = None
        if scenario.compensate:
            mean = expected_response(
                chain, scenario.phasor.omega, self.plan.times, scenario.temperature_c
            )
            # K = 1/Lambda: the envelopes are multiplied by it
            self.compensation = math.exp(-mean.log_magnitude) * np.exp(-1j * mean.phase)

    def draw(self, start: int, seeds: np.ndarray) -> _Draws:
        """Trials ``start`` on, one per row of ``seeds`` (``_trial_seeds``), drawn in order.

        Each trial's generator is seeded by (base_seed, trial index) alone and
        draws the five Gaussian terms, then the PLL delay, into its row of
        ``params``.
        """
        rows = len(seeds)
        params = np.empty((rows, 6))
        rngs = []
        ratios = np.empty(rows)
        margins = np.empty(rows)
        pll = self.scenario.chain.pll
        for r, seed in enumerate(seeds):
            rng = Generator(PCG64(_TrialSeed(seed)))
            rngs.append(rng)
            row = [rng.normal(mean, std) for mean, std in self.normals]
            row.append(pll_sample(pll, rng))
            params[r] = row
            ratios[r] = ratio = 1.0 + 1e-6 * row[4]  # e_r_ppm
            try:
                margins[r] = guard_margin(ratio, self.samples)
            except ScheduleGuardError as exc:
                draw = TrialDraw(*params[r].tolist())
                raise ScheduleGuardError(
                    f"trial {start + r} aborted: {exc}; draw = {draw.to_json()}"
                ) from exc
        return _Draws(start, start + rows, params, rngs, ratios, margins)

    def envelopes(self, block: _Draws, ws: _Workspace):
        """The block's envelopes (rows x windows, a view of ``ws``) and ADC clips per trial.

        The forward chain at the realized instants delay + n*T_s*R, the Fourier
        estimate and, if the scenario compensates, the compensation all run in
        ``ws``.
        """
        rows = len(block.params)
        aaf_gain, aaf_phase, adc_gain, adc_offset, _, delay = block.params.T
        values, clipped = _acquire_rows(
            self.scenario.phasor,
            self.scenario.chain,
            aaf_gain,
            aaf_phase,
            adc_gain,
            adc_offset,
            delay,
            self.sample_period * block.ratios,
            self.samples,
            block.rngs,  # each trial's ADC noise follows its parameter draws
            ws.real[:rows],
            ws.demod[:rows].view(float),
        )
        env = self.plan.rows(values, ws.demod[:rows], ws.csum[:rows])
        if self.compensation is not None:
            np.multiply(env, self.compensation, out=env)
        return env, clipped


def run_trial(scenario: McScenario, trial_index: int):
    """Run one seeded trial: the Monte Carlo engine on a block of one.

    Returns ``(t_in_pps, tve_trace, envelope_values, draw, saturated_samples)``,
    the last being the number of samples the ADC clipped at its end codes.
    With ``scenario.compensate`` the envelope and its TVE are compensated, so
    the trace equals row ``trial_index`` of ``monte_carlo(scenario).trial_tve``.

    Seeding depends only on (base_seed, trial_index) so results are invariant
    under any execution order.
    """
    _check_seed_int("trial_index", trial_index)
    engine = _Engine(scenario)
    block = engine.draw(trial_index, _trial_seeds(scenario.base_seed, trial_index, trial_index + 1))
    env, clipped = engine.envelopes(block, _Workspace(1, engine.samples))
    env = env[0]
    trace = tve(env, scenario.phasor.value)
    return engine.plan.times, trace, env, TrialDraw(*block.params[0].tolist()), int(clipped[0])


def _error_rows(env, ref, tve_rows, ws: _Workspace):
    """Write the TVE of envelope rows into ``tve_rows``; return their summed errors.

    The sums are of |relative magnitude error| and |phase error| over the
    block.  ``env`` is overwritten and ``ws`` used as scratch; nothing is
    allocated.
    """
    rows, windows = env.shape
    diff = np.subtract(env, ref, out=ws.csum[:rows, :windows])
    np.abs(diff, out=tve_rows)
    tve_rows /= abs(ref)
    # a contiguous view, so .sum() adds in the order it would for a fresh array
    err = ws.real.reshape(-1)[: rows * windows].reshape(rows, windows)
    np.abs(env, out=err)
    err /= abs(ref)
    err -= 1.0
    np.abs(err, out=err)
    mag_sum = float(err.sum())
    np.divide(env, ref, out=env)
    np.arctan2(env.imag, env.real, out=err)  # np.angle, in place
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


def _column_stats(rows: np.ndarray, mean: np.ndarray, std, scratch: np.ndarray) -> None:
    """Write each column's mean of ``rows`` into ``mean`` and, unless ``std`` is None, its ddof-1 std.

    ``rows`` is a slice of at least two columns of a C-contiguous array (one
    column alone would be summed pairwise).  Each column is then summed row
    by row, the order in which ``np.add.reduce(axis=0)`` adds the rows of the
    whole array, so the results equal ``mean(axis=0)`` and
    ``std(axis=0, ddof=1)`` of the whole array bit for bit.  The squared
    deviations are formed a chunk of rows at a time in ``scratch``
    (contiguous floats, at least two rows' worth), below the running sum
    in its first row, so the std needs no full-size temporary.
    """
    n, columns = rows.shape
    np.add.reduce(rows, axis=0, out=mean)
    mean /= n
    if std is None:
        return
    buf = scratch.reshape(-1)[: scratch.size // columns * columns].reshape(-1, columns)
    buf[0] = 0.0
    chunk = buf.shape[0] - 1
    for start in range(0, n, chunk):
        d = buf[1 : 1 + min(chunk, n - start)]
        np.subtract(rows[start : start + chunk], mean, out=d)
        d *= d
        np.add.reduce(buf[: 1 + d.shape[0]], axis=0, out=std)
        buf[0] = std
    std /= n - 1
    np.sqrt(std, out=std)


def monte_carlo(scenario: McScenario) -> McResult:
    """Run all trials, aggregate the TVE statistics and overlay the model curve.

    Trials run in blocks of ``BLOCK_TRIALS``.  The calling thread draws each
    block's parameters in trial order, so a guard violation names the lowest
    failing trial.  The blocks' kernels (forward chain, Fourier estimate,
    compensation and errors) run on a pool of ``_MAX_WORKERS`` (two) worker
    threads, fewer if the process may use fewer CPUs or the run has fewer
    blocks.  Each kernel writes its TVE rows straight into ``trial_tve`` and
    returns its summed magnitude and phase errors, which are added in block
    order, so every result is bit for bit the same for any number of workers.
    The column mean and std of the traces are then taken on the same workers,
    a slice of columns each, while the calling thread takes the grand mean.
    Memory is the float64 per-trial traces plus one block workspace per
    worker.
    """
    from concurrent.futures import ThreadPoolExecutor

    omega = scenario.phasor.omega
    ref = scenario.phasor.value
    chain = scenario.chain
    if ref == 0:
        raise ValueError("reference phasor must be nonzero")

    engine = _Engine(scenario)
    t_in_pps = engine.plan.times
    trial_tve = np.empty((scenario.trials, t_in_pps.size))
    guard_margins = np.empty(scenario.trials)
    clipped = np.empty(scenario.trials, dtype=np.int64)
    seeds = _trial_seeds(scenario.base_seed, 0, scenario.trials)
    starts = range(0, scenario.trials, BLOCK_TRIALS)
    workers = _workers(len(starts))
    # list.pop and list.append are atomic, and at most ``workers`` kernels
    # run at once, so a kernel always finds a free workspace
    rows = min(BLOCK_TRIALS, scenario.trials)
    free = [_Workspace(rows, engine.samples) for _ in range(workers)]

    def kernel(block: _Draws):
        ws = free.pop()
        try:
            env, clipped[block.start : block.stop] = engine.envelopes(block, ws)
            return _error_rows(env, ref, trial_tve[block.start : block.stop], ws)
        finally:
            free.append(ws)

    def submitted(pool):
        """Draw the blocks in order and submit their kernels; yield the futures in block order.

        A held block of draws is about 20 kB, so at most
        ``2 * workers`` are in flight: ``pool.map`` would draw every block
        before the first kernel ends, and the scratch would grow with trials.
        """
        pending = deque()
        for start in starts:
            block = engine.draw(start, seeds[start : start + BLOCK_TRIALS])
            guard_margins[block.start : block.stop] = block.guard_margins
            if len(pending) == 2 * workers:
                yield pending.popleft()
            pending.append(pool.submit(kernel, block))
        yield from pending

    windows = t_in_pps.size
    mean_tve = np.empty(windows)
    spread = np.zeros(windows)

    def column_stats(columns: slice):
        ws = free.pop()
        try:
            std = spread[columns] if scenario.trials > 1 else None
            _column_stats(trial_tve[:, columns], mean_tve[columns], std, ws.real)
        finally:
            free.append(ws)

    # slices of at least two columns, unless there is only one
    parts = max(1, min(workers, windows // 2))
    edges = [windows * i // parts for i in range(parts + 1)]
    mag_err_sum = phase_err_sum = 0.0
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in submitted(pool):
            mag, phase = future.result()
            mag_err_sum += mag
            phase_err_sum += phase
        stats = [pool.submit(column_stats, slice(*edges[i : i + 2])) for i in range(parts)]
        grand_mean_tve = float(trial_tve.mean())
        for future in stats:
            future.result()

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
        max_guard_margin=float(guard_margins.max()),
        max_trial_saturated_samples=int(clipped.max()),
    )


# ---------------------------------------------------------------------------
# Run artifacts
# ---------------------------------------------------------------------------


def write_run(result: McResult, outdir, manifest: dict) -> None:
    """Emit trials.npy, summary.csv and manifest.json into a run directory.

    ``trials.npy`` holds ``trial_tve`` as a float64, C-order array of shape
    ``(trials, len(t_in_pps))``: row ``i`` is trial ``i`` and column ``j``
    belongs to row ``j`` of ``summary.csv``'s ``t_in_pps_s`` column.
    """
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)

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

    payload = dict(manifest)
    payload.update(
        {
            "compensated": result.compensated,
            "coverage_factor": DEFAULT_COVERAGE_FACTOR,
            "fe_hz": result.fe_hz,
            "grand_mean_tve": result.grand_mean_tve,
            "grand_mean_mag_err": result.grand_mean_mag_err,
            "grand_mean_phase_err_rad": result.grand_mean_phase_err,
            "window_gap_s": result.window_gap_s,
            "trials": result.trials,
            "saturated_samples": result.saturated_samples,
            "max_trial_saturated_samples": result.max_trial_saturated_samples,
            "max_guard_margin": result.max_guard_margin,
            "versions": {"python": platform.python_version(), "numpy": np.__version__},
        }
    )
    with open(out / "manifest.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


__all__ = [
    "DEFAULT_COVERAGE_FACTOR",
    "McResult",
    "McScenario",
    "ModelCurve",
    "TrialDraw",
    "UncertaintyBudget",
    "budget",
    "model_curve",
    "monte_carlo",
    "run_trial",
    "write_run",
]
