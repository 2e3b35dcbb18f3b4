"""Offline characterization procedures that produce chain-model parameters.

Covers the static ADC sweep (OLS gain/offset with covariance and slew-rate
planning), counter-based time-base and delay measurements, descriptive delay
statistics, and the nested variance decompositions used to separate
estimator noise, channel-to-channel and board-to-board dispersion.  The
results are plain values: ``sbcpmu.cli`` turns them into fragments.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import itertools
import math
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import ConfigError, utf8


# ---------------------------------------------------------------------------
# OLS sweep fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRecord:
    """Input/output voltage pairs of one static sweep on one channel."""

    v_in: np.ndarray
    v_out: np.ndarray

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
    # inner products as numpy's pairwise sums: BLAS ddot splits a long vector
    # across threads, so its bits would depend on the thread count
    suu = float(np.multiply(u, u).sum())
    gain = float(np.multiply(u, dy).sum()) / suu / scale
    offset = y_mean - gain * x_mean
    resid = dy - (gain * scale) * u
    rss = float(np.multiply(resid, resid).sum())
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


def one_counter_estimate(
    counts: Sequence[float], known_base: float, nominal_period: float
) -> OneCounterResult:
    """Time-base deviation from edge counts of a known reference frequency.

    Each count N over one period of the unknown signal gives
    T_hat = N / F_k and R = T_hat / T_s.  The per-measurement quantization
    error is one reference period, T_k / T_s relative; the result includes
    the number of averages needed to push the error on the mean below 1 ppm.
    That error must lie below 100 %: ``known_base * nominal_period > 1``.
    An overflowed product would read as a zero error, so it must also be finite.
    """
    periods = known_base * nominal_period  # reference periods per nominal period
    if not math.isfinite(periods):
        raise ValueError(f"known_base * nominal_period must be finite, got {periods!r}")
    if not periods > 1:
        raise ValueError(f"known_base * nominal_period must be > 1, got {periods!r}")
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValueError("counts must be nonempty")
    if np.any(counts <= 0):
        raise ValueError("zero or negative edge counts are not valid")
    t_hat = counts / known_base
    r = t_hat / nominal_period
    per_meas = 1.0 / periods
    required = math.ceil((per_meas / (MAX_MEAN_ERROR_PPM * 1e-6)) ** 2)
    return OneCounterResult(
        r_mean=float(r.mean()),
        r_values=r,
        per_measurement_error=per_meas,
        required_averages=required,
    )


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


# np.quantile, np.percentile and np.median import numpy.ma (13-15 ms of a
# CLI process).  These two give numpy's values bit for bit: they partition
# at the same positions, so even the sign of a zero agrees.


def _quantiles(samples: np.ndarray, probs) -> np.ndarray:
    """``np.quantile(samples, probs)`` by numpy's default (linear) rule, for 1-D samples and ``0 <= p < 1``.

    The sorted samples ``x`` are read at ``v = (n - 1)*p``: with ``i = floor(v)``
    and ``t = v - i``, the quantile is ``x[i] + (x[i+1] - x[i])*t``, or
    ``x[i+1] - (x[i+1] - x[i])*(1 - t)`` when ``t >= 0.5``, as numpy rounds it.
    """
    n = samples.size
    v = (n - 1) * np.asarray(probs, dtype=float)
    lo = np.floor(v).astype(np.intp)
    hi = lo + 1
    part = np.partition(samples, sorted({0, n - 1, *lo.tolist(), *hi.tolist()}))
    a, b = part[lo], part[hi]
    t = v - lo
    d = b - a
    return np.where(t >= 0.5, b - d * (1 - t), a + d * t)


def _median(samples: np.ndarray) -> float:
    """``np.median(samples)`` for 1-D samples: the mean of the middle one or two sorted values."""
    n = samples.size
    h = n // 2
    middle = slice(h, h + 1) if n % 2 else slice(h - 1, h + 1)
    part = np.partition(samples, sorted({middle.start, h, n - 1}))
    return float(part[middle].mean())


def _histogram_mode(samples: np.ndarray) -> float:
    """Mode as the center of the tallest Freedman-Diaconis bin.

    Ties are broken toward the bin nearest the sample median.
    """
    q75, q25 = _quantiles(samples, (0.75, 0.25))
    iqr = q75 - q25
    if iqr == 0 or np.ptp(samples) == 0:
        return _median(samples)
    width = 2.0 * iqr / samples.size ** (1.0 / 3.0)
    n_bins = max(1, math.ceil(np.ptp(samples) / width))
    counts, edges = np.histogram(samples, bins=n_bins)
    centers = 0.5 * (edges[:-1] + edges[1:])
    best = counts.max()
    candidates = centers[counts == best]
    median = _median(samples)
    return float(candidates[np.argmin(np.abs(candidates - median))])


def _qq_deviation(samples: np.ndarray) -> float:
    """Max |sample quantile - fitted normal quantile| over the 1-99% range."""
    from statistics import NormalDist  # only this statistic needs it; the readers do not

    mean = samples.mean()
    std = samples.std(ddof=1)
    if std == 0:
        return 0.0
    probs = np.linspace(0.01, 0.99, 99)
    sample_q = _quantiles(samples, probs)
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
    ordering_ok: bool = True


def variance_decomposition(
    groups: Mapping, estimator_stds: Optional[Mapping] = None, ddof: int = 0
) -> DecompositionResult:
    """Split total variance into within-group and between-group parts.

    ``groups`` maps each level of a nesting factor (device, temperature, ...)
    to its values; every group must be nonempty.  ``estimator_stds``
    optionally carries the per-value estimator standard deviations (e.g. from
    the OLS covariance) under the same keys.  With ``ddof=0`` and equal group
    sizes the identity total = mean(within variances) + var(group means)
    matches the pooled population variance exactly; ``ddof=1`` gives unbiased
    components for small numbers of groups.
    """
    groups = {k: np.asarray(v, dtype=float) for k, v in groups.items()}
    if not groups or any(v.size == 0 for v in groups.values()):
        raise ValueError("every group must be nonempty")
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
        # pairwise sums, as in ols_fit: no reduction here calls BLAS
        within = float(np.multiply(weights, within_vars).sum())
        grand_mean = float(np.multiply(weights, means).sum())
        between = float(np.multiply(weights, (means - grand_mean) ** 2).sum())
    else:
        within = float(within_vars.mean())
        grand_mean = float(means.mean())
        between = float(means.var(ddof=ddof))
    total = within + between

    estimator = 0.0
    if estimator_stds is not None:
        flat = np.concatenate([np.asarray(estimator_stds[k], dtype=float).ravel() for k in names])
        estimator = float(np.sqrt(np.mean(flat**2)))

    within_std = math.sqrt(within)
    total_std = math.sqrt(total)
    return DecompositionResult(
        grand_mean=grand_mean,
        estimator_std=estimator,
        within_std=within_std,
        total_std=total_std,
        between_std=math.sqrt(between),
        ordering_ok=(estimator <= within_std + 1e-12) and (within_std <= total_std + 1e-12),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


# Each reader checks the header by name with ``csv``, so column order is free,
# and parses every column it uses in one structured ``np.loadtxt`` pass:
# numbers as float64, labels as raw bytes (read as latin-1, each byte reaches
# its cell unchanged).  ``loadtxt`` cuts a label longer than its cell silently,
# so while a label fills its cell the file is parsed again, with cells as wide
# as its longest line (only a quoted label spanning lines fills those) or twice
# as wide as before.  The characterization procedures write each group (one
# channel's sweep, one board's capture at one temperature, one stress profile)
# as a block of rows, so groups are found from runs of equal labels: one pass
# over the label columns finds where each run starts, and only the first row of
# each run is factorized.  A group of one run is a slice of the table; the rows
# of a group spread over several runs are gathered from its runs.  Groups come
# in order of first appearance and keep the rows' file order, so every
# downstream sum adds its terms in file order.  Errors are found on whole
# columns; only then is the file read again, row by row, for the line number.

_LABEL_BYTES = 8


def _read_header(path, required: Sequence[str]):
    """Column index by name, whether a line after the header holds a carriage return, and the lines to read.

    The header's lines, ``np.loadtxt``'s ``skiprows``, are those of its
    whole CSV record: a quoted name may span line breaks.  The row bound,
    ``max_rows``, is one more than the line breaks after the header (a last
    line may lack its break).  A row takes one line or more and a blank line
    none, so no more rows follow, and the table is allocated once.  A
    missing required column is a ``ConfigError``.  A leading byte-order
    mark is dropped.  The whole file must be UTF-8 text without a NUL byte
    (it would end a raw-bytes label): else a ``ConfigError``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            nul = cr = False
            skip, rows = reader.line_num, 1
            for text in iter(functools.partial(fh.read, 1 << 20), ""):
                nul = nul or "\x00" in text
                rows += text.count("\n")
                if "\r" in text:
                    # a lone CR ends a line too; a CRLF split between two reads counts twice
                    cr = True
                    rows += text.count("\r") - text.count("\r\n")
    except UnicodeDecodeError:
        with open(path, "rb") as fh:
            utf8(fh.read(), path)  # raises the error naming the line
        raise
    if nul:
        with open(path, "rb") as fh:
            raw = fh.read()
        line = raw.count(b"\n", 0, raw.index(b"\x00")) + 1
        raise ConfigError(f"{path}: line {line}: NUL byte")
    missing = [c for c in required if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing required columns: {', '.join(missing)}")
    return {name: i for i, name in enumerate(header)}, cr, skip, rows  # a repeated name: the last wins


def _raw_text(path):
    """``path`` as text of one character per byte, line ends untranslated."""
    return open(path, encoding="latin-1", newline="")


def _read_table(
    path, index: dict, cr: bool, skip: int, max_rows: int, numbers: Sequence[str],
    labels: Sequence[str],
) -> dict:
    """Columns ``numbers`` (float64) and ``labels`` (raw bytes) of every data row.

    ``skip`` is ``_read_header``'s count of the header's lines and
    ``max_rows`` its bound: never fewer than the file's rows, or the last
    ones would be dropped without a word.  A cell that does not parse, a row
    without one of the columns and a file without data rows are each a
    ``ConfigError``.  Blank lines are skipped.
    ``np.loadtxt`` reads a path with universal newlines, which would turn a
    quoted label's CRLF into LF, where ``csv`` keeps it.  So a file holding a
    carriage return (``cr``) is handed over open through ``_raw_text``; any
    other is handed over by path, which ``loadtxt`` reads in blocks rather
    than a line at a time.
    """
    names = [*numbers, *labels]
    width = _LABEL_BYTES
    while True:
        dtype = [(n, "f8") for n in numbers] + [(n, f"S{width}") for n in labels]
        with warnings.catch_warnings():
            # loadtxt warns on blank lines and on a file without data rows
            warnings.simplefilter("ignore", UserWarning)
            try:
                with _raw_text(path) if cr else contextlib.nullcontext(path) as source:
                    table = np.loadtxt(
                        source, delimiter=",", skiprows=skip, usecols=[index[n] for n in names],
                        comments=None, quotechar='"', dtype=dtype, ndmin=1, encoding="latin-1",
                        max_rows=max_rows,
                    )
            except ValueError as exc:
                # loadtxt's own row numbers start at 0 or 1 by error
                raise _unreadable(path, index, names, numbers) or ConfigError(f"{path}: {exc}") from exc
        # a label fills its cell when the cell's last byte is not NUL (the file holds none)
        cells = table.view(np.uint8).reshape(table.size, table.itemsize)
        if not any(cells[:, table.dtype.fields[n][1] + width - 1].any() for n in labels):
            break
        with _raw_text(path) as fh:
            width = max(2 * width, max(map(len, fh)))
    if table.size == 0:
        raise ConfigError(f"{path}: no data rows")
    return {n: table[n] for n in names}


def _data_rows(path):
    """(line number, fields) of each data row: the rows after the header, blank lines skipped."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        for row in reader:
            if row:
                yield reader.line_num, row


def _bad_cell(path, line: int, name: str, what: str, cell) -> ConfigError:
    return ConfigError(f"{path}: line {line}: {name} must be {what}, got {cell!r}")


def _unreadable(path, index: dict, names: Sequence[str], numbers) -> Optional[ConfigError]:
    """The error at the first row without one of the columns, or with a ``numbers`` cell that is not a number."""
    for line, row in _data_rows(path):
        for name in names:
            if index[name] >= len(row):
                return ConfigError(f"{path}: line {line}: no {name} column ({len(row)} fields)")
            if name in numbers:
                try:
                    float(row[index[name]])
                except ValueError:
                    return _bad_cell(path, line, name, "a number", row[index[name]])
    return None


def _row_line(path, row: int) -> int:
    """Line number of data row ``row`` (counted from 0)."""
    return next(itertools.islice(_data_rows(path), row, None))[0]


def _check(path, name: str, ok: np.ndarray, what: str, cells: np.ndarray) -> None:
    """A ``ConfigError`` naming the line of the first data row where ``ok`` is not set."""
    if not ok.all():
        row = int(np.argmin(ok))
        cell = cells[row].item()
        cell = cell.decode() if isinstance(cell, bytes) else cell
        raise _bad_cell(path, _row_line(path, row), name, what, cell)


def _runs(*labels: np.ndarray) -> np.ndarray:
    """Bounds of the runs of rows with equal labels: run ``r`` holds rows ``bounds[r]:bounds[r + 1]``."""
    size = labels[0].size
    new = np.zeros(size + 1, dtype=bool)  # row i starts a run; the last entry ends the table
    new[0] = new[size] = True
    for cells in labels:
        keys = cells.view(np.uint64) if cells.dtype == "S8" else cells  # these compare faster
        new[1:size] |= keys[1:] != keys[:-1]
    return np.flatnonzero(new)


def _factorize(values: np.ndarray):
    """Codes numbering the distinct values in order of first appearance, and those values (bytes decoded).

    The codes take the narrowest unsigned type that holds them: numpy sorts
    those of 16 bits or fewer by radix.
    """
    keys = values.view(np.uint64) if values.dtype == "S8" else values  # these sort faster
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty(order.size, dtype=np.min_scalar_type(order.size))
    rank[order] = np.arange(order.size)
    distinct = values[first[order]].tolist()
    if values.dtype.kind == "S":
        distinct = [label.decode() for label in distinct]
    return rank[inverse.ravel()], distinct


def _group(bounds: np.ndarray, *codes: np.ndarray) -> list:
    """(first run, rows) of each distinct tuple of ``codes``, in order of first appearance.

    ``bounds`` are the runs of a table as ``_runs`` gives them, and each of
    ``codes`` numbers one label of every run.  ``rows`` indexes the group's
    rows in file order: a slice for a group of one run, else an array.
    """
    code = np.zeros(bounds.size - 1, dtype=np.intp)
    for more in codes:
        code = code * (int(more.max()) + 1) + more
    group, _ = _factorize(code.astype(np.min_scalar_type(code.max())))
    del code
    runs = np.bincount(group)
    order = np.argsort(group, kind="stable")  # each group's runs in file order
    first = order[np.cumsum(runs) - runs].tolist()
    # the runs of the groups of several runs, expanded to their rows.  The
    # dels matter where runs are short: then each array is as long as the table.
    spread = order[np.repeat(runs > 1, runs)]
    del group, order
    begin = bounds[spread]
    spans = bounds[spread + 1] - begin
    del spread
    ends = np.cumsum(spans)
    begin -= ends - spans  # a run's first row, less the place of that row in `rows`
    rows = np.repeat(begin, spans)
    del begin, spans
    rows += np.arange(rows.size)
    # one piece per group of several runs, cut after the group's last run
    pieces = iter(np.split(rows, ends[np.cumsum(runs[runs > 1])[:-1] - 1]))
    return [
        (run, next(pieces) if count > 1 else slice(int(bounds[run]), int(bounds[run + 1])))
        for run, count in zip(first, runs.tolist())
    ]


def read_sweep_csv(path) -> dict:
    """Parse `v_in,v_out,channel,device` rows into SweepRecords keyed by (device, channel).

    Keys come in order of first appearance and each record keeps its rows'
    file order.  Voltages must be finite; a channel needs at least 3 points.
    """
    index, cr, skip, max_rows = _read_header(path, ["v_in", "v_out", "channel", "device"])
    cols = _read_table(path, index, cr, skip, max_rows, ["v_in", "v_out"], ["device", "channel"])
    for name in ("v_in", "v_out"):
        _check(path, name, np.isfinite(cols[name]), "a finite number", cols[name])
    bounds = _runs(cols["device"], cols["channel"])
    device_code, devices = _factorize(cols["device"][bounds[:-1]])
    channel_code, channels = _factorize(cols["channel"][bounds[:-1]])
    out = {}
    for run, rows in _group(bounds, device_code, channel_code):
        device, channel = devices[device_code[run]], channels[channel_code[run]]
        try:
            out[device, channel] = SweepRecord(cols["v_in"][rows], cols["v_out"][rows])
        except ValueError as exc:
            raise ConfigError(f"{path}: device {device!r} channel {channel!r}: {exc}") from exc
    return out


def _temperatures(path, cells: np.ndarray, bounds: np.ndarray):
    """``_factorize`` of the temperature cells that start the runs ``bounds``, and each spelling's value.

    A blank cell's value is None.
    """
    codes, spellings = _factorize(cells[bounds[:-1]])
    values = []
    for text in spellings:
        try:
            values.append(float(text) if text != "" else None)
        except ValueError:
            values.append(math.nan)
    ok = np.array([v is None or math.isfinite(v) for v in values])
    ok = np.repeat(ok[codes], np.diff(bounds))
    _check(path, "temperature_c", ok, "a finite number or blank", cells)
    return codes, values


def read_counter_csv(path) -> dict:
    """Parse `count,device,temperature_c` rows into counts keyed by (temperature_c, device).

    The temperature column may be absent and a cell may be blank; either is
    a temperature of None.  Keys come in order of first appearance and each
    float64 array keeps its rows' file order.  A count must be finite and > 0.
    """
    index, cr, skip, max_rows = _read_header(path, ["count", "device"])
    labels = [c for c in ("device", "temperature_c") if c in index]
    cols = _read_table(path, index, cr, skip, max_rows, ["count"], labels)
    counts = cols["count"]
    _check(path, "count", np.isfinite(counts) & (counts > 0), "a finite number > 0", counts)
    bounds = _runs(*(cols[c] for c in labels))
    device, devices = _factorize(cols["device"][bounds[:-1]])
    if "temperature_c" in cols:
        spelling, values = _temperatures(path, cols["temperature_c"], bounds)
    else:
        spelling, values = np.zeros(device.size, dtype=np.intp), [None]
    # spellings of one value ("20", "20.0", and "0" with "-0") are one
    # temperature; a key holds the value its group's first row spells
    ids: dict = {}
    same = np.array([ids.setdefault(v, len(ids)) for v in values], dtype=np.intp)
    return {
        (values[spelling[run]], devices[device[run]]): counts[rows]
        for run, rows in _group(bounds, same[spelling], device)
    }


def read_delay_csv(path, known_base: float = 100e6) -> dict:
    """Parse delay captures into arrays of seconds keyed by stress profile.

    Accepts either a `count` column (edge counts against ``known_base``) or a
    direct `delay_us` column, plus a `profile` column.  With both columns, a
    row with a blank `delay_us` uses its count.  Keys come in order of first
    appearance and each array keeps its rows' file order.
    """
    index, cr, skip, max_rows = _read_header(path, ["profile"])
    sources = [c for c in ("delay_us", "count") if c in index]
    if not sources:
        raise ConfigError(f"{path}: need a `count` or `delay_us` column")
    if len(sources) == 2:
        # only here can a row lack its delay_us, so only here are they parsed as text
        cols = _read_table(path, index, cr, skip, max_rows, [], ["profile", *sources])
        use_count = cols["delay_us"] == b""
        cells = np.where(use_count, cols["count"], cols["delay_us"])
        try:
            values = cells.astype(np.float64)
        except ValueError:
            for row, cell in enumerate(cells.tolist()):
                try:
                    float(cell)
                except ValueError:
                    name = "count" if use_count[row] else "delay_us"
                    raise _bad_cell(path, _row_line(path, row), name, "a number", cell.decode())
            raise
    else:
        cols = _read_table(path, index, cr, skip, max_rows, sources, ["profile"])
        values = cols[sources[0]]
        use_count = np.full(values.size, sources == ["count"])
    _check(path, "delay_us", use_count | np.isfinite(values), "a finite number", values)
    _check(
        path, "count", ~use_count | (np.isfinite(values) & (values >= 0)),
        "a finite number >= 0", values,
    )
    # whole edges, as int() counts them; + 0.0 because int() has no -0.0 for a "-0"
    delay = np.where(use_count, (np.trunc(values) + 0.0) / known_base, values * 1e-6)
    bounds = _runs(cols["profile"])
    profile, profiles = _factorize(cols["profile"][bounds[:-1]])
    return {profiles[profile[run]]: delay[rows] for run, rows in _group(bounds, profile)}


__all__ = [
    "DecompositionResult",
    "OlsResult",
    "OneCounterResult",
    "StatSummary",
    "SweepPlan",
    "SweepRecord",
    "delay_statistics",
    "ols_fit",
    "one_counter_estimate",
    "read_counter_csv",
    "read_delay_csv",
    "read_sweep_csv",
    "sweep_plan",
    "variance_decomposition",
]
