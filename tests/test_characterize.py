import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from sbcpmu.characterize import (
    SweepRecord,
    _median,
    _quantiles,
    _read_header,
    delay_statistics,
    ols_fit,
    one_counter_estimate,
    read_counter_csv,
    read_delay_csv,
    read_sweep_csv,
    sweep_plan,
    variance_decomposition,
)
from sbcpmu.errors import ConfigError


class TestOls:
    def test_exact_line(self):
        r = ols_fit(SweepRecord(v_in=[0, 1, 2, 3, 4], v_out=[1, 3, 5, 7, 9]))
        assert r.gain == pytest.approx(2.0, abs=1e-12)
        assert r.offset == pytest.approx(1.0, abs=1e-12)
        assert r.rss == pytest.approx(0.0, abs=1e-20)
        assert r.dof == 3

    def test_against_normal_equations(self):
        rng = np.random.default_rng(3)
        x = np.linspace(-10, 10, 10_000)
        y = (1 - 4459e-6) * x - 269e-6 + rng.normal(0, 100e-6, x.size)
        fit = ols_fit(SweepRecord(v_in=x, v_out=y))
        # independent closed-form oracle
        design = np.column_stack([np.ones_like(x), x])
        beta = np.linalg.solve(design.T @ design, design.T @ y)
        assert fit.offset == pytest.approx(beta[0], abs=1e-9)
        assert fit.gain == pytest.approx(beta[1], abs=1e-9)
        # recovery within 3 estimated stds and analytic variance agreement
        assert abs(fit.gain - (1 - 4459e-6)) < 3 * fit.gain_std
        assert abs(fit.offset + 269e-6) < 3 * fit.offset_std
        sigma2 = (100e-6) ** 2
        analytic = sigma2 * np.linalg.inv(design.T @ design)
        assert fit.gain_std == pytest.approx(math.sqrt(analytic[1, 1]), rel=0.2)
        assert fit.offset_std == pytest.approx(math.sqrt(analytic[0, 0]), rel=0.2)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-5, 5, 200)
        y = 0.7 * x + 0.1 + rng.normal(0, 0.05, 200)
        fit = ols_fit(SweepRecord(v_in=x, v_out=y))
        resid = y - (fit.gain * x + fit.offset)
        design = np.column_stack([np.ones_like(x), x])
        assert np.max(np.abs(design.T @ resid)) < 1e-9 * np.linalg.norm(y)

    def test_tiny_input_spread(self):
        # an input spread far below 1 V is still full rank; a least-squares
        # solve on [1, x] cut the x column and returned a gain of ~1e-267
        x = np.array([0.0, 1.5191158452085168e-133, 2.4534253162517722e-231, 4.3e-261])
        fit = ols_fit(SweepRecord(v_in=x, v_out=x))
        assert fit.gain == pytest.approx(1.0, abs=1e-12)
        assert fit.offset == pytest.approx(0.0, abs=1e-140)
        assert fit.rss < 1e-280

    def test_covariance_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        x = 5.0 + rng.uniform(-1, 1, 50)
        y = 0.9 * x + 0.2 + rng.normal(0, 0.01, 50)
        fit = ols_fit(SweepRecord(v_in=x, v_out=y))
        design = np.column_stack([np.ones_like(x), x])
        expected = fit.rss / fit.dof * np.linalg.inv(design.T @ design)
        assert np.allclose(fit.covariance, expected, rtol=1e-9, atol=0)

    def test_constant_input_rejected(self):
        with pytest.raises(ValueError):
            ols_fit(SweepRecord(v_in=[1, 1, 1], v_out=[0, 1, 2]))

    @given(
        st.lists(st.floats(-10, 10), min_size=4, max_size=30, unique=True),
        st.floats(-2, 2),
        st.floats(-1, 1),
    )
    @settings(max_examples=50)
    def test_oracle_property(self, xs, g, b):
        x = np.asarray(xs)
        # y = g*x + b rounds each y by ~1e-14; below this spread of x that
        # rounding, not the fit, decides the recovered slope
        # (test_tiny_input_spread covers the fit itself at a tiny spread)
        assume(np.ptp(x) > 1e-5)
        y = g * x + b
        fit = ols_fit(SweepRecord(v_in=x, v_out=y))
        assert fit.gain == pytest.approx(g, abs=1e-7)
        assert fit.offset == pytest.approx(b, abs=1e-7)


class TestSweepPlan:
    def test_paper_values(self):
        p = sweep_plan(full_scale=20.0, filter_tau=32e-6, duration=3.2)
        assert p.slew_rate == pytest.approx(6.25)
        assert p.gain_error == pytest.approx(-5e-11, rel=0.1)
        assert p.offset_error == pytest.approx(-200e-6, rel=0.02)

    def test_zero_tau(self):
        p = sweep_plan(20.0, 0.0, 3.2)
        assert p.gain_error == 0.0 and p.offset_error == 0.0

    def test_duration_scaling(self):
        a = sweep_plan(20.0, 32e-6, 3.2)
        b = sweep_plan(20.0, 32e-6, 1.6)
        assert b.slew_rate == pytest.approx(2 * a.slew_rate)
        assert b.offset_error == pytest.approx(2 * a.offset_error)
        assert b.gain_error == pytest.approx(4 * a.gain_error, rel=1e-6)


class TestOneCounter:
    def test_required_averages(self):
        r = one_counter_estimate([2000], known_base=100e6, nominal_period=1 / 50e3)
        assert r.per_measurement_error == pytest.approx(5e-4)
        assert r.required_averages == 250_000

    def test_exact_counts(self):
        r = one_counter_estimate([2000, 2000], 100e6, 2e-5)
        assert r.r_mean == 1.0

    def test_biased_counts(self):
        # -16 ppm deviation over many quantized counts
        rng = np.random.default_rng(5)
        true = 2000 * (1 - 16e-6)
        counts = np.floor(true + rng.uniform(0, 1, 300_000))
        r = one_counter_estimate(counts, 100e6, 2e-5)
        assert (r.r_mean - 1) * 1e6 == pytest.approx(-16.0, abs=1.0)

    def test_error_scales_inverse_sqrt(self):
        rng = np.random.default_rng(6)
        true = 2000.37
        errs = []
        for n in (100, 1000, 10_000):
            trials = [
                abs(one_counter_estimate(
                    np.floor(true + rng.uniform(0, 1, n)), 100e6, 2e-5
                ).r_mean - true / 2000)
                for _ in range(40)
            ]
            errs.append(np.mean(trials))
        slope = np.polyfit(np.log10([100, 1000, 10_000]), np.log10(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.1)

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            one_counter_estimate([], 100e6, 2e-5)
        with pytest.raises(ValueError):
            one_counter_estimate([0], 100e6, 2e-5)

    @pytest.mark.parametrize("known_base", [1e-300, 1.0, 50e3])
    def test_rejects_one_reference_period_or_less(self, known_base):
        with pytest.raises(ValueError, match="known_base \\* nominal_period must be > 1"):
            one_counter_estimate([2000], known_base, 2e-5)

    def test_rejects_overflowed_reference_periods(self):
        # 1e300 * 1e10 is inf, which the > 1 check alone would accept as a zero error
        with pytest.raises(ValueError, match="^known_base \\* nominal_period must be finite, got inf$"):
            one_counter_estimate([2000, 2001], 1e300, 1e10)


class TestDelayStatistics:
    def test_constant(self):
        s = delay_statistics([5e-6] * 10)
        assert s.std == 0.0
        assert s.mode == s.mean == s.minimum == s.maximum == 5e-6

    def test_idle_profile_draws(self):
        from sbcpmu.blocks import PllDelayModel, pll_sample

        m = PllDelayModel(min=4.55e-6, max=14.65e-6, mean=6.59e-6, std=1.07e-6)
        rng = np.random.default_rng(7)
        draws = [pll_sample(m, rng) for _ in range(1000)]
        s = delay_statistics(draws)
        assert s.mean == pytest.approx(6.59e-6, abs=3 * 1.07e-6 / math.sqrt(1000))
        assert s.minimum >= 4.55e-6
        # mode below the mean for a right-skewed sample
        assert s.mode < s.mean

    def test_mode_std_definition(self):
        s = delay_statistics([1.0, 1.0, 1.0, 2.0])
        assert s.mode == pytest.approx(1.0, abs=0.3)
        assert s.mode_std == pytest.approx(
            math.sqrt(np.mean((np.array([1, 1, 1, 2.0]) - s.mode) ** 2)), rel=0.5
        )

    def test_far_outlier_caps_the_bins(self):
        # Freedman-Diaconis would ask for about 2e10 bins; at most one a sample
        # is taken, so the 100 clustered delays share the first bin
        samples = np.concatenate((np.linspace(4.9e-6, 5.1e-6, 100), [5e3]))
        s = delay_statistics(samples)
        assert s.minimum <= s.mode < s.minimum + (s.maximum - s.minimum) / samples.size

    def test_qq_deviation_small_for_normal(self):
        rng = np.random.default_rng(8)
        s = delay_statistics(rng.normal(5e-6, 1e-6, 5000))
        assert s.qq_deviation < 0.3e-6

    def test_qq_deviation_exact_quantiles(self):
        # two points: mean 0, std sqrt(2), sample quantiles 2p - 1; the gap to
        # sqrt(2) * inverse-Phi(p) grows toward the ends of the 1-99 % range
        phi_inv_099 = 2.326347874040841
        s = delay_statistics([-1.0, 1.0])
        assert s.qq_deviation == pytest.approx(math.sqrt(2) * phi_inv_099 - 0.98, rel=1e-12)


class TestOrderStatistics:
    """The partition quantiles and median equal numpy's, bit for bit."""

    PROBS = np.concatenate(([0.0, 0.25, 0.5, 0.75], np.linspace(0.01, 0.99, 99)))

    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(
            st.floats(min_value=-1e300, max_value=1e300)  # differences stay finite
            | st.sampled_from([0.0, -0.0, 1.0, -1.0]),  # ties, and zeros of both signs
            min_size=2, max_size=60,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_match_numpy(self, samples, seed):
        x = np.array(samples)
        x = x * np.random.default_rng(seed).choice([1.0, 1e-6, 1e6])
        assert _quantiles(x, self.PROBS).tobytes() == np.quantile(x, self.PROBS).tobytes()
        assert _quantiles(x, (0.75, 0.25)).tobytes() == np.percentile(x, [75, 25]).tobytes()
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 4, 1000, 1001, 20000])
    def test_match_numpy_on_delay_samples(self, n):
        x = np.round(np.random.default_rng(n).gamma(2.0, 1e-6, n), 9)  # many ties
        assert _quantiles(x, self.PROBS).tobytes() == np.quantile(x, self.PROBS).tobytes()
        assert np.float64(_median(x)).tobytes() == np.median(x).tobytes()


class TestVarianceDecomposition:
    def test_identical_constants(self):
        d = variance_decomposition({"a": [3.0, 3.0], "b": [3.0, 3.0]})
        assert d.grand_mean == 3.0
        assert d.within_std == 0.0 and d.total_std == 0.0

    def test_hand_computable(self):
        d = variance_decomposition({"a": [0.0, 0.0], "b": [2.0, 2.0]})
        assert d.within_std == 0.0
        assert d.total_std == pytest.approx(1.0)
        assert d.grand_mean == pytest.approx(1.0)

    def test_law_of_total_variance_identity(self):
        rng = np.random.default_rng(9)
        groups = {f"g{i}": rng.normal(i, 1.0, 50) for i in range(4)}
        d = variance_decomposition(groups)
        pooled = np.concatenate(list(groups.values()))
        assert d.total_std**2 == pytest.approx(pooled.var(ddof=0), rel=1e-12)
        assert d.within_std**2 + d.between_std**2 == pytest.approx(
            d.total_std**2, rel=1e-12
        )

    def test_ordering_on_nested_data(self):
        rng = np.random.default_rng(10)
        groups = {}
        for i in range(6):
            center = rng.normal(0, 2.0)
            groups[f"g{i}"] = center + rng.normal(0, 1.0, 100)
        d = variance_decomposition(groups, {k: [0.1] * 100 for k in groups})
        assert d.ordering_ok
        assert d.estimator_std <= d.within_std <= d.total_std

    def test_single_group_rejected(self):
        with pytest.raises(ValueError):
            variance_decomposition({"only": [1.0, 2.0]})
        with pytest.raises(ValueError, match="nonempty"):
            variance_decomposition({"a": [1.0], "b": []})

    def test_one_value_group_adds_no_within_term(self):
        # with ddof=1 a group of one value has no within-group variance to average in;
        # its mean still counts between the groups
        groups = {"a": [1.0, 3.0, 4.0], "b": [2.0, 7.0], "c": [5.0]}
        d = variance_decomposition(groups, ddof=1)
        within = np.mean([np.var(groups[k], ddof=1) for k in ("a", "b")])
        between = np.var([np.mean(v) for v in groups.values()], ddof=1)
        assert d.within_std == pytest.approx(math.sqrt(within), rel=1e-12)
        assert d.between_std == pytest.approx(math.sqrt(between), rel=1e-12)
        assert d.total_std == pytest.approx(math.sqrt(within + between), rel=1e-12)
        lone = variance_decomposition({"a": [1.0], "b": [4.0]}, ddof=1)
        assert (lone.within_std, lone.total_std) == (0.0, pytest.approx(math.sqrt(4.5)))
        with pytest.raises(ValueError, match="ddof too large"):  # b's variance would divide by 0
            variance_decomposition({"a": [1.0], "b": [4.0, 5.0]}, ddof=2)

    def test_table_i_components_recovered(self):
        # nested data at the within/between scale of the ADC gain statistics
        rng = np.random.default_rng(11)
        within, between = 66.0, 116.6
        reps = []
        for _ in range(100)            :
            groups = {
                f"dev{d}": rng.normal(0, between) + rng.normal(-4459, within, 8)
                for d in range(3)
            }
            dec = variance_decomposition(groups, ddof=1)
            reps.append((dec.within_std, dec.total_std))
        reps = np.array(reps)
        total = math.hypot(within, between)
        assert np.sqrt(np.mean(reps[:, 0] ** 2)) == pytest.approx(within, rel=0.15)
        assert np.sqrt(np.mean(reps[:, 1] ** 2)) == pytest.approx(total, rel=0.15)


class TestCsvReaders:
    def test_sweep_missing_columns(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("v_in,v_out\n1,1\n")
        with pytest.raises(ConfigError, match="channel"):
            read_sweep_csv(p)

    def test_sweep_round_trip(self, tmp_path):
        p = tmp_path / "sweep.csv"
        p.write_text(
            "v_in,v_out,channel,device\n0,0.1,ch0,dev0\n1,1.1,ch0,dev0\n2,2.1,ch0,dev0\n"
        )
        records = read_sweep_csv(p)
        fit = ols_fit(records[("dev0", "ch0")])
        assert fit.gain == pytest.approx(1.0)
        assert fit.offset == pytest.approx(0.1)

    def test_counter_optional_temperature(self, tmp_path):
        p = tmp_path / "counts.csv"
        p.write_text("count,device,temperature_c\n2000,dev0,20\n1999,dev0,\n")
        cells = read_counter_csv(p)
        assert list(cells) == [(20.0, "dev0"), (None, "dev0")]
        assert cells[20.0, "dev0"].tolist() == [2000.0]
        assert cells[None, "dev0"].tolist() == [1999.0]

    def test_delay_count_or_us(self, tmp_path):
        p = tmp_path / "delay.csv"
        p.write_text("count,profile\n659,idle\n")
        assert read_delay_csv(p)["idle"][0] == pytest.approx(6.59e-6)
        q = tmp_path / "delay2.csv"
        q.write_text("delay_us,profile\n6.59,idle\n")
        assert read_delay_csv(q)["idle"][0] == pytest.approx(6.59e-6)
        r = tmp_path / "delay3.csv"
        r.write_text("profile\nidle\n")
        with pytest.raises(ConfigError):
            read_delay_csv(r)

    @pytest.mark.parametrize(
        "reader, text, column",
        [
            (read_sweep_csv, "v_in,v_out,channel,device,v_out\n0,0,a,b,0\n1,1,a,b,2\n2,2,a,b,4\n", "v_out"),
            (read_counter_csv, "count,device,temperature_c,temperature_c\n2000,dev0,20,35\n", "temperature_c"),
            (read_delay_csv, "delay_us,profile,delay_us\n6.5,idle,7\n6.5,idle,7\n", "delay_us"),
            (read_delay_csv, "count,delay_us,profile,count\n659,,idle,1\n659,,idle,1\n", "count"),
        ],
        ids=["sweep", "counter", "delay", "delay-both"],
    )
    def test_repeated_column_the_reader_uses(self, tmp_path, reader, text, column):
        # not read from either copy: a file that names a used column twice is ambiguous
        p = tmp_path / "twice.csv"
        p.write_text(text)
        with pytest.raises(ConfigError) as info:
            reader(p)
        assert str(info.value) == f"{p}: column {column!r} appears more than once in the header"

    @pytest.mark.parametrize(
        "reader, text, want",
        [
            (read_sweep_csv, "v_in,note,v_out,channel,device,note,,\n0,x,0,a,b,y,,\n1,x,1,a,b,y,,\n2,x,2,a,b,y,,\n", {("b", "a")}),
            (read_counter_csv, "count,note,device,note,,\n2000,x,dev0,y,,\n", {(None, "dev0")}),
            (read_delay_csv, "delay_us,note,profile,note,,\n6.5,x,idle,y,,\n", {"idle"}),
        ],
        ids=["sweep", "counter", "delay"],
    )
    def test_repeated_column_the_reader_ignores(self, tmp_path, reader, text, want):
        # two note columns, and the two blank names that trailing commas leave
        p = tmp_path / "twice.csv"
        p.write_text(text)
        assert set(reader(p)) == want


# ---------------------------------------------------------------------------
# The columnar readers against a row-by-row csv.DictReader reference
# ---------------------------------------------------------------------------


def _reference_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def reference_sweep(path):
    buckets = {}
    for row in _reference_rows(path):
        v_in, v_out = buckets.setdefault((row["device"], row["channel"]), ([], []))
        v_in.append(float(row["v_in"]))
        v_out.append(float(row["v_out"]))
    return {key: (np.asarray(vi), np.asarray(vo)) for key, (vi, vo) in buckets.items()}


def reference_counter(path):
    cells = {}
    for row in _reference_rows(path):
        temp = row.get("temperature_c")
        key = (float(temp) if temp not in (None, "") else None, row["device"])
        cells.setdefault(key, []).append(float(row["count"]))
    return {key: np.asarray(counts) for key, counts in cells.items()}


def reference_delay(path, known_base):
    buckets = {}
    for row in _reference_rows(path):
        if row.get("delay_us") not in (None, ""):
            delay = float(row["delay_us"]) * 1e-6
        else:
            delay = int(float(row["count"])) / known_base
        buckets.setdefault(row["profile"], []).append(delay)
    return {key: np.asarray(v) for key, v in buckets.items()}


# labels that need quoting, keep padding, are empty, non-ASCII, or share a long
# prefix; the last four are wider than the first parse's 8-byte cells, and two
# of them agree in those 8 bytes
LABELS = [
    "dev0", "dev1", "", " pad ", "a,b", 'say "hi"', "é",
    "board-long-name-0", "board-long-name-1", "abcdefgh1", "abcdefgh2",
]
NUMBERS = st.floats(-1e3, 1e3, allow_nan=False).map(repr) | st.integers(-999, 999).map(str)
COUNTS = st.integers(1, 10**7).map(str) | st.floats(0.5, 1e7).map(repr)
# one temperature spelled several ways, a negative zero and blank cells
TEMPERATURES = ["", "20", "20.0", "2e1", " 35 ", "-0", "0", "-5.5"]


@st.composite
def csv_text(draw, columns, rows):
    """``rows`` (dicts by column) as CSV text: the columns plus an unused one in
    random order, random quoting, LF or CRLF line ends and blank lines."""
    header = draw(st.permutations(columns + ["note"]))
    eol = draw(st.sampled_from(["\n", "\r\n"]))

    def cell(text):
        if "," in text or '"' in text or draw(st.booleans()):
            return '"' + text.replace('"', '""') + '"'
        return text

    lines = [",".join(cell(name) for name in header)]
    for row in rows:
        lines.extend([""] * draw(st.integers(0, 1)))
        lines.append(",".join(cell(row.get(name, "n")) for name in header))
    return eol.join(lines) + eol


def assert_same_groups(got: dict, want: dict):
    # repr tells a -0.0 key from 0.0
    assert [repr(k) for k in got] == [repr(k) for k in want]
    for g, w in zip(got.values(), want.values()):
        assert g.dtype == w.dtype == np.float64
        assert g.tobytes() == w.tobytes()


FILE_SETTINGS = settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
# the readers find groups from runs of equal labels: one run per group, a
# group in several runs (A A B B A), or rows in any order
ORDERS = st.sampled_from(["runs", "split", "permuted"])


def arrange(data, order: str, rows: list, key) -> list:
    """``rows`` in one run per ``key`` ("runs"), in two parts of such runs ("split"), or permuted."""
    if order == "permuted":
        return data.draw(st.permutations(rows))
    first: dict = {}
    for row in rows:
        first.setdefault(key(row), len(first))
    # a "split" row goes to the second part, where its group starts a second run
    part = [order == "split" and data.draw(st.booleans()) for _ in rows]
    rank = [(part[i], first[key(row)]) for i, row in enumerate(rows)]
    return [rows[i] for i in sorted(range(len(rows)), key=rank.__getitem__)]


class TestColumnarReaders:
    @FILE_SETTINGS
    @given(data=st.data(), order=ORDERS)
    def test_sweep_matches_reference(self, tmp_path, data, order):
        keys = data.draw(
            st.lists(
                st.tuples(st.sampled_from(LABELS), st.sampled_from(["ch0", "ch1", "channel-7"])),
                min_size=1, max_size=4, unique=True,
            )
        )
        rows = [
            {"device": d, "channel": c, "v_in": data.draw(NUMBERS), "v_out": data.draw(NUMBERS)}
            for d, c in keys
            for _ in range(data.draw(st.integers(3, 5)))
        ]
        rows = arrange(data, order, rows, lambda row: (row["device"], row["channel"]))
        path = tmp_path / "sweep.csv"
        path.write_text(data.draw(csv_text(["v_in", "v_out", "channel", "device"], rows)), newline="")
        got = read_sweep_csv(path)
        want = reference_sweep(path)
        assert_same_groups(
            {k: r.v_in for k, r in got.items()}, {k: vi for k, (vi, _) in want.items()}
        )
        assert_same_groups(
            {k: r.v_out for k, r in got.items()}, {k: vo for k, (_, vo) in want.items()}
        )

    @FILE_SETTINGS
    @given(data=st.data(), with_temperature=st.booleans(), order=ORDERS)
    def test_counter_matches_reference(self, tmp_path, data, with_temperature, order):
        columns = ["count", "device"] + (["temperature_c"] if with_temperature else [])
        rows = data.draw(
            st.lists(
                st.fixed_dictionaries(
                    {
                        "count": COUNTS,
                        "device": st.sampled_from(LABELS),
                        "temperature_c": st.sampled_from(TEMPERATURES),
                    }
                ),
                min_size=1, max_size=30,
            )
        )
        rows = arrange(data, order, rows, lambda row: (row["device"], row["temperature_c"]))
        path = tmp_path / "counter.csv"
        path.write_text(data.draw(csv_text(columns, rows)), newline="")
        assert_same_groups(read_counter_csv(path), reference_counter(path))

    @FILE_SETTINGS
    @given(
        data=st.data(),
        columns=st.sampled_from([["delay_us"], ["count"], ["delay_us", "count"]]),
        order=ORDERS,
    )
    def test_delay_matches_reference(self, tmp_path, data, columns, order):
        counts = st.integers(0, 10**6).map(str) | st.floats(0, 1e6).map(repr) | st.just("-0")
        rows = []
        for _ in range(data.draw(st.integers(1, 30))):
            row = {"profile": data.draw(st.sampled_from(LABELS))}
            if "delay_us" in columns:
                # with both columns, a blank delay_us falls back to the count
                blank = "count" in columns and data.draw(st.booleans())
                row["delay_us"] = "" if blank else data.draw(NUMBERS)
            if "count" in columns:
                row["count"] = data.draw(counts)
            rows.append(row)
        rows = arrange(data, order, rows, lambda row: row["profile"])
        path = tmp_path / "delay.csv"
        path.write_text(data.draw(csv_text(["profile"] + columns, rows)), newline="")
        assert_same_groups(read_delay_csv(path, 1e8), reference_delay(path, 1e8))


# labels around the 8-byte cell the readers parse first: 7, 8 and 9 bytes, 8
# bytes in 7 characters, and two 9-byte labels that share their first 8 bytes
WIDE_LABELS = ["abcdefg", "abcdefgh", "abcdefghi", "\u00e4bcdefg", "abcdefgh1", "abcdefgh2"]
# a quoted label spanning lines, longer than any line of its file
SPANNING_LABEL = "x" * 30 + "\n" + "y" * 30


def write_rows(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


class TestLabelWidths:
    @pytest.mark.parametrize("labels", [WIDE_LABELS, ["abcdefg", "abcdefgh"], ["abcdefgh1", "abcdefgh2"]])
    def test_sweep(self, tmp_path, labels):
        rows = [(v, v + i, label, labels[-1 - i]) for v in range(3) for i, label in enumerate(labels)]
        path = tmp_path / "sweep.csv"
        write_rows(path, ["v_in", "v_out", "channel", "device"], rows)
        got = read_sweep_csv(path)
        want = reference_sweep(path)
        assert len(got) == len(labels)
        assert_same_groups({k: r.v_in for k, r in got.items()}, {k: vi for k, (vi, _) in want.items()})
        assert_same_groups({k: r.v_out for k, r in got.items()}, {k: vo for k, (_, vo) in want.items()})

    def test_counter(self, tmp_path):
        rows = [(2000 + i, label, t) for t in ("20", "20.0", "") for i, label in enumerate(WIDE_LABELS)]
        path = tmp_path / "counter.csv"
        write_rows(path, ["count", "device", "temperature_c"], rows)
        got = read_counter_csv(path)
        assert len(got) == 2 * len(WIDE_LABELS)
        assert_same_groups(got, reference_counter(path))

    @pytest.mark.parametrize("columns", [["delay_us"], ["delay_us", "count"]])
    def test_delay(self, tmp_path, columns):
        # with both columns the numbers are parsed as text, and 10-byte cells
        # such as 1234.56789 take the wider cells too
        rows = []
        for i, label in enumerate(WIDE_LABELS * 2):
            delay_us = "1234.56789" if i % 2 or columns == ["delay_us"] else ""
            rows.append([label, delay_us, str(600 + i)][: len(columns) + 1])
        path = tmp_path / "delay.csv"
        write_rows(path, ["profile", *columns], rows)
        got = read_delay_csv(path, 1e8)
        assert list(got) == WIDE_LABELS
        assert_same_groups(got, reference_delay(path, 1e8))

    def test_label_spanning_lines(self, tmp_path):
        rows = [(v, v, label, "dev0") for v in range(3) for label in (SPANNING_LABEL, "ch0")]
        path = tmp_path / "sweep.csv"
        write_rows(path, ["v_in", "v_out", "channel", "device"], rows)
        assert max(map(len, path.read_text().splitlines())) < len(SPANNING_LABEL)
        got = read_sweep_csv(path)
        assert list(got) == [("dev0", SPANNING_LABEL), ("dev0", "ch0")]
        assert_same_groups(
            {k: r.v_in for k, r in got.items()}, {k: vi for k, (vi, _) in reference_sweep(path).items()}
        )

    def test_quoted_crlf_label(self, tmp_path):
        # the label's own CRLF survives, as csv.DictReader keeps it
        rows = [(v, v, label, "dev0") for v in range(3) for label in ("x\r\ny", "x\ny", "ch0")]
        path = tmp_path / "sweep.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\r\n").writerows([["v_in", "v_out", "channel", "device"], *rows])
        got = read_sweep_csv(path)
        want = reference_sweep(path)
        assert list(want) == [("dev0", "x\r\ny"), ("dev0", "x\ny"), ("dev0", "ch0")]
        assert_same_groups({k: r.v_in for k, r in got.items()}, {k: vi for k, (vi, _) in want.items()})
        assert_same_groups({k: r.v_out for k, r in got.items()}, {k: vo for k, (_, vo) in want.items()})


# Each reader's header, and its rows as lines of text: three in one group and
# three in a group labelled ``label``.
ROW_BOUND_FILES = {
    "sweep": (
        "v_in,v_out,channel,device",
        lambda label: [f"{i},{i + 0.5},ch0,dev0" for i in range(3)]
        + [f"{i},{i + 0.25},{label},dev0" for i in range(3)],
    ),
    "counter": (
        "count,device",
        lambda label: [f"{2000 + i},dev0" for i in range(3)] + [f"{1999 - i},{label}" for i in range(3)],
    ),
    "delay": (
        "delay_us,profile",
        lambda label: [f"{6 + 0.5 * i},idle" for i in range(3)] + [f"{4 + i},{label}" for i in range(3)],
    ),
}
# the file's lines joined as each case writes them, and the second group's label
LINE_END_CASES = {
    "lf": (lambda lines: "\n".join(lines) + "\n", "ch1"),
    "no-final-line-break": (lambda lines: "\n".join(lines), "ch1"),
    "crlf": (lambda lines: "\r\n".join(lines) + "\r\n", "ch1"),
    "lone-cr": (lambda lines: "\r".join(lines) + "\r", "ch1"),
    "blank-lines": (lambda lines: "\n\n".join(lines) + "\n\n", "ch1"),
    "spanning-label": (lambda lines: "\n".join(lines), '"x\ny"'),
}


# A quoted header name spanning one or two line breaks, each ending as the file's lines
# do.  The name holds a copy of the first data row after each break: a reader that
# skipped one physical line would take the copy for data.
HEADER_LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "lone-cr": "\r"}


def spanning_header(header: str, first_row: str, breaks: int, end: str) -> str:
    return header + ',"a' + (end + first_row) * breaks + '"'


def read_with_reference(kind: str, path):
    """What ``kind``'s reader and its ``csv.DictReader`` reference give for ``path``."""
    if kind == "sweep":
        got = {k: r.v_in for k, r in read_sweep_csv(path).items()}
        want = {k: vi for k, (vi, _) in reference_sweep(path).items()}
        return got, want
    if kind == "counter":
        return read_counter_csv(path), reference_counter(path)
    return read_delay_csv(path, 1e8), reference_delay(path, 1e8)


class TestRowBound:
    # np.loadtxt reads at most _read_header's bound of rows: a bound one short
    # drops the last row of a file without a final line break, without a word
    @pytest.mark.parametrize("case", LINE_END_CASES)
    @pytest.mark.parametrize("kind", ROW_BOUND_FILES)
    def test_every_row_is_read(self, tmp_path, kind, case):
        header, rows = ROW_BOUND_FILES[kind]
        join, label = LINE_END_CASES[case]
        path = tmp_path / f"{kind}.csv"
        path.write_text(join([header, *rows(label)]), newline="")
        got, want = read_with_reference(kind, path)
        assert sum(v.size for v in want.values()) == 6
        assert_same_groups(got, want)

    @pytest.mark.parametrize(
        "case, bound", [("lf", 7), ("no-final-line-break", 6), ("crlf", 7), ("lone-cr", 7)]
    )
    def test_bound_is_the_lines_after_the_header(self, tmp_path, case, bound):
        # a CRLF counted as two line breaks would double the table loadtxt allocates
        header, rows = ROW_BOUND_FILES["sweep"]
        join, label = LINE_END_CASES[case]
        path = tmp_path / "sweep.csv"
        path.write_text(join([header, *rows(label)]), newline="")
        assert _read_header(path, [])[2:] == (1, bound)

    @pytest.mark.parametrize("end", HEADER_LINE_ENDS)
    @pytest.mark.parametrize("breaks", [1, 2])
    @pytest.mark.parametrize("kind", ROW_BOUND_FILES)
    def test_header_spanning_lines_is_skipped_whole(self, tmp_path, kind, breaks, end):
        # np.loadtxt skips the header's lines, not one physical line
        header, rows = ROW_BOUND_FILES[kind]
        lines, sep = rows("ch1"), HEADER_LINE_ENDS[end]
        path = tmp_path / f"{kind}.csv"
        path.write_text(sep.join([spanning_header(header, lines[0], breaks, sep), *lines]) + sep, newline="")
        got, want = read_with_reference(kind, path)
        assert sum(v.size for v in want.values()) == 6
        assert_same_groups(got, want)
        # the header's lines, then the six rows' line breaks plus one
        assert _read_header(path, [])[2:] == (1 + breaks, 7)

    @pytest.mark.parametrize("end", HEADER_LINE_ENDS)
    @pytest.mark.parametrize("kind", ROW_BOUND_FILES)
    def test_error_after_a_spanning_header_names_its_line(self, tmp_path, kind, end):
        # the header takes lines 1 to 3, so the first data row is line 4
        bad_row, message = {
            "sweep": ("inf,0,ch0,dev0", "v_in must be a finite number, got inf"),
            "counter": ("inf,dev0", "count must be a finite number > 0, got inf"),
            "delay": ("inf,idle", "delay_us must be a finite number, got inf"),
        }[kind]
        header, rows = ROW_BOUND_FILES[kind]
        lines, sep = rows("ch1"), HEADER_LINE_ENDS[end]
        path = tmp_path / f"{kind}.csv"
        path.write_text(sep.join([spanning_header(header, lines[0], 2, sep), bad_row, *lines]) + sep, newline="")
        with pytest.raises(ConfigError) as excinfo:
            read_with_reference(kind, path)
        assert str(excinfo.value) == f"{path}: line 4: {message}"


class TestMemory:
    @staticmethod
    def sweep_peak(path, device, channel) -> float:
        """Traced peak of ``read_sweep_csv`` over the float64 voltages it returns."""
        # 4 devices x 4 channels x 6250 points, about 3 MB of text
        v = np.linspace(-9.9, 9.9, 6250)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("v_in,v_out,channel,device\n")
            for d in range(4):
                for c in range(4):
                    fmt = f"%.6f,%.9f,{channel(c)},{device(d)}"
                    np.savetxt(fh, np.column_stack([v, 1.001 * v]), fmt=fmt, encoding="utf-8")
        tracemalloc.start()
        try:
            records = read_sweep_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        payload = sum(r.v_in.nbytes + r.v_out.nbytes for r in records.values())
        assert len(records) == 16 and payload == 16 * 16 * v.size
        return peak / payload

    def test_sweep_peak_is_bounded_by_the_voltages(self, tmp_path):
        # a list of one dict per row peaked at 31x the float64 voltages,
        # float and unsized-str columns at 9.2x, one structured pass grouped by
        # sorting at 6.2x; grouped by runs, whose records are slices of the
        # parsed table, it peaks at 2.6x
        ratio = self.sweep_peak(tmp_path / "sweep.csv", lambda d: f"D{d}", lambda c: f"ch{c}")
        assert ratio <= 3.5

    def test_sweep_peak_with_wide_labels(self, tmp_path):
        # 19- and 9-byte labels, not ASCII, take the wider second pass:
        # 10.6x the voltages grouped by runs, 16.3x grouped by sorting, where
        # unsized-str columns peaked at 20.1x
        ratio = self.sweep_peak(
            tmp_path / "sweep.csv", lambda d: f"Ger\u00e4t-\u00dcbersicht-{d}", lambda c: f"Kanal-\u00e4{c}"
        )
        assert ratio <= 12
