import cmath
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbcpmu.blocks import (
    AafModel,
    ChainModel,
    GaussianTerm,
    Phasor,
    PllDelayModel,
    TimebaseModel,
    aaf_cutoff_model,
    aaf_response,
    chain_from_json,
    chain_to_json,
    expected_response,
    identity_chain,
    paper_profile,
    pll_sample,
    save_profile,
    wrap_phase,
)
from sbcpmu.errors import ConfigError, ModelParameterError
from sbcpmu.mc import McScenario, run_trial, tve

OMEGA_50 = 2 * math.pi * 50


def one_block(t=0.0, temperature=None, **block):
    """``expected_response`` at 50 Hz of a chain holding only ``block``: that block's terms."""
    return expected_response(ChainModel(**block), OMEGA_50, t, temperature)


class TestAaf:
    def test_cutoff_100x_line(self):
        # cutoff two decades above 50 Hz: omega*tau = 0.01
        model = aaf_cutoff_model(5000.0)
        resp = aaf_response(model, OMEGA_50)
        assert 1 - math.exp(resp.log_magnitude) == pytest.approx(50e-6, rel=0.01)
        assert resp.phase == pytest.approx(-10.0e-3, rel=0.001)

    def test_low_frequency_limit(self):
        model = aaf_cutoff_model(5000.0, resistor_tolerance=0.01, capacitor_tolerance=0.1)
        resp = aaf_response(model, 1e-6)
        assert math.exp(resp.log_magnitude) == pytest.approx(1.0)
        assert resp.phase == pytest.approx(0.0, abs=1e-8)
        assert resp.log_magnitude_std < 1e-15
        assert resp.phase_std < 1e-9

    def test_standard_tolerances(self):
        # 10% capacitor, 1% resistor, uniform conversion
        model = aaf_cutoff_model(5000.0, resistor_tolerance=0.01, capacitor_tolerance=0.10)
        resp = aaf_response(model, OMEGA_50)
        assert resp.log_magnitude_std == pytest.approx(5.8e-6, rel=0.02)
        assert resp.phase_std == pytest.approx(0.58e-3, rel=0.02)

    def test_uncertainty_matches_finite_difference(self):
        # perturbing tau by u_tau must agree with the analytic sensitivities
        for wt in (0.001, 0.01, 0.1):
            model = AafModel(1e3, wt / (OMEGA_50 * 1e3), 0.01, 0.1)
            resp = aaf_response(model, OMEGA_50)
            u = model.tau_std
            h = lambda tau: 1 / math.sqrt(1 + (OMEGA_50 * tau) ** 2)
            dh = abs(h(model.tau + u) - h(model.tau - u)) / 2
            dp = abs(math.atan(OMEGA_50 * (model.tau + u)) - math.atan(OMEGA_50 * (model.tau - u))) / 2
            assert resp.log_magnitude_std * math.exp(resp.log_magnitude) == pytest.approx(dh, rel=1e-2)
            assert resp.phase_std == pytest.approx(dp, rel=1e-2)

    def test_invalid_model(self):
        with pytest.raises(ValueError):
            AafModel(-1.0, 1e-6)
        with pytest.raises(ValueError):
            AafModel(1e3, 1e-6, resistor_tolerance=1.5)


class TestAdc:
    @pytest.mark.parametrize(
        "fields",
        [
            {"adc_bits": 0}, {"adc_bits": 54}, {"adc_vref_v": 0.0}, {"adc_vref_v": -1.0},
            {"adc_gain_within_device_ppm": -5.0},
        ],
    )
    def test_chain_rejects_infeasible_converter(self, fields):
        # float64 holds the code grid exactly up to 2**53 codes; a gain std is >= 0
        with pytest.raises(ModelParameterError):
            ChainModel(**{"adc_bits": 16, **fields})


class TestTimebase:
    def make(self):
        return TimebaseModel(
            overall_mean_ppm=-16.02,
            overall_std_ppm=3.67,
            e_r_by_temperature=((0.0, -19.9, 2.72), (50.0, -12.5, 1.40)),
        )

    def test_phase_ramp(self):
        resp = one_block(1.0, timebase=self.make())
        assert resp.log_magnitude == 0.0
        assert resp.phase == pytest.approx(-5.03e-3, rel=0.01)
        assert tve(np.exp(1j * resp.phase), 1.0) == pytest.approx(0.50e-2, abs=1e-4)

    def test_band_from_std(self):
        resp = one_block(1.0, timebase=self.make())
        assert tve(np.exp(1j * resp.phase_std), 1.0) == pytest.approx(0.115e-2, abs=5e-5)

    def test_reset_instant(self):
        resp = one_block(0.0, timebase=self.make())
        assert resp.phase == 0.0 and resp.phase_std == 0.0

    def test_band_at_temperature_follows_interpolated_std(self):
        # the Monte Carlo draws e_r with the std interpolated at 35 C (1.675
        # ppm between the 30 and 40 C rows), not the all-conditions 3.67 ppm
        tb = paper_profile().timebase
        resp = one_block(1.0, 35.0, timebase=tb)
        assert tb.std_ppm(35.0) == pytest.approx(1.675)
        assert resp.phase_std == pytest.approx(OMEGA_50 * 1e-6 * tb.std_ppm(35.0), rel=1e-12)
        assert resp.phase == pytest.approx(OMEGA_50 * 1e-6 * tb.mean_ppm(35.0), rel=1e-12)

    def test_temperature_interpolation(self):
        m = self.make()
        assert m.mean_ppm(0.0) == -19.9
        assert m.mean_ppm(25.0) == pytest.approx((-19.9 - 12.5) / 2)
        assert m.mean_ppm(50.0) == -12.5
        # not extrapolated: np.interp would clamp to the nearest grid end
        off_grid = r"is off timebase\.by_temperature_c \[0\.0, 50\.0\]$"
        for temperature in (-40.0, 90.0, math.nan):
            for stat in (m.mean_ppm, m.std_ppm):
                with pytest.raises(ConfigError, match=off_grid):
                    stat(temperature)

    def test_temperature_without_grid_raises(self):
        m = TimebaseModel(overall_mean_ppm=-16.02, overall_std_ppm=3.67)
        assert m.mean_ppm() == -16.02 and m.std_ppm() == 3.67
        message = r"^temperature_c: 20\.0 is off timebase\.by_temperature_c \(empty\)$"
        with pytest.raises(ConfigError, match=message):
            m.mean_ppm(20.0)

    def test_bad_grid(self):
        with pytest.raises(ModelParameterError):
            TimebaseModel(0.0, 0.0, e_r_by_temperature=((20.0, 0, 0), (10.0, 0, 0)))


# one delay model of each family, and the truncated normal's mirrored cases
PLL_MODELS = {
    "shifted-gamma": paper_profile().pll,  # the bundled delay: max is infinite
    "truncated-normal": PllDelayModel(
        family="truncated-normal", min=4e-6, max=9e-6, mean=6e-6, std=1e-6
    ),
    "truncated-normal-above-mean": PllDelayModel(
        family="truncated-normal", min=4e-6, max=9e-6, mean=2e-6, std=3e-6
    ),
    "truncated-normal-one-sided": PllDelayModel(
        family="truncated-normal", min=10e-6, mean=6e-6, std=1e-6
    ),
    "empirical-histogram": PllDelayModel(
        family="empirical-histogram", histogram=((4e-6, 5e-6, 6e-6, 8e-6), (3, 5, 2))
    ),
}


# the first three scalar draws of each model from default_rng(2024): a change
# to the random stream (or to how a draw is computed from it) shows here
PINNED_DRAWS = {
    "shifted-gamma": [-7.215512372012981e-06, -7.11337764769802e-06, -8.821563651901446e-06],
    "truncated-normal": [6.474123037800256e-06, 5.267422691585572e-06, 5.545527414521475e-06],
    "truncated-normal-above-mean": [
        4.817481283897862e-06, 6.618855542821341e-06, 6.118303172747848e-06,
    ],
    "truncated-normal-one-sided": [
        1.0091772587601549e-05, 1.0350612729597123e-05, 1.0269382811327101e-05,
    ],
    "empirical-histogram": [5.214323201238258e-06, 5.7994660967748335e-06, 6.284463630560104e-06],
}


class TestPllDelay:
    @pytest.mark.parametrize("name", PLL_MODELS)
    def test_scalar_draws_are_pinned(self, name):
        rng = np.random.default_rng(2024)
        assert [float(pll_sample(PLL_MODELS[name], rng)) for _ in range(3)] == PINNED_DRAWS[name]

    @pytest.mark.parametrize("name", PLL_MODELS)
    def test_drawn_moments_match_draws(self, name):
        model = PLL_MODELS[name]
        n = 100_000
        rng = np.random.default_rng(3)
        draws = np.array([pll_sample(model, rng) for _ in range(n)])
        mean, std = model.drawn_moments
        centered = draws - draws.mean()
        var = np.mean(centered**2)
        se_mean = math.sqrt(var / n)
        se_std = math.sqrt((np.mean(centered**4) - var**2) / n) / (2 * math.sqrt(var))
        assert abs(draws.mean() - mean) < 4 * se_mean
        assert abs(draws.std(ddof=1) - std) < 4 * se_std

    def test_histogram_edges_must_increase(self):
        with pytest.raises(
            ModelParameterError,
            match=r"^histogram bin_edges_us must increase strictly, got 8 / 6 / 4 / 5 µs$",
        ):
            PllDelayModel(
                family="empirical-histogram", histogram=((8e-6, 6e-6, 4e-6, 5e-6), (3, 5, 2))
            )

    @pytest.mark.parametrize(
        "histogram",
        [
            PLL_MODELS["empirical-histogram"].histogram,
            ((4e-6, 5e-6), (7,)),  # one bin
            ((1e-6, 2e-6, 3e-6, 5e-6, 8e-6), (0, 4, 0, 1)),  # empty bins, first and inner
            (tuple(np.linspace(4e-6, 15e-6, 41)), tuple(range(40, 0, -1))),  # 40 bins
        ],
    )
    @pytest.mark.parametrize("seed", [0, 7, 2024])
    def test_histogram_draws_equal_rng_choice(self, histogram, seed):
        def reference(rng):
            # reference: the bin as Generator.choice draws it from p, then a uniform point in it
            edges, counts = np.asarray(histogram[0]), np.asarray(histogram[1], dtype=float)
            idx = rng.choice(counts.size, p=counts / counts.sum())
            lo, hi = edges[idx], edges[idx + 1]
            return lo + rng.uniform(0.0, 1.0) * (hi - lo)

        model = PllDelayModel(family="empirical-histogram", histogram=histogram)
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = [pll_sample(model, got_rng) for _ in range(1000)]
        want = [reference(want_rng) for _ in range(1000)]
        assert [type(x) for x in got] == [type(x) for x in want]
        assert np.array(got).tobytes() == np.array(want).tobytes()

    def test_degenerate(self):
        m = PllDelayModel(min=5e-6, max=5e-6, mean=5e-6, std=0.0)
        rng = np.random.default_rng(0)
        assert pll_sample(m, rng) == 5e-6
        assert [pll_sample(m, rng) for _ in range(10)] == [5e-6] * 10

    def test_idle_profile_statistics(self):
        m = PllDelayModel(min=4.55e-6, max=14.65e-6, mean=6.59e-6, std=1.07e-6)
        rng = np.random.default_rng(1)
        draws = np.array([pll_sample(m, rng) for _ in range(100_000)])
        assert np.all(draws >= m.min)
        assert draws.mean() == pytest.approx(6.59e-6, abs=3 * 1.07e-6 / math.sqrt(1e5))
        assert draws.std(ddof=1) == pytest.approx(1.07e-6, rel=0.05)

    def test_empirical_histogram(self):
        m = PllDelayModel(
            family="empirical-histogram",
            histogram=((1e-6, 2e-6, 3e-6), (1, 3)),
        )
        rng = np.random.default_rng(2)
        draws = np.array([pll_sample(m, rng) for _ in range(20_000)])
        assert np.all((draws >= 1e-6) & (draws <= 3e-6))
        assert np.mean(draws > 2e-6) == pytest.approx(0.75, abs=0.02)

    def test_infeasible_rejected(self):
        with pytest.raises(ModelParameterError):
            PllDelayModel(min=5e-6, mean=1e-6, std=1e-6)
        with pytest.raises(ModelParameterError):
            PllDelayModel(family="weibull")
        with pytest.raises(ModelParameterError, match="malformed histogram"):
            PllDelayModel(family="empirical-histogram", histogram=((1e-6, 2e-6, 3e-6), (-1, 3)))
        with pytest.raises(ModelParameterError):
            PllDelayModel(family="truncated-normal", min=5e-6, max=5e-6, mean=1e-6, std=1e-6)

    @pytest.mark.parametrize(
        "kw, message",
        [
            (
                dict(family="truncated-normal", min=5e-6, max=5e-6, mean=1e-6, std=1e-6),
                "need min < max, got 5 / 5 µs",
            ),
            (dict(min=5e-6, max=9e-6, mean=1e-6), "need min <= mean <= max, got 5 / 1 / 9 µs"),
            (dict(min=100e-6, mean=99e-6), "need min <= mean <= max, got 100 / 99 / inf µs"),
            (
                dict(min=100e-6, mean=100e-6, std=1e-6),
                "shifted-gamma needs mean > min when std > 0, got 100 / 100 µs",
            ),
        ],
        ids=["min-max", "mean-outside", "mean-below-min", "shifted-gamma"],
    )
    def test_messages_give_microseconds(self, kw, message):
        # as the profile writes them, without the seconds' float noise
        with pytest.raises(ModelParameterError) as info:
            PllDelayModel(**kw)
        assert str(info.value) == message

    @staticmethod
    def fixed_delay(delay):
        return one_block(pll=PllDelayModel(min=delay, mean=delay))

    def test_response_worst_delay(self):
        resp = self.fixed_delay(20e-6)
        assert resp.log_magnitude == 0.0
        assert tve(np.exp(1j * resp.phase), 1.0) == pytest.approx(0.628e-2, abs=1e-4)

    def test_response_min_delay(self):
        resp = self.fixed_delay(3.1e-6)
        assert resp.phase == pytest.approx(0.974e-3, rel=0.01)
        assert tve(np.exp(1j * resp.phase), 1.0) == pytest.approx(0.097e-2, abs=1e-5)

    def test_response_mean_delay(self):
        assert self.fixed_delay(7.93e-6).phase == pytest.approx(2.491e-3, rel=0.001)


def truncnorm_moments(mean, std, lo, hi):
    """Analytic mean and std of the normal(mean, std) truncated to [lo, hi]."""

    def pdf(x):
        return math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)

    a, b = (lo - mean) / std, (hi - mean) / std
    # Phi(b) - Phi(a) through erfc, which keeps the upper tail's precision
    mass = 0.5 * (math.erfc(a / math.sqrt(2)) - math.erfc(b / math.sqrt(2)))
    d = (pdf(a) - pdf(b)) / mass
    b_pdf_b = b * pdf(b) if math.isfinite(b) else 0.0
    var = 1.0 + (a * pdf(a) - b_pdf_b) / mass - d * d
    return mean + std * d, std * math.sqrt(var)


class TestTruncatedNormal:
    N = 200_000

    @pytest.mark.parametrize(
        "lo, hi",
        [
            (4.0e-6, 9.0e-6),  # two-sided around the mean
            (10.0e-6, math.inf),  # one-sided, min 4 std above the mean
            (16.0e-6, math.inf),  # min 10 std above: 1 - Phi(10) rounds to 0
        ],
    )
    def test_support_and_moments(self, lo, hi):
        m = PllDelayModel(family="truncated-normal", min=lo, max=hi, mean=6.0e-6, std=1.0e-6)
        rng = np.random.default_rng(11)
        draws = np.array([pll_sample(m, rng) for _ in range(self.N)])
        assert draws.shape == (self.N,)
        assert np.all((draws >= lo) & (draws <= hi))
        mean, std = truncnorm_moments(m.mean, m.std, lo, hi)
        se_mean = std / math.sqrt(self.N)
        assert abs(draws.mean() - mean) < 5 * se_mean
        centered = draws - draws.mean()
        se_var = math.sqrt((np.mean(centered**4) - np.mean(centered**2) ** 2) / self.N)
        assert abs(draws.std(ddof=1) - std) < 5 * se_var / (2 * std)

    def test_scalar_draw_is_float(self):
        m = PllDelayModel(family="truncated-normal", min=4.0e-6, max=9.0e-6, mean=6.0e-6, std=1e-6)
        x = pll_sample(m, np.random.default_rng(0))
        assert type(x) is float
        assert 4.0e-6 <= x <= 9.0e-6

    def test_seeded_stream_repeats(self):
        m = PllDelayModel(family="truncated-normal", min=2.0e-6, mean=6.0e-6, std=3e-6)

        def draws():
            rng = np.random.default_rng(5)
            return [pll_sample(m, rng) for _ in range(1000)]

        assert draws() == draws()

    def test_no_representable_mass(self):
        # rejected when built, before any draw
        with pytest.raises(ModelParameterError, match="no representable mass"):
            PllDelayModel(family="truncated-normal", min=1.0, max=2.0, mean=0.0, std=1e-3)
        # mirrored: the same support below the mean
        with pytest.raises(ModelParameterError, match="no representable mass"):
            PllDelayModel(family="truncated-normal", min=-2.0, max=-1.0, mean=0.0, std=1e-3)

    def test_no_representable_mass_in_profile(self):
        profile = chain_to_json(paper_profile())
        profile["pll"]["delay"] = {
            "family": "truncated-normal", "min_us": 100, "max_us": 101, "mean_us": 0, "std_us": 1,
        }
        with pytest.raises(ConfigError, match=r"^pll\.delay: truncated-normal support .* "
                           r"holds no representable mass"):
            chain_from_json(profile)

    def test_unordered_histogram_in_profile(self):
        profile = chain_to_json(paper_profile())
        profile["pll"]["delay"] = {
            "family": "empirical-histogram",
            "histogram": {"bin_edges_us": [8, 6, 4, 5], "counts": [3, 5, 2]},
        }
        with pytest.raises(
            ConfigError, match=r"^pll\.delay: histogram bin_edges_us must increase strictly"
        ):
            chain_from_json(profile)


class TestExpectedResponse:
    @pytest.mark.parametrize("name", PLL_MODELS)
    def test_pll_terms_are_the_drawn_moments(self, name):
        # the model's delay is the mean and std of what pll_sample draws
        chain = replace(paper_profile(), pll=PLL_MODELS[name])
        r = expected_response(chain, OMEGA_50, [0.0])
        mean, std = chain.pll.drawn_moments
        assert r.phase[0] == pytest.approx(1e-6 * chain.aaf_phase_urad.mean + OMEGA_50 * mean)
        assert r.phase_std[0] == pytest.approx(1e-6 * chain.aaf_phase_urad.std + OMEGA_50 * std)

    def test_negative_time_raises(self):
        # t is the elapsed time since the PPS reset: the ramp has no negative side
        with pytest.raises(ValueError, match=r"^t must be >= 0 \(elapsed time since the PPS reset\)$"):
            expected_response(paper_profile(), OMEGA_50, [0.5, -1e-3])

    @pytest.mark.parametrize("temperature", [None, 35.0])
    def test_sums_the_block_responses(self, temperature):
        # log-magnitudes and phases add; the stds add with the same sign.  A
        # block's terms are the response of a chain holding only that block.
        chain = paper_profile()
        t = np.array([0.0, 0.25, 1.0])
        r = expected_response(chain, OMEGA_50, t, temperature)
        blocks = (
            one_block(t, aaf_gain_ppm=chain.aaf_gain_ppm, aaf_phase_urad=chain.aaf_phase_urad),
            one_block(t, adc_gain_ppm=chain.adc_gain_ppm),
            one_block(t, temperature, timebase=chain.timebase),
            one_block(t, pll=chain.pll),
        )
        for term in r._fields:
            total = sum(getattr(b, term) for b in blocks)
            assert getattr(r, term) == pytest.approx(total), term


def one_trial(chain, phasor=Phasor(10.0, 0.0, 50.0)):
    """``run_trial`` on a chain with nothing random: every block at its mean."""
    return run_trial(McScenario(chain=chain, phasor=phasor, trials=1), 0)


class TestAcquire:
    def test_aaf_only_envelope_phase(self):
        chain = ChainModel(
            aaf_gain_ppm=GaussianTerm(-50.0), aaf_phase_urad=GaussianTerm(-10000.0)
        )
        env = one_trial(chain)[2]
        assert np.mean(np.angle(env)) == pytest.approx(-10e-3, rel=0.01)

    def test_forward_matches_analytic_tve(self):
        # fixed-parameter chain: measured TVE equals the TVE of the expected response
        chain = ChainModel(
            aaf_gain_ppm=GaussianTerm(-9.81),
            aaf_phase_urad=GaussianTerm(-4429.0),
            adc_gain_ppm=GaussianTerm(-4459.0),
            adc_offset_uv=GaussianTerm(-269.0),
            adc_bits=16,
            timebase=TimebaseModel(-16.02, 0.0),
            pll=PllDelayModel(min=7.93e-6, max=7.93e-6, mean=7.93e-6, std=0.0),
        )
        p = Phasor(10.0, 0.0, 50.0)
        times, measured, _, _, _ = one_trial(chain, p)
        every = len(times) // 8
        log_mag, phase, _, _ = expected_response(chain, p.omega, times[::every])
        expected = np.abs(np.exp(log_mag + 1j * phase) - 1.0)
        assert np.allclose(measured[::every], expected, atol=1e-4)

    def test_pure_phase_blocks_keep_magnitude(self):
        chain = ChainModel(
            timebase=TimebaseModel(-16.02, 0.0),
            pll=PllDelayModel(min=7.93e-6, max=7.93e-6, mean=7.93e-6, std=0.0),
        )
        env = one_trial(chain)[2]
        assert np.allclose(np.abs(env) / 10.0, 1.0, atol=1e-4)

    def test_saturation_reported(self):
        chain = ChainModel(adc_bits=8, adc_vref_v=1.0)
        assert one_trial(chain, Phasor(5.0, 0.0, 50.0))[4] > 0


class TestProfiles:
    def test_paper_profile_values(self):
        chain = paper_profile()
        assert chain.adc_gain_ppm.mean == -4459.0
        assert chain.adc_gain_ppm.std == 134.0
        assert chain.aaf_phase_urad.mean == -4429.0
        assert chain.timebase.overall_mean_ppm == -16.02
        assert chain.pll.mean == pytest.approx(-7.93e-6)
        assert set(chain.pll_profiles) == {"idle", "cpu", "io", "hdd", "vm"}
        assert chain.pll_profiles["vm"].max == pytest.approx(20.94e-6)

    def test_table_means_endpoints(self):
        # exponent-form means: magnitude (-9.81-4459) ppm, phase at t=0
        # is (-4429 - 2*pi*50*7.93) urad; at t=1 s the ramp adds -5033 urad
        m_r = (-9.81 - 4459) * 1e-6
        p0 = -4429e-6 + OMEGA_50 * -7.93e-6
        p1 = p0 + OMEGA_50 * -16.02e-6
        assert tve(np.exp(m_r + 1j * p0), 1.0) == pytest.approx(0.82e-2, abs=2e-4)
        assert tve(np.exp(m_r + 1j * p1), 1.0) == pytest.approx(1.28e-2, abs=2e-4)

    def test_json_round_trip(self):
        chain = paper_profile()
        once = chain_to_json(chain)
        again = chain_from_json(once)
        # unit scaling costs at most one ulp; a second round trip is stable
        def close(a, b):
            if isinstance(a, dict):
                return a.keys() == b.keys() and all(close(a[k], b[k]) for k in a)
            if isinstance(a, (list, tuple)):
                return len(a) == len(b) and all(close(x, y) for x, y in zip(a, b))
            if isinstance(a, float):
                return a == pytest.approx(b, rel=1e-12)
            return a == b

        assert close(chain_to_json(again), once)
        assert again.adc_gain_ppm == chain.adc_gain_ppm
        assert again.pll.mean == pytest.approx(chain.pll.mean, rel=1e-12)
        assert again.pll_profiles["idle"].std == pytest.approx(
            chain.pll_profiles["idle"].std, rel=1e-12
        )

    def test_failed_save_keeps_the_old_profile(self, tmp_path, monkeypatch):
        # a write cut part-way (a full disk, a kill) must not truncate the profile
        path = tmp_path / "chain.json"
        save_profile(paper_profile(), path)
        before = path.read_bytes()

        def dump_part(obj, fh, **kwargs):
            fh.write(json.dumps(obj, **kwargs)[:100])
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(json, "dump", dump_part)
        with pytest.raises(OSError, match="No space left"):
            save_profile(identity_chain(), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_save_writes_through_a_symlink(self, tmp_path):
        target = tmp_path / "shared.json"
        save_profile(paper_profile(), target)
        link = tmp_path / "chain.json"
        link.symlink_to(target)
        save_profile(identity_chain(), link)
        assert link.is_symlink()
        assert json.loads(target.read_text())["name"] == "identity"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chain.json", "shared.json"]


NAN, INF = math.nan, math.inf


class TestNonFiniteParameters:
    """A model built in code rejects NaN, infinite and out-of-range parameters, naming the field.

    A profile that holds a field the model no longer has, whatever its value,
    is refused naming the key, not read with the key dropped.
    """

    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: GaussianTerm(NAN, 1.0), ValueError, "mean must be finite, got nan"),
            (lambda: GaussianTerm(0.0, INF), ValueError, "std must be finite, got inf"),
            (lambda: TimebaseModel(NAN, 0.1), ModelParameterError, "overall_mean_ppm"),
            (lambda: TimebaseModel(0.0, INF), ModelParameterError, "overall_std_ppm"),
            (
                lambda: TimebaseModel(0.0, 0.1, ((20.0, NAN, 0.1),)),
                ModelParameterError, r"e_r_by_temperature\[0\] must be finite, got \(20.0, nan, 0.1\)",
            ),
            (
                lambda: TimebaseModel(0.0, 0.1, ((20.0, 1.0, 0.1), (30.0, 1.0, INF))),
                ModelParameterError, r"e_r_by_temperature\[1\] must be finite, got \(30.0, 1.0, inf\)",
            ),
            (
                lambda: chain_from_json({"timebase": {"estimator_std_ppm": NAN}}),
                ConfigError, "timebase.estimator_std_ppm: unknown key",
            ),
            (
                lambda: chain_from_json({"timebase": {"board_std_ppm": INF}}),
                ConfigError, "timebase.board_std_ppm: unknown key",
            ),
            (
                lambda: PllDelayModel(min=0.0, mean=1e-5, std=NAN),
                ModelParameterError, "std must be finite, got nan",
            ),
            (
                lambda: PllDelayModel("truncated-normal", min=0.0, max=1e-4, mean=5e-5, std=NAN),
                ModelParameterError, "std must be finite, got nan",
            ),
            (
                lambda: PllDelayModel(min=0.0, max=NAN, mean=1e-5, std=1e-6),
                ModelParameterError, r"max must be a number or \+inf, got nan",
            ),
            (lambda: PllDelayModel(min=-INF), ModelParameterError, "min must be finite"),
            (
                lambda: chain_from_json({"pll": {"delay": {"mode_std_us": INF}}}),
                ConfigError, "pll.delay.mode_std_us: unknown key",
            ),
            (
                lambda: PllDelayModel("empirical-histogram", histogram=((0.0, NAN, 2e-6), (1, 1))),
                ModelParameterError, "histogram bin_edges_us must be finite, got 0 / nan / 2 µs",
            ),
            (
                lambda: PllDelayModel("empirical-histogram", histogram=((0.0, 1e-6, INF), (1, 1))),
                ModelParameterError, "histogram bin_edges_us must be finite, got 0 / 1 / inf µs",
            ),
            (
                lambda: replace(paper_profile(), adc_vref_v=INF),
                ModelParameterError, "adc_vref_v must be finite, got inf",
            ),
            (
                lambda: replace(paper_profile(), adc_gain_within_device_ppm=NAN),
                ModelParameterError, "adc_gain_within_device_ppm must be finite",
            ),
            (
                lambda: replace(paper_profile(), adc_noise_rms_uv=NAN),
                ModelParameterError, "adc_noise_rms_uv must be finite",
            ),
            (
                lambda: replace(paper_profile(), adc_noise_rms_uv=-1.0),
                ModelParameterError, "adc_noise_rms_uv must be >= 0, got -1.0",
            ),
            (
                lambda: chain_from_json({"timebase": {"estimator_std_ppm": -1.0}}),
                ConfigError, "timebase.estimator_std_ppm: unknown key",
            ),
            (
                lambda: chain_from_json({"timebase": {"board_std_ppm": -2.0}}),
                ConfigError, "timebase.board_std_ppm: unknown key",
            ),
            (
                lambda: chain_from_json({"pll": {"profiles": {"io": {"mode_std_us": -3.0}}}}),
                ConfigError, "pll.profiles.io.mode_std_us: unknown key",
            ),
            (
                lambda: chain_from_json({"pll": {"delay": {"max_us": 50.0, "mode_us": 100.0}}}),
                ConfigError, "pll.delay.mode_us: unknown key",
            ),
            (
                # decreasing edges and a count too many: a shifted gamma would ignore them
                lambda: PllDelayModel(min=0.0, mean=1e-5, histogram=((3e-6, 1e-6), (5, 6, 7))),
                ModelParameterError, "a shifted-gamma delay takes no histogram",
            ),
        ],
        ids=[
            "term-mean", "term-std", "timebase-mean", "timebase-std", "grid-mean", "grid-std",
            "estimator-std", "board-std", "gamma-std", "truncnorm-std", "pll-max", "pll-min",
            "pll-mode-std", "histogram-nan-edge", "histogram-inf-edge", "adc-vref", "adc-within-device", "adc-noise-nan",
            "adc-noise-negative", "estimator-std-negative", "board-std-negative",
            "pll-mode-std-negative", "pll-mode", "histogram-on-shifted-gamma",
        ],
    )
    def test_rejected(self, build, error, message):
        with pytest.raises(error, match=message):
            build()

    def test_unbounded_delay_accepted(self):
        assert PllDelayModel(min=0.0, max=INF, mean=1e-5, std=1e-6).max == INF


def static_response(magnitude, phase):
    """The response of a chain whose AAF gain and phase make ``magnitude*exp(1j*phase)``."""
    chain = ChainModel(
        aaf_gain_ppm=GaussianTerm(1e6 * math.log(magnitude)),
        aaf_phase_urad=GaussianTerm(1e6 * phase),
    )
    return expected_response(chain, 2 * math.pi * 50, 0.0)


def factor(resp):
    return cmath.exp(complex(resp.log_magnitude, resp.phase))


class TestCompensate:
    """A measured phasor times ``compensation`` (K = 1/Lambda) is the reference."""

    def test_exact_inverse(self):
        lam = static_response(0.9955, -6.9e-3)
        x = 10 * cmath.exp(1j * 0.3)
        out = factor(lam) * x * lam.compensation
        assert abs(out - x) / abs(x) < 1e-12
        assert abs(out) - abs(x) == pytest.approx(0.0, abs=1e-11)
        assert wrap_phase(cmath.phase(out) - cmath.phase(x)) == pytest.approx(0.0, abs=1e-12)

    def test_residual_gain_error(self):
        # compensator off by +134 ppm in magnitude leaves 134 ppm TVE
        believed = static_response(math.exp(-134e-6), 0.0)
        out = (1 + 0j) * believed.compensation
        assert tve(out, 1 + 0j) == pytest.approx(134e-6, rel=1e-3)

    def test_time_dependent_phase(self):
        # a time-base-only chain: the phase ramps as omega*e_r*t, -5.03 mrad at 1 s
        omega = 2 * math.pi * 50
        chain = ChainModel(timebase=TimebaseModel(-5.03e-3 / omega * 1e6, 0.0))
        lam = expected_response(chain, omega, 0.5)
        z = cmath.exp(1j * -5.03e-3 * 0.5)
        assert tve(z * lam.compensation, 1 + 0j) < 1e-12

    @given(
        st.floats(0.5, 2.0),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 20.0),
        st.floats(-3.0, 3.0),
    )
    def test_exactness_property(self, lam_mag, lam_phase, amp, phase):
        lam = static_response(lam_mag, lam_phase)
        x = amp * cmath.exp(1j * phase)
        out = factor(lam) * x * lam.compensation
        assert abs(out - x) / abs(x) < 1e-12
