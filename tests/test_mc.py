import cmath
import json
import math
import sys
import threading
import tracemalloc
import warnings
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbcpmu.blocks import (
    ChainModel,
    GaussianTerm,
    Phasor,
    PllDelayModel,
    TimebaseModel,
    expected_response,
    identity_chain,
    paper_profile,
    pll_sample,
)
from sbcpmu import mc
from sbcpmu.errors import ConfigError, EstimationError, ScheduleGuardError
from sbcpmu.mc import (
    BLOCK_TRIALS,
    MIN_WINDOW_SAMPLES,
    _acquire_rows,
    _convert,
    _FourierPlan,
    _table_shape,
    _workers,
    DEFAULT_COVERAGE_FACTOR,
    McScenario,
    fe,
    model_curve,
    monte_carlo,
    run_trial,
    tve,
    write_run,
)

OMEGA_50 = 2 * math.pi * 50


class TestModelCurve:
    def test_paper_endpoints(self):
        c = model_curve(paper_profile(), OMEGA_50, [0.0, 1.0])
        assert c.expected[0] == pytest.approx(0.82e-2, abs=2e-4)
        assert c.expected[1] == pytest.approx(1.28e-2, abs=2e-4)

    def test_monotone_ramp(self):
        c = model_curve(paper_profile(), OMEGA_50, np.linspace(0, 1, 51))
        assert np.all(np.diff(c.expected) > 0)

    def test_zero_chain(self):
        c = model_curve(identity_chain(), OMEGA_50, [0.0, 0.5, 1.0])
        assert np.all(c.expected == 0.0)
        assert np.all(c.band_hi == 0.0)

    def test_compensated_band_grows_linearly(self):
        t = np.linspace(0, 1, 11)
        c = model_curve(paper_profile(), OMEGA_50, t, compensated=True)
        assert np.all(c.expected == 0.0)
        growth = np.diff(c.band_hi)
        assert np.all(growth > 0)
        # dominated by the omega*t*u_R term, so nearly linear
        assert np.allclose(growth, growth[-1], rtol=3e-2)

    def test_band_contains_expected(self):
        c = model_curve(paper_profile(), OMEGA_50, np.linspace(0, 1, 21))
        assert np.all(c.band_hi >= c.expected - 1e-15)
        assert np.all(c.band_lo <= c.expected + 1e-15)

    def test_band_at_temperature_follows_interpolated_std(self):
        # the Monte Carlo draws e_r with the std interpolated at 35 C (1.675
        # ppm between the 30 and 40 C rows), not the all-conditions 3.67 ppm
        chain = paper_profile()
        t = np.linspace(0, 1, 11)
        c = model_curve(chain, OMEGA_50, t, compensated=True, temperature=35.0)
        assert chain.timebase.std_ppm(35.0) == pytest.approx(1.675)
        u_r = 1e-6 * (chain.aaf_gain_ppm.std + chain.adc_gain_ppm.std)
        u_p = (
            1e-6 * chain.aaf_phase_urad.std
            + OMEGA_50 * t * 1e-6 * chain.timebase.std_ppm(35.0)
            + OMEGA_50 * chain.pll.std
        )
        assert np.allclose(c.band_hi, np.abs(np.exp(u_r + 1j * u_p) - 1.0), rtol=1e-12, atol=0)
        overall = model_curve(chain, OMEGA_50, t, compensated=True)
        assert c.band_hi[-1] < overall.band_hi[-1]

    def test_curve_without_temperature_unchanged(self):
        # the all-conditions curve, written out with the overall e_r statistics
        chain = paper_profile()
        t = np.linspace(0, 1, 101)
        c = model_curve(chain, OMEGA_50, t)
        tb = chain.timebase
        m_r = 1e-6 * (chain.aaf_gain_ppm.mean + chain.adc_gain_ppm.mean)
        m_p = (
            1e-6 * chain.aaf_phase_urad.mean
            + OMEGA_50 * t * (1e-6 * tb.overall_mean_ppm)
            + OMEGA_50 * chain.pll.mean
        )
        u_r = 1e-6 * (chain.aaf_gain_ppm.std + chain.adc_gain_ppm.std)
        u_p = (
            1e-6 * chain.aaf_phase_urad.std
            + OMEGA_50 * t * 1e-6 * tb.overall_std_ppm
            + OMEGA_50 * chain.pll.std
        )
        corners = [
            np.abs(np.exp(m_r + sr * u_r + 1j * (m_p + sp * u_p)) - 1.0)
            for sr in (-1.0, 1.0)
            for sp in (-1.0, 1.0)
        ]
        assert np.array_equal(c.expected, np.abs(np.exp(m_r + 1j * m_p) - 1.0))
        assert np.array_equal(c.band_hi, np.max(corners, axis=0))
        assert np.array_equal(c.band_lo, np.min(corners, axis=0))


def small_scenario(**kw):
    args = dict(
        chain=paper_profile(),
        phasor=Phasor(10.0, 0.0, 50.0),
        trials=6,
        base_seed=42,
    )
    args.update(kw)
    return McScenario(**args)


class TestMonteCarlo:
    def test_deterministic_rerun(self):
        a = monte_carlo(small_scenario())
        b = monte_carlo(small_scenario())
        assert np.array_equal(a.trial_tve, b.trial_tve)
        assert a.grand_mean_tve == b.grand_mean_tve

    def test_trial_order_independence(self):
        # trial 3 run standalone equals trial 3 inside the full sweep
        full = monte_carlo(small_scenario())
        _, trace, _, _, _ = run_trial(small_scenario(), 3)
        assert np.array_equal(full.trial_tve[3], trace)

    def test_zero_uncertainty_all_trials_identical(self):
        chain = ChainModel(
            adc_gain_ppm=GaussianTerm(-4459.0),
            timebase=TimebaseModel(-16.02, 0.0),
            pll=PllDelayModel(min=5e-6, max=5e-6, mean=5e-6, std=0.0),
        )
        r = monte_carlo(small_scenario(chain=chain, trials=3))
        assert np.array_equal(r.trial_tve[0], r.trial_tve[1])
        assert np.array_equal(r.trial_tve[0], r.trial_tve[2])

    def test_fe_from_chain(self):
        r = monte_carlo(small_scenario(trials=2))
        assert r.fe_hz == pytest.approx(801e-6, abs=1e-6)

    def test_window_gap_reported(self):
        r = monte_carlo(small_scenario(trials=2))
        # the last ~1 cycle of each PPS interval has no complete window
        assert 0 < r.window_gap_s < 0.03

    def test_compensation_reduces_tve(self):
        raw = monte_carlo(small_scenario(trials=12))
        comp = monte_carlo(small_scenario(trials=12, compensate=True))
        assert comp.grand_mean_tve < raw.grand_mean_tve / 10

    def test_band_covers_mean(self):
        r = monte_carlo(small_scenario(trials=12))
        assert np.all(r.band_hi >= r.mean_tve)
        assert np.all(r.band_lo <= r.mean_tve)

    def test_reference_scenario_does_not_clip(self):
        assert monte_carlo(small_scenario(trials=3)).saturated_samples == 0

    def test_clipping_is_counted(self):
        # 12 V peaks against the paper profile's 10 V reference
        over = small_scenario(trials=3, phasor=Phasor(12.0, 0.0, 50.0))
        r = monte_carlo(over)
        per_trial = [run_trial(over, i)[4] for i in range(3)]
        assert all(n > 0 for n in per_trial)
        assert r.saturated_samples == sum(per_trial)
        assert r.max_trial_saturated_samples == max(per_trial)

    def test_max_guard_margin(self):
        s = small_scenario()
        r = monte_carlo(s)
        ratios = [1.0 + 1e-6 * run_trial(s, i)[3].e_r_ppm for i in range(s.trials)]
        assert r.max_guard_margin == max(abs(x - 1.0) * 5000 for x in ratios)
        assert 0 < r.max_guard_margin < 1

    def test_guard_violation_names_trial_and_draw(self):
        chain = replace(paper_profile(), timebase=TimebaseModel(500.0, 0.0))
        with pytest.raises(
            ScheduleGuardError,
            match=r"^trial 0 aborted: N_s pulse-count approximation invalid: "
            r"\|R-1\|\*N_s = 2\.5 >= 1 \(R=1\.0005, N_s=5000\); draw = \{'aaf_gain_ppm': ",
        ):
            monte_carlo(small_scenario(chain=chain))

    def test_guard_violation_in_a_later_block(self):
        # run one at a time, trials 19, 20 and 50 violate the guard; the
        # lowest is named with its draw, and no worker thread outlives the call
        chain = replace(paper_profile(), timebase=TimebaseModel(0.0, 100.0))
        threads = threading.active_count()
        with pytest.raises(ScheduleGuardError) as info:
            monte_carlo(small_scenario(chain=chain, trials=64, base_seed=7))
        assert str(info.value) == (
            "trial 19 aborted: N_s pulse-count approximation invalid: |R-1|*N_s = 1.14 >= 1 "
            "(R=1.0002284640628052, N_s=5000); draw = {'aaf_gain_ppm': -9.306326343455941, "
            "'aaf_phase_urad': -4577.08947840208, 'adc_gain_ppm': -4493.9478458999365, "
            "'adc_offset_uv': -764.1670063810802, 'e_r_ppm': 228.46406280512767, "
            "'delay_us': -7.812567189195421}"
        )
        assert threading.active_count() == threads

    def test_one_window_interval_raises(self):
        # a 20 ms interval at 5 kHz holds one 50 Hz window and no envelope
        with pytest.raises(EstimationError, match="less than one estimation window"):
            monte_carlo(small_scenario(pps_period=0.02))

    @pytest.mark.parametrize("seed", [-1, 1.0, 2.5, True, "7", None])
    def test_base_seed_must_be_a_non_negative_int(self, seed):
        with pytest.raises(ValueError, match=r"^base_seed must be a non-negative integer, got "):
            small_scenario(base_seed=seed)

    @pytest.mark.parametrize("trials", [2.5, 2.0, True, "3", None])
    def test_trials_must_be_an_int(self, trials):
        with pytest.raises(ValueError, match=r"^trials must be an integer, got "):
            small_scenario(trials=trials)

    def test_trials_at_least_one(self):
        with pytest.raises(ValueError, match=r"^trials must be >= 1$"):
            small_scenario(trials=0)
        assert small_scenario(trials=np.int64(2)).trials == 2

    @pytest.mark.parametrize("value", ["no", 1, 0, None, np.bool_(True)])
    def test_compensate_must_be_a_bool(self, value):
        # a truthy string or int used to run compensated and be recorded as given
        with pytest.raises(ValueError, match=r"^compensate must be True or False, got "):
            small_scenario(compensate=value)

    @pytest.mark.parametrize("duration", [math.nan, 0.5, -1.0])
    def test_duration_covers_a_pps_period(self, duration):
        with pytest.raises(ValueError, match=r"^duration must cover at least one PPS period, got "):
            small_scenario(duration=duration)

    @pytest.mark.parametrize("channels", [-3, 0, 2.5, 2.0, True, "8", None])
    def test_channels_must_be_a_positive_int(self, channels):
        with pytest.raises(ValueError, match=r"^channels must be an integer >= 1, got "):
            small_scenario(channels=channels)

    def test_numpy_int_channels(self):
        assert small_scenario(channels=np.int64(2), duration=1.0).channels == 2

    def test_zero_phasor_raises(self, recwarn):
        # checked before the weights are divided by the reference
        scenario = small_scenario(phasor=Phasor(0.0, 0.0, 50.0))
        for call in (lambda: monte_carlo(scenario), lambda: run_trial(scenario, 0)):
            with pytest.raises(ValueError, match=r"^reference phasor must be nonzero$"):
                call()
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("field", ["nominal_rate", "pps_period"])
    def test_rate_and_period_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be > 0$"):
            small_scenario(**{field: value})

    @pytest.mark.parametrize("field", ["nominal_rate", "pps_period", "duration"])
    def test_rate_period_and_duration_must_be_finite(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be finite, got inf$"):
            small_scenario(**{field: math.inf})

    def test_numpy_int_base_seed(self):
        a = run_trial(small_scenario(base_seed=np.int64(42)), 1)
        b = run_trial(small_scenario(base_seed=42), 1)
        assert a[1].tobytes() == b[1].tobytes() and a[3] == b[3]

    @pytest.mark.parametrize("index", [-1, -(2**40), 1.0, False])
    def test_trial_index_must_be_a_non_negative_int(self, index):
        with pytest.raises(ValueError, match=r"^trial_index must be a non-negative integer, got "):
            run_trial(small_scenario(), index)

    def test_temperature_off_grid_raises(self):
        # the time base is not extrapolated: 200 C is off the paper grid [0, 50]
        message = r"^temperature_c: 200\.0 is off timebase\.by_temperature_c \[0\.0, 50\.0\]$"
        with pytest.raises(ConfigError, match=message):
            small_scenario(temperature_c=200.0)

    @pytest.mark.parametrize(
        "call",
        [
            lambda chain: expected_response(chain, OMEGA_50, [0.5], 200.0),
            lambda chain: model_curve(chain, OMEGA_50, [0.5], temperature=200.0),
        ],
        ids=["expected_response", "model_curve"],
    )
    def test_library_calls_off_grid_raise(self, call):
        # the library does not clamp 200 C to the 50 C end of the grid either
        message = r"^temperature_c: 200\.0 is off timebase\.by_temperature_c \[0\.0, 50\.0\]$"
        with pytest.raises(ConfigError, match=message):
            call(paper_profile())


def zero_variance_chain():
    """The paper profile's means with every std 0, an ideal ADC and no noise."""
    paper = paper_profile()
    mean = paper.pll.mean
    return replace(
        paper,
        aaf_gain_ppm=GaussianTerm(paper.aaf_gain_ppm.mean),
        aaf_phase_urad=GaussianTerm(paper.aaf_phase_urad.mean),
        adc_gain_ppm=GaussianTerm(paper.adc_gain_ppm.mean),
        adc_gain_within_device_ppm=0.0,
        adc_offset_uv=GaussianTerm(paper.adc_offset_uv.mean),
        adc_bits=None,
        adc_noise_rms_uv=0.0,
        timebase=TimebaseModel(paper.timebase.overall_mean_ppm, 0.0),
        pll=PllDelayModel(min=mean, max=mean, mean=mean),
    )


class TestModelAgreement:
    """With nothing random, the MC mean is the model curve up to a small fixed residual."""

    @pytest.mark.parametrize("compensate", [False, True])
    def test_zero_variance_chain(self, compensate):
        r = monte_carlo(small_scenario(chain=zero_variance_chain(), trials=2, compensate=compensate))
        assert np.array_equal(r.model_band, r.model_tve)
        # Uncompensated the residual is 1.3e-5.  Compensated it is 1.8e-5, of
        # which about 1e-5 is the convention gap: the trials apply the gains
        # as (1+a)(1+b) while the compensation divides by exp(a+b).
        assert np.max(np.abs(r.mean_tve - r.model_tve)) <= 2e-5


def _equivalence_scenarios():
    paper = paper_profile()
    histogram = ((4e-6, 5e-6, 6e-6, 8e-6), (3, 5, 2))
    return {
        "uncompensated": small_scenario(),
        "compensated": small_scenario(compensate=True),
        "temperature": small_scenario(temperature_c=35.0, compensate=True),
        "adc-noise": small_scenario(chain=replace(paper, adc_noise_rms_uv=300.0)),
        "ideal-adc": small_scenario(chain=replace(paper, adc_bits=None)),
        "truncated-normal": small_scenario(
            chain=replace(
                paper,
                pll=PllDelayModel(
                    family="truncated-normal", min=4e-6, max=9e-6, mean=6e-6, std=1e-6
                ),
            )
        ),
        "empirical-histogram": small_scenario(
            chain=replace(
                paper, pll=PllDelayModel(family="empirical-histogram", histogram=histogram)
            )
        ),
        # 10.3 V peaks clip in every trial, on both sides of the block boundary
        "clipping-across-blocks": small_scenario(
            trials=BLOCK_TRIALS + 3, phasor=Phasor(10.3, 0.3, 50.0)
        ),
    }


class TestEngineEquivalence:
    """Every row of the blocked engine equals the trial run alone, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_equivalence_scenarios()))
    def test_rows_equal_single_trials(self, name):
        scenario = _equivalence_scenarios()[name]
        r = monte_carlo(scenario)
        clipped = []
        for i in range(scenario.trials):
            times, trace, _, _, n = run_trial(scenario, i)
            assert np.array_equal(times, r.t_in_pps)
            assert trace.tobytes() == r.trial_tve[i].tobytes(), f"trial {i}"
            clipped.append(n)
        assert r.saturated_samples == sum(clipped)
        assert r.max_trial_saturated_samples == max(clipped)
        if name == "clipping-across-blocks":
            assert min(clipped) > 0


def _default_rng_seeds(base_seed, start, stop):
    """What ``default_rng([base_seed, i])`` seeds PCG64 from, in place of ``mc._trial_seeds``."""
    return [np.random.SeedSequence([base_seed, i]) for i in range(start, stop)]


class TestTrialSeeds:
    """Each trial's generator is ``default_rng([base_seed, i])``, seeded by one vectorized pass."""

    BASE_SEEDS = [0, 1, 12345, 2**32 - 1, 2**32, 2**64 + 5, 2**100 + 7, 2**128 + 1]
    INDICES = [0, 1, 15, 16, 959]

    @staticmethod
    def _assert_rows_seed_default_rng(seeds, base_seed, indices):
        assert seeds.dtype == np.uint64 and seeds.flags.c_contiguous
        for row, i in zip(seeds, indices):
            want = np.random.default_rng([base_seed, i]).bit_generator.state
            assert mc.Generator(mc.PCG64(mc._TrialSeed(row))).bit_generator.state == want, i

    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    def test_one_pass_matches_default_rng(self, base_seed):
        seeds = mc._trial_seeds(base_seed, 0, 960)
        assert seeds.shape == (960, 4)
        self._assert_rows_seed_default_rng(seeds[self.INDICES], base_seed, self.INDICES)

    @pytest.mark.parametrize("base_seed", BASE_SEEDS)
    @pytest.mark.parametrize("index", INDICES)
    def test_single_trial_matches_default_rng(self, base_seed, index):
        seeds = mc._trial_seeds(base_seed, index, index + 1)
        assert seeds.shape == (1, 4)
        self._assert_rows_seed_default_rng(seeds, base_seed, [index])

    @pytest.mark.parametrize("start", [2**32 - 2, 2**64 - 2], ids=["32-bit", "64-bit"])
    def test_range_across_a_word_boundary(self, start):
        # trial indices that gain a 32-bit word change the entropy length mid-range
        indices = range(start, start + 4)
        seeds = mc._trial_seeds(7, indices.start, indices.stop)
        assert seeds.shape == (4, 4)
        self._assert_rows_seed_default_rng(seeds, 7, indices)

    @given(
        base_seed=st.integers(min_value=0, max_value=2**160 - 1),
        index=st.integers(min_value=0, max_value=2**20 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_default_rng(self, base_seed, index):
        seeds = mc._trial_seeds(base_seed, index, index + 2)
        self._assert_rows_seed_default_rng(seeds, base_seed, [index, index + 1])

    @given(
        entropy=st.integers(min_value=2, max_value=8).flatmap(
            lambda words: st.lists(
                st.lists(st.integers(0, 2**32 - 1), min_size=words, max_size=words),
                min_size=1, max_size=4,
            )
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_seed_state_matches_seed_sequence(self, entropy):
        # entropy past four words takes one extra mixing round per word, up to four here
        words = np.array(entropy, dtype=np.uint32)
        got = mc._seed_state(list(words.T))
        for row, state in zip(words, got):
            assert np.array_equal(state, np.random.SeedSequence(row).generate_state(4, np.uint64))

    def test_a_trial_seed_only_seeds_pcg64(self):
        seed = mc._TrialSeed(mc._trial_seeds(1, 0, 1)[0])
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed.generate_state(8, np.uint32)

    @pytest.mark.parametrize("compensate", [False, True], ids=["plain", "compensated"])
    def test_adc_noise_follows_default_rng(self, monkeypatch, compensate):
        # the noise is drawn from each trial's generator after its parameters,
        # so the traces equal those of generators from default_rng
        scenario = small_scenario(
            chain=replace(paper_profile(), adc_noise_rms_uv=300.0), trials=BLOCK_TRIALS + 2,
            compensate=compensate,
        )
        r = monte_carlo(scenario)
        trials = [run_trial(scenario, i) for i in (0, BLOCK_TRIALS + 1)]
        quiet = run_trial(replace(scenario, chain=replace(scenario.chain, adc_noise_rms_uv=0.0)), 0)
        assert trials[0][1].tobytes() != quiet[1].tobytes()

        monkeypatch.setattr(mc, "_trial_seeds", _default_rng_seeds)
        monkeypatch.setattr(mc, "_TrialSeed", lambda seed: seed)
        want = monte_carlo(scenario)
        assert r.trial_tve.tobytes() == want.trial_tve.tobytes()
        for i, got in zip((0, BLOCK_TRIALS + 1), trials):
            ref = run_trial(scenario, i)
            assert got[1].tobytes() == ref[1].tobytes() and got[2].tobytes() == ref[2].tobytes()
            assert got[3] == ref[3]


PLL_FAMILIES = {
    "shifted-gamma": PllDelayModel(min=4.55e-6, max=14.65e-6, mean=6.59e-6, std=1.07e-6),
    "truncated-normal": PllDelayModel(
        family="truncated-normal", min=4e-6, max=9e-6, mean=6e-6, std=1e-6
    ),
    "empirical-histogram": PllDelayModel(
        family="empirical-histogram", histogram=((4e-6, 5e-6, 6e-6, 8e-6), (3, 5, 2))
    ),
    "degenerate": PllDelayModel(min=5e-6, max=5e-6, mean=5e-6, std=0.0),
}


def _scalar_draws(scenario, start, stop):
    """Each trial's parameters as five scalar ``rng.normal(mean, std)`` calls and a ``pll_sample``."""
    chain, temperature = scenario.chain, scenario.temperature_c
    normals = (
        (chain.aaf_gain_ppm.mean, chain.aaf_gain_ppm.std),
        (chain.aaf_phase_urad.mean, chain.aaf_phase_urad.std),
        (chain.adc_gain_ppm.mean, chain.sequence_gain_std_ppm()),
        (chain.adc_offset_uv.mean, chain.adc_offset_uv.std),
        (chain.timebase.mean_ppm(temperature), chain.timebase.std_ppm(temperature)),
    )
    rows, rngs = [], []
    for i in range(start, stop):
        rng = np.random.default_rng([scenario.base_seed, i])
        rows.append([rng.normal(mean, std) for mean, std in normals] + [pll_sample(chain.pll, rng)])
        rngs.append(rng)
    return np.array(rows), rngs


class TestDraw:
    """Each trial draws five standard normals, then its PLL delay; one pass scales the normals."""

    @settings(max_examples=40, deadline=None)
    @given(
        base_seed=st.integers(min_value=0, max_value=2**64),
        start=st.integers(min_value=0, max_value=2**33),
        trials=st.integers(min_value=1, max_value=40),
        family=st.sampled_from(sorted(PLL_FAMILIES)),
        zero_stds=st.sets(st.sampled_from(["aaf_gain_ppm", "aaf_phase_urad", "adc_offset_uv"])),
        noise=st.booleans(),
        temperature=st.sampled_from([None, 35.0]),
    )
    def test_equals_scalar_normal_calls(
        self, base_seed, start, trials, family, zero_stds, noise, temperature
    ):
        chain = replace(
            paper_profile(),
            pll=PLL_FAMILIES[family],
            adc_noise_rms_uv=300.0 if noise else 0.0,
            **{name: GaussianTerm(getattr(paper_profile(), name).mean) for name in zero_stds},
        )
        scenario = small_scenario(chain=chain, base_seed=base_seed, temperature_c=temperature)
        engine = mc._Engine(scenario)
        draws = engine.draw(start, start + trials)
        want, rngs = _scalar_draws(scenario, start, start + trials)
        assert draws.params.tobytes() == want.tobytes()
        ratios = 1.0 + 1e-6 * want[:, 4]
        assert draws.ratios.tobytes() == ratios.tobytes()
        margins = [abs(float(r) - 1.0) * engine.samples for r in ratios]
        assert draws.guard_margins.tolist() == margins
        if noise:
            # the kept generators go on to draw each trial's ADC noise
            assert [g.bit_generator.state for g in draws.rngs] == [
                g.bit_generator.state for g in rngs
            ]
        else:
            assert draws.rngs is None


def mc_batch_scenario():
    """The benchmark's mc-batch scenario at scenario seed 12345."""
    return McScenario(
        chain=paper_profile(), phasor=Phasor(10.0, 0.0, 50.0), nominal_rate=5000.0,
        trials=960, compensate=True, temperature_c=35.0, base_seed=12345,
    )


class TestBenchmarkScenario:
    """The benchmark's mc-batch scenario still gives the grand mean its check expects."""

    EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

    def test_grand_mean_tve_matches_expected(self):
        expected = json.loads(self.EXPECTED.read_text())["full"]["mc-batch"]["12345"]
        r = monte_carlo(mc_batch_scenario())
        assert r.trials == expected["trials"]
        assert math.isclose(r.grand_mean_tve, expected["grand_mean_tve"], rel_tol=1e-9, abs_tol=0.0)


def quantum(chain):
    return 2 * chain.adc_vref_v / 2**chain.adc_bits


def convert(chain, v_in):
    """``v_in`` converted with the chain's mean ADC gain and offset, and the end-code saturation mask."""
    v = np.array(v_in, dtype=float)
    gain, offset = 1.0 + 1e-6 * chain.adc_gain_ppm.mean, 1e-6 * chain.adc_offset_uv.mean
    saturated = _convert(v, gain, offset, None, chain)
    return v, np.zeros(v.shape, dtype=bool) if saturated is None else saturated


class TestAdc:
    def test_zero_input(self):
        chain = ChainModel(adc_bits=16, adc_vref_v=10.0)
        assert convert(chain, 0.0)[0] == 0.0

    def test_paper_gain_offset(self):
        chain = ChainModel(
            adc_gain_ppm=GaussianTerm(-4459.0),
            adc_offset_uv=GaussianTerm(-269.0),
            adc_bits=24,
            adc_vref_v=10.0,
        )
        # pre-quantization value from Table-like gain/offset at 10 V
        expected = 10 * (1 - 4459e-6) - 269e-6
        assert expected == pytest.approx(9.955141, abs=5e-7)
        assert convert(chain, 10.0)[0] == pytest.approx(expected, abs=quantum(chain))

    def test_quantization_noise_rms(self):
        chain = ChainModel(adc_bits=12, adc_vref_v=10.0)
        v = np.linspace(-9.9, 9.9, 200001)
        out = convert(chain, v)[0]
        resid = out - v
        assert np.std(resid) == pytest.approx(quantum(chain) / math.sqrt(12), rel=0.05)

    def test_saturation_flag(self):
        chain = ChainModel(adc_bits=8, adc_vref_v=1.0)
        out, sat = convert(chain, np.array([0.0, 2.0, -3.0]))
        assert list(sat) == [False, True, True]
        assert out[1] == pytest.approx(1.0, abs=2 * quantum(chain))


class TestAcquire:
    def test_identity_chain_matches_synthesize(self):
        p = Phasor(10.0, 0.0, 50.0)
        a, b = _table_shape(5000)
        values, clipped = _acquire_rows(
            p, 0.0, 0.0, 0.0, 0.0, 0.0, 2e-4, identity_chain(), 5000, [None], np.empty((1, a * b))
        )
        assert np.allclose(values[0], p.amplitude * np.cos(p.omega * np.arange(5000) * 2e-4))
        assert clipped[0] == 0


def _cosine_ld(amp, ph, omega, starts, steps, samples):
    """``amp*cos(omega*(start + n*step) + ph)`` in long double, one row per start."""
    ld = np.longdouble
    amp, ph, starts, steps = (np.asarray(x, dtype=ld).reshape(-1, 1) for x in (amp, ph, starts, steps))
    return amp * np.cos(ld(omega) * (starts + np.arange(samples, dtype=ld) * steps) + ph)


def _ulps_of_phase(got, want, amp, omega, t_max):
    """The largest error of ``got`` in units of ``ulp(omega*t_max)*amp``."""
    return float(np.max(np.abs(got - want)) / (np.spacing(omega * t_max) * amp))


# Measured over 600 random draws of each test: at most 2.0.  The phase omega*t is rounded to
# float64 once, in each table, as a direct cosine would round it.
PHASE_ULPS = 4
# a perfect square, a prime and the shortest window
SAMPLE_COUNTS = [4900, 4999, MIN_WINDOW_SAMPLES]
TABLE_SETTINGS = settings(max_examples=60, deadline=None)


class TestPhaseTables:
    """With an ideal ADC, the phase-table sinusoid is ``amp*cos(...)`` to a few ulps of the phase."""

    @TABLE_SETTINGS
    @given(
        samples=st.sampled_from(SAMPLE_COUNTS),
        rows=st.lists(
            st.tuples(
                st.floats(-0.99, 0.99),  # (R - 1)*N_s: every feasible ratio
                st.floats(-1e-3, 1e-3),  # start, s
                st.floats(-1e4, 1e4),  # AAF gain, ppm
                st.floats(-1e5, 1e5),  # AAF phase, urad
            ),
            min_size=1, max_size=3,
        ),
        amplitude=st.floats(0.01, 100.0),
        phase=st.floats(-math.pi, math.pi),
        frequency=st.sampled_from([50.0, 60.0, 49.5]),
    )
    def test_rows_match_long_double(self, samples, rows, amplitude, phase, frequency):
        p = Phasor(amplitude, phase, frequency)
        guard, starts, gains, phases = (np.array(c) for c in zip(*rows))
        steps = (1.0 / samples) * (1.0 + guard / samples)  # one PPS interval of about 1 s
        a, b = _table_shape(samples)
        assert a * b >= samples > (a - 1) * b
        got, clipped = _acquire_rows(
            p, gains, phases, 0.0, 0.0, starts, steps, identity_chain(), samples,
            [None] * len(rows), np.empty((len(rows), a * b)),
        )
        assert got.shape == (len(rows), samples)
        assert not clipped.any()
        amp = p.amplitude * (1.0 + 1e-6 * gains)
        want = _cosine_ld(amp, p.phase + 1e-6 * phases, p.omega, starts, steps, samples)
        t_max = np.max(np.abs(starts) + (samples - 1) * steps)
        assert _ulps_of_phase(got, want, amp.max(), p.omega, t_max) <= PHASE_ULPS

    def test_fast_path_matches_mask_path(self):
        # In a block where one row clips, every row takes the mask path; the
        # row that does not clip, run alone, takes the fast path.
        chain = ChainModel(adc_bits=12, adc_vref_v=10.0)
        p = Phasor(9.9, 0.3, 50.0)
        samples = 5000
        a, b = _table_shape(samples)

        def run(adc_gains):
            rows = len(adc_gains)
            values, clipped = _acquire_rows(
                p, 0.0, 0.0, adc_gains, 250.0, 3e-6, 2e-4, chain, samples, [None] * rows,
                np.empty((rows, a * b)),
            )
            return values.copy(), clipped

        both, clipped = run([0.0, 2e4])  # +2 % gain: 10.1 V peaks against 10 V
        alone, alone_clipped = run([0.0])
        assert both[0].tobytes() == alone[0].tobytes()
        assert clipped[0] == alone_clipped[0] == 0
        # the clipping row, counted from its unclipped codes
        unclipped, _ = _acquire_rows(
            p, 0.0, 0.0, 2e4, 250.0, 3e-6, 2e-4, identity_chain(), samples, [None],
            np.empty((1, a * b)),
        )
        codes = np.rint(unclipped[0] / (20.0 / 4096))
        assert clipped[1] == np.count_nonzero((codes < -2048) | (codes > 2047)) > 0
        assert np.abs(both[1]).max() <= 10.0


class TestRowsStandAlone:
    """A row's converted samples and clip count do not depend on the rows run with it."""

    @pytest.mark.parametrize("noise_uv", [0.0, 300.0], ids=["quiet", "adc-noise"])
    @TABLE_SETTINGS
    @given(
        samples=st.sampled_from(SAMPLE_COUNTS),
        rows=st.lists(
            st.tuples(
                st.floats(-2e4, 2e4),  # AAF gain, ppm
                st.floats(-1e5, 1e5),  # AAF phase, urad
                st.floats(-2e4, 2e4),  # ADC gain, ppm
                st.floats(-1e4, 1e4),  # ADC offset, uV
                st.floats(-1e-3, 1e-3),  # start, s
                st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),  # (R - 1)*N_s
            ),
            min_size=2, max_size=5,
        ),
    )
    def test_block_rows_equal_rows_alone(self, noise_uv, samples, rows):
        # 9.9 V peaks on a 10 V, 12-bit converter: a row whose gains add up to
        # about 1 % clips, so blocks mix rows that clip and rows that do not
        chain = ChainModel(adc_bits=12, adc_vref_v=10.0, adc_noise_rms_uv=noise_uv)
        p = Phasor(9.9, 0.3, 50.0)
        *params, guard = (np.array(c) for c in zip(*rows))
        steps = (1.0 / samples) * (1.0 + guard / samples)
        a, b = _table_shape(samples)

        def run(lo, hi):
            rngs = [np.random.default_rng([7, r]) for r in range(lo, hi)]
            return _acquire_rows(
                p, *(x[lo:hi] for x in params), steps[lo:hi], chain, samples, rngs,
                np.empty((hi - lo, a * b)),
            )

        block, clipped = run(0, len(rows))
        for r in range(len(rows)):
            alone, alone_clipped = run(r, r + 1)
            assert block[r].tobytes() == alone[0].tobytes(), r
            assert clipped[r] == alone_clipped[0], r


class TestSinusoidProduct:
    """The sinusoid as one matrix product per row gives the codes of three broadcast passes."""

    def test_block_codes_match_three_pass_reference(self):
        scenario = mc_batch_scenario()
        phasor, chain = scenario.phasor, scenario.chain
        engine = mc._Engine(scenario)
        draws = engine.draw(0, BLOCK_TRIALS)
        aaf_gain, aaf_phase, adc_gain, adc_offset, _, delay = draws.params.T[:, :, None]
        steps = engine.sample_period * draws.ratios[:, None]
        samples = engine.samples
        a, b = _table_shape(samples)
        got, clipped = _acquire_rows(
            phasor, aaf_gain, aaf_phase, adc_gain, adc_offset, delay, steps, chain, samples,
            draws.rngs, np.empty((BLOCK_TRIALS, a * b)),
        )
        # Re(P[a]*Q[b]) as two broadcast real products and a subtraction
        amp = phasor.amplitude * (1.0 + 1e-6 * aaf_gain)
        ph = phasor.phase + 1e-6 * aaf_phase
        p = amp * np.exp(1j * (phasor.omega * (delay + (b * np.arange(a)) * steps) + ph))
        q = np.exp(1j * (phasor.omega * (np.arange(b) * steps)))
        y = p.real[:, :, None] * q.real[:, None, :] - p.imag[:, :, None] * q.imag[:, None, :]
        want = y.reshape(BLOCK_TRIALS, a * b)[:, :samples].copy()
        assert chain.adc_bits == 16 and chain.adc_noise_rms_uv == 0
        assert _convert(want, 1.0 + 1e-6 * adc_gain, 1e-6 * adc_offset, None, chain) is None
        assert not clipped.any()
        assert got.tobytes() == want.tobytes()


class TestStreamedAggregates:
    """The aggregates reduced while the trials run match numpy on the kept traces."""

    # The grand magnitude and phase errors are summed a block at a time, where
    # numpy sums the full array pairwise: the two orders agree to a few ulps
    # (2 at most measured on these scenarios).
    ULPS = 8

    @pytest.mark.parametrize("compensate", [False, True], ids=["plain", "compensated"])
    @pytest.mark.parametrize("trials", [1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1, 33])
    def test_match_full_array_reference(self, trials, compensate):
        scenario = small_scenario(
            trials=trials, base_seed=12345, phasor=Phasor(10.0, 0.3, 50.0),
            compensate=compensate, temperature_c=35.0,
        )
        r = monte_carlo(scenario)
        mean = r.trial_tve.mean(axis=0)
        std = r.trial_tve.std(axis=0, ddof=1) if trials > 1 else np.zeros_like(mean)
        k = DEFAULT_COVERAGE_FACTOR
        assert r.mean_tve.tobytes() == mean.tobytes()
        assert r.band_hi.tobytes() == (mean + k * std).tobytes()
        assert r.band_lo.tobytes() == np.maximum(mean - k * std, 0.0).tobytes()
        assert r.grand_mean_tve == float(r.trial_tve.mean())

        z = _relative_envelopes(scenario)
        rel_mag = np.abs(np.abs(z) - 1.0)
        phase_err = np.abs(np.angle(z))
        for got, want in (
            (r.grand_mean_mag_err, float(rel_mag.mean())),
            (r.grand_mean_phase_err, float(phase_err.mean())),
        ):
            assert abs(got - want) <= self.ULPS * math.ulp(want), (got, want)

    def test_phase_error_left_of_the_imaginary_axis(self):
        # a 2 rad AAF phase puts every envelope at Re(z) < 0, where arctan(im/re)
        # is off by pi: the kernel takes arctan2 there
        paper = paper_profile()
        chain = replace(paper, aaf_phase_urad=GaussianTerm(2e6, paper.aaf_phase_urad.std))
        scenario = small_scenario(chain=chain, trials=BLOCK_TRIALS + 1, base_seed=12345)
        r = monte_carlo(scenario)
        z = _relative_envelopes(scenario)
        assert (z.real < 0).all()
        want = float(np.abs(np.angle(z)).mean())
        assert abs(r.grand_mean_phase_err - want) <= self.ULPS * math.ulp(want)

    def test_tiny_positive_real_part_warns_nothing(self):
        # im/re overflows to +-inf, whose arctan is +-pi/2, without a RuntimeWarning
        z = np.array([[1e-310 + 1j, 5e-324 - 2j, 1.0 + 1e-300j, 0.5 + 0.5j]])
        want = float(np.abs(np.angle(z)).mean())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, phase_sum = mc._error_rows(z.copy(), np.empty(z.shape))
        assert abs(phase_sum / z.size - want) <= self.ULPS * math.ulp(want)


def _relative_envelopes(scenario):
    """Every trial's relative envelope ``z = env/ref``, each from the kernel on a one-row block."""
    engine = mc._Engine(scenario)
    draws = engine.draw(0, scenario.trials)
    ws = mc._Workspace(1, engine.samples)
    return np.array(
        [engine.envelopes(draws, i, i + 1, ws)[0][0].copy() for i in range(scenario.trials)]
    )


def _block_chains():
    paper = paper_profile()
    return {
        "paper": paper,
        "adc-noise": replace(paper, adc_noise_rms_uv=300.0),
        "end-code-clips": replace(paper, adc_vref_v=9.9),  # under a 10 V phasor
        "ideal-adc": replace(paper, adc_bits=None),
    }


class TestBlockBuffers:
    """A block run in one workspace's two buffers gives the bits of fresh, separate arrays.

    The engine writes the ADC samples into ``csum``'s memory and takes the
    error scratch in the block's own TVE rows; the reference gives
    ``_acquire_rows``, ``demod``, ``csum`` and the errors an array each.
    """

    @staticmethod
    def block(scenario, rows):
        """The engine and a freshly drawn block of ``rows`` trials, with fresh ADC noise generators."""
        engine = mc._Engine(scenario)
        return engine, engine.draw(0, rows)

    @staticmethod
    def reference_errors(z):
        """The TVE rows and summed errors of relative envelopes ``z``, in a scratch array of their own."""
        err = np.abs(z)
        err -= 1.0
        np.abs(err, out=err)
        mag_sum = float(err.sum())
        if z.real.min() > 0:
            with np.errstate(over="ignore"):
                err = np.arctan(z.imag / z.real)
        else:
            err = np.arctan2(z.imag, z.real)
        phase_sum = float(np.abs(err).sum())
        return np.abs(z - 1.0), mag_sum, phase_sum

    @pytest.mark.parametrize("compensate", [False, True], ids=["plain", "compensated"])
    @pytest.mark.parametrize("chain", _block_chains().keys())
    @pytest.mark.parametrize("rows", [1, BLOCK_TRIALS - 1, BLOCK_TRIALS, BLOCK_TRIALS + 1])
    def test_same_bits_as_separate_arrays(self, rows, chain, compensate):
        scenario = small_scenario(
            chain=_block_chains()[chain], phasor=Phasor(10.0, 0.3, 50.0), trials=rows,
            base_seed=7, compensate=compensate,
        )
        engine, draws = self.block(scenario, rows)
        ws = mc._Workspace(max(rows, BLOCK_TRIALS), engine.samples)
        ws.demod.fill(np.nan)  # what a previous block would leave, only louder
        ws.csum.fill(np.nan)
        z, clipped = engine.envelopes(draws, 0, rows, ws)
        tve_rows = np.empty(z.shape)
        sums = mc._error_rows(z, tve_rows)

        engine, draws = self.block(scenario, rows)
        a, b = _table_shape(engine.samples)
        demod = np.empty((rows, engine.samples), dtype=complex)
        separate = SimpleNamespace(
            adc=np.empty((rows, a * b)), demod=demod, csum=np.empty_like(demod)
        )
        z_ref, clipped_ref = engine.envelopes(draws, 0, rows, separate)
        tve_ref, *sums_ref = self.reference_errors(z_ref)

        assert (chain == "end-code-clips") == bool(clipped_ref.any())
        assert clipped.tobytes() == clipped_ref.tobytes()
        assert tve_rows.tobytes() == tve_ref.tobytes()
        assert [s.hex() for s in sums] == [s.hex() for s in sums_ref]


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


class TestWorkers:
    """The block kernels give the same bits on any number of worker threads."""

    @pytest.mark.parametrize("compensate", [False, True], ids=["plain", "compensated"])
    def test_results_do_not_depend_on_worker_count(self, monkeypatch, compensate):
        scenario = small_scenario(trials=5 * BLOCK_TRIALS + 3, compensate=compensate)

        def run(workers):
            # more workers than this host has CPUs is allowed, and harmless
            monkeypatch.setattr("sbcpmu.mc._workers", lambda blocks: workers)
            r = monte_carlo(scenario)
            return {f.name: _bits(getattr(r, f.name)) for f in fields(r)}

        want = run(1)
        assert run(2) == want
        assert run(3) == want
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            assert run(2) == want
            assert run(3) == want
        finally:
            sys.setswitchinterval(interval)


    def test_workers_stay_at_the_measured_count(self, monkeypatch):
        # a larger host gets no more workspaces than the benchmarked two
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: set(range(64)), raising=False)
        assert _workers(60) == 2
        assert _workers(1) == 1


def _traced_peak(scenario):
    """``monte_carlo(scenario)`` and the tracemalloc peak of the call."""
    tracemalloc.start()
    try:
        r = monte_carlo(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return r, peak


class TestMemory:
    # tracemalloc peaks over the traces, measured at 5 kHz and 1 s intervals:
    # 1.55x at 256 trials with 2 workers and 1.29x with 1, below the 1.71x
    # that a third, float workspace buffer gives with 2; the draws of every
    # trial, held from the start of a run, add about 100 bytes a trial
    def test_peak_is_bounded_by_the_traces(self):
        # 256 reference trials: the engine keeps the float64 result rows plus
        # one block workspace per worker, never every trial's complex envelope
        r, peak = _traced_peak(small_scenario(trials=256, base_seed=0))
        assert peak <= 1.65 * r.trial_tve.nbytes

    @pytest.mark.parametrize("trials", [4 * BLOCK_TRIALS, 16 * BLOCK_TRIALS])
    def test_scratch_does_not_grow_with_trials(self, trials):
        # beyond the traces, one block workspace of two complex (BLOCK_TRIALS,
        # points) buffers per worker, and the draws and the running kernels'
        # tables: 2.21-2.23 and 2.21-2.24 buffers per worker at 64 and 256
        # trials with 2 workers and 2.35 and 2.37 with 1.  The workspaces are
        # freed before the model curve; its temporaries on top of them gave
        # 2.38 and 2.70, and a third, float workspace buffer 2.88 and 3.21,
        # both above the bound
        r, peak = _traced_peak(small_scenario(trials=trials, base_seed=0, compensate=True))
        block = BLOCK_TRIALS * r.t_in_pps.size * np.dtype(complex).itemsize
        workers = _workers(-(-trials // BLOCK_TRIALS))
        assert peak - r.trial_tve.nbytes <= workers * 2.55 * block


class TestWriteRun:
    def test_artifacts(self, tmp_path):
        r = monte_carlo(small_scenario(trials=2))
        write_run(r, tmp_path / "run")
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == ["summary.csv", "trials.npy"]
        trials = np.load(tmp_path / "run" / "trials.npy", allow_pickle=False)
        assert trials.dtype == np.float64
        assert trials.shape == (2, r.t_in_pps.size)
        assert trials.flags.c_contiguous
        assert np.array_equal(trials, r.trial_tve)
        assert trials.tobytes() == r.trial_tve.tobytes()
        summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
        assert summary[0] == "t_in_pps_s,mean_tve,band_lo,band_hi,model_tve,model_band"
        assert trials.shape[1] == len(summary) - 1

    def test_columns_follow_summary_times(self, tmp_path):
        r = monte_carlo(small_scenario(trials=2))
        write_run(r, tmp_path / "run")
        summary = np.loadtxt(tmp_path / "run" / "summary.csv", delimiter=",", skiprows=1)
        assert np.array_equal(summary[:, 0], r.t_in_pps)
        assert np.load(tmp_path / "run" / "trials.npy").shape[1] == summary.shape[0]

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            write_run(monte_carlo(small_scenario(trials=2)), tmp_path / name)
        for fname in ("trials.npy", "summary.csv"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()


def envelope(phasor=Phasor(10.0, 0.0, 50.0), chain=None, **scenario):
    """One trial's envelope times and values, on a chain with nothing random (identity by default)."""
    chain = identity_chain() if chain is None else chain
    times, _, env, _, _ = run_trial(McScenario(chain=chain, phasor=phasor, trials=1, **scenario), 0)
    return times, env


class TestFourierPlanGrid:
    """The plan is built from the grid n*T_s alone: sample count, sample period and frequency."""

    # n_win, times[0] (as float.hex) and times.size at (rate, frequency), pinned
    # to the values of the plan built from timestamps and their median step
    @pytest.mark.parametrize(
        "rate, frequency, n_win, first, windows",
        [
            (5000.0, 50.0, 100, "0x1.47ae147ae147bp-7", 4900),
            (4000.0, 60.0, 67, "0x1.1111111111111p-7", 3933),
            (10000.0, 50.0, 200, "0x1.47ae147ae147bp-7", 9800),
            (50000.0, 50.0, 1000, "0x1.47ae147ae147bp-7", 49000),
        ],
    )
    def test_grid(self, rate, frequency, n_win, first, windows):
        plan = _FourierPlan.build(round(rate), 1.0 / rate, frequency, 1.0)
        assert (plan.n_win, plan.times[0].hex(), plan.times.size) == (n_win, first, windows)
        assert plan.weights.size == round(rate) - 1

    @pytest.mark.parametrize("rate, n_win", [(5025.0, 101), (5075.0, 102), (4975.0, 100)])
    def test_half_integer_ratio_rounds_up(self, rate, n_win):
        # 100.5, 101.5 and 99.5 samples per 50 Hz cycle
        assert _FourierPlan.build(round(rate), 1.0 / rate, 50.0, 1.0).n_win == n_win


class TestFourierPlanRows:
    @pytest.mark.parametrize("rows", [1, 3, 16])
    def test_row_prefix_sums_equal_2d_cumsum(self, rows):
        samples = 5000
        plan = _FourierPlan.build(samples, 2e-4, 50.0, 1.0)
        values = np.random.default_rng(rows).normal(size=(rows, samples))
        demod = np.empty((rows, samples), dtype=complex)
        got = plan.rows(values, demod, np.empty_like(demod))
        # the estimator with one 2-D cumsum along the rows
        csum = np.zeros_like(demod)
        np.cumsum(values[:, :-1] * plan.weights, axis=1, out=csum[:, 1:])
        windows, n_win = plan.times.size, plan.n_win
        want = csum[:, n_win : windows + n_win] - csum[:, :windows]
        assert got.tobytes() == want.tobytes()


class TestFourierPhasor:
    def test_pure_tone(self):
        _, env = envelope()
        assert np.allclose(np.abs(env), 10.0, rtol=1e-6)
        assert np.allclose(np.angle(env), 0.0, atol=1e-6)

    def test_round_trip_arbitrary_phasor(self):
        p = Phasor(3.7, -1.2, 50.0)
        _, env = envelope(p)
        assert np.allclose(np.abs(env), p.amplitude, rtol=1e-6)
        assert np.allclose(np.angle(env), p.phase, atol=1e-6)

    def test_dc_rejection(self):
        # a 1 V offset through an ideal ADC
        _, a = envelope()
        _, b = envelope(chain=ChainModel(adc_offset_uv=GaussianTerm(1e6)))
        assert np.max(np.abs(a - b)) / 10.0 < 1e-9

    def test_phase_ramp_from_deviation(self):
        # e_R = -16 ppm ramps the envelope phase at omega*e_R per second;
        # the last full window of the interval sits at its center time
        times, env = envelope(Phasor(1.0, 0.0, 50.0), ChainModel(timebase=TimebaseModel(-16.0, 0.0)))
        slope = 2 * np.pi * 50 * -16e-6
        assert np.angle(env[-1]) == pytest.approx(slope * times[-1], rel=0.01)
        # extrapolated to a full second this is the -5.03 mrad figure
        assert slope == pytest.approx(-5.03e-3, rel=0.01)

    def test_window_center_timestamps(self):
        times, _ = envelope()
        assert times[0] == pytest.approx(0.01)

    def test_discretization_bound(self):
        # rectangular-rule amplitude error <= (pi*f/F_s)^2/6 on a pure tone
        for rate in (5e3, 10e3, 50e3):
            _, env = envelope(nominal_rate=rate)
            err = np.max(np.abs(np.abs(env) - 10.0)) / 10.0
            assert err <= (math.pi * 50 / rate) ** 2 / 6 + 1e-12

    def test_unresolvable_window(self):
        with pytest.raises(EstimationError, match="unresolvable"):
            envelope(nominal_rate=400.0)  # 8 samples per cycle

    def test_too_short(self):
        with pytest.raises(EstimationError, match="less than one estimation window"):
            envelope(pps_period=0.01)


class TestTve:
    def test_zero(self):
        assert tve(10 + 0j, 10 + 0j) == 0.0

    def test_pure_phase_1_percent(self):
        assert tve(cmath.exp(1j * 10e-3), 1 + 0j) == pytest.approx(1e-2, rel=1e-4)

    def test_table_means_at_reset(self):
        z = cmath.exp(complex(-0.0044688, -0.0069204))
        assert tve(z, 1 + 0j) == pytest.approx(0.0082, abs=1e-4)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            tve(1 + 0j, 0j)

    @given(st.complex_numbers(max_magnitude=10), st.complex_numbers(min_magnitude=0.1, max_magnitude=10))
    def test_conjugation_symmetry(self, m, r):
        assert tve(np.conj(m), np.conj(r)) == pytest.approx(tve(m, r), rel=1e-12, abs=1e-12)

    @given(st.floats(-1e-2, 1e-2), st.floats(-1e-2, 1e-2))
    def test_small_error_decomposition(self, e_r, e_p):
        t = tve(cmath.exp(complex(e_r, e_p)), 1 + 0j)
        assert abs(t - math.hypot(e_r, e_p)) <= 1e-4


class TestFe:
    def test_unity_ratio(self):
        assert fe(50.0, 1.0) == 0.0

    def test_801_uhz(self):
        assert fe(50.0, 1 - 16.02e-6) == pytest.approx(801e-6, abs=1e-6)

    def test_sigma_band(self):
        assert fe(50.0, 1 - 3.67e-6) == pytest.approx(183.5e-6, abs=0.1e-6)

