import json
import math
import platform
import sys
import threading
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sbcpmu.blocks import (
    BlockResponse,
    ChainModel,
    GaussianTerm,
    PllDelayModel,
    TimebaseModel,
    expected_response,
    identity_chain,
    paper_profile,
    timebase_response,
)
from sbcpmu import mc
from sbcpmu.errors import ConfigError, EstimationError, ScheduleGuardError
from sbcpmu.mc import (
    BLOCK_TRIALS,
    _workers,
    DEFAULT_COVERAGE_FACTOR,
    McScenario,
    UncertaintyBudget,
    budget,
    model_curve,
    monte_carlo,
    run_trial,
    write_run,
)
from sbcpmu.signals import Phasor

OMEGA_50 = 2 * math.pi * 50


class TestBudget:
    def test_combination_rules(self):
        b = budget(
            [
                ("aaf", BlockResponse(1.0, 0.0, 3e-6, 4e-6)),
                ("adc", BlockResponse(1.0, 0.0, 4e-6, 3e-6)),
            ]
        )
        assert b.worst_case == (pytest.approx(7e-6), pytest.approx(7e-6))
        assert b.quadrature == (pytest.approx(5e-6), pytest.approx(5e-6))

    def test_worst_case_dominates(self):
        b = UncertaintyBudget(contributions=(("a", 1e-6, 2e-6), ("b", 3e-6, 1e-6)))
        assert b.worst_case[0] >= b.quadrature[0]
        assert b.worst_case[1] >= b.quadrature[1]

    def test_json(self):
        b = budget([("aaf", BlockResponse(1.0, 0.0, 1e-6, 2e-6))], k=3.3)
        d = b.to_json()
        assert d["coverage_factor"] == 3.3
        assert d["contributions"][0]["block"] == "aaf"


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

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan])
    @pytest.mark.parametrize("field", ["nominal_rate", "pps_period"])
    def test_rate_and_period_must_be_positive(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be > 0$"):
            small_scenario(**{field: value})

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
            lambda chain: timebase_response(chain.timebase, OMEGA_50, 0.5, temperature=200.0),
        ],
        ids=["expected_response", "model_curve", "timebase_response"],
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


class TestBenchmarkScenario:
    """The benchmark's mc-batch scenario still gives the grand mean its check expects."""

    EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"

    def test_grand_mean_tve_matches_expected(self):
        expected = json.loads(self.EXPECTED.read_text())["full"]["mc-batch"]["12345"]
        scenario = McScenario(
            chain=paper_profile(), phasor=Phasor(10.0, 0.0, 50.0), nominal_rate=5000.0,
            trials=960, compensate=True, temperature_c=35.0, base_seed=12345,
        )
        r = monte_carlo(scenario)
        assert r.trials == expected["trials"]
        assert math.isclose(r.grand_mean_tve, expected["grand_mean_tve"], rel_tol=1e-9, abs_tol=0.0)


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

        # full-size error arrays, rebuilt trial by trial from the envelopes
        ref = scenario.phasor.value
        env = np.array([run_trial(scenario, i)[2] for i in range(trials)])
        rel_mag = np.abs(np.abs(env) / abs(ref) - 1.0)
        phase_err = np.abs(np.angle(env / ref))
        for got, want in (
            (r.grand_mean_mag_err, float(rel_mag.mean())),
            (r.grand_mean_phase_err, float(phase_err.mean())),
        ):
            assert abs(got - want) <= self.ULPS * math.ulp(want), (got, want)


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
    # tracemalloc peaks over the traces with 2 workers, measured at 5 kHz and
    # 1 s intervals: 1.72x at 256 trials and 1.19x at 960
    def test_peak_is_bounded_by_the_traces(self):
        # 256 reference trials: the engine keeps the float64 result rows plus
        # one block workspace per worker, never every trial's complex envelope
        r, peak = _traced_peak(small_scenario(trials=256, base_seed=0))
        assert peak <= 2 * r.trial_tve.nbytes

    @pytest.mark.parametrize("trials", [4 * BLOCK_TRIALS, 16 * BLOCK_TRIALS])
    def test_scratch_does_not_grow_with_trials(self, trials):
        # beyond the traces, one block workspace per worker: about 2.9 complex
        # (BLOCK_TRIALS, points) buffers per worker at any trial count
        r, peak = _traced_peak(small_scenario(trials=trials, base_seed=0, compensate=True))
        block = BLOCK_TRIALS * r.t_in_pps.size * np.dtype(complex).itemsize
        workers = _workers(-(-trials // BLOCK_TRIALS))
        assert peak - r.trial_tve.nbytes <= workers * 3.5 * block


class TestWriteRun:
    def test_artifacts(self, tmp_path):
        r = monte_carlo(small_scenario(trials=2))
        write_run(r, tmp_path / "run", {"seed": 42})
        trials = np.load(tmp_path / "run" / "trials.npy", allow_pickle=False)
        assert trials.dtype == np.float64
        assert trials.shape == (2, r.t_in_pps.size)
        assert trials.flags.c_contiguous
        assert np.array_equal(trials, r.trial_tve)
        assert trials.tobytes() == r.trial_tve.tobytes()
        summary = (tmp_path / "run" / "summary.csv").read_text().splitlines()
        assert summary[0] == "t_in_pps_s,mean_tve,band_lo,band_hi,model_tve,model_band"
        assert trials.shape[1] == len(summary) - 1
        assert not (tmp_path / "run" / "trials.csv").exists()
        manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["trials"] == 2
        assert manifest["compensated"] is False
        assert manifest["saturated_samples"] == 0
        assert manifest["max_trial_saturated_samples"] == 0
        assert manifest["max_guard_margin"] == r.max_guard_margin
        assert manifest["versions"] == {
            "python": platform.python_version(),
            "numpy": np.__version__,
        }

    def test_columns_follow_summary_times(self, tmp_path):
        r = monte_carlo(small_scenario(trials=2))
        write_run(r, tmp_path / "run", {})
        summary = np.loadtxt(tmp_path / "run" / "summary.csv", delimiter=",", skiprows=1)
        assert np.array_equal(summary[:, 0], r.t_in_pps)
        assert np.load(tmp_path / "run" / "trials.npy").shape[1] == summary.shape[0]

    def test_byte_identical_reruns(self, tmp_path):
        for name in ("a", "b"):
            write_run(monte_carlo(small_scenario(trials=2)), tmp_path / name, {"seed": 42})
        for fname in ("trials.npy", "summary.csv", "manifest.json"):
            assert (tmp_path / "a" / fname).read_bytes() == (
                tmp_path / "b" / fname
            ).read_bytes()
