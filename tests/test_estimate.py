import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbcpmu.blocks import (
    ChainModel,
    GaussianTerm,
    Phasor,
    TimebaseModel,
    expected_response,
    identity_chain,
    wrap_phase,
)
from sbcpmu.errors import EstimationError
from sbcpmu.mc import McScenario, _FourierPlan, fe, run_trial, tve


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
