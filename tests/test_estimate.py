import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbcpmu.blocks import BlockResponse, ChainModel, GaussianTerm, TimebaseModel, identity_chain
from sbcpmu.errors import EstimationError
from sbcpmu.estimate import compensate, fe, tve
from sbcpmu.mc import McScenario, run_trial
from sbcpmu.signals import Phasor


def envelope(phasor=Phasor(10.0, 0.0, 50.0), chain=None, **scenario):
    """One trial's envelope times and values, on a chain with nothing random (identity by default)."""
    chain = identity_chain() if chain is None else chain
    times, _, env, _, _ = run_trial(McScenario(chain=chain, phasor=phasor, trials=1, **scenario), 0)
    return times, env


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


class TestCompensate:
    def test_exact_inverse(self):
        lam = BlockResponse(magnitude=0.9955, phase=-6.9e-3)
        x = 10 * cmath.exp(1j * 0.3)
        z = lam.factor * x
        out = compensate(z, lam, reference=x)
        assert abs(out.value - x) / abs(x) < 1e-12
        assert out.magnitude_error == pytest.approx(0.0, abs=1e-11)
        assert out.phase_error == pytest.approx(0.0, abs=1e-12)

    def test_residual_gain_error(self):
        # compensator off by +134 ppm in magnitude leaves 134 ppm TVE
        true = BlockResponse(magnitude=1.0, phase=0.0)
        believed = BlockResponse(magnitude=math.exp(-134e-6), phase=0.0)
        z = true.factor * (1 + 0j)
        out = compensate(z, believed, reference=1 + 0j)
        assert tve(out.value, 1 + 0j) == pytest.approx(134e-6, rel=1e-3)

    def test_time_dependent_phase(self):
        lam = BlockResponse(magnitude=1.0, phase=0.0, time_slope_phase=-5.03e-3)
        z = cmath.exp(1j * -5.03e-3 * 0.5)
        out = compensate(z, lam, reference=1 + 0j, t=0.5)
        assert tve(out.value, 1 + 0j) < 1e-12

    @given(
        st.floats(0.5, 2.0),
        st.floats(-3.0, 3.0),
        st.floats(0.1, 20.0),
        st.floats(-3.0, 3.0),
    )
    def test_exactness_property(self, lam_mag, lam_phase, amp, phase):
        lam = BlockResponse(magnitude=lam_mag, phase=lam_phase)
        x = amp * cmath.exp(1j * phase)
        out = compensate(lam.factor * x, lam, reference=x)
        assert abs(out.value - x) / abs(x) < 1e-12
