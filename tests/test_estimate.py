import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbcpmu.blocks import BlockResponse
from sbcpmu.errors import EstimationError
from sbcpmu.estimate import (
    EstimationWindow,
    compensate,
    fe,
    fourier_phasor,
    tve,
)
from sbcpmu.signals import Phasor, Waveform, build_schedule, synthesize


def tone(amplitude=10.0, phase=0.0, freq=50.0, rate=5000.0, duration=1.0, dc=0.0):
    t = np.arange(round(rate * duration)) / rate
    return Waveform(times=t, values=amplitude * np.cos(2 * np.pi * freq * t + phase) + dc)


class TestFourierPhasor:
    def test_pure_tone(self):
        env = fourier_phasor(tone(), EstimationWindow(50.0))
        assert np.allclose(np.abs(env.values), 10.0, rtol=1e-6)
        assert np.allclose(np.angle(env.values), 0.0, atol=1e-6)

    def test_round_trip_arbitrary_phasor(self):
        p = Phasor(3.7, -1.2, 50.0)
        w = synthesize(p, build_schedule(5000.0, 1.0, [0.0], 1.0))
        env = fourier_phasor(w, EstimationWindow(50.0))
        assert np.allclose(np.abs(env.values), p.amplitude, rtol=1e-6)
        assert np.allclose(np.angle(env.values), p.phase, atol=1e-6)

    def test_dc_rejection(self):
        a = fourier_phasor(tone(), EstimationWindow(50.0))
        b = fourier_phasor(tone(dc=1.0), EstimationWindow(50.0))
        assert np.max(np.abs(a.values - b.values)) / 10.0 < 1e-9

    def test_phase_ramp_from_deviation(self):
        # e_R = -16 ppm ramps the envelope phase at omega*e_R per second;
        # the last full window of the interval sits at its center time
        s = build_schedule(5000.0, 1.0 - 16e-6, [0.0], 1.0)
        w = synthesize(Phasor(1.0, 0.0, 50.0), s)
        device = Waveform(times=s.nominal_instants(), values=w.values)
        env = fourier_phasor(device, EstimationWindow(50.0))
        slope = 2 * np.pi * 50 * -16e-6
        assert np.angle(env.values[-1]) == pytest.approx(slope * env.times[-1], rel=0.01)
        # extrapolated to a full second this is the -5.03 mrad figure
        assert slope == pytest.approx(-5.03e-3, rel=0.01)

    def test_window_center_timestamps(self):
        env = fourier_phasor(tone(), EstimationWindow(50.0))
        assert env.times[0] == pytest.approx(0.01)

    def test_discretization_bound(self):
        # rectangular-rule amplitude error <= (pi*f/F_s)^2/6 on a pure tone
        for rate in (5e3, 10e3, 50e3):
            env = fourier_phasor(tone(rate=rate), EstimationWindow(50.0))
            err = np.max(np.abs(np.abs(env.values) - 10.0)) / 10.0
            assert err <= (math.pi * 50 / rate) ** 2 / 6 + 1e-12

    def test_unresolvable_window(self):
        w = tone(rate=400.0)  # 8 samples per cycle
        with pytest.raises(EstimationError, match="unresolvable"):
            fourier_phasor(w, EstimationWindow(50.0))

    def test_too_short(self):
        w = tone(duration=0.01)
        with pytest.raises(EstimationError):
            fourier_phasor(w, EstimationWindow(50.0))


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
