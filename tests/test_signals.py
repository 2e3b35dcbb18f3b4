import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbcpmu.errors import ScheduleGuardError
from sbcpmu.signals import (
    Phasor,
    Waveform,
    build_schedule,
    ideal_envelope,
    synthesize,
    wrap_phase,
)


class TestPhasor:
    def test_value(self):
        p = Phasor(10.0, 0.0, 50.0)
        assert p.value == 10.0 + 0.0j
        assert p.omega == pytest.approx(2 * math.pi * 50)

    def test_phase_normalized(self):
        p = Phasor(1.0, 3 * math.pi, 50.0)
        assert -math.pi < p.phase <= math.pi

    def test_invalid(self):
        with pytest.raises(ValueError):
            Phasor(-1.0, 0.0, 50.0)
        with pytest.raises(ValueError):
            Phasor(1.0, 0.0, 0.0)

    @given(st.floats(-100, 100))
    def test_wrap_phase_range(self, phi):
        w = wrap_phase(phi)
        assert -math.pi < w <= math.pi
        # wrapping preserves the angle modulo 2*pi
        assert math.isclose(math.cos(w), math.cos(phi), abs_tol=1e-9)
        assert math.isclose(math.sin(w), math.sin(phi), abs_tol=1e-9)


class TestSchedule:
    def test_samples_per_interval(self):
        s = build_schedule(5000.0, 1.0, [0.0], 1.0)
        assert s.samples_per_interval == 5000

    def test_guard_accepts_paper_deviation(self):
        # |R-1|*N_s = 16e-6*5000 = 0.08 < 1
        s = build_schedule(5000.0, 1.0 - 16.0e-6, [0.0], 1.0)
        assert s.deviation_ratio == 1.0 - 16.0e-6

    def test_guard_rejects(self):
        # 2.5e-5 * 50000 = 1.25 >= 1
        with pytest.raises(ScheduleGuardError):
            build_schedule(50e3, 1.0 + 2.5e-5, [0.0], 1.0)

    def test_realized_instants(self):
        s = build_schedule(5000.0, 1.0 + 1e-5, [3e-6, 5e-6], 1.0)
        t = s.realized_instants()
        assert t.size == 10000
        assert t[0] == pytest.approx(3e-6)
        # second interval restarts at the PPS epoch plus its own delay
        assert t[5000] == pytest.approx(1.0 + 5e-6)
        assert t[1] - t[0] == pytest.approx(2e-4 * (1.0 + 1e-5))

    def test_nominal_instants_uniform(self):
        s = build_schedule(5000.0, 1.0 + 1e-5, [3e-6], 1.0)
        dt = np.diff(s.nominal_instants())
        assert np.allclose(dt, 2e-4)


class TestSynthesize:
    def test_ideal_sampling(self):
        s = build_schedule(5000.0, 1.0, [0.0], 1.0)
        w = synthesize(Phasor(10.0, 0.0, 50.0), s)
        n = np.arange(5000)
        assert np.allclose(w.values, 10 * np.cos(2 * math.pi * 50 * n * 200e-6))
        assert w.values[0] == pytest.approx(10.0)

    def test_quadrature_first_sample(self):
        s = build_schedule(5000.0, 1.0, [0.0], 1.0)
        w = synthesize(Phasor(1.0, math.pi / 2, 50.0), s)
        assert w.values[0] == pytest.approx(0.0, abs=1e-12)

    def test_delayed_first_sample(self):
        s = build_schedule(5000.0, 1.0 + 16e-6, [7.93e-6], 1.0)
        w = synthesize(Phasor(1.0, 0.0, 50.0), s)
        assert w.values[0] == pytest.approx(math.cos(2 * math.pi * 50 * 7.93e-6))
        assert w.values[0] == pytest.approx(0.99999690, abs=1e-8)

    def test_times_strictly_increasing(self):
        s = build_schedule(5000.0, 1.0 - 16e-6, [5e-6, 1e-6, 9e-6], 1.0)
        assert np.all(np.diff(s.realized_instants()) > 0)
        assert np.all(np.diff(synthesize(Phasor(1, 0, 50), s).times) > 0)

    @given(st.floats(0.1, 10.0))
    def test_linearity(self, alpha):
        s = build_schedule(1000.0, 1.0, [0.0], 0.1)
        a = synthesize(Phasor(1.0, 0.3, 50.0), s)
        b = synthesize(Phasor(alpha, 0.3, 50.0), s)
        assert np.allclose(b.values, alpha * a.values)


class TestIdealEnvelope:
    def test_constant_value(self):
        env = ideal_envelope(Phasor(10.0, 0.0, 50.0), np.linspace(0, 1, 11))
        assert np.all(env.values == 10 + 0j)

    def test_pi_over_4(self):
        env = ideal_envelope(Phasor(1.0, math.pi / 4, 50.0), [0.0, 0.5])
        assert np.allclose(env.values, (math.sqrt(2) / 2) * (1 + 1j))

    def test_real_part_recovery(self):
        s = build_schedule(5000.0, 1.0, [0.0], 1.0)
        p = Phasor(3.0, 0.7, 50.0)
        w = synthesize(p, s)
        env = ideal_envelope(p, w.times)
        recon = np.real(env.values * np.exp(1j * p.omega * w.times))
        assert np.allclose(recon, w.values)


class TestCsv:
    def test_non_monotonic_rejected(self):
        with pytest.raises(ValueError):
            Waveform(times=[0.0, 2.0, 1.0], values=[0.0, 0.0, 0.0])
