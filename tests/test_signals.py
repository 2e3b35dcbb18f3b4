import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sbcpmu import mc
from sbcpmu.blocks import ChainModel, TimebaseModel, _acquire_rows, _table_shape, identity_chain
from sbcpmu.errors import ScheduleGuardError
from sbcpmu.mc import McScenario, run_trial
from sbcpmu.signals import Phasor, guard_margin, wrap_phase


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
    """The engine's nominal sampling grid and the pulse-count guard."""

    def test_samples_per_interval(self):
        scenario = McScenario(chain=identity_chain(), phasor=Phasor(10.0, 0.0, 50.0))
        assert mc._Engine(scenario).samples == 5000

    def test_guard_accepts_paper_deviation(self):
        # |R-1|*N_s = 16e-6*5000 = 0.08 < 1
        assert guard_margin(1.0 - 16.0e-6, 5000) == pytest.approx(0.08)

    def test_guard_rejects(self):
        # 2.5e-5 * 50000 = 1.25 >= 1
        with pytest.raises(ScheduleGuardError):
            guard_margin(1.0 + 2.5e-5, 50000)

    def test_nominal_instants_uniform(self):
        # the device labels its samples n*T_s whatever its deviation ratio R
        chain = ChainModel(timebase=TimebaseModel(10.0, 0.0))
        times = run_trial(McScenario(chain=chain, phasor=Phasor(1.0, 0.0, 50.0), trials=1), 0)[0]
        assert np.allclose(np.diff(times), 2e-4)


def sampled(phasor, start=0.0, ratio=1.0, rate=5000.0, period=1.0):
    """``phasor`` sampled at ``start + n*R/rate`` by the forward chain with an identity chain."""
    samples = round(rate * period)
    a, b = _table_shape(samples)
    values, _ = _acquire_rows(
        phasor, identity_chain(), 0.0, 0.0, 0.0, 0.0, start, ratio / rate, samples, [None],
        np.empty((1, a * b)), np.empty(a * b),
    )
    return values[0]


class TestSynthesize:
    """The sinusoid the forward chain samples, through an identity chain."""

    def test_ideal_sampling(self):
        values = sampled(Phasor(10.0, 0.0, 50.0))
        n = np.arange(5000)
        assert np.allclose(values, 10 * np.cos(2 * math.pi * 50 * n * 200e-6))
        assert values[0] == pytest.approx(10.0)

    def test_quadrature_first_sample(self):
        assert sampled(Phasor(1.0, math.pi / 2, 50.0))[0] == pytest.approx(0.0, abs=1e-12)

    def test_delayed_first_sample(self):
        first = sampled(Phasor(1.0, 0.0, 50.0), start=7.93e-6, ratio=1.0 + 16e-6)[0]
        assert first == pytest.approx(math.cos(2 * math.pi * 50 * 7.93e-6))
        assert first == pytest.approx(0.99999690, abs=1e-8)

    @given(st.floats(0.1, 10.0))
    def test_linearity(self, alpha):
        a = sampled(Phasor(1.0, 0.3, 50.0), rate=1000.0, period=0.1)
        b = sampled(Phasor(alpha, 0.3, 50.0), rate=1000.0, period=0.1)
        assert np.allclose(b, alpha * a)
