import cmath
import math

import numpy as np
import pytest

from conftest import energy_grid
from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Hulthen,
    ManningRosen,
    PhysicalConstants,
    RectBarrier,
    Sech2,
    Step,
    Tanh,
    asymptotic_wavenumbers,
    evaluate,
    resonances,
    scattering_limits,
    step_bound,
    transmission_amplitude,
    transmission_probability,
)
from qnf1d.errors import DomainError, NotAScatteringPotential, RegimeError

C = PhysicalConstants()

NINE_SCATTERING = [
    Delta(0.7),
    DoubleDelta(0.8, 1.2),
    AsymDoubleDelta(0.6, 1.1, 0.8),
    Step(1.2),
    RectBarrier(1.5, 0.7),
    AsymRectBarrier(0.2, 2.0, -0.3, 0.6),
    Tanh(0.0, 2.0, 1.0),
    Sech2(-1.0, 1.0),
    Eckart(0.0, 2.0, -1.0, 1.0),
]


class TestEvaluate:
    def test_sech2_at_origin(self):
        assert evaluate(Sech2(-1.3, 0.8), 0.0) == pytest.approx(-1.3, abs=1e-15)

    def test_tanh_midpoint(self):
        assert evaluate(Tanh(0.5, 2.5, 1.0), 0.0) == pytest.approx(1.5, abs=1e-15)

    def test_eckart_asymptotes(self):
        spec = Eckart(0.5, 3.0, -1.0, 1.0)
        assert evaluate(spec, -40.0) == pytest.approx(0.5, abs=1e-12)
        assert evaluate(spec, 40.0) == pytest.approx(3.0, abs=1e-12)

    def test_step_and_barrier(self):
        assert evaluate(Step(2.0), -1.0) == 0.0
        assert evaluate(Step(2.0), 1.0) == 2.0
        assert evaluate(RectBarrier(1.5, 1.0), 0.5) == 1.5
        assert evaluate(RectBarrier(1.5, 1.0), 2.0) == 0.0

    def test_half_line_domains(self):
        with pytest.raises(DomainError):
            evaluate(ManningRosen(1.0, 0.5, 1.0), -1.0)
        with pytest.raises(DomainError):
            evaluate(Hulthen(1.0, 1.0), 0.0)

    def test_vectorized(self):
        xs = np.linspace(-3, 3, 7)
        vals = evaluate(Sech2(-1.0, 1.0), xs)
        assert vals.shape == xs.shape


class TestWavenumbers:
    def test_free_step(self):
        km, kp = asymptotic_wavenumbers(Step(0.0), 1.0, C)
        assert km == pytest.approx(math.sqrt(2.0))
        assert kp == pytest.approx(math.sqrt(2.0))

    def test_tanh_evanescent_side(self):
        km, kp = asymptotic_wavenumbers(Tanh(0.0, 2.0, 1.0), 1.0, C)
        assert km == pytest.approx(math.sqrt(2.0))
        assert kp == pytest.approx(1j * math.sqrt(2.0))

    def test_eckart_numbers(self):
        km, kp = asymptotic_wavenumbers(Eckart(1.0, 3.0, -0.5, 1.0), 5.0, C)
        assert km == pytest.approx(math.sqrt(8.0))
        assert kp == pytest.approx(2.0)

    def test_non_scattering_raises(self):
        with pytest.raises(NotAScatteringPotential):
            asymptotic_wavenumbers(Hulthen(1.0, 1.0), 1.0, C)


class TestAmplitudes:
    def test_delta_zero_coupling(self):
        assert transmission_amplitude(Delta(0.0), 1.3, C).t == pytest.approx(1.0)

    def test_delta_at_k0(self):
        # k0 = 1 (alpha = 1, p2 = 2): t = 1/(1 - i) = (1 + i)/2
        amp = transmission_amplitude(Delta(1.0), 1.0, C)
        assert amp.t == pytest.approx(0.5 + 0.5j, abs=1e-15)

    def test_double_delta_merges_to_single(self):
        k = 0.9 + 0.2j
        t_single = transmission_amplitude(Delta(1.0), k, C).t
        errs = []
        for a in (1e-4, 5e-5):
            t_dd = transmission_amplitude(DoubleDelta(0.5, a), k, C).t
            errs.append(abs(t_dd - t_single))
        assert errs[1] < 0.6 * errs[0]
        assert errs[0] < 1e-3

    def test_asym_collapses_to_single(self):
        k = 1.1
        t_single = transmission_amplitude(Delta(0.9), k, C).t
        t_asym = transmission_amplitude(AsymDoubleDelta(0.3, 0.6, 1e-6), k, C).t
        assert abs(t_asym - t_single) < 1e-5

    def test_zero_wavenumber_rejected(self):
        with pytest.raises(DomainError):
            transmission_amplitude(Delta(1.0), 0.0, C)

    @pytest.mark.parametrize("spec", NINE_SCATTERING, ids=lambda s: type(s).__name__)
    def test_probability_is_squared_amplitude(self, spec):
        v_minus, _ = scattering_limits(spec, C)
        for e in energy_grid(spec, C, points=50):
            e = float(e)
            T = transmission_probability(spec, e, C)
            k = math.sqrt(C.p2 * (e - v_minus))
            t = transmission_amplitude(spec, k, C).t
            assert abs(T - abs(t) ** 2) < 1e-10

    @pytest.mark.parametrize("spec", NINE_SCATTERING, ids=lambda s: type(s).__name__)
    def test_probability_bounds(self, spec):
        for e in energy_grid(spec, C, points=50):
            T = transmission_probability(spec, float(e), C)
            assert -1e-12 <= T <= 1.0 + 1e-12

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            transmission_probability(Step(2.0), 1.0, C)

    def test_asym_dd_two_displayed_forms_agree(self):
        # the compact form against the expanded cos(4ka)/sin(4ka) display
        spec = AsymDoubleDelta(0.6, 1.1, 0.8)
        kp, km = 0.6, 1.1
        for e in energy_grid(spec, C, points=25):
            e = float(e)
            k = math.sqrt(C.p2 * e)
            t1 = transmission_probability(spec, e, C)
            num = k**4
            den = (
                k**4
                + k**2 * (kp**2 + km**2)
                + 2.0 * kp**2 * km**2
                + 2.0 * kp * km * (
                    (k**2 - kp * km) * math.cos(4 * k * spec.a)
                    + k * (kp + km) * math.sin(4 * k * spec.a)
                )
            )
            assert t1 == pytest.approx(num / den, abs=1e-12)

    def test_barrier_top(self):
        # at E = V0 the middle-region wavenumber is 0: T and t are their limits
        assert transmission_probability(RectBarrier(1.0, 1.0), 1.0, C) == pytest.approx(
            1.0 / 3.0, abs=1e-15)
        t = transmission_amplitude(RectBarrier(2.0, 1.0), 2.0, C).t
        # e^{4i} / (1 + 2i), evaluated with mpmath
        assert abs(t - (-0.43344972229589368 + 0.11009694928385912j)) < 1e-12

    def test_rect_tunneling_regime(self):
        # 0 < E < V0 is still scattering (asymptotes at zero)
        T = transmission_probability(RectBarrier(2.0, 1.0), 0.5, C)
        assert 0.0 < T < 1.0


class TestLimits:
    def _first_order_tol(self, f, eps):
        # estimated first-order coefficient from a Richardson step
        return 3.0 * abs(f(2 * eps) - f(eps)) / eps + 1e-13

    def test_double_delta_to_delta(self):
        e = 1.7
        k = math.sqrt(C.p2 * e)
        target = transmission_probability(Delta(1.0), e, C)

        def f(a):
            return transmission_probability(DoubleDelta(0.5, a), e, C)

        eps = 1e-6
        tol = self._first_order_tol(f, eps) * eps
        assert abs(f(eps) - target) <= max(tol, 1e-8)

    def test_eckart_to_tanh(self):
        e = 3.1
        target = transmission_probability(Tanh(0.0, 2.0, 1.0), e, C)

        def f(v0):
            return transmission_probability(Eckart(0.0, 2.0, v0, 1.0), e, C)

        eps = 1e-6
        tol = self._first_order_tol(f, eps) * eps
        assert abs(f(eps) - target) <= max(tol, 1e-8)

    def test_eckart_to_sech2(self):
        e = 2.3
        target = transmission_probability(Sech2(-1.0, 1.0), e, C)

        def f(dv):
            return transmission_probability(Eckart(0.0, dv, -1.0, 1.0), e, C)

        eps = 1e-6
        tol = self._first_order_tol(f, eps) * eps
        assert abs(f(eps) - target) <= max(tol, 1e-8)

    def test_tanh_flat_limit_is_free(self):
        assert transmission_probability(Tanh(1.0, 1.0, 1.0), 2.0, C) == pytest.approx(1.0)


class TestStepBound:
    def test_barrier_configuration_bound(self):
        spec = AsymRectBarrier(0.2, 2.0, -0.3, 0.6)
        for e in energy_grid(spec, C, points=60):
            e = float(e)
            assert transmission_probability(spec, e, C) <= step_bound(spec, e, C) + 1e-12


class TestResonances:
    def test_no_resonance_families(self):
        assert resonances(Step(1.0), 10, C) == []
        assert resonances(Delta(1.0), 10, C) == []
        assert resonances(Tanh(0.0, 1.0, 1.0), 10, C) == []

    def test_rect_barrier_family(self):
        spec = RectBarrier(1.0, 1.0)
        entries = resonances(spec, 5, C)
        assert entries[0].E == pytest.approx(1.0 + math.pi**2 / 8.0)
        for e in entries:
            assert e.kind == "exact"
            assert transmission_probability(spec, e.E, C) == pytest.approx(1.0, abs=1e-10)

    def test_attractive_rect_skips_subthreshold(self):
        spec = RectBarrier(-30.0, 1.0)
        entries = resonances(spec, 5, C)
        assert all(e.E > 0 for e in entries)
        assert len(entries) < 5

    def test_double_delta_roots(self):
        spec = DoubleDelta(1.0, 1.0)  # k0 = m alpha / hbar^2 = 1
        entries = resonances(spec, 8, C)
        assert entries, "expected resonance roots"
        for e in entries:
            assert transmission_probability(spec, e.E, C) == pytest.approx(1.0, abs=1e-10)
            # k = -k0 tan(2 k a) at the root
            assert e.k + 1.0 * math.tan(2.0 * e.k * spec.a) == pytest.approx(0.0, abs=1e-9)
        high = entries[-1]
        assert 2.0 * high.k * spec.a == pytest.approx(
            (high.index + 0.5) * math.pi, abs=0.2
        )

    def test_asym_double_delta_approximate(self):
        spec = AsymDoubleDelta(0.4, 0.7, 1.0)
        entries = resonances(spec, 6, C)
        for e in entries:
            assert e.kind == "approximate"
            assert 2.0 * e.k * spec.a == pytest.approx((e.index + 0.5) * math.pi)
            assert 0.0 < e.T < 1.0
        # the approximate resonances become asymptotically exact
        assert entries[-1].T > entries[0].T
        assert entries[-1].T > 0.99

    def test_asym_rect_pseudo(self):
        spec = AsymRectBarrier(0.2, 2.0, -0.3, 0.6)
        entries = resonances(spec, 5, C)
        for e in entries:
            assert e.kind == "pseudo"
            assert e.E == pytest.approx(
                spec.V2 + C.h2_2m * (e.index * math.pi / (2 * spec.a)) ** 2
            )
            T = transmission_probability(spec, e.E, C)
            assert T / step_bound(spec, e.E, C) == pytest.approx(1.0, abs=1e-10)

    def test_sech2_parameter_family(self):
        entries = resonances(Sech2(-1.0, 1.0), 3, C)
        assert [e.parameter for e in entries] == pytest.approx([-1.0, -3.0, -6.0])
        for e in entries:
            assert e.kind == "parameter_condition"


class TestRelativisticMode:
    def test_hbar2_over_2m_is_unity(self):
        c = PhysicalConstants(hbar=3.0, mass=7.0, mode="relativistic")
        assert c.h2_2m == 1.0

    def test_delta_amplitude(self):
        c = PhysicalConstants(mode="relativistic")
        # k0 = alpha/2 under hbar^2/(2m) = 1
        amp = transmission_amplitude(Delta(2.0), 1.0, c)
        assert amp.t == pytest.approx(0.5 + 0.5j, abs=1e-15)
