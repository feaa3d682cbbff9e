import cmath
import dataclasses
import math
import warnings

import mpmath
import numpy as np
import pytest

from conftest import energy_grid
from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Hua,
    Hulthen,
    ManningRosen,
    Morse,
    Mobius2,
    MorseFeshbach,
    PhysicalConstants,
    PoschlTellerSech2,
    RectBarrier,
    RosenMorse,
    Sech2,
    Step,
    Tanh,
    Tietz,
    asymptotic_wavenumbers,
    evaluate,
    resonances,
    scattering_limits,
    step_bound,
    transmission_amplitude,
    transmission_probability,
)
from qnf1d.errors import DomainError, NotAScatteringPotential, RegimeError
from qnf1d.potentials import normal_form

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

EVERY_SCATTERING_CLASS = NINE_SCATTERING + [
    PoschlTellerSech2(-1.0, 1.0),
    RosenMorse(1.0, 1.0, -1.0, 1.0),
    MorseFeshbach(0.8, 0.7, 1.1),
    Mobius2(0.0, 1.0, -1.0, 1.0, 2.0, 1.0),
    Tietz(1.1, 0.3, 0.9, "cosh"),
    Hua(1.2, -2.0, 1.0),
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

    @pytest.mark.parametrize("spec", [
        Eckart(0.0, 2.0, -1.0, 1.0), Sech2(-2.5, 0.8), MorseFeshbach(0.8, 0.7, 1.1),
        Morse(1.0, 0.0, 1.0), Tietz(1.1, 0.3, 0.9, "cosh"), Hua(1.2, -2.0, 1.0),
    ], ids=lambda spec: type(spec).__name__)
    def test_scalar_is_the_array_member(self, spec):
        # numpy's vector loops round tanh, cosh and exp unlike its scalar
        # path; on this grid a separate scalar path differed at 6 to 24 points
        xs = np.linspace(-6.0, 6.0, 20001)
        grid = evaluate(spec, xs).tolist()
        scalars = [evaluate(spec, x) for x in xs.tolist()]
        assert [v.hex() for v in scalars] == [v.hex() for v in grid]
        assert all(type(v) is float for v in scalars)
        assert evaluate(spec, xs[7]).hex() == grid[7].hex()  # a numpy scalar
        assert float(evaluate(spec, np.asarray(xs[9]))).hex() == grid[9].hex()  # 0-d


@pytest.mark.parametrize("call, error, match", [
    (lambda: PhysicalConstants(mode="x"), DomainError, "unknown mode"),
    (lambda: scattering_limits(Mobius2(0.0, 1.0, 1.0, 1.0, 1.0, 1.0)), NotAScatteringPotential,
     "constant"),
    (lambda: Mobius2(0.0, 1.0, 1.0, 0.0, 0.0, 1.0), DomainError, "cannot both vanish"),
    (lambda: evaluate(Mobius2(0.0, 1.0, 1.0, 1.0, -1.0, 1.0), 0.0), DomainError, "pole"),
    (lambda: evaluate(Tietz(1.0, 0.3, 1.0, "sinh"), 0.0), DomainError, "pole"),
    (lambda: evaluate(Hua(1.0, 1.0, 1.0), np.array([1.0, 0.0])), DomainError, "pole"),
    (lambda: Tietz(1.0, 0.0, 1.0, "tan"), DomainError, "kind"),
    (lambda: evaluate(object(), 0.0), TypeError, "unknown potential spec"),
    (lambda: resonances(RectBarrier(1.0, 1.0), 0, C), DomainError, "n_max"),
], ids=["mode", "constant-mobius2", "mobius2-denominator", "mobius2-pole", "tietz-pole",
        "hua-pole", "tietz-kind", "not-a-spec", "n-max"])
def test_bad_input_is_rejected(call, error, match):
    with pytest.raises(error, match=match):
        call()


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
        v_minus, _ = scattering_limits(spec)
        for e in energy_grid(spec, points=50):
            e = float(e)
            T = transmission_probability(spec, e, C)
            k = math.sqrt(C.p2 * (e - v_minus))
            t = transmission_amplitude(spec, k, C).t
            assert abs(T - abs(t) ** 2) < 1e-10

    @pytest.mark.parametrize("spec", NINE_SCATTERING, ids=lambda s: type(s).__name__)
    def test_probability_bounds(self, spec):
        for e in energy_grid(spec, points=50):
            T = transmission_probability(spec, float(e), C)
            assert -1e-12 <= T <= 1.0 + 1e-12

    def test_regime_error(self):
        with pytest.raises(RegimeError):
            transmission_probability(Step(2.0), 1.0, C)

    @pytest.mark.parametrize("spec", [
        RectBarrier(1.5, 0.7), AsymRectBarrier(0.2, 2.0, -0.3, 0.6), Tanh(0.0, 2.0, 1.0),
        Sech2(-2.5, 0.8), Eckart(0.3, -0.4, 1.2, 0.7), MorseFeshbach(0.8, 0.7, 1.1),
        Hua(1.2, -2.0, 1.0),
    ], ids=lambda s: type(s).__name__)
    def test_probability_against_mpmath(self, spec):
        # from 1e-14 to 1e12 above the higher limit: no digits lost next to
        # the threshold, where 1 - e^{-2x} is small, nor far above it
        form = normal_form(spec)
        e = max(form.limits) + np.geomspace(1e-14, 1e12, 60)
        got = transmission_probability(spec, e, C)
        with mpmath.workdps(40):
            for x, T in zip(e.tolist(), got.tolist()):
                k = [mpmath.sqrt(C.p2 * (mpmath.mpf(x) - v)) for v in form.limits]
                a = mpmath.mpf(form.a)
                if hasattr(form, "v0"):
                    s = mpmath.sqrt(0.25 - C.p2 * mpmath.mpf(form.v0) * a * a)
                    ref = mpmath.sinh(mpmath.pi * k[0] * a) * mpmath.sinh(mpmath.pi * k[1] * a) / (
                        mpmath.sinh(mpmath.pi * (k[0] + k[1]) * a / 2) ** 2
                        + mpmath.re(mpmath.cos(mpmath.pi * s) ** 2))
                else:
                    q = mpmath.sqrt(mpmath.mpc(C.p2 * (mpmath.mpf(x) - form.v2)))
                    sq = mpmath.sin(2 * q * a) / q if q else 2 * a
                    ref = 4 * k[0] * k[1] / mpmath.re((k[0] + k[1]) ** 2 + (q * q - k[0] ** 2)
                                                       * (q * q - k[1] ** 2) * sq * sq)
                assert abs(T - ref) <= 4e-15 * ref, (x, T, ref)

    @pytest.mark.parametrize("spec", EVERY_SCATTERING_CLASS, ids=lambda s: type(s).__name__)
    def test_infinite_and_huge_energies(self, spec):
        # +inf is no energy; nan and -inf are below the limits
        for f in (transmission_probability, step_bound):
            with pytest.raises(DomainError, match="E = inf"):
                f(spec, math.inf, C)
            for e in (math.nan, -math.inf):
                with pytest.raises(RegimeError):
                    f(spec, e, C)
        # far above every scale, with no overflow along the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            T = transmission_probability(spec, 1e300, C)
        assert math.isfinite(T) and 0.0 <= T <= 1.0

    @pytest.mark.parametrize("c", [C, PhysicalConstants(mode="relativistic")],
                             ids=lambda c: f"p2={c.p2:g}")
    @pytest.mark.parametrize("spec", EVERY_SCATTERING_CLASS, ids=lambda s: type(s).__name__)
    def test_ends_of_the_float_range(self, spec, c):
        # every E the limits accept gives T and T_step in [0, 1] with no
        # overflow or underflow, from the next float above the higher limit
        # up; an E whose squared wavenumber p2 (E - V) is beyond the float
        # range (1.7e308 at p2 = 2) is a DomainError
        top = max(scattering_limits(spec))
        for e in (np.nextafter(top, math.inf), 1e306, 5e307, 1.7e308):
            for f in (transmission_probability, step_bound):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    if c.p2 * (e - min(scattering_limits(spec))) == math.inf:
                        with pytest.raises(DomainError, match="float range"):
                            f(spec, e, c)
                    else:
                        assert 0.0 <= f(spec, e, c) <= 1.0, (e, f)

    @pytest.mark.parametrize("spec", [Sech2(-1.0, 1.0), Sech2(-3.0, 1.0)], ids=str)
    def test_reflectionless_next_to_the_threshold(self, spec):
        # cos(pi s) is exactly 0 at the reflectionless couplings, so T = 1
        # even where sinh(pi k a)^2 is far below the rounding of cos(pi s)^2
        for de in (1e-40, 1e-20):
            assert transmission_probability(spec, max(scattering_limits(spec)) + de, C) == 1.0

    def test_asym_dd_two_displayed_forms_agree(self):
        # the compact form against the expanded cos(4ka)/sin(4ka) display
        spec = AsymDoubleDelta(0.6, 1.1, 0.8)
        kp, km = 0.6, 1.1
        for e in energy_grid(spec, points=25):
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
        for e in energy_grid(spec, points=60):
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

    def test_pseudo_T_is_step_bound_bit_for_bit(self):
        # each pseudo resonance's T is step_bound at its E, to the last bit,
        # over random asymmetric barriers and two mass scales
        rng = np.random.default_rng(20261020)
        count = 0
        for _ in range(200):
            v1, v2, v3 = rng.uniform(-3.0, 3.0, 3).tolist()
            spec = AsymRectBarrier(v1, v2, v3, float(rng.uniform(0.2, 3.0)))
            for c in (C, PhysicalConstants(mass=2.0)):
                for e in resonances(spec, 30, c):
                    assert e.kind == "pseudo"
                    assert e.T == step_bound(spec, e.E, c), (spec, c, e)
                    count += 1
        assert count > 10000

    def test_sech2_parameter_family(self):
        entries = resonances(Sech2(-1.0, 1.0), 3, C)
        assert [e.parameter for e in entries] == pytest.approx([-1.0, -3.0, -6.0])
        for e in entries:
            assert e.kind == "parameter_condition"

    def test_asymmetric_eckart_has_no_parameter_family(self):
        # the reflectionless couplings need V- = V+
        assert resonances(Eckart(0.0, 2.0, -1.0, 1.0), 5, C) == []

    def test_rosen_morse_lists_the_sech2_family(self):
        assert resonances(RosenMorse(0.0, 0.0, -1.3, 0.8), 6, C) == resonances(
            Sech2(-1.3, 0.8), 6, C)

    @pytest.mark.parametrize("spec", [MorseFeshbach(0.8, 0.0, 1.1),
                                      RosenMorse(0.4, 0.0, -1.3, 0.8)], ids=repr)
    def test_parameter_is_the_normal_form_coupling(self, spec):
        # the normal form with v0 = parameter is reflectionless
        form = normal_form(spec)
        entries = resonances(spec, 4, C)
        assert len(entries) == 4
        for entry in entries:
            reflectionless = dataclasses.replace(form, v0=entry.parameter)
            for e in form.v_plus + np.array([0.05, 0.7, 2.0, 9.0]):
                assert reflectionless.probability(float(e), C.p2) == pytest.approx(1.0, abs=1e-12)

    def test_free_forms_have_no_family(self):
        # no coupling and no step: T = 1 at every energy
        for spec in (AsymDoubleDelta(0.0, 0.0, 1.2), DoubleDelta(0.0, 1.2), RectBarrier(0.0, 1.2)):
            assert resonances(spec, 6, C) == []

    def test_asym_rect_on_equal_asymptotes_is_exact(self):
        spec = AsymRectBarrier(0.3, 2.0, 0.3, 0.6)
        entries = resonances(spec, 5, C)
        assert len(entries) == 5
        for e in entries:
            assert e.kind == "exact" and e.T is None
            assert transmission_probability(spec, e.E, C) == pytest.approx(1.0, abs=1e-10)

    def test_non_scattering_spec_raises(self):
        with pytest.raises(NotAScatteringPotential):
            resonances(Morse(1.0, 0.4, 0.9), 3, C)
        with pytest.raises(NotAScatteringPotential):
            resonances("sech2", 3, C)


class TestRelativisticMode:
    def test_hbar2_over_2m_is_unity(self):
        c = PhysicalConstants(hbar=3.0, mass=7.0, mode="relativistic")
        assert c.h2_2m == 1.0

    def test_delta_amplitude(self):
        c = PhysicalConstants(mode="relativistic")
        # k0 = alpha/2 under hbar^2/(2m) = 1
        amp = transmission_amplitude(Delta(2.0), 1.0, c)
        assert amp.t == pytest.approx(0.5 + 0.5j, abs=1e-15)
