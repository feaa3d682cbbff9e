import cmath
import math
import random
import warnings

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
    PhysicalConstants,
    RectBarrier,
    SearchRegion,
    Sech2,
    Step,
    Tanh,
    closed_form_qnfs,
    find_poles,
    numeric_amplitude,
    refine_pole,
    scattering_limits,
    transmission_amplitude,
)
from qnf1d.errors import DomainError, NotAScatteringPotential, OverflowGuardError
from qnf1d.oracle import _inv_t, _pointwise, transfer_matrix_det_error
from qnf1d.potentials import length_scale

C = PhysicalConstants()

PIECEWISE = [
    Delta(1.3),
    DoubleDelta(0.8, 1.2),
    AsymDoubleDelta(0.6, 1.1, 0.8),
    Step(1.5),
    RectBarrier(2.0, 0.7),
    AsymRectBarrier(0.3, 2.5, -0.4, 0.6),
]

SMOOTH = [
    Tanh(0.0, 2.0, 1.0),
    Sech2(-1.0, 1.0),
    Eckart(0.0, 2.0, -1.0, 1.0),
]

# the pole-scan benchmark's piecewise specs
SCAN_SPECS = [
    DoubleDelta(1.0, 1.0),
    AsymDoubleDelta(1.0, 0.7, 1.0),
    RectBarrier(1.0, 1.0),
    RectBarrier(-1.0, 1.0),
    AsymRectBarrier(0.0, 1.0, 0.5, 1.0),
]


def random_disc_k(rng, a_scale, r_max=10.0):
    r = r_max * math.sqrt(rng.uniform(0.0025, 1.0))
    phi = rng.uniform(-math.pi, math.pi)
    return cmath.rect(r, phi) / a_scale


def pointwise(amplitude):
    """``amplitude`` with an array argument evaluated by one scalar call per
    point (the grid find_poles scanned before it made array calls)."""
    def amp(spec, k, c):
        if isinstance(k, np.ndarray):
            return _pointwise(lambda z: amplitude(spec, z, c), k)
        return amplitude(spec, k, c)
    return amp


def scalar_grid(spec, region, amplitude):
    """|1/t| on the find_poles grid, point by point; inf where unevaluated."""
    nre = max(4, int(round((region.re_max - region.re_min) * region.grid_density)))
    nim = max(4, int(round((region.im_max - region.im_min) * region.grid_density)))
    mag = np.full((nim, nre), np.inf)
    for i, y in enumerate(np.linspace(region.im_min, region.im_max, nim)):
        for j, x in enumerate(np.linspace(region.re_min, region.re_max, nre)):
            z = complex(x, y)
            if abs(z) >= 1e-6:
                v = _inv_t(spec, np.array([z]), C, amplitude, "incident")[0]
                if v == v:
                    mag[i, j] = abs(v)
    return mag


class TestTransferMatrix:
    @pytest.mark.parametrize("spec", PIECEWISE, ids=lambda s: type(s).__name__)
    def test_exactness_random_complex_k(self, spec):
        rng = random.Random(42)
        a_scale = length_scale(spec)
        checked = 0
        while checked < 100:
            k = random_disc_k(rng, a_scale)
            ta = transmission_amplitude(spec, k, C).t
            if not (1e-3 < abs(ta) < 1e3):
                continue  # stay 1e-3 away from poles/zeros
            tn = numeric_amplitude(spec, k, C).t
            assert abs(ta - tn) / abs(ta) < 1e-12
            checked += 1

    @pytest.mark.parametrize("spec", PIECEWISE, ids=lambda s: type(s).__name__)
    def test_determinant_flux_surrogate(self, spec):
        rng = random.Random(7)
        a_scale = length_scale(spec)
        for _ in range(40):
            k = complex(rng.uniform(-8, 8), rng.uniform(-2, 2)) / a_scale
            if abs(k) * a_scale < 0.05:
                continue
            assert transfer_matrix_det_error(spec, k, C) < 1e-12

    def test_barrier_top(self):
        # at E = V0 the middle region's exponential basis degenerates; the
        # engine still gives the closed form's limit e^{4i} / (1 + 2i)
        t = numeric_amplitude(RectBarrier(2.0, 1.0), 2.0, C).t
        assert abs(t - (-0.43344972229589368 + 0.11009694928385912j)) < 1e-12

    def test_free_step_is_transparent(self):
        amp = numeric_amplitude(Step(0.0), 1.7, C)
        assert amp.t == pytest.approx(1.0, abs=1e-14)
        assert amp.r == pytest.approx(0.0, abs=1e-14)

    def test_reflection_unitarity_real_k(self):
        for spec in PIECEWISE:
            v_minus, v_plus = scattering_limits(spec, C)
            if v_minus != v_plus:
                continue
            for e in energy_grid(spec, C, points=10):
                k = math.sqrt(C.p2 * float(e))
                amp = numeric_amplitude(spec, k, C)
                assert abs(amp.t) ** 2 + abs(amp.r) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestOdeEngine:
    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: type(s).__name__)
    def test_matches_closed_forms_on_real_axis(self, spec):
        v_minus, _ = scattering_limits(spec, C)
        for e in energy_grid(spec, C, points=12, span=6.0, start=0.3):
            k = math.sqrt(C.p2 * (float(e) - v_minus))
            ta = transmission_amplitude(spec, k, C).t
            tn = numeric_amplitude(spec, k, C).t
            assert abs(ta - tn) / abs(ta) < 1e-8

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: type(s).__name__)
    def test_convergence_certificate(self, spec):
        # doubling the domain and tightening the integrator leaves t unchanged
        v_minus, _ = scattering_limits(spec, C)
        a = spec.a
        for e in energy_grid(spec, C, points=5, span=4.0, start=0.25):
            k = math.sqrt(C.p2 * (float(e) - v_minus))
            t1 = numeric_amplitude(spec, k, C, L=10.0 * a).t
            t2 = numeric_amplitude(spec, k, C, L=20.0 * a, rtol=1e-13).t
            assert abs(t1 - t2) / abs(t1) < 1e-8

    def test_reflection_unitarity(self):
        spec = Sech2(1.5, 0.9)
        for e in energy_grid(spec, C, points=8):
            k = math.sqrt(C.p2 * float(e))
            amp = numeric_amplitude(spec, k, C)
            assert abs(amp.t) ** 2 + abs(amp.r) ** 2 == pytest.approx(1.0, abs=1e-10)

    def test_non_scattering_rejected(self):
        with pytest.raises(NotAScatteringPotential):
            numeric_amplitude(Hulthen(1.0, 1.0), 1.0, C)


class TestFindPoles:
    def test_delta_single_pole(self):
        rep = find_poles(Delta(2.0), SearchRegion(-1.0, 1.0, 0.5, 3.5, 8.0), C)
        assert len(rep.poles) == 1
        k, res, _mult = rep.poles[0]
        assert abs(k - 2j) < 1e-10
        assert res < 1e-8

    def test_step_has_no_poles(self):
        rep = find_poles(Step(1.0), SearchRegion(-5.0, 5.0, -3.0, 3.0, 6.0), C)
        assert rep.poles == []

    def test_double_delta_bijection(self):
        spec = DoubleDelta(0.5, 1.0)  # k0 = 0.5, a = 1
        region = SearchRegion(-15.0, 15.0, 0.005, 2.0, 6.0)
        rep = find_poles(spec, region, C)
        closed = [
            r.k for r in closed_form_qnfs(spec, (-6, 6), C)
            if region.re_min <= r.k.real <= region.re_max
            and region.im_min <= r.k.imag <= region.im_max
        ]
        assert len(rep.poles) == len(closed)
        for k, res, _ in rep.poles:
            assert min(abs(k - q) for q in closed) < 1e-8

    def test_winding_count_matches(self):
        spec = DoubleDelta(0.5, 1.0)
        region = SearchRegion(0.5, 6.0, 0.05, 2.0, 8.0)
        rep = find_poles(spec, region, C, amplitude=transmission_amplitude,
                         count_zeros=True)
        assert rep.count_check == len(rep.poles)
        # the transfer engine on the README double-delta rectangle
        rep = find_poles(DoubleDelta(1.0, 1.0), SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0), C,
                         count_zeros=True)
        assert rep.poles
        assert rep.count_check == len(rep.poles)

    def test_region_validation(self):
        with pytest.raises(DomainError):
            SearchRegion(1.0, -1.0, 0.0, 1.0)
        with pytest.raises(DomainError):
            SearchRegion(-1.0, 1.0, 0.0, 1.0, grid_density=0.0)

    def test_near_axis_seed_retried_on_axis(self):
        # plain Newton from the seeds next to the imaginary axis runs to the
        # pole at -1.0015i, outside the region; the on-axis retry from the
        # same seeds finds the low tower member at 0.0116697i
        spec = Sech2(-1.00882, 0.987014)
        rep = find_poles(spec, SearchRegion(-6.0, 6.0, 0.01, 4.0, 8.0), C,
                         amplitude=transmission_amplitude)
        low = [r.k for r in closed_form_qnfs(spec, (0, 3), C)
               if abs(r.k - 0.0116697j) < 1e-6]
        assert len(low) == 1
        assert min(abs(k - low[0]) for k, _, _ in rep.poles) < 1e-8

    @pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                             ids=["transfer", "closed_form"])
    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: repr(s))
    def test_refine_pole_keeps_found_poles(self, spec, amplitude):
        # both searches share one acceptance rule, so a reported pole is a
        # fixed point of refine_pole
        rep = find_poles(spec, SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0), C,
                         amplitude=amplitude)
        assert rep.poles
        for k, _res, _mult in rep.poles:
            k2, _ = refine_pole(spec, k, C, amplitude=amplitude)
            assert abs(k2 - k) < 1e-12

    def test_coarse_grid_warns(self):
        # neighboring tower members closer than two grid cells
        spec = DoubleDelta(0.5, 1.0)
        rep = find_poles(spec, SearchRegion(0.5, 8.0, 0.05, 2.0, 1.3), C,
                         amplitude=transmission_amplitude)
        assert len(rep.poles) >= 2
        assert rep.warnings
        assert "grid_density" in rep.warnings[0]
        # a fine grid on the same region is quiet
        fine = find_poles(spec, SearchRegion(0.5, 8.0, 0.05, 2.0, 8.0), C,
                          amplitude=transmission_amplitude)
        assert fine.warnings == []


class TestArrayGrid:
    """find_poles makes only array calls: one for the grid, then one per
    Newton iteration and one per acceptance check over all seeds at once;
    the poles are those of a grid evaluated point by point."""

    def test_refinement_is_batched(self):
        calls = []

        def counting(spec, k, c):
            calls.append(k)
            return numeric_amplitude(spec, k, c)

        region = SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0)
        rep = find_poles(RectBarrier(-1.0, 1.0), region, C, amplitude=counting)
        assert rep.poles and rep.rejected
        assert all(isinstance(k, np.ndarray) for k in calls)
        nre = round((region.re_max - region.re_min) * region.grid_density)
        nim = round((region.im_max - region.im_min) * region.grid_density)
        assert calls[0].size == nre * nim
        # the plain pass and the on-axis retry: at most max_iter + 1 Newton
        # calls and one acceptance check each, however many seeds there are
        max_iter = 60
        assert len(calls) <= 1 + 2 * (max_iter + 2)

    @pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                             ids=["transfer", "closed_form"])
    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: repr(s))
    def test_same_poles_as_pointwise_grid(self, spec, amplitude):
        self.check_against_pointwise(spec, SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0), amplitude)

    def test_sech2_same_poles_as_pointwise_grid(self):
        self.check_against_pointwise(Sech2(-1.0, 1.0), SearchRegion(-6.0, 6.0, 0.01, 4.0, 8.0),
                                     transmission_amplitude)

    @staticmethod
    def check_against_pointwise(spec, region, amplitude):
        rep = find_poles(spec, region, C, amplitude=amplitude)
        ref = find_poles(spec, region, C, amplitude=pointwise(amplitude))
        assert len(rep.poles) == len(ref.poles)
        for (k, _, _), (k_ref, _, _) in zip(rep.poles, ref.poles):
            assert abs(k - k_ref) < 1e-12

    def test_rejected_seeds_carry_a_reason(self):
        spec = RectBarrier(-1.0, 1.0)
        region = SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0)
        rep = find_poles(spec, region, C)
        assert rep.rejected
        assert all(reason for _seed, reason in rep.rejected)
        mag = scalar_grid(spec, region, numeric_amplitude)
        seeds = sum(
            1 for (i, j), m in np.ndenumerate(mag)
            if m < 1e6 and m <= mag[max(0, i - 1): i + 2, max(0, j - 1): j + 2].min()
        )
        assert len(rep.rejected) + sum(mult for _, _, mult in rep.poles) == seeds


class TestOverflowGuard:
    def test_transfer_matrix_guard(self):
        with pytest.raises(OverflowGuardError):
            numeric_amplitude(DoubleDelta(0.5, 1.0), 1e3j, C)

    def test_transfer_product_guard(self):
        # each face is representable at Im k a = 200, their product is not
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowGuardError):
                numeric_amplitude(DoubleDelta(1.0, 1.0), 1 + 200j, C)
            assert np.isnan(numeric_amplitude(DoubleDelta(1.0, 1.0), np.array([1 + 200j]), C).t[0])
            rep = find_poles(DoubleDelta(1.0, 1.0), SearchRegion(-4.0, 4.0, 300.0, 700.0, 0.05), C)
            assert rep.poles == []
            # at Im k a = 100 the product is still finite and agrees with the closed form
            t = numeric_amplitude(DoubleDelta(1.0, 1.0), 1 + 100j, C).t
            ta = transmission_amplitude(DoubleDelta(1.0, 1.0), 1 + 100j, C).t
            assert abs(t - ta) < 1e-12 * abs(ta)

    def test_ode_guard(self):
        with pytest.raises(OverflowGuardError):
            numeric_amplitude(Sech2(-1.0, 1.0), 500j, C)


class TestRefinePole:
    def test_delta_from_nearby_guess(self):
        k, res = refine_pole(Delta(2.0), 1.9j, C)
        assert abs(k - 2j) < 1e-12
        assert res < 1e-10

    def test_tanh_low_mode_via_ode(self):
        # the tanh amplitude carries Gamma(i kbar a)^2, so its QNFs are
        # double poles: |1/t| refinement resolves the location only to
        # sqrt(noise); the Gamma-argument residual in qnf.pole_condition is
        # the machine-precision route
        spec = Tanh(0.0, 0.6, 1.0)
        mode = closed_form_qnfs(spec, (2, 2), C)[0]
        k, res = refine_pole(spec, mode.k * (1.0 + 1e-3), C, variable="transmitted")
        assert abs(k - mode.k) < 2e-5
        assert res < 1e-8

    def test_tanh_low_mode_via_analytic_amplitude(self):
        spec = Tanh(0.0, 0.6, 1.0)
        mode = closed_form_qnfs(spec, (2, 2), C)[0]
        k, res = refine_pole(spec, mode.k * (1.0 + 1e-3), C,
                             amplitude=transmission_amplitude,
                             variable="transmitted")
        assert abs(k - mode.k) < 1e-7
        assert res < 1e-8

    def test_eckart_simple_pole_to_high_accuracy(self):
        # Eckart poles (two distinct Gamma factors) are simple, so the
        # certified location reaches the 1e-10 scale
        spec = Eckart(0.0, 0.5, -0.4, 1.0)
        mode = closed_form_qnfs(spec, (1, 1), C)[0]
        k, res = refine_pole(spec, mode.k * (1.0 + 1e-3), C,
                             amplitude=transmission_amplitude,
                             variable="transmitted")
        assert abs(k - mode.k) < 1e-10
        assert res < 1e-10

    def test_rect_barrier_both_roots_reachable(self):
        from qnf1d import transcendental_qnfs

        spec = RectBarrier(0.18, 1.0)  # k0 a = 0.6, two imaginary-axis QNFs
        lo, hi = transcendental_qnfs(spec, "imaginary_axis", C)
        k_lo, _ = refine_pole(spec, lo.k * 0.9, C, amplitude=transmission_amplitude)
        k_hi, _ = refine_pole(spec, hi.k * 1.1, C, amplitude=transmission_amplitude)
        assert abs(k_lo - lo.k) < 1e-9
        assert abs(k_hi - hi.k) < 1e-9

    def test_trivial_zero_flagged(self):
        # inject an amplitude with a genuine pole at the origin
        from qnf1d import ScatteringAmplitudes

        def pole_at_zero(spec, k, c):
            return ScatteringAmplitudes(1.0 / k, None, k, k)

        with pytest.raises(DomainError, match="trivial zero"):
            refine_pole(Delta(1.0), 1e-3 + 1e-3j, C, amplitude=pole_at_zero)

    def test_divergence_reported(self):
        with pytest.raises(DomainError):
            refine_pole(Delta(2.0), 100.0 + 0.5j, C)
