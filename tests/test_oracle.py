import cmath
import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import energy_grid
from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Hua,
    Hulthen,
    MorseFeshbach,
    PhysicalConstants,
    RectBarrier,
    ScatteringAmplitudes,
    SearchRegion,
    Sech2,
    Step,
    Tanh,
    Tietz,
    closed_form_qnfs,
    find_poles,
    numeric_amplitude,
    refine_pole,
    scattering_limits,
    transmission_amplitude,
)
from qnf1d.errors import AtPoleError, DomainError, NotAScatteringPotential, OverflowGuardError
from qnf1d.oracle import (
    _EXP_GUARD,
    _NEWTON_MAX_ITER,
    _ODE_HALF_WIDTH,
    _inv_t,
    _transfer_matrices,
    _window_min,
    transfer_matrix_det_error,
)
from qnf1d.potentials import _level_wavenumber, _sin_over, length_scale, normal_form
from test_array_amplitudes import piecewise_specs, scaled_wavenumbers

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
    point (the grid find_poles scanned before it made array calls), mapped
    onto the array contract: inf at AtPoleError, nan at any other library
    error."""
    def amp(spec, k, c):
        if not isinstance(k, np.ndarray):
            return amplitude(spec, k, c)
        t = np.full(k.shape, complex("nan"))
        for i, z in np.ndenumerate(k):
            try:
                t[i] = amplitude(spec, complex(z), c).t
            except AtPoleError:
                t[i] = complex("inf")
            except (OverflowGuardError, DomainError):
                pass
        return ScatteringAmplitudes(t, None, k, k)
    return amp


def inverse_t_error(spec, k):
    """max |1/t| error of the numeric engine against the closed form over the
    reported-plane k, relative to max(1, |1/t|)."""
    exact = _inv_t(spec, k, C, transmission_amplitude)
    err = np.abs(_inv_t(spec, k, C, numeric_amplitude) - exact) / np.maximum(1.0, np.abs(exact))
    return float(err.max())


def scalar_grid(spec, region, amplitude):
    """|1/t| on the find_poles grid, point by point; inf where unevaluated."""
    nre = max(4, int(round((region.re_max - region.re_min) * region.grid_density)))
    nim = max(4, int(round((region.im_max - region.im_min) * region.grid_density)))
    mag = np.full((nim, nre), np.inf)
    for i, y in enumerate(np.linspace(region.im_min, region.im_max, nim)):
        for j, x in enumerate(np.linspace(region.re_min, region.re_max, nre)):
            z = complex(x, y)
            if abs(z) >= 1e-6:
                v = _inv_t(spec, np.array([z]), C, amplitude)[0]
                if v == v:
                    mag[i, j] = abs(v)
    return mag


def stacked_transfer_matrices(spec, k):
    """M and its not-representable mask, built as one stack of (..., 2, 2)
    products: np.linalg.inv of the wave matrices at -a, the jump matrices J
    and the middle propagator, multiplied with @.  The engine writes the
    same product out entry by entry; this is its reference."""
    form = normal_form(spec)
    a, e = form.a, k * k / C.p2 + form.v1
    k_mid, k_p = (_level_wavenumber(k, e, form.v1, v, C.p2) for v in (form.v2, form.v3))
    bad = k == 0
    for kappa in (k, k_mid, k_p):
        bad |= np.abs(kappa.imag * a) > _EXP_GUARD

    def wave(x, kappa):
        em, ep = np.exp(-1j * kappa * x), np.exp(1j * kappa * x)
        return np.stack([np.stack([em, ep], -1),
                         np.stack([-1j * kappa * em, 1j * kappa * ep], -1)], -2)

    j_left, j_right = (np.array([[1.0, 0.0], [-C.p2 * alpha, 1.0]], dtype=complex)
                       for alpha in (form.alpha_left, form.alpha_right))
    left = np.linalg.inv(wave(-a, np.where(bad, 1.0, k))) @ j_left
    right = j_right @ wave(a, k_p)
    d = -2.0 * a
    w = np.where((k_mid * d).imag >= 0, -1j, 1j) * k_mid
    lu = left[..., :, 0] + w[..., None] * left[..., :, 1]
    vr = w[..., None] * right[..., 0, :] + right[..., 1, :]
    m = np.exp(-w * d)[..., None, None] * (left @ right) \
        + _sin_over(k_mid, d)[..., None, None] * lu[..., :, None] * vr[..., None, :]
    return m, bad | ~np.isfinite(m).all(axis=(-2, -1))


def assert_matches_stacked_product(spec, k):
    """The engine's entries of M against the stacked product: the same
    not-representable points (where t and r are nan), and each entry within
    1e-12 relative to max(1, |entry|).  m00 is 1/t up to the flux factor;
    t itself would carry m00's rounding times |t| next to a pole, where an
    exact pole may round to m00 = 0 in one product and not the other."""
    k = np.asarray(k, dtype=complex)
    with np.errstate(all="ignore"):
        entries, _k_p, bad = _transfer_matrices(spec, k, C)
        m_ref, bad_ref = stacked_transfer_matrices(spec, k)
    assert (bad == bad_ref).all(), (spec, k[bad != bad_ref])
    refs = (m_ref[..., 0, 0], m_ref[..., 0, 1], m_ref[..., 1, 0], m_ref[..., 1, 1])
    ok = ~bad
    for ij, got, ref in zip(("00", "01", "10", "11"), entries, refs):
        err = np.abs(got[ok] - ref[ok]) / np.maximum(1.0, np.abs(ref[ok]))
        assert (err <= 1e-12).all(), (spec, ij, k[ok][err > 1e-12], err.max())


class TestTransferMatrix:
    @settings(max_examples=60, deadline=None)
    @given(spec=piecewise_specs(), ks=scaled_wavenumbers)
    def test_entries_match_stacked_product(self, spec, ks):
        assert_matches_stacked_product(spec, np.array(ks, dtype=complex) / length_scale(spec))

    @pytest.mark.parametrize("spec, k", [
        # barrier tops, where k_mid = 0
        (RectBarrier(2.0, 1.0), np.array([2.0, -2.0, 2.0 + 1e-9j])),
        (AsymRectBarrier(0.0, 2.0, 0.5, 1.0), np.array([2.0, -2.0, 2.0 - 1e-9j])),
        # a = 0: one interface at the origin
        (Delta(1.3), np.array([0.4, 1.1j, -2.0 + 0.5j, 3.0 - 1.0j, 0.0])),
        (Step(1.5), np.array([0.4, 1.7, 1.0j, -2.0 + 0.5j, 3.0 - 1.0j, 0.0])),
        # beyond the exponent guard, and a product that overflows inside it
        (DoubleDelta(0.5, 1.0), np.array([1e3j, 1.0 - 700j, 1.0 + 1.0j])),
        (DoubleDelta(1.0, 1.0), np.array([1.0 + 200j, 1.0 + 400j, 1.0 + 100j])),
        (AsymRectBarrier(0.3, 2.5, -0.4, 0.6), np.array([1.0 + 1100j, 2.0 - 999j, 0.5 + 2j])),
    ], ids=["rect-top", "asym-rect-top", "delta", "step", "guard", "product-overflow",
            "asym-rect-guard"])
    def test_entries_match_stacked_product_at_edge_points(self, spec, k):
        assert_matches_stacked_product(spec, k)

    @pytest.mark.parametrize("spec", PIECEWISE, ids=lambda s: type(s).__name__)
    def test_one_point_equals_its_batch(self, spec):
        # each point's matrix is its own product, so a point's t and r do
        # not depend on the batch around it, bit for bit
        rng = np.random.default_rng(3)
        k = (rng.uniform(-8.0, 8.0, 300) + 1j * rng.uniform(-2.0, 2.0, 300)) / length_scale(spec)
        amp = numeric_amplitude(spec, k, C)
        for i in range(k.size):
            one = numeric_amplitude(spec, k[i:i + 1], C)
            assert one.t.tobytes() == amp.t[i:i + 1].tobytes(), (k[i], one.t, amp.t[i])
            assert one.r.tobytes() == amp.r[i:i + 1].tobytes(), (k[i], one.r, amp.r[i])

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
            v_minus, v_plus = scattering_limits(spec)
            if v_minus != v_plus:
                continue
            for e in energy_grid(spec, points=10):
                k = math.sqrt(C.p2 * float(e))
                amp = numeric_amplitude(spec, k, C)
                assert abs(amp.t) ** 2 + abs(amp.r) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestOdeEngine:
    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: type(s).__name__)
    def test_matches_closed_forms_on_real_axis(self, spec):
        v_minus, _ = scattering_limits(spec)
        for e in energy_grid(spec, points=12, span=6.0, start=0.3):
            k = math.sqrt(C.p2 * (float(e) - v_minus))
            ta = transmission_amplitude(spec, k, C).t
            tn = numeric_amplitude(spec, k, C).t
            assert abs(ta - tn) / abs(ta) < 1e-8

    @pytest.mark.parametrize("spec", SMOOTH, ids=lambda s: type(s).__name__)
    def test_convergence_certificate(self, spec):
        # doubling the default domain and tightening the integrator leaves t
        # unchanged: verify's domain/step convergence pair
        v_minus, _ = scattering_limits(spec)
        a = spec.a
        for e in energy_grid(spec, points=5, span=4.0, start=0.25):
            k = math.sqrt(C.p2 * (float(e) - v_minus))
            t1 = numeric_amplitude(spec, k, C).t
            t2 = numeric_amplitude(spec, k, C, L=2.0 * _ODE_HALF_WIDTH * a, rtol=1e-13).t
            assert abs(t1 - t2) / abs(t1) < 1e-8

    def test_reflection_unitarity(self):
        # t carries the flux factor sqrt(k+/k-), so |r|^2 + |t|^2 = 1 above
        # both limits, for asymmetric asymptotes too; one array call per spec
        for spec in (Sech2(1.5, 0.9), Eckart(0.0, 2.0, -1.0, 1.0), Tanh(0.0, 2.0, 1.0),
                     Hua(1.2, -2.0, 1.0), Tietz(1.1, 0.3, 0.9, "cosh"),
                     MorseFeshbach(0.8, 0.7, 1.1)):
            v_minus, _ = scattering_limits(spec)
            amp = numeric_amplitude(spec, np.sqrt(C.p2 * (energy_grid(spec, points=8) - v_minus)), C)
            flux = np.abs(amp.t) ** 2 + np.abs(amp.r) ** 2
            assert np.abs(flux - 1.0).max() <= 1e-10, (spec, flux)

    def test_non_scattering_rejected(self):
        with pytest.raises(NotAScatteringPotential):
            numeric_amplitude(Hulthen(1.0, 1.0), 1.0, C)

    @pytest.mark.parametrize("spec, pole", [
        (Hua(1.2, -2.0, 1.0), 1.599435167939166j),
        (Tietz(1.1, 0.3, 0.9, "cosh"), 1.8618259240647261j),
        (Tanh(0.0, 2.0, 1.0), 2.15j),
        (Eckart(0.0, 2.0, -1.0, 1.0), 2.5j),
    ], ids=["Hua", "Tietz", "Tanh", "Eckart"])
    def test_inverse_t_noise_near_poles(self, spec, pole):
        # the pole acceptance residual is 1e-8, so the oracle's 1/t must be
        # well below it where verify refines; measured <= 5.5e-13
        rng = np.random.default_rng(11)
        k = pole + 2e-3 * np.sqrt(rng.uniform(size=60)) * np.exp(2j * np.pi * rng.uniform(size=60))
        assert inverse_t_error(spec, k) <= 1e-10

    @pytest.mark.parametrize("spec", [Eckart(0.0, 2.0, -1.0, 1.0), Hua(1.2, -2.0, 1.0),
                                      MorseFeshbach(0.8, 0.7, 1.1)],
                             ids=lambda s: type(s).__name__)
    def test_inverse_t_near_a_small_divisor(self, spec):
        # the tail recursion divides by X_4 = 0 at k = 4i/a; measured <= 2.4e-10.
        # Closer than 1e-6 the closed form's own gamma argument loses digits
        rng = np.random.default_rng(12)
        d = rng.uniform(1e-6, 1e-5, size=20)
        k = 4j / normal_form(spec).a + d * np.exp(2j * np.pi * rng.uniform(size=20))
        assert inverse_t_error(spec, k) <= 1e-9


class TestFindPoles:
    def test_delta_single_pole(self):
        rep = find_poles(Delta(2.0), SearchRegion(-1.0, 1.0, 0.5, 3.5, 8.0), C)
        assert len(rep.poles) == 1
        k, res, _mult = rep.poles[0]
        assert abs(k - 2j) < 1e-10
        assert res < 1e-8

    @pytest.mark.parametrize("spec, n_range, expected", [
        (Tanh(0.0, 0.6, 1.0), (1, 4), [1.3j, 2.15j, 3.1j, 4.075j]),
        (Eckart(0.0, 2.0, -1.0, 1.0), (0, 4), [2.5j, 10j / 3, 4.25j]),
    ], ids=["Tanh", "Eckart"])
    def test_eckart_family_poles_in_the_reported_plane(self, spec, n_range, expected):
        # the search runs in the plane closed_form_qnfs reports k in, the
        # transmitted side; the Eckart tower's 2i (k_minus = 0, a threshold)
        # is no pole of t.  All these poles are double (tanh's
        # Gamma(i kbar a)^2; here s = 3/2 makes 1/2 +- s integers), so 1/t
        # pins them only to about the root of its residual
        rep = find_poles(spec, SearchRegion(-3.0, 3.0, 0.05, 4.5, 8.0), C,
                         amplitude=transmission_amplitude)
        closed = [r.k for r in closed_form_qnfs(spec, n_range, C)]
        assert all(min(abs(kc - k) for k in closed) < 1e-12 for kc in expected)
        assert len(rep.poles) == len(expected)
        for (k, _res, _mult), kc in zip(rep.poles, expected):
            assert abs(k - kc) < 1e-6

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
        # non-finite bounds and densities used to reach find_poles' grid
        # sizing as an OverflowError or ValueError
        for bounds in ((0.0, math.inf, 0.1, 1.0), (-math.inf, 0.0, 0.1, 1.0),
                       (-1.0, 1.0, 0.1, math.inf)):
            with pytest.raises(DomainError):
                SearchRegion(*bounds)
        for density in (math.nan, math.inf):
            with pytest.raises(DomainError):
                SearchRegion(-1.0, 1.0, 0.0, 1.0, grid_density=density)

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

    @pytest.mark.parametrize("shape", [(20, 256), (7, 5), (3, 1), (1, 4), (1, 1)])
    def test_window_min_is_scipy_minimum_filter(self, shape):
        # the seeds' 3 x 3 window minimum, against scipy's filter with inf
        # beyond the edges; a minimum does not round, so they are equal
        from scipy.ndimage import minimum_filter

        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            mag = rng.exponential(size=shape)
            mag[rng.random(shape) < 0.2] = np.inf
            expected = minimum_filter(mag, size=3, mode="constant", cval=np.inf)
            assert np.array_equal(_window_min(mag), expected)


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
        # the plain pass and the on-axis retry: at most _NEWTON_MAX_ITER + 1
        # Newton calls and one acceptance check each, however many seeds there are
        assert len(calls) <= 1 + 2 * (_NEWTON_MAX_ITER + 2)

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


    @pytest.mark.parametrize("spec", [Sech2(-1.0, 1.0), RectBarrier(1.0, 1.0)],
                             ids=lambda s: repr(s))
    def test_transmitted_variable_is_k_at_equal_asymptotes(self, spec):
        # with V- == V+ the reported plane is the incidence plane: t is
        # evaluated at k itself, on both half planes (sqrt(k^2) would flip k
        # with Re k < 0)
        k = np.array([-1.3 + 0.4j, -0.7 - 0.2j, 0.9 + 0.6j])
        seen = []

        def amplitude(spec, k_in, c):
            seen.append(k_in)
            return transmission_amplitude(spec, k_in, c)

        inv = _inv_t(spec, k, C, amplitude)
        assert np.array_equal(seen[0], k)
        assert np.array_equal(inv, 1.0 / transmission_amplitude(spec, k, C).t)


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
        k, res = refine_pole(spec, mode.k * (1.0 + 1e-3), C)
        assert abs(k - mode.k) < 2e-5
        assert res < 1e-8

    def test_tanh_low_mode_via_analytic_amplitude(self):
        spec = Tanh(0.0, 0.6, 1.0)
        mode = closed_form_qnfs(spec, (2, 2), C)[0]
        k, res = refine_pole(spec, mode.k * (1.0 + 1e-3), C,
                             amplitude=transmission_amplitude)
        assert abs(k - mode.k) < 1e-7
        assert res < 1e-8

    def test_eckart_simple_pole_to_high_accuracy(self):
        # Eckart poles (two distinct Gamma factors) are simple, so the
        # certified location reaches the 1e-10 scale
        spec = Eckart(0.0, 0.5, -0.4, 1.0)
        mode = closed_form_qnfs(spec, (1, 1), C)[0]
        k, res = refine_pole(spec, mode.k * (1.0 + 1e-3), C,
                             amplitude=transmission_amplitude)
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

    def test_array_of_guesses_matches_scalar_calls(self):
        # one batched refinement shares each Newton iteration's integration
        # over every guess; measured <= 7.3e-13 from the scalar calls
        spec = Tietz(1.1, 0.3, 0.9, "cosh")
        ks = np.array([r.k for r in closed_form_qnfs(spec, (0, 2), C)
                       if abs(r.k.imag) * spec.a <= 2.05])
        guesses = np.append(ks * (1 + 1e-3), 30.0 + 0.5j)
        batch = refine_pole(spec, guesses, C)
        assert len(batch) == guesses.size
        for guess, (k, res, reason) in zip(guesses[:-1], batch):
            k1, _res1 = refine_pole(spec, complex(guess), C)
            assert reason is None and res < 1e-8
            assert abs(k - k1) <= 1e-10
        with pytest.raises(DomainError) as exc:
            refine_pole(spec, complex(guesses[-1]), C)
        assert batch[-1][2] == str(exc.value)

    def test_each_guess_keeps_its_own_basin(self):
        # from -3 + 2i Newton lands on the pole 2i, which lies in the basin of
        # the guess 1.9i but not in its own: it is rejected there
        (k1, _res, reason1), (k2, _res2, reason2) = refine_pole(
            Delta(2.0), np.array([1.9j, -3.0 + 2.0j]), C, amplitude=transmission_amplitude)
        assert reason1 is None and abs(k1 - 2j) < 1e-12
        assert abs(k2 - 2j) < 1e-6 and abs(k2 - 1.9j) <= 0.5 * (1.0 + 1.9)
        assert reason2.endswith("the iteration left the search basin")
