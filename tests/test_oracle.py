import cmath
import contextlib
import math
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, seed, settings, strategies as st

from conftest import energy_grid
from qnf1d import oracle
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
from qnf1d.errors import (
    AtPoleError,
    DomainError,
    NotAScatteringPotential,
    OverflowGuardError,
    Qnf1dError,
)
from qnf1d.oracle import (
    _EXP_GUARD,
    _NEWTON_MAX_ITER,
    _ODE_HALF_WIDTH,
    _RESIDUAL_TOL,
    _grid,
    _grid_columns,
    _inv_t,
    _newton_polish,
    _probes,
    _rejections,
    _spectral_qnfs,
    _transfer_matrices,
    _window_max_at,
    _window_min,
    _winding_count,
    transfer_matrix_det_error,
)
from qnf1d.potentials import (
    EckartReduction,
    _level_wavenumber,
    _sin_over,
    length_scale,
    normal_form,
)
from qnf1d.qnf import has_closed_form
from test_array_amplitudes import piecewise_specs, scaled_wavenumbers, smooth_specs

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


def engine_calls(monkeypatch, amplitude):
    """The k of every call that the pole search makes of the library engine
    ``amplitude``, recorded in a list: _inv_t calls the engine's 1/t
    (oracle._INVERSES), not the engine, so the 1/t is what is counted."""
    calls = []
    inverse = oracle._INVERSES[amplitude]

    def counting(spec, k, c):
        calls.append(k.copy())
        return inverse(spec, k, c)

    monkeypatch.setitem(oracle._INVERSES, amplitude, counting)
    return calls


def assert_same_poles(found, ref, tol, spec):
    """found and ref list the same poles, matched one to one: each
    reference pole q takes its own nearest found pole, within tol(q)."""
    assert len(found) == len(ref), (spec, found, ref)
    unmatched = list(found)
    for q in ref:
        k = min(unmatched, key=lambda k: abs(k - q))
        assert abs(k - q) <= tol(q), (spec, found, q)
        unmatched.remove(k)


def grid_axes(region):
    """find_poles' grid columns, rows and cell size."""
    nre = max(4, int(round((region.re_max - region.re_min) * region.grid_density)))
    nim = max(4, int(round((region.im_max - region.im_min) * region.grid_density)))
    res = _grid_columns(region.re_min, region.re_max, nre)
    ims = _grid_columns(region.im_min, region.im_max, nim)
    return res, ims, max(res[1] - res[0], ims[1] - ims[0])


def scalar_grid(spec, region, amplitude):
    """|1/t| on the find_poles grid, point by point; inf where unevaluated."""
    res, ims, _cell = grid_axes(region)
    mag = np.full((ims.size, res.size), np.inf)
    for i, y in enumerate(ims):
        for j, x in enumerate(res):
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
        bad |= ~np.isfinite(entries).all(axis=0)
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
        with pytest.raises(NotAScatteringPotential, match="piecewise"):
            transfer_matrix_det_error(Sech2(-1.0, 1.0), 1.0, C)

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

    def test_winding_count_undecided(self):
        region = SearchRegion(-1.0, 1.0, -1.0, 1.0)
        assert _winding_count(lambda k: k - 0.5, region) == 1
        # a zero on a boundary sample, and a phase that turns by 3 between samples
        assert _winding_count(lambda k: k - 1.0, region) is None
        assert _winding_count(lambda k: np.exp(120j * k.real), region) is None

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
        # beyond the edges, and the window maximum at a random subset of the
        # points, against its maximum filter with -inf beyond the edges; a
        # minimum or a maximum does not round, so they are equal
        from scipy.ndimage import maximum_filter, minimum_filter

        rng = np.random.default_rng(sum(shape))
        for _ in range(20):
            mag = rng.exponential(size=shape)
            mag[rng.random(shape) < 0.2] = np.inf
            expected = minimum_filter(mag, size=3, mode="constant", cval=np.inf)
            assert np.array_equal(_window_min(mag), expected)
            rows, cols = np.nonzero(rng.random(shape) < 0.3)
            expected = maximum_filter(mag, size=3, mode="constant", cval=-np.inf)[rows, cols]
            assert np.array_equal(_window_max_at(mag, rows, cols), expected)


class TestArrayGrid:
    """find_poles makes only array calls: one for the grid, then one per
    Newton iteration and at most one probe call per refinement pass, each
    over all seeds at once; the poles are those of a grid evaluated point by
    point."""

    REGION = SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0)

    @staticmethod
    def grid_call_size(monkeypatch, spec, region):
        """The size of find_poles' first amplitude call, its grid, after
        checking that every call is an array call and that their number does
        not grow with the seeds."""
        calls = engine_calls(monkeypatch, numeric_amplitude)
        rep = find_poles(spec, region, C)
        assert rep.poles and rep.rejected
        assert all(isinstance(k, np.ndarray) for k in calls)
        # the plain pass and the on-axis retry: at most _NEWTON_MAX_ITER + 1
        # Newton calls and one probe call each, however many seeds there are
        assert len(calls) <= 1 + 2 * (_NEWTON_MAX_ITER + 2)
        return calls[0].size

    def test_refinement_is_batched(self, monkeypatch):
        # equal limits: the 256 columns are 128 mirrored pairs +-x, and the
        # grid is evaluated once per |x|
        assert self.grid_call_size(monkeypatch, RectBarrier(-1.0, 1.0), self.REGION) == 20 * 128

    def test_unequal_limits_evaluate_the_whole_grid(self, monkeypatch):
        region = self.REGION
        nre = round((region.re_max - region.re_min) * region.grid_density)
        nim = round((region.im_max - region.im_min) * region.grid_density)
        assert self.grid_call_size(monkeypatch, AsymRectBarrier(0.0, 1.0, 0.5, 1.0),
                                   region) == nre * nim

    @pytest.mark.parametrize("spec, amplitude", [
        pytest.param(spec, amplitude, id=f"{spec!r}-{name}")
        for spec in SCAN_SPECS if len(set(scattering_limits(spec))) == 1
        for name, amplitude in (("transfer", numeric_amplitude),
                                ("closed_form", transmission_amplitude))
    ] + [pytest.param(Sech2(-1.0, 1.0), transmission_amplitude, id="Sech2-closed_form")])
    def test_folded_grid_against_unmirrored_grid(self, spec, amplitude):
        # the region shifted right by a third of a cell has no mirrored
        # columns, so find_poles evaluates its whole grid; the poles at least
        # two cells inside both regions agree, and the folded scan reports a
        # mirror-closed set (a real potential with equal limits has its poles
        # in pairs k, -k*).  Sech2(-1, 1) is reflectionless with no pole in
        # the region, so its case checks that neither scan reports one
        region = self.REGION
        res, _ims, cell = grid_axes(region)
        shift = (res[1] - res[0]) / 3.0
        shifted = SearchRegion(region.re_min + shift, region.re_max + shift, region.im_min,
                               region.im_max, region.grid_density)
        folded = [k for k, _, _ in find_poles(spec, region, C, amplitude=amplitude).poles]
        whole = [k for k, _, _ in find_poles(spec, shifted, C, amplitude=amplitude).poles]

        def inner(ks):
            return [k for k in ks
                    if shifted.re_min + 2 * cell <= k.real <= region.re_max - 2 * cell
                    and region.im_min + 2 * cell <= k.imag <= region.im_max - 2 * cell]

        assert len(inner(folded)) == len(inner(whole))
        for k in inner(folded):
            assert min(abs(k - q) for q in whole) < 1e-10
        for k in folded:
            # exactly, but for an axis pole that seeds on both sides of the
            # axis refined to one point: it is its own mirror to rounding
            assert -k.conjugate() in folded or abs(k.real) < 0.5e-12

    @pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                             ids=["transfer", "closed_form"])
    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: repr(s))
    def test_same_poles_as_pointwise_grid(self, spec, amplitude):
        self.check_against_pointwise(spec, SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0), amplitude)

    def test_sech2_same_poles_as_pointwise_grid(self):
        # a barrier: eight poles in the region (a reflectionless well has none)
        poles = self.check_against_pointwise(
            Sech2(3.0, 1.0), SearchRegion(-6.0, 6.0, 0.01, 4.0, 8.0), transmission_amplitude)
        assert poles

    @pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                             ids=["transfer", "closed_form"])
    @pytest.mark.parametrize("spec", SCAN_SPECS, ids=lambda s: repr(s))
    def test_scan_call_budget(self, monkeypatch, spec, amplitude):
        # the grid and four Newton calls: each accepted pole's last call
        # carried its flatness probes, and the step from it was below
        # tolerance, so no confirming or acceptance call follows.  The well's
        # axis pole 0.2521i takes one more: the grid slopes of its seeds
        # +-0.0627 + 0.2721i differ by 25 %, so they start from the grid
        # point, not from the grid's Newton step.  The count repeats
        # exactly, where a timing does not
        calls = engine_calls(monkeypatch, amplitude)
        assert find_poles(spec, self.REGION, C, amplitude=amplitude).poles
        assert len(calls) == (6 if spec == RectBarrier(-1.0, 1.0) else 5)

    @pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                             ids=["ode", "closed_form"])
    def test_jittered_sech2_scan_call_budget(self, monkeypatch, amplitude):
        # the jittered README well: no pole in the region, and its eight seeds
        # are all rejected.  Refining every seed with no basin sends six of
        # them out to |k| ~ 60 and back; here the two corner seeds stop at
        # their first iterate, 17.8 below the floor, and the on-axis retries
        # from 3.74i stop at 5.31i, an improving iterate above the ceiling
        # whose step leads further up.  The grid and seven Newton calls
        calls = engine_calls(monkeypatch, amplitude)
        rep = find_poles(Sech2(-1.02229, 1.01812), SearchRegion(-6.0, 6.0, 0.01, 4.0, 8.0), C,
                         amplitude=amplitude)
        assert rep.poles == [] and len(rep.rejected) == 8
        assert len(calls) == 8

    @pytest.mark.parametrize("spec", [Step(0.0), RectBarrier(0.0, 1.0)], ids=lambda s: repr(s))
    def test_free_form_has_no_seed(self, monkeypatch, spec):
        # t = 1: |1/t| on the grid is flat to rounding, so no grid point lies
        # below the largest value of its window, and the grid is the only call
        from qnf1d.checks import default_region

        calls = engine_calls(monkeypatch, numeric_amplitude)
        rep = find_poles(spec, default_region(spec), C)
        assert (rep.poles, rep.rejected, len(calls)) == ([], [], 1)

    def test_an_iterate_on_the_exact_pole_is_kept(self):
        # a third of a cell off the folded grid, one Newton iterate lands
        # exactly on the gamma pole k = i (1/2 + s), s = i sqrt(5.75), where
        # the closed form gives t = inf
        d = (32.0 / 255.0) / 3.0
        rep = find_poles(Sech2(3.0, 1.0), SearchRegion(-16.0 + d, 16.0 + d, 0.01, 2.5, 8.0), C,
                         amplitude=transmission_amplitude)
        assert complex(-math.sqrt(5.75), 0.5) in [k for k, _, _ in rep.poles]

    @staticmethod
    def check_against_pointwise(spec, region, amplitude):
        rep = find_poles(spec, region, C, amplitude=amplitude)
        ref = find_poles(spec, region, C, amplitude=pointwise(amplitude))
        # matched one to one, not by sort order: the two members of a mirror
        # pair +-x + iy may differ in the last bit of Im k and swap places
        assert_same_poles([k for k, _, _ in rep.poles], [k for k, _, _ in ref.poles],
                          lambda q: 1e-12, spec)
        return rep.poles

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


def mirror(k):
    """-k*, the mirror of k about the imaginary axis."""
    return complex(-k.real, k.imag)


def mirrored_reason(reason):
    """A rejection's reason with the guess and every iterate it names
    replaced by its mirror -k*."""
    return re.sub(r"(guess |k=)(\([^)]*\)|[^\s:;]+)",
                  lambda m: m.group(1) + str(mirror(complex(m.group(2)))), reason)


def grid_seeds(spec, region, amplitude):
    """find_poles' seeds over its whole grid, evaluated with no fold: the
    least |1/t| of each 3 x 3 window, below the window's largest."""
    res, ims, _cell = grid_axes(region)
    grid = _grid(res, ims)
    mag = np.abs(_inv_t(spec, grid, C, amplitude))
    mag[np.isnan(mag) | (np.abs(grid) < 1e-6)] = np.inf
    rows, cols = np.nonzero((mag < 1e6) & (mag <= _window_min(mag)))
    steep = mag[rows, cols] < (1.0 - 1e-12) * _window_max_at(mag, rows, cols)
    return grid[rows[steep], cols[steep]]


class TestHalfPlane:
    """Equal limits on a region symmetric about Re k = 0: t(-k*) = t(k)*
    mirrors the whole search, so find_poles refines the seeds with
    Re k >= 0 and each seed with Re k < 0 reports the mirror of its
    partner's result."""

    REGION = SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0)

    @pytest.mark.parametrize("spec, amplitude", [
        pytest.param(spec, amplitude, id=f"{spec!r}-{name}")
        for spec in SCAN_SPECS if len(set(scattering_limits(spec))) == 1
        for name, amplitude in (("transfer", numeric_amplitude),
                                ("closed_form", transmission_amplitude))
    ] + [pytest.param(Sech2(3.0, 1.0), transmission_amplitude, id="Sech2-closed_form")])
    def test_poles_and_rejections_are_mirror_closed(self, spec, amplitude):
        # every pole k has its mirror -k* with the same residual and seed
        # count, but an axis pole that a seed pair refined to one point (its
        # own mirror to rounding); every rejection has its mirror's, which
        # names the mirrored seed and iterates
        region = (SearchRegion(-6.0, 6.0, 0.01, 4.0, 8.0) if isinstance(spec, Sech2)
                  else self.REGION)
        rep = find_poles(spec, region, C, amplitude=amplitude)
        assert rep.poles
        for k, r, seeds in rep.poles:
            assert (mirror(k), r, seeds) in rep.poles or abs(k.real) < 0.5e-12, (k, rep.poles)
        for seed, reason in rep.rejected:
            assert (mirror(seed), mirrored_reason(reason)) in rep.rejected, reason
        # the seeds of the whole grid, each reported once
        assert len(rep.rejected) + sum(n for _, _, n in rep.poles) == grid_seeds(
            spec, region, amplitude).size

    def test_newton_calls_carry_half_the_points(self, monkeypatch):
        # the grid once per |Re k|, then Newton on the 22 seeds with Re k > 0
        # (refining both halves took [2560, 66, 66, 64, 100])
        calls = engine_calls(monkeypatch, numeric_amplitude)
        find_poles(DoubleDelta(1.0, 1.0), self.REGION, C)
        assert [k.size for k in calls] == [2560, 33, 33, 32, 50]

    def test_odd_columns_refine_the_axis_column_once(self, monkeypatch):
        # 257 columns, the middle one on Re k = 0: its seeds are refined once,
        # in the one pass over the seeds with Re k >= 0, and their mirrors are
        # themselves
        spec, region = RectBarrier(-1.0, 1.0), SearchRegion(-16.0625, 16.0625, 0.01, 2.5, 8.0)
        res, _ims, _cell = grid_axes(region)
        assert res.size == 257 and res[128] == 0.0
        seeds = grid_seeds(spec, region, transmission_amplitude)
        axis = np.count_nonzero(seeds.real == 0.0)
        assert axis
        calls = engine_calls(monkeypatch, transmission_amplitude)
        rep = find_poles(spec, region, C, amplitude=transmission_amplitude)
        # the first Newton call holds (z, z + h, z - h) of each refined seed
        assert calls[1].size == 3 * np.count_nonzero(seeds.real >= 0.0)
        assert len(rep.rejected) + sum(n for _, _, n in rep.poles) == seeds.size
        for seed, reason in rep.rejected:
            if seed.real != 0.0:
                assert (mirror(seed), mirrored_reason(reason)) in rep.rejected, reason

    @pytest.mark.parametrize("spec", [RectBarrier(-1.0, 1.0), DoubleDelta(1.0, 1.0)],
                             ids=lambda s: repr(s))
    def test_asymmetric_region_refines_every_seed(self, monkeypatch, spec):
        # Re k from -16 to 20: the grid has no mirrored half, so every seed
        # of it starts Newton
        region = SearchRegion(-16.0, 20.0, 0.01, 2.5, 8.0)
        seeds = grid_seeds(spec, region, transmission_amplitude)
        calls = engine_calls(monkeypatch, transmission_amplitude)
        rep = find_poles(spec, region, C, amplitude=transmission_amplitude)
        assert calls[1].size == 3 * seeds.size
        assert len(rep.rejected) + sum(n for _, _, n in rep.poles) == seeds.size


def refine_every_seed(spec, region, amplitude):
    """The poles of a scan that refines every seed from its grid point and
    tests the region only after Newton: each local minimum of |1/t| over the
    whole (unfolded) grid is polished with no basin, a reported iterate
    outside the region is rejected, near-axis seeds that gave no pole are
    retried on the axis, and the accepted points are merged within
    find_poles' radius, best residual first.  An independent reference for
    find_poles, which starts from the grid's Newton step and stops Newton
    outside the region (see _newton_polish)."""
    f = lambda k: _inv_t(spec, k, C, amplitude)  # noqa: E731
    res, ims, cell = grid_axes(region)
    grid = _grid(res, ims)
    mag = np.abs(f(grid))
    mag[np.isnan(mag) | (np.abs(grid) < 1e-6)] = np.inf
    seeds = grid[(mag < 1e6) & (mag <= _window_min(mag))]

    def inside(k):
        return ((region.re_min - 1e-9 <= k.real) & (k.real <= region.re_max + 1e-9)
                & (region.im_min - 1e-9 <= k.imag) & (k.imag <= region.im_max + 1e-9))

    def polish(guesses, on_axis):
        k, res, probes, _left = _newton_polish(f, guesses, lambda k, _g: np.full(k.shape, -np.inf),
                                               on_axis)
        bare = inside(k) & (res < _RESIDUAL_TOL) & np.isnan(probes[0])
        if bare.any():
            probes[:, bare] = np.abs(f(_probes(k[bare]))).reshape(2, -1)
        return k, res, _rejections(k, res, probes, np.where(inside(k), np.nan, k))

    k, res, reasons = polish(seeds, False)
    retry = [i for i, reason in enumerate(reasons) if reason and abs(seeds[i].real) < 1.5 * cell]
    if retry:
        k[retry], res[retry], reasons_ax = polish(seeds[retry], True)
        for i, reason in zip(retry, reasons_ax):
            reasons[i] = reason
    poles = []
    for z, _r, _reason in sorted((p for p in zip(k, res, reasons) if p[2] is None),
                                 key=lambda p: p[1]):
        if all(abs(z - q) >= 1e-6 / length_scale(spec) for q in poles):
            poles.append(z)
    return poles


def left_point(reason):
    """The first iterate outside the search basin that a rejection names;
    None for a seed rejected for another reason."""
    m = re.search(r"left the search basin at k=(\S+)$", reason)
    return m and complex(m.group(1))


class TestSeedScreening:
    """find_poles spends calls only on the seeds whose Newton path stays in
    the region: a seed starts from the grid's own Newton step and stops at
    an iterate outside the region that improves on its best, unless the
    step from it halves its distance to the region."""

    @pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                             ids=["transfer", "closed_form"])
    def test_scan_well_screens_its_stragglers(self, monkeypatch, amplitude):
        # refining every seed from its grid point with no basin takes 12
        # amplitude calls: 30 of the 40 seeds are rejected, and Newton runs
        # 11 iterations for them.  Here the grid's Newton step of each of the
        # 30 lies outside the region, and each stops there, at its first
        # iterate: only the first Newton call evaluates points outside the
        # region (beyond the step and probe offsets), three per straggler
        # with Re k > 0.  A straggler with Re k < 0 reports the mirror -k* of
        # its partner's iterate, which no call evaluates
        spec, region = RectBarrier(-1.0, 1.0), SearchRegion(-16.0, 16.0, 0.01, 2.5, 8.0)
        calls = engine_calls(monkeypatch, amplitude)

        def outside(k):
            return ~((region.re_min - 0.01 <= k.real) & (k.real <= region.re_max + 0.01)
                     & (region.im_min - 0.01 <= k.imag) & (k.imag <= region.im_max + 0.01))

        rep = find_poles(spec, region, C, amplitude=amplitude)
        assert len(rep.poles) == 9 and len(rep.rejected) == 30
        assert len(calls) == 6
        for seed, reason in rep.rejected:
            assert reason.startswith(f"no certified pole from guess {seed}: "), reason
            k = left_point(reason)
            evaluated = k if seed.real > 0 else -k.conjugate()
            assert outside(np.array([k]))[0] and evaluated in calls[1].tolist(), reason
        assert [int(outside(k).sum()) for k in calls[1:]] == [45, 0, 0, 0, 0]

    def test_a_pair_below_the_floor_is_screened(self):
        # 1/t = i (k - 1.5i)(k - 2 + 0.4i)(k + 2 + 0.4i), which keeps
        # t(-k*) = t(k)* (the folded grid): one pole inside the region and a
        # mirrored pair about three cells below its floor.  The floor seeds
        # bound for the pair stop after at most one call each; those bound for
        # -2 - 0.4i report the mirrors of their partners' iterates, and no
        # call evaluates a point near that floor
        inner, pair = 1.5j, (2.0 - 0.4j, -2.0 - 0.4j)
        calls = []

        def amplitude(spec, k, c):
            calls.append(k)
            return ScatteringAmplitudes(1.0 / (1j * (k - inner) * (k - pair[0]) * (k - pair[1])),
                                        None, k, k)

        region = SearchRegion(-4.0, 4.0, 0.05, 3.0, 8.0)
        rep = find_poles(RectBarrier(1.0, 1.0), region, C, amplitude=amplitude)
        assert len(rep.poles) == 1 and abs(rep.poles[0][0] - inner) < 1e-12
        _res, _ims, cell = grid_axes(region)
        for p in pair:
            floor = complex(p.real, region.im_min)
            bound = [(seed, left_point(reason)) for seed, reason in rep.rejected
                     if abs(seed - floor) < 2.0 * cell and left_point(reason)]
            assert bound, p
            for seed, k in bound:
                evaluated = k if seed.real > 0 else -k.conjugate()
                assert any(evaluated in z.tolist() for z in calls[1:]), (seed, k)
            near = [k for k in calls[1:] if (np.abs(k - floor) < 3.0 * cell).any()]
            assert len(near) <= (1 if p.real > 0 else 0), p

    def test_seeds_next_to_the_cut_are_refined(self):
        # unequal limits: 1/t = (sqrt(k^2) - 0.5i)(k + x0 + 0.3i) has the
        # principal-root cut on Re k = 0.  The floor seed at -x0, 1.5 columns
        # left of the cut (within 1.5 cells, as the rows are a little wider
        # apart), sees only the left branch -(k + 0.5i)(k + x0 + 0.3i), whose
        # Newton step lands below the floor; it starts from the grid point
        # all the same, and its first Newton call evaluates it there
        region = SearchRegion(-2.0, 2.0, 0.01, 2.0, 8.0)
        res, ims, cell = grid_axes(region)
        x0 = 1.5 * (res[1] - res[0])
        assert x0 < 1.5 * cell
        calls = []

        def amplitude(spec, k, c):
            calls.append(k)
            return ScatteringAmplitudes(1.0 / ((np.sqrt(k * k) - 0.5j) * (k + x0 + 0.3j)),
                                        None, k, k)

        rep = find_poles(AsymRectBarrier(0.0, 1.0, 0.5, 1.0), region, C, amplitude=amplitude)
        assert [abs(k - 0.5j) < 1e-12 for k, _, _ in rep.poles] == [True]
        seed = complex(-x0, ims[0])
        left = -(seed + 0.5j) * (seed + x0 + 0.3j)
        landing = seed - left / -(2.0 * seed + x0 + 0.8j)
        assert landing.imag < region.im_min - cell
        [(grid_point, reason)] = [(k, reason) for k, reason in rep.rejected
                                  if abs(k - seed) < 1e-12]
        assert reason.startswith(f"no certified pole from guess {grid_point}: ")
        assert grid_point in calls[1].tolist()

    def test_same_poles_as_refining_every_seed(self):
        # a census over random specs: starting from the grid's Newton step and
        # stopping Newton at the region's edge drop no pole and move none.
        # Tanh poles are double, so Newton places them only to about the root
        # of the noise of 1/t: they may move by 1e-7
        rng = np.random.default_rng(27)

        def level():
            return rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])

        def smooth(a):
            return SearchRegion(-6.0 / a, 6.0 / a, 0.01 / a, 4.0 / a, 8.0 * a)

        cases = []
        for _ in range(5):
            a = rng.uniform(0.3, 2.5)
            scan = SearchRegion(-16.0 / a, 16.0 / a, 0.01 / a, 2.5 / a, 8.0 * a)
            for spec in (RectBarrier(level() / a**2, a),
                         AsymDoubleDelta(level() / a, level() / a, a),
                         AsymRectBarrier(level() / a**2, level() / a**2, level() / a**2, a)):
                cases += [(spec, scan, numeric_amplitude), (spec, scan, transmission_amplitude)]
            cases += [(Sech2(level() / a**2, a), smooth(a), transmission_amplitude),
                      (Eckart(level() / a**2, level() / a**2, level() / a**2, a), smooth(a),
                       transmission_amplitude)]
        for _ in range(5):
            a = rng.uniform(0.3, 2.5)
            cases += [(Tanh(level() / a**2, level() / a**2, a), smooth(a), transmission_amplitude),
                      (MorseFeshbach(level() / a**2, rng.uniform(-1.0, 1.0), a), smooth(a),
                       transmission_amplitude)]
        total = 0
        for spec, region, amplitude in cases:
            found = [k for k, _, _ in find_poles(spec, region, C, amplitude=amplitude).poles]
            ref = refine_every_seed(spec, region, amplitude)
            tol = 1e-7 if isinstance(spec, Tanh) else 1e-12
            assert_same_poles(found, ref, lambda q: tol * abs(q), spec)
            total += len(ref)
        assert total > 100

    @pytest.mark.parametrize("spec, amplitude, pole", [
        # on the cut 0.0046 below the ceiling: the on-axis retry from 0.85i
        # overshoots to 2.299i and comes back
        (AsymRectBarrier(0.05877947877907718, 0.05868095078771033, 0.13840597940576047,
                         1.9801649222079394), numeric_amplitude, 2.0154452663352163j),
        # a tanh double pole: the on-axis retry from 1.069i runs to 2.479i
        (Tanh(0.10067164341433432, 0.12848987464261138, 1.9353397786476354),
         transmission_amplitude, 1.5590883574354835j),
        # 0.0004 above the floor: Newton steps to 0.0056i below it, then back
        (AsymRectBarrier(-1.4577733478175479, -0.7169322798592074, -0.5555196522009408,
                         1.3016530455915563), numeric_amplitude,
         -1.3679471363803186 + 0.008087188639837052j),
        # 0.0005 below the ceiling: the ceiling seed's grid step lands above it
        (MorseFeshbach(-0.2762472132161361, -0.5698994286380625, 2.4690666454925982),
         transmission_amplitude, 0.7231855656165981 + 1.6194973198524645j),
    ], ids=["asym-rect-ceiling", "tanh-axis", "asym-rect-floor", "morse-feshbach-ceiling"])
    def test_keeps_poles_reached_from_outside_the_region(self, spec, amplitude, pole):
        # poles next to the region's edge that Newton reaches only by way of
        # iterates outside it, each from a census draw over
        # (-6/a, 6/a, 0.01/a, 4/a, 8a): the step from the outside iterate
        # halves its distance to the region, so the seed goes on
        a = length_scale(spec)
        region = SearchRegion(-6.0 / a, 6.0 / a, 0.01 / a, 4.0 / a, 8.0 * a)
        found = [k for k, _, _ in find_poles(spec, region, C, amplitude=amplitude).poles]
        tol = 1e-7 if isinstance(spec, Tanh) else 1e-12
        assert min(abs(k - pole) for k in found) <= tol * abs(pole), found


def through_t(amplitude):
    """``amplitude`` behind a pass-through wrapper, which _inv_t calls for t
    and inverts: the route every callable but the two engines takes."""
    return lambda spec, k, c: amplitude(spec, k, c)


class TestEngineInverse:
    """The pole search calls each library engine's 1/t (see _inv_t); the
    engine's t is its reciprocal, so the route through t gives the same 1/t
    to rounding, and the same poles."""

    @seed(33)
    @settings(max_examples=60, deadline=None)
    @given(spec=piecewise_specs() | smooth_specs(),
           kas=st.lists(st.complex_numbers(max_magnitude=5.0, allow_nan=False,
                                           allow_infinity=False), min_size=1, max_size=8),
           far=st.floats(0.5 * _EXP_GUARD, 2.0 * _EXP_GUARD))
    # at Im k a = -300 the transfer matrix's m10 and m11 overflow and m00
    # does not: t is representable there, and r is not
    @example(spec=DoubleDelta(1.0, 1.0), kas=[0j], far=300.0)
    def test_same_inverse_as_through_t(self, spec, kas, far):
        # k a anywhere in |k a| <= 5, k = 0, closed-form tower members (poles
        # of t) and points out to twice the overflow guard: 1/t within 4 ulps
        # of its magnitude, with 0, inf and nan at the same points
        a = length_scale(spec)
        tower = []
        if has_closed_form(spec):
            with contextlib.suppress(Qnf1dError):
                tower = [r.k for r in closed_form_qnfs(spec, (1, 4), C)]
        far_k = [far * 1j, -far * 1j, 1.0 + far * 1j, 1.0 - far * 1j]
        k = np.array(kas + [0.0] + far_k, dtype=complex) / a
        k = np.concatenate([k, np.array(tower, dtype=complex)])
        smooth = isinstance(normal_form(spec), EckartReduction)
        # the ODE integrates each point: a few points keep it short
        for amplitude, ks in ((transmission_amplitude, k),
                              (numeric_amplitude, k[:6] if smooth else k)):
            inv = _inv_t(spec, ks, C, amplitude)
            ref = _inv_t(spec, ks, C, through_t(amplitude))
            for where in (lambda z: z == 0, np.isinf, np.isnan):
                assert (where(inv) == where(ref)).all(), (amplitude, ks, inv, ref)
            fin = np.isfinite(ref)
            err = np.abs(inv[fin] - ref[fin])
            assert (err <= 4.0 * np.finfo(float).eps * np.abs(ref[fin])).all(), \
                (amplitude, ks[fin], inv[fin], ref[fin])

    def test_same_poles_as_through_t(self):
        # a census over random specs of the eight classes: the same poles,
        # one to one (tanh double poles to 1e-7 relative, the square root of
        # the noise of 1/t; simple poles to 2e-12 max(1, |k|), two Newton
        # stops below the 1e-12 step tolerance), and the same rejected seeds
        rng = np.random.default_rng(33)

        def level():
            return rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0])

        cases = []
        for _ in range(3):
            a = rng.uniform(0.3, 2.5)
            region = SearchRegion(-6.0 / a, 6.0 / a, 0.01 / a, 4.0 / a, 8.0 * a)
            for spec in (DoubleDelta(abs(level()) / a, a),
                         AsymDoubleDelta(level() / a, level() / a, a),
                         RectBarrier(level() / a**2, a),
                         AsymRectBarrier(level() / a**2, level() / a**2, level() / a**2, a)):
                cases += [(spec, region, numeric_amplitude), (spec, region, transmission_amplitude)]
            for spec in (Sech2(level() / a**2, a),
                         Eckart(level() / a**2, level() / a**2, level() / a**2, a),
                         Tanh(level() / a**2, level() / a**2, a),
                         MorseFeshbach(level() / a**2, rng.uniform(-1.0, 1.0), a)):
                cases.append((spec, region, transmission_amplitude))
        total = 0
        for spec, region, amplitude in cases:
            rep = find_poles(spec, region, C, amplitude=amplitude)
            ref = find_poles(spec, region, C, amplitude=through_t(amplitude))
            assert [s for s, _ in rep.rejected] == [s for s, _ in ref.rejected], spec
            tol = 1e-7 if isinstance(spec, Tanh) else 2e-12
            assert_same_poles([k for k, _, _ in rep.poles], [k for k, _, _ in ref.poles],
                              lambda q: tol * max(1.0, abs(q)), spec)
            total += len(rep.poles)
        assert total > 100


class TestAcceptanceRule:
    """The acceptance rule on synthetic amplitudes: it reads the residual
    and the flatness probes from the Newton calls and makes none itself."""

    @staticmethod
    def recording(inverse):
        """An amplitude with 1/t = inverse(k) that records each call's k."""
        calls = []

        def amplitude(spec, k, c):
            calls.append(k.copy())
            return ScatteringAmplitudes(1.0 / inverse(k), None, k, k)

        return amplitude, calls

    def test_simple_zero_makes_no_call_after_the_reported_iterate(self):
        amplitude, calls = self.recording(lambda k: (k - 2j) * (k + 1.0))
        k, res = refine_pole(Delta(1.0), 0.05 + 1.9j, C, amplitude=amplitude)
        assert abs(k - 2j) < 1e-12
        # the last call was the Newton call of k, its step points and both
        # its probes
        h, p = 1e-7 * max(1.0, abs(k)), 1e-4 * (1.0 + abs(k))
        assert {k, k + h, k - h, k + p, k + 1j * p} <= set(calls[-1].tolist())
        assert res == abs(_inv_t(Delta(1.0), np.array([k]), C, amplitude)[0])

    def test_flat_underflowing_inverse_is_rejected(self):
        # 1/t = 1e-30 (k - 2i) has a zero at 2i, but its probes stay far
        # below the 1e-12 floor of the flatness rule
        amplitude, _calls = self.recording(lambda k: 1e-30 * (k - 2j))
        with pytest.raises(DomainError, match="numerically flat"):
            refine_pole(Delta(1.0), 0.05 + 1.9j, C, amplitude=amplitude)

    def test_double_zero_is_accepted_by_the_stale_rule(self):
        # 1/t = (k - k0)^2 plus noise of size 1e-16, a double zero like the
        # tanh poles: Newton creeps to within sqrt(1e-16) of k0, where its
        # steps stay far above the step tolerance and its iterates stop
        # improving
        k0 = 1.0 + 2.0j

        def inverse(k):
            return (k - k0) ** 2 + 1e-16 * np.exp(1e14j * (k.real + k.imag))

        amplitude, calls = self.recording(inverse)
        k, res = refine_pole(Delta(1.0), k0 * (1.0 + 1e-3), C, amplitude=amplitude)
        assert abs(k - k0) < 1e-6 and res < 1e-8
        h = 1e-7 * abs(k)
        g = inverse(np.array([k, k + h, k - h]))
        assert abs(g[0] / ((g[1] - g[2]) / (2.0 * h))) > 1e-12 * abs(k)
        assert len(calls) < _NEWTON_MAX_ITER


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
        # from -3 + 2i Newton heads for the pole 2i, which lies in the basin of
        # the guess 1.9i but not in its own: it stops at an improving iterate
        # outside that basin, far from 2i, whose step does not halve its
        # distance to the basin, and reports its best iterate inside it
        guesses = np.array([1.9j, -3.0 + 2.0j])
        (k1, _res, reason1), (k2, _res2, reason2) = refine_pole(
            Delta(2.0), guesses, C, amplitude=transmission_amplitude)
        assert reason1 is None and abs(k1 - 2j) < 1e-12
        radius = 0.5 * (1.0 + abs(guesses[1]))
        left = left_point(reason2)
        assert abs(left - guesses[1]) > radius >= abs(k2 - guesses[1])
        assert abs(left - 2j) > 0.1


def window_members(spec):
    """The closed-form tower's distinct members with |Im k| a <= 2.05, live
    and cancelled, as (k-, k+) pairs."""
    a = length_scale(spec)
    first = 1 if normal_form(spec).v0 == 0.0 else 0
    pairs = []
    for r in closed_form_qnfs(spec, (first, 8), C):
        if abs(r.k.imag) * a <= 2.05 and not any(abs(r.k - k) < 1e-9 for _, k in pairs):
            pairs.append((r.k_minus, r.k))
    return np.array(pairs)


class TestSpectral:
    @pytest.mark.parametrize("spec", [
        Sech2(-1.0, 1.0), Sech2(3.0, 1.0), Eckart(0.0, 0.5, -0.4, 1.0),
        Tietz(1.1, 0.3, 0.9, "cosh"), Hua(1.2, -2.0, 1.0),
    ], ids=["sech2-well", "sech2-barrier", "eckart", "tietz", "hua"])
    def test_eigenvalues_are_the_closed_form_members(self, spec):
        # every low-lying member, on both sides, and no other eigenvalue
        # there: a bijection; measured <= 3.6e-11 (Tietz), 3.6e-13 elsewhere
        k_minus, k_plus, _size = _spectral_qnfs(spec, C)
        low = np.abs(k_plus.imag) * length_scale(spec) <= 2.05
        found = np.stack([k_minus[low], k_plus[low]], axis=-1)
        members = window_members(spec)
        assert len(members) == len(found)
        dist = np.abs(members[:, None] - found[None]).max(axis=-1)
        assert dist.min(axis=1).max() < 1e-10
        assert dist.min(axis=0).max() < 1e-10

    def test_a_double_pole_is_one_cluster(self):
        # the tanh member 1.3i (k- = 0.7i) is a double pole, a defective
        # eigenvalue that splits in two; the pair counts once, at its mean
        k_minus, k_plus, size = _spectral_qnfs(Tanh(0.0, 0.6, 1.0), C)
        near = np.abs(k_plus - 1.3j) < 1e-3
        assert near.sum() == 1 and size[near][0] == 2
        assert abs(k_plus[near][0] - 1.3j) < 1e-8 and abs(k_minus[near][0] - 0.7j) < 1e-8

    def test_a_member_listed_twice_is_one_location(self):
        # the Eckart tower lists 2.5i as n = 0 plus and n = 3 minus
        spec = Eckart(0.0, 2.0, -1.0, 1.0)
        assert sum(abs(r.k - 2.5j) < 1e-12 for r in closed_form_qnfs(spec, (0, 3), C)) == 2
        _k_minus, k_plus, _size = _spectral_qnfs(spec, C)
        near = np.abs(k_plus - 2.5j) < 1e-3
        assert near.sum() == 1 and abs(k_plus[near][0] - 2.5j) < 1e-8

    def test_the_trivial_zero_is_dropped(self):
        # the reflectionless well has the eigenvalue k = 0 (f = z)
        spec = Sech2(-1.0, 1.0)
        _k_minus, k_plus, _size = _spectral_qnfs(spec, C)
        assert np.abs(k_plus).min() > 0.5

    def test_eigenvalues_at_infinity_raise_no_warning(self):
        # with unequal limits u = 0 solves the collocated problem (its
        # constant term kills constants); that is k at infinity, dropped
        # without a floating-point warning
        spec = Eckart(0.0, 0.5, -0.4, 1.0)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            k_minus, k_plus, _size = _spectral_qnfs(spec, C)
        assert np.isfinite(k_minus).all() and np.isfinite(k_plus).all()

