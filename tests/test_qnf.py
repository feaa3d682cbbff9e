import cmath
import math
import struct

import mpmath
import numpy as np
import pytest

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    PhysicalConstants,
    RectBarrier,
    RosenMorse,
    SearchRegion,
    Sech2,
    Step,
    Tanh,
    asymptotic_qnfs,
    closed_form_qnfs,
    find_poles,
    fit_offset_gap,
    perturbative_qnfs,
    pole_condition,
    qnf_energy,
    refine_pole,
    resonances,
    transcendental_qnfs,
    transmission_amplitude,
)
from qnf1d import qnf as qnf_module
from qnf1d.errors import DomainError, UnsupportedPotentialError
from qnf1d.potentials import Interfaces, _find_roots, normal_form
from qnf1d.qnf import (
    _keep_first, _scan_brackets, rect_barrier_k_series, rect_barrier_q_series,
)
from qnf1d.specfn import lambert_w

C = PhysicalConstants()

W_INV_E = 0.27846454276107379  # W(1/e), the double-delta damped-mode threshold


class TestClosedForms:
    def test_delta_single_damped_mode(self):
        res = closed_form_qnfs(Delta(1.0), (0, 0), C)
        assert len(res) == 1
        assert res[0].k == 1j
        assert res[0].classification == "damped_mode"
        assert qnf_energy(res[0].k, C) == pytest.approx(-C.h2_2m)

    def test_attractive_delta_is_bound(self):
        res = closed_form_qnfs(Delta(-1.0), (0, 0), C)
        assert res[0].k == -1j
        assert res[0].classification == "bound_state"

    def test_step_has_none(self):
        assert closed_form_qnfs(Step(1.0), (0, 3), C) == []

    def test_double_delta_weak_coupling_damped(self):
        # 2 a k0 = 0.2 < W(1/e): the branch-0 minus-sign mode is imaginary
        res = closed_form_qnfs(DoubleDelta(0.1, 1.0), (0, 0), C)
        modes = {r.sign_choice: r for r in res}
        k = modes["minus"].k
        # frozen from an independent high-precision root of w e^w = -0.2 e^0.2
        assert abs(k - 0.27244022007999078j) < 1e-13
        assert modes["minus"].classification == "damped_mode"

    def test_double_delta_residuals_and_conjugacy(self):
        spec = DoubleDelta(0.5, 1.0)
        res = closed_form_qnfs(spec, (-5, 5), C)
        assert all(r.residual < 1e-10 for r in res)
        # each QNF has a mirror partner -conj(k); for the minus-sign family
        # the partner sits on branch -n-1 (a cut-crossing index shift), so
        # hunt for mirrors in a wider branch window
        wide = [r.k for r in closed_form_qnfs(spec, (-7, 7), C)]
        for r in res:
            assert min(abs(-r.k.conjugate() - q) for q in wide) < 1e-9

    @pytest.mark.parametrize("alpha", [353.0, 400.0])
    def test_double_delta_too_strong_coupling_is_rejected(self, alpha):
        # 2 k0 a e^{2 k0 a} is not finite: inf at k0 a = 353, an overflow of
        # e^{2 k0 a} itself at 400
        spec = DoubleDelta(alpha, 1.0)
        with pytest.raises(DomainError, match="coupling"):
            closed_form_qnfs(spec, (0, 2), C)
        with pytest.raises(DomainError, match="coupling"):
            asymptotic_qnfs(spec, 3, C)
        with pytest.raises(DomainError, match="coupling"):
            perturbative_qnfs(AsymDoubleDelta(alpha, alpha, 1.0), "near_symmetric_order0", 0, C)

    def test_tanh_example(self):
        res = closed_form_qnfs(Tanh(0.0, 2.0, 1.0), (1, 1), C)
        assert res[0].k == pytest.approx(2j)  # transmitted-side wavenumber
        assert res[0].k_minus == pytest.approx(0j)

    def test_tanh_tower_drops_the_trivial_zero(self):
        # V- > V+: the n = 1 member has k+ = 0, which is no pole of t; the
        # tanh tower drops it as the sech^2 / Eckart tower does
        res = closed_form_qnfs(Tanh(2.0, 0.0, 1.0), (1, 3), C)
        assert [r.k for r in res] == [pytest.approx(1.5j), pytest.approx(8j / 3)]
        assert [r.branch for r in res] == [2, 3]

    def test_index_ranges(self):
        # an iterable of indices is sorted and de-duplicated; an empty one,
        # and a sech^2 tower below n = 0, are rejected
        spec = DoubleDelta(1.0, 1.0)
        assert closed_form_qnfs(spec, [2, 0, 1, 1], C) == closed_form_qnfs(spec, (0, 2), C)
        with pytest.raises(DomainError, match="empty"):
            closed_form_qnfs(spec, [], C)
        with pytest.raises(DomainError, match="n >= 0"):
            closed_form_qnfs(Sech2(-1.0, 1.0), (-1, 2), C)

    def test_tanh_rejects_nonpositive_indices(self):
        with pytest.raises(DomainError):
            closed_form_qnfs(Tanh(0.0, 2.0, 1.0), (0, 2), C)

    def test_sech2_example(self):
        res = closed_form_qnfs(Sech2(-1.0, 1.0), (0, 0), C)
        modes = {r.sign_choice: r for r in res}
        assert modes["plus"].k == pytest.approx(2j)
        assert modes["minus"].k == pytest.approx(-1j)
        assert modes["minus"].classification == "bound_state"

    def test_eckart_residual_condition(self):
        spec = Eckart(0.0, 2.0, -1.0, 1.0)
        for r in closed_form_qnfs(spec, (0, 5), C):
            assert r.residual < 1e-10

    def test_barriers_are_transcendental_only(self):
        with pytest.raises(UnsupportedPotentialError):
            closed_form_qnfs(RectBarrier(1.0, 1.0), (0, 1), C)


def _reflectionless(lam, a):
    """Sech2 with V0 = -lam (lam + 1) hbar^2 / (2 m a^2)."""
    return Sech2(-lam * (lam + 1) * C.h2_2m / (a * a), a)


class TestCancelledMembers:
    """Tower members where the denominator gammas of t cancel the numerator
    pole are classified ``cancelled``."""

    @pytest.mark.parametrize("lam", [1, 2, 3, 4])
    def test_cancelled_members_are_no_poles(self, lam):
        rng = np.random.default_rng(lam)
        for a in rng.uniform(0.3, 3.0, size=3).tolist():
            spec = _reflectionless(lam, a)
            tower = closed_form_qnfs(spec, (0, 8), C)
            t = transmission_amplitude(spec, np.array([r.k for r in tower]) * (1 + 1e-6), C).t
            for r, tr in zip(tower, t):
                if r.classification == "cancelled":
                    assert np.isfinite(tr) and abs(tr) < 1e3, (lam, a, r)
                elif r.k.imag != 0:
                    assert abs(1 / tr) < 1e-4, (lam, a, r)
            assert sum(r.classification == "bound_state" for r in tower) == lam

    @pytest.mark.parametrize("spec, ns, expected", [
        (Eckart(0.0, 2.0, -1.0, 1.0), (0, 2), [-2j, 2j]),
        (RosenMorse(1.0, 1.0, -1.0, 1.0), (0, 2), [-2j, 2j]),
        (Tanh(0.0, 2.0, 1.0), (1, 1), [2j]),
        # V+ - V- = 4 n^2 / (p2 a^2): the tanh member n sits on the threshold
        *((Tanh(-1.0, -1.0 + 8.0 * n * n, 0.5), (n, n), [4j * n]) for n in (1, 2, 3)),
    ], ids=["eckart", "rosen_morse", "tanh", "tanh_n1", "tanh_n2", "tanh_n3"])
    def test_thresholds_are_cancelled(self, spec, ns, expected):
        # at k- = 0 the denominator Gamma(i k- a) is at its m = 0 pole, so
        # t has no pole there
        at_threshold = [r for r in closed_form_qnfs(spec, ns, C) if r.k_minus == 0]
        assert sorted(r.k.imag for r in at_threshold) == [k.imag for k in expected]
        assert all(r.classification == "cancelled" for r in at_threshold)
        ks = np.array([r.k for r in at_threshold])
        for k0, (k, _res, reason) in zip(ks, refine_pole(
                spec, ks * (1 + 1e-3), C, amplitude=transmission_amplitude)):
            assert reason is not None or abs(k - k0) > 1e-6, (spec, k0, k)

    def test_non_integer_couplings_cancel_nothing(self):
        rng = np.random.default_rng(7)
        specs = [Sech2(_reflectionless(lam, a).V0 * (1 + float(rng.uniform(1e-4, 1e-2))), a)
                 for lam in range(1, 5) for a in rng.uniform(0.3, 3.0, size=3).tolist()]
        specs += [Eckart(*rng.uniform([-3, -3, -5, 0.3], [3, 3, 5, 3]).tolist())
                  for _ in range(10)]
        specs += [Tanh(*rng.uniform([-3, -3, 0.3], [3, 3, 3]).tolist()) for _ in range(10)]
        for spec in specs:
            lo = 1 if isinstance(spec, Tanh) else 0
            assert all(r.classification != "cancelled"
                       for r in closed_form_qnfs(spec, (lo, 20), C)), spec

    def test_every_damped_member_at_the_reflectionless_couplings(self):
        for a in (0.7, 1.0, 2.5):
            for entry in resonances(Sech2(-1.0, a), 5, C):
                tower = closed_form_qnfs(Sech2(entry.parameter, a), (0, 12), C)
                damped = [r for r in tower if r.k.imag > 0]
                assert damped and all(r.classification == "cancelled" for r in damped)

    def test_k_is_the_one_member_expression(self):
        # the tower's array pass gives i (+-p2 dv a / (2 d) + d / (2 a)) as
        # evaluated member by member, for real and for complex s, to a few
        # ulps of its two terms (the terms cancel near k- = 0, so the bound
        # is on their magnitudes, not on |k|); 1.5 ulps measured
        rng = np.random.default_rng(11)
        specs = [Sech2(*rng.uniform([-8, 0.2], [9, 3]).tolist()) for _ in range(20)]
        specs += [Eckart(*rng.uniform([-3, -3, -5, 0.2], [3, 3, 5, 3]).tolist())
                  for _ in range(20)]
        specs += [Tanh(*rng.uniform([-3, -3, 0.2], [3, 3, 3]).tolist()) for _ in range(10)]
        eps = np.finfo(float).eps
        for spec in specs:
            form = normal_form(spec)
            a, dv, two_s = form.a, form.v_plus - form.v_minus, 2.0 * form.s(C.p2)
            if form.v0 == 0.0:
                ds = {(n, "none"): 2 * n for n in range(1, 30)}
            else:
                ds = {(n, label): (2 * n + 1) + sgn * two_s for n in range(30)
                      for sgn, label in ((1.0, "plus"), (-1.0, "minus"))}
            tower = closed_form_qnfs(spec, (min(n for n, _ in ds), 29), C)
            assert tower
            for r in tower:
                d = ds[r.branch, r.sign_choice]
                step, half = 0.5 * C.p2 * dv * a / d, d / (2.0 * a)
                bound = 4.0 * eps * (abs(step) + abs(half))
                assert abs(r.k - 1j * (step + half)) <= bound, spec
                assert abs(r.k_minus - 1j * (half - step)) <= bound, spec


class TestThreshold:
    def test_imaginary_to_complex_transition_at_w_inv_e(self):
        a = 1.0

        def is_imaginary(g):
            spec = DoubleDelta(g / (2.0 * a), a)  # k0 = g / (2a)
            res = closed_form_qnfs(spec, (0, 0), C)
            k = next(r.k for r in res if r.sign_choice == "minus")
            return abs(k.real) < 1e-10 * max(1.0, abs(k))

        lo, hi = 0.2, 0.35
        assert is_imaginary(lo) and not is_imaginary(hi)
        while hi - lo > 1e-8:
            mid = 0.5 * (lo + hi)
            if is_imaginary(mid):
                lo = mid
            else:
                hi = mid
        assert abs(0.5 * (lo + hi) - W_INV_E) < 1e-6


def _mp_axis_root(spec, y):
    """The root near y of den / q of a RectBarrier's t at k = i y, i times a
    real function, by 50-digit secant steps."""
    def den(y):
        k = mpmath.mpc(0, y)
        q = mpmath.sqrt(k * k - C.p2 * spec.V0)
        z = 2j * q * spec.a
        return (((k + q) ** 2 * mpmath.exp(z) - (k - q) ** 2 * mpmath.exp(-z)) / q).imag

    with mpmath.workdps(50):
        return mpmath.findroot(den, (y, y * (1 + 1e-10)))


class TestTranscendental:
    def test_rect_merge_point(self):
        def count(c0a):
            return len(transcendental_qnfs(RectBarrier(c0a**2 / 2.0, 1.0),
                                           "imaginary_axis", C))

        assert count(0.6) == 2
        assert count(0.7) == 0
        lo, hi = 0.6, 0.7
        while hi - lo > 1e-5:
            mid = 0.5 * (lo + hi)
            if count(mid) == 2:
                lo = mid
            else:
                hi = mid
        merge = 0.5 * (lo + hi)
        assert abs(merge - 0.663) <= 0.005
        roots = transcendental_qnfs(RectBarrier(lo**2 / 2.0, 1.0),
                                    "imaginary_axis", C)
        qa = sum(abs(r.aux) for r in roots) / 2.0
        assert abs(qa - 1.2) <= 0.05

    def test_rect_lower_root_matches_series(self):
        spec = RectBarrier(0.005, 1.0)  # k0 = 0.1
        lo = transcendental_qnfs(spec, "imaginary_axis", C)[0]
        assert abs(lo.aux - 0.10050549300503645j) < 1e-12  # frozen root of u = c cosh u
        assert abs(lo.aux - rect_barrier_q_series(0.1, 1.0)) < 1e-7
        assert lo.residual < 1e-10

    def test_attractive_rect_bound_states(self):
        spec = RectBarrier(-2.0, 1.0)
        roots = transcendental_qnfs(spec, "imaginary_axis", C)
        assert roots, "deep well must bind"
        k0_mag = math.sqrt(C.p2 * 2.0)
        for r in roots:
            assert r.classification == "bound_state"
            assert abs(r.aux) <= k0_mag + 1e-12  # a real q, |q| <= |k0|
            assert r.residual < 1e-10

    @staticmethod
    def certified(spec, roots):
        """Whether the transfer-matrix refine_pole keeps each root to 1e-8."""
        ks = np.array([r.k for r in roots])
        return all(reason is None and abs(k - g) <= 1e-8
                   for g, (k, _res, reason) in zip(ks, refine_pole(spec, ks, C)))

    def test_shallow_well_damped_mode_above_k0(self):
        # k0 a = 0.707 < 1: besides its bound state the well has a damped
        # mode with imaginary inner wavenumber, y = kappa coth(kappa a)
        spec = RectBarrier(-1.0, 0.5)
        roots = transcendental_qnfs(spec, "imaginary_axis", C)
        assert [r.classification for r in roots] == ["bound_state", "damped_mode"]
        assert abs(roots[0].k - (-0.78476j)) < 1e-5
        assert abs(roots[1].k - 3.30114j) < 1e-5
        assert roots[1].aux.real == 0 and roots[1].aux.imag > math.sqrt(C.p2)
        assert self.certified(spec, roots)

    def test_deep_well_real_q_damped_mode(self):
        spec = RectBarrier(-50.0, 1.0)
        roots = transcendental_qnfs(spec, "imaginary_axis", C)
        assert len(roots) == 12
        assert any(abs(r.k - 7.07396j) < 1e-5 for r in roots)
        assert sum(r.classification == "bound_state" for r in roots) == math.ceil(20 / math.pi)
        # the transfer matrix certifies the nine roots below 8.4i; of the
        # three damped modes above (8.50i, 9.37i, 9.85i) it rejects two, as
        # its |1/t| grows like e^{2ya}, and 50-digit secant steps on the
        # denominator of t confirm all three
        assert [r.k.imag < 8.4 for r in roots] == [True] * 9 + [False] * 3
        assert self.certified(spec, roots[:9])
        for r in roots[9:]:
            assert abs(_mp_axis_root(spec, r.k.imag) - r.k.imag) <= 1e-12 * r.k.imag

    def test_axis_roots_print_no_negative_zero(self):
        roots = transcendental_qnfs(AsymDoubleDelta(-1.0, -0.7, 1.0), "imaginary_axis", C)
        assert roots and all(math.copysign(1.0, r.k.real) == 1.0 for r in roots)

    def test_census(self):
        # a fixed draw of barriers, wells and delta pairs where the transfer
        # matrix keeps its digits (k0 a <= 6.3, |alpha| <= 3)
        rng = np.random.default_rng(23)
        for _ in range(40):
            a = 10 ** rng.uniform(-1.0, 0.5)
            k0a = 10 ** rng.uniform(-1.5, 0.8)
            for spec in (RectBarrier(rng.choice([-0.5, 0.5]) * (k0a / a) ** 2, a),
                         AsymDoubleDelta(*rng.uniform(-3.0, 3.0, 2), a),
                         DoubleDelta(rng.uniform(-3.0, 3.0), a)):
                roots = transcendental_qnfs(spec, "imaginary_axis", C)
                assert self.certified(spec, roots), spec
                if isinstance(spec, RectBarrier) and spec.V0 < 0:
                    bound = sum(r.classification == "bound_state" for r in roots)
                    assert bound == math.ceil(2.0 * k0a / math.pi), spec
                if isinstance(spec, DoubleDelta):
                    axis = {r.k for r in closed_form_qnfs(spec, (-1, 0), C)
                            if r.classification in ("damped_mode", "bound_state")}
                    assert len(roots) == len(axis), spec
                    for r in roots:
                        assert min(abs(r.k - k) for k in axis) <= 1e-10 * abs(r.k), spec

    def test_small_k0a_barrier_keeps_both_roots(self):
        # both roots of u = k0a cosh u, k = i (u / a) tanh u: the lower one
        # below 1e-8 / a (classified trivial_zero) from k0 a = 1e-4, the upper
        # one at y a up to 22, where t's denominator keeps k - k2 ~ k0^2 / 2y
        for k0a in 10.0 ** -np.arange(3, 9):
            for a in (0.3, 1.0, 3.0):
                lo, hi = k0a, 50.0
                for _ in range(60):
                    lo, hi = k0a * math.cosh(lo), math.acosh(hi / k0a)
                roots = transcendental_qnfs(RectBarrier((k0a / a) ** 2 / C.p2, a),
                                            "imaginary_axis", C)
                assert len(roots) == 2, (k0a, a)
                for r, u in zip(roots, (lo, hi)):
                    assert abs(r.k - 1j * u * math.tanh(u) / a) <= 1e-12 * abs(r.k), (k0a, a)
                    assert abs(r.aux - 1j * u / a) <= 1e-12 * abs(r.aux), (k0a, a)
                    assert r.residual <= 1e-8

    def test_census_small_k0a(self):
        # barriers and wells with k0 a = 1e-9 .. 10^-1.5, where the transfer
        # matrix loses the roots' digits: each lists two roots (a barrier's
        # damped modes, a well's bound state and damped mode), and 50-digit
        # secant steps on the denominator of t stay on each
        rng = np.random.default_rng(29)
        for _ in range(15):
            a = 10 ** rng.uniform(-1.0, 0.5)
            k0a = 10 ** rng.uniform(-9.0, -1.5)
            for sign in (1.0, -1.0):
                spec = RectBarrier(sign * (k0a / a) ** 2 / C.p2, a)
                roots = transcendental_qnfs(spec, "imaginary_axis", C)
                assert len(roots) == 2, spec
                for r in roots:
                    y = _mp_axis_root(spec, r.k.imag)
                    assert abs(y - r.k.imag) <= 1e-12 * abs(r.k.imag), spec

    def test_census_lists_every_bracketed_root(self, monkeypatch):
        # a fixed draw of wells and barriers with k0 a up to about 50 and of
        # unequal and equal delta pairs with |alpha| <= 3, an equal pair whose
        # two bound states lie 4.9e-5 apart, and a strong pair whose bound
        # states share a double and whose grid runs where sin(2 k a)
        # overflows (nan nodes bracket nothing): every root that the bracket
        # scan and the root finder find is listed within the 8 ulps of the
        # pick, and each listed residual meets the rounding bound of t's
        # denominator
        found = []

        def recording(f, *brackets):
            found.append(_find_roots(f, *brackets))
            return found[-1]

        monkeypatch.setattr(qnf_module, "_find_roots", recording)
        rng = np.random.default_rng(28)
        specs = [DoubleDelta(-2.1223335622439805, 2.678037710416829), DoubleDelta(-30.0, 3.0)]
        for _ in range(60):
            a = 10 ** rng.uniform(-1.0, 0.5)
            k0a = 10 ** rng.uniform(-2.0, 1.7)
            specs += [RectBarrier(rng.choice([-1.0, 1.0]) * (k0a / a) ** 2 / C.p2, a),
                      AsymDoubleDelta(*rng.uniform(-3.0, 3.0, 2), a),
                      DoubleDelta(rng.uniform(-3.0, 3.0), a)]
        listed = 0
        for spec in specs:
            found.clear()
            roots = transcendental_qnfs(spec, "imaginary_axis", C)
            got = np.array([r.k.imag for r in roots])
            for y in np.concatenate(found) if found else []:
                assert np.min(np.abs(got - y), initial=np.inf) <= 8 * np.spacing(abs(y)), spec
            for r in roots:
                k, k2 = abs(r.k), abs(r.k if r.aux is None else r.aux)
                bound = 1.0 + normal_form(spec).a * (k * k + k2 * k2) / k2
                assert r.residual <= qnf_module._DEN_ROUNDING * bound, spec
            listed += len(roots)
        assert listed > 300

    def test_asym_dd_imaginary_root_exceeds_couplings(self):
        spec = AsymDoubleDelta(0.05, 0.08, 1.0)
        roots = transcendental_qnfs(spec, "imaginary_axis", C)
        assert len(roots) == 2
        for r in roots:
            assert r.k.imag > 0.08
            assert r.residual < 1e-10

    def test_asym_dd_strong_coupling_empty(self):
        # above the damped-mode threshold no imaginary-axis QNF survives
        assert transcendental_qnfs(AsymDoubleDelta(1.0, 2.0, 1.0),
                                   "imaginary_axis", C) == []

    @pytest.mark.parametrize("spec", [RectBarrier(1.0, 1.0), AsymDoubleDelta(1.0, 0.7, 1.0)],
                             ids=repr)
    def test_rootless_tower_ends_at_the_bracket_scan(self, spec, monkeypatch):
        # no bracket, no root: the one denominator call is the grid's, and no
        # residual is computed for the empty tower
        residuals, denominators = [], []
        monkeypatch.setattr(qnf_module, "_residual", lambda *args: residuals.append(args))
        denominator = Interfaces.denominator

        def counting(self, k, p2):
            denominators.append(k)
            return denominator(self, k, p2)

        monkeypatch.setattr(Interfaces, "denominator", counting)
        assert transcendental_qnfs(spec, "imaginary_axis", C) == []
        assert residuals == [] and len(denominators) == 1

    def test_region_search_matches_closed_form(self):
        spec = DoubleDelta(0.5, 1.0)
        region = SearchRegion(0.5, 8.0, 0.05, 2.0, 6.0)
        found = transcendental_qnfs(spec, region, C)
        closed = [r.k for r in closed_form_qnfs(spec, (-3, 3), C)
                  if 0.5 <= r.k.real <= 8.0 and 0.05 <= r.k.imag <= 2.0]
        assert len(found) == len(closed)
        for r in found:
            assert min(abs(r.k - q) for q in closed) < 1e-8

    def test_bracket_scan_matches_scalar_loop(self):
        # the grid is one array call; the reference loops over the grid with
        # the math-library function, and an overflow brackets nothing
        xs = np.linspace(-20.0, 800.0, 4001)
        vals = []
        for x in xs:
            try:
                vals.append(math.tan(x) * math.exp(x) - 1.0)
            except OverflowError:
                vals.append(math.nan)
        ref = [(x0, x1) for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:])
               if math.isfinite(v0) and math.isfinite(v1) and v0 * v1 < 0]
        assert len(ref) > 100
        f = lambda x: np.tan(x) * np.exp(x) - 1.0
        lo, hi, f_lo, f_hi = _scan_brackets(f, xs)
        assert list(zip(lo, hi)) == ref
        # the end values are the grid call's, so no root finder calls f there
        assert np.array_equal(f_lo, f(lo)) and np.array_equal(f_hi, f(hi))

    def test_bracket_scan_lists_a_zero_at_a_node_once(self):
        # the product of the values next to an exact zero is 0, not < 0
        xs = np.linspace(0.0, 1.0, 11)
        assert xs[5] == 0.5
        brackets = _scan_brackets(lambda y: y - 0.5, xs)
        assert [b.tolist() for b in brackets] == [[0.5], [0.5], [0.0], [0.0]]
        assert _find_roots(lambda y: y - 0.5, *brackets).tolist() == [0.5]
        # and with a sign change in another cell, in grid order
        lo, hi, _, _ = _scan_brackets(lambda y: (y - 0.5) * (y - 0.15), xs)
        assert lo.tolist() == [0.1, 0.5] and hi.tolist() == [0.2, 0.5]

    def test_bracket_scan_sees_signs_whose_product_underflows(self):
        xs = np.array([0.0, 2.0])
        lo, hi, _, _ = _scan_brackets(lambda y: 1e-200 * (1.0 - y), xs)
        assert lo.tolist() == [0.0] and hi.tolist() == [2.0]

    def test_well_grid_has_no_nan_node(self):
        # for this well's k0, k0 ** 2 rounds one ulp above k0 * k0, so a q
        # grid node written sqrt(k0 ** 2 - q * q) is nan at q = k0 and warns
        # (an error under this suite's warning filter)
        spec = RectBarrier(-0.012670899879997586, 0.2983423648043918)
        roots = transcendental_qnfs(spec, "imaginary_axis", C)
        assert [r.classification for r in roots] == ["bound_state", "damped_mode"]

    def test_bad_descriptor(self):
        with pytest.raises(DomainError):
            transcendental_qnfs(RectBarrier(1.0, 1.0), "real_axis", C)


class TestPerturbative:
    def test_symmetric_limit_reproduces_closed_form(self):
        # k+ = k- collapses the order-0 estimate onto the plus-sign tower
        spec = AsymDoubleDelta(0.3, 0.3, 1.0)
        est = perturbative_qnfs(spec, "near_symmetric_order0", 1, C)
        closed = closed_form_qnfs(DoubleDelta(0.3, 1.0), (1, 1), C)
        plus = next(r.k for r in closed if r.sign_choice == "plus")
        assert abs(est.k - plus) < 1e-12

    def test_near_symmetric_order_scaling(self):
        kbar, a, n = 0.3, 1.0, 1
        errs0, errs2 = [], []
        for eps in (0.1, 0.05, 0.025):
            spec = AsymDoubleDelta(kbar + eps / 2.0, kbar - eps / 2.0, a)
            e2 = perturbative_qnfs(spec, "near_symmetric_order2", n, C)
            exact, _ = refine_pole(spec, e2.k, C, amplitude=transmission_amplitude)
            e0 = perturbative_qnfs(spec, "near_symmetric_order0", n, C)
            errs0.append(abs(e0.k - exact))
            errs2.append(abs(e2.k - exact))
        p0 = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs0), 1)[0]
        p2 = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs2), 1)[0]
        assert 1.7 <= p0 <= 2.3
        assert 3.5 <= p2 <= 4.5

    def test_small_separation_first_order(self):
        # k = i(k+ + k-) + 4i k+ k- a + O(a^2); the a-coefficient sign is
        # fixed against the exact pole condition (one display in the
        # literature carries the opposite sign)
        kp, km = 0.3, 0.5
        errs = []
        for a in (0.02, 0.01, 0.005):
            spec = AsymDoubleDelta(kp, km, a)
            est = perturbative_qnfs(spec, "small_separation", 0, C)
            exact = min(transcendental_qnfs(spec, "imaginary_axis", C),
                        key=lambda r: abs(r.k - est.k)).k
            errs.append(abs(est.k - exact))
        # halving a quarters the error (O(a^2) remainder)
        assert 3.0 < errs[0] / errs[1] < 5.0
        assert 3.0 < errs[1] / errs[2] < 5.0

    def test_rect_series_values(self):
        assert rect_barrier_q_series(0.1, 1.0) == pytest.approx(
            1j * 0.1 * (1.0 + 0.005 + (13.0 / 24.0) * 1e-4), abs=1e-15
        )
        est = perturbative_qnfs(RectBarrier(0.005, 1.0), "small_k0a_series", 0, C)
        assert est.k == pytest.approx(rect_barrier_k_series(0.1, 1.0))

    def test_rect_series_sixth_order(self):
        cas = [0.2, 0.1, 0.05]
        errs = []
        for ca in cas:
            spec = RectBarrier(ca**2 / 2.0, 1.0)
            exact = transcendental_qnfs(spec, "imaginary_axis", C)[0]
            errs.append(abs(rect_barrier_q_series(ca, 1.0) - exact.aux) / abs(exact.aux))
        slope = np.polyfit(np.log(cas), np.log(errs), 1)[0]
        assert 5.5 <= slope <= 6.5

    def test_asym_rect_small_a(self):
        # symmetric check: the displayed series reduces to the symmetric
        # barrier series, and the k-space error falls like a^3
        errs = []
        for a, v3 in ((0.08, 0.2), (0.04, 0.05), (0.02, 0.0125)):
            spec = AsymRectBarrier(0.0, 1.0, v3, a)
            est = perturbative_qnfs(spec, "small_a_asym_rect", 0, C)
            exact, _ = refine_pole(spec, est.k, C, amplitude=transmission_amplitude)
            errs.append(abs(est.k - exact))
        assert 6.0 < errs[0] / errs[1] < 11.0
        assert 6.0 < errs[1] / errs[2] < 11.0

    def test_asym_rect_symmetric_value(self):
        # at V1 = V3 the displayed k2^2 series equals the symmetric one
        p2 = C.p2
        a = 0.05
        spec = AsymRectBarrier(0.0, 1.0, 0.0, a)
        est = perturbative_qnfs(spec, "small_a_asym_rect", 0, C)
        k0sq = p2 * 1.0
        expect_k2sq = -k0sq * (1.0 + k0sq * a * a)
        assert est.aux**2 == pytest.approx(expect_k2sq, rel=1e-12)

    def test_regime_validation(self):
        with pytest.raises(DomainError):
            perturbative_qnfs(RectBarrier(1.0, 1.0), "near_symmetric_order0", 0, C)
        with pytest.raises(DomainError):
            perturbative_qnfs(AsymDoubleDelta(0.1, 0.2, 1.0), "small_k0a_series", 0, C)
        with pytest.raises(DomainError):
            perturbative_qnfs(RectBarrier(-1.0, 1.0), "small_k0a_series", 0, C)
        with pytest.raises(DomainError, match="unknown regime"):
            perturbative_qnfs(RectBarrier(1.0, 1.0), "large_n", 0, C)
        with pytest.raises(DomainError, match="requires a barrier"):
            perturbative_qnfs(DoubleDelta(1.0, 1.0), "small_a_asym_rect", 0, C)
        # k12^2 + k23^2 = p2 (2 V2 - V1 - V3) = 0
        with pytest.raises(DomainError, match="degenerate"):
            perturbative_qnfs(AsymRectBarrier(1.0, 0.0, -1.0, 1.0), "small_a_asym_rect", 0, C)


class TestAsymptotic:
    def test_no_asymptotic_form(self):
        with pytest.raises(UnsupportedPotentialError):
            asymptotic_qnfs(Step(1.0), 3, C)

    def test_double_delta_improves_with_branch(self):
        self.check_double_delta_tower("plus")

    def test_double_delta_minus_tower_improves_with_branch(self):
        self.check_double_delta_tower("minus")

    @staticmethod
    def check_double_delta_tower(sign):
        spec = DoubleDelta(0.5, 1.0)
        errs = {}
        for n in (3, 6):
            approx = asymptotic_qnfs(spec, n, C, sign=sign)
            exact = next(r.k for r in closed_form_qnfs(spec, (n, n), C)
                         if r.sign_choice == sign)
            errs[n] = abs(approx.k - exact) / abs(exact)
        assert errs[6] < errs[3]

    def test_rect_barrier_improves_with_branch(self):
        spec = RectBarrier(0.5, 1.0)
        errs = {}
        for n in (3, 6):
            approx = asymptotic_qnfs(spec, n, C)
            exact, _ = refine_pole(spec, approx.k, C,
                                   amplitude=transmission_amplitude)
            errs[n] = abs(approx.k - exact) / abs(exact)
        assert errs[6] < errs[3]

    def test_tanh_linear_spacing(self):
        approx = asymptotic_qnfs(Tanh(0.0, 2.0, 1.0), 9, C)
        assert approx.k == 9j
        exact = closed_form_qnfs(Tanh(0.0, 2.0, 1.0), (9, 9), C)[0].k
        assert abs(approx.k - exact) / abs(exact) < 0.02

    def test_sech2_offset(self):
        self.check_sech2_tower("plus")

    def test_sech2_minus_tower_offset(self):
        self.check_sech2_tower("minus")

    @staticmethod
    def check_sech2_tower(sign):
        approx = asymptotic_qnfs(Sech2(-1.0, 1.0), 7, C, sign=sign)
        exact = next(r.k for r in closed_form_qnfs(Sech2(-1.0, 1.0), (7, 7), C)
                     if r.sign_choice == sign)
        assert abs(approx.k - exact) < 1e-12  # affine tower: exact at all n


def _bits(z):
    return struct.pack("<dd", z.real, z.imag)


def _within_ulps(got, ref, ulps=4):
    """|got - ref| within ulps units in the last place of |ref|; got not
    finite where ref is not (an overflowing product may give inf or nan)."""
    if not cmath.isfinite(ref):
        return not cmath.isfinite(got)
    return abs(got - ref) <= ulps * math.ulp(abs(ref))


class TestScalarFormulaBits:
    """The array builders give the one-member formulas as Python evaluates
    them on complex scalars: bit for bit where only exact products by +-i
    and one division per part enter, else within 4 ulps (numpy's complex
    product may fuse into FMA and round unlike Python's)."""

    NS = list(range(-40, 41))

    def check(self, spec, sign, formula):
        got = [asymptotic_qnfs(spec, n, C, sign=sign).k for n in self.NS]
        assert list(map(_bits, got)) == [_bits(formula(n)) for n in self.NS]

    def check_ulps(self, spec, sign, formula):
        got = [asymptotic_qnfs(spec, n, C, sign=sign).k for n in self.NS]
        assert all(_within_ulps(z, formula(n)) for z, n in zip(got, self.NS))

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_double_delta(self, sign):
        alpha, a = 0.8, 1.3
        k0 = 0.5 * C.p2 * alpha
        z = (1.0 if sign == "plus" else -1.0) * (2.0 * k0 * a) * math.exp(2.0 * k0 * a)

        def formula(n):
            l1 = cmath.log(complex(z)) + 1j * (2.0 * math.pi) * n
            return 1j * (k0 - (l1 - cmath.log(l1)) / (2.0 * a))
        self.check(DoubleDelta(alpha, a), sign, formula)

    @pytest.mark.parametrize("v0", [1.7, -0.6])
    def test_rect_barrier(self, v0):
        a = 0.9
        spec = RectBarrier(v0, a)
        arg = (math.sqrt(C.p2 * v0) * a / 2.0 if v0 > 0
               else -1j * math.sqrt(-C.p2 * v0) * a / 2.0)

        def formula(n):
            q = -1j * lambert_w(n, arg) / a
            k = cmath.sqrt(C.p2 * v0 + q * q)
            return -k if pole_condition(spec, -k, C) < pole_condition(spec, k, C) else k
        self.check_ulps(spec, "plus", formula)

    def test_tanh(self):
        a = 0.7
        self.check(Tanh(0.0, 2.0, a), "plus", lambda n: 1j * n / a)

    @pytest.mark.parametrize("sign", ["plus", "minus"])
    def test_sech2(self, sign):
        spec = Sech2(-2.3, 0.8)
        two_s, a = 2.0 * normal_form(spec).s(C.p2), 0.8
        sgn = 1.0 if sign == "plus" else -1.0
        self.check(spec, sign, lambda n: 1j * (n / a + (1.0 + sgn * two_s) / (2.0 * a)))

    @pytest.mark.parametrize("c", [C, PhysicalConstants(1.7, 0.3)])
    def test_energies(self, c):
        rng = np.random.default_rng(5)
        k = (rng.standard_normal(500) + 1j * rng.standard_normal(500)) * 10.0 ** rng.integers(
            -3, 4, 500)
        k = np.concatenate([k, [0.0, -0.0j, complex(-0.0, -0.0), 1e200 + 1e200j, 1e-200j]])
        got = qnf_energy(k, c, -1.3)
        assert all(_within_ulps(e, -1.3 + c.h2_2m * z * z)
                   for z, e in zip(k.tolist(), got.tolist()))
        assert all(_bits(qnf_energy(z, c, -1.3)) == _bits(e)
                   for z, e in zip(k.tolist(), got.tolist()))


class TestEnergies:
    def test_zero(self):
        assert qnf_energy(0.0, C) == 0.0

    def test_delta(self):
        k0 = 2.0
        assert qnf_energy(1j * k0, C) == pytest.approx(-C.h2_2m * k0**2)

    def test_tanh_energy_display(self):
        spec = Tanh(0.0, 2.0, 1.0)
        n = 3
        r = closed_form_qnfs(spec, (n, n), C)[0]
        e = qnf_energy(r.k, C, v_offset=2.0)
        dv = 2.0
        expect = (-C.h2_2m * n**2 / spec.a**2 + 0.5 * dv
                  - dv**2 * spec.a**2 / (16.0 * C.h2_2m * n**2))
        assert complex(e).real == pytest.approx(expect, rel=1e-12)
        # both sides give the same energy
        e_minus = qnf_energy(r.k_minus, C, v_offset=0.0)
        assert abs(e - e_minus) < 1e-12

    def test_relativistic_omega_convention(self):
        c = PhysicalConstants(mode="relativistic")
        assert qnf_energy(1.5j, c) == 1.5j


class TestFits:
    def test_sech2_exact_affine(self):
        tower = [r for r in closed_form_qnfs(Sech2(-1.0, 1.0), (1, 10), C)
                 if r.sign_choice == "plus"]
        fit = fit_offset_gap(tower, "linear")
        assert fit.verdict == "clean_offset_gap"
        assert fit.gap == pytest.approx(1j, abs=1e-12)
        assert fit.offset == pytest.approx(2j, abs=1e-11)

    def test_tanh_inverse_square_residuals(self):
        spec = Tanh(0.0, 2.0, 1.0)
        fits = {}
        for lo in (5, 10, 20):
            tower = closed_form_qnfs(spec, (lo, lo + 10), C)
            fits[lo] = max(fit_offset_gap(tower, "linear").residuals)
        # doubling the window start shrinks residuals roughly fourfold
        assert 2.5 < fits[5] / fits[10] < 6.0
        assert 2.5 < fits[10] / fits[20] < 6.0
        fit = fit_offset_gap(closed_form_qnfs(spec, (5, 15), C), "linear")
        assert abs(fit.gap - 1j) < 0.02

    def test_double_delta_logarithmic(self):
        tower = [r for r in closed_form_qnfs(DoubleDelta(0.5, 1.0), (5, 15), C)
                 if r.sign_choice == "plus"]
        lin = fit_offset_gap(tower, "linear")
        log = fit_offset_gap(tower, "linear_plus_log")
        assert lin.verdict == "logarithmic_subleading"
        assert max(log.residuals) < 0.2 * max(lin.residuals)
        # the real-axis spacing is pi/a and the log coefficient is ~ i/(2a)
        assert lin.gap.real == pytest.approx(math.pi, abs=0.01)
        assert log.log_coeff.imag == pytest.approx(0.5, abs=0.1)

    def test_bad_model_and_indices(self):
        tower = [r for r in closed_form_qnfs(Sech2(-1.0, 1.0), (0, 6), C)
                 if r.sign_choice == "plus"]
        with pytest.raises(DomainError, match="unknown model"):
            fit_offset_gap(tower[1:], "quadratic")
        with pytest.raises(DomainError, match="consecutive"):
            fit_offset_gap(tower[1:3] + tower[4:], "linear")
        with pytest.raises(DomainError, match="positive"):
            fit_offset_gap(tower, "linear")

    def test_insufficient_data(self):
        tower = [r for r in closed_form_qnfs(Sech2(-1.0, 1.0), (1, 3), C)
                 if r.sign_choice == "plus"]
        with pytest.raises(DomainError):
            fit_offset_gap(tower, "linear")


class TestEckartLimits:
    def test_reduces_to_tanh_tower(self):
        a = 0.02
        dv = 0.5
        eck = closed_form_qnfs(Eckart(0.0, dv, 1e-8, a), (0, 5), C)
        tanh = closed_form_qnfs(Tanh(0.0, dv, a), (1, 6), C)
        plus = {r.branch: r.k for r in eck if r.sign_choice == "plus"}
        target = {r.branch: r.k for r in tanh}
        for n, k in plus.items():
            assert abs(k - target[n + 1]) < 1e-9

    def test_reduces_to_sech2_tower(self):
        # keep a * p2 / |d| small so the first-order V+- sensitivity sits
        # below the 1e-9 comparison scale
        a = 0.1
        v0 = -100.0
        eck = closed_form_qnfs(Eckart(0.0, 1e-8, v0, a), (0, 5), C)
        sech = closed_form_qnfs(Sech2(v0, a), (0, 5), C)
        for sign in ("plus", "minus"):
            left = {r.branch: r.k for r in eck if r.sign_choice == sign}
            right = {r.branch: r.k for r in sech if r.sign_choice == sign}
            for n in left:
                if n in right:
                    assert abs(left[n] - right[n]) < 1e-9


def member_by_member_tower(spec, ns):
    """The double-delta tower one member at a time: k = i (k0 - W_n(+-arg) / (2a)),
    without the trivial zero, each member kept unless it lies within 1e-9/a
    of an earlier kept one."""
    k0, a = 0.5 * C.p2 * spec.alpha, spec.a
    arg = 2.0 * k0 * a * math.exp(2.0 * k0 * a)
    out = []
    for n in ns:
        for sgn, label in ((1.0, "plus"), (-1.0, "minus")):
            k = 1j * (k0 - lambert_w(n, sgn * arg) / (2.0 * a))
            if abs(k) >= 1e-8 / a and all(abs(k - kept) >= 1e-9 / a for _, _, kept in out):
                out.append((n, label, k))
    return out


class TestDoubleDeltaTower:
    def test_array_tower_is_member_by_member(self):
        # a != 1, where dividing w by 2a as a complex number would round
        # differently from dividing each of its parts
        rng = np.random.default_rng(13)
        for _ in range(12):
            a = rng.uniform(0.2, 3.0)
            spec = DoubleDelta(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0) / a, a)
            tower = closed_form_qnfs(spec, (-30, 120), C)
            ref = member_by_member_tower(spec, range(-30, 121))
            assert [(r.branch, r.sign_choice) for r in tower] == [(n, s) for n, s, _ in ref]
            for r, (_, _, k) in zip(tower, ref):
                assert r.k.real.hex() == k.real.hex() and r.k.imag.hex() == k.imag.hex()

    def test_branch_point_duplicate_dropped_once(self):
        # k0 a = -1/2 + 2e-8: +arg is within 1e-15 of -1/e, so W_0 and W_-1 are
        # both -1 and the n = 0 plus member repeats the n = -1 plus member
        # k = 2e-8 i / a, which is no trivial zero
        a = 2.0
        spec = DoubleDelta((-0.5 + 2e-8) / a, a)
        tower = closed_form_qnfs(spec, (-1, 1), C)
        rows = [(r.branch, r.sign_choice) for r in tower]
        assert (-1, "plus") in rows and (0, "plus") not in rows
        assert rows == [(n, s) for n, s, _ in member_by_member_tower(spec, range(-1, 2))]
        assert sum(abs(r.k - 2e-8j / a) < 1e-9 / a for r in tower) == 1
        # at k0 a = -1/2 itself both copies are the trivial zero k = 0
        exact = closed_form_qnfs(DoubleDelta(-0.5 / a, a), (-1, 1), C)
        assert all((r.branch, r.sign_choice) not in ((-1, "plus"), (0, "plus")) for r in exact)


    def test_duplicate_filter_is_the_quadratic_rule(self):
        # the sorted-window filter keeps exactly the members the O(n^2) rule
        # keeps, on raw towers (the first spec has the branch-point duplicate)
        # and on point clouds with pairs a hair inside and outside tol
        def reference(ks, tol):
            keep = []
            for j, k in enumerate(ks.tolist()):
                keep.append(not any(keep[i] and abs(ks[i] - k) < tol for i in range(j)))
            return np.array(keep, dtype=bool)

        rng = np.random.default_rng(7)
        specs = [DoubleDelta((-0.5 + 2e-8) / 2.0, 2.0)] + [
            DoubleDelta(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 3.0) / a, a)
            for a in rng.uniform(0.2, 3.0, size=6)]
        for spec in specs:
            k0, a = 0.5 * C.p2 * spec.alpha, spec.a
            arg = 2.0 * k0 * a * math.exp(2.0 * k0 * a)
            ks = np.array([1j * (k0 - lambert_w(n, sgn * arg) / (2.0 * a))
                           for n in range(-30, 61) for sgn in (1.0, -1.0)])
            assert np.array_equal(_keep_first(ks, 1e-9 / a), reference(ks, 1e-9 / a))
        tol = 1e-3
        for trial in range(60):
            centers = rng.uniform(-1.0, 1.0, size=(6, 2)) @ [1.0, 1j]
            if trial % 3 == 1:
                centers = 1j * centers.imag  # on the imaginary axis
            elif trial % 3 == 2:
                centers = centers.real + 0j
            offsets = (tol * rng.choice([0.5, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 2.0], size=40)
                       * np.exp(2j * np.pi * rng.choice([0.0, 0.25, rng.uniform()], size=40)))
            ks = rng.choice(centers, size=40) + offsets * (rng.uniform(size=40) < 0.8)
            assert np.array_equal(_keep_first(ks, tol), reference(ks, tol)), trial
        for ks in (np.array([], dtype=complex), np.array([1j]), np.array([-0.0 + 1j, 1j])):
            assert np.array_equal(_keep_first(ks, tol), reference(ks, tol))


class TestPoleCondition:
    def test_interfaces_with_steps(self):
        # |den / k2| / B: inf at k = 0 (a zero of t) and where sin(2 k2 a)
        # overflows; far from a pole it reads about 1
        for spec in (RectBarrier(1.0, 1.0), AsymRectBarrier(0.0, 1.0, 0.5, 1.0), Step(0.5)):
            assert pole_condition(spec, 0.0, C) == math.inf
        assert pole_condition(RectBarrier(1.0, 1.0), 100 + 400j, C) == math.inf
        assert pole_condition(RectBarrier(1.0, 1.0), 100 + 200j, C) == pytest.approx(1.0)

    def test_delta_pair(self):
        # an exact pole is an exact root; an overflowing sin(2 k a) is inf
        assert pole_condition(Delta(1.0), 1j, C) == 0.0
        assert pole_condition(DoubleDelta(1.0, 1.0), 1 + 400j, C) == math.inf
        assert pole_condition(DoubleDelta(1.0, 1.0), 1 + 300j, C) == pytest.approx(1.0)

    def test_delta_pair_zero_of_t_is_no_root(self):
        # t vanishes at k = 0, where the rewritten delta-pair equation
        # (k - i kp)(k - i km) + kp km e^{-4ika} had a root: it read 1.4e-6 at
        # the near_symmetric_order2 n = 0 estimate, where |t| = 4e-8
        spec = AsymDoubleDelta(1.0, 0.9, 1.0)
        k = 2.3275795168890053e-07j
        assert perturbative_qnfs(spec, "near_symmetric_order2", 0, C).k == pytest.approx(k)
        assert pole_condition(spec, k, C) > 0.5

    def test_eckart_family(self):
        # the tanh member k = i n / a is a gamma pole, exactly
        assert pole_condition(Tanh(0.0, 2.0, 1.0), 2j, C) == 0.0
        assert pole_condition(Eckart(0.0, 2.0, -1.0, 1.0), complex("nan"), C) == math.inf


class TestOracleAgreement:
    def test_double_delta_tower_certified(self):
        spec = DoubleDelta(0.5, 1.0)
        region = SearchRegion(-15.5, 15.5, 0.005, 2.0, 6.0)
        rep = find_poles(spec, region, C)
        closed = [r for r in closed_form_qnfs(spec, (-6, 6), C)
                  if region.re_min <= r.k.real <= region.re_max
                  and region.im_min <= r.k.imag <= region.im_max]
        assert len(rep.poles) == len(closed)
        for r in closed:
            assert min(abs(r.k - k) for k, _, _ in rep.poles) < 1e-8

    def test_pole_condition_consistency(self):
        # the residual functions vanish only at the towers
        spec = DoubleDelta(0.5, 1.0)
        r = closed_form_qnfs(spec, (2, 2), C)[0]
        assert pole_condition(spec, r.k, C) < 1e-12
        assert pole_condition(spec, r.k + 0.1, C) > 1e-3
