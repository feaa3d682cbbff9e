"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
report.  Criterion 9's Hulthen clause is implemented faithfully and fails by
design: a potential with a simple pole admits no exact squared-Moebius
representation (it is the A -> 0 limit of Manning-Rosen); the accompanying
xfail records that analysis.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Hua,
    Hulthen,
    ManningRosen,
    MorseFeshbach,
    PhysicalConstants,
    RectBarrier,
    RosenMorse,
    SearchRegion,
    Sech2,
    Step,
    Tanh,
    Tietz,
    canonicalize,
    closed_form_qnfs,
    evaluate,
    find_poles,
    fit_offset_gap,
    lambert_w,
    numeric_amplitude,
    perturbative_qnfs,
    refine_pole,
    scattering_limits,
    step_bound,
    transcendental_qnfs,
    transmission_amplitude,
    transmission_probability,
)
from qnf1d.potentials import length_scale
from qnf1d.qnf import rect_barrier_q_series

C = PhysicalConstants()


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_criterion_01_lambert_threshold():
    w = lambert_w(0, math.exp(-1.0)).real
    ok_value = abs(w - 0.2784645427610738) < 1e-12

    def imaginary(g):
        res = closed_form_qnfs(DoubleDelta(g / 2.0, 1.0), (0, 0), C)
        k = next(r.k for r in res if r.sign_choice == "minus")
        return abs(k.real) < 1e-10 * max(1.0, abs(k))

    lo, hi = 0.2, 0.35
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if imaginary(mid) else (lo, mid)
    transition = 0.5 * (lo + hi)
    report(
        "criterion 1 (Lambert-W threshold)",
        ok_value and abs(transition - w) < 1e-6,
        f"W(1/e) = {w:.10f}, bisected transition = {transition:.10f}",
    )


def test_criterion_02_double_delta_tower_certification():
    spec = DoubleDelta(1.0, 1.0)  # k0 = m alpha / hbar^2 = 1, a = 1
    closed = closed_form_qnfs(spec, (-5, 5), C)
    ok_res = all(r.residual < 1e-10 for r in closed)
    pad = 0.4
    region = SearchRegion(
        min(r.k.real for r in closed) - pad,
        max(r.k.real for r in closed) + pad,
        max(1e-3, min(r.k.imag for r in closed) - pad),
        max(r.k.imag for r in closed) + pad,
        6.0,
    )
    rep = find_poles(spec, region, C)
    # all catalog members inside the region, from a generous branch window
    inside = [
        r.k for r in closed_form_qnfs(spec, (-8, 8), C)
        if region.re_min <= r.k.real <= region.re_max
        and region.im_min <= r.k.imag <= region.im_max
    ]
    match = all(
        min(abs(k - p) for p, _, _ in rep.poles) < 1e-8 for k in inside
    ) and all(
        min(abs(k - p) for k in inside) < 1e-8 for p, _, _ in rep.poles
    )
    report(
        "criterion 2 (double-delta tower certification)",
        ok_res and match and len(rep.poles) == len(inside) and len(closed) == 21,
        f"{len(closed)} closed-form QNFs, {len(rep.poles)} oracle poles",
    )


def test_criterion_03_rect_barrier_merge():
    def roots(c0a):
        return transcendental_qnfs(RectBarrier(c0a**2 / 2.0, 1.0),
                                   "imaginary_axis", C)

    lo, hi = 0.6, 0.7
    while hi - lo > 1e-6:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if len(roots(mid)) == 2 else (lo, mid)
    merge = 0.5 * (lo + hi)
    pair = roots(lo)
    qa = 0.5 * sum(abs(r.aux) for r in pair)
    gone = len(roots(0.7)) == 0
    report(
        "criterion 3 (rectangular-barrier merge)",
        abs(merge - 0.663) <= 0.005 and abs(qa - 1.2) <= 0.05 and gone,
        f"merge at k0 a = {merge:.6f}, qa = {qa:.4f}, none at 0.7: {gone}",
    )


def test_criterion_04_series_order_scaling():
    # repulsive barrier: relative error of the |q| series vs the exact root
    cas = [0.2, 0.1, 0.05]
    errs = []
    for ca in cas:
        exact = transcendental_qnfs(RectBarrier(ca**2 / 2.0, 1.0),
                                    "imaginary_axis", C)[0]
        errs.append(abs(rect_barrier_q_series(ca, 1.0) - exact.aux) / abs(exact.aux))
    slope_rect = float(np.polyfit(np.log(cas), np.log(errs), 1)[0])

    # asymmetric double delta: order-0 and order-2 estimates vs oracle poles
    kbar, a, n = 0.3, 1.0, 1
    eps = [0.1, 0.05, 0.025]
    e0, e2 = [], []
    for d in eps:
        spec = AsymDoubleDelta(kbar + d / 2.0, kbar - d / 2.0, a)
        est2 = perturbative_qnfs(spec, "near_symmetric_order2", n, C)
        exact, _ = refine_pole(spec, est2.k, C, amplitude=transmission_amplitude)
        est0 = perturbative_qnfs(spec, "near_symmetric_order0", n, C)
        e0.append(abs(est0.k - exact))
        e2.append(abs(est2.k - exact))
    slope0 = float(np.polyfit(np.log(eps), np.log(e0), 1)[0])
    slope2 = float(np.polyfit(np.log(eps), np.log(e2), 1)[0])
    report(
        "criterion 4 (series-order scaling)",
        abs(slope_rect - 6.0) <= 0.5 and abs(slope0 - 2.0) <= 0.3
        and abs(slope2 - 4.0) <= 0.5,
        f"barrier exponent {slope_rect:.2f}, order-0 {slope0:.2f}, "
        f"order-2 {slope2:.2f}",
    )


def test_criterion_05_reflectionless_sech2():
    worst = 0.0
    for n in (1, 2, 3):
        v0 = -n * (n + 1) * C.h2_2m  # a = 1
        spec = Sech2(v0, 1.0)
        for e in np.linspace(0.05, 5.0, 50):
            worst = max(worst, abs(transmission_probability(spec, float(e), C) - 1.0))
    report(
        "criterion 5 (reflectionless sech^2)",
        worst < 1e-10,
        f"max |T - 1| = {worst:.2e}",
    )


def test_criterion_06_resonance_families():
    spec = RectBarrier(1.0, 1.0)
    worst_rect = 0.0
    for n in range(1, 11):
        e = 1.0 + C.h2_2m * (n * math.pi / 2.0) ** 2
        worst_rect = max(worst_rect, abs(transmission_probability(spec, e, C) - 1.0))

    asym = AsymRectBarrier(0.2, 2.5, -0.4, 0.7)
    worst_pseudo = 0.0
    for n in range(1, 8):
        e = asym.V2 + C.h2_2m * (n * math.pi / (2.0 * asym.a)) ** 2
        t = transmission_probability(asym, e, C)
        worst_pseudo = max(worst_pseudo, abs(t / step_bound(asym, e, C) - 1.0))
    bound_ok = all(
        transmission_probability(asym, float(e), C)
        <= step_bound(asym, float(e), C) + 1e-12
        for e in np.linspace(2.6, 12.0, 120)
    )
    report(
        "criterion 6 (resonance families)",
        worst_rect < 1e-10 and worst_pseudo < 1e-10 and bound_ok,
        f"max |T-1| = {worst_rect:.2e}, max |T/T_step - 1| = {worst_pseudo:.2e}, "
        f"bound holds: {bound_ok}",
    )


def test_criterion_07_amplitude_probability_consistency():
    nine = [
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
    worst = 0.0
    for spec in nine:
        v_minus, v_plus = scattering_limits(spec, C)
        base = max(v_minus, v_plus)
        for e in np.linspace(base + 0.05, base + 5.0, 50):
            e = float(e)
            T = transmission_probability(spec, e, C)
            k = math.sqrt(C.p2 * (e - v_minus))
            t = transmission_amplitude(spec, k, C).t
            worst = max(worst, abs(T - abs(t) ** 2))
    report(
        "criterion 7 (amplitude-probability consistency)",
        worst < 1e-10,
        f"max |T - |t|^2| = {worst:.2e} over nine potentials",
    )


def test_criterion_08_eckart_limits():
    # tanh limit: V0 -> 0 (parameter distance 1e-8)
    a, dv = 0.02, 0.5
    eck = closed_form_qnfs(Eckart(0.0, dv, 1e-8, a), (0, 5), C)
    tanh = {r.branch: r.k for r in closed_form_qnfs(Tanh(0.0, dv, a), (1, 6), C)}
    worst_t = max(
        abs(r.k - tanh[r.branch + 1])
        for r in eck if r.sign_choice == "plus"
    )
    # sech^2 limit: V- -> V+ (parameter distance 1e-8)
    a2, v0 = 0.1, -100.0
    eck2 = closed_form_qnfs(Eckart(0.0, 1e-8, v0, a2), (0, 5), C)
    sech = {(r.branch, r.sign_choice): r.k
            for r in closed_form_qnfs(Sech2(v0, a2), (0, 5), C)}
    worst_s = max(
        abs(r.k - sech[(r.branch, r.sign_choice)])
        for r in eck2 if (r.branch, r.sign_choice) in sech
    )
    report(
        "criterion 8 (Eckart limits)",
        worst_t < 1e-9 and worst_s < 1e-9,
        f"tanh limit dev {worst_t:.2e}, sech^2 limit dev {worst_s:.2e}",
    )


def _canonical_deviation(spec, grid):
    cf = canonicalize(spec)
    v = evaluate(spec, grid)
    return float(np.max(np.abs(v - cf.evaluate(grid)))) / (1.0 + float(np.max(np.abs(v))))


def test_criterion_09_equivalence_table():
    full = np.linspace(-6.0, 6.0, 201)
    half = np.linspace(0.05, 8.0, 201)
    v1, mu, L = 0.8, 0.7, 1.1
    c1 = v1 * math.cosh(mu) ** 2
    d = math.tanh(mu)
    mf = MorseFeshbach(v1, mu, L)
    rm = RosenMorse(c1 * (d * d + 1.0), 2.0 * d * c1, -c1, L)
    eck = Eckart(c1 * (d - 1.0) ** 2, c1 * (d + 1.0) ** 2, -c1, L)
    identity = max(
        float(np.max(np.abs(evaluate(mf, full + mu * L) - evaluate(rm, full)))),
        float(np.max(np.abs(evaluate(rm, full) - evaluate(eck, full)))),
    )
    devs = {
        "eckart": _canonical_deviation(eck, full),
        "rosen_morse": _canonical_deviation(rm, full),
        "morse_feshbach": _canonical_deviation(mf, full),
        "manning_rosen": _canonical_deviation(ManningRosen(1.3, -0.6, 0.8), half),
        "tietz": _canonical_deviation(Tietz(1.1, 0.3, 0.9, "cosh"), full),
        "hua": _canonical_deviation(Hua(1.2, -2.0, 1.0), full),
    }
    worst = max(devs.values())
    report(
        "criterion 9 (equivalence table, exact members)",
        identity < 1e-12 and worst < 1e-12,
        f"identity dev {identity:.2e}, worst canonical dev {worst:.2e}",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "spec defect: the Hulthen potential is affine in coth(x/2a) with a "
        "simple pole at x = 0, while every (Mobius)^2 potential has only "
        "double poles, so no exact squared-Moebius form exists (it is the "
        "A -> 0 limit of Manning-Rosen); canonicalize reports this instead "
        "of returning an approximation"
    ),
)
def test_criterion_09_hulthen_clause():
    half = np.linspace(0.05, 8.0, 201)
    dev = _canonical_deviation(Hulthen(1.0, 1.0), half)  # raises
    report("criterion 9 (Hulthen clause)", dev < 1e-12, f"dev {dev:.2e}")


def test_criterion_10_offset_gap_fits():
    sech_tower = [r for r in closed_form_qnfs(Sech2(-1.0, 1.0), (1, 10), C)
                  if r.sign_choice == "plus"]
    f_sech = fit_offset_gap(sech_tower, "linear")
    sech_ok = (f_sech.verdict == "clean_offset_gap"
               and abs(f_sech.gap - 1j) < 1e-12
               and max(f_sech.residuals) < 1e-12)

    tanh_tower = closed_form_qnfs(Tanh(0.0, 2.0, 1.0), (5, 15), C)
    f_tanh = fit_offset_gap(tanh_tower, "linear")
    near = fit_offset_gap(closed_form_qnfs(Tanh(0.0, 2.0, 1.0), (10, 20), C), "linear")
    tanh_ok = (abs(f_tanh.gap - 1j) < 0.02
               and max(near.residuals) < 0.4 * max(f_tanh.residuals))

    eck_tower = [r for r in closed_form_qnfs(Eckart(0.0, 2.0, -1.0, 1.0), (5, 15), C)
                 if r.sign_choice == "plus"]
    f_eck = fit_offset_gap(eck_tower, "linear")
    eck_near = fit_offset_gap(
        [r for r in closed_form_qnfs(Eckart(0.0, 2.0, -1.0, 1.0), (10, 20), C)
         if r.sign_choice == "plus"], "linear")
    eck_ok = (abs(f_eck.gap - 1j) < 0.02
              and max(eck_near.residuals) < 0.4 * max(f_eck.residuals))

    dd_tower = [r for r in closed_form_qnfs(DoubleDelta(0.5, 1.0), (5, 15), C)
                if r.sign_choice == "plus"]
    dd_ok = fit_offset_gap(dd_tower, "linear").verdict == "logarithmic_subleading"

    report(
        "criterion 10 (offset+gap fits)",
        sech_ok and tanh_ok and eck_ok and dd_ok,
        f"sech2 gap {f_sech.gap:.12g} ({f_sech.verdict}); "
        f"tanh/Eckart O(1/n^2) residuals; double-delta "
        f"{'flagged' if dd_ok else 'NOT flagged'} logarithmic",
    )


def test_criterion_11_oracle_convergence_certificate():
    # smooth potentials: domain doubling + step halving moves t < 1e-8
    worst_smooth = 0.0
    for spec in (Tanh(0.0, 2.0, 1.0), Sech2(-1.0, 1.0), Eckart(0.0, 2.0, -1.0, 1.0)):
        v_minus, v_plus = scattering_limits(spec, C)
        base = max(v_minus, v_plus)
        for e in np.linspace(base + 0.25, base + 4.0, 6):
            k = math.sqrt(C.p2 * (float(e) - v_minus))
            t1 = numeric_amplitude(spec, k, C, L=10.0 * spec.a).t
            t2 = numeric_amplitude(spec, k, C, L=20.0 * spec.a, rtol=1e-13).t
            worst_smooth = max(worst_smooth, abs(t1 - t2) / abs(t1))

    # piecewise: transfer matrices equal the closed forms at 100 random k
    rng = random.Random(20260810)
    worst_pw = 0.0
    for spec in (Delta(1.3), DoubleDelta(0.8, 1.2), AsymDoubleDelta(0.6, 1.1, 0.8),
                 Step(1.5), RectBarrier(2.0, 0.7), AsymRectBarrier(0.3, 2.5, -0.4, 0.6)):
        a_scale = length_scale(spec)
        done = 0
        while done < 100:
            r = 10.0 * math.sqrt(rng.uniform(0.0025, 1.0))
            phi = rng.uniform(-math.pi, math.pi)
            k = cmath.rect(r, phi) / a_scale
            ta = transmission_amplitude(spec, k, C).t
            if not (1e-3 < abs(ta) < 1e3):
                continue
            tn = numeric_amplitude(spec, k, C).t
            worst_pw = max(worst_pw, abs(ta - tn) / abs(ta))
            done += 1
    report(
        "criterion 11 (oracle convergence certificate)",
        worst_smooth < 1e-8 and worst_pw < 1e-12,
        f"smooth refinement drift {worst_smooth:.2e}, "
        f"piecewise mismatch {worst_pw:.2e}",
    )
