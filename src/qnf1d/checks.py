"""verify: the closed forms checked against the independent oracle, one
record per check.  The engines are called through their modules (O.refine_pole,
...), so a rebound module attribute sees every call."""

import math
from dataclasses import dataclass

import numpy as np

from .errors import Qnf1dError, UnsupportedPotentialError
from . import potentials as P
from . import qnf as Q
from . import oracle as O


@dataclass(frozen=True)
class Check:
    """One check of verify: its stable name ("amplitude agreement", ...); its
    status, "pass" (value < tol), "fail" or "skip" (it tests nothing); the
    measured value and its tolerance, None on a skip; and the detail, the
    count it ran on ("100 samples", "1 modes") or on a skip the reason."""
    name: str
    status: str
    value: float | None = None
    tol: float | None = None
    detail: str = ""


def _measured(name, value, tol, detail=""):
    return Check(name, "pass" if value < tol else "fail", value, tol, detail)


def default_region(spec, density: float = 8.0) -> O.SearchRegion:
    """|Re k| a <= 12 and 0.01 <= Im k a <= 3, density grid points per unit of k a."""
    a = P.length_scale(spec)
    return O.SearchRegion(-12.0 / a, 12.0 / a, 0.01 / a, 3.0 / a, density * a)


def verify(spec, c: P.PhysicalConstants = P.DEFAULT_CONSTANTS,
           region: O.SearchRegion | None = None) -> list[Check]:
    """spec's closed forms against the oracle, four Check records: amplitude
    agreement, T = |t|^2, the transfer-matrix determinant (piecewise) or the
    ODE's domain/step convergence (smooth), and the QNF/pole bijection over
    region (default_region(spec) by default) or the low-lying QNFs against
    refined oracle poles.  The samples come from a fixed seed."""
    if region is None:
        region = default_region(spec)
    rng = np.random.default_rng(20260810)
    checks = []
    form = P.normal_form(spec)
    piecewise = isinstance(form, P.Interfaces)
    a_scale = P.length_scale(spec)
    v_minus, v_plus = form.limits

    base = max(v_minus, v_plus)
    # check 3's energies on the oracle's default domain (smooth specs): they
    # ride in the first batch's ODE call
    conv_k = np.sqrt(c.p2 * (np.linspace(base + 0.25, base + 4.0, 7) - v_minus))
    t_conv = None

    # 1. amplitude agreement, analytic vs numeric: one array call per engine
    # for each batch of draws, until enough samples keep a safe distance from
    # poles and zeros
    need = 100 if piecewise else 25
    worst = 0.0
    count = 0
    tries = 0
    while count < need and tries < 1000:
        n = min(need - count, 1000 - tries)
        tries += n
        if piecewise:
            # uniform over the disc |k| a <= 10, poles excluded below; one
            # (radius, angle) row per sample, drawn in the order of a loop
            r, phi = rng.uniform([0.0025, -math.pi], [1.0, math.pi], size=(n, 2)).T
            k = 10.0 * np.sqrt(r) * np.exp(1j * phi) / a_scale
        else:
            e = base + rng.uniform(0.2, 6.0, size=n)
            k = np.sqrt(c.p2 * (e - v_minus))
        ta = P.transmission_amplitude(spec, k, c).t
        if piecewise or t_conv is not None:
            tn = O.numeric_amplitude(spec, k, c).t
        else:
            tn, t_conv = np.split(O.numeric_amplitude(spec, np.concatenate([k, conv_k]), c).t,
                                  [n])
        keep = (1e-6 < np.abs(ta)) & (np.abs(ta) < 1e6) & ~np.isnan(tn)
        if keep.any():
            worst = max(worst, float(np.max(np.abs(ta[keep] - tn[keep]) / np.abs(ta[keep]))))
        count += int(keep.sum())
    checks.append(_measured("amplitude agreement", worst, 1e-12 if piecewise else 1e-8,
                            f"{count} samples"))

    # 2. T vs |t|^2 on a real-energy grid
    es = np.linspace(base + 0.05, base + 5.0, 50)
    Ts = P.transmission_probability(spec, es, c)
    t = P.transmission_amplitude(spec, np.sqrt(c.p2 * (es - v_minus)), c).t
    checks.append(_measured("T = |t|^2 on energy grid",
                            float(np.max(np.abs(Ts - np.abs(t) ** 2))), 1e-10))

    # 3. flux surrogate / integrator convergence: the determinant of the
    # transfer matrices, or the ODE oracle against a tighter copy of itself
    if piecewise:
        # |Im k| a <= 2 keeps the matrix conditioning within reach of the
        # 1e-12 determinant contract
        re, im = rng.uniform([-8.0, -2.0], [8.0, 2.0], size=(20, 2)).T
        k = (re + 1j * im) / a_scale
        k = k[np.abs(k) * a_scale >= 0.05]
        checks.append(_measured(
            "transfer-matrix determinant",
            float(np.max(O.transfer_matrix_det_error(spec, k, c), initial=0.0)), 1e-12))
    else:
        # the domain the samples and the refinement use: a truncated tail
        # series moves t here, while on long domains it sits below rounding
        t2 = O.numeric_amplitude(spec, conv_k, c, L=2.0 * O._ODE_HALF_WIDTH * a_scale,
                                 rtol=1e-13).t
        checks.append(_measured("domain/step convergence",
                                float(np.max(np.abs(t_conv - t2) / np.abs(t_conv))), 1e-8))

    # 4. analytic QNFs vs oracle poles
    failure = ""  # why the closed form gave no QNF list
    try:
        if not piecewise:
            analytic = Q.closed_form_qnfs(spec, (1, 3) if form.v0 == 0.0 else (0, 2), c)
        elif Q.has_closed_form(spec):
            span = int(max(abs(region.re_min), abs(region.re_max)) * a_scale / math.pi) + 2
            analytic = Q.closed_form_qnfs(spec, (-span, span), c)
        else:
            try:
                analytic = Q.transcendental_qnfs(spec, "imaginary_axis", c)
            except UnsupportedPotentialError:
                analytic = []
            for r in Q.transcendental_qnfs(spec, region, c):
                if not any(abs(r.k - s.k) < 1e-8 for s in analytic):
                    analytic.append(r)
    except Qnf1dError as exc:
        analytic, failure = [], f"closed form raised {type(exc).__name__}: {exc}"
    if piecewise:
        name = "QNF/pole bijection"
        rep = O.find_poles(spec, region, c)
        inside = [r for r in analytic
                  if region.re_min <= r.k.real <= region.re_max
                  and region.im_min <= r.k.imag <= region.im_max]
        # each member's distance to its nearest oracle pole (inf with none),
        # by hypot, which rounds as Python's abs does and numpy's complex abs not
        members = np.array([r.k for r in inside], dtype=complex)
        poles = np.array([kp for kp, _, _ in rep.poles], dtype=complex)
        diff = members[:, None] - poles
        dist = np.hypot(diff.real, diff.imag).min(axis=1, initial=math.inf)
        worst = float(dist.max(initial=0.0))
        matched = int(np.count_nonzero(dist < 1e-8))
        extra = len(rep.poles) - matched
        if inside or rep.poles:
            checks.append(_measured(name, worst + (math.inf if extra else 0.0), 1e-8,
                                    f"{matched}/{len(inside)} matched, {extra} unmatched poles"
                                    + (f"; {failure}" if failure else "")))
        else:
            checks.append(Check(name, "skip", detail=(
                f"{failure}; no" if failure else "no closed-form QNF and no")
                + " oracle pole in the search region"))
    else:
        name = "low-lying QNFs vs ODE poles"
        low = [r for r in analytic if abs(r.k.imag) * a_scale <= 2.05]
        # a cancelled member is no pole of t: nothing to refine
        cancelled = sum(r.classification == "cancelled" for r in low)
        low = [r for r in low if r.classification != "cancelled"]
        # one batched refinement: each Newton iteration is one integration
        ks = np.array([r.k for r in low], dtype=complex)
        refined = O.refine_pole(spec, ks * (1 + 1e-3), c)
        errors = [abs(k - k0) for k0, (k, _res, reason) in zip(ks, refined) if not reason]
        rejections = [reason for _k, _res, reason in refined if reason]
        note = f" ({cancelled} cancelled members not refined)" if cancelled else ""
        if errors:
            checks.append(_measured(name, max(errors), 1e-8, f"{len(errors)} modes"))
        else:
            checks.append(Check(name, "skip", detail=(
                f"0 of {len(low)} candidate modes certified by the oracle; first rejection: "
                f"{rejections[0]}" if low
                else failure or "no closed-form QNF with |Im k| a <= 2.05") + note))
    return checks
