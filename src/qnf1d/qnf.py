"""Quasi-normal wavenumber machinery: closed-form towers, transcendental
solving, perturbative and asymptotic estimates, energy conversion and
offset + i n (gap) fitting.

QNFs are the complex poles of the transmission amplitude with Im(k) >= 0;
purely imaginary poles with Im(k) > 0 are damped modes and with Im(k) < 0
bound states.  For potentials with distinct asymptotes the ``k`` stored in a
result is the transmitted-side wavenumber (the closed forms are usually
quoted that way); the incidence-side partner is kept alongside it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import AtPoleError, DomainError, UnsupportedPotentialError
from .potentials import (
    DEFAULT_CONSTANTS,
    EckartReduction,
    Interfaces,
    PhysicalConstants,
    length_scale,
    normal_form,
    transmission_amplitude,
)
from .specfn import lambert_w, lambert_w_comtet
from . import oracle as _oracle

__all__ = [
    "QnfResult",
    "AsymptoticFit",
    "classify",
    "has_closed_form",
    "pole_condition",
    "closed_form_qnfs",
    "transcendental_qnfs",
    "perturbative_qnfs",
    "asymptotic_qnfs",
    "qnf_energy",
    "fit_offset_gap",
    "rect_barrier_q_series",
    "rect_barrier_k_series",
]

TRIVIAL_ZERO_TOL = 1e-8
CLASSIFY_TOL = 1e-10


@dataclass(frozen=True)
class QnfResult:
    """One quasi-normal wavenumber with provenance and diagnostics.

    ``classification`` is damped_mode / bound_state / complex_qnf /
    trivial_zero, plus ``cancelled`` for formula-tower members of the smooth
    potentials whose numerator gamma pole is annihilated by a denominator
    gamma pole (at reflectionless couplings the amplitude has no pole there;
    ``pole_order`` records the net multiplicity, <= 0 when cancelled).
    """

    k: complex
    method: str  # closed_form | transcendental | perturbative | asymptotic | oracle
    residual: float
    classification: str  # damped_mode | bound_state | complex_qnf | trivial_zero | cancelled
    branch: int | None = None
    sign_choice: str = "none"  # plus | minus | none
    k_minus: complex | None = None  # incidence-side wavenumber when asymmetric
    aux: complex | None = None  # inner wavenumber q (barriers) when relevant
    pole_order: int = 1


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares k(n) = offset + n * gap (+ log_coeff * ln n) fit."""

    offset: complex
    gap: complex
    residuals: tuple
    verdict: str  # clean_offset_gap | logarithmic_subleading | inconclusive
    model: str
    log_coeff: complex | None = None


def classify(k: complex, length_scale: float = 1.0) -> str:
    """Physical classification of a pole position at tolerance 1e-10."""
    k = complex(k)
    if abs(k) < TRIVIAL_ZERO_TOL / length_scale:
        return "trivial_zero"
    if abs(k.real) <= CLASSIFY_TOL * max(1.0, abs(k)):
        return "damped_mode" if k.imag > 0 else "bound_state"
    return "complex_qnf"


# ---------------------------------------------------------------------------
# Defining equations (dimensionless residuals)
# ---------------------------------------------------------------------------

def _nearest_gamma_pole_distance(z: complex) -> float:
    """Distance from z to the nearest non-positive integer."""
    n = max(0, round(-z.real))
    return abs(z + n)


def pole_condition(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """|defining equation| at k, dimensionless; ~0 exactly at a QNF."""
    try:
        return _pole_condition(spec, k, c)
    except (OverflowError, DomainError):  # t or an exponential not representable
        return math.inf


def _pole_condition(spec, k, c) -> float:
    k = complex(k)
    p2 = c.p2
    form = normal_form(spec)
    if isinstance(form, EckartReduction):
        a = form.a
        kp = k
        # reconstruct the partner wavenumber; either root may be physical
        km2 = kp * kp + p2 * (form.v_plus - form.v_minus)
        km = cmath.sqrt(km2)
        best = math.inf
        for km_c in (km, -km):
            zbar = 1j * 0.5 * (kp + km_c) * a
            if form.v0 == 0.0:
                best = min(best, _nearest_gamma_pole_distance(zbar))
            else:
                s = cmath.sqrt(0.25 - p2 * form.v0 * a * a)
                for sgn in (1.0, -1.0):
                    best = min(best, _nearest_gamma_pole_distance(zbar + 0.5 + sgn * s))
        return best
    if form.flat:
        kp, km = _delta_k0s(form, c)
        val = (k - 1j * kp) * (k - 1j * km) + kp * km * cmath.exp(-4j * k * form.a)
        scale = max(abs(kp * km), abs(k) ** 2)
        return abs(val) / scale if scale else abs(kp + km)
    try:
        amp = transmission_amplitude(spec, k, c)
    except AtPoleError:
        return 0.0
    return abs(1.0 / amp.t)


def _delta_k0s(form: Interfaces, c) -> tuple:
    """k0 = m alpha / hbar^2 of the left and the right delta coupling."""
    return 0.5 * c.p2 * form.alpha_left, 0.5 * c.p2 * form.alpha_right


def _delta_pair(form) -> bool:
    """Two delta couplings a distance 2a apart, no steps."""
    return isinstance(form, Interfaces) and form.a > 0 and form.flat


def _barrier(form) -> bool:
    """Steps at x = -a and x = +a, no delta couplings."""
    return (isinstance(form, Interfaces) and form.a > 0
            and form.alpha_left == 0 and form.alpha_right == 0)


def _symmetric_barrier(form) -> bool:
    return _barrier(form) and form.v1 == form.v3


def _result(spec, k, method, c, **kw) -> QnfResult:
    return QnfResult(
        k=k,
        method=method,
        residual=pole_condition(spec, k, c),
        classification=classify(k, length_scale(spec)),
        **kw,
    )


# ---------------------------------------------------------------------------
# Closed-form towers
# ---------------------------------------------------------------------------

def _norm_range(n_range) -> list:
    if isinstance(n_range, tuple) and len(n_range) == 2:
        lo, hi = n_range
        return list(range(lo, hi + 1))
    return sorted(set(int(n) for n in n_range))


def has_closed_form(spec) -> bool:
    """Whether closed_form_qnfs serves the spec (barriers and unequal delta
    pairs are served by transcendental_qnfs instead)."""
    form = normal_form(spec)
    if isinstance(form, EckartReduction) or form.a == 0:
        return True
    left, right = form.alpha_left, form.alpha_right
    return form.flat and (left == right or left * right == 0)


def closed_form_qnfs(spec, n_range, c: PhysicalConstants = DEFAULT_CONSTANTS,
                     include_trivial: bool = False) -> list[QnfResult]:
    """All closed-form QNFs over the requested tower indices.

    A single delta coupling has a single pure-imaginary pole; two equal
    couplings (DoubleDelta) carry the Lambert-W tower (both signs per branch,
    de-duplicated); tanh / sech^2 / Eckart carry gamma-pole towers; Step has
    none.  Barrier potentials have no closed forms and are served by
    transcendental_qnfs.
    """
    ns = _norm_range(n_range)
    if not ns:
        raise DomainError("empty n_range")
    p2 = c.p2
    form = normal_form(spec)

    if isinstance(form, Interfaces):
        if not has_closed_form(spec):
            raise UnsupportedPotentialError(
                f"{type(spec).__name__} has no closed-form QNFs; use transcendental_qnfs"
            )
        kp, km = _delta_k0s(form, c)
        if form.a == 0 or kp * km == 0:
            # one interface: t = 2 sqrt(k1 k3) / (k1 + k3 - 2 i k0)
            k0 = kp + km
            if k0 == 0 or form.v1 != form.v3:
                return []
            return [_result(spec, 1j * k0, "closed_form", c)]
        k0, a = kp, form.a
        arg = 2.0 * k0 * a * math.exp(2.0 * k0 * a)
        out: list[QnfResult] = []
        for n in ns:
            for sgn, label in ((1.0, "plus"), (-1.0, "minus")):
                try:
                    w = lambert_w(n, sgn * arg)
                except DomainError:
                    continue
                k = 1j * (k0 - w / (2.0 * a))
                if any(abs(k - r.k) < 1e-9 / a for r in out):
                    continue
                r = _result(spec, k, "closed_form", c, branch=n, sign_choice=label)
                if r.classification == "trivial_zero" and not include_trivial:
                    continue
                out.append(r)
        return out

    a, dv = form.a, form.v_plus - form.v_minus
    out = []
    if form.v0 == 0.0:  # pure tanh: poles of Gamma(i kbar a)^2 at -n, n > 0
        if any(n <= 0 for n in ns):
            raise DomainError("tanh closed-form tower is defined for n > 0")
        for n in ns:
            kp = 1j * (0.25 * p2 * dv * a / n + n / a)
            km = 1j * (-0.25 * p2 * dv * a / n + n / a)
            out.append(
                _result(spec, kp, "closed_form", c, branch=n, k_minus=km)
            )
        return out
    if any(n < 0 for n in ns):
        raise DomainError("sech^2 / Eckart towers are defined for n >= 0")
    two_s = 2.0 * cmath.sqrt(0.25 - p2 * form.v0 * a * a)
    for n in ns:
        for sgn, label in ((1.0, "plus"), (-1.0, "minus")):
            d = (2 * n + 1) + sgn * two_s
            if abs(d) < 1e-12:
                continue  # degenerate member (division by zero in the tower)
            kp = 1j * (0.5 * p2 * dv * a / d + d / (2.0 * a))
            km = 1j * (-0.5 * p2 * dv * a / d + d / (2.0 * a))
            r = _result(spec, kp, "closed_form", c, branch=n,
                        sign_choice=label, k_minus=km)
            if r.classification == "trivial_zero" and not include_trivial:
                continue
            out.append(r)
    return out


# ---------------------------------------------------------------------------
# Transcendental towers
# ---------------------------------------------------------------------------

def _scan_brackets(f, xs):
    """Sign-change brackets of f over the grid xs, skipping non-finite values."""
    vals = []
    for x in xs:
        try:
            v = f(x)
        except (OverflowError, ValueError):
            v = math.nan
        vals.append(v)
    out = []
    for (x0, v0), (x1, v1) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if math.isfinite(v0) and math.isfinite(v1) and v0 * v1 < 0:
            out.append((x0, x1))
    return out


def _rect_imaginary_axis(spec, form: Interfaces, c) -> list[QnfResult]:
    p2 = c.p2
    a = form.a
    v0 = form.v2 - form.v1
    out = []
    if v0 > 0:
        # damped modes: |q| a = k0 a cosh(|q| a), zero/one/two roots
        k0 = math.sqrt(p2 * v0)
        ca = k0 * a
        f = lambda u: ca * math.cosh(u) - u
        us = np.linspace(1e-9, 50.0, 4001)
        for lo, hi in _scan_brackets(f, us):
            u = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
            k = 1j * (u / a) * math.tanh(u)
            out.append(_result(spec, k, "transcendental", c, aux=1j * u / a))
    else:
        # attractive: real-q poles, always with |q| <= |k0|
        k0m = math.sqrt(-p2 * v0)

        def cond(q, even, sign):
            # even: k = -i q tan(q a), odd: k = +i q cot(q a), each combined
            # with k = i y, y = sign sqrt(|k0|^2 - q^2) from k^2 = q^2 - |k0|^2
            y = sign * math.sqrt(max(k0m * k0m - q * q, 0.0))
            return y + q * math.tan(q * a) if even else y - q / math.tan(q * a)

        qs = np.linspace(1e-9, k0m * (1 - 1e-12), 4001)
        seen = []
        for even, sign in ((True, -1.0), (True, 1.0), (False, -1.0), (False, 1.0)):
            f = lambda q: cond(q, even, sign)
            for lo, hi in _scan_brackets(f, qs):
                q = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
                k = -1j * q * math.tan(q * a) if even else 1j * q / math.tan(q * a)
                if abs(k) < TRIVIAL_ZERO_TOL / a:
                    continue
                if any(abs(k - s) < 1e-9 / a for s in seen):
                    continue
                # guard against tan/cot pole artifacts
                if pole_condition(spec, k, c) > 1e-8:
                    continue
                seen.append(k)
                out.append(_result(spec, k, "transcendental", c, aux=q + 0j))
    out.sort(key=lambda r: (r.k.imag, r.k.real))
    return out


def _asym_dd_imaginary_axis(spec, form: Interfaces, c) -> list[QnfResult]:
    kp, km = _delta_k0s(form, c)
    a = form.a

    # pole condition on the imaginary axis k = i y:
    # (y - kp)(y - km) = kp km exp(+4 y a)   [sign fixed by the amplitude]
    def f(y):
        return (y - kp) * (y - km) - kp * km * math.exp(4.0 * y * a)

    ymax = max(50.0 / a, 4.0 * (abs(kp) + abs(km)))
    ys = np.concatenate([np.linspace(-ymax, -1e-7, 2001), np.linspace(1e-7, ymax, 2001)])
    out = []
    for lo, hi in _scan_brackets(f, list(ys)):
        y = brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)
        k = 1j * y
        if abs(k) < TRIVIAL_ZERO_TOL / a:
            continue
        if pole_condition(spec, k, c) > 1e-8:
            continue
        if any(abs(k - r.k) < 1e-9 / a for r in out):
            continue
        out.append(_result(spec, k, "transcendental", c))
    out.sort(key=lambda r: (r.k.imag, r.k.real))
    return out


def transcendental_qnfs(spec, search, c: PhysicalConstants = DEFAULT_CONSTANTS) -> list[QnfResult]:
    """Roots of the exact pole condition, on the imaginary axis or in a region.

    ``search`` is the string "imaginary_axis" or an oracle.SearchRegion; the
    region mode delegates to the pole finder running on the closed-form
    amplitude.  An empty list is a valid outcome (e.g. a repulsive barrier
    with k0 a above the merge point).
    """
    if isinstance(search, _oracle.SearchRegion):
        rep = _oracle.find_poles(spec, search, c, amplitude=transmission_amplitude)
        out = [
            _result(spec, k, "transcendental", c)
            for k, _res, _m in rep.poles
        ]
        out.sort(key=lambda r: (r.k.imag, r.k.real))
        return out
    if search != "imaginary_axis":
        raise DomainError(f"unknown search descriptor {search!r}")
    form = normal_form(spec)
    if _symmetric_barrier(form):
        return _rect_imaginary_axis(spec, form, c)
    if _delta_pair(form):
        return _asym_dd_imaginary_axis(spec, form, c)
    raise UnsupportedPotentialError(
        f"imaginary-axis search not implemented for {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Perturbative estimates
# ---------------------------------------------------------------------------

def rect_barrier_q_series(k0: float, a: float) -> complex:
    """|q| = k0 (1 + (k0 a)^2/2 + 13 (k0 a)^4/24 + O((k0 a)^6)), as i|q|."""
    ca = k0 * a
    return 1j * k0 * (1.0 + 0.5 * ca**2 + (13.0 / 24.0) * ca**4)


def rect_barrier_k_series(k0: float, a: float) -> complex:
    """k = i k0 (k0 a) (1 + 2(k0 a)^2/3 + 4(k0 a)^4/5 + O((k0 a)^6))."""
    ca = k0 * a
    return 1j * k0 * ca * (1.0 + (2.0 / 3.0) * ca**2 + 0.8 * ca**4)


REGIMES = (
    "small_separation",
    "near_symmetric_order0",
    "near_symmetric_order2",
    "small_k0a_series",
    "small_a_asym_rect",
)


def perturbative_qnfs(spec, regime: str, n: int = 0,
                      c: PhysicalConstants = DEFAULT_CONSTANTS) -> QnfResult:
    """Truncated-series QNF estimate; the residual reports truncation error.

    near_symmetric_* and small_separation apply to a pair of delta
    couplings (AsymDoubleDelta), small_k0a_series to the repulsive
    symmetric barrier (RectBarrier), small_a_asym_rect to a barrier
    (AsymRectBarrier) with |k2| a << 1 and mild asymmetry.
    """
    if regime not in REGIMES:
        raise DomainError(f"unknown regime {regime!r}")
    form = normal_form(spec)

    if regime in ("near_symmetric_order0", "near_symmetric_order2", "small_separation"):
        if not _delta_pair(form):
            raise DomainError(f"{regime} requires a pair of delta couplings")
        kp, km = _delta_k0s(form, c)
        a = form.a
        if regime == "small_separation":
            # lowest QNF for small separation; the a^1 coefficient carries a
            # sign opposite to one display in the literature, fixed against
            # the exact pole condition
            k = 1j * (kp + km) + 4j * kp * km * a
            return _result(spec, k, "perturbative", c, sign_choice="none")
        c0 = 2.0 * a * math.sqrt(kp * km) * math.exp((kp + km) * a)
        w = lambert_w(n, c0)
        k = 1j * (0.5 * (kp + km) - w / (2.0 * a))
        if regime == "near_symmetric_order2":
            k -= 1j * a * (kp - km) ** 2 / (4.0 * w * (1.0 + w))
        return _result(spec, k, "perturbative", c, branch=n)

    if regime == "small_k0a_series":
        if not (_symmetric_barrier(form) and form.v2 > form.v1):
            raise DomainError("small_k0a_series requires a repulsive symmetric barrier")
        k0 = math.sqrt(c.p2 * (form.v2 - form.v1))
        k = rect_barrier_k_series(k0, form.a)
        return _result(spec, k, "perturbative", c, aux=rect_barrier_q_series(k0, form.a))

    # small_a_asym_rect
    if not _barrier(form):
        raise DomainError("small_a_asym_rect requires a barrier spec")
    p2, a = c.p2, form.a
    P = p2 * (form.v2 - form.v1)
    Q = p2 * (form.v2 - form.v3)
    if P + Q == 0:
        raise DomainError("degenerate barrier: k12^2 + k23^2 = 0")
    k2sq = (
        -0.25 / (a * a) * (P - Q) ** 2 / (P + Q) ** 2
        - 2.0 * P * Q / (P + Q)
        - P * Q * a * a
    )
    k1 = cmath.sqrt(complex(k2sq + P))
    # the series determines k2^2 only; pick the incidence-side root that the
    # amplitude's pole actually sits on
    if pole_condition(spec, -k1, c) < pole_condition(spec, k1, c):
        k1 = -k1
    return _result(spec, k1, "perturbative", c, aux=cmath.sqrt(complex(k2sq)))


# ---------------------------------------------------------------------------
# Asymptotic (large-n) estimates
# ---------------------------------------------------------------------------

def asymptotic_qnfs(spec, n: int, c: PhysicalConstants = DEFAULT_CONSTANTS,
                    sign: str = "plus") -> QnfResult:
    """The large-|n| approximation for the requested tower member."""
    p2 = c.p2
    form = normal_form(spec)
    if _delta_pair(form) and form.alpha_left == form.alpha_right:
        k0, a = _delta_k0s(form, c)[0], form.a
        sgn = 1.0 if sign == "plus" else -1.0
        wc = lambert_w_comtet(n, sgn * 2.0 * k0 * a * math.exp(2.0 * k0 * a), terms=2)
        k = 1j * (k0 - wc / (2.0 * a))
        return _result(spec, k, "asymptotic", c, branch=n, sign_choice=sign)
    if _symmetric_barrier(form):
        a, v0 = form.a, form.v2 - form.v1
        if v0 > 0:
            k0 = math.sqrt(p2 * v0)
            q = -1j * lambert_w(n, k0 * a / 2.0) / a
        else:
            k0m = math.sqrt(-p2 * v0)
            q = -1j * lambert_w(n, -1j * k0m * a / 2.0) / a
        ksq = p2 * v0 + q * q
        k = cmath.sqrt(ksq)
        if pole_condition(spec, -k, c) < pole_condition(spec, k, c):
            k = -k
        return _result(spec, k, "asymptotic", c, branch=n, aux=q)
    if isinstance(form, EckartReduction):
        a = form.a
        if form.v0 == 0.0:
            k = 1j * n / a
            return _result(spec, k, "asymptotic", c, branch=n)
        two_s = 2.0 * cmath.sqrt(0.25 - p2 * form.v0 * a * a)
        sgn = 1.0 if sign == "plus" else -1.0
        k = 1j * (n / a + (1.0 + sgn * two_s) / (2.0 * a))
        return _result(spec, k, "asymptotic", c, branch=n, sign_choice=sign)
    raise UnsupportedPotentialError(
        f"no asymptotic QNF form for {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Energies and fits
# ---------------------------------------------------------------------------

def qnf_energy(k, c: PhysicalConstants = DEFAULT_CONSTANTS, v_offset: float = 0.0):
    """E = V_offset + hbar^2 k^2 / (2m); in relativistic mode returns omega = k."""
    k = complex(k)
    if c.mode == "relativistic":
        return k
    return v_offset + c.h2_2m * k * k


def fit_offset_gap(tower: list[QnfResult], model: str = "linear",
                   clean_tol: float = 1e-8, log_factor: float = 10.0) -> AsymptoticFit:
    """Fit k(n) = offset + n*gap (+ c ln n) over >= 5 consecutive tower entries.

    The verdict is clean_offset_gap when the linear model already fits to
    clean_tol, logarithmic_subleading when it does not but adding the c*ln n
    term shrinks the maximum residual by at least log_factor, and
    inconclusive otherwise.
    """
    if model not in ("linear", "linear_plus_log"):
        raise DomainError(f"unknown model {model!r}")
    entries = sorted((r for r in tower if r.branch is not None), key=lambda r: r.branch)
    if len(entries) < 5:
        raise DomainError("need at least 5 tower entries with branch indices")
    ns = [r.branch for r in entries]
    if any(b - a != 1 for a, b in zip(ns, ns[1:])):
        raise DomainError("tower entries must have consecutive indices")
    if ns[0] < 1:
        raise DomainError("fits need positive indices (ln n term)")
    narr = np.asarray(ns, dtype=float)
    karr = np.asarray([r.k for r in entries], dtype=complex)

    def _fit(*extras):
        cols = [np.ones_like(narr), narr, *extras]
        a = np.vstack(cols).T.astype(complex)
        coef, *_ = np.linalg.lstsq(a, karr, rcond=None)
        res = np.abs(karr - a @ coef)
        return coef, res

    coef_lin, res_lin = _fit()
    coef_log, res_log = _fit(np.log(narr))
    # rational subleading terms (the gamma-pole towers go like 1/(n + const))
    # also shrink residuals under the log model over a finite window; only
    # call the tower logarithmic when ln n genuinely beats them
    _, res_inv = _fit(1.0 / narr, 1.0 / narr**2)
    scale = max(1.0, float(np.max(np.abs(karr))))
    if float(res_lin.max()) < clean_tol * scale:
        verdict = "clean_offset_gap"
    elif (float(res_log.max()) < float(res_inv.max())
          and float(res_lin.max()) > log_factor * float(res_log.max())):
        verdict = "logarithmic_subleading"
    else:
        verdict = "inconclusive"
    if model == "linear":
        coef, res, logc = coef_lin, res_lin, None
    else:
        coef, res, logc = coef_log, res_log, complex(coef_log[2])
    return AsymptoticFit(
        offset=complex(coef[0]),
        gap=complex(coef[1]),
        residuals=tuple(float(x) for x in res),
        verdict=verdict,
        model=model,
        log_coeff=logc,
    )
