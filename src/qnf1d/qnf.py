"""Quasi-normal wavenumber machinery: closed-form towers, transcendental
solving, perturbative and asymptotic estimates, energy conversion and
offset + i n (gap) fitting.

QNFs are the complex poles of the transmission amplitude with Im(k) >= 0;
purely imaginary poles with Im(k) > 0 are damped modes and with Im(k) < 0
bound states.  A result's ``k`` is the wavenumber of the normal form's
``qnf_level`` asymptote, the plane the pole finder searches: the transmitted
side for the Eckart family (the incidence-side partner is kept as
``k_minus``), the incidence side for every ``Interfaces`` spec.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedPotentialError
from .potentials import (
    DEFAULT_CONSTANTS,
    EckartReduction,
    Interfaces,
    PhysicalConstants,
    _barrier,
    _delta_pair,
    _find_roots,
    length_scale,
    normal_form,
    transmission_amplitude,
)
from .specfn import _array_first, lambert_w, lambert_w_comtet
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
# how close i k a must come to a non-positive integer to count as a gamma pole
GAMMA_POLE_TOL = 1e-9
# fit_offset_gap verdicts: the linear model is clean below this relative
# residual, and ln n must shrink the residual by this factor to count
CLEAN_FIT_TOL = 1e-8
LOG_FIT_FACTOR = 10.0


@dataclass(frozen=True)
class QnfResult:
    """One quasi-normal wavenumber with provenance and diagnostics.

    ``classification`` is damped_mode / bound_state / complex_qnf /
    trivial_zero (see ``classify``), or cancelled for an Eckart-family
    tower member that is no pole of t, thresholds k- = 0 included (see
    ``closed_form_qnfs``).
    """

    k: complex
    method: str  # closed_form | transcendental | perturbative | asymptotic | oracle
    residual: float
    classification: str  # damped_mode | bound_state | complex_qnf | trivial_zero | cancelled
    branch: int | None = None
    sign_choice: str = "none"  # plus | minus | none
    k_minus: complex | None = None  # incidence-side wavenumber when asymmetric
    aux: complex | None = None  # inner wavenumber q (barriers) when relevant


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares k(n) = offset + n * gap (+ log_coeff * ln n) fit."""

    offset: complex
    gap: complex
    residuals: tuple
    verdict: str  # clean_offset_gap | logarithmic_subleading | inconclusive
    model: str
    log_coeff: complex | None = None


def classify(k, length_scale: float = 1.0):
    """Physical classification of a pole position at tolerance 1e-10.

    Reads k alone, so it never says cancelled: only ``closed_form_qnfs``,
    which knows the gamma functions behind a tower member, does."""

    def classes(k):
        # hypot is abs(k) to the bit; numpy's complex abs rounds differently
        size = np.hypot(k.real, k.imag)
        return np.where(size < TRIVIAL_ZERO_TOL / length_scale, "trivial_zero",
                        np.where(np.abs(k.real) <= CLASSIFY_TOL * np.fmax(1.0, size),
                                 np.where(k.imag > 0, "damped_mode", "bound_state"),
                                 "complex_qnf"))

    return _array_first(classes, k)


def _over(z, d: float):
    """z / d for a real d > 0, each part divided once: numpy's complex / real
    multiplies by 1 / d, a second rounding that the subtraction in the
    double-delta k = i (k0 - w / (2a)) amplifies (about twice the residual)."""
    return _complex(z.real / d, z.imag / d)


def _complex(re, im):
    """The complex array with these parts, with no arithmetic on them."""
    z = np.empty(np.broadcast(re, im).shape, dtype=complex)
    z.real, z.imag = re, im
    return z


@dataclass(frozen=True)
class _Tower:
    """A QNF list as columns, one entry per member: what every builder
    returns.  ``closed_form_qnfs`` and the other list functions make their
    QnfResult objects from it (``results``); the CLI prints the columns.
    branch, k_minus and aux are None where the list has no such column."""

    k: np.ndarray  # complex
    method: str
    residual: np.ndarray
    classification: np.ndarray  # str
    sign: np.ndarray  # str: plus | minus | none
    branch: np.ndarray | None = None  # int
    k_minus: np.ndarray | None = None  # complex
    aux: np.ndarray | None = None  # complex

    def take(self, index) -> _Tower:
        """The members at an index array or mask, in its order."""
        pick = lambda v: None if v is None else v[index]  # noqa: E731
        return _Tower(self.k[index], self.method, self.residual[index],
                      self.classification[index], self.sign[index], pick(self.branch),
                      pick(self.k_minus), pick(self.aux))

    def results(self) -> list[QnfResult]:
        n = len(self.k)
        column = lambda v: [None] * n if v is None else v.tolist()  # noqa: E731
        return list(map(QnfResult, self.k.tolist(), [self.method] * n,
                        self.residual.tolist(), self.classification.tolist(),
                        column(self.branch), self.sign.tolist(), column(self.k_minus),
                        column(self.aux)))


def _tower(spec, ks, method, c, sign=None, branch=None, k_minus=None, aux=None,
           residual=None) -> _Tower:
    """The columns of the members ks, with one residual call over all of
    them (none for an empty tower or a given residual); sign defaults to
    "none" throughout, the other columns to None."""
    ks = np.asarray(ks, dtype=complex)
    column = lambda v, dtype: None if v is None else np.asarray(v, dtype=dtype)  # noqa: E731
    if residual is None:
        residual = _residual(normal_form(spec), ks, c.p2)[0] if len(ks) else np.empty(0)
    return _Tower(ks, method, residual,
                  classify(ks, length_scale(spec)),
                  np.full(len(ks), "none") if sign is None else np.asarray(sign, dtype=str),
                  column(branch, int), column(k_minus, complex), column(aux, complex))


# ---------------------------------------------------------------------------
# Defining equations (dimensionless residuals)
# ---------------------------------------------------------------------------

def _gamma_pole_distance(z):
    """Distance from each z of an array to the nearest non-positive integer."""
    return np.abs(z + np.maximum(0.0, np.round(-z.real)))


def _residual(form, k, p2: float) -> tuple:
    """(pole_condition, k2) over an array of k in the form's qnf_level plane,
    with the inner wavenumber k2 of an Interfaces form (None for Eckart)."""
    with np.errstate(all="ignore"):
        if isinstance(form, Interfaces):
            den_k2, k2, _, bound = form.denominator(k, p2)
            b = bound()
            res = np.where((k == 0) | np.isinf(b), np.inf, np.abs(den_k2) / b)
        else:
            # the nearest gamma argument's distance from a pole; either root
            # of the partner k- may be physical
            km, k2 = np.sqrt(k * k + p2 * (form.v_plus - form.v_minus)), None
            zbars = [1j * 0.5 * (k + km_c) * form.a for km_c in (km, -km)]
            if form.v0 != 0.0:
                s = form.s(p2)
                zbars = [z + 0.5 + sgn * s for z in zbars for sgn in (1.0, -1.0)]
            res = np.min([_gamma_pole_distance(z) for z in zbars], axis=0)
    # nan: an overflowing sine, an unrepresentable den / k2 or gamma argument
    return np.where(np.isnan(res), np.inf, res), k2


def pole_condition(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """|defining equation| at k, dimensionless, 0 at an exact pole of t: the
    distance of t's nearest gamma argument from a pole (Eckart family), or
    |den / k2| / B, t's denominator over its rounding bound (Interfaces, see
    Interfaces.denominator); inf at k = 0 and where it is not representable."""
    return _array_first(lambda k: _residual(normal_form(spec), k, c.p2)[0], k)


def _delta_k0s(form: Interfaces, p2: float) -> tuple:
    """k0 = m alpha / hbar^2 of the left and the right delta coupling."""
    return 0.5 * p2 * form.alpha_left, 0.5 * p2 * form.alpha_right


def _lambert_argument(scale: float, k0: float, a: float) -> float:
    """scale e^{2 k0 a}, the Lambert-W argument of a delta pair (2 k0 a
    e^{2 k0 a} for equal couplings k0); DomainError where it is not finite."""
    try:
        arg = scale * math.exp(2.0 * k0 * a)
    except OverflowError:
        arg = math.inf
    if not math.isfinite(arg):
        raise DomainError(f"delta coupling k0 = m alpha / hbar^2 = {k0:.6g} is too strong at "
                          f"a = {a:.6g}: the Lambert-W argument 2 k0 a e^(2 k0 a) overflows")
    return arg


def _pole_root(form, k, p2: float):
    """Of the roots k and -k of k^2 over an array, the one that the pole of t
    sits on: the smaller residual, k on a tie."""
    return np.where(_residual(form, -k, p2)[0] < _residual(form, k, p2)[0], -k, k)


# ---------------------------------------------------------------------------
# Closed-form towers
# ---------------------------------------------------------------------------

def _keep_first(ks, tol: float):
    """Mask of the (finite) ks at least tol from every earlier kept k."""
    keep = np.ones(len(ks), dtype=bool)
    if len(ks) < 2:
        return keep
    # candidate pairs lie within 2 tol along the part of k with the wider
    # spread (Re k for the delta-pair towers, Im k for the imaginary-axis
    # roots), a margin that rounding cannot cross
    x = ks.real if np.ptp(ks.real) >= np.ptp(ks.imag) else ks.imag
    order = np.argsort(x, kind="stable")
    xs = x[order]
    # sorted position p pairs with the `after[p]` positions after it
    after = np.searchsorted(xs, xs + 2.0 * tol, side="right") - np.arange(1, len(xs) + 1)
    p = np.repeat(np.arange(len(xs)), after)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(after) - after, after)
    first, second = np.minimum(order[p], order[q]), np.maximum(order[p], order[q])
    d = ks[first] - ks[second]
    close = np.hypot(d.real, d.imag) < tol  # abs(ks[i] - ks[j]) to the bit
    # in (i, j) order, keep[i] is final before it is read
    for i, j in sorted(zip(first[close].tolist(), second[close].tolist())):
        if keep[i]:
            keep[j] = False
    return keep


def _norm_range(n_range) -> np.ndarray:
    """The sorted tower indices of a (lo, hi) pair or of an iterable."""
    if isinstance(n_range, tuple) and len(n_range) == 2:
        lo, hi = n_range
        return np.arange(lo, hi + 1)
    return np.array(sorted(set(int(n) for n in n_range)), dtype=int)


def has_closed_form(spec) -> bool:
    """Whether closed_form_qnfs serves the spec (barriers and unequal delta
    pairs are served by transcendental_qnfs instead)."""
    form = normal_form(spec)
    if isinstance(form, EckartReduction) or form.a == 0:
        return True
    left, right = form.alpha_left, form.alpha_right
    return form.flat and (left == right or left * right == 0)


def closed_form_qnfs(spec, n_range, c: PhysicalConstants = DEFAULT_CONSTANTS) -> list[QnfResult]:
    """All closed-form QNFs over the requested tower indices, without the
    trivial zero k = 0.

    A single delta coupling has a single pure-imaginary pole; two equal
    couplings (DoubleDelta) carry the Lambert-W tower (both signs per branch,
    de-duplicated); tanh / sech^2 / Eckart carry gamma-pole towers; Step has
    none.  Barrier potentials have no closed forms and are served by
    transcendental_qnfs.

    A gamma-pole member is classified cancelled when the denominator gammas
    Gamma(i k+- a) of t have at least as many poles there (i k+- a = -m,
    m >= 0, to GAMMA_POLE_TOL) as the numerator gammas Gamma(i kbar a + 1/2
    +- s): t has no pole at it, as at every damped member of a
    reflectionless sech^2 well and at every threshold k- = 0.  Such members
    stay in the list, so the (n, sign) rows do not depend on the coupling.
    """
    return _closed_form_tower(spec, n_range, c).results()


def _closed_form_tower(spec, n_range, c: PhysicalConstants) -> _Tower:
    """closed_form_qnfs as columns."""
    ns = _norm_range(n_range)
    if not len(ns):
        raise DomainError("empty n_range")
    p2 = c.p2
    form = normal_form(spec)

    if isinstance(form, Interfaces):
        if not has_closed_form(spec):
            raise UnsupportedPotentialError(
                f"{type(spec).__name__} has no closed-form QNFs; use transcendental_qnfs"
            )
        kp, km = _delta_k0s(form, c.p2)
        if form.a == 0 or kp * km == 0:
            # one interface: t = 2 sqrt(k1 k3) / (k1 + k3 - 2 i k0)
            k0 = kp + km
            return _tower(spec, [] if k0 == 0 or form.v1 != form.v3 else [1j * k0],
                          "closed_form", c)
        k0, a = kp, form.a
        arg = _lambert_argument(2.0 * k0 * a, k0, a)
        # every (n, sign) pair, n by n with plus before minus
        branch = np.repeat(ns, 2)
        labels = np.tile(["plus", "minus"], len(ns))
        w = lambert_w(branch, np.tile([arg, -arg], len(ns)))
        k = 1j * (k0 - _over(w, 2.0 * a))
        keep = np.isfinite(k) & ~(np.abs(k) < TRIVIAL_ZERO_TOL / a)
        keep[keep] = _keep_first(k[keep], 1e-9 / a)
        return _tower(spec, k[keep], "closed_form", c, sign=labels[keep], branch=branch[keep])

    # a member sits where i kbar a = -d / 2, kbar = (k+ + k-) / 2, a gamma pole:
    # d = 2n for the double poles of pure tanh's Gamma(i kbar a)^2 (n > 0),
    # d = 2n + 1 +- 2s for the sech^2 arguments 1/2 +- s; k+^2 - k-^2 = -p2 dv
    a, dv, s = form.a, form.v_plus - form.v_minus, form.s(p2)
    if form.v0 == 0.0:
        if ns[0] <= 0:  # ns is sorted
            raise DomainError("tanh closed-form tower is defined for n > 0")
        branch, labels = ns, None
        d = 2.0 * ns + 0j
    elif ns[0] < 0:
        raise DomainError("sech^2 / Eckart towers are defined for n >= 0")
    else:
        branch, labels = np.repeat(ns, 2), np.tile(["plus", "minus"], len(ns))
        d = np.add.outer(2.0 * ns + 1.0,
                         [sgn * (2.0 * s) for sgn in (1.0, -1.0)]).ravel()
    keep = np.abs(d) >= 1e-12  # else a degenerate member (d = 0)
    branch, labels, d = branch[keep], None if labels is None else labels[keep], d[keep]
    # k+- = i (+-p2 dv a / (2 d) + d / (2 a))
    half = d / (2.0 * a)
    kp, km = (1j * (num / d + half)
              for num in (0.5 * p2 * dv * a, -0.5 * p2 * dv * a))
    # no pole of t where the denominator gammas Gamma(i k+- a) have at least
    # as many poles (i k+- a = -m) as the numerator gammas Gamma(i kbar a +
    # 1/2 +- s)
    num_poles = sum(_gamma_pole_distance(0.5 - 0.5 * d + sgn * s) < GAMMA_POLE_TOL
                    for sgn in (1.0, -1.0))
    den_poles = sum(_gamma_pole_distance(1j * side * a) < GAMMA_POLE_TOL for side in (kp, km))
    cancelled = den_poles >= num_poles
    tower = _tower(spec, kp, "closed_form", c, sign=labels, branch=branch, k_minus=km)
    live = tower.classification != "trivial_zero"
    tower = dataclasses.replace(
        tower, classification=np.where(cancelled, "cancelled", tower.classification))
    return tower.take(live)


# ---------------------------------------------------------------------------
# Transcendental towers
# ---------------------------------------------------------------------------

def _scan_brackets(f, xs):
    """The brackets (lo, hi, f_lo, f_hi) of the roots of f over the sorted
    grid array xs, with one call of f on the whole grid: each cell whose ends
    differ in sign, and each node where f is 0 as the bracket lo == hi; a
    non-finite value brackets nothing."""
    with np.errstate(all="ignore"):
        vals = f(xs)
        # signs, not products of values, which can underflow to 0
        sign = np.sign(vals) * np.isfinite(vals)
    opens = vals == 0
    opens[:-1] |= sign[:-1] * sign[1:] < 0
    lo = np.flatnonzero(opens)
    hi = lo + (vals[lo] != 0)
    return xs[lo], xs[hi], vals[lo], vals[hi]


# |den / k2| / B at the double nearest a root is at most c eps (1 + a (|k|^2
# + |k2|^2) / |k2|), c = 16, to first order: den / k2 rounds 25 times by eps /
# 2 along its longest chain, and its exponential and sine turn the 6 such
# roundings of k2^2 = k^2 - p2 (v2 - v1) into 3 eps a (|k|^2 + |k2|^2) / |k2|
_DEN_ROUNDING = 16 * np.finfo(float).eps


# the axis grid's relative offsets from each |k0|
_NEAR = np.geomspace(1e-14, 1.0, 48)


def _imaginary_axis_tower(spec, form: Interfaces, c) -> _Tower:
    """The poles k = i y of a two-interface form with v1 == v3, where den /
    k2 of t is i times a real function of y.  One call of it on a grid
    brackets its roots: uniform in y out to 50/a (a barrier's upper damped
    mode for k0 a above 1e-19) or past the couplings, uniform in a well's
    real inner q (roots crowd towards |y| = k0), and geometric towards each
    |k0| (as do delta-pair roots); below the axis only for a form that can
    bind.  One vectorized bracketed solve (potentials._find_roots) refines
    all the roots together from the grid's values at the bracket ends."""
    p2, a = c.p2, form.a

    def f(y):
        return form.denominator(_complex(0.0, y), p2)[0].imag

    k0s = [abs(k0) for k0 in _delta_k0s(form, p2)] + [math.sqrt(p2 * abs(form.v2 - form.v1))]
    ymax = max(50.0 / a, 4.0 * (k0s[0] + k0s[1]), k0s[2])
    half = [np.linspace(0.0, ymax, 1001)]
    if form.v2 < form.v1:
        # a q step of at most pi / (8a), a quarter of the roots' spacing in q
        q = np.linspace(0.0, k0s[2], int(8.0 * k0s[2] * a / math.pi) + 32)
        half.append(np.sqrt((k0s[2] - q) * (k0s[2] + q)))
    half += [k0 * side for k0 in k0s if k0 > 0 for side in (1.0 + _NEAR, 1.0 - _NEAR)]
    half = np.concatenate(half)
    if form.v2 < form.v1 or form.alpha_left < 0 or form.alpha_right < 0:
        half = np.concatenate([-half, half])
    brackets = _scan_brackets(f, np.sort(half))
    if not len(brackets[0]):
        return _tower(spec, [], "transcendental", c)
    ys = _find_roots(f, *brackets)
    # the least-residual double within 8 ulps of each root of f, listed when
    # within rounding (the _DEN_ROUNDING bound times |k2|) and 1e-9/a from
    # every root listed before it, by Im k (a trivial_zero too: y = k0^2 a)
    ks = _complex(0.0, ys[:, None] + np.arange(-8, 9) * np.spacing(ys)[:, None])
    res, k2 = _residual(form, ks, p2)
    pick = np.arange(len(ys)), np.argmin(res, axis=1)
    ks, res, k2 = ks[pick], res[pick], k2[pick]
    q = np.abs(k2)
    ok = np.flatnonzero(res * q <= _DEN_ROUNDING * (q + a * (ks.imag ** 2 + q * q)))
    ok = ok[_keep_first(ks[ok], 1e-9 / a)]
    ok = ok[np.argsort(ks[ok].imag, kind="stable")]
    return _tower(spec, ks[ok], "transcendental", c, residual=res[ok],
                  aux=None if form.v2 == form.v1 else k2[ok])


def transcendental_qnfs(spec, search, c: PhysicalConstants = DEFAULT_CONSTANTS) -> list[QnfResult]:
    """Roots of the exact pole condition, on the imaginary axis or in a region.

    ``search`` is the string "imaginary_axis" or an oracle.SearchRegion; the
    region mode delegates to the pole finder running on the closed-form
    amplitude.  The axis mode solves t's own denominator along k = i y (no
    artifact of a rewritten equation) for symmetric barriers, wells and
    delta pairs.  An empty list is a valid outcome (e.g. a repulsive barrier
    with k0 a above the merge point).
    """
    return _transcendental_tower(spec, search, c).results()


def _transcendental_tower(spec, search, c: PhysicalConstants) -> _Tower:
    """transcendental_qnfs as columns."""
    if isinstance(search, _oracle.SearchRegion):
        # find_poles returns its poles sorted by (Im k, Re k)
        rep = _oracle.find_poles(spec, search, c, amplitude=transmission_amplitude)
        return _tower(spec, [k for k, _res, _m in rep.poles], "transcendental", c)
    if search != "imaginary_axis":
        raise DomainError(f"unknown search descriptor {search!r}")
    form = normal_form(spec)
    if isinstance(form, Interfaces) and form.a > 0 and form.v1 == form.v3:
        return _imaginary_axis_tower(spec, form, c)
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
        kp, km = _delta_k0s(form, c.p2)
        a = form.a
        if regime == "small_separation":
            # lowest QNF for small separation; the a^1 coefficient carries a
            # sign opposite to one display in the literature, fixed against
            # the exact pole condition
            k = 1j * (kp + km) + 4j * kp * km * a
            return _tower(spec, [k], "perturbative", c).results()[0]
        c0 = _lambert_argument(2.0 * a * math.sqrt(kp * km), 0.5 * (kp + km), a)
        w = lambert_w(n, c0)
        k = 1j * (0.5 * (kp + km) - w / (2.0 * a))
        if regime == "near_symmetric_order2":
            k -= 1j * a * (kp - km) ** 2 / (4.0 * w * (1.0 + w))
        return _tower(spec, [k], "perturbative", c, branch=[n]).results()[0]

    if regime == "small_k0a_series":
        if not (_barrier(form) and form.v1 == form.v3 < form.v2):
            raise DomainError("small_k0a_series requires a repulsive symmetric barrier")
        k0 = math.sqrt(c.p2 * (form.v2 - form.v1))
        k = rect_barrier_k_series(k0, form.a)
        return _tower(spec, [k], "perturbative", c,
                      aux=[rect_barrier_q_series(k0, form.a)]).results()[0]

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
    # the series determines k2^2 only
    k1 = _pole_root(form, np.array([cmath.sqrt(complex(k2sq + P))]), p2)
    return _tower(spec, k1, "perturbative", c, aux=[cmath.sqrt(complex(k2sq))]).results()[0]


# ---------------------------------------------------------------------------
# Asymptotic (large-n) estimates
# ---------------------------------------------------------------------------

def asymptotic_qnfs(spec, n: int, c: PhysicalConstants = DEFAULT_CONSTANTS,
                    sign: str = "plus") -> QnfResult:
    """The large-|n| approximation for the requested tower member."""
    return _asymptotic_tower(spec, np.array([n]), c, sign).results()[0]


def _asymptotic_tower(spec, ns, c: PhysicalConstants, sign: str = "plus") -> _Tower:
    """asymptotic_qnfs over an int array of tower indices, as columns; each
    member has the bits of its one-member call."""
    p2 = c.p2
    form = normal_form(spec)
    sgn = 1.0 if sign == "plus" else -1.0
    signs = np.full(len(ns), sign)
    if _delta_pair(form) and form.alpha_left == form.alpha_right:
        k0, a = _delta_k0s(form, p2)[0], form.a
        wc = lambert_w_comtet(ns, sgn * _lambert_argument(2.0 * k0 * a, k0, a))
        k = 1j * (k0 - _over(wc, 2.0 * a))
        return _tower(spec, k, "asymptotic", c, sign=signs, branch=ns)
    if _barrier(form) and form.v1 == form.v3:
        a, v0 = form.a, form.v2 - form.v1
        # W's argument is k0 a / 2 over a barrier, -i |k0| a / 2 over a well
        arg = math.sqrt(p2 * v0) * a / 2.0 if v0 > 0 else -1j * math.sqrt(-p2 * v0) * a / 2.0
        q = _over(-1j * lambert_w(ns, arg), a)
        k = _pole_root(form, np.sqrt(p2 * v0 + q * q), p2)
        return _tower(spec, k, "asymptotic", c, branch=ns, aux=q)
    if isinstance(form, EckartReduction):
        a = form.a
        if form.v0 == 0.0:
            return _tower(spec, _over(1j * ns, a), "asymptotic", c, branch=ns)
        two_s = 2.0 * form.s(p2)
        k = 1j * (ns / a + (1.0 + sgn * two_s) / (2.0 * a))
        return _tower(spec, k, "asymptotic", c, sign=signs, branch=ns)
    raise UnsupportedPotentialError(
        f"no asymptotic QNF form for {type(spec).__name__}"
    )


# ---------------------------------------------------------------------------
# Energies and fits
# ---------------------------------------------------------------------------

def qnf_energy(k, c: PhysicalConstants = DEFAULT_CONSTANTS, v_offset: float = 0.0):
    """E = V_offset + hbar^2 k^2 / (2m); in relativistic mode returns omega = k."""
    relativistic = c.mode == "relativistic"
    with np.errstate(all="ignore"):  # silent on overflow, like Python's complex product
        return _array_first(lambda z: z if relativistic else v_offset + c.h2_2m * z * z, k)


def fit_offset_gap(tower: list[QnfResult], model: str = "linear") -> AsymptoticFit:
    """Fit k(n) = offset + n*gap (+ c ln n) over >= 5 consecutive tower entries.

    The verdict is clean_offset_gap when the linear model already fits to
    CLEAN_FIT_TOL relative to max(1, max |k|), logarithmic_subleading when it
    does not but adding the c*ln n term beats rational 1/n, 1/n^2 terms and
    shrinks the maximum residual by more than LOG_FIT_FACTOR, and
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
    if float(res_lin.max()) < CLEAN_FIT_TOL * scale:
        verdict = "clean_offset_gap"
    elif (float(res_log.max()) < float(res_inv.max())
          and float(res_lin.max()) > LOG_FIT_FACTOR * float(res_log.max())):
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
