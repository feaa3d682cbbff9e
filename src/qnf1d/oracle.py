"""Formula-independent scattering engine.

Piecewise-constant and delta potentials get an exact transfer-matrix
amplitude; smooth (Eckart-family) potentials are integrated as an ODE with
exponential-tail-corrected boundary data.  Poles of the transmission
amplitude in the complex k plane (the quasi-normal wavenumbers) are located
by a grid scan plus Newton refinement of g(k) = 1/t(k).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import DomainError, NotAScatteringPotential, OverflowGuardError
from .potentials import (
    DEFAULT_CONSTANTS,
    Interfaces,
    PhysicalConstants,
    ScatteringAmplitudes,
    _first_point,
    _level_wavenumber,
    _sin_over,
    evaluate,  # noqa: F401  unused here; perfbench's tracer test rebinds this alias
    length_scale,
    normal_form,
)

__all__ = [
    "SearchRegion",
    "PoleReport",
    "numeric_amplitude",
    "find_poles",
    "refine_pole",
    "transfer_matrix_det_error",
]

# exp-argument cap: beyond this the transfer/ODE products are not representable
_EXP_GUARD = 600.0
# acceptance rule of a refined pole: |1/t| below this ...
_RESIDUAL_TOL = 1e-8
# ... and |k| at least this (1/t vanishes trivially at k = 0)
_TRIVIAL_ZERO_TOL = 1e-6
# Newton iterations per pass of the pole refiner
_NEWTON_MAX_ITER = 60
# boundary points per unit length of the argument-principle count
_WINDING_SAMPLES_PER_UNIT = 40
# terms of the exponential-tail series in the ODE boundary data: the exact
# Jost solution of an Eckart reduction, whose terms fall like e^{-2 L / a}
_TAIL_ORDER = 32
# default half-width of the ODE domain, in units of a: the subdominant
# coefficient loses a factor e^{2 |Im k| L} of precision
_ODE_HALF_WIDTH = 1.5
# Chebyshev points per panel of the ODE propagators
_PANEL_DEGREE = 16
# widest panel at the first pass, in units of a: tanh and sech^2 have
# poles pi a / 2 off the real axis, which bound a panel's resolution
_PANEL_WIDTH = 1.0 / 3.0
# bound on panel width times the largest local wavenumber at the first pass
_PANEL_REACH = 2.0
# most panels on [-L, L]; a point still unresolved on that many is nan
_PANEL_CAP = 4096
# panel matrices per linear solve, which bounds the memory of a large grid
_PANEL_BLOCK = 256


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the complex k plane scanned for amplitude poles."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    grid_density: float = 8.0

    def __post_init__(self):
        inf = math.inf
        if not (-inf < self.re_min < self.re_max < inf and -inf < self.im_min < self.im_max < inf):
            raise DomainError("search region must be a finite, non-empty rectangle")
        if not 0 < self.grid_density < inf:
            raise DomainError("grid_density must be positive and finite")


@dataclass
class PoleReport:
    """Poles found in a region: (k, residual |1/t|, multiplicity hint) triples.

    ``rejected`` holds a (seed, reason) pair for every grid seed whose
    refinement failed the acceptance rule."""

    poles: list
    region: SearchRegion
    count_check: int | None = None
    warnings: list = field(default_factory=list)
    rejected: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Transfer matrices (piecewise-constant + delta potentials)
# ---------------------------------------------------------------------------

def _transfer_matrices(spec, k, c):
    """The entries (m00, m01, m10, m11) of M = W(-a, k)^-1 J_left P J_right
    W(a, k+), with (A_left, B_left) = M (A_right, B_right), over an array of
    k, each 2 x 2 product written out; also returns k+ and the mask of the
    points where M is not representable (k = 0, an exponential beyond the
    guard, or a non-finite entry)."""
    form = normal_form(spec)
    if not isinstance(form, Interfaces):
        raise NotAScatteringPotential(f"{type(spec).__name__} is not piecewise-constant")
    a, e = form.a, k * k / c.p2 + form.v1  # energy from the incidence side
    # reuse the caller's k wherever the level matches the incidence side, so
    # the matrix is the analytic continuation in k
    k_mid, k_p = (_level_wavenumber(k, e, form.v1, v, c.p2) for v in (form.v2, form.v3))
    bad = k == 0
    for kappa in (k, k_mid, k_p):
        bad |= np.abs(kappa.imag * a) > _EXP_GUARD
    # W(x, kappa) has columns (psi, psi') of exp(-+i kappa x), det 2i kappa;
    # psi' jumps by g psi at a face, J = [[1, 0], [g, 1]].  Bad points get a
    # harmless stand-in for k in W(-a, k)^-1 and are masked by the caller
    g_left, g_right = -c.p2 * form.alpha_left, -c.p2 * form.alpha_right
    k_in = np.where(bad, 1.0, k)
    em, ep = 0.5 * np.exp(-1j * k_in * a), 0.5 * np.exp(1j * k_in * a)
    l01, l11 = -em / (1j * k_in), ep / (1j * k_in)  # left = W(-a, k)^-1 J_left
    l00, l10 = em + l01 * g_left, ep + l11 * g_left
    # right = J_right W(a, k+)
    r00, r01 = np.exp(-1j * k_p * a), np.exp(1j * k_p * a)
    r10, r11 = (g_right - 1j * k_p) * r00, (g_right + 1j * k_p) * r01
    # the middle region carries (psi, psi') from x = a to x = -a by
    # P = e I + sin(k_mid d) / k_mid u v^T, d = -2a, u = (1, w), v = (w, 1),
    # with e = exp(-w d) the decaying one of exp(+-i k_mid d): no cancellation
    # where one exponential dominates, nor as k_mid -> 0, where the
    # exponential basis degenerates (a = 0 makes P the identity)
    d = -2.0 * a
    w = np.where((k_mid * d).imag >= 0, -1j, 1j) * k_mid
    ex, s = np.exp(-w * d), _sin_over(k_mid, d)
    lu0, lu1 = s * (l00 + w * l01), s * (l10 + w * l11)  # s (left u)
    vr0, vr1 = w * r00 + r10, w * r01 + r11  # v^T right
    m = (ex * (l00 * r00 + l01 * r10) + lu0 * vr0, ex * (l00 * r01 + l01 * r11) + lu0 * vr1,
         ex * (l10 * r00 + l11 * r10) + lu1 * vr0, ex * (l10 * r01 + l11 * r11) + lu1 * vr1)
    # each factor can scale the entries by exp(|Im kappa a|), so the product
    # overflows long before one exponential does
    for entry in m:
        bad |= ~np.isfinite(entry)
    return m, k_p, bad


def _transfer_amplitudes(spec, k, c) -> ScatteringAmplitudes:
    """t and r over an array of k; inf at a pole, nan where M is not
    representable."""
    (m00, _, m10, _), k_p, bad = _transfer_matrices(spec, k, c)
    t = np.where(m00 == 0, complex("inf"), 1.0 / m00 * np.sqrt(k_p) / np.sqrt(k))
    nan = complex("nan")
    return ScatteringAmplitudes(np.where(bad, nan, t), np.where(bad, nan, m10 / m00),
                                k, k_p)


def transfer_matrix_det_error(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """|det M - k_+/k_-|: the flux-conservation surrogate (0 for exact matrices),
    with det M = m00 m11 - m01 m10 from M's entries.

    An ndarray k gives an array of the same shape, nan where M is not
    representable; a scalar k gives a float and raises OverflowGuardError
    there instead."""
    scalar = not isinstance(k, np.ndarray)
    k = np.array([k] if scalar else k, dtype=complex)
    with np.errstate(all="ignore"):
        (m00, m01, m10, m11), k_p, bad = _transfer_matrices(spec, k, c)
        err = np.where(bad, np.nan, np.abs(m00 * m11 - m01 * m10 - k_p / k))
    if not scalar:
        return err
    if bad[0]:
        raise OverflowGuardError(f"transfer matrix not representable at k={k[0]}")
    return float(err[0])


# ---------------------------------------------------------------------------
# ODE integration for smooth potentials
# ---------------------------------------------------------------------------

def _tail_coefficients(red, c, side):
    """W_j of V - V_inf = sum_j W_j exp(-2 j |x| / a) in units of 1/length^2,
    on the right (side = +1) or the left (side = -1); an array of sides
    (shape (..., 1)) gives one row of W_j per side.

    Uses tanh(u) -/+ 1 = -/+ 2 sum (-1)^(j-1) exp(-/+ 2ju) and
    sech^2(u) = 4 sum (-1)^(j-1) j exp(-/+ 2ju).
    """
    p2 = c.p2
    dv = red.v_plus - red.v_minus
    j = np.arange(1, _TAIL_ORDER + 1)
    return p2 * (-1.0) ** (j - 1) * (4.0 * j * red.v0 - side * dv)


def _tail_eta(ws, k, a):
    """Correction coefficients of psi = e^{-i k u} (1 + sum eta_j e^{-2 j u / a}),
    over an array of k: shape k.shape + (n,), for tail coefficients ws of
    shape k.shape[:-1] + (n,) (one row of ws per row of k).

    Here u is the outward coordinate (+x on the right, -x on the left) and ws
    are the tail coefficients of W = p2 (V - V_inf) = sum_j ws_j e^{-2 j u/a}.
    Plugging the ansatz into psi'' + k^2 psi = W psi gives the recursion
    eta_l X_l = ws_l + sum_{j<l} ws_j eta_{l-j} with X_l = 4ikl/a + 4l^2/a^2.
    Each eta_l is one contraction over the eta before it, so a point's eta
    do not depend on the other points.
    """
    n = ws.shape[-1]
    ell = np.arange(1, n + 1)
    x = 4.0j * k[..., None] * ell / a + 4.0 * ell * ell / (a * a)
    rev = ws[..., ::-1, None]
    etas = np.empty(x.shape, dtype=complex)
    for i in range(n):
        conv = (etas[..., :i] @ rev[..., n - i:, :])[..., 0]
        etas[..., i] = (ws[..., i, None] + conv) / x[..., i]
    return etas


def _tail_state(etas, k, a, u):
    """(psi, dpsi/du) of the outgoing tail-corrected solution at outward
    distance u, over an array of k."""
    phase = np.exp(-1j * k * u)
    j = np.arange(1, etas.shape[-1] + 1)
    terms = np.exp(-2.0 * j * u / a)
    f = 1.0 + etas @ terms
    fp = etas @ (-2.0 * j / a * terms)  # derivative of the bracket w.r.t. u
    return phase * f, phase * (-1j * k * f + fp)


@functools.lru_cache(maxsize=None)
def _chebyshev_panel(n):
    """The n Chebyshev points t of the first kind on [-1, 1]; the matrices
    taking Chebyshev coefficients to values there and to the values of the
    double integral from t = -1; and the rows taking coefficients to the
    single and double integrals over [-1, 1]."""
    t = np.cos(np.pi * (np.arange(n) + 0.5) / n)
    once = cheb.chebint(np.eye(n), lbnd=-1, axis=0)
    twice = cheb.chebint(np.eye(n), m=2, lbnd=-1, axis=0)
    # T_j(1) = 1, so a coefficient array's value at t = 1 is its sum
    return (t, cheb.chebvander(t, n - 1), cheb.chebvander(t, n + 1) @ twice,
            once.sum(0), twice.sum(0))


def _propagate(red, p2, e, psi0, dpsi0, L, panels, rtol):
    """One propagator pass: (psi, psi') at x = -L of the solutions started
    at x = L, one per energy in the array e, over ``panels`` equal panels,
    and the mask of the points whose every panel is resolved to ``rtol``.

    On a panel from x0, psi'' = q psi (q = p2 (V - E)) is the integral
    equation sigma = q (psi(x0) + psi'(x0) (x - x0) + J^2 sigma) for
    sigma = psi''.  The Chebyshev coefficients of sigma for the two
    fundamental solutions are one linear solve with two right-hand sides,
    and their end values are the panel's 2 x 2 propagator.  A point is
    resolved when the three trailing coefficients of its sigma stay below
    rtol times its largest one."""
    t, vander, j2, end1, end2 = _chebyshev_panel(_PANEL_DEGREE)
    d = -2.0 * L / panels
    h = 0.5 * d  # dx / dt on a panel
    j2 = -h * h * j2  # J^2 in x, with its sign in the integral equation
    v = red.evaluate(L + d * (np.arange(panels)[:, None] + 0.5 * (t + 1.0)))
    basis = np.stack([np.ones_like(t), h * (t + 1.0)], axis=-1)  # 1 and x - x0
    psi, dpsi = np.empty_like(psi0), np.empty_like(dpsi0)
    resolved = np.empty(e.shape, dtype=bool)
    # points per block, so that a large grid does not grow the matrices
    block = max(1, _PANEL_BLOCK // panels)
    for lo in range(0, e.size, block):
        sl = slice(lo, lo + block)
        q = p2 * (v - e[sl, None, None])
        mat = q[..., None] * j2
        mat += vander
        coef = np.linalg.solve(mat, q[..., None] * basis)
        size = np.abs(coef).max(axis=-1)
        resolved[sl] = size[..., -3:].max(axis=(1, 2)) <= rtol * size.max(axis=(1, 2))
        # J^2 sigma and J sigma at each panel's end, for both solutions
        (u1, u2), (du1, du2) = (h * h * (end2 @ coef)).T, (h * (end1 @ coef)).T
        y, dy = psi0[sl], dpsi0[sl]
        for s in range(panels):
            y, dy = (1.0 + u1[s]) * y + (d + u2[s]) * dy, du1[s] * y + (1.0 + du2[s]) * dy
        psi[sl], dpsi[sl] = y, dy
    return psi, dpsi, resolved & np.isfinite(psi) & np.isfinite(dpsi)


def _integrate(red, p2, e, psi0, dpsi0, L, rtol):
    """(psi, psi') at x = -L of the solutions of psi'' = p2 (V - E) psi started
    at x = L, one per energy in the array e, by Chebyshev panel propagators.

    The panels start at most a/3 wide (``_PANEL_WIDTH``) and narrow enough
    for the largest local wavenumber of the batch; the points not resolved
    to ``rtol`` (see _propagate) are solved again on twice as many panels,
    up to ``_PANEL_CAP``, and a point still unresolved there is nan."""
    mid, slope = 0.5 * (red.v_minus + red.v_plus), 0.5 * abs(red.v_plus - red.v_minus)
    # sup |V - E| over real x bounds the local wavenumber
    kappa = math.sqrt(p2 * (np.abs(e - mid).max(initial=0.0) + slope + abs(red.v0)))
    per_length = max(1.0 / (_PANEL_WIDTH * red.a), kappa / _PANEL_REACH)
    panels = math.ceil(min(_PANEL_CAP, 2.0 * L * per_length))  # per_length may be inf
    psi = np.full(e.shape, complex("nan"))
    dpsi = psi.copy()
    todo = np.arange(e.size)
    while todo.size and panels <= _PANEL_CAP:
        p, dp, ok = _propagate(red, p2, e[todo], psi0[todo], dpsi0[todo], L, panels, rtol)
        psi[todo[ok]], dpsi[todo[ok]] = p[ok], dp[ok]
        todo = todo[~ok]
        panels *= 2
    return psi, dpsi


def _ode_amplitudes(red, k, c, L=None, rtol=1e-12) -> ScatteringAmplitudes:
    """t and r of the Eckart reduction ``red`` over an array of k, with one
    integration over [-L, L] (default 1.5 a); inf at a pole, nan at k = 0
    and where t is not representable or the propagators do not resolve."""
    a, shift, p2 = red.a, red.shift, c.p2
    e = red.v_minus + k * k / p2
    k_p = _level_wavenumber(k, e, red.v_minus, red.v_plus, p2)
    im = np.maximum(np.abs(k.imag), np.abs(k_p.imag))
    L = _ODE_HALF_WIDTH * a if L is None else float(L)
    bad = (k == 0) | (im * 2.0 * L > _EXP_GUARD)

    # tail-corrected boundary states at |x| = L, in one recursion: the
    # outgoing transmitted state on the right; on the left the reflected
    # e^{+ikx} = e^{-ik|x|} is the outward state, the incident e^{-ikx} its
    # k -> -k partner.  dpsi/dx is -dpsi/du on the left
    sides = np.array([[1.0], [-1.0], [-1.0]])
    kk = np.stack([k_p, k, -k]).reshape(3, -1)
    psi_u, dpsi_u = _tail_state(_tail_eta(_tail_coefficients(red, c, sides), kk, a), kk, a, L)
    (psi0, p_ref, p_inc), (dpsi0, dp_ref, dp_inc) = (
        z.reshape((3,) + k.shape) for z in (psi_u, sides * dpsi_u))

    # integrate the unshifted reduction; the shift becomes a phase below
    psi = np.full(k.shape, complex("nan"))
    dpsi = psi.copy()
    ok = ~bad
    if ok.any():
        psi[ok], dpsi[ok] = _integrate(replace(red, shift=0.0), p2, e[ok], psi0[ok], dpsi0[ok],
                                       L, rtol)

    det = p_inc * dp_ref - p_ref * dp_inc
    a_coef = (psi * dp_ref - p_ref * dpsi) / det
    b_coef = (p_inc * dpsi - psi * dp_inc) / det
    t = 1.0 / a_coef * np.sqrt(k_p) / np.sqrt(k)
    r = b_coef / a_coef
    if shift != 0.0:
        phase = np.exp(1j * (k_p - k) * shift)
        bad |= ~np.isfinite(phase)
        t, r = t * phase, r * np.exp(-2j * k * shift)
    nan = complex("nan")
    bad |= (det == 0) | ~np.isfinite(psi) | ~np.isfinite(dpsi)
    t = np.where(bad, nan, np.where(a_coef == 0, complex("inf"), t))
    r = np.where(bad | (a_coef == 0), nan, r)
    return ScatteringAmplitudes(t, r, k, k_p)


def numeric_amplitude(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS, L=None,
                      rtol=1e-12) -> ScatteringAmplitudes:
    """Analytic-formula-independent t (and r) at incidence-side wavenumber k.

    Piecewise-constant and delta potentials use exact transfer matrices;
    smooth potentials integrate the stationary equation over [-L, L] with
    outgoing boundary data from the N-term Jost tail series (N =
    ``_TAIL_ORDER``); the default is L = 1.5 a for every k.  The ODE is
    solved by Chebyshev panel propagators (see _integrate), and ``rtol``
    bounds the three trailing Chebyshev coefficients of each point's psi''
    on every panel, relative to its largest one.  The transfer matrices
    ignore L and rtol.

    An ndarray k gives arrays under the contract of
    ``qnf1d.potentials.transmission_amplitude`` (inf at a pole, nan where t
    is not representable); the transfer matrices are then written entry by
    entry over the array, and the ODE is one linear solve over every point
    and panel, repeated on more panels for the points it does not resolve.
    A scalar k is the one-element case: t is inf at a pole, and
    OverflowGuardError is raised where the array would be nan.
    """
    form = normal_form(spec)
    scalar = not isinstance(k, np.ndarray)
    if scalar and complex(k) == 0:
        raise DomainError("numeric amplitude requires k != 0")
    with np.errstate(all="ignore"):
        k = np.array([k] if scalar else k, dtype=complex)
        if isinstance(form, Interfaces):
            amp = _transfer_amplitudes(spec, k, c)
        else:
            amp = _ode_amplitudes(form, k, c, L, rtol)
    if not scalar:
        return amp
    amp = _first_point(amp)
    if cmath.isnan(amp.t):
        raise OverflowGuardError(f"numeric amplitude not representable at k={amp.k_minus_inf} "
                                 "(an overflow guard or an unresolved integration)")
    return amp


def solve_ivp(*args, **kwargs):
    """scipy.integrate.solve_ivp, imported when called.  Nothing here calls it
    since the panel propagators; it stays bound at import time only because
    perfbench/tests/test_perfbench.py asserts that the tracer wraps
    ``oracle.solve_ivp``.  ROADMAP item 1 deletes it with that assertion."""
    from scipy import integrate

    return integrate.solve_ivp(*args, **kwargs)


# ---------------------------------------------------------------------------
# Pole search
# ---------------------------------------------------------------------------

def _inv_t(spec, k, c, amplitude):
    """1/t over an array of k in the reported plane (the normal form's
    ``qnf_level``) with one amplitude call: 0 at a pole, inf at k = 0, nan
    where t is not representable."""
    form = normal_form(spec)
    level = form.qnf_level
    with np.errstate(all="ignore"):
        k_in = _level_wavenumber(k, level + k * k / c.p2, level, form.limits[0], c.p2)
        t = amplitude(spec, k_in, c).t
        inv = np.where(t == 0, complex("inf"), np.where(np.isinf(np.abs(t)), 0j, 1.0 / t))
    return np.where(k_in == 0, complex("inf"), inv)


def _newton_polish(f, k0, on_axis=False):
    """Damped Newton on complex f from every seed in the array k0 at once;
    returns the best iterate seen per seed (nan where f is nan at the seed).

    Each iteration makes one call of f, on the stacked (z, z + h, z - h) of
    the seeds still iterating.  Multiple roots (the tanh amplitude has double
    poles) stall at the evaluation noise floor, so a seed whose iterates stop
    improving three times ends its search rather than being allowed to run
    off.  With ``on_axis`` the iteration runs over the real y of k = i y: the
    wavenumber square roots put their branch cuts exactly on the imaginary
    axis, so on-axis poles are polished with a one-real-parameter iteration
    that never crosses the cut."""
    if on_axis:
        g, z, tol = (lambda y: f(1j * y)), k0.imag.copy(), 1e-13
    else:
        g, z, tol = f, k0.astype(complex), 1e-12
    best_z, best_g = z.copy(), np.full(z.shape, np.nan)
    stale = np.zeros(z.shape, dtype=int)
    step = np.zeros_like(z)
    live = np.arange(z.size)
    for n in range(_NEWTON_MAX_ITER + 1):
        if not live.size:
            break
        zl = z[live]
        h = 1e-7 * np.maximum(1.0, np.abs(zl))
        gz, gp, gm = np.split(g(np.concatenate([zl, zl + h, zl - h])), 3)
        ga = np.abs(gz)
        if n == 0:
            best_g[live] = ga
            done = np.isnan(ga)
        else:
            # gz is f at the last step's iterate
            better = ga < best_g[live]
            best_z[live[better]], best_g[live[better]] = zl[better], ga[better]
            stale[live] = np.where(better, 0, stale[live] + 1)
            done = (stale[live] >= 3) | (np.abs(step[live]) < tol * np.maximum(1.0, np.abs(zl)))
        dg = (gp - gm) / (2.0 * h)
        done |= np.isnan(gz) | (dg == 0) | np.isnan(dg) | (n == _NEWTON_MAX_ITER)
        live, zl, gz, dg = live[~done], zl[~done], gz[~done], dg[~done]
        s = gz / dg
        cap = 0.5 * (1.0 + np.abs(zl))
        if on_axis:
            s = np.clip(s.real, -cap, cap)
        else:
            s = s * (cap / np.maximum(np.abs(s), cap))
        z[live] = zl - s
        step[live] = s
    best_z[np.isnan(best_g)] = np.nan
    return 1j * best_z if on_axis else best_z


def _rejections(f, k, basin):
    """Why each k is not a certified pole of t (a zero of f = 1/t), or None;
    and |f(k)| (nan outside the basin).  ``basin`` marks the k inside their
    search basin.  One call of f, on the points inside the basin, which also
    probes that f is not flat around them (guards against regions where 1/t
    merely underflows)."""
    res = np.full(k.shape, np.nan)
    flat = np.ones(k.shape, dtype=bool)
    if basin.any():
        kb = k[basin]
        probe = 1e-4 * (1.0 + np.abs(kb))
        res[basin], p_re, p_im = np.split(
            np.abs(f(np.concatenate([kb, kb + probe, kb + 1j * probe]))), 3)
        flat[basin] = ~(np.maximum(p_re, p_im) > 10.0 * np.maximum(res[basin], _RESIDUAL_TOL * 1e-4))
    reasons = []
    for z, r, fl, b in zip(k.tolist(), res.tolist(), flat.tolist(), basin.tolist()):
        if not b:
            reasons.append("the iteration left the search basin")
        elif not r < _RESIDUAL_TOL:
            reasons.append(f"refined point k={z} has |1/t|={r:.2e} > {_RESIDUAL_TOL:.0e}")
        elif abs(z) < _TRIVIAL_ZERO_TOL:
            reasons.append("refinement converged to the trivial zero k = 0")
        elif fl:
            reasons.append(f"1/t is numerically flat around k={z}; not a certified pole")
        else:
            reasons.append(None)
    return reasons, res


def _refine(f, guesses, near_axis, inside):
    """Newton-polish a zero of f from every guess in the array ``guesses``;
    returns one (k, |f(k)|, reason) triple per guess.

    ``inside(k, guesses)`` marks the iterates k that lie in the search basin
    of their guesses.  Rejected iterates of the guesses marked ``near_axis``
    are retried with the on-axis iteration, as a second pass.  ``reason`` is
    None for a certified pole and otherwise names why the last iterate was
    rejected."""
    k = _newton_polish(f, guesses)
    reasons, res = _rejections(f, k, inside(k, guesses))
    retry = [i for i, reason in enumerate(reasons) if reason and near_axis[i]]
    if retry:
        # poles on the imaginary axis sit on the channel-sqrt branch cuts
        k[retry] = _newton_polish(f, guesses[retry], on_axis=True)
        reasons_ax, res[retry] = _rejections(f, k[retry], inside(k[retry], guesses[retry]))
        for i, reason in zip(retry, reasons_ax):
            reasons[i] = reason
    return [(z, r, reason and f"no certified pole from guess {guess}: {reason}")
            for guess, z, r, reason in zip(guesses.tolist(), k.tolist(), res.tolist(), reasons)]


def refine_pole(spec, guess, c: PhysicalConstants = DEFAULT_CONSTANTS, amplitude=None):
    """Newton-polish a pole of t from ``guess``; returns (k, residual |1/t|).

    k is a wavenumber of the normal form's ``qnf_level``, as QNFs are reported.
    Raises DomainError when the iteration escapes the basin
    |k - guess| <= (1 + |guess|) / 2, or its result fails the acceptance
    rule shared with find_poles (residual, trivial zero, flat 1/t).
    ``amplitude`` (default: the numeric engine) must accept an ndarray k.

    An ndarray of guesses refines them all at once (each Newton iteration is
    one amplitude call over every guess still iterating), each in its own
    basin, and returns a list with one (k, residual, reason) triple per
    guess instead of raising: ``reason`` is None for a certified pole and
    otherwise the message the scalar call would raise.
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    scalar = not isinstance(guess, np.ndarray)
    guesses = np.array([guess] if scalar else guess, dtype=complex).ravel()
    f = lambda k: _inv_t(spec, k, c, amplitude)
    near_axis = np.abs(guesses.real) < 1e-6 * np.maximum(1.0, np.abs(guesses))
    refined = _refine(f, guesses, near_axis,
                      lambda k, g: np.abs(k - g) <= 0.5 * (1.0 + np.abs(g)))
    if not scalar:
        return refined
    [(k, res, reason)] = refined
    if reason:
        raise DomainError(reason)
    return k, res


def _winding_count(f, region):
    """Winding number of f around the region boundary (zeros minus poles of f).

    ``f`` evaluates on an array of boundary points."""
    corners = [
        complex(region.re_min, region.im_min),
        complex(region.re_max, region.im_min),
        complex(region.re_max, region.im_max),
        complex(region.re_min, region.im_max),
    ]
    pts = []
    for i in range(4):
        z0, z1 = corners[i], corners[(i + 1) % 4]
        n = max(8, int(abs(z1 - z0) * _WINDING_SAMPLES_PER_UNIT))
        for j in range(n):
            pts.append(z0 + (z1 - z0) * j / n)
    vals = f(np.array(pts))
    if (vals == 0).any() or np.isnan(vals).any():
        return None
    with np.errstate(all="ignore"):
        dphi = np.angle(np.roll(vals, -1) / vals)
    if not (np.abs(dphi) <= 2.5).all():  # too coarse to trust
        return None
    return round(float(dphi.sum()) / (2.0 * math.pi))


def _window_min(mag):
    """The minimum of mag over each point's 3 x 3 window, with inf beyond the
    edges: separable, one pass along each axis (a minimum does not round)."""
    pad = np.pad(mag, 1, constant_values=np.inf)
    cols = np.minimum(np.minimum(pad[:, :-2], pad[:, 1:-1]), pad[:, 2:])
    return np.minimum(np.minimum(cols[:-2], cols[1:-1]), cols[2:])


def find_poles(spec, region: SearchRegion, c: PhysicalConstants = DEFAULT_CONSTANTS,
               amplitude=None, count_zeros=False) -> PoleReport:
    """Grid-scan g(k) = 1/t over the region, refine local minima of |g|.

    ``amplitude`` defaults to the numeric engine; pass
    ``qnf1d.potentials.transmission_amplitude`` to hunt poles of the closed
    forms instead (useful for towers beyond the ODE engine's reach).  It
    must accept an ndarray k: the grid, each Newton iteration over all seeds
    and the ``count_zeros`` boundary are one call each.
    The region lies in the plane QNFs are reported in (``qnf_level``).
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    dedup_radius = 1e-6 / length_scale(spec)

    f = lambda k: _inv_t(spec, k, c, amplitude)
    nre = max(4, int(round((region.re_max - region.re_min) * region.grid_density)))
    nim = max(4, int(round((region.im_max - region.im_min) * region.grid_density)))
    res = np.linspace(region.re_min, region.re_max, nre)
    ims = np.linspace(region.im_min, region.im_max, nim)
    cell = max(res[1] - res[0], ims[1] - ims[0])
    grid = np.empty((nim, nre), dtype=complex)
    grid.real, grid.imag = res[None, :], ims[:, None]
    mag = np.abs(f(grid))
    # unevaluated (|k| ~ 0) and unrepresentable (nan) points are inf
    mag[np.isnan(mag) | (np.abs(grid) < 1e-6)] = np.inf
    # seeds are the local minima of |1/t| over each point's 3 x 3 window
    seeds = grid[(mag < 1e6) & (mag <= _window_min(mag))]

    def inside(k, _guesses):
        return ((region.re_min - 1e-9 <= k.real) & (k.real <= region.re_max + 1e-9)
                & (region.im_min - 1e-9 <= k.imag) & (k.imag <= region.im_max + 1e-9))

    refined = _refine(f, seeds, np.abs(seeds.real) < 1.5 * cell, inside)
    poles, rejected = [], []
    for seed, (k, r, reason) in zip(seeds.tolist(), refined):
        if reason:
            rejected.append((seed, reason))
            continue
        for idx, (kp, rp, mult) in enumerate(poles):
            if abs(kp - k) < dedup_radius:
                poles[idx] = (kp if rp <= r else k, min(rp, r), mult + 1)
                break
        else:
            poles.append((k, r, 1))

    poles.sort(key=lambda p: (p[0].imag, p[0].real))
    # coarseness heuristic: two refined poles closer than two grid cells apart
    ks = [p[0] for p in poles]
    warnings = [
        f"poles {k1:.6g} and {k2:.6g} are closer than two grid cells; "
        "increase grid_density"
        for k1, k2 in zip(ks, ks[1:]) if abs(k1 - k2) < 2.0 * cell
    ]
    count = _winding_count(f, region) if count_zeros else None
    return PoleReport(poles=poles, region=region, count_check=count, warnings=warnings,
                      rejected=rejected)
