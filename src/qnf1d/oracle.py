"""Formula-independent scattering engine.

Piecewise-constant and delta potentials get an exact transfer-matrix
amplitude; smooth (Eckart-family) potentials are integrated as an ODE with
exponential-tail-corrected boundary data.  Poles of the transmission
amplitude in the complex k plane (the quasi-normal wavenumbers) are located
by a grid scan plus Newton refinement of g(k) = 1/t(k).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy.integrate import solve_ivp

from .errors import AtPoleError, DomainError, NotAScatteringPotential, OverflowGuardError
from .potentials import (
    DEFAULT_CONSTANTS,
    Interfaces,
    PhysicalConstants,
    ScatteringAmplitudes,
    _first_point,
    _sin_over,
    evaluate,  # noqa: F401  unused here; perfbench's tracer test rebinds this alias
    length_scale,
    normal_form,
    scattering_limits,
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


@dataclass(frozen=True)
class SearchRegion:
    """Rectangle in the complex k plane scanned for amplitude poles."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    grid_density: float = 8.0

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError("empty search region")
        if self.grid_density <= 0:
            raise DomainError("grid_density must be positive")


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

def _wave_matrices(x, kappa):
    """Columns are (psi, psi') of the basis exp(-i kappa x), exp(+i kappa x),
    over an array of kappa: shape kappa.shape + (2, 2)."""
    em = np.exp(-1j * kappa * x)
    ep = np.exp(1j * kappa * x)
    return np.stack([np.stack([em, ep], -1),
                     np.stack([-1j * kappa * em, 1j * kappa * ep], -1)], -2)


def _transfer_matrices(spec, k, c):
    """M with (A_left, B_left) = M (A_right, B_right) over an array of k, as
    one stack of (..., 2, 2) products; also returns k+ and the mask of the
    points where M is not representable (k = 0, an exponential beyond the
    guard, or a non-finite product)."""
    form = normal_form(spec)
    if not isinstance(form, Interfaces):
        raise NotAScatteringPotential(f"{type(spec).__name__} is not piecewise-constant")
    a, e = form.a, k * k / c.p2 + form.v1  # energy from the incidence side
    # reuse the caller's k wherever the level matches the incidence side, so
    # the matrix is the analytic continuation in k
    k_mid, k_p = (k if v == form.v1 else np.sqrt(c.p2 * (e - v)) for v in (form.v2, form.v3))
    bad = k == 0
    for kappa in (k, k_mid, k_p):
        bad |= np.abs(kappa.imag * a) > _EXP_GUARD
    # psi' jumps by g psi at each face; bad points get a harmless stand-in
    # and are masked by the caller
    j_left, j_right = (np.array([[1.0, 0.0], [-c.p2 * alpha, 1.0]], dtype=complex)
                       for alpha in (form.alpha_left, form.alpha_right))
    left = np.linalg.inv(_wave_matrices(-a, np.where(bad, 1.0, k))) @ j_left
    right = j_right @ _wave_matrices(a, k_p)
    # the middle region carries (psi, psi') from x = a to x = -a by
    # P = e I + sin(k_mid d) / k_mid u v^T, d = -2a, u = (1, w), v = (w, 1),
    # with e = exp(-w d) the decaying one of exp(+-i k_mid d): no cancellation
    # where one exponential dominates, nor as k_mid -> 0, where the
    # exponential basis degenerates (a = 0 makes P the identity)
    d = -2.0 * a
    w = np.where((k_mid * d).imag >= 0, -1j, 1j) * k_mid
    lu = left[..., :, 0] + w[..., None] * left[..., :, 1]
    vr = w[..., None] * right[..., 0, :] + right[..., 1, :]
    m = np.exp(-w * d)[..., None, None] * (left @ right) \
        + _sin_over(k_mid, d)[..., None, None] * lu[..., :, None] * vr[..., None, :]
    # each factor can scale the entries by exp(|Im kappa a|), so the product
    # overflows long before one exponential does
    bad |= ~np.isfinite(m).all(axis=(-2, -1))
    return m, k_p, bad


def _transfer_amplitudes(spec, k, c) -> ScatteringAmplitudes:
    """t and r over an array of k; inf at a pole, nan where M is not
    representable."""
    m, k_p, bad = _transfer_matrices(spec, k, c)
    m00 = m[..., 0, 0]
    t = np.where(m00 == 0, complex("inf"), 1.0 / m00 * np.sqrt(k_p) / np.sqrt(k))
    nan = complex("nan")
    return ScatteringAmplitudes(np.where(bad, nan, t), np.where(bad, nan, m[..., 1, 0] / m00),
                                k, k_p)


def transfer_matrix_det_error(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """|det M - k_+/k_-|: the flux-conservation surrogate (0 for exact matrices)."""
    k = np.array([complex(k)])
    with np.errstate(all="ignore"):
        m, k_p, bad = _transfer_matrices(spec, k, c)
    if bad[0]:
        raise OverflowGuardError(f"transfer matrix not representable at k={k[0]}")
    return float(abs(np.linalg.det(m[0]) - k_p[0] / k[0]))


# ---------------------------------------------------------------------------
# ODE integration for smooth potentials
# ---------------------------------------------------------------------------

def _tail_coefficients(red, c, side, order=4):
    """W_j of V - V_inf = sum_j W_j exp(-2 j |x| / a) in units of 1/length^2.

    Uses tanh(u) -/+ 1 = -/+ 2 sum (-1)^(j-1) exp(-/+ 2ju) and
    sech^2(u) = 4 sum (-1)^(j-1) j exp(-/+ 2ju).
    """
    p2 = c.p2
    dv = red.v_plus - red.v_minus
    return [p2 * (-1.0) ** (j - 1) * (4.0 * j * red.v0 - side * dv)
            for j in range(1, order + 1)]


def _tail_eta(ws, k, a):
    """Correction coefficients of psi = e^{-i k u} (1 + sum eta_j e^{-2 j u / a}).

    Here u is the outward coordinate (+x on the right, -x on the left) and ws
    are the tail coefficients of W = p2 (V - V_inf) = sum_j ws_j e^{-2 j u/a}.
    Plugging the ansatz into psi'' + k^2 psi = W psi gives the recursion
    eta_l X_l = ws_l + sum_{j<l} ws_j eta_{l-j} with X_l = 4ikl/a + 4l^2/a^2.
    """
    etas = []
    for ell in range(1, len(ws) + 1):
        x_ell = 4.0j * k * ell / a + 4.0 * ell * ell / (a * a)
        s = ws[ell - 1]
        for j in range(1, ell):
            s += ws[j - 1] * etas[ell - j - 1]
        etas.append(s / x_ell)
    return etas


def _tail_state(etas, k, a, x, side):
    """(psi, psi') of the outgoing tail-corrected solution at coordinate x."""
    # side > 0: psi = e^{-ikx} (1 + sum eta_j e^{-2jx/a}); side < 0 mirrored
    u = -x if side < 0 else x
    phase = cmath.exp(-1j * k * u)
    f = 1.0 + 0j
    fp = 0.0 + 0j  # derivative of the bracket w.r.t. u
    for j, eta in enumerate(etas, start=1):
        e = cmath.exp(-2.0 * j * u / a)
        f += eta * e
        fp += eta * e * (-2.0 * j / a)
    psi = phase * f
    dpsi_du = phase * (-1j * k * f + fp)
    return psi, (dpsi_du if side > 0 else -dpsi_du)


def _ode_amplitude(spec, k, c, L=None, rtol=1e-12, atol=None, tail_order=4) -> ScatteringAmplitudes:
    red = normal_form(spec)
    a, shift = red.a, red.shift
    p2 = c.p2
    k_m = complex(k)
    e = red.v_minus + k_m * k_m / p2
    k_p = k_m if red.v_plus == red.v_minus else cmath.sqrt(p2 * (e - red.v_plus))

    if L is None:
        im = max(abs(k_m.imag), abs(k_p.imag))
        if im * a <= 0.05:
            L = 14.0 * a
        else:
            # balance: extracting the subdominant coefficient loses a factor
            # exp(2 |Im k| L) of precision while the tail-series boundary
            # error falls like exp(-2(order+1) L / a)
            L = a * min(14.0, max(2.0, 8.0 / (im * a)))
    im_scale = max(abs(k_m.imag), abs(k_p.imag)) * 2.0 * L
    if im_scale > _EXP_GUARD:
        raise OverflowGuardError(
            f"|Im k| L = {im_scale / 2:.1f} too large for the ODE oracle"
        )

    ws_p = _tail_coefficients(red, c, +1, tail_order)
    ws_m = _tail_coefficients(red, c, -1, tail_order)
    eta_p = _tail_eta(ws_p, k_p, a)

    # integrate the unshifted reduction; the shift becomes a phase below
    potential = replace(red, shift=0.0).evaluate

    def rhs(x, y):
        # y = (Re psi, Im psi, Re psi', Im psi')
        v = potential(x)
        psi = complex(y[0], y[1])
        dd = p2 * (v - e) * psi
        return [y[2], y[3], dd.real, dd.imag]

    psi0, dpsi0 = _tail_state(eta_p, k_p, a, L, +1)
    y0 = [psi0.real, psi0.imag, dpsi0.real, dpsi0.imag]
    if atol is None:
        atol = 1e-14 * max(1.0, abs(psi0))
    sol = solve_ivp(
        rhs, (L, -L), y0, method="DOP853", rtol=rtol, atol=atol, dense_output=False
    )
    if not sol.success:
        raise OverflowGuardError(f"ODE integration failed: {sol.message}")
    psi = complex(sol.y[0, -1], sol.y[1, -1])
    dpsi = complex(sol.y[2, -1], sol.y[3, -1])

    # tail-corrected left basis: reflected e^{+ikx} = e^{-ik|x|} is the
    # outward state, incident e^{-ikx} is its k -> -k partner
    p_ref, dp_ref = _tail_state(_tail_eta(ws_m, k_m, a), k_m, a, -L, -1)
    p_inc, dp_inc = _tail_state(_tail_eta(ws_m, -k_m, a), -k_m, a, -L, -1)
    det = p_inc * dp_ref - p_ref * dp_inc
    if det == 0:
        raise OverflowGuardError("degenerate left-boundary basis")
    a_coef = (psi * dp_ref - p_ref * dpsi) / det
    b_coef = (p_inc * dpsi - psi * dp_inc) / det
    if a_coef == 0:
        return ScatteringAmplitudes(complex("inf"), None, k_m, k_p)
    t = (1.0 / a_coef) * cmath.sqrt(k_p) / cmath.sqrt(k_m)
    r = b_coef / a_coef
    if shift != 0.0:
        t *= cmath.exp(1j * (k_p - k_m) * shift)
        r *= cmath.exp(-2j * k_m * shift)
    return ScatteringAmplitudes(t, r, k_m, k_p)


def numeric_amplitude(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS, **ode_kwargs) -> ScatteringAmplitudes:
    """Analytic-formula-independent t (and r) at incidence-side wavenumber k.

    Piecewise-constant and delta potentials use exact transfer matrices;
    smooth potentials integrate the stationary equation with tail-corrected
    outgoing boundary data (keyword args L, rtol, atol, tail_order tune it).

    An ndarray k gives arrays under the contract of
    ``qnf1d.potentials.transmission_amplitude`` (inf at a pole, nan where t
    is not representable); the transfer matrices are then one stacked
    product, the ODE runs point by point.  A scalar k is the one-element
    case: t is inf at a pole, and OverflowGuardError is raised where the
    array would be nan.
    """
    piecewise = isinstance(normal_form(spec), Interfaces)
    if isinstance(k, np.ndarray):
        k = k.astype(complex)
        if not piecewise:
            return _pointwise(lambda z: numeric_amplitude(spec, z, c, **ode_kwargs), k)
        with np.errstate(all="ignore"):
            return _transfer_amplitudes(spec, k, c)
    k = complex(k)
    if k == 0:
        raise DomainError("numeric amplitude requires k != 0")
    if not piecewise:
        return _ode_amplitude(spec, k, c, **ode_kwargs)
    with np.errstate(all="ignore"):
        amp = _first_point(_transfer_amplitudes(spec, np.array([k]), c))
    if cmath.isnan(amp.t):
        raise OverflowGuardError(f"transfer matrix not representable at k={k}")
    return amp


def _pointwise(amplitude_at, k):
    """Scalar amplitude calls over an array of k, mapped onto the array
    contract: inf at AtPoleError, nan at any other library error."""
    t = np.empty(k.shape, dtype=complex)
    r = np.full(k.shape, complex("nan"))
    k_p = np.full(k.shape, complex("nan"))
    for i, z in np.ndenumerate(k):
        try:
            amp = amplitude_at(complex(z))
        except AtPoleError:
            t[i] = complex("inf")
        except (OverflowGuardError, DomainError, OverflowError):
            t[i] = complex("nan")
        else:
            t[i], k_p[i] = amp.t, amp.k_plus_inf
            if amp.r is not None:
                r[i] = amp.r
    return ScatteringAmplitudes(t, r, k, k_p)


# ---------------------------------------------------------------------------
# Pole search
# ---------------------------------------------------------------------------

def _inv_t(spec, k, c, amplitude, variable):
    """1/t over an array of k with one amplitude call: 0 at a pole, inf at
    k = 0, nan where t is not representable."""
    with np.errstate(all="ignore"):
        if variable == "transmitted":
            # parametrize by the transmitted-side wavenumber instead
            v_minus, v_plus = scattering_limits(spec, c)
            e = v_plus + k * k / c.p2
            km2 = c.p2 * (e - v_minus)
            k_in = np.sqrt(km2)
        else:
            k_in = k
        t = amplitude(spec, k_in, c).t
        inv = np.where(t == 0, complex("inf"), np.where(np.isinf(np.abs(t)), 0j, 1.0 / t))
    return np.where(k_in == 0, complex("inf"), inv)


def _newton_polish(f, k0, on_axis=False, max_iter=60):
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
    for n in range(max_iter + 1):
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
        done |= np.isnan(gz) | (dg == 0) | np.isnan(dg) | (n == max_iter)
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


def _rejections(f, k, inside):
    """Why each k is not a certified pole of t (a zero of f = 1/t), or None;
    and |f(k)| (nan outside the basin).  One call of f, on the points inside
    the basin, which also probes that f is not flat around them (guards
    against regions where 1/t merely underflows)."""
    res = np.full(k.shape, np.nan)
    flat = np.ones(k.shape, dtype=bool)
    basin = np.array([inside(z) for z in k.tolist()], dtype=bool)
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

    Rejected iterates of the guesses marked ``near_axis`` are retried with the
    on-axis iteration, as a second pass.  ``reason`` is None for a certified
    pole and otherwise names why the last iterate was rejected."""
    k = _newton_polish(f, guesses)
    reasons, res = _rejections(f, k, inside)
    retry = [i for i, reason in enumerate(reasons) if reason and near_axis[i]]
    if retry:
        # poles on the imaginary axis sit on the channel-sqrt branch cuts
        k[retry] = _newton_polish(f, guesses[retry], on_axis=True)
        reasons_ax, res[retry] = _rejections(f, k[retry], inside)
        for i, reason in zip(retry, reasons_ax):
            reasons[i] = reason
    return [(z, r, reason and f"no certified pole from guess {guess}: {reason}")
            for guess, z, r, reason in zip(guesses.tolist(), k.tolist(), res.tolist(), reasons)]


def refine_pole(spec, guess, c: PhysicalConstants = DEFAULT_CONSTANTS,
                amplitude=None, variable="incident"):
    """Newton-polish a pole of t from ``guess``; returns (k, residual |1/t|).

    Raises DomainError when the iteration escapes the basin
    |k - guess| <= (1 + |guess|) / 2, or its result fails the acceptance
    rule shared with find_poles (residual, trivial zero, flat 1/t).
    ``amplitude`` (default: the numeric engine) must accept an ndarray k.
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    guess = complex(guess)
    f = lambda k: _inv_t(spec, k, c, amplitude, variable)
    radius = 0.5 * (1.0 + abs(guess))
    near_axis = abs(guess.real) < 1e-6 * max(1.0, abs(guess))
    [(k, res, reason)] = _refine(f, np.array([guess]), [near_axis],
                                 lambda k: abs(k - guess) <= radius)
    if reason:
        raise DomainError(reason)
    return k, res


def _winding_count(f, region, samples_per_unit=40):
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
        n = max(8, int(abs(z1 - z0) * samples_per_unit))
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


def find_poles(spec, region: SearchRegion, c: PhysicalConstants = DEFAULT_CONSTANTS,
               amplitude=None, variable="incident", count_zeros=False) -> PoleReport:
    """Grid-scan g(k) = 1/t over the region, refine local minima of |g|.

    ``amplitude`` defaults to the numeric engine; pass
    ``qnf1d.potentials.transmission_amplitude`` to hunt poles of the closed
    forms instead (useful for towers beyond the ODE engine's reach).  It
    must accept an ndarray k: the grid, each Newton iteration over all seeds
    and the ``count_zeros`` boundary are one call each.
    ``variable`` chooses the k-plane: incidence side (default) or the
    transmitted side for asymmetric-asymptote potentials.
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    dedup_radius = 1e-6 / length_scale(spec)

    f = lambda k: _inv_t(spec, k, c, amplitude, variable)
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
    window = sliding_window_view(np.pad(mag, 1, constant_values=np.inf), (3, 3))
    seeds = grid[(mag < 1e6) & (mag <= window.min(axis=(-2, -1)))]

    def inside(k):
        return (region.re_min - 1e-9 <= k.real <= region.re_max + 1e-9
                and region.im_min - 1e-9 <= k.imag <= region.im_max + 1e-9)

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
