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
from scipy.integrate import solve_ivp

from .errors import AtPoleError, DomainError, NotAScatteringPotential, OverflowGuardError
from .potentials import (
    DEFAULT_CONSTANTS,
    Interfaces,
    PhysicalConstants,
    ScatteringAmplitudes,
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

def _interfaces(form: Interfaces, c):
    """(position, V_left, V_right, delta strength 2*k0) per interface, left to right."""
    g_left, g_right = c.p2 * form.alpha_left, c.p2 * form.alpha_right
    if form.a == 0:
        return [(0.0, form.v1, form.v3, g_left + g_right)]
    return [(-form.a, form.v1, form.v2, g_left), (form.a, form.v2, form.v3, g_right)]


def _wave_matrix(x, kappa):
    """Columns are (psi, psi') of the basis exp(-i kappa x), exp(+i kappa x)."""
    if abs(kappa.imag * x) > _EXP_GUARD:
        raise OverflowGuardError(
            f"exp(|Im k| |x|) not representable at k={kappa}, x={x}"
        )
    em = cmath.exp(-1j * kappa * x)
    ep = cmath.exp(1j * kappa * x)
    return np.array([[em, ep], [-1j * kappa * em, 1j * kappa * ep]], dtype=complex)


def _wave_matrices(x, kappa):
    """_wave_matrix over an array of kappa: shape kappa.shape + (2, 2)."""
    em = np.exp(-1j * kappa * x)
    ep = np.exp(1j * kappa * x)
    return np.stack([np.stack([em, ep], -1),
                     np.stack([-1j * kappa * em, 1j * kappa * ep], -1)], -2)


def _face_wavenumbers(spec, k, c, sqrt):
    """(faces with their left/right wavenumbers, k+) of the transfer problem.

    Each face is (x0, kappa_left, kappa_right, g); ``sqrt`` is cmath.sqrt for
    a scalar k and np.sqrt for an array."""
    p2 = c.p2
    form = normal_form(spec)
    if not isinstance(form, Interfaces):
        raise NotAScatteringPotential(f"{type(spec).__name__} is not piecewise-constant")
    faces = _interfaces(form, c)
    v_in = faces[0][1]
    e = k * k / p2 + v_in  # energy from the incidence side

    def region_k(v):
        # reuse the caller's k wherever the potential matches the incidence
        # side, so the matrix is the analytic continuation in k
        return k if v == v_in else sqrt(p2 * (e - v))

    kappas = [(x0, region_k(v_l), region_k(v_r), g) for x0, v_l, v_r, g in faces]
    return kappas, region_k(faces[-1][2])


def _transfer_matrix(spec, k, c):
    """M with (A_left, B_left) = M (A_right, B_right); also returns (k-, k+)."""
    kappas, k_p = _face_wavenumbers(spec, k, c, cmath.sqrt)
    m = np.eye(2, dtype=complex)
    for x0, k_l, k_r, g in kappas:
        w_l = _wave_matrix(x0, k_l)
        w_r = _wave_matrix(x0, k_r)
        jump = np.array([[1.0, 0.0], [-g, 1.0]], dtype=complex)
        m = m @ np.linalg.solve(w_l, jump @ w_r)
    # each face can scale the entries by exp(|Im kappa x|) twice (and by
    # 1/kappa), so the product overflows long before one exponential does
    if not (cmath.isfinite(m[0, 0]) and cmath.isfinite(m[0, 1])
            and cmath.isfinite(m[1, 0]) and cmath.isfinite(m[1, 1])):
        raise OverflowGuardError(f"transfer matrix product not representable at k={k}")
    return m, k, k_p


def _transfer_amplitude(spec, k, c) -> ScatteringAmplitudes:
    # overflow inside the product is caught by the guard; t itself may
    # overflow to inf next to a pole
    with np.errstate(over="ignore", invalid="ignore"):
        m, k_m, k_p = _transfer_matrix(spec, k, c)
        if m[0, 0] == 0:
            return ScatteringAmplitudes(complex("inf"), None, k_m, k_p)
        t_coeff = 1.0 / m[0, 0]
        r = m[1, 0] / m[0, 0]
        t = t_coeff * cmath.sqrt(k_p) / cmath.sqrt(k_m)
    return ScatteringAmplitudes(t, r, k_m, k_p)


def _transfer_amplitudes(spec, k, c) -> ScatteringAmplitudes:
    """_transfer_amplitude over an array of k as one stack of (..., 2, 2)
    products; nan where the scalar call raises (guard, a singular matrix,
    which includes k = 0)."""
    kappas, k_p = _face_wavenumbers(spec, k, c, np.sqrt)
    bad = np.zeros(k.shape, dtype=bool)
    for x0, k_l, k_r, _g in kappas:
        bad |= (np.abs(k_l.imag * x0) > _EXP_GUARD) | (np.abs(k_r.imag * x0) > _EXP_GUARD)
        bad |= (k_l == 0) | (k_r == 0)  # a singular wave matrix
    m = np.eye(2, dtype=complex)
    for x0, k_l, k_r, g in kappas:
        # bad points get a harmless stand-in and are masked below
        w_l = _wave_matrices(x0, np.where(bad, 1.0, k_l))
        w_r = _wave_matrices(x0, np.where(bad, 1.0, k_r))
        jump = np.array([[1.0, 0.0], [-g, 1.0]], dtype=complex)
        m = m @ np.linalg.solve(w_l, jump @ w_r)
    bad |= ~np.isfinite(m).all(axis=(-2, -1))
    m00 = m[..., 0, 0]
    t = np.where(m00 == 0, complex("inf"), 1.0 / m00 * np.sqrt(k_p) / np.sqrt(k))
    nan = complex("nan")
    return ScatteringAmplitudes(np.where(bad, nan, t), np.where(bad, nan, m[..., 1, 0] / m00),
                                k, k_p)


def transfer_matrix_det_error(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS) -> float:
    """|det M - k_+/k_-|: the flux-conservation surrogate (0 for exact matrices)."""
    with np.errstate(over="ignore", invalid="ignore"):
        m, k_m, k_p = _transfer_matrix(spec, complex(k), c)
    return abs(np.linalg.det(m) - k_p / k_m)


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
    ``qnf1d.potentials.transmission_amplitude`` (inf at a pole, nan where
    the scalar call raises); the transfer matrices are then one stacked
    product, the ODE runs point by point.
    """
    if isinstance(k, np.ndarray):
        k = k.astype(complex)
        if not isinstance(normal_form(spec), Interfaces):
            return _pointwise(lambda z: numeric_amplitude(spec, z, c, **ode_kwargs), k)
        with np.errstate(all="ignore"):
            return _transfer_amplitudes(spec, k, c)
    k = complex(k)
    if k == 0:
        raise DomainError("numeric amplitude requires k != 0")
    if isinstance(normal_form(spec), Interfaces):
        return _transfer_amplitude(spec, k, c)
    return _ode_amplitude(spec, k, c, **ode_kwargs)


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
    if variable == "transmitted":
        # parametrize by the transmitted-side wavenumber instead
        v_minus, v_plus = scattering_limits(spec, c)
        e = v_plus + k * k / c.p2
        km2 = c.p2 * (e - v_minus)
        k_in = cmath.sqrt(km2)
    else:
        k_in = k
    if k_in == 0:
        return complex("inf")
    try:
        amp = amplitude(spec, k_in, c)
    except AtPoleError:
        return 0j
    except (OverflowGuardError, DomainError, OverflowError):
        return complex("nan")
    t = amp.t
    if t == 0:
        return complex("inf")
    if cmath.isinf(abs(t)):
        return 0j
    return 1.0 / t


def _inv_t_array(spec, k, c, amplitude, variable):
    """_inv_t over an array of k with one amplitude call."""
    with np.errstate(all="ignore"):
        if variable == "transmitted":
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
    """Damped Newton on complex f; returns the best iterate seen.

    Multiple roots (the tanh amplitude has double poles) stall at the
    evaluation noise floor, so iterates that stop improving end the search
    rather than being allowed to run off.  With ``on_axis`` the iteration
    runs over the real y of k = i y: the wavenumber square roots put their
    branch cuts exactly on the imaginary axis, so on-axis poles are polished
    with a one-real-parameter iteration that never crosses the cut."""
    if on_axis:
        g, z, tol = (lambda y: f(1j * y)), complex(k0).imag, 1e-13
    else:
        g, z, tol = f, complex(k0), 1e-12
    best_z, best_g = z, abs(g(z))
    if best_g != best_g:
        return None
    stale = 0
    for _ in range(max_iter):
        gz = g(z)
        if gz != gz:
            break
        h = 1e-7 * max(1.0, abs(z))
        dg = (g(z + h) - g(z - h)) / (2.0 * h)
        if dg == 0 or dg != dg:
            break
        step = gz / dg
        cap = 0.5 * (1.0 + abs(z))
        if on_axis:
            step = step.real
            if abs(step) > cap:
                step = math.copysign(cap, step)
        elif abs(step) > cap:
            step *= cap / abs(step)
        z = z - step
        ga = abs(g(z))
        if ga < best_g:
            best_z, best_g = z, ga
            stale = 0
        else:
            stale += 1
            if stale >= 3:
                break
        if abs(step) < tol * max(1.0, abs(z)):
            break
    return 1j * best_z if on_axis else best_z


def _is_isolated_zero(f, k, tol):
    """Accept k as a simple zero of f only if f is not flat around it
    (guards against regions where 1/t merely underflows)."""
    probe = 1e-4 * (1.0 + abs(k))
    vals = [abs(f(k + probe)), abs(f(k + 1j * probe))]
    return max(vals) > 10.0 * max(abs(f(k)), tol * 1e-4)


def _rejection(f, k, inside):
    """Why k is not a certified pole of t (a zero of f = 1/t), or None."""
    if k is None or not inside(k):
        return "the iteration left the search basin"
    res = abs(f(k))
    if not res < _RESIDUAL_TOL:
        return f"refined point k={k} has |1/t|={res:.2e} > {_RESIDUAL_TOL:.0e}"
    if abs(k) < _TRIVIAL_ZERO_TOL:
        return "refinement converged to the trivial zero k = 0"
    if not _is_isolated_zero(f, k, _RESIDUAL_TOL):
        return f"1/t is numerically flat around k={k}; not a certified pole"
    return None


def _refine(f, guess, near_axis, inside):
    """Newton-polish a zero of f from ``guess``; returns (k, |f(k)|).

    Near the imaginary axis a rejected iterate is retried with the on-axis
    iteration.  Raises DomainError naming the reason the last iterate was
    rejected."""
    k = _newton_polish(f, guess)
    reason = _rejection(f, k, inside)
    if reason and near_axis:
        # poles on the imaginary axis sit on the channel-sqrt branch cuts
        k = _newton_polish(f, guess, on_axis=True)
        reason = _rejection(f, k, inside)
    if reason:
        raise DomainError(f"no certified pole from guess {guess}: {reason}")
    return k, abs(f(k))


def refine_pole(spec, guess, c: PhysicalConstants = DEFAULT_CONSTANTS,
                amplitude=None, variable="incident"):
    """Newton-polish a pole of t from ``guess``; returns (k, residual |1/t|).

    Raises DomainError when the iteration escapes the basin
    |k - guess| <= (1 + |guess|) / 2, or its result fails the acceptance
    rule shared with find_poles (residual, trivial zero, flat 1/t).
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    guess = complex(guess)
    f = lambda k: _inv_t(spec, k, c, amplitude, variable)
    radius = 0.5 * (1.0 + abs(guess))
    near_axis = abs(guess.real) < 1e-6 * max(1.0, abs(guess))
    return _refine(f, guess, near_axis, lambda k: abs(k - guess) <= radius)


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
    must accept an ndarray k: the grid (and the ``count_zeros`` boundary)
    is evaluated in one call, refinement with scalar calls.
    ``variable`` chooses the k-plane: incidence side (default) or the
    transmitted side for asymmetric-asymptote potentials.
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    dedup_radius = 1e-6 / length_scale(spec)

    f = lambda k: _inv_t(spec, k, c, amplitude, variable)
    f_grid = lambda k: _inv_t_array(spec, k, c, amplitude, variable)
    nre = max(4, int(round((region.re_max - region.re_min) * region.grid_density)))
    nim = max(4, int(round((region.im_max - region.im_min) * region.grid_density)))
    res = np.linspace(region.re_min, region.re_max, nre)
    ims = np.linspace(region.im_min, region.im_max, nim)
    cell = max(res[1] - res[0], ims[1] - ims[0])
    grid = np.empty((nim, nre), dtype=complex)
    grid.real, grid.imag = res[None, :], ims[:, None]
    mag = np.abs(f_grid(grid))
    # unevaluated (|k| ~ 0) and unrepresentable (nan) points are inf
    mag[np.isnan(mag) | (np.abs(grid) < 1e-6)] = np.inf

    def inside(k):
        return (region.re_min - 1e-9 <= k.real <= region.re_max + 1e-9
                and region.im_min - 1e-9 <= k.imag <= region.im_max + 1e-9)

    poles, rejected = [], []
    for i in range(nim):
        for j in range(nre):
            # seeds are the local minima of |1/t| (unevaluated points are inf)
            m = mag[i, j]
            if not m < 1e6 or m > mag[max(0, i - 1): i + 2, max(0, j - 1): j + 2].min():
                continue
            seed = complex(res[j], ims[i])
            try:
                k, r = _refine(f, seed, abs(seed.real) < 1.5 * cell, inside)
            except DomainError as exc:
                rejected.append((seed, str(exc)))
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
    count = _winding_count(f_grid, region) if count_zeros else None
    return PoleReport(poles=poles, region=region, count_check=count, warnings=warnings,
                      rejected=rejected)
