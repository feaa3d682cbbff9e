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
import inspect
import math
from dataclasses import dataclass, field, replace

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import DomainError, NotAScatteringPotential, OverflowGuardError
from .specfn import _array_first
from .potentials import (
    DEFAULT_CONSTANTS,
    Interfaces,
    PhysicalConstants,
    ScatteringAmplitudes,
    _level_wavenumber,
    _reciprocal,
    _sin_over,
    evaluate,
    length_scale,
    normal_form,
    transmission_amplitude,
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
# a Newton call carries the flatness probes of an iterate whose last step,
# from an improving iterate, was below this times max(1, |z|), the square
# root of the 1e-12 step tolerance: Newton is then quadratic, and the step
# from the iterate is at or near the tolerance
_PROBE_STEP = 1e-6
# boundary points per unit length of the argument-principle count
_WINDING_SAMPLES_PER_UNIT = 40
# most terms of the exponential-tail series in the ODE boundary data: the
# exact Jost solution of an Eckart reduction, whose terms fall like
# e^{-2 L / a}; the series stops earlier, once its terms are below rounding
# (see _tail_eta)
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
# most panels on [-L, L], where the panel series go on to 2 _PANEL_DEGREE
# orders; a point still unresolved on that many is nan
_PANEL_CAP = 4096
# point-panel pairs per series sum, which bounds the memory of a large grid
_PANEL_BLOCK = 512
# a find_poles seed whose two grid slopes agree to this starts from their Newton step
_SLOPE_TOL = 0.1
# spectral QNFs: eigenvalues closer than this in k a (on both sides) form
# one cluster, as the two halves of a split double pole (about 1e-5 apart
# at 10 to 12 nodes) do
_CLUSTER_RADIUS = 1e-3
# ... and a cluster is stable where its mean moves by less than this times
# max(1, |k a|) from n to n + 2 nodes, which discretization ghosts do not
_CLUSTER_AGREE = 1e-6


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
    """Poles found in a region: (k, residual |1/t|, seeds) triples, seeds
    being the number of grid seeds that refined onto k (not a pole order).
    The residual is the |1/t| of the Newton call that evaluated k, or, for
    a k that a mirrored search reports as the mirror -k* of a refined point
    (see ``find_poles``), that of its partner; no amplitude call follows
    the reported iterate.

    ``rejected`` holds a (seed, reason) pair for every grid seed that gave
    no pole: Newton stopped outside the region (see ``find_poles``), or its
    result failed the acceptance rule; the reason names the seed and why."""

    poles: list
    region: SearchRegion
    count_check: int | None = None
    warnings: list = field(default_factory=list)
    rejected: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# Transfer matrices (piecewise-constant + delta potentials)
# ---------------------------------------------------------------------------

def _transfer_matrices(spec, k, c, entries=((0, 0), (0, 1), (1, 0), (1, 1))):
    """The entries m_ij named by the (i, j) pairs ``entries`` (default all
    four, m00 m01 m10 m11) of M = W(-a, k)^-1 J_left P J_right W(a, k+),
    with (A_left, B_left) = M (A_right, B_right), over an array of k, each
    2 x 2 product written out and each row and column formed only for the
    entries asked for; also returns k+ and the mask of the points where M
    is not representable (k = 0 or an exponential beyond the guard).  Each
    factor can scale the entries by exp(|Im kappa a|), so an entry
    overflows long before one exponential does: the caller masks the
    entries it reads that are not finite."""
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
    # exp(-+i k a) / 2; the second only for an entry off m00
    em = 0.5 * np.exp(-1j * k_in * a)
    ep = 0.5 * np.exp(1j * k_in * a) if any(i or j for i, j in entries) else None

    def row(i):  # (l_i0, l_i1) of left = W(-a, k)^-1 J_left
        l1 = -em / (1j * k_in) if i == 0 else ep / (1j * k_in)
        return (em if i == 0 else ep) + l1 * g_left, l1

    def col(j):  # (r_0j, r_1j) of right = J_right W(a, k+)
        # with equal limits k+ is k, whose exponentials are em and ep
        # wherever M is representable
        if j == 0:
            r0 = 2.0 * em if k_p is k else np.exp(-1j * k_p * a)
            return r0, (g_right - 1j * k_p) * r0
        r0 = 2.0 * ep if k_p is k else np.exp(1j * k_p * a)
        return r0, (g_right + 1j * k_p) * r0

    # the middle region carries (psi, psi') from x = a to x = -a by
    # P = e I + sin(k_mid d) / k_mid u v^T, d = -2a, u = (1, w), v = (w, 1),
    # with e = exp(-w d) the decaying one of exp(+-i k_mid d): no cancellation
    # where one exponential dominates, nor as k_mid -> 0, where the
    # exponential basis degenerates (a = 0 makes P the identity)
    d = -2.0 * a
    w = np.where((k_mid * d).imag >= 0, -1j, 1j) * k_mid
    ex, s = np.exp(-w * d), _sin_over(k_mid, d)
    rows, cols = {i: row(i) for i, _ in entries}, {j: col(j) for _, j in entries}
    m = []
    for i, j in entries:
        (l0, l1), (r0, r1) = rows[i], cols[j]
        # e (left right)_ij + (s left u)_i (v^T right)_j
        m.append(ex * (l0 * r0 + l1 * r1) + s * (l0 + w * l1) * (w * r0 + r1))
    return m, k_p, bad


def _flux_inverse(den, k, k_p, bad):
    """1/t = den sqrt(k) / sqrt(k+) over an array of k, from the incident
    coefficient den of the solution with unit outgoing wave (m00 of the
    transfer matrix, A of the ODE): 0 at a pole, nan at the ``bad`` points
    and where den is not finite, inf in both parts where 1/t overflows
    (t = 0 at k+ = 0)."""
    inv = den if k_p is k else den * np.sqrt(k) / np.sqrt(k_p)
    return np.where(bad | ~np.isfinite(den), complex("nan"),
                    np.where(np.isinf(inv), complex("inf"), inv))


def transfer_matrix_det_error(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """|det M - k_+/k_-|: the flux-conservation surrogate (0 for exact matrices),
    with det M = m00 m11 - m01 m10 from M's entries."""

    def det_error(k):
        with np.errstate(all="ignore"):
            (m00, m01, m10, m11), k_p, bad = _transfer_matrices(spec, k, c)
            for entry in (m00, m01, m10, m11):
                bad |= ~np.isfinite(entry)
            return np.where(bad, np.nan, np.abs(m00 * m11 - m01 * m10 - k_p / k))

    def fault(err):
        if not math.isnan(err):
            return err
        raise OverflowGuardError(f"transfer matrix or det M not representable at k={complex(k)}")

    return _array_first(det_error, k, fault=fault)


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


def _tail_eta(ws, k, a, L):
    """Correction coefficients of psi = e^{-i k u} (1 + sum eta_j e^{-2 j u / a}),
    over an array of k: shape k.shape + (m,), for tail coefficients ws of
    shape k.shape[:-1] + (n,) (one row of ws per row of k), m <= n.

    Here u is the outward coordinate (+x on the right, -x on the left) and ws
    are the tail coefficients of W = p2 (V - V_inf) = sum_j ws_j e^{-2 j u/a}.
    Plugging the ansatz into psi'' + k^2 psi = W psi gives the recursion
    eta_l X_l = ws_l + sum_{j<l} ws_j eta_{l-j} with X_l = 4ikl/a + 4l^2/a^2.
    Each eta_l is one contraction over the eta before it, so a point's eta
    do not depend on the other points.

    The series is evaluated at u = L, where the bracket is 1 plus the terms
    eta_l e^{-2 l L / a}: the recursion stops at the first two consecutive
    orders whose terms are below 2^-60 at every point, far below the
    bracket's rounding, and at the n orders of ws at most.
    """
    n = ws.shape[-1]
    ell = np.arange(1, n + 1)
    # X_l as one contiguous row per order: shape (n,) + k.shape
    col = ell.reshape((n,) + (1,) * k.ndim)
    x = 4.0j * k * col / a + 4.0 * col * col / (a * a)
    # |eta_l| below this puts the term of order l below 2^-60
    small = (2.0 ** -60 * np.exp(2.0 * ell * L / a)).tolist()
    rev = ws[..., ::-1, None].astype(complex)
    etas = np.empty(k.shape + (n,), dtype=complex)
    quiet = 0
    for i in range(n):
        eta = (etas[..., :i] @ rev[..., n - i:, :])[..., 0]
        eta += ws[..., i, None]
        eta /= x[i]
        etas[..., i] = eta
        quiet = quiet + 1 if np.abs(eta).max(initial=0.0) < small[i] else 0
        if quiet == 2:
            return etas[..., :i + 1]
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
    arrays = (t, cheb.chebvander(t, n - 1), cheb.chebvander(t, n + 1) @ twice,
              once.sum(0), twice.sum(0))
    for arr in arrays:
        arr.flags.writeable = False  # shared by every call
    return arrays


@functools.lru_cache(maxsize=64)
def _panel_geometry(red, p2, L, panels, degree):
    """Every energy-free part of a propagator pass of ``red`` over ``panels``
    equal panels of [-L, L], built once per (reduction, p2, L, panels), its
    arrays read-only: each panel's centre energy p2 e0, e0 the mean of V at
    its Chebyshev points; the bound on |lambda| = p2 |E - e0| within which
    the series below is summed to rounding; and its orders, shape (orders,
    panels (2 degree + 4)): per panel the (degree, 2) Chebyshev coefficients
    of sigma = psi'' of both solutions, then the 2 x 2 propagator, each in C
    order.

    On a panel from x0 the integral equation of _propagate is the linear
    system (A - lambda J^2) c = R - lambda B, with A = vander + q0 J^2,
    R = q0 B, q0 = p2 (V - e0) and B the basis 1, x - x0: its solution is
    the power series c = sum_m lambda^m c_m, c_0 = A^-1 R,
    c_1 = A^-1 (J^2 c_0 - B), c_m = A^-1 J^2 c_(m-1), from one inverse of
    A per panel (the first four orders refined once against A), and the
    end values of c_m are the propagator's order m.  Centring each panel
    on its own mean keeps q0 small where V is flat, so that the sum does
    not cancel there.  _integrate's panel rule bounds |lambda| by
    (panels _PANEL_REACH / 2L)^2, that is |lambda| h^2 <= 1 with h = d / 2,
    where the orders, sized with c_m scaled by h^2 (h for the second
    solution) against the propagator's identity, fall faster than
    geometrically: the series keeps them up to and including the first two
    consecutive ones below 2^-60 there, far below the rounding of the
    identity (the rule of _tail_eta), 16 orders.  The bound is that,
    or lower if 2 ``degree`` orders do not reach 2^-60 there.  On
    _PANEL_CAP panels, where no pass with more panels follows, the series
    always runs to 2 ``degree`` orders, and its bound is the largest
    |lambda| at which the last two are below 2^-60, so that a point beyond
    the first bound is summed there too.  An entry holds 36 floats per
    order and panel (degree 16): with 16 orders 4.6 kB per panel, 41 kB at
    9 panels, 9.4 MB at 2048; 38 MB on _PANEL_CAP panels, with 32 orders.
    This cache keeps 64 entries and _cap_geometry, which serves the
    _PANEL_CAP passes, 2: with 16 orders below the cap that is at most
    0.7 GB."""
    t, vander, j2, end1, end2 = _chebyshev_panel(degree)
    d = -2.0 * L / panels
    h = 0.5 * d
    v = red.evaluate(L + d * (np.arange(panels)[:, None] + 0.5 * (t + 1.0)))
    e0 = p2 * v.mean(axis=1)
    q0 = p2 * v - e0[:, None]
    j2 = -h * h * j2
    basis = np.stack([np.ones_like(t), h * (t + 1.0)], axis=-1)
    mat = q0[..., None] * j2 + vander
    inv = np.linalg.inv(mat)
    step = inv @ j2

    def refined(rhs):  # A^-1 rhs, with one step of iterative refinement
        x = inv @ rhs
        return x + inv @ (rhs - mat @ x)

    coefs = [refined(q0[..., None] * basis)]
    coefs.append(refined(j2 @ coefs[0] - basis))
    # each order's size against the propagator's identity: h^2 sigma (h sigma
    # for the second solution)
    scale = np.array([h * h, abs(h)])
    sizes = [np.abs(c * scale).max() for c in coefs]
    bound = (panels * _PANEL_REACH / (2.0 * L)) ** 2
    tiny = 2.0 ** -60
    # no pass follows one on _PANEL_CAP panels: there the series goes on to
    # 2 degree orders, and its bound with them
    while panels >= _PANEL_CAP or max(sizes[-2] * bound ** (len(sizes) - 2),
                                      sizes[-1] * bound ** (len(sizes) - 1)) >= tiny:
        if len(coefs) == 2 * degree:
            # the largest |lambda| at which the last two orders are below 2^-60
            bound = min((tiny / sizes[m]) ** (1.0 / m) for m in (len(sizes) - 2, len(sizes) - 1))
            break
        # the first four orders' terms at the bound are about 1, 1, 0.3 and
        # 0.03 (the identity is 1): the later ones are below 1 % of the sum,
        # and so is their rounding without refinement
        coefs.append(refined(j2 @ coefs[-1]) if len(coefs) < 4 else step @ coefs[-1])
        sizes.append(np.abs(coefs[-1] * scale).max())
    coefs = np.stack(coefs)
    # each panel's propagator [[1 + u1, d + u2], [du1, 1 + du2]] from J^2
    # sigma (u) and J sigma (du) at its end, for both solutions, by order
    props = np.stack([h * h * (end2 @ coefs), h * (end1 @ coefs)], axis=-2)
    props[0, :, 0] += (1.0, d)
    props[0, :, 1, 1] += 1.0
    # per order, each panel's 2 degree coefficients and then its 4 entries
    orders = np.concatenate([coefs.reshape(coefs.shape[:2] + (-1,)),
                             props.reshape(props.shape[:2] + (4,))], axis=-1)
    orders = orders.reshape(orders.shape[0], -1)
    for arr in (e0, orders):
        arr.flags.writeable = False  # shared by every call
    return e0, bound, orders


# an entry on _PANEL_CAP panels holds 38 MB: a cache of its own keeps two
_cap_geometry = functools.lru_cache(maxsize=2)(_panel_geometry.__wrapped__)


def _horner(orders, lam):
    """sum_m lam^m orders[m] over the leading axis of ``orders``, elementwise,
    so that a point's bits do not depend on the others."""
    acc = orders[-1] * lam
    acc += orders[-2]
    for order in orders[-3::-1]:
        acc *= lam
        acc += order
    return acc


def _propagate(red, p2, e, psi0, dpsi0, L, panels, rtol):
    """One propagator pass: (psi, psi') at x = -L of the solutions started
    at x = L, one per energy in the array e, over ``panels`` equal panels,
    and the mask of the points whose every panel is resolved to ``rtol``.

    On a panel from x0, psi'' = q psi (q = p2 (V - E)) is the integral
    equation sigma = q (psi(x0) + psi'(x0) (x - x0) + J^2 sigma) for
    sigma = psi''.  The Chebyshev coefficients of sigma for the two
    fundamental solutions, and their end values, the panel's 2 x 2
    propagator, are power series in lambda = p2 (E - e0) built once per
    panel (see _panel_geometry): a pass sums them by Horner's rule,
    elementwise over every point and panel at once, in blocks of at most
    ``_PANEL_BLOCK`` point-panel pairs.  A point is resolved when every
    |lambda| of it is within the series' bound and the three trailing
    coefficients of its sigma stay below rtol times its largest one."""
    geometry = _cap_geometry if panels >= _PANEL_CAP else _panel_geometry
    e0, bound, orders = geometry(red, p2, L, panels, _PANEL_DEGREE)
    lam = p2 * e[:, None] - e0
    inside = np.abs(lam).max(axis=1) <= bound
    lam[~inside] = 0.0  # a point outside the bound is summed at lambda = 0, unresolved
    width = orders.shape[1] // panels
    psi, dpsi = np.empty_like(psi0), np.empty_like(dpsi0)
    resolved = np.empty(e.shape, dtype=bool)
    # points per block, so that a large grid does not grow the sums
    block = max(1, _PANEL_BLOCK // panels)
    for lo in range(0, e.size, block):
        sl = slice(lo, lo + block)
        sums = _horner(orders, np.repeat(lam[sl], width, axis=1)).reshape(-1, panels, width)
        # the coefficients of both solutions, the last 6 of them the three trailing ones
        mag = np.abs(sums[..., :-4])
        resolved[sl] = mag[..., -6:].max(axis=(1, 2)) <= rtol * mag.max(axis=(1, 2))
        prop = sums[..., -4:].reshape(sums.shape[:2] + (2, 2))
        # one product and one sum per panel: a stacked matmul would round
        # differently, as BLAS fuses the multiply-adds of real systems
        state = np.stack([psi0[sl], dpsi0[sl]], axis=-1)
        for s in range(panels):
            terms = prop[:, s] * state[:, None, :]
            state = terms[..., 0] + terms[..., 1]
        psi[sl], dpsi[sl] = state[:, 0], state[:, 1]
    return psi, dpsi, inside & resolved & np.isfinite(psi) & np.isfinite(dpsi)


def _integrate(red, p2, e, psi0, dpsi0, L, rtol):
    """(psi, psi') at x = -L of the solutions of psi'' = p2 (V - E) psi started
    at x = L, one per energy in the array e, by Chebyshev panel propagators.

    The panels start at most a/3 wide (``_PANEL_WIDTH``) and narrow enough
    for the largest local wavenumber of the batch, which keeps every
    |lambda| within the bound of the panel series (see _panel_geometry);
    the points not resolved (see _propagate: beyond that bound, as on
    _PANEL_CAP panels an energy can be, or short of ``rtol``) are solved
    again on twice as many panels, up to ``_PANEL_CAP``, where the series
    go on to more orders, and a point still unresolved there is nan.  Where
    every energy is real, the panel sums are real."""
    mid, slope = 0.5 * (red.v_minus + red.v_plus), 0.5 * abs(red.v_plus - red.v_minus)
    # sup |V - E| over real x bounds the local wavenumber
    kappa = math.sqrt(p2 * (np.abs(e - mid).max(initial=0.0) + slope + abs(red.v0)))
    per_length = max(1.0 / (_PANEL_WIDTH * red.a), kappa / _PANEL_REACH)
    panels = math.ceil(min(_PANEL_CAP, 2.0 * L * per_length))  # per_length may be inf
    if not e.imag.any():
        e = e.real  # real energies make real panel sums
    psi = np.full(e.shape, complex("nan"))
    dpsi = psi.copy()
    todo = np.arange(e.size)
    while todo.size and panels <= _PANEL_CAP:
        p, dp, ok = _propagate(red, p2, e[todo], psi0[todo], dpsi0[todo], L, panels, rtol)
        psi[todo[ok]], dpsi[todo[ok]] = p[ok], dp[ok]
        todo = todo[~ok]
        panels *= 2
    return psi, dpsi


@functools.lru_cache(maxsize=64)
def _unshifted(red):
    """The reduction red with shift 0, built once per reduction."""
    return replace(red, shift=0.0)


def _ode_solution(red, k, c, L=None, rtol=1e-12):
    """(A, B, k+, bad) of the Eckart reduction ``red`` over an array of k,
    with one integration over [-L, L] (default 1.5 a): the solution whose
    transmitted wave is flux-normalized to t = 1 is A times the incident
    wave plus B times the reflected one, so t = sqrt(k+) / (A sqrt(k)) and
    r = B / A (see _flux_inverse); ``bad`` marks k = 0 and the points where
    they are not representable or the propagators do not resolve."""
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
    psi_u, dpsi_u = _tail_state(_tail_eta(_tail_coefficients(red, c, sides), kk, a, L), kk, a, L)
    (psi0, p_ref, p_inc), (dpsi0, dp_ref, dp_inc) = (
        z.reshape((3,) + k.shape) for z in (psi_u, sides * dpsi_u))

    # integrate the unshifted reduction; the shift becomes a phase below.  A
    # start state that is not finite (the tail recursion divides by 0 on the
    # lattice k = +-i l / a) is not integrated: no panel count resolves it
    psi = np.full(k.shape, complex("nan"))
    dpsi = psi.copy()
    ok = ~bad & np.isfinite(psi0) & np.isfinite(dpsi0)
    if ok.any():
        psi[ok], dpsi[ok] = _integrate(_unshifted(red), p2, e[ok], psi0[ok], dpsi0[ok],
                                       L, rtol)

    det = p_inc * dp_ref - p_ref * dp_inc
    a_coef = (psi * dp_ref - p_ref * dpsi) / det
    b_coef = (p_inc * dpsi - psi * dp_inc) / det
    if shift != 0.0:
        # t gains e^{i (k+ - k) shift} and r e^{-2 i k shift}
        phase = np.exp(1j * (k_p - k) * shift)
        bad |= ~np.isfinite(phase)
        a_coef, b_coef = a_coef / phase, b_coef * np.exp(-2j * k * shift) / phase
    bad |= (det == 0) | ~np.isfinite(psi) | ~np.isfinite(dpsi)
    return a_coef, b_coef, k_p, bad


def numeric_amplitude(spec, k, c: PhysicalConstants = DEFAULT_CONSTANTS, L=None,
                      rtol=1e-12) -> ScatteringAmplitudes:
    """Analytic-formula-independent t (and r) at incidence-side wavenumber k.

    Piecewise-constant and delta potentials use exact transfer matrices;
    smooth potentials integrate the stationary equation over [-L, L] with
    outgoing boundary data from the Jost tail series; the default is
    L = 1.5 a for every k.  The series stops at the first two consecutive
    orders whose terms at |x| = L are below 2^-60 at every point (mostly
    after 14 to 16 orders at L = 1.5 a, 8 or 9 at 3 a), and at
    ``_TAIL_ORDER`` (32) orders at most.  The ODE is solved by Chebyshev
    panel propagators (see _integrate), each a power series in the energy
    that is built once per panel and summed at every energy of the call
    (see _propagate), in real arithmetic where every energy is real (real
    or imaginary k); ``rtol`` bounds the three trailing Chebyshev
    coefficients of each point's psi'' on every panel, relative to its
    largest one.  The transfer matrices ignore L and rtol.

    t is the reciprocal of the engine's 1/t, m00 sqrt(k) / sqrt(k+) of the
    transfer matrix or A sqrt(k) / sqrt(k+) of the ODE (see _flux_inverse),
    which the pole search reads directly (see _numeric_inverse); r is m10 /
    m00 or B / A.
    """

    def amplitudes(k):
        with np.errstate(all="ignore"):
            inv, den, num, k_p, bad = _numeric_inverse(spec, k, c, L, rtol, reflected=True)
            r = np.where(bad | (den == 0) | ~np.isfinite(den) | ~np.isfinite(num),
                         complex("nan"), num / den)
            return _reciprocal(inv, k), r, k, k_p

    def fault(amp):
        t, _, k, _ = amp
        if k == 0:
            raise DomainError("numeric amplitude requires k != 0")
        if cmath.isnan(t):
            raise OverflowGuardError(f"numeric amplitude not representable at k={k} "
                                     "(an overflow guard or an unresolved integration)")
        return amp

    return ScatteringAmplitudes(*_array_first(amplitudes, k, fault=fault))


def _numeric_inverse(spec, k, c, L=None, rtol=1e-12, reflected=False):
    """(1/t, den, num, k+, bad) over an array of k: 1/t (see _flux_inverse)
    from the incident and reflected coefficients den and num of the solution
    with unit outgoing wave, m00 and m10 of the transfer matrix (m10 only
    when ``reflected``, else None) or A and B of the ODE."""
    form = normal_form(spec)
    if isinstance(form, Interfaces):
        m, k_p, bad = _transfer_matrices(spec, k, c, ((0, 0), (1, 0))[:1 + reflected])
        den, num = m[0], m[1] if reflected else None
    else:
        den, num, k_p, bad = _ode_solution(form, k, c, L, rtol)
    return _flux_inverse(den, k, k_p, bad), den, num, k_p, bad


# ---------------------------------------------------------------------------
# Spectral QNFs for smooth potentials
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _collocation(n):
    """The n Chebyshev points z of the first kind on [-1, 1] and the
    matrices taking a polynomial's values there to those of its first and
    second derivatives, read-only."""
    z, vander = _chebyshev_panel(n)[:2]
    eye = np.eye(n)
    d1 = cheb.chebvander(z, n - 2) @ cheb.chebder(eye, axis=0)
    d2 = cheb.chebvander(z, n - 3) @ cheb.chebder(eye, m=2, axis=0)
    # d @ vander^-1, from values to coefficients to derivatives
    d1, d2 = (np.linalg.solve(vander.T, d.T).T for d in (d1, d2))
    for arr in (d1, d2):
        arr.flags.writeable = False  # shared by every call
    return z, d1, d2


def _collocated(spec, c, n):
    """The QNF problem of a smooth spec collocated on n nodes, as the
    polynomial sum_j x^j M_j, whose leading M_j is a scalar times the
    identity: the list of M_j and the map from an array of eigenvalues x to
    their (k-, k+) pairs, one row each (see _spectral_qnfs)."""
    form = normal_form(spec)
    a, p2 = form.a, c.p2
    v_minus, v_plus = form.limits
    dv = v_plus - v_minus
    z, d1, d2 = _collocation(n)
    # a^2 p2 W, where W = (V - V- - dv (1 + z)^2 / 4) / (1 - z^2) stays finite at z = +-1
    v = evaluate(spec, form.shift + a * np.arctanh(z))
    w_pot = a * a * p2 * (v - v_minus - 0.25 * dv * (1.0 + z) ** 2) / (1.0 - z * z)
    base = (1.0 - z * z)[:, None] * d2 - 2.0 * z[:, None] * d1
    base[np.diag_indices(n)] -= w_pot
    zd1 = z[:, None] * d1
    eye = np.eye(n)
    if dv == 0.0:
        # quadratic in alpha = i a k / 2
        coefs = [base, -4.0 * zd1 - 2.0 * eye, -4.0 * eye]
        scale, sign = -2.0 / a, 0.0
    else:
        # cubic in u, with k+- = i (2 g / a)(u +- sigma / u), g = a sqrt(|p2 dv|) / 4
        # and sigma = sign(dv): real coefficients, and each (k-, k+) on its own sheet
        sign = math.copysign(1.0, dv)
        g = 0.25 * a * math.sqrt(abs(p2 * dv))
        coefs = [4.0 * sign * g * d1, base + 4.0 * sign * g * g * eye,
                 g * (4.0 * zd1 + 2.0 * eye), -4.0 * g * g * eye]
        scale = 2.0 * g / a

    def pairs(x):
        with np.errstate(all="ignore"):
            inv = sign / x  # x = 0 (unequal limits) is k at infinity
            return np.stack([1j * scale * (x - inv), 1j * scale * (x + inv)], axis=-1)

    return coefs, pairs


def _newton_step(coefs, x, vec):
    """One Newton step for the eigenpairs (x, v) of sum_j x^j M_j, v the
    columns of vec, on the bordered system [[P(x), P'(x) v], [v^H, 0]],
    which stays regular at a simple eigenvalue: the new x, or the old one
    where the system is singular."""
    n = vec.shape[0]
    v = (vec / np.linalg.norm(vec, axis=0)).T[..., None]
    xs = x[:, None, None]
    p = sum(xs ** j * m for j, m in enumerate(coefs))
    dp = sum(j * xs ** (j - 1) * m for j, m in enumerate(coefs) if j)
    jac = np.zeros((x.size, n + 1, n + 1), dtype=complex)
    jac[:, :n, :n] = p
    jac[:, :n, n:] = dp @ v
    jac[:, n:, :n] = v.conj().transpose(0, 2, 1)
    rhs = np.zeros((x.size, n + 1, 1), dtype=complex)
    rhs[:, :n] = -(p @ v)
    try:
        step = np.linalg.solve(jac, rhs)[:, n, 0]
    except np.linalg.LinAlgError:
        return x
    return np.where(np.isfinite(step), x + step, x)


def _spectral_clusters(spec, c, n, polish=False):
    """The eigenvalue clusters of the QNF problem on n nodes (see
    _spectral_qnfs): the (k-, k+) mean and the size of each, without the
    trivial zero k+ = 0 and the eigenvalues at infinity.  With ``polish``,
    a cluster of one eigenvalue takes one Newton step on the collocated
    polynomial itself (see _newton_step), unless that moves it by more than
    the stability tolerance: the companion matrix rounds the eigenvalue
    worse than the polynomial does.  A split double pole keeps its mean."""
    a = normal_form(spec).a
    coefs, pairs = _collocated(spec, c, n)
    degree = len(coefs) - 1
    # the block companion matrix, with eigenvectors (v, x v, ...) for polish
    comp = np.zeros((degree * n, degree * n))
    comp[:-n, n:] = np.eye((degree - 1) * n)
    comp[-n:] = np.hstack(coefs[:-1]) / -coefs[-1][0, 0]
    x, vec = np.linalg.eig(comp) if polish else (np.linalg.eigvals(comp), None)
    k = pairs(x)
    keep = np.isfinite(k).all(axis=1) & (np.abs(k[:, 1]) * a >= 1e-6)
    x, k = x[keep], k[keep]
    # single linkage within _CLUSTER_RADIUS, each cluster labeled by its first member
    diff = k[:, None] - k[None]
    near = (np.hypot(diff.real, diff.imag).max(axis=-1) * a < _CLUSTER_RADIUS) * 1.0
    while (near.sum(axis=1) > 2).any():  # the transitive closure of chains, by squaring
        grown = (near @ near > 0) * 1.0
        if (grown == near).all():
            break
        near = grown
    first, label = np.unique(near.argmax(axis=1), return_inverse=True)
    size = np.bincount(label, minlength=first.size)
    if polish:
        lone = size[label] == 1
        new = pairs(_newton_step(coefs, x[lone], vec[:n, keep][:, lone]))
        move = np.abs(new - k[lone]).max(axis=1, initial=0.0)
        ok = np.isfinite(move) & (move * a < _CLUSTER_AGREE * np.maximum(
            1.0, np.abs(k[lone, 1]) * a))
        k[np.flatnonzero(lone)[ok]] = new[ok]
    mean = np.stack([np.bincount(label, col.real, first.size)
                     + 1j * np.bincount(label, col.imag, first.size) for col in k.T], axis=-1)
    return mean / size[:, None], size


def _spectral_qnfs(spec, c: PhysicalConstants = DEFAULT_CONSTANTS, n=10):
    """The QNFs of a smooth (Eckart-family) spec as eigenvalues, with no
    seed, grid or sheet choice: (k-, k+, size) arrays of the eigenvalue
    clusters that are stable between n and n + 2 Chebyshev nodes, each at
    its mean on n nodes, k+ a wavenumber of the normal form's qnf_level.

    With z = tanh((x - shift) / a) and psi = (1 - z)^(alpha+) (1 + z)^(alpha-) f,
    alpha+- = i a k+- / 2 (outgoing, QNFs at Im k > 0), k is a QNF where f
    is analytic on [-1, 1].  The equation for f,
    (1 - z^2) f'' + c1 f' + c0 f = 0, with
    c1 = 2 (alpha- (1 - z) - alpha+ (1 + z)) - 2 z and
    c0 = -alpha+ - alpha- - 2 alpha- (alpha- + alpha+) - a^2 p2 W,
    W = (V - V- - (V+ - V-) (1 + z)^2 / 4) / (1 - z^2), is collocated on n
    first-kind Chebyshev nodes (which exclude z = +-1); V enters only
    through evaluate(spec, x) there and the normal form's limits, a and
    shift.  With equal limits the collocated problem is quadratic in alpha;
    otherwise it is cubic in the uniformizing variable u of
    k+- = i (sqrt(|p2 (V+ - V-)|) / 2) (u +- sigma / u), sigma the sign of
    V+ - V-, so every (k-, k+) comes on its own sheet with no square root.
    Either is one real companion eigenproblem (2n or 3n), solved by
    numpy.linalg (A. Jansen, Eur. Phys. J. Plus 132, 546 (2017);
    L. N. Trefethen, Spectral Methods in MATLAB, SIAM (2000)).

    An eigenvalue is a member of the closed-form tower, live or cancelled:
    it cannot tell a pole of t from a cancelled member.  A double pole (a
    tanh member) is a defective eigenvalue that splits in two about 1e-5
    apart, whose mean stays accurate, so the eigenvalues cluster within
    _CLUSTER_RADIUS and the clusters, not single eigenvalues, are compared
    between the two resolutions: discretization ghosts move, members do
    not.  On n nodes a single eigenvalue is polished (see
    _spectral_clusters).  The trivial zero k+ = 0 and the eigenvalues at
    infinity are dropped.  The error grows with n and with
    p2 |V+ - V-| a^2."""
    a = normal_form(spec).a
    mean, size = _spectral_clusters(spec, c, n, polish=True)
    finer, _ = _spectral_clusters(spec, c, n + 2)
    diff = mean[:, None] - finer[None]
    moved = np.hypot(diff.real, diff.imag).max(axis=-1).min(axis=1, initial=math.inf)
    stable = moved * a < _CLUSTER_AGREE * np.maximum(1.0, np.abs(mean[:, 1]) * a)
    return mean[stable, 0], mean[stable, 1], size[stable]


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
    ``qnf_level``) with one engine call: 0 at a pole, inf at k = 0, nan
    where t is not representable.

    The two library engines, numeric_amplitude and transmission_amplitude,
    are called through their 1/t (``_INVERSES``), which they build t from;
    a wrapper that names an engine in ``__wrapped__`` (functools.wraps)
    counts as that engine.  Any other callable is called for t, and 1/t is
    taken here."""
    form = normal_form(spec)
    level, v_in = form.qnf_level, form.limits[0]
    with np.errstate(all="ignore"):
        k_in = k if level == v_in else _level_wavenumber(k, level + k * k / c.p2, level, v_in,
                                                         c.p2)
        inverse = _INVERSES.get(inspect.unwrap(amplitude))
        if inverse is not None:
            inv = inverse(spec, k_in, c)
        else:
            t = amplitude(spec, k_in, c).t
            inv = np.where(t == 0, complex("inf"), np.where(np.isinf(np.abs(t)), 0j, 1.0 / t))
    return np.where(k_in == 0, complex("inf"), inv)


# each library engine's 1/t over an array of incidence k (0 at a pole, nan
# where t is not representable), which the pole search calls in its place
_INVERSES = {numeric_amplitude: lambda spec, k, c: _numeric_inverse(spec, k, c)[0],
             transmission_amplitude: lambda spec, k, c: normal_form(spec).inverse_t(k, c.p2)[0]}


def _probes(k):
    """The two flatness probes k + p and k + i p, p = 1e-4 (1 + |k|), of every
    point in the array k, stacked."""
    p = 1e-4 * (1.0 + np.abs(k))
    return np.concatenate([k + p, k + 1j * p])


def _newton_polish(f, k0, beyond, on_axis=False):
    """Damped Newton on complex f from every seed in the array k0 at once;
    returns per seed the reported iterate (nan where none in its basin had
    a finite f), |f| there, |f| at its two flatness probes (see _probes;
    shape (2, seeds), nan where that iterate's call carried none) and the
    iterate outside its basin where it stopped (else nan).

    Each iteration makes one call of f, on the stacked (z, z + h, z - h) of
    the seeds still iterating.  A seed stops as soon as the step from its
    current iterate is below the step tolerance, and reports that iterate:
    no call follows it.  Multiple roots (the tanh amplitude has double
    poles) stall at the evaluation noise floor, so a seed whose iterates stop
    improving three times ends its search rather than being allowed to run
    off, and reports the best iterate it saw, as does a seed stopped by a nan
    or by ``_NEWTON_MAX_ITER``.  The probes ride in the call of an iterate
    whose last step was below ``_PROBE_STEP`` and was taken from an iterate
    that improved on the best before it: Newton is then in its quadratic
    range, and the step from the new iterate is at or near the tolerance.
    A stalled seed (one on a branch cut, or at its noise floor) carries no
    probes after its first non-improving iterate.
    ``beyond(k, k0)`` > 0 is how far the iterates k lie outside the basin
    of their seeds k0.  An iterate outside that improves on the best (as a
    first iterate does) stops its seed unless its step halves that
    distance, which Newton bound for a zero outside does not; the reported
    iterate is the best one inside.
    With ``on_axis`` the iteration runs over the real y of k = i y: the
    wavenumber square roots put their branch cuts exactly on the imaginary
    axis, so on-axis poles are polished with a one-real-parameter iteration
    that never crosses the cut."""
    if on_axis:
        z, tol, to_k = k0.imag.copy(), 1e-13, (lambda y: 1j * y)
    else:
        z, tol, to_k = k0.astype(complex), 1e-12, (lambda k: k)
    best_z, best_g = z.copy(), np.full(z.shape, np.nan)
    best_p = np.full((2,) + z.shape, np.nan)
    stale = np.zeros(z.shape, dtype=int)
    # the last step was below _PROBE_STEP, from an improving iterate
    near = np.zeros(z.shape, dtype=bool)
    far = beyond(to_k(z), k0)
    live = np.arange(z.size)
    for n in range(_NEWTON_MAX_ITER + 1):
        if not live.size:
            break
        zl, probed, dist = z[live], near[live], far[live]
        out = dist > 0
        m, az = zl.size, np.abs(zl)
        scale = np.maximum(1.0, az)
        h = 1e-7 * scale
        pts = [to_k(zl), to_k(zl + h), to_k(zl - h)]
        any_probed = probed.any()
        if any_probed:
            pts.append(_probes(to_k(zl[probed])))
        vals = f(np.concatenate(pts))
        gz, gp, gm = vals[:3 * m].reshape(3, -1)
        cap = 0.5 * (1.0 + az)
        with np.errstate(all="ignore"):
            s = gz / ((gp - gm) / (2.0 * h))
            if on_axis:
                s = np.clip(s.real, -cap, cap)
            else:
                s = s * (cap / np.maximum(np.abs(s), cap))
        size = np.abs(s)
        converged = size < tol * scale
        ga = np.abs(gz)
        if n == 0:
            better = np.ones(m, dtype=bool)
        else:
            # gz is f at the last step's iterate
            better = ga < best_g[live]
            stale[live] = np.where(better, 0, stale[live] + 1)
        keep = (better | converged) & ~out
        kept = live[keep]
        best_z[kept], best_g[kept], best_p[:, kept] = zl[keep], ga[keep], np.nan
        if any_probed:
            best_p[:, live[keep & probed]] = np.abs(vals[3 * m:]).reshape(2, -1)[:, keep[probed]]
        nxt = beyond(to_k(zl - s), k0[live])
        # a nan gz, a zero or nan slope give a non-finite step
        done = (converged | ~np.isfinite(s) | (stale[live] >= 3) | (n == _NEWTON_MAX_ITER)
                | (out & better & ~(nxt < 0.5 * dist)))
        near[live] = better & (size < _PROBE_STEP * scale)
        live, zl, s = live[~done], zl[~done], s[~done]
        z[live], far[live] = zl - s, nxt[~done]
    best_z[np.isnan(best_g)] = np.nan
    left = np.where(far > 0, to_k(z), np.nan)  # from each seed's last iterate
    return (1j * best_z if on_axis else best_z), best_g, best_p, left


def _rejections(k, res, probes, left):
    """Why each k is not a certified pole of t (a zero of f = 1/t), or None,
    from what the refinement already holds: the residual res = |f(k)|, |f|
    at the two flatness probes around k (see _probes), which guard against
    regions where 1/t merely underflows, and ``left`` (see _newton_polish).
    Makes no call of f."""
    flat = ~(probes.max(axis=0) > 10.0 * np.maximum(res, _RESIDUAL_TOL * 1e-4))
    reasons = []
    for z, r, fl, out in zip(k.tolist(), res.tolist(), flat.tolist(), left.tolist()):
        if not cmath.isnan(out):
            reasons.append(f"the iteration left the search basin at k={out}")
        elif not r < _RESIDUAL_TOL:
            reasons.append(f"refined point k={z} has |1/t|={r:.2e} > {_RESIDUAL_TOL:.0e}")
        elif abs(z) < _TRIVIAL_ZERO_TOL:
            reasons.append("refinement converged to the trivial zero k = 0")
        elif fl:
            reasons.append(f"1/t is numerically flat around k={z}; not a certified pole")
        else:
            reasons.append(None)
    return reasons


def _refine(f, guesses, near_axis, beyond, starts=None):
    """Newton-polish a zero of f from every guess in the array ``guesses``
    (or ``starts``); returns per guess the reported iterate k, |f(k)|, |f|
    at its two flatness probes and the iterate where it left its basin (see
    _newton_polish), the arrays _verdicts reads.

    ``beyond`` measures the search basin (see _newton_polish).  Rejected
    iterates of the guesses marked ``near_axis`` are retried from the
    guesses with the on-axis iteration, as a second pass.  Each pass reads
    its residuals and probes from its Newton calls; an iterate that passes
    the residual rule but carries no probes gets them in one more call,
    over all such iterates of the pass."""

    def polish(starts, on_axis):
        k, res, probes, left = _newton_polish(f, starts, beyond, on_axis)
        bare = np.isnan(left) & (res < _RESIDUAL_TOL) & np.isnan(probes[0])
        if bare.any():
            probes[:, bare] = np.abs(f(_probes(k[bare]))).reshape(2, -1)
        return k, res, probes, left

    out = polish(guesses if starts is None else starts, False)
    retry = np.flatnonzero(near_axis)
    retry = retry[[reason is not None for reason in _rejections(*(z[..., retry] for z in out))]]
    if retry.size:
        # poles on the imaginary axis sit on the channel-sqrt branch cuts
        for whole, part in zip(out, polish(guesses[retry], True)):
            whole[..., retry] = part
    return out


def _verdicts(guesses, k, res, probes, left):
    """One (k, |f(k)|, reason) triple per guess from its refinement (see
    _refine): ``reason`` is None for a certified pole, otherwise why the
    last iterate from the guess was rejected."""
    return [(z, r, reason and f"no certified pole from guess {guess}: {reason}")
            for guess, z, r, reason in zip(guesses.tolist(), k.tolist(), res.tolist(),
                                           _rejections(k, res, probes, left))]


def refine_pole(spec, guess, c: PhysicalConstants = DEFAULT_CONSTANTS, amplitude=None):
    """Newton-polish a pole of t from ``guess``; returns (k, residual |1/t|).

    k is a wavenumber of the normal form's ``qnf_level``, as QNFs are reported.
    Raises DomainError when Newton stops outside the basin
    |k - guess| <= (1 + |guess|) / 2 (see _newton_polish), naming the
    iterate where it stopped, or when its result fails the acceptance rule
    shared with find_poles (residual, trivial zero, flat 1/t).  The
    residual and the flatness probes are read from the Newton calls, so no
    amplitude call follows the reported k.
    ``amplitude`` (default: the numeric engine) must accept an ndarray k;
    either library engine is called through its 1/t (see _inv_t).

    An array of guesses is refined at once (each Newton iteration is one
    amplitude call over every guess still iterating, and each pass adds at
    most one call for missing probes), each in its own basin, and gives one
    (k, residual, reason) triple per guess: ``reason`` is None for a
    certified pole and otherwise the message a number guess raises.
    """
    if amplitude is None:
        amplitude = numeric_amplitude

    def triples(guesses):
        near_axis = np.abs(guesses.real) < 1e-6 * np.maximum(1.0, np.abs(guesses))
        refined = _verdicts(guesses, *_refine(
            lambda k: _inv_t(spec, k, c, amplitude), guesses, near_axis,
            lambda k, g: np.abs(k - g) - 0.5 * (1.0 + np.abs(g))))
        return np.fromiter(refined, dtype=object, count=len(refined))

    def fault(triple):
        k, res, reason = triple
        if reason:
            raise DomainError(reason)
        return k, res

    return _array_first(triples, guess, fault=fault)


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


def _window_max_at(mag, rows, cols):
    """The maximum of mag over the 3 x 3 window of each point (rows, cols)
    alone, the window cut at the edges: an index clipped to the edge names
    a point of the window, and a maximum does not round."""
    offsets = np.arange(-1, 2)[:, None]
    r = np.clip(rows + offsets, 0, mag.shape[0] - 1)
    c = np.clip(cols + offsets, 0, mag.shape[1] - 1)
    return mag[r[:, None], c[None, :]].reshape(9, -1).max(axis=0)


def _grid_columns(lo, hi, n):
    """n equally spaced points from lo to hi, each mid + half m / (n - 1)
    with the integer m = 2j - (n - 1): for lo = -hi the points are exactly
    mirrored about 0, which those of np.linspace are not."""
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    return mid + half * (2.0 * np.arange(n) - (n - 1)) / (n - 1)


def _grid(res, ims):
    """The (ims.size, res.size) grid of k = x + i y over the columns x in res
    and the rows y in ims."""
    grid = np.empty((ims.size, res.size), dtype=complex)
    grid.real, grid.imag = res[None, :], ims[:, None]
    return grid


# three-point weights of 2 h d/dx: at the first point of a line, inside it
# and at its last point
_STENCILS = np.array([[-3.0, 4.0, -1.0], [-1.0, 0.0, 1.0], [1.0, -4.0, 3.0]])


def _grid_slope(g, rows, cols, h):
    """dg/dx at the points g[rows, cols] of a grid whose columns are h apart,
    from the grid alone: central differences, three-point one-sided ones in
    the first and the last column."""
    n = g.shape[1]
    start = np.clip(cols - 1, 0, n - 3)
    w = _STENCILS[(cols > 0).astype(int) + (cols == n - 1)]
    return (w * g[rows[:, None], start[:, None] + np.arange(3)]).sum(axis=1) / (2.0 * h)


def find_poles(spec, region: SearchRegion, c: PhysicalConstants = DEFAULT_CONSTANTS,
               amplitude=None, count_zeros=False) -> PoleReport:
    """Grid-scan g(k) = 1/t over the region, refine local minima of |g|.

    ``amplitude`` defaults to the numeric engine; pass
    ``qnf1d.potentials.transmission_amplitude`` to hunt poles of the closed
    forms instead (useful for towers beyond the ODE engine's reach).  Either
    engine is called through its 1/t, which it builds t from (see _inv_t);
    any other ``amplitude`` is called for t.  It must accept an ndarray k:
    the grid, each Newton iteration over all seeds and the ``count_zeros``
    boundary are one call each, and each refinement pass adds at most one
    call for the flatness probes its Newton calls did not carry (see
    _refine); the acceptance rule makes no call of its own.  The region
    lies in the plane QNFs are reported in (``qnf_level``).

    Where the two limits of the spec are equal, a real potential gives
    t(-k*) = t(k)*, so the grid is evaluated once per distinct |Re k| and a
    column with Re k < 0 takes the conjugate of its mirror's 1/t: an
    ``amplitude`` passed for such a spec must satisfy that identity, as any
    t of the spec does.  On a region with re_min = -re_max the whole search
    is then mirrored: the seeds, their grid slopes and Newton come from the
    columns with Re k >= 0 (the mirror of a column is the first one's left
    neighbour; a column on Re k = 0 is refined once), and each seed with
    Re k < 0 reports the mirror -k* of its partner's result, with the same
    residual, and a reason that names the mirrored seed and iterates.  With
    unequal limits the identity fails (the transmitted wavenumber is a
    principal root) and the whole grid is evaluated and refined.

    The seeds are the grid points whose |g| is the least and not the
    largest of their 3 x 3 window (none where t = 1).  A seed whose grid
    estimates of dg/dk along Re k and -i times along Im k agree to
    ``_SLOPE_TOL`` (10 %) starts Newton from the grid's own step g / (dg/dk),
    at no call, unless the limits differ and it lies within 1.5 cells of
    the principal-root cut Re k = 0; the others start from the grid point.
    The region is the search basin (see _newton_polish).  A seed within 1.5
    cells of Re k = 0 that gives no pole is retried from itself on the axis
    (see _refine); each rejection names its seed.
    """
    if amplitude is None:
        amplitude = numeric_amplitude
    dedup_radius = 1e-6 / length_scale(spec)

    f = lambda k: _inv_t(spec, k, c, amplitude)
    nre = max(4, int(round((region.re_max - region.re_min) * region.grid_density)))
    nim = max(4, int(round((region.im_max - region.im_min) * region.grid_density)))
    res = _grid_columns(region.re_min, region.re_max, nre)
    ims = _grid_columns(region.im_min, region.im_max, nim)
    cell = max(res[1] - res[0], ims[1] - ims[0])
    v_minus, v_plus = normal_form(spec).limits
    # a symmetric region has mirrored columns (see _grid_columns)
    fold = v_minus == v_plus and region.re_min == -region.re_max
    lo = 0  # the first column scanned
    if fold:
        # 1/t(-k*) = (1/t(k))*: the scan runs on the columns with Re k >= 0
        # and, as the first one's left neighbour, the mirror of a column
        lo = nre // 2 - 1
        g = f(_grid(res[lo + 1:], ims))
        g = np.concatenate([g[:, [nre % 2]].conj(), g], axis=1)
    elif v_minus == v_plus:
        # one column per distinct |Re k|
        xs, mirror = np.unique(np.abs(res), return_inverse=True)
        g = f(_grid(xs, ims))[:, mirror]
        g[:, res < 0] = g[:, res < 0].conj()
    else:
        g = f(_grid(res, ims))
    grid = _grid(res[lo:], ims)
    mag = np.abs(g)
    # unevaluated (|k| ~ 0) and unrepresentable (nan) points are inf
    mag[np.isnan(mag) | (np.abs(grid) < 1e-6)] = np.inf
    # seeds: the least |1/t| of each point's 3 x 3 window, below the largest
    # by more than rounding, so a free form has none; none in the mirrored
    # column of a fold
    rows, cols = np.nonzero((mag < 1e6) & (mag <= _window_min(mag)))
    steep = mag[rows, cols] < (1.0 - 1e-12) * _window_max_at(mag, rows, cols)
    if fold:
        steep &= cols > 0
    rows, cols = rows[steep], cols[steep]
    seeds = grid[rows, cols]
    near_axis = np.abs(seeds.real) < 1.5 * cell

    def beyond(k, _starts):
        return np.maximum(np.maximum(region.re_min - k.real, k.real - region.re_max),
                          np.maximum(region.im_min - k.imag, k.imag - region.im_max)) - 1e-9

    with np.errstate(all="ignore"):
        # an analytic g has dg/dk = dg/dx = -i dg/dy
        d_re = _grid_slope(g, rows, cols, res[1] - res[0])
        d_im = -1j * _grid_slope(g.T, cols, rows, ims[1] - ims[0])
        analytic = np.abs(d_re - d_im) < _SLOPE_TOL * np.maximum(np.abs(d_re), np.abs(d_im))
        if v_minus != v_plus:  # the principal-root cut lies on Re k = 0
            analytic &= ~near_axis
        # an analytic seed starts from the grid's own Newton step
        starts = np.where(analytic, seeds - g[rows, cols] / (0.5 * (d_re + d_im)), seeds)
    ks, resid, probes, left = _refine(f, seeds, near_axis, beyond, starts)
    if fold:
        # each seed with Re k > 0 stands for its mirror -k*, whose Newton path
        # is the mirror of its own.  The mirrors follow the refined seeds in
        # their order, so a pole and its mirror merge alike, and a pole on
        # the axis keeps a refined point
        m = seeds.real > 0
        seeds, ks, left = (np.concatenate([z, -z[m].conj()]) for z in (seeds, ks, left))
        resid, probes = (np.concatenate([z, z[..., m]], axis=-1) for z in (resid, probes))
    poles, rejected = [], []
    for seed, (k, r, reason) in zip(seeds.tolist(), _verdicts(seeds, ks, resid, probes, left)):
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
