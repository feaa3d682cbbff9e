"""Numbers and arrays: every public numeric function takes an array (a list,
a tuple, an ndarray of any dimension) point by point, in its shape, and a
number is the one-element case, with a library error in place of an array's
inf or nan.  The amplitude engines' batches, the special functions, the
pole refiner and the energy side are each checked against that."""

import cmath
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Mobius2,
    MorseFeshbach,
    PhysicalConstants,
    RectBarrier,
    ScatteringAmplitudes,
    Sech2,
    Step,
    Tietz,
    asymptotic_wavenumbers,
    classify,
    closed_form_qnfs,
    evaluate,
    lambert_w,
    lambert_w_comtet,
    lambert_w_derivative,
    log_gamma,
    numeric_amplitude,
    pole_condition,
    qnf_energy,
    refine_pole,
    scattering_limits,
    step_bound,
    transmission_amplitude,
    transmission_probability,
)
from qnf1d import oracle
from qnf1d.errors import AtPoleError, DomainError, OverflowGuardError, Qnf1dError
from qnf1d.oracle import _inv_t, transfer_matrix_det_error
from qnf1d.potentials import length_scale

C = PhysicalConstants()

# Specs and k are drawn in units of the length a (couplings alpha a, levels
# V a^2, k a), on the scale of the pole-scan rectangles (Im k a <= 2.5).
# The closed form and the transfer matrix round differently in the last bit,
# and the transfer product amplifies that like exp(2 |Im kappa| a) of the
# largest region wavenumber: for RectBarrier(0, 2) at k = 2 + 6i
# (Im k a = 12) t differs by 4e-12, beyond the 1e-12 checked here.
unit = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)
level = st.just(0.0) | unit
length = st.floats(0.1, 3.0)


@st.composite
def piecewise_specs(draw):
    a = draw(length)
    cls = draw(st.sampled_from([Delta, DoubleDelta, AsymDoubleDelta, Step, RectBarrier,
                                AsymRectBarrier]))
    if cls is Delta:
        return Delta(draw(unit))
    if cls is Step:
        return Step(draw(level))
    if cls is DoubleDelta:
        return DoubleDelta(draw(unit) / a, a)
    if cls is AsymDoubleDelta:
        return AsymDoubleDelta(draw(unit) / a, draw(unit) / a, a)
    if cls is RectBarrier:
        return RectBarrier(draw(level) / a**2, a)
    return AsymRectBarrier(draw(level) / a**2, draw(level) / a**2, draw(level) / a**2, a)


@st.composite
def smooth_specs(draw):
    a = draw(length)
    cls = draw(st.sampled_from([Sech2, Eckart, MorseFeshbach]))
    if cls is Sech2:
        return Sech2(draw(level) / a**2, a)
    if cls is Eckart:  # asymmetric when V_minus != V_plus
        return Eckart(draw(level) / a**2, draw(level) / a**2, draw(level) / a**2, a)
    # Morse-Feshbach reduces with a nonzero shift
    return MorseFeshbach(draw(level) / a**2, draw(st.floats(-1.0, 1.0)), a)


# k a in both half-planes; near k = 0, t -> 0 by cancellation
scaled_wavenumbers = st.lists(
    st.complex_numbers(min_magnitude=0.05, max_magnitude=2.5, allow_nan=False,
                       allow_infinity=False),
    min_size=1, max_size=12)


def _bits(z):
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


def _fields(v):
    """A ScatteringAmplitudes as the tuple of its fields; anything else as is."""
    if isinstance(v, ScatteringAmplitudes):
        return v.t, v.r, v.k_minus_inf, v.k_plus_inf
    return v


def _point(v):
    """One point's result bit for bit: a number as its type and bits, a
    string or None as is, or a tuple (a ScatteringAmplitudes) of them.  An
    array's members come from ``tolist()`` and so carry the Python type of
    its dtype, which a number call must return too."""
    v = _fields(v)
    if isinstance(v, tuple):
        return tuple(map(_point, v))
    return v if v is None or isinstance(v, str) else (type(v), _bits(v))


def _members(out):
    """An array call's result as its shape and its members in C order, each
    a value or a tuple of values (refine_pole's triples come as a nested
    list, or as one triple for a 0-d guess, the amplitudes and the
    wavenumbers as parallel arrays)."""
    if isinstance(out, list) or isinstance(out, tuple) and isinstance(out[-1], (str, type(None))):
        rows = np.array(out, dtype=object)
        return rows.shape[:-1], [tuple(r) for r in rows.reshape(-1, 3).tolist()]
    out = _fields(out)
    if not isinstance(out, tuple):
        return out.shape, out.ravel().tolist()
    columns = [[None] * out[0].size if v is None else v.ravel().tolist() for v in out]
    return out[0].shape, list(zip(*columns))


def _lead(v):
    """The value that a number's error stands for: t of amplitudes, k of a
    refined pole, the first of a pair, a lone value as is."""
    v = _fields(v)
    return v[0] if isinstance(v, tuple) else v


def _unrepresented(member, error):
    """Whether the member is what the number's error leaves in an array:
    inf for AtPoleError, nan for any other library error."""
    z = _lead(member)
    return cmath.isinf(z) if isinstance(error, AtPoleError) else cmath.isnan(z)


def assert_array_is_the_one_element_case(f, x, number=lambda member: member,
                                         raised=_unrepresented):
    """f over the 1-d array x agrees bit for bit with f over each one-element
    slice of x, over x as a list and as a tuple, over x as a column, over
    each member as a 0-d array, and, through ``number``, with f at each
    member as a number, which gives a value of the member's type and never
    nan; a number that raises a library error is a member for which
    ``raised(member, error)`` holds."""
    shape, members = _members(f(x))
    assert shape == x.shape
    bits = list(map(_point, members))
    assert [_point(_members(f(x[i:i + 1]))[1][0]) for i in range(len(x))] == bits
    for v in (x.tolist(), tuple(x.tolist())):
        assert _members(f(v))[0] == x.shape
        assert list(map(_point, _members(f(v))[1])) == bits
    column_shape, column = _members(f(x.reshape(-1, 1)))
    assert column_shape == (len(x), 1) and list(map(_point, column)) == bits
    for i, point in enumerate(bits):
        shape, (member,) = _members(f(x[i:i + 1].reshape(())))
        assert shape == () and _point(member) == point
    for v, member in zip(x.tolist(), members):
        try:
            value = f(v)
        except Qnf1dError as error:
            assert raised(member, error), (v, member, error)
            continue
        # where an array holds nan, a number raises
        z = _lead(value)
        assert not (isinstance(z, (float, complex)) and cmath.isnan(z)), (v, value)
        assert _point(value) == _point(number(member)), (v, value, member)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs(), ks=scaled_wavenumbers)
# the pole 2i and k = 0; an exponential that overflows the closed form; a
# representable M whose determinant m00 m11 - m01 m10 overflows
@example(spec=Delta(2.0), ks=[2j, 0.0, 1.0 + 0.5j])
@example(spec=DoubleDelta(1.0, 1.0), ks=[1.0 + 400j, 0.5, -4.4 + 180.05j])
def test_piecewise_array_equals_scalar(spec, ks):
    k = np.array(ks, dtype=complex) / length_scale(spec)
    for f in (transmission_amplitude, numeric_amplitude, transfer_matrix_det_error,
              pole_condition):
        assert_array_is_the_one_element_case(lambda k: f(spec, k, C), k)
    assert_array_is_the_one_element_case(lambda k: classify(k, length_scale(spec)), k)


@settings(max_examples=60, deadline=None)
@given(spec=smooth_specs(), ks=scaled_wavenumbers)
def test_smooth_closed_form_array_equals_scalar(spec, ks):
    # the ODE is no one-element case: a batch shares one panel count (see
    # test_ode_batch_matches_one_point_calls)
    k = np.array(ks, dtype=complex) / length_scale(spec)
    assert_array_is_the_one_element_case(lambda k: transmission_amplitude(spec, k, C), k)
    assert_array_is_the_one_element_case(lambda k: pole_condition(spec, k, C), k)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs(), ks=scaled_wavenumbers)
# the pole -i with a subnormal real part: m00 is subnormal, and 1/m00
# overflows to an infinite and a zero part
@example(spec=Delta(-1.0), ks=[complex(3.1793143469698e-309, -1.0)])
def test_closed_form_matches_transfer_matrix(spec, ks):
    # the independent engine: 1/t as the pole scan reads it (0 at a pole), to
    # rounding, with the same poles and unrepresentable points
    k = np.array(ks, dtype=complex) / length_scale(spec)
    inv_cf = _inv_t(spec, k, C, transmission_amplitude)
    inv_tm = _inv_t(spec, k, C, numeric_amplitude)
    finite = np.isfinite(inv_cf)
    assert (finite == np.isfinite(inv_tm)).all(), (k, inv_cf, inv_tm)
    inv_cf, inv_tm = inv_cf[finite], inv_tm[finite]
    assert (np.abs(inv_cf - inv_tm) <= 1e-12 * np.maximum(1.0, np.abs(inv_cf))).all(), \
        (k, inv_cf, inv_tm)


# a symmetric spec, a shifted asymmetric one and an asymmetric one whose
# transmitted side is the lower level
ODE_SPECS = [Sech2(-1.0, 1.0), MorseFeshbach(0.8, 0.7, 1.1), Tietz(1.1, 0.3, 0.9, "cosh")]


class CountingPasses:
    """Stands in for qnf1d.oracle._propagate and counts its calls, one per
    propagator pass."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.propagate = oracle._propagate
        monkeypatch.setattr(oracle, "_propagate", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.propagate(*args, **kwargs)


@pytest.mark.parametrize("spec", ODE_SPECS, ids=lambda s: type(s).__name__)
def test_ode_batch_matches_one_point_calls(spec):
    # a batch shares one panel count, set by its largest local wavenumber,
    # so it is not bitwise equal to one-point integrations; measured worst
    # case 6.9e-14 relative (Morse-Feshbach), 3.3e-16 elsewhere
    a = length_scale(spec)
    k = np.concatenate([np.linspace(0.3, 3.0, 10),
                        [0.7 + 0.1j, 1.3 - 0.2j, 0.4 + 0.9j, 2.0 + 1.5j, -1.1 + 0.6j,
                         0.9 - 1.2j, -0.5 - 1.8j, 1.7 + 1.9j, 0.0]]) / a
    t = numeric_amplitude(spec, k, C).t
    one = np.array([numeric_amplitude(spec, k[i:i + 1], C).t[0] for i in range(k.size)])
    assert cmath.isnan(t[-1]) and cmath.isnan(one[-1])
    assert np.isfinite(t[:-1]).all()
    assert (np.abs(t[:-1] - one[:-1]) <= 1e-9 * np.abs(one[:-1])).all(), (k, t, one)


@pytest.mark.parametrize("spec", ODE_SPECS, ids=lambda s: type(s).__name__)
def test_ode_block_splits_keep_the_bits(spec, monkeypatch):
    # the panel series of a call are summed in blocks of points; one point
    # per block, on the call's panel count and tail order, gives the same
    # bits as the default blocks
    a = length_scale(spec)
    k = np.concatenate([np.sqrt(C.p2 * np.linspace(0.3, 9.0, 32)) + 0j,
                        [0.7 + 0.1j, 1.3 - 0.2j, 0.4 + 0.9j, -1.1 + 0.6j, 0.9 - 1.2j]]) / a
    calls, blocks = [], []
    horner = oracle._horner

    def counting(orders, lam):
        blocks[-1] += 1
        return horner(orders, lam)

    monkeypatch.setattr(oracle, "_horner", counting)
    for block in (None, 1):
        blocks.append(0)
        if block is not None:
            monkeypatch.setattr(oracle, "_PANEL_BLOCK", block)
        # the real energies and the complex ones: two calls, two passes
        calls.append([numeric_amplitude(spec, part, C) for part in (k[:32], k[32:])])
    # one block per pass, then one per point
    assert blocks == [2, k.size]
    for whole, split in zip(*calls):
        assert np.isfinite(whole.t).all()
        assert whole.t.tobytes() == split.t.tobytes()
        assert whole.r.tobytes() == split.r.tobytes()


def test_ode_caches_serve_no_stale_geometry():
    # the panel geometry is cached per shift-free reduction, length and panel
    # count: calls that alternate the mass, the specs sharing a length a
    # (shifted Tietz barriers, an unshifted one, a Mobius2 form whose
    # reduction is shifted) and the domain each agree with the closed form,
    # and with a call on cold caches to the last bit
    specs = [Tietz(1.1, 0.3, 0.9, "cosh"), Tietz(1.1, 0.0, 0.9, "cosh"),
             Tietz(1.1, -0.3, 0.9, "cosh"), Mobius2(0.0, 1.0, -1.5, 1.0, 2.0, 0.9, 1.1)]
    masses = [PhysicalConstants(), PhysicalConstants(mass=2.0)]
    k = np.array([0.4, 1.1, 2.3, 0.8 + 0.2j, 1.5 - 0.4j])
    warm = []
    for _ in range(2):
        for spec in specs:
            for c in masses:
                for L in (None, 2.7):
                    t = numeric_amplitude(spec, k, c, L=L).t
                    ta = transmission_amplitude(spec, k, c).t
                    assert (np.abs(t - ta) <= 1e-8 * np.abs(ta)).all(), (spec, c, L, t, ta)
                    warm.append((spec, c, L, t.tobytes()))
    for spec, c, L, bits in warm:
        oracle._panel_geometry.cache_clear()
        oracle._unshifted.cache_clear()
        assert numeric_amplitude(spec, k, c, L=L).t.tobytes() == bits, (spec, c, L)


def full_tail_eta(ws, k, a):
    """Every order of the Jost tail recursion of oracle._tail_eta, with no
    stop: the reference for the series that the oracle stops at rounding."""
    n = ws.shape[-1]
    ell = np.arange(1, n + 1)
    x = 4.0j * k[..., None] * ell / a + 4.0 * ell * ell / (a * a)
    rev = ws[..., ::-1, None]
    etas = np.empty(x.shape, dtype=complex)
    for i in range(n):
        conv = (etas[..., :i] @ rev[..., n - i:, :])[..., 0]
        etas[..., i] = (ws[..., i, None] + conv) / x[..., i]
    return etas


@settings(max_examples=60, deadline=None, derandomize=True)
@given(spec=smooth_specs(),
       kas=st.lists(st.tuples(st.floats(0.01, 2.5), st.floats(-2.0, 2.0)), min_size=1,
                    max_size=12))
def test_tail_series_stopped_at_rounding_matches_every_order(spec, kas):
    # the boundary states of every numeric_amplitude call, from the series
    # stopped at rounding and from all 32 orders, agree to 4 ulps of the size
    # of their summands: dpsi/du = e^{-iku} (-ik f + f') can cancel far
    # below them, where the full series' own rounding is that large.  Over
    # 3000 random specs and k, the worst is 2.8 ulps, and at L = 1.5 a the
    # stop comes mostly after 14 to 16 orders, in 5 % of the draws after 17
    # to 19
    a = length_scale(spec)
    k = np.array([complex(x, y) for x, y in kas]) / a
    calls = []
    tail_eta = oracle._tail_eta

    def recording(ws, kk, a, L):
        etas = tail_eta(ws, kk, a, L)
        calls.append((ws, kk, L, etas))
        return etas

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_tail_eta", recording)
        for L in (0.5 * a, None, 3.0 * a):
            numeric_amplitude(spec, k, C, L=L)
    assert [L for *_, L, _etas in calls] == [0.5 * a, 1.5 * a, 3.0 * a]
    for ws, kk, L, etas in calls:
        full = full_tail_eta(ws, kk, a)
        j = np.arange(1, full.shape[-1] + 1)
        terms = np.exp(-2.0 * j * L / a)
        phase = np.abs(np.exp(-1j * kk * L))
        sizes = (phase * (1.0 + np.abs(full) @ terms),
                 phase * (np.abs(kk * (1.0 + full @ terms)) + np.abs(full) @ (2.0 * j / a * terms)))
        for got, want, size in zip(oracle._tail_state(etas, kk, a, L),
                                   oracle._tail_state(full, kk, a, L), sizes):
            assert (np.abs(got - want) <= 4.0 * np.spacing(size)).all(), (L, kk, got, want)
        if L == 1.5 * a:
            assert etas.shape[-1] <= 20


def dense_propagate(red, p2, e, psi0, dpsi0, L, panels):
    """(psi, psi') at x = -L of a propagator pass of oracle._propagate, each
    panel's integral equation solved as its dense linear system, one
    np.linalg.solve per point and panel: the reference for the power series
    in the energy that the oracle sums."""
    t, vander, j2, end1, end2 = oracle._chebyshev_panel(oracle._PANEL_DEGREE)
    d = -2.0 * L / panels
    h = 0.5 * d
    v = red.evaluate(L + d * (np.arange(panels)[:, None] + 0.5 * (t + 1.0)))
    q = p2 * (v - e[:, None, None])
    basis = np.stack([np.ones_like(t), h * (t + 1.0)], axis=-1)
    coef = np.linalg.solve(q[..., None] * (-h * h * j2) + vander, q[..., None] * basis)
    prop = np.stack([h * h * (end2 @ coef) + (1.0, d), h * (end1 @ coef) + (0.0, 1.0)], axis=-2)
    state = np.stack([psi0, dpsi0], axis=-1)
    for s in range(panels):
        state = (prop[:, s] @ state[..., None])[..., 0]
    return state[:, 0], state[:, 1]


@settings(max_examples=40, deadline=None)
@given(spec=smooth_specs(), ks=scaled_wavenumbers,
       c=st.sampled_from([C, PhysicalConstants(mass=2.0)]))
# the free form, whose series has no energy-free order (V = e0 on every
# panel); a k whose energy overflows beside ordinary ones, which the panel
# rule puts on _PANEL_CAP panels, where only it is outside the series' bound
@example(spec=Sech2(0.0, 1.3), ks=[0.4, 1.7 + 0.3j, 2.5j], c=C)
@example(spec=Sech2(-1.0, 1.0), ks=[0.8, 1e200, 1.2 + 0.3j], c=C)
def test_panel_series_matches_dense_solves(spec, ks, c):
    # on each pass of a numeric_amplitude call, from the series and from
    # dense solves, both columns of the transfer matrix over [-L, L], made
    # dimensionless by the length a, agree to 1e-13 of its largest entry at
    # every resolved point; every point whose energy is finite is resolved
    # on some pass, and no other point is
    a = length_scale(spec)
    k = np.array(ks, dtype=complex) / a
    passes = []
    propagate = oracle._propagate

    def recording(red, p2, e, psi0, dpsi0, L, panels, rtol):
        passes.append((red, p2, e, L, panels, rtol))
        return propagate(red, p2, e, psi0, dpsi0, L, panels, rtol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "_propagate", recording)
        numeric_amplitude(spec, k, c)
    resolved = set()
    for red, p2, e, L, panels, rtol in passes:
        one, zero = np.ones(e.shape, dtype=complex), np.zeros(e.shape, dtype=complex)
        series, dense = [], []
        with np.errstate(all="ignore"):  # as in numeric_amplitude
            for start in ((one, zero), (zero, one)):
                psi, dpsi, ok = oracle._propagate(red, p2, e, *start, L, panels, rtol)
                series.append((psi, dpsi))
                dense.append(dense_propagate(red, p2, e, *start, L, panels))
            got = np.array([[series[0][0], series[1][0] / a], [series[0][1] * a, series[1][1]]])
            want = np.array([[dense[0][0], dense[1][0] / a], [dense[0][1] * a, dense[1][1]]])
            size = np.abs(want).max(axis=(0, 1))
            err = np.abs(got - want).max(axis=(0, 1))
        assert (err[ok] <= 1e-13 * size[ok]).all(), (red, panels, e[ok], err[ok] / size[ok])
        assert not ok[~np.isfinite(e)].any()
        resolved.update(e[ok].tolist())
    assert resolved == {z for z in passes[0][2].tolist() if cmath.isfinite(z)}
    if 1e200 in ks:
        # the overflowing point alone is on the cap and outside the bound
        assert passes[0][4] == oracle._PANEL_CAP
        assert [p[2].size for p in passes] == [len(ks)]


@pytest.mark.parametrize("spec", ODE_SPECS, ids=lambda s: type(s).__name__)
def test_real_energies_solve_real_systems(spec, monkeypatch):
    # verify's 25-sample draw: real energies above both levels, whose panel
    # series are summed in real arithmetic
    energies = []
    propagate = oracle._propagate

    def recording(red, p2, e, *args):
        energies.append(e)
        return propagate(red, p2, e, *args)

    monkeypatch.setattr(oracle, "_propagate", recording)
    rng = np.random.default_rng(20260810)
    v_minus, v_plus = scattering_limits(spec)
    k = np.sqrt(C.p2 * (max(v_minus, v_plus) + rng.uniform(0.2, 6.0, size=25) - v_minus))
    t = numeric_amplitude(spec, k, C).t
    ta = transmission_amplitude(spec, k, C).t
    assert energies and all(e.dtype == np.float64 for e in energies)
    assert (np.abs(t - ta) <= 1e-12 * np.abs(ta)).all(), (k, t, ta)


def test_ode_batch_is_one_integration(monkeypatch):
    counter = CountingPasses(monkeypatch)
    k = np.sqrt(2.0 * np.linspace(0.2, 6.0, 25))
    t = numeric_amplitude(Sech2(-1.0, 1.0), k, C).t
    assert counter.calls == 1
    assert np.isfinite(t).all()


def test_newton_iteration_is_one_integration(monkeypatch):
    # the asymmetric tietz cosh gives the triple (z, z +- h) three slightly
    # different |Im k|; on the one domain L = 1.5a they share one pass
    counter = CountingPasses(monkeypatch)
    spec = Tietz(1.1, 0.3, 0.9, "cosh")
    mode = next(r for r in closed_form_qnfs(spec, (0, 2), C) if abs(r.k - 1.8618259j) < 1e-6)
    per_call = []

    def amplitude(spec, k, c):
        before = counter.calls
        amp = numeric_amplitude(spec, k, c)
        per_call.append((k.size, counter.calls - before))
        return amp

    k, _res = refine_pole(spec, mode.k * (1 + 1e-3), C, amplitude=amplitude)
    assert abs(k - mode.k) < 1e-8
    # every call is one pass; the first is the first Newton iteration's triple
    assert per_call[0] == (3, 1)
    assert all(passes == 1 for _size, passes in per_call)


def test_unresolved_point_is_nan_alone(monkeypatch):
    # a point that no pass resolves is solved again on ever more panels, up
    # to the cap, and is then nan on its own
    spec = Sech2(-1.0, 1.0)
    k = np.array([0.5, 0.9, 1.3, 1.7, 2.1], dtype=complex)
    marked = scattering_limits(spec)[0] + k[2] * k[2] / C.p2
    propagate, sizes = oracle._propagate, []

    def unresolving(red, p2, e, *args):
        psi, dpsi, resolved = propagate(red, p2, e, *args)
        sizes.append(e.size)
        return psi, dpsi, resolved & (np.abs(e - marked) > 1e-12)

    monkeypatch.setattr(oracle, "_propagate", unresolving)
    t = numeric_amplitude(spec, k, C).t
    assert cmath.isnan(t[2])
    ta = transmission_amplitude(spec, k, C).t
    good = np.arange(k.size) != 2
    assert (np.abs(t[good] - ta[good]) < 1e-8 * np.abs(ta[good])).all()
    # after the first pass only the marked point is solved again
    assert sizes[0] == k.size and len(sizes) > 1 and set(sizes[1:]) == {1}
    with pytest.raises(OverflowGuardError):
        numeric_amplitude(spec, k[2], C)


def test_nan_start_state_is_not_integrated(monkeypatch):
    # at k a = 2i (1 - 2^-53) the tail recursion's X_2 rounds to 0, so the
    # outgoing boundary state is nan: that point is nan with no pass, and
    # the batch's other point takes one pass
    counter = CountingPasses(monkeypatch)
    spec = Sech2(0.0, 2.5)
    k = np.array([1.9999999999999998j, 0.5]) / 2.5
    t = numeric_amplitude(spec, k, C).t
    assert cmath.isnan(t[0]) and t[1] == pytest.approx(1.0, rel=1e-12)
    assert counter.calls == 1


def test_ode_contract_guard_row():
    # |Im k| L beyond the guard, and a real k whose energy overflows, are
    # nan in a batch and do not spoil the rest
    spec = Sech2(-1.0, 1.0)
    t = numeric_amplitude(spec, np.array([0.8, 500j, 1.2 + 0.3j, 1e200]), C).t
    assert cmath.isnan(t[1]) and cmath.isnan(t[3])
    assert np.isfinite(t[[0, 2]]).all()
    assert t[0] == pytest.approx(transmission_amplitude(spec, 0.8, C).t, rel=1e-8)


@pytest.mark.parametrize("ka", [3000.0, 3500.0])
def test_ode_sums_beyond_the_bound_on_the_cap(ka):
    # real k a above about 2731 puts lambda beyond the first series bound of
    # _PANEL_CAP panels, where no pass follows: the series there runs to
    # 2 _PANEL_DEGREE orders, whose bound holds the point, and it meets rtol
    spec = Sech2(-1.0, 1.0)
    k = np.array([ka, 2000.0])
    t = numeric_amplitude(spec, k, C).t
    ta = transmission_amplitude(spec, k, C).t
    assert (np.abs(t - ta) <= 1e-10 * np.abs(ta)).all(), (t, ta)
    # k a = 2000 on the cap has the bits it has beside an overflowing
    # energy, which is beyond every bound
    assert t[1] == numeric_amplitude(spec, np.array([1e200, 2000.0]), C).t[1]


def test_cap_geometry_is_cached_apart():
    # a geometry on _PANEL_CAP panels (38 MB) goes to a cache of two
    # entries, not to the 64 entries of the finer passes
    oracle._panel_geometry.cache_clear()
    oracle._cap_geometry.cache_clear()
    numeric_amplitude(Sech2(-1.0, 1.0), np.array([3000.0]), C)
    assert oracle._panel_geometry.cache_info().currsize == 0
    assert oracle._cap_geometry.cache_info()[2:] == (2, 1)  # maxsize, currsize


def test_morse_feshbach_array_matches_closed_form():
    # the shifted reduction: the shift enters as a phase per point
    spec = MorseFeshbach(0.8, 0.7, 1.1)
    v_minus, v_plus = scattering_limits(spec)
    k = np.sqrt(C.p2 * (max(v_minus, v_plus) + np.linspace(0.2, 6.0, 25) - v_minus))
    t = numeric_amplitude(spec, k, C).t
    ta = transmission_amplitude(spec, k, C).t
    assert (np.abs(t - ta) < 1e-8 * np.abs(ta)).all()


@pytest.mark.parametrize("amplitude", [numeric_amplitude, transmission_amplitude],
                         ids=["transfer", "closed_form"])
def test_contract_pole_and_zero(amplitude):
    # Delta(2.0) has its pole exactly at k = 2i; k = 0 is outside the domain
    t = amplitude(Delta(2.0), np.array([2j, 0.0, 1.0 + 0.5j]), C).t
    with np.errstate(divide="ignore"):
        assert 1.0 / t[0] == 0
    assert cmath.isnan(t[1])
    assert t[2] == pytest.approx(amplitude(Delta(2.0), 1.0 + 0.5j, C).t, rel=1e-14)


def test_contract_gamma_pole_and_overflow():
    spec = Eckart(0.0, 2.0, -1.0, 1.0)
    # Gamma(i k a) in the denominator has a pole at k = i (i k a = -1)
    with pytest.raises(DomainError):
        transmission_amplitude(spec, 1j, C)
    # the bound state of Sech2(-1, 1): Gamma(i k a + 1/2 - s) in the
    # numerator has its pole at k = -i (s = 3/2), the denominator has none
    with pytest.raises(AtPoleError):
        transmission_amplitude(Sech2(-1.0, 1.0), -1j, C)
    assert cmath.isinf(transmission_amplitude(Sech2(-1.0, 1.0), np.array([-1j]), C).t[0])
    # far out in the second quadrant the gamma ratio overflows
    far = -569.344619648586 + 717.8391154195901j
    with pytest.raises(AtPoleError):
        transmission_amplitude(spec, far, C)
    t = transmission_amplitude(spec, np.array([1j, far]), C).t
    assert cmath.isnan(t[0])
    assert cmath.isinf(t[1])
    # an overflowing exponential is a library error, not Python's OverflowError
    with pytest.raises(DomainError):
        transmission_amplitude(DoubleDelta(1.0, 1.0), 1 + 400j, C)


def test_shapes_are_kept():
    ks = np.linspace(0.5, 3.0, 12).reshape(3, 4) + 0.2j
    # an ODE batch shares one step sequence, so it is not bitwise the
    # one-point call
    for spec, rel in ((RectBarrier(1.0, 1.0), 1e-12), (Sech2(-1.0, 1.0), 1e-9)):
        for amplitude in (numeric_amplitude, transmission_amplitude):
            amp = amplitude(spec, ks, C)
            assert amp.t.shape == (3, 4)
            assert amp.t[1, 2] == pytest.approx(amplitude(spec, ks[1, 2], C).t, rel=rel)


def test_refine_pole_array_is_the_one_element_case():
    # a pole's guess, a guess whose Newton leaves its basin, one far from
    # any pole
    guesses = np.array([1.9j, -3.0 + 2.0j, 100.0 + 0.5j])
    assert_array_is_the_one_element_case(
        lambda g: refine_pole(Delta(2.0), g, C), guesses, number=lambda m: m[:2],
        raised=lambda m, error: m[2] == str(error))


@settings(max_examples=60, deadline=None)
@given(zs=st.lists(st.complex_numbers(max_magnitude=50.0, allow_nan=False, allow_infinity=False),
                   min_size=1, max_size=12),
       n=st.integers(-4, 4))
# z = 0, the branch point -1/e and the gamma poles 0, -1 and -2
@example(zs=[0j, complex(-math.exp(-1.0)), -1 + 0j, 0.3], n=1)
@example(zs=[0j, complex(-math.exp(-1.0)), -2 + 0j, 0.3], n=0)
def test_special_functions_array_is_the_one_element_case(zs, n):
    z = np.array(zs, dtype=complex)
    assert_array_is_the_one_element_case(lambda z: lambert_w(n, z), z)
    # at the branch point W = -1 an array holds inf
    assert_array_is_the_one_element_case(lambda z: lambert_w_derivative(n, z), z,
                                         raised=lambda m, error: not cmath.isfinite(m))
    assert_array_is_the_one_element_case(log_gamma, z)
    branches = np.arange(n - 2, n + 3)
    assert_array_is_the_one_element_case(lambda b: lambert_w(b, zs[0]), branches)
    # L1 = ln z + 2 pi i n vanishes only at z = 1 on branch 0, and ln 0 has no value
    w = zs[-1] if zs[-1] not in (0, 1) else 2.0
    for terms in (1, 2, 3):
        assert_array_is_the_one_element_case(lambda b: lambert_w_comtet(b, w, terms), branches)


# ---------------------------------------------------------------------------
# Energy-side functions
# ---------------------------------------------------------------------------

# E a^2 above the higher limit, from near threshold to far above it
scaled_energies = st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs() | smooth_specs(), offsets=scaled_energies)
def test_probability_array_is_the_one_element_case(spec, offsets):
    e = max(scattering_limits(spec)) + np.array(offsets) / length_scale(spec) ** 2
    assert_array_is_the_one_element_case(lambda e: transmission_probability(spec, e, C), e)
    assert_array_is_the_one_element_case(lambda e: step_bound(spec, e, C), e)
    # x from about -14 a to 9 a, where cosh(x / a)^2 does not overflow
    x = np.log(offsets) * length_scale(spec)
    assert_array_is_the_one_element_case(lambda x: evaluate(spec, x), x)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs() | smooth_specs(),
       energies=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                            allow_infinity=False), min_size=1, max_size=20))
def test_wavenumbers_array_is_the_one_element_case(spec, energies):
    e = np.array(energies, dtype=complex)
    assert_array_is_the_one_element_case(lambda e: asymptotic_wavenumbers(spec, e, C), e)
    assert_array_is_the_one_element_case(lambda k: qnf_energy(k, C, 0.5), e)


@pytest.mark.parametrize("spec", [DoubleDelta(0.8, 1.2), RectBarrier(1.5, 0.7),
                                  AsymRectBarrier(0.2, 2.0, -0.3, 0.6),
                                  Eckart(0.0, 2.0, -1.0, 1.0)], ids=lambda s: type(s).__name__)
@pytest.mark.parametrize("bad", ["limit", "below", "nan", "-inf", "inf"])
def test_array_raises_what_its_first_bad_energy_raises(spec, bad):
    top = max(scattering_limits(spec))
    e_bad = {"limit": top, "below": top - 1.0, "nan": math.nan, "-inf": -math.inf,
             "inf": math.inf}[bad]
    for f in (transmission_probability, step_bound):
        with pytest.raises(Qnf1dError) as scalar:
            f(spec, e_bad, C)
        with pytest.raises(Qnf1dError) as array:
            f(spec, np.array([top + 1.0, e_bad, top - 2.0, math.inf]), C)
        assert (type(array.value), str(array.value)) == (type(scalar.value), str(scalar.value))
