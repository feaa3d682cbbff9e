"""Array-valued amplitude engines: an ndarray k gives t point by point, with
poles as inf and unrepresentable points as nan; a scalar k is the
one-element case, with a library error in place of nan.  The energy-side
functions (T, T_step, the asymptotic wavenumbers) take arrays of E the same
way."""

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
    MorseFeshbach,
    PhysicalConstants,
    RectBarrier,
    Sech2,
    Step,
    Tietz,
    asymptotic_wavenumbers,
    closed_form_qnfs,
    numeric_amplitude,
    refine_pole,
    scattering_limits,
    step_bound,
    transmission_amplitude,
    transmission_probability,
)
from qnf1d import oracle
from qnf1d.errors import AtPoleError, DomainError, OverflowGuardError, Qnf1dError
from qnf1d.oracle import _inv_t
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


def assert_matches_scalar(amplitude, spec, ks):
    ks = [k / length_scale(spec) for k in ks]
    t = amplitude(spec, np.array(ks, dtype=complex), C).t
    assert t.shape == (len(ks),)
    for k, t_arr in zip(ks, t):
        try:
            t_sc = amplitude(spec, k, C).t
        except AtPoleError:
            assert cmath.isinf(t_arr)
            continue
        except (OverflowGuardError, DomainError):
            assert cmath.isnan(t_arr)
            continue
        if 1e-6 < abs(t_sc) < 1e6:
            # compared as 1/t, the quantity the pole scan reads: the engines
            # compute 1/t (m00, the closed-form denominator) to rounding, and
            # t = 1/m00 multiplies that error by |t| next to a pole
            assert abs(1.0 / t_arr - 1.0 / t_sc) <= 1e-12 * max(1.0, abs(1.0 / t_sc)), \
                (k, t_arr, t_sc)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs(), ks=scaled_wavenumbers)
def test_piecewise_array_equals_scalar(spec, ks):
    assert_matches_scalar(transmission_amplitude, spec, ks)
    assert_matches_scalar(numeric_amplitude, spec, ks)


@settings(max_examples=60, deadline=None)
@given(spec=smooth_specs(), ks=scaled_wavenumbers)
def test_smooth_closed_form_array_equals_scalar(spec, ks):
    assert_matches_scalar(transmission_amplitude, spec, ks)


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


@pytest.mark.parametrize("spec", ODE_SPECS, ids=lambda s: type(s).__name__)
def test_real_energies_solve_real_systems(spec, monkeypatch):
    # verify's 25-sample draw: real energies above both levels, whose panel
    # systems are solved in real arithmetic
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


def test_ode_contract_guard_row():
    # |Im k| L beyond the guard, and a real k whose energy overflows, are
    # nan in a batch and do not spoil the rest
    spec = Sech2(-1.0, 1.0)
    t = numeric_amplitude(spec, np.array([0.8, 500j, 1.2 + 0.3j, 1e200]), C).t
    assert cmath.isnan(t[1]) and cmath.isnan(t[3])
    assert np.isfinite(t[[0, 2]]).all()
    assert t[0] == pytest.approx(transmission_amplitude(spec, 0.8, C).t, rel=1e-8)


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


# ---------------------------------------------------------------------------
# Energy-side functions
# ---------------------------------------------------------------------------

def _bits(z):
    z = complex(z)
    return struct.pack("<dd", z.real, z.imag)


# E a^2 above the higher limit, from near threshold to far above it
scaled_energies = st.lists(st.floats(1e-6, 1e4), min_size=1, max_size=40)


def assert_array_is_the_one_element_case(f, spec, e):
    """f over e, over each one-element slice of e and at each number agree
    bit for bit; a 2-d e gives a 2-d result and a 0-d e its member's bits."""
    got = f(spec, e, C)
    assert got.shape == e.shape
    one = [f(spec, e[i:i + 1], C)[0] for i in range(len(e))]
    number = [f(spec, x, C) for x in e.tolist()]
    assert all(type(v) is float for v in number)
    assert list(map(_bits, got)) == list(map(_bits, one)) == list(map(_bits, number))
    column = f(spec, e.reshape(-1, 1), C)
    assert column.shape == (len(e), 1)
    assert list(map(_bits, column.ravel())) == list(map(_bits, got))
    assert _bits(f(spec, e[0:1].reshape(()), C)) == _bits(got[0])


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs() | smooth_specs(), offsets=scaled_energies)
def test_probability_array_is_the_one_element_case(spec, offsets):
    e = max(scattering_limits(spec)) + np.array(offsets) / length_scale(spec) ** 2
    assert_array_is_the_one_element_case(transmission_probability, spec, e)
    assert_array_is_the_one_element_case(step_bound, spec, e)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs() | smooth_specs(),
       energies=st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                            allow_infinity=False), min_size=1, max_size=20))
def test_wavenumbers_array_is_the_one_element_case(spec, energies):
    e = np.array(energies, dtype=complex)
    km, kp = asymptotic_wavenumbers(spec, e, C)
    assert km.shape == kp.shape == e.shape
    for i, x in enumerate(energies):
        one = asymptotic_wavenumbers(spec, e[i:i + 1], C)
        number = asymptotic_wavenumbers(spec, x, C)
        assert all(type(k) is complex for k in number)
        assert [_bits(k) for k in (km[i], kp[i])] == [_bits(k[0]) for k in one] \
            == list(map(_bits, number))


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
