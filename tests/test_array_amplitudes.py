"""Array-valued amplitude engines: an ndarray k gives t point by point, with
poles as inf and unrepresentable points as nan; a scalar k is the
one-element case, with a library error in place of nan."""

import cmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    numeric_amplitude,
    transmission_amplitude,
)
from qnf1d.errors import AtPoleError, DomainError, OverflowGuardError
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
def test_closed_form_matches_transfer_matrix(spec, ks):
    # the independent engine: 1/t as the pole scan reads it (0 at a pole), to
    # rounding, with the same poles and unrepresentable points
    k = np.array(ks, dtype=complex) / length_scale(spec)
    inv_cf = _inv_t(spec, k, C, transmission_amplitude, "incident")
    inv_tm = _inv_t(spec, k, C, numeric_amplitude, "incident")
    finite = np.isfinite(inv_cf)
    assert (finite == np.isfinite(inv_tm)).all(), (k, inv_cf, inv_tm)
    inv_cf, inv_tm = inv_cf[finite], inv_tm[finite]
    assert (np.abs(inv_cf - inv_tm) <= 1e-12 * np.maximum(1.0, np.abs(inv_cf))).all(), \
        (k, inv_cf, inv_tm)


def test_ode_array_is_the_scalar_loop():
    # the ODE engine has no stacked form: the array call loops the scalar one
    spec = Sech2(-1.0, 1.0)
    ks = np.array([0.7 + 0.1j, 1.3 - 0.2j, 0.0])
    t = numeric_amplitude(spec, ks, C).t
    assert t[0] == numeric_amplitude(spec, ks[0], C).t
    assert t[1] == numeric_amplitude(spec, ks[1], C).t
    assert cmath.isnan(t[2])


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
    for amplitude in (numeric_amplitude, transmission_amplitude):
        amp = amplitude(RectBarrier(1.0, 1.0), ks, C)
        assert amp.t.shape == (3, 4)
        assert amp.t[1, 2] == pytest.approx(amplitude(RectBarrier(1.0, 1.0), ks[1, 2], C).t,
                                            rel=1e-12)
