"""The shared normal forms: each class's form against its own textbook V(x),
construction-time validation, and equivalences between catalog members
that share a form."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    PhysicalConstants,
    PoschlTellerSech2,
    RectBarrier,
    Sech2,
    Tietz,
    canonicalize,
    closed_form_qnfs,
    evaluate,
    is_scattering,
    transmission_amplitude,
    transmission_probability,
)
from qnf1d.errors import AtPoleError, DomainError
from qnf1d.potentials import EckartReduction, Interfaces, normal_form
from qnf1d.serialize import TYPE_NAMES, dict_to_spec

C = PhysicalConstants()

# one valid parameter set per catalog type
SAMPLES = {
    "delta": {"alpha": 0.7},
    "double_delta": {"alpha": 0.8, "a": 1.2},
    "asym_double_delta": {"alpha_plus": 0.6, "alpha_minus": 1.1, "a": 0.8},
    "step": {"V0": 1.2},
    "rect_barrier": {"V0": 1.5, "a": 0.7},
    "asym_rect_barrier": {"V1": 0.2, "V2": 2.0, "V3": -0.3, "a": 0.6},
    "tanh": {"V_minus": 0.0, "V_plus": 2.0, "a": 1.0},
    "sech2": {"V0": -1.0, "a": 1.0},
    "poschl_teller": {"V0": -0.7, "a": 1.3},
    "eckart": {"V_minus": 1.0, "V_plus": -0.5, "V0": 2.0, "a": 0.7},
    "rosen_morse": {"A": 0.5, "B": 1.0, "C": -0.8, "a": 1.2},
    "morse_feshbach": {"V0": 0.8, "mu": 0.7, "L": 1.1},
    "mobius2": {"A0": 0.3, "E1": 1.0, "F1": 2.0, "E2": 1.0, "F2": 3.0, "a": 1.0,
                "overall": 0.7},
    "morse": {"V0": 1.0, "x0": 0.4, "a": 0.9},
    "manning_rosen": {"A": 1.3, "B": -0.6, "b": 0.8},
    "hulthen": {"V0": 1.0, "a": 1.0},
    "tietz": {"V0": 1.1, "x0": 0.3, "a": 0.9, "kind": "cosh"},
    "hua": {"V0": 1.2, "q": -2.0, "a": 1.0},
}

# the delta couplings (at x = -a, at x = +a) each interface class declares
COUPLINGS = {
    "delta": lambda s: (s.alpha, 0.0),
    "double_delta": lambda s: (s.alpha, s.alpha),
    "asym_double_delta": lambda s: (s.alpha_plus, s.alpha_minus),
    "step": lambda s: (0.0, 0.0),
    "rect_barrier": lambda s: (0.0, 0.0),
    "asym_rect_barrier": lambda s: (0.0, 0.0),
}

GRID = np.linspace(-6.0, 6.0, 241)


def test_samples_cover_the_catalog():
    assert set(SAMPLES) == set(TYPE_NAMES)


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_form_reproduces_the_textbook_potential(name):
    spec = dict_to_spec({"type": name, **SAMPLES[name]})
    if not is_scattering(spec):
        assert name in ("morse", "manning_rosen", "hulthen")
        return
    form = normal_form(spec)
    assert normal_form(spec) is form  # built once per instance
    v = evaluate(spec, GRID)
    dev = np.max(np.abs(form.evaluate(GRID) - v))
    assert dev < 1e-12 * (1.0 + np.max(np.abs(v)))
    if name in COUPLINGS:
        assert isinstance(form, Interfaces)
        assert (form.alpha_left, form.alpha_right) == COUPLINGS[name](spec)
    else:
        assert isinstance(form, EckartReduction)


@pytest.mark.parametrize("name", sorted(TYPE_NAMES))
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_parameters_rejected_at_construction(name, bad):
    for field in dataclasses.fields(TYPE_NAMES[name]):
        if field.name == "kind":
            continue
        doc = {"type": name, **SAMPLES[name], field.name: bad}
        with pytest.raises(DomainError, match=field.name):
            dict_to_spec(doc)


@pytest.mark.parametrize("field", ["hbar", "mass"])
def test_non_finite_constants_rejected(field):
    with pytest.raises(DomainError):
        PhysicalConstants(**{field: math.nan})
    with pytest.raises(DomainError):
        PhysicalConstants(**{field: 0.0})


def _same_amplitudes(s1, s2, ks):
    for k in ks:
        try:
            t1 = transmission_amplitude(s1, k, C).t
        except AtPoleError:
            continue
        if not abs(t1) < 1e6:
            continue
        t2 = transmission_amplitude(s2, k, C).t
        assert abs(t1 - t2) <= 1e-12 * max(1.0, abs(t1))
    v_minus, v_plus = normal_form(s1).limits
    for e in np.linspace(max(v_minus, v_plus) + 0.05, max(v_minus, v_plus) + 5.0, 9):
        T1 = transmission_probability(s1, float(e), C)
        assert transmission_probability(s2, float(e), C) == pytest.approx(T1, abs=1e-12)


def _same_closed_form_qnfs(s1, s2, n_range):
    k1 = [r.k for r in closed_form_qnfs(s1, n_range, C)]
    k2 = [r.k for r in closed_form_qnfs(s2, n_range, C)]
    assert len(k1) == len(k2)
    for a, b in zip(k1, k2):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


coupling = st.floats(0.05, 2.0) | st.floats(-2.0, -0.05)
length = st.floats(0.1, 3.0)
level = st.floats(-3.0, 3.0).filter(lambda v: abs(v) > 0.05)
wavenumbers = st.lists(st.complex_numbers(max_magnitude=6.0).filter(lambda k: abs(k) > 0.05
                                                                     and abs(k.imag) < 2.0),
                       min_size=1, max_size=6)


@settings(max_examples=40, deadline=None)
@given(alpha=coupling, a=length, ks=wavenumbers)
def test_double_delta_is_equal_coupling_pair(alpha, a, ks):
    dd, asym = DoubleDelta(alpha, a), AsymDoubleDelta(alpha, alpha, a)
    assert np.all(evaluate(dd, GRID) == evaluate(asym, GRID))
    _same_amplitudes(dd, asym, ks)
    _same_closed_form_qnfs(dd, asym, (-3, 3))


@settings(max_examples=40, deadline=None)
@given(alpha=coupling, a=length, ks=wavenumbers)
def test_delta_is_pair_with_one_coupling(alpha, a, ks):
    single, asym = Delta(alpha), AsymDoubleDelta(alpha, 0.0, a)
    _same_amplitudes(single, asym, ks)
    _same_closed_form_qnfs(single, asym, (0, 2))


@settings(max_examples=40, deadline=None)
@given(v0=level, a=length, ks=wavenumbers)
def test_rect_barrier_is_asym_barrier_on_zero_levels(v0, a, ks):
    rect, asym = RectBarrier(v0, a), AsymRectBarrier(0.0, v0, 0.0, a)
    assert np.all(evaluate(rect, GRID) == evaluate(asym, GRID))
    _same_amplitudes(rect, asym, ks)


@settings(max_examples=40, deadline=None)
@given(v0=level, a=length, ks=wavenumbers)
def test_poschl_teller_is_sech2(v0, a, ks):
    pt, s2 = PoschlTellerSech2(v0, a), Sech2(v0, a)
    assert np.all(evaluate(pt, GRID) == evaluate(s2, GRID))
    _same_amplitudes(pt, s2, ks)
    _same_closed_form_qnfs(pt, s2, (0, 3))


@settings(max_examples=25, deadline=None)
@given(v0=st.floats(0.2, 3.0), x0=st.floats(-1.0, 1.0), a=st.floats(0.3, 2.0), ks=wavenumbers)
def test_cosh_tietz_is_its_canonical_form(v0, x0, a, ks):
    tietz = Tietz(v0, x0, a, "cosh")
    form = canonicalize(tietz).form
    v = evaluate(tietz, GRID)
    assert np.max(np.abs(evaluate(form, GRID) - v)) < 1e-12 * (1.0 + np.max(np.abs(v)))
    _same_amplitudes(tietz, form, ks)
    _same_closed_form_qnfs(tietz, form, (0, 3))
