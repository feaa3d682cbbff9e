"""Invariants over random specs: T = |t|^2 from the closed forms, flux
conservation from the transfer matrix and the ODE oracle, the reflection
symmetry t(-k*) = t(k)* of every engine, the canonicalize round trip, the
closed-form tower's list view of its columns, and name invariance: specs
with one normal form give one t, T, tower, resonance family and verify
report.

Specs and wavenumbers come from the strategies of test_array_amplitudes, in
units of the length a."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import Phase, assume, example, given, settings, strategies as st

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    DoubleDelta,
    Eckart,
    Hua,
    ManningRosen,
    Morse,
    PhysicalConstants,
    PoschlTellerSech2,
    RectBarrier,
    RosenMorse,
    Sech2,
    Tanh,
    Tietz,
    canonicalize,
    closed_form_qnfs,
    evaluate,
    is_scattering,
    numeric_amplitude,
    resonances,
    scattering_limits,
    transmission_amplitude,
    transmission_probability,
    verify,
)
from qnf1d.potentials import EckartReduction, length_scale, normal_form
from qnf1d.qnf import _closed_form_tower, has_closed_form
from test_array_amplitudes import (
    length, level, piecewise_specs, scaled_wavenumbers, smooth_specs, unit,
)

C = PhysicalConstants()

specs = piecewise_specs() | smooth_specs()
symmetric_specs = specs.filter(lambda s: len(set(scattering_limits(s))) == 1)
asymmetric_specs = specs.filter(lambda s: len(set(scattering_limits(s))) == 2)
# energies above both limits, E - max(V-, V+) in units of 1/a^2
scaled_energies = st.lists(st.floats(0.05, 5.0), min_size=1, max_size=12)


def energies_and_wavenumbers(spec, scaled):
    """Real energies above both limits and their incidence-side k."""
    v_minus, v_plus = scattering_limits(spec)
    e = max(v_minus, v_plus) + np.array(scaled) / length_scale(spec) ** 2
    return e, np.sqrt(C.p2 * (e - v_minus))


def conjugation_error(spec, k, amplitude=transmission_amplitude):
    """max |t(-k*) - t(k)*| / |t(k)| over the k where 1e-6 < |t| < 1e6."""
    with np.errstate(all="ignore"):
        t = amplitude(spec, k, C).t
        t_mirror = amplitude(spec, -k.conj(), C).t
    keep = (1e-6 < np.abs(t)) & (np.abs(t) < 1e6)
    return float(np.max(np.abs(t_mirror[keep] - t[keep].conj()) / np.abs(t[keep]), initial=0.0))


@settings(max_examples=60, deadline=None)
@given(spec=specs, scaled=scaled_energies)
def test_probability_is_amplitude_squared(spec, scaled):
    # measured <= 2e-14 over 3000 examples
    e, k = energies_and_wavenumbers(spec, scaled)
    T = transmission_probability(spec, e, C)
    t = transmission_amplitude(spec, k, C).t
    assert np.max(np.abs(T - np.abs(t) ** 2)) <= 1e-10, (e, T, t)


@settings(max_examples=60, deadline=None)
@given(spec=piecewise_specs(), scaled=scaled_energies)
def test_transfer_matrix_conserves_flux(spec, scaled):
    # t and r of the transfer engine are flux-normalized; measured <= 3e-15
    _e, k = energies_and_wavenumbers(spec, scaled)
    amp = numeric_amplitude(spec, k, C)
    assert np.max(np.abs(np.abs(amp.r) ** 2 + np.abs(amp.t) ** 2 - 1.0)) <= 1e-12, (k, amp)


@settings(max_examples=60, deadline=None)
@given(spec=smooth_specs(), scaled=scaled_energies)
def test_ode_conserves_flux(spec, scaled):
    # the bound of the hand-picked test_oracle unitarity test; measured
    # <= 1.1e-12 over 1500 examples
    _e, k = energies_and_wavenumbers(spec, scaled)
    amp = numeric_amplitude(spec, k, C)
    assert np.max(np.abs(np.abs(amp.r) ** 2 + np.abs(amp.t) ** 2 - 1.0)) <= 1e-10, (k, amp)


@settings(max_examples=60, deadline=None)
@given(spec=symmetric_specs, ks=scaled_wavenumbers)
def test_reflection_symmetry_of_symmetric_asymptotes(spec, ks):
    # a real potential gives t(-k*) = t(k)* over the whole k plane when both
    # channels use k itself; measured <= 1.5e-15 over 3000 examples
    k = np.array(ks, dtype=complex) / length_scale(spec)
    assert conjugation_error(spec, k) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(spec=symmetric_specs, ks=scaled_wavenumbers)
def test_oracle_reflection_symmetry_of_symmetric_asymptotes(spec, ks):
    # find_poles folds its grid by this identity, so the transfer matrix and
    # the ODE must keep it as the closed forms do; measured <= 4.8e-16 (transfer
    # matrix) and exactly 0 (ODE) over 1500 examples
    k = np.array(ks, dtype=complex) / length_scale(spec)
    assert conjugation_error(spec, k, numeric_amplitude) <= 1e-12


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "with V- != V+ the transmitted wavenumber is the principal root "
    "sqrt(k^2 - p2 (V+ - V-)), so -k* keeps the sign of k+ where the "
    "mirrored pole needs -k+*; uniformizing the two-channel k plane "
    "(ROADMAP item 4) removes this branch choice"))
# no shrink phase: every drawn spec fails, and shrinking a strict xfail's
# failure only spends time
@settings(max_examples=20, deadline=None, report_multiple_bugs=False,
          phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(spec=asymmetric_specs, scaled=scaled_energies)
def test_reflection_symmetry_of_asymmetric_asymptotes(spec, scaled):
    # on the real axis above both limits; every drawn spec breaks it today
    # (relative error >= 0.1 over 3000 examples)
    _e, k = energies_and_wavenumbers(spec, scaled)
    assert conjugation_error(spec, k) <= 1e-12


def canonical_round_trip_error(spec):
    """max |V(x) - V_canonical(x)| over |x| <= 6a, relative to the largest
    level of the Eckart reduction."""
    red = normal_form(spec)
    x = np.linspace(-6.0, 6.0, 121) * red.a
    diff = np.abs(evaluate(spec, x) - canonicalize(spec).evaluate(x))
    return float(np.max(diff)) / max(abs(red.v_minus), abs(red.v_plus), abs(red.v0))


@st.composite
def degenerate_eckart(draw):
    """Eckart(V-, V+, (V- - V+)/4, a), where the canonical square loses its
    u^2 term: F1 = 0."""
    a = draw(length)
    v_minus, v_plus = draw(level) / a**2, draw(level) / a**2
    assume(v_minus != v_plus)
    return Eckart(v_minus, v_plus, (v_minus - v_plus) / 4.0, a)


@settings(max_examples=60, deadline=None)
@given(spec=smooth_specs().filter(lambda s: normal_form(s).v0 != 0.0) | degenerate_eckart())
def test_canonicalize_round_trip(spec):
    # the pure tanh (V0 = 0) has no squared-Moebius form.  Measured
    # <= 1.1e-15 on the degenerate members over 3000 examples
    assert canonical_round_trip_error(spec) <= 1e-9


@pytest.mark.parametrize("spec", [Eckart(0.7, 0.0, 0.175, 1.0), Eckart(0.9, 0.1, 0.2, 1.0)],
                         ids=str)
def test_canonicalize_round_trip_near_degenerate(spec):
    # V0 = (V- - V+)/4 up to rounding
    assert canonical_round_trip_error(spec) <= 1e-9


@st.composite
def moebius_type_specs(draw):
    """(spec, x) for the members that write their squared-Moebius form down:
    x spans |x| <= 6a where the spec scatters, 0.05a <= x <= 6a otherwise.
    Manning-Rosen with B = 2A is the member whose square loses its u term."""
    a = draw(length)
    cls = draw(st.sampled_from([ManningRosen, Morse, Tietz, Hua]))
    if cls is ManningRosen:
        A = draw(unit) / a**2
        spec = ManningRosen(A, 2.0 * A if draw(st.booleans()) else draw(level) / a**2, a)
    elif cls is Hua:
        spec = Hua(draw(unit) / a**2, draw(unit), a)
    elif cls is Tietz:
        spec = Tietz(draw(unit) / a**2, draw(st.floats(-1.0, 1.0)) * a, a,
                     draw(st.sampled_from(["sinh", "cosh", "exp"])))
    else:
        spec = Morse(draw(unit) / a**2, draw(st.floats(-1.0, 1.0)) * a, a)
    lo = -6.0 if is_scattering(spec) else 0.05
    return spec, np.linspace(lo, 6.0, 121) * a


@settings(max_examples=60, deadline=None)
@given(spec_x=moebius_type_specs())
def test_canonicalize_round_trip_moebius_type(spec_x):
    # relative to max |V| over x; measured <= 6e-15 over 3000 examples
    spec, x = spec_x
    v = evaluate(spec, x)
    diff = np.abs(v - canonicalize(spec).evaluate(x))
    assert float(np.max(diff)) <= 1e-9 * float(np.max(np.abs(v)))


def _cell(v):
    """A QnfResult field, floats by their bits."""
    if isinstance(v, complex):
        return struct.pack("<dd", v.real, v.imag)
    return struct.pack("<d", v) if isinstance(v, float) else v


@settings(max_examples=60, deadline=None)
@given(spec=smooth_specs() | piecewise_specs().filter(has_closed_form),
       lo=st.integers(-6, 8), width=st.integers(0, 30))
@example(spec=Sech2(-1.0, 1.0), lo=0, width=6)  # reflectionless: cancelled members
@example(spec=DoubleDelta(1.0, 1.0), lo=-5, width=10)  # Lambert W, trivial zero dropped
def test_closed_form_list_is_the_columns(spec, lo, width):
    # every field of every QnfResult is bitwise its row of the columns
    form = normal_form(spec)
    if isinstance(form, EckartReduction):  # gamma towers start at n = 0 (tanh: 1)
        lo = max(lo, 1 if form.v0 == 0.0 else 0)
    listed = closed_form_qnfs(spec, (lo, lo + width), C)
    tower = _closed_form_tower(spec, (lo, lo + width), C)
    n = len(tower.k)
    column = lambda v, default: [default] * n if v is None else v.tolist()  # noqa: E731
    rows = zip(tower.k.tolist(), [tower.method] * n, tower.residual.tolist(),
               tower.classification.tolist(), column(tower.branch, None),
               tower.sign.tolist(), column(tower.k_minus, None), column(tower.aux, None))
    assert [tuple(map(_cell, row)) for row in rows] == [
        tuple(map(_cell, (r.k, r.method, r.residual, r.classification, r.branch,
                          r.sign_choice, r.k_minus, r.aux))) for r in listed]
    if spec == Sech2(-1.0, 1.0):
        # its one bound state is a pole; every damped member is cancelled
        assert sorted(r.classification for r in listed)[:2] == ["bound_state", "cancelled"]
        assert {r.classification for r in listed} == {"bound_state", "cancelled"}


@st.composite
def same_form_specs(draw):
    """Specs of different classes with one normal form: the sech^2 names,
    the tanh step, the delta pair and the barrier."""
    a = draw(length)
    family = draw(st.sampled_from(["sech2", "tanh", "delta_pair", "barrier"]))
    if family == "sech2":
        v0 = draw(level) / a**2
        return (Sech2(v0, a), PoschlTellerSech2(v0, a), Eckart(0.0, 0.0, v0, a),
                RosenMorse(0.0, 0.0, v0, a))
    if family == "tanh":
        v_minus, v_plus = draw(level) / a**2, draw(level) / a**2
        return Tanh(v_minus, v_plus, a), Eckart(v_minus, v_plus, 0.0, a)
    if family == "delta_pair":
        alpha = draw(unit) / a
        return DoubleDelta(alpha, a), AsymDoubleDelta(alpha, alpha, a)
    v0 = draw(level) / a**2
    return RectBarrier(v0, a), AsymRectBarrier(0.0, v0, 0.0, a)


def _tower_cells(spec):
    """The closed-form tower over n = 0..6 with every float by its bits, or
    None where the spec has no closed form."""
    if not has_closed_form(spec):
        return None
    form = normal_form(spec)  # the pure tanh tower starts at n = 1
    lo = 1 if isinstance(form, EckartReduction) and form.v0 == 0.0 else 0
    return [tuple(map(_cell, dataclasses.astuple(r)))
            for r in closed_form_qnfs(spec, (lo, 6), C)]


@settings(max_examples=60, deadline=None)
@given(group=same_form_specs(), ks=scaled_wavenumbers, scaled=scaled_energies)
@example(group=(Sech2(-1.0, 1.0), RosenMorse(0.0, 0.0, -1.0, 1.0)), ks=[1.0], scaled=[1.0])
@example(group=(Tanh(0.0, 2.0, 1.0), Eckart(0.0, 2.0, 0.0, 1.0)), ks=[1.0], scaled=[1.0])
@example(group=(DoubleDelta(1.0, 1.0), AsymDoubleDelta(1.0, 1.0, 1.0)), ks=[1.0], scaled=[1.0])
def test_equal_normal_forms_give_equal_outputs(group, ks, scaled):
    # the outputs read the normal form, never the class name: equal bits
    first, *others = group
    k = np.array(ks, dtype=complex) / length_scale(first)
    e, _k = energies_and_wavenumbers(first, scaled)
    expected = (transmission_amplitude(first, k, C).t,
                transmission_probability(first, e, C).tolist(),
                _tower_cells(first), resonances(first, 8, C))
    for spec in others:
        assert normal_form(spec) == normal_form(first)
        got = (transmission_amplitude(spec, k, C).t,
               transmission_probability(spec, e, C).tolist(),
               _tower_cells(spec), resonances(spec, 8, C))
        np.testing.assert_array_equal(got[0], expected[0])
        assert got[1:] == expected[1:], (first, spec)


@pytest.mark.parametrize("pair", [
    (Sech2(-1.0, 1.0), RosenMorse(0.0, 0.0, -1.0, 1.0)),
    (Tanh(0.0, 0.6, 1.0), Eckart(0.0, 0.6, 0.0, 1.0)),  # a FAIL record, the same for both
    (DoubleDelta(1.0, 1.0), AsymDoubleDelta(1.0, 1.0, 1.0)),
    (RectBarrier(1.0, 1.0), AsymRectBarrier(0.0, 1.0, 0.0, 1.0)),
], ids=lambda pair: type(pair[0]).__name__)
def test_equal_normal_forms_give_equal_verify_reports(pair):
    # fixed pairs: a smooth verify costs 0.1 to 0.2 s
    first, second = (verify(spec, C) for spec in pair)
    assert first == second
    assert len(first) == 4
