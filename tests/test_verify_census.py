"""verify over random specs.  The draws follow the distributions of
piecewise_specs() | smooth_specs() (test_array_amplitudes), from a numpy
generator with a fixed seed, so a FAIL reproduces whatever else the test
session loads.  The named reproducers keep every known failure class in the
sample.  The checks that FAIL must be exactly the committed table, whose
rows name the ROADMAP item that mends them: a fix edits the table.  The QNF
reproducers, which the smooth QNF check once failed, must pass it.  Under
--hypothesis-profile=explore the census also runs on seeds 2 to 4, where
every FAIL must be in the table.  verify's amplitude check is checked
against the loop of batches it replays, over the same draws."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Hua,
    Mobius2,
    MorseFeshbach,
    PhysicalConstants,
    RectBarrier,
    RosenMorse,
    Sech2,
    Step,
    Tanh,
    Tietz,
    numeric_amplitude,
    transmission_amplitude,
    verify,
)
from qnf1d import oracle
from qnf1d.checks import Check
from qnf1d.oracle import transfer_matrix_det_error
from qnf1d.potentials import EckartReduction, Interfaces, length_scale, normal_form
from test_array_amplitudes import piecewise_specs, smooth_specs

C = PhysicalConstants()

# smooth specs whose low-lying QNFs the Newton refinement on the ODE failed
# to certify: a member on the other sheet of the principal-root cut, a
# double pole, or a pole beyond the seed's basin; and deep wells that the
# eigen-solve failed on a fixed 10 nodes
QNF_REPRODUCERS = [
    Hua(1.2, -2.0, 1.0),  # a bound state on the other sheet
    Tanh(0.0, 0.6, 1.0),  # a double pole
    MorseFeshbach(0.7, 0.3, 1.0),
    MorseFeshbach(1.812, -0.915, 1.047),  # 0.049457i refined onto 0.21565i
    Eckart(0.0, 0.5, -0.4, 1.0),
    RosenMorse(0.0, -0.215, -0.210, 1.943),
    Mobius2(0.0953, 1.011, 0.169, 1.0, 1.2, 2.925, 0.0677),
    Hua(1.503, -0.486, 1.049),
    Tietz(0.312, 0.218, 2.314, "cosh"),
    Tanh(0.0, -0.242, 2.806),
    # deep wells whose low-lying members reach tower index 10 to 15, which
    # 10 collocation nodes do not represent
    Sech2(-50.0, 1.0),
    Sech2(-100.0, 1.0),
    Eckart(0.0, 1.0, -40.0, 1.0),
]

# the fixed cases: ROADMAP's reproducers of each known class
REPRODUCERS = QNF_REPRODUCERS + [
    RectBarrier(5e-9, 1.0),  # inner ~ outer wavenumber cancellation (item 6)
    AsymRectBarrier(0.5947, 0.022222222222222223, 0.022222222222222227, 1.5),  # the same
    AsymRectBarrier(0.5725, 0.5725, 0.1746, 1.7466),  # a V1 == V2 barrier (item 6)
    DoubleDelta(1.3051932532822195, 1.3733252972316858),  # determinant rounding (item 6)
    Delta(0.05),  # a pole within a grid cell of the region's floor (item 8)
    AsymDoubleDelta(0.0835, -0.0355, 1.967),  # the same
    Eckart(0.0, 2.0, -1.0, 1.0),  # the README Eckart
    Tanh(0.0, 2.0, 1.0),  # its one low-lying member is cancelled (item 5)
    # determinant rounding on an unequal barrier, 6.7e-12 (item 6)
    AsymRectBarrier(-1.128118076945254, 1.9089627596630316, -0.30513573012964956,
                    0.999828070938855),
    RectBarrier(-0.18111066515885835, 2.5694615639002065),  # a pole just above the floor (item 8)
]

# (class, check) -> the ROADMAP item that mends it
KNOWN_FAILS = {
    ("AsymRectBarrier", "amplitude agreement"): 6,
    ("RectBarrier", "amplitude agreement"): 6,
    ("DoubleDelta", "transfer-matrix determinant"): 6,
    ("AsymRectBarrier", "transfer-matrix determinant"): 6,
    ("RectBarrier", "QNF/pole bijection"): 8,
    ("Delta", "QNF/pole bijection"): 8,
    ("AsymDoubleDelta", "QNF/pole bijection"): 8,
}


def census_specs(seed=1, draws=300):
    """draws specs, alternately piecewise and smooth: couplings and levels
    +-[0.05, 2] in units of a (a level is 0 with probability 1/2),
    a in [0.1, 3], the Morse-Feshbach shift in [-1, 1]."""
    rng = np.random.default_rng(seed)

    def unit():
        return float(rng.choice([-1.0, 1.0]) * rng.uniform(0.05, 2.0))

    def level():
        return 0.0 if rng.random() < 0.5 else unit()

    specs = []
    for i in range(draws):
        a = float(rng.uniform(0.1, 3.0))
        if i % 2 == 0:
            cls = [Delta, DoubleDelta, AsymDoubleDelta, Step, RectBarrier,
                   AsymRectBarrier][rng.integers(6)]
            if cls is Delta:
                spec = Delta(unit())
            elif cls is Step:
                spec = Step(level())
            elif cls is DoubleDelta:
                spec = DoubleDelta(unit() / a, a)
            elif cls is AsymDoubleDelta:
                spec = AsymDoubleDelta(unit() / a, unit() / a, a)
            elif cls is RectBarrier:
                spec = RectBarrier(level() / a**2, a)
            else:
                spec = AsymRectBarrier(level() / a**2, level() / a**2, level() / a**2, a)
        else:
            cls = [Sech2, Eckart, MorseFeshbach][rng.integers(3)]
            if cls is Sech2:
                spec = Sech2(level() / a**2, a)
            elif cls is Eckart:
                spec = Eckart(level() / a**2, level() / a**2, level() / a**2, a)
            else:
                spec = MorseFeshbach(level() / a**2, float(rng.uniform(-1.0, 1.0)), a)
        specs.append(spec)
    return specs


def census_class(spec):
    """The spec's class, or for the other Eckart reductions the kind of the
    normal form: tanh (V0 = 0), asymmetric Eckart or sech2."""
    form = normal_form(spec)
    if isinstance(spec, (MorseFeshbach, Hua)) or not isinstance(form, EckartReduction):
        return type(spec).__name__
    if form.v0 == 0.0:
        return "tanh"
    return "asymmetric Eckart" if form.v_minus != form.v_plus else "sech2"


def census_failures(specs):
    """The (class, check) pairs that FAIL over specs, and the (spec, check)
    pairs that SKIP without a reason."""
    failed, unexplained = set(), []
    for spec in specs:
        for check in verify(spec, C):
            if check.status == "fail":
                failed.add((census_class(spec), check.name))
            elif check.status == "skip" and not check.detail:
                unexplained.append((spec, check.name))
    return failed, unexplained


def test_verify_census_fails_only_in_the_known_classes():
    failed, unexplained = census_failures(census_specs() + REPRODUCERS)
    assert failed == set(KNOWN_FAILS)
    assert unexplained == []


@pytest.mark.skipif(settings.get_current_profile_name() != "explore",
                    reason="a wider census, run with --hypothesis-profile=explore")
@pytest.mark.parametrize("seed", [2, 3, 4])
def test_verify_census_other_seeds(seed):
    # the same draws from other seeds: each FAIL is one of the known classes
    failed, unexplained = census_failures(census_specs(seed))
    assert failed <= set(KNOWN_FAILS), failed - set(KNOWN_FAILS)
    assert unexplained == []


@pytest.mark.parametrize("spec", QNF_REPRODUCERS,
                         ids=[f"{type(s).__name__}-{i}" for i, s in enumerate(QNF_REPRODUCERS)])
def test_qnf_reproducer_passes(spec):
    # the eigen-solve certifies at least one member of each
    [check] = [r for r in verify(spec, C) if r.name == "low-lying QNFs vs ODE poles"]
    assert check.status == "pass", check
    assert not check.detail.startswith("0/"), check


def batched_checks(spec, c=C):
    """verify's amplitude agreement and its third record, from a loop of
    batches: each draws the shortfall (need - count rows) from verify's
    generator and calls each engine on it, until need samples keep |t| in
    (1e-6, 1e6) or 1000 rows are drawn; the third check's draws follow on
    the same generator.  The reference for verify's one call per engine on
    an oversampled draw."""
    rng = np.random.default_rng(20260810)
    form = normal_form(spec)
    piecewise = isinstance(form, Interfaces)
    a_scale = length_scale(spec)
    v_minus, v_plus = form.limits
    base = max(v_minus, v_plus)
    conv_k = np.sqrt(c.p2 * (np.linspace(base + 0.25, base + 4.0, 7) - v_minus))
    t_conv = None
    need = 100 if piecewise else 25
    worst = 0.0
    count = 0
    tries = 0
    while count < need and tries < 1000:
        n = min(need - count, 1000 - tries)
        tries += n
        if piecewise:
            r, phi = rng.uniform([0.0025, -math.pi], [1.0, math.pi], size=(n, 2)).T
            k = 10.0 * np.sqrt(r) * np.exp(1j * phi) / a_scale
        else:
            e = base + rng.uniform(0.2, 6.0, size=n)
            k = np.sqrt(c.p2 * (e - v_minus))
        ta = transmission_amplitude(spec, k, c).t
        if piecewise or t_conv is not None:
            tn = numeric_amplitude(spec, k, c).t
        else:
            tn, t_conv = np.split(numeric_amplitude(spec, np.concatenate([k, conv_k]), c).t, [n])
        keep = (1e-6 < np.abs(ta)) & (np.abs(ta) < 1e6) & ~np.isnan(tn)
        if keep.any():
            worst = max(worst, float(np.max(np.abs(ta[keep] - tn[keep]) / np.abs(ta[keep]))))
        count += int(keep.sum())
    tol = 1e-12 if piecewise else 1e-8
    amplitude = Check("amplitude agreement", "pass" if worst < tol else "fail", worst, tol,
                      f"{count} samples")
    if piecewise:
        re, im = rng.uniform([-8.0, -2.0], [8.0, 2.0], size=(20, 2)).T
        k = (re + 1j * im) / a_scale
        k = k[np.abs(k) * a_scale >= 0.05]
        name, value = "transfer-matrix determinant", float(
            np.max(transfer_matrix_det_error(spec, k, c), initial=0.0))
        tol = 1e-12
    else:
        t2 = numeric_amplitude(spec, conv_k, c, L=2.0 * oracle._ODE_HALF_WIDTH * a_scale,
                               rtol=1e-13).t
        name, value = "domain/step convergence", float(
            np.max(np.abs(t_conv - t2) / np.abs(t_conv)))
        tol = 1e-8
    return [amplitude, Check(name, "pass" if value < tol else "fail", value, tol)]


def assert_checks_replay_the_batches(spec):
    records = verify(spec, C)
    got = [records[0], records[2]]
    # repr gives each float's shortest round trip: equal reprs, equal bits
    assert repr(got) == repr(batched_checks(spec)), spec


def test_amplitude_check_replays_the_batches_over_the_census():
    for spec in census_specs() + REPRODUCERS:
        assert_checks_replay_the_batches(spec)


@settings(max_examples=40, deadline=None)
@given(spec=piecewise_specs() | smooth_specs())
def test_amplitude_check_replays_the_batches(spec):
    assert_checks_replay_the_batches(spec)


@pytest.mark.parametrize("spec, rows", [
    (RectBarrier(1.0, 1.0), [200]),
    # about 40 % of the disc draws keep |t| in range: each pass draws twice
    # the shortfall and falls short of it
    (RectBarrier(50.0, 1.0), [200, 48, 8, 4, 2]),
    # none do: five passes of 200 rows reach the 1000-row cap
    (RectBarrier(100.0, 1.0), [200] * 5),
], ids=["RectBarrier(1, 1)", "RectBarrier(50, 1)", "RectBarrier(100, 1)"])
def test_amplitude_check_passes(monkeypatch, spec, rows):
    # one numeric_amplitude call per pass of the amplitude check (the pole
    # search calls the 1/t of the engine that the wrapper names), and the
    # same records as the batches
    calls = []
    amplitude = oracle.numeric_amplitude

    @functools.wraps(amplitude)
    def counting(*args, **options):
        calls.append(args[1].size)
        return amplitude(*args, **options)

    monkeypatch.setattr(oracle, "numeric_amplitude", counting)
    assert_checks_replay_the_batches(spec)
    assert calls == rows
