"""verify over random specs.  The draws follow the distributions of
piecewise_specs() | smooth_specs() (test_array_amplitudes), from a numpy
generator with a fixed seed, so a FAIL reproduces whatever else the test
session loads.  The named reproducers keep every known failure class in the
sample.  The checks that FAIL must be exactly the committed table, whose
rows name the ROADMAP item that mends them: a fix edits the table."""

import numpy as np

from qnf1d import (
    AsymDoubleDelta,
    AsymRectBarrier,
    Delta,
    DoubleDelta,
    Eckart,
    Hua,
    MorseFeshbach,
    PhysicalConstants,
    RectBarrier,
    Sech2,
    Step,
    Tanh,
    verify,
)
from qnf1d.potentials import EckartReduction, normal_form

C = PhysicalConstants()

# the fixed cases: ROADMAP's reproducers of each known class
REPRODUCERS = [
    RectBarrier(5e-9, 1.0),  # inner ~ outer wavenumber cancellation (item 6)
    AsymRectBarrier(0.5947, 0.022222222222222223, 0.022222222222222227, 1.5),  # the same
    AsymRectBarrier(0.5725, 0.5725, 0.1746, 1.7466),  # a V1 == V2 barrier (item 6)
    DoubleDelta(1.3051932532822195, 1.3733252972316858),  # determinant rounding (item 6)
    Delta(0.05),  # a pole within a grid cell of the region's floor (item 8)
    AsymDoubleDelta(0.0835, -0.0355, 1.967),  # the same
    Eckart(0.0, 2.0, -1.0, 1.0),  # the README Eckart
    Hua(1.2, -2.0, 1.0),  # a bound state searched on the wrong sheet (item 4)
    Tanh(0.0, 0.6, 1.0),  # a double pole (item 5)
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
    ("asymmetric Eckart", "low-lying QNFs vs ODE poles"): 4,
    ("MorseFeshbach", "low-lying QNFs vs ODE poles"): 4,
    ("Hua", "low-lying QNFs vs ODE poles"): 4,
    ("tanh", "low-lying QNFs vs ODE poles"): 5,
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


def test_verify_census_fails_only_in_the_known_classes():
    failed, unexplained = set(), []
    for spec in census_specs() + REPRODUCERS:
        for check in verify(spec, C):
            if check.status == "fail":
                failed.add((census_class(spec), check.name))
            elif check.status == "skip" and not check.detail:
                unexplained.append((spec, check.name))
    assert failed == set(KNOWN_FAILS)
    assert unexplained == []
