"""The vectorized bracketed root finder (potentials._find_roots) against
scipy's scalar brentq, on the imaginary-axis towers of barriers, wells and
delta pairs and on the equal delta-pair resonances.

scipy.optimize is imported here only: the library has no use for it.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from qnf1d import (
    AsymDoubleDelta,
    DoubleDelta,
    PhysicalConstants,
    RectBarrier,
    resonances,
    transcendental_qnfs,
)
from qnf1d import potentials, qnf
from qnf1d.potentials import _find_roots, normal_form
from qnf1d.qnf import _complex, _scan_brackets

C = PhysicalConstants()


def sample_specs():
    """300 barriers and wells with V0 = +-10^U(-3, 2) and a = 10^U(-1.5, 0.7),
    two deep wells and two binding delta pairs."""
    rng = np.random.default_rng(20261019)
    specs = [RectBarrier(float(rng.choice([-1.0, 1.0]) * 10 ** rng.uniform(-3, 2)),
                         float(10 ** rng.uniform(-1.5, 0.7))) for _ in range(300)]
    return specs + [RectBarrier(-70.17, 4.08), RectBarrier(-50.0, 1.0),
                    DoubleDelta(-1.5, 0.8), AsymDoubleDelta(-1.0, -0.7, 1.0)]


SPECS = sample_specs()
ALPHAS = (1.0, 0.5, -0.7, 3.0)


def brentq_roots(f, lo, hi, f_lo, f_hi):
    """The reference: one scalar brentq per bracket, to adjacent doubles up
    to its own relative tolerance."""
    scalar = lambda x: float(f(np.array([x]))[0])  # noqa: E731
    return np.array([brentq(scalar, a, b, xtol=1e-300, rtol=8.9e-16)
                     for a, b in zip(lo.tolist(), hi.tolist())], dtype=float)


def axis_f(spec):
    """The function whose roots the imaginary-axis tower brackets."""
    form = normal_form(spec)
    return lambda y: form.denominator(_complex(0.0, y), C.p2)[0].imag


def crosses_at(f, x):
    """f is 0 at each x, or changes sign between x and a neighbouring double."""
    near = f(np.stack([np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]))
    s = np.sign(near)
    return (s[1] == 0) | (s[0] * s[1] < 0) | (s[1] * s[2] < 0)


@pytest.fixture(scope="module")
def brentq_towers():
    saved = qnf._find_roots
    qnf._find_roots = brentq_roots
    try:
        return [transcendental_qnfs(s, "imaginary_axis", C) for s in SPECS]
    finally:
        qnf._find_roots = saved


@pytest.fixture(scope="module")
def brentq_resonances():
    saved = potentials._find_roots
    potentials._find_roots = brentq_roots
    try:
        return [resonances(DoubleDelta(alpha, 1.0), 50, C) for alpha in ALPHAS]
    finally:
        potentials._find_roots = saved


def test_axis_towers_match_brentq(brentq_towers):
    # the tower keeps, within 8 ulps of the root of f, the double with the
    # least residual |den / k2| / B; that close to a root the residual is
    # rounding noise, so a root an ulp away can pick another double
    members = moved = 0
    for spec, ref in zip(SPECS, brentq_towers):
        got = transcendental_qnfs(spec, "imaginary_axis", C)
        assert [r.classification for r in got] == [r.classification for r in ref], spec
        for r, q in zip(got, ref):
            assert r.k.real == q.k.real == 0.0
            assert abs(r.k.imag - q.k.imag) <= 32 * np.spacing(abs(q.k.imag)), spec
            moved += r.k != q.k
        members += len(got)
    assert members > 600
    assert moved <= 0.02 * members


def test_resonances_match_brentq(brentq_resonances):
    for alpha, ref in zip(ALPHAS, brentq_resonances):
        got = resonances(DoubleDelta(alpha, 1.0), 50, C)
        assert [e.index for e in got] == [e.index for e in ref]
        assert len(got) >= 49
        for e, q in zip(got, ref):
            assert e.kind == q.kind == "exact"
            assert e.k == pytest.approx(q.k, rel=4.5e-16, abs=0.0)


def test_axis_roots_cross_zero_at_adjacent_doubles():
    found = 0
    for spec in SPECS:
        f = axis_f(spec)
        form = normal_form(spec)
        ymax = 4.0 * max(50.0 / form.a, 10.0)
        brackets = _scan_brackets(f, np.linspace(-ymax, ymax, 4001))
        x = _find_roots(f, *brackets)
        assert np.all((brackets[0] <= x) & (x <= brackets[1]))
        assert crosses_at(f, x).all(), spec
        found += len(x)
    assert found > 300


@pytest.mark.parametrize("alpha", ALPHAS)
def test_resonance_roots_cross_zero_at_adjacent_doubles(alpha):
    k0 = 0.5 * C.p2 * alpha
    theta = 2.0 * np.array([e.k for e in resonances(DoubleDelta(alpha, 1.0), 50, C)])
    f = lambda th: th / 2.0 + k0 * np.tan(th)  # noqa: E731
    # k = theta / (2a) with a = 1 is exact, so theta is the root found
    assert crosses_at(f, theta).all()


WINDOWS = np.arange(1, 21) * math.pi


@pytest.mark.parametrize("f, lo, hi", [
    # brackets of one function that close after different numbers of steps
    (lambda x: np.cos(x) - x, [0.0, 0.5, -1.0], [1.0, 0.9, 5.0]),
    (lambda x: x ** 3 - 2.0, [0.0, 1.0, -10.0], [2.0, 1.5, 10.0]),
    (lambda x: np.tan(x) - x, WINDOWS, WINDOWS + (0.5 * math.pi - 1e-9)),
    # a root near 0 (a barrier's lower damped mode sits at y = k0^2 a)
    (lambda x: x - 1e-30, [0.0, -1.0, 1e-31], [1.0, 1.0, 1e-29]),
    # a root at an end, and a bracket lo == hi that is its own root
    (lambda x: x - 0.25, [0.0, 0.25, 0.25], [0.25, 1.0, 0.25]),
    # so steep at the root that interpolation fails and bisection takes over
    (lambda x: np.sign(x - 0.3) * np.abs(x - 0.3) ** 0.1, [0.0, -5.0], [1.0, 0.7]),
], ids=["cos", "cubic", "tan", "near_zero", "at_an_end", "cusp"])
def test_each_bracket_closes_at_adjacent_doubles(f, lo, hi):
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    x = _find_roots(f, lo, hi, f(lo), f(hi))
    assert np.all((np.minimum(lo, hi) <= x) & (x <= np.maximum(lo, hi)))
    assert crosses_at(f, x).all()
    ref = brentq_roots(f, lo, hi, f(lo), f(hi))
    assert np.all(np.abs(x - ref) <= 4 * np.spacing(np.abs(ref)))


def test_no_brackets_no_calls():
    def f(x):
        raise AssertionError("called")

    empty = np.empty(0)
    assert _find_roots(f, empty, empty, empty, empty).shape == (0,)
