import math

import numpy as np
import pytest

from qnf1d import (
    Eckart,
    Hua,
    Hulthen,
    ManningRosen,
    Mobius2,
    Morse,
    MorseFeshbach,
    PoschlTellerSech2,
    RosenMorse,
    Sech2,
    Tanh,
    Tietz,
    canonicalize,
    evaluate,
)
from qnf1d.errors import CanonicalizationError

FULL_LINE = np.linspace(-6.0, 6.0, 201)
HALF_LINE = np.linspace(0.05, 8.0, 201)


def normalized_deviation(spec, grid):
    cf = canonicalize(spec)
    v = evaluate(spec, grid)
    dev = np.max(np.abs(v - cf.evaluate(grid)))
    return cf, dev / (1.0 + np.max(np.abs(v)))


CASES = [
    (Eckart(0.0, 2.0, -1.0, 1.0), FULL_LINE, True, False),
    (Eckart(1.0, -0.5, 2.0, 0.7), FULL_LINE, True, False),
    (Sech2(-1.0, 1.0), FULL_LINE, True, False),
    (Sech2(2.5, 0.8), FULL_LINE, True, False),
    (PoschlTellerSech2(-0.7, 1.3), FULL_LINE, True, False),
    (RosenMorse(0.5, 1.0, -0.8, 1.2), FULL_LINE, True, False),
    (MorseFeshbach(0.8, 0.7, 1.1), FULL_LINE, True, False),
    (MorseFeshbach(-0.4, -0.5, 0.9), FULL_LINE, True, False),
    (Morse(1.0, 0.4, 0.9), FULL_LINE, False, True),
    (ManningRosen(1.3, -0.6, 0.8), HALF_LINE, False, True),
    (Tietz(1.1, 0.3, 0.9, "sinh"), HALF_LINE, False, True),
    (Tietz(1.1, 0.3, 0.9, "cosh"), FULL_LINE, True, False),
    (Tietz(1.1, 0.3, 0.9, "exp"), FULL_LINE, False, True),
    (Hua(1.2, -2.0, 1.0), FULL_LINE, True, False),
    (Hua(1.2, 0.5, 1.0), HALF_LINE, False, True),
    (Mobius2(0.3, 1.0, 2.0, 1.0, 3.0, 1.0, overall=0.7), FULL_LINE, True, False),
]


@pytest.mark.parametrize(
    "spec,grid,scattering,degenerate", CASES,
    ids=[f"{type(s).__name__}_{i}" for i, (s, *_rest) in enumerate(CASES)],
)
def test_pointwise_identity(spec, grid, scattering, degenerate):
    cf, dev = normalized_deviation(spec, grid)
    assert dev < 1e-12
    assert cf.scattering == scattering
    assert cf.degenerate == degenerate


def test_eckart_rosen_morse_morse_feshbach_identity():
    # one underlying potential written in the three historical ways
    v1, mu, L = 0.8, 0.7, 1.1
    mf = MorseFeshbach(v1, mu, L)
    c1 = v1 * math.cosh(mu) ** 2
    d = math.tanh(mu)
    rm = RosenMorse(c1 * (d * d + 1.0), 2.0 * d * c1, -c1, L)
    eck = Eckart(c1 * (d - 1.0) ** 2, c1 * (d + 1.0) ** 2, -c1, L)
    shifted = FULL_LINE + mu * L
    assert np.max(np.abs(evaluate(mf, shifted) - evaluate(rm, FULL_LINE))) < 1e-12
    assert np.max(np.abs(evaluate(rm, FULL_LINE) - evaluate(eck, FULL_LINE))) < 1e-12
    # and all three canonicalize to the same Moebius^2 coefficients
    f_rm = canonicalize(rm).form
    f_eck = canonicalize(eck).form
    f_mf = canonicalize(mf).form
    for attr in ("A0", "E1", "F1", "E2", "F2", "a", "overall"):
        assert getattr(f_rm, attr) == pytest.approx(getattr(f_eck, attr), abs=1e-12)
        assert getattr(f_mf, attr) == pytest.approx(getattr(f_eck, attr), abs=1e-12)
    assert canonicalize(mf).shift == pytest.approx(mu * L)


def test_hua_negative_q_reports_cosh_tietz():
    cf = canonicalize(Hua(1.2, -2.0, 1.0))
    assert cf.scattering
    assert "cosh-type Tietz" in cf.notes
    theta = math.atanh((1.0 - 2.0) / (1.0 + 2.0))
    assert f"{theta:.6g}" in cf.notes


def test_hua_positive_q_is_pole_bearing_sinh_tietz():
    cf = canonicalize(Hua(1.2, 0.5, 1.0))
    assert not cf.scattering
    assert "sinh-type Tietz" in cf.notes
    # the recorded pole location x = (a/2) ln q
    x_pole = 0.5 * math.log(0.5)
    u = math.exp(-2.0 * x_pole / 1.0)
    assert 1.0 - 0.5 * u == pytest.approx(0.0, abs=1e-12)


def test_morse_is_degenerate_limit():
    cf = canonicalize(Morse(1.0, 0.4, 0.9))
    assert cf.form.F2 == 0.0
    assert cf.degenerate and not cf.scattering


def test_mobius2_is_fixed_point():
    spec = Mobius2(0.3, 1.0, 2.0, 1.0, 3.0, 1.0, overall=0.7)
    cf = canonicalize(spec)
    assert cf.form == spec


def test_hulthen_has_no_exact_form():
    with pytest.raises(CanonicalizationError, match="simple pole"):
        canonicalize(Hulthen(1.0, 1.0))


def test_hulthen_is_manning_rosen_special_case():
    # the inter-connection that *is* exact: Hulthen = Manning-Rosen at A = 0
    hu = Hulthen(0.9, 1.3)
    mr = ManningRosen(0.0, 0.9, 1.3)
    assert np.max(np.abs(evaluate(hu, HALF_LINE) - evaluate(mr, HALF_LINE))) < 1e-14
    with pytest.raises(CanonicalizationError):
        canonicalize(mr)


def test_pure_tanh_rejected():
    with pytest.raises(CanonicalizationError, match="affine"):
        canonicalize(Tanh(0.0, 1.0, 1.0))


def test_outside_family_rejected():
    from qnf1d import Delta

    with pytest.raises(CanonicalizationError):
        canonicalize(Delta(1.0))
    with pytest.raises(CanonicalizationError, match="not a catalog potential"):
        canonicalize(object())
