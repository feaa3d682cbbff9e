"""Canonicalization of the Eckart family to the (Mobius)^2 form
A0 + overall * ((E1 + F1 u)/(E2 + F2 u))^2 with u = exp(-2 x / a).

Each family member is a quadratic in tanh(x/a) (full-line potentials) or in
coth(x/a') (half-line potentials); completing the square fixes A0 and leaves
a perfect-square quadratic in u over (1 +/- u)^2.  Members that are merely
affine in tanh/coth (the pure tanh step, Hulthen) have a simple pole or a
non-square structure and admit no exact (Mobius)^2 form; canonicalize
reports those as failures with a reason rather than returning an
approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CanonicalizationError
from .potentials import (
    EckartReduction,
    Hua,
    Hulthen,
    ManningRosen,
    Mobius2,
    Morse,
    Tietz,
    evaluate,
    is_scattering,
    normal_form,
)

__all__ = ["CanonicalForm", "canonicalize"]


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalize: V_original(x) = evaluate(form, x - shift).

    ``scattering`` records whether the form defines a scattering problem on
    the full line; ``degenerate`` marks limiting members (Morse-type F2 = 0,
    pole-bearing half-line potentials).
    """

    form: Mobius2
    shift: float = 0.0
    scattering: bool = True
    degenerate: bool = False
    notes: str = ""

    def evaluate(self, x):
        return evaluate(self.form, np.asarray(x, dtype=float) - self.shift)


def _mobius2_from_quadratic(c0, c1, c2, a, d1) -> Mobius2:
    """V = c0 + c1 w + c2 w^2 -> Mobius2, for w = tanh(x/a) (d1 = +2) or
    w = coth(x/a) (d1 = -2, a (1 - u) pole).

    In u = e^{-2x/a}, V = P(u) / (1 + u)^2 for tanh and P(u) / (1 - u)^2 for
    coth, with P = p2 u^2 + p1 u + p0.  Splitting off A0 (u^2 + d1 u + 1)
    leaves q2 u^2 + q1 u + q0, a perfect square.
    """
    p2c = c0 - c1 + c2
    p1c = d1 * (c0 - c2)
    p0c = c0 + c1 + c2
    lead = p2c + p0c - (d1 / 2.0) * p1c  # 4 c2 of the tanh/coth quadratic
    if lead == 0:
        raise CanonicalizationError(
            "potential is affine in tanh/coth: no exact (Mobius)^2 form "
            "(the square's leading coefficient vanishes)"
        )
    a0 = (4.0 * p2c * p0c - p1c * p1c) / (4.0 * lead)
    q2 = p2c - a0
    q1 = p1c - a0 * d1
    q0 = p0c - a0
    if q2 != 0.0:
        r = -q1 / (2.0 * q2)  # double root of the perfect square
        return Mobius2(A0=a0, E1=-r, F1=1.0, E2=1.0, F2=d1 / 2.0, a=a, overall=q2)
    return Mobius2(A0=a0, E1=1.0, F1=0.0, E2=1.0, F2=d1 / 2.0, a=a, overall=q0)


def canonicalize(spec) -> CanonicalForm:
    """Exact (Mobius)^2 representation of an Eckart-family potential.

    Raises CanonicalizationError for potentials outside the family and for
    the degenerate affine members (pure tanh, Hulthen) whose simple-pole /
    affine structure has no exact squared-Mobius representation.
    """
    if isinstance(spec, Mobius2):
        return CanonicalForm(spec, 0.0, scattering=is_scattering(spec))

    if isinstance(spec, Tietz):
        scattering = is_scattering(spec)
        notes = {"sinh": "sinh denominator: pole at x = 0", "cosh": "",
                 "exp": "exp denominator: Morse-type F2 = 0 limit"}[spec.kind]
        return CanonicalForm(spec.mobius2(), 0.0, scattering, not scattering, notes)

    if isinstance(spec, Hua):
        scattering = is_scattering(spec)
        if spec.q < 0:
            # (1+|q|) sinh + (1-|q|)... maps to a cosh-type Tietz via
            # tanh(theta) = (1+q)/(1-q)
            theta = math.atanh((1.0 + spec.q) / (1.0 - spec.q))
            notes = f"cosh-type Tietz with theta = {theta:.6g}"
        elif spec.q == 0.0:
            notes = "q = 0: Morse limit, confining on the left"
        else:
            theta = math.atanh((1.0 - spec.q) / (1.0 + spec.q))
            notes = f"sinh-type Tietz with theta = {theta:.6g}; pole at x = (a/2) ln q"
        return CanonicalForm(spec.mobius2(), 0.0, scattering, not scattering, notes)

    red = normal_form(spec) if is_scattering(spec) else None
    if isinstance(red, EckartReduction):
        # V = mid + half tanh(u) + v0 sech^2(u), with sech^2 = 1 - tanh^2
        if red.v0 == 0.0:
            raise CanonicalizationError(
                "pure tanh potential is affine in tanh: no (Mobius)^2 form"
            )
        mid = 0.5 * (red.v_minus + red.v_plus)
        half = 0.5 * (red.v_plus - red.v_minus)
        notes = f"origin shifted by {red.shift:.6g}" if red.shift else ""
        form = _mobius2_from_quadratic(mid + red.v0, half, -red.v0, red.a, 2.0)
        return CanonicalForm(form, red.shift, notes=notes)

    if isinstance(spec, Morse):
        # V0 (1 - e^{x0/(2a')} u)^2 with u = e^{-2x/(2a)}: F2 = 0, a limiting
        # (confining) member that defines no scattering problem
        form = Mobius2(A0=0.0, E1=1.0, F1=-math.exp(spec.x0 / spec.a),
                       E2=1.0, F2=0.0, a=2.0 * spec.a, overall=spec.V0)
        return CanonicalForm(form, 0.0, scattering=False, degenerate=True,
                             notes="Morse: F2 = 0 limit, confining on the left")

    if isinstance(spec, ManningRosen):
        if spec.A == 0.0:
            raise CanonicalizationError(
                "Manning-Rosen with A = 0 (the Hulthen potential) is affine "
                "in coth(x/2b): its simple pole admits no (Mobius)^2 form"
            )
        # in w = coth(x/(2b)): V = (A/4) w^2 + (B-A)/2 w + (A/4 - B/2)
        form = _mobius2_from_quadratic(0.25 * spec.A - 0.5 * spec.B, 0.5 * (spec.B - spec.A),
                                       0.25 * spec.A, 2.0 * spec.b, -2.0)
        return CanonicalForm(form, 0.0, scattering=False, degenerate=True,
                             notes="half-line potential with a pole at x = 0")

    if isinstance(spec, Hulthen):
        raise CanonicalizationError(
            "Hulthen is affine in coth(x/2a) with a simple pole at x = 0; "
            "a (Mobius)^2 potential has only double poles, so no exact form "
            "exists (it is the A -> 0 limit of Manning-Rosen)"
        )

    raise CanonicalizationError(
        f"{type(spec).__name__} is not in the Eckart/(Mobius)^2 family"
    )
