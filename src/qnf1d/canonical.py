"""Canonicalization of the Eckart family to the (Mobius)^2 form
A0 + overall * ((E1 + F1 u)/(E2 + F2 u))^2 with u = exp(-2 x / a).

Each spec class names its own squared-Moebius form next to its normal form
(``potentials._Spec._canonical``).  Each Eckart member is a quadratic in
tanh(x/a), and Manning-Rosen one in coth(x/a'); completing the square fixes
A0 and writes the square's coefficients without cancellation.  Members that
are merely affine in tanh/coth (the pure tanh step, Hulthen) have a simple
pole or a non-square structure and admit no exact (Mobius)^2 form;
canonicalize reports those as failures with a reason rather than returning
an approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CanonicalizationError
from .potentials import Mobius2, _Spec, evaluate, is_scattering

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


def canonicalize(spec) -> CanonicalForm:
    """Exact (Mobius)^2 representation of an Eckart-family potential.

    Raises CanonicalizationError for potentials outside the family and for
    the degenerate affine members (pure tanh, Hulthen) whose simple-pole /
    affine structure has no exact squared-Mobius representation.
    """
    if not isinstance(spec, _Spec):
        raise CanonicalizationError(f"{type(spec).__name__} is not a catalog potential")
    form, shift, notes = spec._canonical()
    scattering = is_scattering(spec)
    # a non-scattering member is a limit of the family, unless it is a
    # Mobius2 spec, which is its own form
    return CanonicalForm(form, shift, scattering, not scattering and form is not spec, notes)
