"""Complex special functions: multi-branch Lambert W and complex log-gamma.

Both are thin wrappers over ``scipy.special`` that add this library's error
contract.  The Lambert W function is the multi-valued inverse of
w -> w*exp(w); branches follow the standard counter-clockwise-continuous
convention (principal logarithm cut along the negative real axis), so
``lambert_w(0, x)`` and ``lambert_w(-1, x)`` are the two real branches on
(-1/e, 0).
"""

from __future__ import annotations

import cmath
import math

from scipy import special

from .errors import DomainError, GammaPoleError

__all__ = ["lambert_w", "lambert_w_derivative", "lambert_w_comtet", "log_gamma"]

_INV_E = math.exp(-1.0)
_TWO_PI = 2.0 * math.pi


def lambert_w(branch: int, z: complex) -> complex:
    """W_n(z): solution w of w*exp(w) = z on branch ``branch``.

    Residual contract: ``|w*exp(w) - z| <= 1e-12 * max(1, |z|)``.
    """
    z = complex(z)
    if z == 0:
        if branch == 0:
            return 0j
        raise DomainError(f"W_{branch}(0) is singular for branch != 0")
    if branch in (0, -1) and abs(z + _INV_E) < 1e-15 and abs(z.imag) < 1e-15:
        return complex(-1.0, 0.0)
    w = complex(special.lambertw(z, branch))
    if branch in (0, -1) and z.imag == 0.0 and w.imag != 0.0 and abs(w.imag) < 1e-12:
        w = complex(w.real, 0.0)
    return w


def lambert_w_derivative(branch: int, z: complex) -> complex:
    """dW_n/dz = W / (z (1 + W)); singular at z = 0 and at the branch point W = -1."""
    z = complex(z)
    if z == 0:
        raise DomainError("W'(z) is singular at z = 0")
    w = lambert_w(branch, z)
    if abs(w + 1.0) < 1e-12:
        raise DomainError("W'(z) is singular at the branch point W = -1")
    return w / (z * (1.0 + w))


def lambert_w_comtet(branch: int, z: complex, terms: int = 2) -> complex:
    """Asymptotic (Comtet) approximation to W_n(z) for large |ln z + 2*pi*i*n|.

    terms=1 gives L1 = ln z + 2*pi*i*n, terms=2 gives L1 - ln(L1), and
    terms=3 one further recursion L1 - ln(L1 - ln(L1)).  Accuracy improves
    as |n| grows at fixed z; a practical guideline is |L1| > 5.
    """
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    l1 = cmath.log(complex(z)) + 1j * _TWO_PI * branch
    if terms == 1:
        return l1
    if terms == 2:
        return l1 - cmath.log(l1)
    return l1 - cmath.log(l1 - cmath.log(l1))


def log_gamma(z: complex) -> complex:
    """Continuous (principal on the positive axis) log-gamma; exp of it is Gamma(z).

    Raises GammaPoleError at the poles z = 0, -1, -2, ... (for the potentials
    in this catalog those poles are exactly the quasi-normal wavenumbers, so
    they are detected rather than evaluated).
    """
    z = complex(z)
    if z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real):
        raise GammaPoleError(f"log_gamma pole at z = {z.real:g}")
    return complex(special.loggamma(z))
