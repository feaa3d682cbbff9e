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

import numpy as np
from scipy import special

from .errors import DomainError, GammaPoleError

__all__ = ["lambert_w", "lambert_w_derivative", "lambert_w_comtet", "log_gamma"]

_INV_E = math.exp(-1.0)
_TWO_PI = 2.0 * math.pi


def lambert_w(branch, z):
    """W_n(z): solution w of w*exp(w) = z on branch ``branch``.

    Residual contract: ``|w*exp(w) - z| <= 1e-12 * max(1, |z|)``.  On the
    real branches 0 and -1, z within 1e-15 of -1/e gives exactly -1, and a
    real z gives a real W where Im W < 1e-12.  An ndarray branch or z gives
    the broadcast array, nan where the scalar raises DomainError (z = 0 off
    branch 0).
    """
    array = isinstance(branch, np.ndarray) or isinstance(z, np.ndarray)
    n, z = np.asarray(branch), np.asarray(z, dtype=complex)
    real_branch = (n == 0) | (n == -1)
    w = special.lambertw(z, n)
    at_branch_point = real_branch & (np.abs(z + _INV_E) < 1e-15) & (np.abs(z.imag) < 1e-15)
    w = np.where(at_branch_point, -1.0 + 0j, w)
    snap = real_branch & (z.imag == 0.0) & (w.imag != 0.0) & (np.abs(w.imag) < 1e-12)
    w = np.where(snap, w.real + 0j, w)
    singular = (z == 0) & (n != 0)
    w = np.where(singular, complex("nan"), np.where(z == 0, 0j, w))
    if array:
        return w
    if singular:
        raise DomainError(f"W_{int(n)}(0) is singular for branch != 0")
    return complex(w)


def lambert_w_derivative(branch: int, z: complex) -> complex:
    """dW_n/dz = W / (z (1 + W)); singular at z = 0 and at the branch point W = -1."""
    z = complex(z)
    if z == 0:
        raise DomainError("W'(z) is singular at z = 0")
    w = lambert_w(branch, z)
    if abs(w + 1.0) < 1e-12:
        raise DomainError("W'(z) is singular at the branch point W = -1")
    return w / (z * (1.0 + w))


def lambert_w_comtet(branch, z: complex, terms: int = 2):
    """Asymptotic (Comtet) approximation to W_n(z) for large |ln z + 2*pi*i*n|.

    terms=1 gives L1 = ln z + 2*pi*i*n, terms=2 gives L1 - ln(L1), and
    terms=3 one further recursion L1 - ln(L1 - ln(L1)).  Accuracy improves
    as |n| grows at fixed z; a practical guideline is |L1| > 5.  An ndarray
    branch gives the array of the members' values; a scalar branch is the
    one-element case.
    """
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    n = np.asarray(branch)
    l1 = cmath.log(complex(z)) + 1j * _TWO_PI * n.reshape(-1)
    if terms > 1 and not np.all(l1):
        raise DomainError("ln(L1) is singular at L1 = ln z + 2 pi i n = 0")
    w = l1
    for _ in range(terms - 1):
        w = l1 - np.log(w)
    return w.reshape(n.shape) if isinstance(branch, np.ndarray) else complex(w[0])


def log_gamma(z):
    """Continuous (principal on the positive axis) log-gamma; exp of it is Gamma(z).

    Raises GammaPoleError at the poles z = 0, -1, -2, ... (for the potentials
    in this catalog those poles are exactly the quasi-normal wavenumbers, so
    they are detected rather than evaluated).  An ndarray z gives an array
    that is nan at the poles instead; a scalar z is the one-element case.
    """
    array = isinstance(z, np.ndarray)
    z = np.asarray(z, dtype=complex)
    pole = (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))
    with np.errstate(all="ignore"):
        g = np.where(pole, complex("nan"), special.loggamma(z))
    if array:
        return g
    if pole:
        raise GammaPoleError(f"log_gamma pole at z = {z.real:g}")
    return complex(g)
