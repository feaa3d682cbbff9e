"""Complex special functions: multi-branch Lambert W and complex log-gamma.

Both are thin wrappers over ``scipy.special`` that add this library's error
contract.  ``scipy.special`` loads on the first call, not with this module,
whose import costs numpy only.  The Lambert W function is the multi-valued
inverse of w -> w*exp(w); branches follow the standard
counter-clockwise-continuous convention (principal logarithm cut along the
negative real axis), so ``lambert_w(0, x)`` and ``lambert_w(-1, x)`` are
the two real branches on (-1/e, 0).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import DomainError, GammaPoleError

__all__ = ["lambert_w", "lambert_w_derivative", "lambert_w_comtet", "log_gamma"]

_INV_E = math.exp(-1.0)
_TWO_PI = 2.0 * math.pi


def _array_first(f, *xs, dtype=complex, fault=None):
    """f over the 1-d arrays of the broadcast inputs xs, with its array (or
    tuple of arrays and None) back in their shape, an object array as a
    nested list (README, "Numbers and arrays").  All-number inputs are the
    one-element case: its Python scalars go to ``fault``, which raises the
    error of a point an array leaves inf or nan, or returns the value.  A
    number or a 0-d input runs numpy's vector loops, whose bits its 0-d
    path does not share for tanh, exp and products."""
    scalar = all(map(np.isscalar, xs))
    arrays = [np.array(x, dtype=dtype) for x in xs]
    # np.broadcast_arrays costs a third of a one-point log_gamma: one input skips it
    arrays = np.broadcast_arrays(*arrays) if len(xs) > 1 else arrays
    out = f(*(x.reshape(-1) for x in arrays))

    def back(v):
        if v is None or scalar:
            return None if v is None else v.item()
        v = v.reshape(arrays[0].shape)
        return v.tolist() if v.dtype == object else v[()]

    out = tuple(map(back, out)) if isinstance(out, tuple) else back(out)
    return fault(out) if scalar and fault else out


def lambert_w(branch, z):
    """W_n(z): solution w of w*exp(w) = z on branch ``branch`` (broadcast
    against z); W_n(0) is singular for n != 0.

    Residual contract: ``|w*exp(w) - z| <= 1e-12 * max(1, |z|)``.  On the
    real branches 0 and -1, z within 1e-15 of -1/e gives exactly -1, and a
    real z gives a real W where Im W < 1e-12.
    """
    from scipy.special import lambertw

    def w_of(n, z):
        real_branch = (n == 0) | (n == -1)
        w = lambertw(z, n)
        at_branch_point = real_branch & (np.abs(z + _INV_E) < 1e-15) & (np.abs(z.imag) < 1e-15)
        w = np.where(at_branch_point, -1.0 + 0j, w)
        snap = real_branch & (z.imag == 0.0) & (w.imag != 0.0) & (np.abs(w.imag) < 1e-12)
        w = np.where(snap, w.real + 0j, w)
        return np.where((z == 0) & (n != 0), complex("nan"), np.where(z == 0, 0j, w))

    def fault(w):
        if z == 0 and branch != 0:
            raise DomainError(f"W_{int(branch)}(0) is singular for branch != 0")
        if cmath.isnan(w):  # scipy's lambertw off branch 0 at subnormal z
            raise DomainError(f"W_{int(branch)}(z) has no representable value at z = {z}")
        return w

    return _array_first(w_of, branch, z, dtype=None, fault=fault)


def lambert_w_derivative(branch, z):
    """dW_n/dz = W / (z (1 + W)); singular at z = 0 and at the branch point
    W = -1 (|W + 1| < 1e-12)."""

    def derivative(n, z):
        w = lambert_w(n, z)  # nan at z = 0 off branch 0, and 0 / 0 on it
        with np.errstate(all="ignore"):
            return np.where(np.abs(w + 1.0) < 1e-12, complex("inf"), w / (z * (1.0 + w)))

    def fault(d):
        if z == 0:
            raise DomainError("W'(z) is singular at z = 0")
        if cmath.isinf(d):
            raise DomainError("W'(z) is singular at the branch point W = -1")
        if cmath.isnan(d):
            raise DomainError(f"W'(z) has no representable value at z = {z}")
        return d

    return _array_first(derivative, branch, z, dtype=None, fault=fault)


def lambert_w_comtet(branch, z: complex, terms: int = 2):
    """Asymptotic (Comtet) approximation to W_n(z) for large |ln z + 2*pi*i*n|.

    terms=1 gives L1 = ln z + 2*pi*i*n, terms=2 gives L1 - ln(L1), and
    terms=3 one further recursion L1 - ln(L1 - ln(L1)).  Accuracy improves
    as |n| grows at fixed z; a practical guideline is |L1| > 5.
    """
    if terms not in (1, 2, 3):
        raise DomainError("terms must be 1, 2 or 3")
    if z == 0:
        raise DomainError("ln z is singular at z = 0: L1 = ln z + 2 pi i n needs z != 0")

    def comtet(n):
        l1 = cmath.log(complex(z)) + 1j * _TWO_PI * n
        if terms > 1 and not np.all(l1):
            raise DomainError("ln(L1) is singular at L1 = ln z + 2 pi i n = 0")
        w = l1
        for _ in range(terms - 1):
            w = l1 - np.log(w)
        return w

    return _array_first(comtet, branch)


def log_gamma(z):
    """Continuous (principal on the positive axis) log-gamma; exp of it is Gamma(z).

    Singular at the poles z = 0, -1, -2, ... (for the potentials in this
    catalog those poles are exactly the quasi-normal wavenumbers, so they
    are detected rather than evaluated).
    """
    from scipy.special import loggamma

    pole = lambda z: (z.imag == 0.0) & (z.real <= 0.0) & (z.real == np.floor(z.real))  # noqa: E731

    def log_gamma_of(z):
        with np.errstate(all="ignore"):
            return np.where(pole(z), complex("nan"), loggamma(z))

    def fault(g):
        if pole(complex(z)):
            raise GammaPoleError(f"log_gamma pole at z = {complex(z).real:g}")
        return g

    return _array_first(log_gamma_of, z, fault=fault)
