"""The potential catalog: parameter containers, pointwise evaluation,
asymptotic wavenumbers, closed-form transmission amplitudes/probabilities
and transmission-resonance families.

Conventions: the stationary equation is [-hbar^2/(2m) d^2/dx^2 + V] psi = E psi,
incident waves come from the left, and the incidence-side asymptotic
wavenumber k = k_{-inf} is the independent variable of the amplitude
functions.  All closed forms hold for complex k.

Every scattering member of the catalog has one of two normal forms (see
``normal_form``): steps at x = -a and x = +a carrying delta couplings
(``Interfaces``), or the tanh + sech^2 Eckart reduction
(``EckartReduction``).  Asymptotes, amplitudes and probabilities are
computed from the normal form, and so are the transmission-resonance
families; each spec class keeps only its textbook formula and its normal
form.

Each class also names its squared-Moebius form (``_canonical``, which
``qnf1d.canonical.canonicalize`` reads): the Eckart members complete the
square of their reduction, Mobius2, Tietz, Hua, Morse and Manning-Rosen
write theirs down, and the rest raise CanonicalizationError.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

from .errors import (
    AtPoleError,
    CanonicalizationError,
    DomainError,
    NotAScatteringPotential,
    RegimeError,
)
from .specfn import log_gamma

__all__ = [
    "PhysicalConstants",
    "Delta",
    "DoubleDelta",
    "AsymDoubleDelta",
    "Step",
    "RectBarrier",
    "AsymRectBarrier",
    "Tanh",
    "Sech2",
    "PoschlTellerSech2",
    "Eckart",
    "RosenMorse",
    "MorseFeshbach",
    "Mobius2",
    "Morse",
    "ManningRosen",
    "Hulthen",
    "Tietz",
    "Hua",
    "PotentialSpec",
    "Interfaces",
    "EckartReduction",
    "ScatteringAmplitudes",
    "ResonanceEntry",
    "normal_form",
    "length_scale",
    "evaluate",
    "scattering_limits",
    "is_scattering",
    "asymptotic_wavenumbers",
    "transmission_amplitude",
    "transmission_probability",
    "resonances",
    "step_bound",
]

# parameters that are lengths (or hbar and mass) and must be positive
_POSITIVE = ("a", "b", "L", "hbar", "mass")


class _Validated:
    """Rejects non-finite numbers, and non-positive lengths, at construction."""

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, str):
                continue
            if not math.isfinite(value):
                raise DomainError(f"{f.name} must be finite, got {value}")
            if f.name in _POSITIVE and not value > 0:
                raise DomainError(f"{f.name} must be positive, got {value}")


@dataclass(frozen=True)
class PhysicalConstants(_Validated):
    """hbar, mass and the nonrelativistic/relativistic mode switch.

    In relativistic mode the wave equation maps onto the nonrelativistic one
    under hbar^2/(2m) -> 1 and E -> omega^2, so the pair (hbar, mass) is
    ignored and hbar^2/(2m) is taken to be exactly 1.
    """

    hbar: float = 1.0
    mass: float = 1.0
    mode: str = "nonrelativistic"

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("nonrelativistic", "relativistic"):
            raise DomainError(f"unknown mode {self.mode!r}")

    @property
    def h2_2m(self) -> float:
        """hbar^2 / (2 m)."""
        if self.mode == "relativistic":
            return 1.0
        return self.hbar**2 / (2.0 * self.mass)

    @property
    def p2(self) -> float:
        """2 m / hbar^2, the prefactor turning energies into wavenumbers squared."""
        return 1.0 / self.h2_2m


DEFAULT_CONSTANTS = PhysicalConstants()


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Complex t (and r when available) with the asymptotic wavenumbers."""

    t: complex
    r: complex | None
    k_minus_inf: complex
    k_plus_inf: complex


@dataclass(frozen=True)
class ResonanceEntry:
    """One member of a transmission-resonance family.

    kind is one of 'exact' (T = 1), 'approximate' (an unequal delta pair's
    2ka = (n + 1/2) pi, the large-k limit of the equal-pair roots, with T
    there), 'parameter_condition' (a critical coupling: ``parameter`` is the
    normal form's sech^2 coupling v0 at which it is reflectionless) or
    'pseudo' (T = T_step for the asymmetric barrier).
    """

    index: int
    kind: str
    k: float | None = None
    E: float | None = None
    parameter: float | None = None
    T: float | None = None


def _level_wavenumber(k, e, v_in, v, p2):
    """The wavenumber at level v and energy e, over an array of k: the
    caller's k where v is the incidence level v_in (so the amplitude is the
    analytic continuation in k), the principal root of p2 (e - v) elsewhere."""
    return k if v == v_in else np.sqrt(p2 * (e - v))


def _sin_over(q, w):
    """sin(q w) / q over an array of complex q, with its limit w at q = 0."""
    zero = q == 0
    return np.where(zero, w, np.sin(q * w) / np.where(zero, 1.0, q))


# ---------------------------------------------------------------------------
# The two normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Interfaces:
    """V = v1 (x < -a), v2 (|x| < a), v3 (x > a), plus the delta couplings
    alpha_left delta(x + a) + alpha_right delta(x - a).

    a = 0 merges the two interfaces into one at the origin (Delta, Step).
    """

    v1: float
    v2: float
    v3: float
    alpha_left: float
    alpha_right: float
    a: float

    @property
    def limits(self):
        return (self.v1, self.v3)

    @property
    def qnf_level(self) -> float:
        """The asymptote whose wavenumber a reported QNF k is (incidence)."""
        return self.v1

    @property
    def flat(self) -> bool:
        """True when only the delta couplings scatter (no steps)."""
        return self.v1 == self.v2 == self.v3

    def evaluate(self, x):
        """The regular (step) part of V on an array x."""
        return np.where(x < -self.a, self.v1, np.where(x > self.a, self.v3, self.v2))

    def amplitudes(self, k: np.ndarray, p2: float) -> ScatteringAmplitudes:
        """t of the two-interface problem with couplings g = p2 * alpha, over
        an array of k (see transmission_amplitude)."""
        g1, g2 = p2 * self.alpha_left, p2 * self.alpha_right
        e = self.v1 + k * k / p2
        k1 = k
        k2 = _level_wavenumber(k, e, self.v1, self.v2, p2)
        k3 = _level_wavenumber(k, e, self.v1, self.v3, p2)
        a = self.a
        # t = 4 k2 sqrt(k1 k3) e^{i (k1 + k3) a} / den, where
        # den = (w1 + k2)(w3 + k2) e^{iz} - (w1 - k2)(w3 - k2) e^{-iz}, z = 2 k2 a,
        # is summed as 2 k2 (w1 + w3) e^{+-iz} + 2i (w1 -+ k2)(w3 -+ k2) sin z with
        # the decaying exponential: no cancellation where one exponential
        # dominates, nor as k2 -> 0 (den / k2 is finite at a barrier top)
        w1, w3 = k1 - 1j * g1, k3 - 1j * g2
        sgn = np.where(k2.imag >= 0, 1.0, -1.0)
        sin_k2 = _sin_over(k2, 2.0 * a)
        den_k2 = 2.0 * (w1 + w3) * np.exp(2j * sgn * k2 * a) \
            + 2j * (w1 - sgn * k2) * (w3 - sgn * k2) * sin_k2
        phase = np.exp(1j * (k1 + k3) * a)
        t = 4.0 * np.sqrt(k1) * np.sqrt(k3) * phase / den_k2
        # a pole (den = 0) is inf, an overflowing exponential nan
        t = np.where(np.isfinite(phase), t, complex("nan"))
        t = np.where(den_k2 == 0, complex("inf"), t)
        t = np.where(np.isfinite(sin_k2), t, complex("nan"))
        return ScatteringAmplitudes(t, None, k1, k3)

    def probability(self, e: np.ndarray, p2: float) -> np.ndarray:
        """T(E) over an array of real E above both limits: the
        asymmetric-barrier closed form for steps, the asymmetric double-delta
        one for couplings."""
        k1 = np.sqrt(p2 * (e - self.v1))
        if self.alpha_left == 0 and self.alpha_right == 0:
            k3 = np.sqrt(p2 * (e - self.v3))
            s = _sin_over(np.sqrt(p2 * (e - self.v2) + 0j), 2.0 * self.a).real
            # (q^2 - k1^2)(q^2 - k3^2) for the middle wavenumber q, exactly
            steps = p2 * p2 * (self.v2 - self.v1) * (self.v2 - self.v3)
            # 4 k1 k3 / ((k1 + k3)^2 + steps s^2) over the larger k squared,
            # which overflows near the top of the float range; next to the
            # threshold (s / k)^2 may overflow instead, where T -> 0
            k_hi = np.maximum(k1, k3)
            r = np.minimum(k1, k3) / k_hi
            with np.errstate(over="ignore"):
                return 4.0 * r / ((1.0 + r) ** 2 + (steps * s / k_hi) * (s / k_hi))
        kp = 0.5 * p2 * self.alpha_left
        km = 0.5 * p2 * self.alpha_right
        # 1 / T times k1^2, with sin(2 k1 a) / k1 finite as k1 -> 0
        cth, sth_k = np.cos(2 * k1 * self.a), _sin_over(k1, 2.0 * self.a)
        term = 4.0 * kp * km * (cth + kp * sth_k) * (cth + km * sth_k)
        return k1 * k1 / (k1 * k1 + (kp - km) ** 2 + term)

    def resonances(self, n_max: int, c: PhysicalConstants) -> list:
        """The transmission resonances by the form's shape (see resonances)."""
        if _delta_pair(self) and self.alpha_left == self.alpha_right:
            # no root for k0 = 0 (a free form)
            k0 = 0.5 * c.p2 * self.alpha_left
            return [ResonanceEntry(n, "exact", k=k, E=self.v1 + c.h2_2m * k * k)
                    for n, k in _double_delta_resonance_roots(k0, self.a, n_max)]
        if _delta_pair(self):
            # the large-k limit of the equal-pair roots, with T there
            k = (np.arange(n_max) + 0.5) * math.pi / (2.0 * self.a)
            e = self.v1 + c.h2_2m * k * k
            return [ResonanceEntry(n, "approximate", k=k_n, E=e_n, T=T_n) for n, (k_n, e_n, T_n)
                    in enumerate(zip(k.tolist(), e.tolist(), self.probability(e, c.p2).tolist()))]
        out = []
        if _barrier(self):
            for n in range(1, n_max + 1):
                e = self.v2 + c.h2_2m * (n * math.pi / (2.0 * self.a)) ** 2
                if not (e > self.v1 and e > self.v3):
                    continue  # below the asymptotic continuum, not a scattering energy
                T = None if self.v1 == self.v3 else float(_step_bound(self.limits, e, c.p2))
                out.append(ResonanceEntry(n, "exact" if T is None else "pseudo",
                                          k=math.sqrt(c.p2 * (e - self.v1)), E=e, T=T))
        return out


def _delta_pair(form) -> bool:
    """Two delta couplings a distance 2a apart, no steps."""
    return isinstance(form, Interfaces) and form.a > 0 and form.flat


def _barrier(form) -> bool:
    """Steps at x = -a and x = +a, no delta couplings."""
    return (isinstance(form, Interfaces) and form.a > 0
            and form.alpha_left == 0 and form.alpha_right == 0)


@dataclass(frozen=True)
class EckartReduction:
    """Standard tanh + sech^2 representation V(x) = V_std(x - shift)."""

    v_minus: float
    v_plus: float
    v0: float
    a: float
    shift: float = 0.0

    @property
    def limits(self):
        return (self.v_minus, self.v_plus)

    @property
    def qnf_level(self) -> float:
        """The asymptote whose wavenumber a reported QNF k is (transmitted)."""
        return self.v_plus

    def s(self, p2: float) -> complex:
        """s = sqrt(1/4 - p2 v0 a^2): the sech^2 gamma arguments are 1/2 +- s."""
        return cmath.sqrt(0.25 - p2 * self.v0 * self.a * self.a)

    def evaluate(self, x):
        """V on an array x."""
        u = (x - self.shift) / self.a
        mid = 0.5 * (self.v_minus + self.v_plus)
        slope = 0.5 * (self.v_plus - self.v_minus)
        return mid + slope * np.tanh(u) + self.v0 / np.cosh(u) ** 2

    def amplitudes(self, k: np.ndarray, p2: float) -> ScatteringAmplitudes:
        """t as a ratio of gamma functions, over an array of (complex) k
        (see transmission_amplitude)."""
        e = self.v_minus + k * k / p2
        k_m = k
        k_p = _level_wavenumber(k, e, self.v_minus, self.v_plus, p2)
        kbar = 0.5 * (k_m + k_p)
        a = self.a
        s = self.s(p2)
        # nan at a gamma pole
        log_ratio = log_gamma(1j * kbar * a + 0.5 + s) + log_gamma(1j * kbar * a + 0.5 - s) \
            - log_gamma(1j * k_p * a) - log_gamma(1j * k_m * a)
        t = -1j / (np.sqrt(k_p) * np.sqrt(k_m) * a) * np.exp(log_ratio)
        if self.shift != 0.0:
            phase = np.exp(1j * (k_p - k_m) * self.shift)
            t = np.where(np.isfinite(phase), t * phase, complex("nan"))
        t = np.where(log_ratio.real > 700.0, complex("inf"), t)
        return ScatteringAmplitudes(t=t, r=None, k_minus_inf=k_m, k_plus_inf=k_p)

    def probability(self, e: np.ndarray, p2: float) -> np.ndarray:
        """T(E) = sinh(x-) sinh(x+) / (sinh(xbar)^2 + cos(pi s)^2), x = pi k a,
        over an array of real E above both limits.  Each sinh(x) is written
        e^x g(x) / 2 with g(x) = 1 - e^{-2x}; since x- + x+ = 2 xbar the
        exponentials cancel exactly, so nothing overflows or cancels."""
        x_m, x_p = (math.pi * np.sqrt(p2 * (e - v)) * self.a for v in self.limits)
        xbar = 0.5 * (x_m + x_p)
        g_m, g_p, g_bar = (-np.expm1(-2.0 * x) for x in (x_m, x_p, xbar))
        # cos(pi s) = -+ sin(pi (s - m - 1/2)) about the nearest half-integer
        # m + 1/2, exactly 0 at the reflectionless couplings
        s = self.s(p2)
        cos2 = (cmath.sin(cmath.pi * (s - round(s.real - 0.5) - 0.5)) ** 2).real
        return g_m * g_p / (g_bar * g_bar + 4.0 * cos2 * np.exp(-2.0 * xbar))

    def resonances(self, n_max: int, c: PhysicalConstants) -> list:
        """The reflectionless couplings v0 = -n(n+1) hbar^2/(2 m a^2) of a
        symmetric form; none where v_minus != v_plus."""
        if self.v_minus != self.v_plus:
            return []
        return [ResonanceEntry(n, "parameter_condition",
                               parameter=-n * (n + 1) * c.h2_2m / (self.a * self.a))
                for n in range(1, n_max + 1)]


def _mobius2_reduction(m: Mobius2) -> EckartReduction:
    """Eckart reduction of the squared-Moebius form, when it scatters."""
    if m.E2 == 0 or m.F2 == 0 or m.E2 * m.F2 < 0:
        raise NotAScatteringPotential(
            "Mobius2 needs E2, F2 nonzero and of equal sign for scattering"
        )
    if m.E1 * m.F2 - m.E2 * m.F1 == 0:
        raise NotAScatteringPotential("Mobius2 with E1 F2 = E2 F1 is constant")
    # center the Moebius denominator: u = (E2/F2) w makes it E2 (1 + w)
    shift = 0.5 * m.a * math.log(m.F2 / m.E2)
    p = m.E1
    q = m.F1 * m.E2 / m.F2
    alpha = 0.5 * (p + q) / m.E2
    beta = 0.5 * (p - q) / m.E2
    mid = m.A0 + m.overall * (alpha**2 + beta**2)
    half_step = 2.0 * m.overall * alpha * beta
    v0 = -m.overall * beta**2
    return EckartReduction(mid - half_step, mid + half_step, v0, m.a, shift)


def _mobius2_square(c0, c1, c2, a, sign) -> Mobius2:
    """V = c0 + c1 w + c2 w^2 = (c0 - c2 h^2) + c2 (w + h)^2 with h = c1/(2 c2),
    for w = (1 - sign u)/(1 + sign u): tanh(x/a) (sign = +1) or coth(x/a)
    (sign = -1).  w + h = ((1 + h) - sign (1 - h) u)/(1 + sign u) is written
    without cancellation."""
    if c2 == 0:
        raise CanonicalizationError(
            "potential is affine in tanh/coth: no exact (Mobius)^2 form "
            "(the square's leading coefficient vanishes)"
        )
    h = c1 / (2.0 * c2)
    return Mobius2(A0=c0 - c2 * h * h, E1=1.0 + h, F1=-sign * (1.0 - h),
                   E2=1.0, F2=sign, a=a, overall=c2)


# ---------------------------------------------------------------------------
# Spec types
# ---------------------------------------------------------------------------

class _Spec(_Validated):
    """A catalog member: its textbook V(x) and its normal form."""

    def _potential(self, x):
        raise NotImplementedError

    def _normal_form(self):
        raise NotAScatteringPotential(
            f"{type(self).__name__} does not define a scattering problem"
        )

    @cached_property
    def _form(self):
        # specs are frozen, so the normal form is built once per instance
        return self._normal_form()

    def _canonical(self):
        """(Mobius2 form, shift, notes) with V(x) = form(x - shift); here the
        completed square of the Eckart reduction."""
        red = self._form if is_scattering(self) else None
        if not isinstance(red, EckartReduction):
            raise CanonicalizationError(
                f"{type(self).__name__} is not in the Eckart/(Mobius)^2 family"
            )
        # V = mid + half tanh + v0 sech^2, with sech^2 = 1 - tanh^2
        mid = 0.5 * (red.v_minus + red.v_plus)
        half = 0.5 * (red.v_plus - red.v_minus)
        form = _mobius2_square(mid + red.v0, half, -red.v0, red.a, 1.0)
        return form, red.shift, f"origin shifted by {red.shift:.6g}" if red.shift else ""


@dataclass(frozen=True)
class Delta(_Spec):
    """V(x) = alpha * delta(x)."""

    alpha: float

    def _potential(self, x):
        return np.zeros_like(x)

    def _normal_form(self):
        return Interfaces(0.0, 0.0, 0.0, self.alpha, 0.0, 0.0)


@dataclass(frozen=True)
class DoubleDelta(_Spec):
    """V(x) = alpha * (delta(x - a) + delta(x + a))."""

    alpha: float
    a: float

    def _potential(self, x):
        return np.zeros_like(x)

    def _normal_form(self):
        return Interfaces(0.0, 0.0, 0.0, self.alpha, self.alpha, self.a)


@dataclass(frozen=True)
class AsymDoubleDelta(_Spec):
    """V(x) = alpha_minus * delta(x - a) + alpha_plus * delta(x + a)."""

    alpha_plus: float
    alpha_minus: float
    a: float

    def _potential(self, x):
        return np.zeros_like(x)

    def _normal_form(self):
        return Interfaces(0.0, 0.0, 0.0, self.alpha_plus, self.alpha_minus, self.a)


@dataclass(frozen=True)
class Step(_Spec):
    """V(x) = V0 for x > 0, 0 for x < 0."""

    V0: float = 0.0

    def _potential(self, x):
        return np.where(x > 0, self.V0, 0.0)

    def _normal_form(self):
        return Interfaces(0.0, 0.0, self.V0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class RectBarrier(_Spec):
    """V(x) = V0 on |x| <= a (width 2a), 0 elsewhere; V0 of either sign."""

    V0: float
    a: float

    def _potential(self, x):
        return np.where(np.abs(x) <= self.a, self.V0, 0.0)

    def _normal_form(self):
        return Interfaces(0.0, self.V0, 0.0, 0.0, 0.0, self.a)


@dataclass(frozen=True)
class AsymRectBarrier(_Spec):
    """V = V1 (x < -a), V2 (|x| < a), V3 (x > a)."""

    V1: float
    V2: float
    V3: float
    a: float

    def _potential(self, x):
        return np.where(x < -self.a, self.V1, np.where(x > self.a, self.V3, self.V2))

    def _normal_form(self):
        return Interfaces(self.V1, self.V2, self.V3, 0.0, 0.0, self.a)


@dataclass(frozen=True)
class Tanh(_Spec):
    """Smoothed step: (V- + V+)/2 + (V+ - V-)/2 * tanh(x/a)."""

    V_minus: float
    V_plus: float
    a: float

    def _potential(self, x):
        mid = 0.5 * (self.V_minus + self.V_plus)
        slope = 0.5 * (self.V_plus - self.V_minus)
        return mid + slope * np.tanh(x / self.a)

    def _normal_form(self):
        return EckartReduction(self.V_minus, self.V_plus, 0.0, self.a)


@dataclass(frozen=True)
class Sech2(_Spec):
    """V(x) = V0 * sech^2(x/a)."""

    V0: float
    a: float

    def _potential(self, x):
        return self.V0 / np.cosh(x / self.a) ** 2

    def _normal_form(self):
        return EckartReduction(0.0, 0.0, self.V0, self.a)


@dataclass(frozen=True)
class PoschlTellerSech2(Sech2):
    """Historical alias for the sech^2 well/barrier."""


@dataclass(frozen=True)
class Eckart(_Spec):
    """(V- + V+)/2 + (V+ - V-)/2 * tanh(x/a) + V0 * sech^2(x/a)."""

    V_minus: float
    V_plus: float
    V0: float
    a: float

    def _potential(self, x):
        mid = 0.5 * (self.V_minus + self.V_plus)
        slope = 0.5 * (self.V_plus - self.V_minus)
        return mid + slope * np.tanh(x / self.a) + self.V0 / np.cosh(x / self.a) ** 2

    def _normal_form(self):
        return EckartReduction(self.V_minus, self.V_plus, self.V0, self.a)


@dataclass(frozen=True)
class RosenMorse(_Spec):
    """V(x) = A + B tanh(x/a) + C sech^2(x/a)."""

    A: float
    B: float
    C: float
    a: float

    def _potential(self, x):
        return self.A + self.B * np.tanh(x / self.a) + self.C / np.cosh(x / self.a) ** 2

    def _normal_form(self):
        return EckartReduction(self.A - self.B, self.A + self.B, self.C, self.a)


@dataclass(frozen=True)
class MorseFeshbach(_Spec):
    """V(x) = V0 cosh^2(mu) (tanh((x - mu L)/L) + tanh(mu))^2."""

    V0: float
    mu: float
    L: float

    def _potential(self, x):
        d = math.tanh(self.mu)
        v1 = self.V0 * math.cosh(self.mu) ** 2
        return v1 * (np.tanh((x - self.mu * self.L) / self.L) + d) ** 2

    def _normal_form(self):
        v1 = self.V0 * math.cosh(self.mu) ** 2
        d = math.tanh(self.mu)
        return EckartReduction(
            v1 * (d - 1.0) ** 2, v1 * (d + 1.0) ** 2, -v1, self.L, self.mu * self.L
        )


@dataclass(frozen=True)
class Mobius2(_Spec):
    """A0 + overall * ((E1 + F1 u) / (E2 + F2 u))^2 with u = exp(-2 x / a)."""

    A0: float
    E1: float
    F1: float
    E2: float
    F2: float
    a: float
    overall: float = 1.0

    def __post_init__(self):
        super().__post_init__()
        if self.E2 == 0 and self.F2 == 0:
            raise DomainError("E2 and F2 cannot both vanish")

    def mobius2(self) -> Mobius2:
        return self

    def _canonical(self):
        return self, 0.0, ""

    def _potential(self, x):
        u = np.exp(-2.0 * x / self.a)
        den = self.E2 + self.F2 * u
        if np.any(den == 0):
            raise DomainError("Mobius2 evaluated at its pole")
        return self.A0 + self.overall * ((self.E1 + self.F1 * u) / den) ** 2

    def _normal_form(self):
        return _mobius2_reduction(self)


@dataclass(frozen=True)
class Morse(_Spec):
    """V(x) = V0 (1 - exp(-(x - x0)/a))^2; bound-state model, no scattering."""

    V0: float
    x0: float
    a: float

    def _potential(self, x):
        return self.V0 * (1.0 - np.exp(-(x - self.x0) / self.a)) ** 2

    def _canonical(self):
        # V0 (1 - e^{x0/a} u)^2 with u = e^{-2x/(2a)}: F2 = 0, a limiting
        # (confining) member that defines no scattering problem
        form = Mobius2(A0=0.0, E1=1.0, F1=-math.exp(self.x0 / self.a),
                       E2=1.0, F2=0.0, a=2.0 * self.a, overall=self.V0)
        return form, 0.0, "Morse: F2 = 0 limit, confining on the left"


@dataclass(frozen=True)
class ManningRosen(_Spec):
    """V(x) = A exp(-2x/b)/(1 - exp(-x/b))^2 + B exp(-x/b)/(1 - exp(-x/b)); x > 0."""

    A: float
    B: float
    b: float

    def _potential(self, x):
        if np.any(x <= 0):
            raise DomainError("Manning-Rosen is defined on x > 0")
        v = np.exp(-x / self.b)
        return self.A * v**2 / (1.0 - v) ** 2 + self.B * v / (1.0 - v)

    def _canonical(self):
        # in w = coth(x/(2b)): V = (A/4) w^2 + (B-A)/2 w + (A/4 - B/2); A = 0
        # (Hulthen) is affine in w
        form = _mobius2_square(0.25 * self.A - 0.5 * self.B, 0.5 * (self.B - self.A),
                               0.25 * self.A, 2.0 * self.b, -1.0)
        return form, 0.0, "half-line potential with a pole at x = 0"


@dataclass(frozen=True)
class Hulthen(_Spec):
    """V(x) = V0 exp(-x/a)/(1 - exp(-x/a)); x > 0; Manning-Rosen with A = 0."""

    V0: float
    a: float

    def _potential(self, x):
        if np.any(x <= 0):
            raise DomainError("Hulthen is defined on x > 0")
        v = np.exp(-x / self.a)
        return self.V0 * v / (1.0 - v)

    def _canonical(self):
        raise CanonicalizationError(
            "Hulthen is affine in coth(x/2a) with a simple pole at x = 0; "
            "a (Mobius)^2 potential has only double poles, so no exact form "
            "exists (it is the A -> 0 limit of Manning-Rosen)"
        )


@dataclass(frozen=True)
class Tietz(_Spec):
    """V(x) = V0 (sinh((x - x0)/a) / K(x/a))^2 with K in {sinh, cosh, exp}."""

    V0: float
    x0: float
    a: float
    kind: str = "sinh"

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in ("sinh", "cosh", "exp"):
            raise DomainError(f"Tietz kind must be sinh/cosh/exp, got {self.kind!r}")

    def mobius2(self) -> Mobius2:
        """The exact squared-Moebius form; only the cosh kind scatters."""
        c = math.exp(2.0 * self.x0 / self.a)
        scale = self.V0 * math.exp(-2.0 * self.x0 / self.a)
        e2, f2 = {"sinh": (1.0, -1.0), "cosh": (1.0, 1.0), "exp": (2.0, 0.0)}[self.kind]
        return Mobius2(A0=0.0, E1=1.0, F1=-c, E2=e2, F2=f2, a=self.a, overall=scale)

    def _canonical(self):
        notes = {"sinh": "sinh denominator: pole at x = 0", "cosh": "",
                 "exp": "exp denominator: Morse-type F2 = 0 limit"}[self.kind]
        return self.mobius2(), 0.0, notes

    def _potential(self, x):
        num = np.sinh((x - self.x0) / self.a)
        if self.kind == "sinh":
            if np.any(x == 0):
                raise DomainError("sinh-type Tietz has a pole at x = 0")
            den = np.sinh(x / self.a)
        elif self.kind == "cosh":
            den = np.cosh(x / self.a)
        else:
            den = np.exp(x / self.a)
        return self.V0 * (num / den) ** 2

    def _normal_form(self):
        return _mobius2_reduction(self.mobius2())


@dataclass(frozen=True)
class Hua(_Spec):
    """V(x) = V0 ((1 - exp(-2x/a)) / (1 - q exp(-2x/a)))^2."""

    V0: float
    q: float
    a: float

    def mobius2(self) -> Mobius2:
        """The exact squared-Moebius form; it scatters for q < 0."""
        return Mobius2(A0=0.0, E1=1.0, F1=-1.0, E2=1.0, F2=-self.q, a=self.a,
                       overall=self.V0)

    def _canonical(self):
        if self.q < 0:
            # a cosh-type Tietz via tanh(theta) = (1+q)/(1-q)
            theta = math.atanh((1.0 + self.q) / (1.0 - self.q))
            notes = f"cosh-type Tietz with theta = {theta:.6g}"
        elif self.q == 0.0:
            notes = "q = 0: Morse limit, confining on the left"
        else:
            theta = math.atanh((1.0 - self.q) / (1.0 + self.q))
            notes = f"sinh-type Tietz with theta = {theta:.6g}; pole at x = (a/2) ln q"
        return self.mobius2(), 0.0, notes

    def _potential(self, x):
        u = np.exp(-2.0 * x / self.a)
        den = 1.0 - self.q * u
        if np.any(den == 0):
            raise DomainError("Hua evaluated at its pole")
        return self.V0 * ((1.0 - u) / den) ** 2

    def _normal_form(self):
        return _mobius2_reduction(self.mobius2())


PotentialSpec = Union[
    Delta, DoubleDelta, AsymDoubleDelta, Step, RectBarrier, AsymRectBarrier,
    Tanh, Sech2, PoschlTellerSech2, Eckart, RosenMorse, MorseFeshbach,
    Mobius2, Morse, ManningRosen, Hulthen, Tietz, Hua,
]


# ---------------------------------------------------------------------------
# Pointwise evaluation and scattering structure
# ---------------------------------------------------------------------------

def _array_first(x, dtype, f):
    """f over the 1-d array of x, in x's shape: an array gives an array, and
    a number or a 0-d array is the one-element case, with the bits of the
    same x inside an array (numpy's 0-d path rounds tanh, exp, products
    unlike its vector loops); a number gives a Python number, 0-d a numpy
    scalar."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=dtype)
    out = f(x.reshape(-1)).reshape(x.shape)
    return out.item() if scalar else out[()]


def evaluate(spec: PotentialSpec, x):
    """V(x); x is a number or an array (see _array_first).

    Delta-function potentials are distributional: evaluate returns their
    regular part (identically zero).  Potentials with a pole (Manning-Rosen,
    Hulthen, sinh-type Tietz at x = 0; Hua with q > 0) raise DomainError when
    evaluated at the pole.
    """
    if not isinstance(spec, _Spec):
        raise TypeError(f"unknown potential spec {type(spec).__name__}")
    return _array_first(x, float, spec._potential)


def normal_form(spec: PotentialSpec) -> Interfaces | EckartReduction:
    """The spec's normal form, built once per (frozen) spec instance.

    Interfaces for the delta and piecewise-constant members; the Eckart
    reduction for the smooth ones (Tietz, Hua and Mobius2 through their
    squared-Moebius form).  Raises NotAScatteringPotential otherwise.
    """
    if not isinstance(spec, _Spec):
        raise NotAScatteringPotential(f"{type(spec).__name__} is not a catalog potential")
    return spec._form


def length_scale(spec: PotentialSpec) -> float:
    """The normal form's half-width a (L for Morse-Feshbach); 1.0 for the
    zero-width Delta and Step."""
    return normal_form(spec).a or 1.0


def scattering_limits(spec: PotentialSpec):
    """(V at x -> -inf, V at x -> +inf); raises NotAScatteringPotential otherwise."""
    return normal_form(spec).limits


def is_scattering(spec: PotentialSpec) -> bool:
    try:
        scattering_limits(spec)
        return True
    except NotAScatteringPotential:
        return False


def asymptotic_wavenumbers(spec: PotentialSpec, E, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """k_{-inf} and k_{+inf} at (possibly complex) energy E, principal roots;
    E is an ndarray or a number (see _array_first)."""
    return tuple(_array_first(E, complex, lambda e: np.sqrt(c.p2 * (e - v)))
                 for v in scattering_limits(spec))


# ---------------------------------------------------------------------------
# Transmission amplitudes and probabilities
# ---------------------------------------------------------------------------

def transmission_amplitude(spec: PotentialSpec, k, c: PhysicalConstants = DEFAULT_CONSTANTS) -> ScatteringAmplitudes:
    """Closed-form t at incidence-side wavenumber k (valid for complex k).

    Reflection amplitudes are not displayed by the closed forms; ``r`` is None
    here and is only produced by the numeric engine in ``qnf1d.oracle``.

    An ndarray k gives arrays of the same shape and never raises per point:
    t is inf at a pole and nan where it is not representable (k = 0, a gamma
    pole, an overflowing exponential).  A scalar k is the one-element case
    and raises instead: AtPoleError at a pole, DomainError where t is nan.
    """
    scalar = not isinstance(k, np.ndarray)
    if scalar and complex(k) == 0:
        raise DomainError("transmission amplitude requires k != 0")
    with np.errstate(all="ignore"):
        k = np.array([k] if scalar else k, dtype=complex)
        amp = normal_form(spec).amplitudes(k, c.p2)
        amp = dataclasses.replace(amp, t=np.where(k == 0, complex("nan"), amp.t))
    if not scalar:
        return amp
    amp = _first_point(amp)
    if cmath.isinf(amp.t):
        raise AtPoleError(amp.k_minus_inf)
    if cmath.isnan(amp.t):
        raise DomainError(f"closed-form t is not representable at k = {amp.k_minus_inf} "
                          "(a gamma pole or an overflowing exponential)")
    return amp


def _first_point(amp: ScatteringAmplitudes) -> ScatteringAmplitudes:
    """The first point of array-valued amplitudes, as Python scalars."""
    return ScatteringAmplitudes(complex(amp.t[0]), None if amp.r is None else complex(amp.r[0]),
                                complex(amp.k_minus_inf[0]), complex(amp.k_plus_inf[0]))


def _above_limits(limits, e: np.ndarray, p2: float) -> np.ndarray:
    """The array e, once each energy in it gives both squared wavenumbers
    p2 (e - limit) positive and finite; else the first that does not raises
    DomainError (+inf, or a squared wavenumber beyond the float range) or
    RegimeError (at or below a limit)."""
    with np.errstate(over="ignore"):
        k2_min, k2_max = p2 * (e - max(limits)), p2 * (e - min(limits))
    bad = ~((k2_min > 0) & (k2_max < math.inf))
    if bad.any():
        i = np.argmax(bad)
        first = float(e[i])
        if first == math.inf:
            raise DomainError("E = inf is not a finite energy")
        if k2_max[i] == math.inf:
            raise DomainError(f"E = {first} gives a squared wavenumber beyond the float range")
        raise RegimeError(
            f"E = {first} is not above both asymptotic limits ({limits[0]}, {limits[1]})")
    return e


def transmission_probability(spec: PotentialSpec, E, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """Closed-form T(E) for real E above both asymptotic limits; E is an
    ndarray or a number (see _array_first).  The first energy that is not
    above both limits raises RegimeError (DomainError for E = +inf and where
    p2 (E - limit) overflows)."""
    form = normal_form(spec)
    return _array_first(E, float,
                        lambda e: form.probability(_above_limits(form.limits, e, c.p2), c.p2))


# ---------------------------------------------------------------------------
# Transmission resonances
# ---------------------------------------------------------------------------

def step_bound(spec: PotentialSpec, E, c: PhysicalConstants = DEFAULT_CONSTANTS):
    """T_step = 4 k1 k3 / (k1 + k3)^2, the step-barrier transmission bound;
    it takes E like transmission_probability."""
    limits = scattering_limits(spec)
    return _array_first(E, float,
                        lambda e: _step_bound(limits, _above_limits(limits, e, c.p2), c.p2))


def _step_bound(limits, e: np.ndarray, p2: float) -> np.ndarray:
    """step_bound over energies e (an array or a float) above both limits
    (v_minus, v_plus)."""
    k1 = np.sqrt(p2 * (e - limits[0]))
    k3 = np.sqrt(p2 * (e - limits[1]))
    # over the larger k squared, as (k1 + k3)^2 overflows near the top of
    # the float range
    r = np.minimum(k1, k3) / np.maximum(k1, k3)
    return 4.0 * r / (1.0 + r) ** 2


def _brentq(f, lo: float, hi: float) -> float:
    """The root of f in a sign-changing bracket [lo, hi], to full double
    precision.  scipy.optimize imports most of scipy, so it loads here, on
    the first call, and not with this module."""
    from scipy.optimize import brentq

    return brentq(f, lo, hi, xtol=1e-15, rtol=8.9e-16)


def _double_delta_resonance_roots(k0: float, a: float, n_max: int):
    """Real-k roots of k = -k0 tan(2 k a), one per half-period window."""
    roots = []
    eps = 1e-9
    for n in range(n_max):
        # k + k0 tan(theta) with theta = 2 k a changes sign once per window
        # between consecutive poles of tan
        if k0 > 0:
            lo, hi = (n + 0.5) * math.pi + eps, (n + 1.0) * math.pi - eps
        else:
            lo, hi = n * math.pi + eps, (n + 0.5) * math.pi - eps
        f = lambda th: th / (2.0 * a) + k0 * math.tan(th)
        flo, fhi = f(lo), f(hi)
        if flo == 0.0:
            roots.append((n, lo / (2 * a)))
            continue
        if flo * fhi > 0:
            continue  # no resonance in this window (small-k exceptions)
        th = _brentq(f, lo, hi)
        k = th / (2.0 * a)
        if k > 1e-12:
            roots.append((n, k))
    return roots


def resonances(spec: PotentialSpec, n_max: int, c: PhysicalConstants = DEFAULT_CONSTANTS) -> list[ResonanceEntry]:
    """The potential's transmission-resonance family up to n_max entries,
    read from its normal form, so equal normal forms give equal families.

    Interfaces: none for a = 0 (Delta, Step) or for a free form; for a pair
    of equal delta couplings the exact roots of k = -k0 tan(2 k a); for an
    unequal pair the approximate family 2 k a = (n + 1/2) pi, the large-k
    limit of the equal-pair roots, with T there (no local maximum of T in
    general); for a barrier E = v2 + hbar^2 (n pi / 2a)^2 / (2m) above both
    limits, exact (T = 1) where v1 = v3 and pseudo (T = T_step) otherwise.
    EckartReduction: where v_minus = v_plus, the couplings v0 that make it
    reflectionless ('parameter_condition'); none for a step.

    An empty list is a valid result.  Raises NotAScatteringPotential for a
    spec with no normal form.
    """
    if n_max < 1:
        raise DomainError("n_max must be >= 1")
    return normal_form(spec).resonances(n_max, c)
