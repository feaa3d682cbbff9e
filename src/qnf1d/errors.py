"""Exception types shared across the library."""


class Qnf1dError(Exception):
    """Base class for all library errors."""


class DomainError(Qnf1dError):
    """Input outside the mathematical domain of an operation."""


class GammaPoleError(DomainError):
    """log-gamma evaluated at a non-positive integer pole."""


class AtPoleError(Qnf1dError):
    """Transmission amplitude requested exactly at a pole (a QNF)."""

    def __init__(self, k, message="amplitude has a pole here (quasi-normal wavenumber)"):
        super().__init__(f"{message}: k = {k}")
        self.k = k


class NotAScatteringPotential(Qnf1dError):
    """The potential does not define a scattering problem."""


class RegimeError(Qnf1dError):
    """Energy outside the true scattering regime."""


class CanonicalizationError(Qnf1dError):
    """The potential has no exact (Mobius)^2 canonical form."""


class OverflowGuardError(Qnf1dError):
    """Requested evaluation is not numerically representable."""


class UnsupportedPotentialError(Qnf1dError):
    """Operation not defined for this potential type."""
