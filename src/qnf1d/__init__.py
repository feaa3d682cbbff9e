"""Transmission amplitudes, transmission resonances and quasi-normal
frequencies for a catalog of exactly solvable one-dimensional potentials,
cross-validated against an independent numeric scattering engine."""

__version__ = "0.1.0"

from .potentials import (  # noqa: F401
    PhysicalConstants,
    Delta,
    DoubleDelta,
    AsymDoubleDelta,
    Step,
    RectBarrier,
    AsymRectBarrier,
    Tanh,
    Sech2,
    PoschlTellerSech2,
    Eckart,
    RosenMorse,
    MorseFeshbach,
    Mobius2,
    Morse,
    ManningRosen,
    Hulthen,
    Tietz,
    Hua,
    ScatteringAmplitudes,
    ResonanceEntry,
    evaluate,
    scattering_limits,
    is_scattering,
    asymptotic_wavenumbers,
    transmission_amplitude,
    transmission_probability,
    resonances,
    step_bound,
)
from .canonical import CanonicalForm, canonicalize  # noqa: F401
from .qnf import (  # noqa: F401
    QnfResult,
    AsymptoticFit,
    classify,
    pole_condition,
    closed_form_qnfs,
    transcendental_qnfs,
    perturbative_qnfs,
    asymptotic_qnfs,
    qnf_energy,
    fit_offset_gap,
)
from .oracle import (  # noqa: F401
    SearchRegion,
    PoleReport,
    numeric_amplitude,
    find_poles,
    refine_pole,
)
from .checks import Check, verify  # noqa: F401
from .specfn import lambert_w, lambert_w_derivative, lambert_w_comtet, log_gamma  # noqa: F401
