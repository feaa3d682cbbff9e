import numpy as np
import pytest

from qnf1d import PhysicalConstants


@pytest.fixture
def units():
    return PhysicalConstants()


def energy_grid(spec, points=50, span=5.0, start=0.05):
    """Real energies strictly above both asymptotic limits."""
    from qnf1d import scattering_limits

    v_minus, v_plus = scattering_limits(spec)
    base = max(v_minus, v_plus)
    return np.linspace(base + start, base + span, points)
