import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from qnf1d import PhysicalConstants

# ci (the default): the same examples on every run, from the test's source,
# and no example database, so a run's verdict is a function of the tree.
# explore (pytest --hypothesis-profile=explore): fresh random examples, ten
# times each test's max_examples, with the database on
settings.register_profile("ci", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile("ci")
# under ci hypothesis' cache of source constants goes to a temporary
# directory, so a run leaves no .hypothesis/ behind
_home = None


@pytest.hookimpl(trylast=True)  # after --hypothesis-profile is loaded
def pytest_configure(config):
    global _home
    if settings.get_current_profile_name() == "ci":
        _home = tempfile.mkdtemp(prefix="hypothesis-")
        set_hypothesis_home_dir(_home)


def pytest_unconfigure(config):
    if _home is not None:
        set_hypothesis_home_dir(None)
        shutil.rmtree(_home, ignore_errors=True)


def pytest_collection_modifyitems(config, items):
    if settings.get_current_profile_name() != "explore":
        return
    scaled = set()
    for item in items:
        test = getattr(item, "function", None)
        own = getattr(test, "_hypothesis_internal_use_settings", None)
        if own is not None and id(test) not in scaled:
            scaled.add(id(test))
            test._hypothesis_internal_use_settings = settings(
                own, max_examples=10 * own.max_examples)


@pytest.fixture
def units():
    return PhysicalConstants()


def energy_grid(spec, points=50, span=5.0, start=0.05):
    """Real energies strictly above both asymptotic limits."""
    from qnf1d import scattering_limits

    v_minus, v_plus = scattering_limits(spec)
    base = max(v_minus, v_plus)
    return np.linspace(base + start, base + span, points)
