"""Importing qnf1d loads numpy only: each scipy submodule and yaml load on
the first call that needs them, so a CLI command pays for what it uses.

Each case runs in a fresh interpreter, since this one has long loaded scipy.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_after(code: str) -> list[str]:
    """The scipy and yaml modules a fresh interpreter holds after running code."""
    probe = code + (
        "\nimport sys\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    return ast.literal_eval(run.stdout.splitlines()[-1])


def test_import_loads_no_scipy_and_no_yaml():
    assert loaded_after("import qnf1d, qnf1d.cli") == []


def test_eval_and_catalog_load_no_scipy():
    code = """
import contextlib, io
from qnf1d import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["eval", "--type", "eckart", "--V-minus", "0", "--V-plus", "2",
                     "--V0", "-1", "--a", "1", "--points", "11"]) == 0
    assert cli.main(["catalog"]) == 0
"""
    assert not [m for m in loaded_after(code) if m.startswith("scipy")]


def test_qnf_on_sech2_loads_no_scipy():
    code = """
import contextlib, io
from qnf1d import cli
with contextlib.redirect_stdout(io.StringIO()):
    for fmt in ("csv", "json"):
        assert cli.main(["qnf", "--type", "sech2", "--V0", "-1", "--a", "1",
                         "--n", "0..50", "--format", fmt]) == 0
"""
    assert not [m for m in loaded_after(code) if m.startswith("scipy")]


def test_a_lambert_w_tower_loads_scipy_special_on_first_use():
    # the checks above are not vacuous: the probe sees a submodule once a
    # command needs one; the duplicate filter of the tower needs no
    # scipy.spatial (which would load linalg and sparse as well)
    code = """
from qnf1d import DoubleDelta, closed_form_qnfs
closed_form_qnfs(DoubleDelta(1.0, 1.0), (0, 3))
"""
    loaded = loaded_after(code)
    assert "scipy.special" in loaded
    assert not [m for m in loaded
                if m.split(".")[:2] in (["scipy", "spatial"], ["scipy", "linalg"],
                                        ["scipy", "sparse"])]


HEAVY = ("optimize", "linalg", "sparse", "spatial", "fft")


def loaded_by(argv: list) -> list[str]:
    """The scipy and yaml modules a fresh interpreter holds after cli.main(argv)."""
    return loaded_after(f"""
import contextlib, io
from qnf1d import cli
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main({argv!r}) == 0
""")


def test_smooth_verify_loads_no_linalg_integrate_or_optimize():
    # the ODE oracle solves its panel systems with numpy alone; on top of
    # scipy.special, scipy.linalg would add some 6 MB of resident memory
    for argv in (
        ["verify", "--type", "sech2", "--V0", "-1", "--a", "1"],
        ["verify", "--type", "tietz", "--V0", "1.1", "--x0", "0.3", "--a", "0.9",
         "--kind", "cosh"],
    ):
        loaded = loaded_by(argv)
        assert "scipy.special" in loaded, argv
        assert not [m for m in loaded if m.split(".")[:2] in
                    (["scipy", "linalg"], ["scipy", "integrate"], ["scipy", "optimize"])], argv


def test_root_finding_commands_load_no_heavy_scipy():
    # the delta-pair resonances and the imaginary-axis towers find their
    # bracketed roots with numpy alone; verify on an unequal pair builds
    # such a tower too
    for argv in (
        ["resonances", "--type", "double-delta", "--alpha", "1", "--a", "1", "--n-max", "50"],
        ["qnf", "--type", "rect-barrier", "--V0", "-1", "--a", "1",
         "--method", "transcendental"],
        ["verify", "--type", "asym-double-delta", "--alpha-plus", "1", "--alpha-minus", "0.7",
         "--a", "1"],
    ):
        loaded = loaded_by(argv)
        assert not [m for m in loaded if m.split(".")[:2] in [["scipy", h] for h in HEAVY]], argv
