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


def test_a_lambert_w_tower_loads_scipy_special_on_first_use():
    # the check above is not vacuous: the probe sees a submodule once a
    # command needs one
    code = """
from qnf1d import DoubleDelta, closed_form_qnfs
closed_form_qnfs(DoubleDelta(1.0, 1.0), (0, 3))
"""
    assert "scipy.special" in loaded_after(code)
