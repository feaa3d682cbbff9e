"""Round 0 of the benchmark's certify and scan workloads (seed 1), run as
perfbench runs them and judged by its own mpmath reference checker
(perfbench/reference.py): an output that the benchmark would count as
wrong or missing fails here."""

import sys
import types
from pathlib import Path

import pytest

from qnf1d import cli, oracle, potentials, qnf

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO))

from perfbench import reference, run, workloads  # noqa: E402

# family -> the verdict it has today, where that is not "ok": the jittered
# Sech2 scan misses a pole within a grid cell of the region's floor
# (ROADMAP item 8)
KNOWN = {("scan", "find_poles:closed:sech2~"): "incomplete"}


@pytest.mark.parametrize("workload", ["certify", "scan"])
def test_round_zero_passes_the_reference(workload, tmp_path):
    lib = types.SimpleNamespace(cli=cli, oracle=oracle, potentials=potentials, qnf=qnf)
    ops = workloads.generate(workload, 1, str(tmp_path), lib)[0]
    verdicts = []
    for op in ops:
        output = run.execute(op, lib)
        verdicts.append((op.family, run.error_of(op, output, None)
                         or reference.check(op, output)[0]))
    assert verdicts == [(family, KNOWN.get((workload, family), "ok")) for family, _ in verdicts]
