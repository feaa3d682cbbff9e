"""Tests of the benchmark harness itself.

    python -m pytest perfbench/tests

They live outside the library's test paths so the library's own suite never
runs them.
"""

import copy
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO))

from perfbench import layers, reference, run, workloads  # noqa: E402

run.ROOT = REPO


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


@pytest.fixture(scope="module")
def cheap_ops(lib, tmp_path_factory):
    """A few fast operations from every kind: CLI commands and a pole scan."""
    workdir = tmp_path_factory.mktemp("specs")
    ops = [op for op in workloads.generate("spectra", 5, str(workdir), lib)[0]
           if op.family in ("transmission:rect_barrier", "qnf:double_delta",
                            "fit:sech2", "resonances:sech2", "catalog",
                            "eval:eckart", "qnf:double_delta:0.5")]
    scan = workloads.generate("scan", 5, str(workdir), lib)[0]
    ops += [op for op in scan if op.family in ("find_poles:closed:double_delta",
                                               "find_poles:closed:sech2",
                                               "transcendental:axis:asym_double_delta")]
    return ops


def _bindings():
    """Every callable bound at module level in the loaded qnf1d modules."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "qnf1d" or name.startswith("qnf1d."):
            for attr, val in vars(mod).items():
                if callable(val):
                    out[(name, attr)] = val
    return out


def test_wrappers_rebind_aliases_and_restore_originals(lib):
    before = _bindings()
    original_evaluate = lib.potentials.evaluate
    with layers.Tracer() as tracer:
        # `from .potentials import evaluate` copied the binding into oracle
        assert lib.oracle.evaluate is lib.potentials.evaluate
        assert lib.oracle.evaluate is not original_evaluate
        assert lib.oracle.solve_ivp.__wrapped__ is not None
        assert not tracer.missing
    assert _bindings() == before


def test_outputs_identical_with_tracing_on_and_off(lib, cheap_ops):
    with run.SpeedProbe() as probe:
        plain = run.run_pass(((0, op) for op in cheap_ops), lib, probe)
    tracer = layers.Tracer()
    with tracer, run.SpeedProbe() as probe:
        traced = run.run_pass(((0, op) for op in cheap_ops), lib, probe, tracer)
    assert [r.output for r in plain] == [r.output for r in traced]
    assert [r.error for r in plain] == [r.error for r in traced]
    # the known failures fail both ways
    assert any(r.error for r in plain) and not all(r.error for r in plain)


def test_self_times_sum_to_traced_wall_time(lib, cheap_ops):
    tracer = layers.Tracer()
    with tracer, run.SpeedProbe() as probe:
        traced = run.run_pass(((0, op) for op in cheap_ops), lib, probe, tracer)
    wall = sum(r.wall for r in traced)
    total_self = sum(st.self_s for st in tracer.stats.values())
    assert total_self == pytest.approx(wall, rel=1e-9)
    assert tracer.stats[layers.ROOT_SPAN].calls == len(cheap_ops)
    m = tracer.metrics(0.0)
    assert m["oracle.find_poles.amp_evals"]["value"] > 1000
    assert m["cli.main.qnf.errors"]["value"] == 1  # the lambert_w failure


def test_every_declared_metric_is_reported(lib, cheap_ops):
    tracer = layers.Tracer()
    with tracer, run.SpeedProbe() as probe:
        run.run_pass(((0, op) for op in cheap_ops[:1]), lib, probe, tracer)
    names = [name for name, _unit in layers.metric_specs()]
    assert list(tracer.metrics(0.1)) == names
    assert len(set(names)) == len(names)


def test_missing_function_is_reported_missing_not_zero(lib, monkeypatch):
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + [("oracle", "renamed_away")])
    with layers.Tracer() as tracer:
        pass
    m = tracer.metrics(0.0)
    entry = m["oracle.renamed_away.calls"]
    assert entry["value"] is None and "renamed_away" in entry["error"]
    assert m["oracle.find_poles.calls"]["value"] == 0


def test_speed_probe_samples_and_restores_the_signal_handler():
    before = run.signal.getsignal(run.signal.SIGALRM)
    with run.SpeedProbe() as probe:
        start = run.time.perf_counter()
        while run.time.perf_counter() - start < 0.3:
            pass
        end = run.time.perf_counter()
    assert len(probe.durs) >= 5 and probe.handler_s > 0
    assert 0 < probe.scale(start, end) < 100
    assert run.signal.getsignal(run.signal.SIGALRM) is before
    assert run.signal.getitimer(run.signal.ITIMER_REAL) == (0.0, 0.0)


def test_two_seeds_give_different_operation_lists(lib, tmp_path):
    def keys(seed):
        pool = workloads.generate("scan", seed, str(tmp_path), lib)
        return [op.key for rnd in pool for op in rnd]

    assert keys(1) == keys(1)
    assert keys(1) != keys(2)
    for name in workloads.WORKLOADS:
        a = workloads.generate(name, 1, str(tmp_path), lib)
        b = workloads.generate(name, 2, str(tmp_path), lib)
        assert [op.key for op in a[0]] != [op.key for op in b[0]]
        # every round of a workload has the same mix of families
        assert sorted(op.family for op in a[0]) == sorted(op.family for op in b[1])


def test_reference_flags_wrong_and_dropped_items(lib, cheap_ops):
    op = next(o for o in cheap_ops if o.family == "qnf:double_delta")
    out = run.execute(op, lib)
    assert reference.check(op, out)[0] == "ok"
    lines = out["out"].splitlines()
    cells = lines[3].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-6))  # k_im off by 1e-6
    wrong = dict(out, out="\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
    assert reference.check(op, wrong)[0] == "mismatch"
    dropped = dict(out, out="\n".join(lines[:3] + lines[4:]) + "\n")
    assert reference.check(op, dropped)[0] == "incomplete"

    scan = next(o for o in cheap_ops if o.family == "find_poles:closed:double_delta")
    poles = run.execute(scan, lib)
    assert reference.check(scan, poles)[0] == "ok"
    center = complex((scan.region[0] + scan.region[1]) / 2, (scan.region[2] + scan.region[3]) / 2)
    mid = min(range(len(poles)), key=lambda i: abs(complex(*poles[i]) - center))
    assert reference.check(scan, poles[:mid] + poles[mid + 1:])[0] == "incomplete"
    moved = copy.deepcopy(poles)
    moved[0] = (moved[0][0] + 1e-6, moved[0][1])
    assert reference.check(scan, moved)[0] == "mismatch"


def test_reference_flags_dropped_and_miscounted_verify_checks():
    op = workloads.cli_op("verify:double_delta", "verify",
                          {"type": "double_delta", "alpha": 1.0, "a": 1.0},
                          "--region=-16,16,0.01,2.5")
    lines = ["PASS amplitude agreement (100 samples): 2.395e-15 (tol 1e-12)",
             "PASS T = |t|^2 on energy grid: 4.441e-16 (tol 1e-10)",
             "PASS transfer-matrix determinant: 3.882e-13 (tol 1e-12)",
             "PASS QNF/pole bijection (20/20 matched, 0 unmatched poles): 1.831e-15 (tol 1e-08)"]
    out = lambda ls: {"rc": 0, "out": "\n".join(ls) + "\n", "err": ""}  # noqa: E731
    assert reference.check(op, out(lines)) == ("ok", 4, "4 confirmed, 0 disagree, 0 missing")
    assert reference.check(op, out(lines[:3]))[0] == "incomplete"
    miscounted = lines[:3] + [lines[3].replace("20/20", "19/19")]
    assert reference.check(op, out(miscounted))[0] == "mismatch"
