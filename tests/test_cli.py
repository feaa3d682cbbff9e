import json
from pathlib import Path

import pytest

from qnf1d import Eckart, Hua, PhysicalConstants, Tietz
from qnf1d.cli import main
from qnf1d.errors import DomainError
from qnf1d.serialize import dict_to_spec, dumps, loads, spec_to_dict


class TestSerialization:
    def test_round_trip_all_types(self):
        docs = [
            {"type": "delta", "alpha": 1.0},
            {"type": "double_delta", "alpha": 0.5, "a": 1.25},
            {"type": "asym_double_delta", "alpha_plus": 0.2, "alpha_minus": 0.4, "a": 1.0},
            {"type": "step", "V0": 2.0},
            {"type": "rect_barrier", "V0": -1.0, "a": 0.5},
            {"type": "asym_rect_barrier", "V1": 0.0, "V2": 2.0, "V3": 0.5, "a": 0.7},
            {"type": "tanh", "V_minus": 0.0, "V_plus": 2.0, "a": 1.0},
            {"type": "sech2", "V0": -1.0, "a": 1.0},
            {"type": "eckart", "V_minus": 0.0, "V_plus": 2.0, "V0": -1.0, "a": 1.0},
            {"type": "mobius2", "A0": 0.1, "E1": 1.0, "F1": 2.0, "E2": 1.0,
             "F2": 3.0, "a": 1.0, "overall": 0.5},
            {"type": "morse", "V0": 1.0, "x0": 0.2, "a": 0.9},
            {"type": "manning_rosen", "A": 1.0, "B": -0.5, "b": 0.8},
            {"type": "hulthen", "V0": 1.0, "a": 1.0},
            {"type": "tietz", "V0": 1.0, "x0": 0.3, "a": 0.9, "kind": "cosh"},
            {"type": "hua", "V0": 1.2, "q": -2.0, "a": 1.0},
        ]
        for doc in docs:
            spec = dict_to_spec(doc)
            assert spec_to_dict(spec) == doc
            spec2, _ = loads(dumps(spec))
            assert spec2 == spec

    def test_flow_mapping_and_hyphen_alias(self):
        spec, constants = loads("{type: delta, alpha: 1.0}")
        assert spec_to_dict(spec) == {"type": "delta", "alpha": 1.0}
        spec, _ = loads("{type: double-delta, alpha: 1.0, a: 1.0}")
        assert type(spec).__name__ == "DoubleDelta"

    def test_eckart_example(self):
        spec, _ = loads("{type: eckart, V_minus: 0, V_plus: 2, V0: -1, a: 1}")
        assert spec == Eckart(0.0, 2.0, -1.0, 1.0)

    def test_hua_negative_q_accepted(self):
        spec, _ = loads("{type: hua, V0: 1.0, q: -2, a: 1.0}")
        assert spec == Hua(1.0, -2.0, 1.0)

    def test_unknown_keys_rejected(self):
        with pytest.raises(DomainError, match="unknown key"):
            loads("{type: delta, alpha: 1.0, beta: 2.0}")

    def test_missing_type(self):
        with pytest.raises(DomainError, match="type"):
            loads("{alpha: 1.0}")

    def test_unknown_type(self):
        with pytest.raises(DomainError, match="unknown potential type"):
            loads("{type: woods_saxon, V0: 1.0}")

    def test_constants_block(self):
        spec, constants = loads(
            "{type: delta, alpha: 1.0, constants: {hbar: 2.0, mass: 0.5, "
            "mode: relativistic}}"
        )
        assert constants == PhysicalConstants(2.0, 0.5, "relativistic")

    def test_tietz_kind(self):
        spec, _ = loads("{type: tietz, V0: 1.0, x0: 0.3, a: 0.9, kind: sinh}")
        assert spec == Tietz(1.0, 0.3, 0.9, "sinh")


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestCommands:
    def test_qnf_sech2_table(self, capsys):
        code, out = run_cli(
            ["qnf", "--type", "sech2", "--V0", "-1", "--a", "1", "--n", "0..5"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,sign,method,k_re,k_im,residual")
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[3]) == pytest.approx(0.0)
        # first row (branch 0) carries the k = 2i mode family; the minus row
        # is the bound state at -i, the plus row the damped mode at 2i
        k_ims = {(r.split(",")[0], r.split(",")[1]): float(r.split(",")[4])
                 for r in lines[1:]}
        assert k_ims[("0", "plus")] == pytest.approx(2.0)
        assert k_ims[("0", "minus")] == pytest.approx(-1.0)
        # two signs x six n minus the suppressed trivial zero at (1, minus)
        assert len(lines) == 1 + 11

    def test_resonances_step_empty_exit_zero(self, capsys):
        code, out = run_cli(["resonances", "--type", "step"], capsys)
        assert code == 0
        assert out.strip() == "n,kind,k,E,parameter,T"

    def test_rect_resonance_values(self, capsys):
        code, out = run_cli(
            ["resonances", "--type", "rect-barrier", "--V0", "1", "--a", "1",
             "--n-max", "1"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        import math

        assert float(row[3]) == pytest.approx(1.0 + math.pi**2 / 8.0)

    def test_eval_table(self, capsys):
        code, out = run_cli(
            ["eval", "--type", "sech2", "--V0", "-1", "--a", "1",
             "--x-min", "-1", "--x-max", "1", "--points", "3"],
            capsys,
        )
        assert code == 0
        rows = [r.split(",") for r in out.strip().splitlines()[1:]]
        assert float(rows[1][1]) == pytest.approx(-1.0)

    def test_transmission_columns(self, capsys):
        code, out = run_cli(
            ["transmission", "--type", "delta", "--alpha", "1",
             "--e-min", "0.5", "--e-max", "2.0", "--points", "4"],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "E,T,abs_t_sq,arg_t"
        for r in lines[1:]:
            e, t, t2, _arg = (float(v) for v in r.split(","))
            assert t == pytest.approx(t2, abs=1e-12)

    def test_transmission_through_barrier_top(self, capsys):
        code, out = run_cli(
            ["transmission", "--type", "rect-barrier", "--V0", "1", "--a", "1",
             "--e-min", "0.5", "--e-max", "1.5", "--points", "3"],
            capsys,
        )
        assert code == 0
        e, t, _t2, _arg = (float(v) for v in out.strip().splitlines()[2].split(","))
        assert e == 1.0 and t == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_fit_verdict_column(self, capsys):
        code, out = run_cli(
            ["fit", "--type", "double-delta", "--alpha", "0.5", "--a", "1",
             "--n", "5..15", "--model", "linear_plus_log"],
            capsys,
        )
        assert code == 0
        row = out.strip().splitlines()[1].split(",")
        assert row[-1] == "logarithmic_subleading"

    def test_catalog_lists_family(self, capsys):
        code, out = run_cli(["catalog"], capsys)
        assert code == 0
        assert "hulthen" in out
        assert "simple pole" in out  # the honest no-exact-form remark
        assert "morse_feshbach" in out

    def test_config_file(self, tmp_path: Path, capsys):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("type: sech2\nV0: -1.0\na: 1.0\n", encoding="utf-8")
        code, out = run_cli(["qnf", "--config", str(cfg), "--n", "0..1"], capsys)
        assert code == 0
        assert "damped_mode" in out

    def test_validation_errors_exit_one(self, capsys):
        code = main(["qnf", "--type", "sech2"])  # missing V0/a
        assert code == 1
        code = main(["transmission", "--type", "delta", "--alpha", "1",
                     "--e-min", "3", "--e-max", "1"])
        assert code == 1

    def test_verify_pass_and_exit_codes(self, capsys):
        code, out = run_cli(
            ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1",
             "--region=-16,16,0.01,2.5", "--grid-density", "6"],
            capsys,
        )
        assert code == 0
        assert "FAIL" not in out
        assert "QNF/pole bijection" in out

    def test_verify_failure_exits_two(self, capsys):
        # a grid far too coarse to seed the pole refinement: the bijection
        # check genuinely fails, and the exit status must say so
        code, out = run_cli(
            ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1",
             "--region", "0.5,16,0.01,2.5", "--grid-density", "0.2"],
            capsys,
        )
        assert code == 2
        assert "FAIL" in out


class TestDeterminism:
    def test_csv_byte_identical(self, tmp_path: Path):
        args = ["transmission", "--type", "eckart", "--V-minus", "0",
                "--V-plus", "2", "--V0", "-1", "--a", "1", "--points", "20"]
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_json_envelope(self, tmp_path: Path):
        out = tmp_path / "a.json"
        args = ["qnf", "--type", "sech2", "--V0", "-1", "--a", "1",
                "--n", "0..2", "--format", "json", "--output", str(out)]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert doc["command"] == "qnf"
        assert doc["spec"] == {"type": "sech2", "V0": -1.0, "a": 1.0}
        assert doc["constants"] == {"hbar": 1.0, "mass": 1.0,
                                    "mode": "nonrelativistic"}
        assert doc["columns"][0] == "n"
        assert doc["rows"]
        # identical runs give identical bytes
        out2 = tmp_path / "b.json"
        assert main(args[:-1] + [str(out2)]) == 0
        assert out.read_bytes() == out2.read_bytes()
