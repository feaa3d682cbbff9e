import argparse
import csv
import dataclasses
import io
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest

from qnf1d import (
    DoubleDelta, Eckart, Hua, PhysicalConstants, RectBarrier, Sech2, Tanh, Tietz,
    asymptotic_qnfs, oracle, potentials, qnf_energy,
)
from qnf1d.cli import _build_parser, _emit, _spec_from_args, main
from qnf1d.errors import DomainError
from qnf1d.potentials import normal_form
from qnf1d.serialize import TYPE_NAMES, dict_to_spec, dumps, loads, spec_to_dict

C = PhysicalConstants()


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

    def test_resonances_read_the_normal_form(self, capsys):
        # Rosen-Morse with A = B = 0 is the sech^2 well, byte for byte
        rosen = run_cli(["resonances", "--type", "rosen-morse", "--A", "0", "--B", "0",
                         "--C", "-1", "--a", "1"], capsys)
        sech2 = run_cli(["resonances", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        assert rosen[0] == 0
        assert rosen == sech2
        assert len(rosen[1].splitlines()) == 1 + 10

    def test_resonances_asymmetric_eckart_header_only(self, capsys):
        code, out = run_cli(["resonances", "--type", "eckart", "--V-minus", "0",
                             "--V-plus", "2", "--V0", "-1", "--a", "1"], capsys)
        assert code == 0
        assert out == "n,kind,k,E,parameter,T\n"

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

    def test_catalog_csv_quotes_as_csv_writer(self, capsys):
        # the status strings with commas come out quoted, exactly as
        # csv.writer writes the same cells
        code, out = run_cli(["catalog"], capsys)
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert out == buf.getvalue()
        hulthen = next(line for line in out.splitlines() if line.startswith("hulthen,"))
        status = rows[[r[0] for r in rows].index("hulthen")][-1]
        assert "," in status and hulthen == "hulthen" + "," * 10 + f'"{status}"'

    @pytest.mark.parametrize("spec, flags", [
        (DoubleDelta(1.0, 1.0), ["--type", "double-delta", "--alpha", "1", "--a", "1"]),
        (RectBarrier(1.0, 1.0), ["--type", "rect-barrier", "--V0", "1", "--a", "1"]),
        (RectBarrier(-1.0, 1.0), ["--type", "rect-barrier", "--V0", "-1", "--a", "1"]),
        (Tanh(0.0, 2.0, 1.0), ["--type", "tanh", "--V-minus", "0", "--V-plus", "2",
                               "--a", "1"]),
        (Sech2(-2.5, 0.8), ["--type", "sech2", "--V0", "-2.5", "--a", "0.8"]),
    ], ids=["double_delta", "barrier", "well", "tanh", "sech2"])
    def test_asymptotic_rows_are_the_one_member_calls(self, spec, flags, capsys):
        # the command builds all members in one library call; each row is
        # bitwise the public one-member call
        code, out = run_cli(["qnf", *flags, "--method", "asymptotic", "--n=-3..40",
                             "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [row[0] for row in rows] == list(range(-3, 41))
        bits = lambda x: struct.pack("<d", x)  # noqa: E731
        for n, sign, method, k_re, k_im, res, cls, e_re, e_im in rows:
            r = asymptotic_qnfs(spec, n, C)
            e = qnf_energy(r.k, C, normal_form(spec).qnf_level)
            assert (sign, method, cls) == (r.sign_choice, "asymptotic", r.classification)
            assert list(map(bits, (k_re, k_im, res, e_re, e_im))) == list(map(
                bits, (r.k.real, r.k.imag, r.residual, e.real, e.imag)))

    def test_main_keeps_no_state_between_calls(self, tmp_path: Path, capsys):
        # the parser is built once per process; every call still starts from
        # the defaults
        assert _build_parser() is _build_parser()
        argv = ["qnf", "--type", "sech2", "--V0", "-1", "--a", "1", "--n", "0..3"]
        code, reference = run_cli(argv, capsys)
        assert code == 0 and reference.startswith("n,sign,method,")
        code, text = run_cli(argv + ["--format", "json"], capsys)
        assert code == 0 and json.loads(text)["command"] == "qnf"
        assert run_cli(argv, capsys) == (0, reference)
        path = tmp_path / "out.csv"
        assert run_cli(argv + ["--output", str(path)], capsys) == (0, "")
        assert path.read_text() == reference
        assert run_cli(argv, capsys) == (0, reference)
        with pytest.raises(SystemExit):
            main(argv + ["--format", "xml"])
        capsys.readouterr()
        assert main(["qnf", "--type", "sech2"]) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert run_cli(argv, capsys) == (0, reference)
        code, text = run_cli(["eval", "--type", "sech2", "--V0", "-1", "--a", "1",
                              "--points", "3"], capsys)
        assert code == 0 and text.splitlines()[0] == "x,V" and len(text.splitlines()) == 4

    def test_eval_half_line_error(self, capsys):
        # one array evaluation: the grid's x <= 0 is the same error as before
        assert main(["eval", "--type", "hulthen", "--V0", "1", "--a", "1"]) == 1
        assert capsys.readouterr().err == "error: Hulthen is defined on x > 0\n"

    def test_config_file(self, tmp_path: Path, capsys):
        cfg = tmp_path / "spec.yaml"
        cfg.write_text("type: sech2\nV0: -1.0\na: 1.0\n", encoding="utf-8")
        code, out = run_cli(["qnf", "--config", str(cfg), "--n", "0..1"], capsys)
        assert code == 0
        # a reflectionless well: its one bound state is a pole of t, and the
        # denominator gammas cancel the damped members' poles
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        assert {float(row[4]): row[6] for row in rows} == {
            -1.0: "bound_state", 2.0: "cancelled", 3.0: "cancelled"}

    def test_validation_errors_exit_one(self, capsys):
        code = main(["qnf", "--type", "sech2"])  # missing V0/a
        assert code == 1
        code = main(["transmission", "--type", "delta", "--alpha", "1",
                     "--e-min", "3", "--e-max", "1"])
        assert code == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1", "--region=0,inf,0.1,1"],
        ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1", "--grid-density", "nan"],
        ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1", "--region=a,b,c,d"],
        ["qnf", "--type", "sech2", "--V0", "-1", "--a", "1", "--n", "x..3"],
        ["eval", "--type", "sech2", "--V0", "-1", "--a", "1", "--points", "-1"],
        ["transmission", "--type", "sech2", "--V0", "-1", "--a", "1", "--points", "-1"],
        ["qnf", "--type", "double-delta", "--alpha", "353", "--a", "1"],
        ["qnf", "--type", "double-delta", "--alpha", "400", "--a", "1"],
    ], ids=["inf-region", "nan-density", "text-region", "text-n", "eval-points", "points",
            "coupling-353", "coupling-400"])
    def test_bad_input_is_an_error_message(self, argv, capsys):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("flag", ["--e-min", "--e-max"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_energy_flag_is_one_error_line(self, flag, value, capsys):
        argv = ["transmission", "--type", "eckart", "--V-minus", "0", "--V-plus", "2",
                "--V0", "-1", "--a", "1", f"{flag}={value}"]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["transmission", "--type", "double-delta", "--alpha", "1", "--a", "1",
         "--points", "200"],
        ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1",
         "--region=-16,16,0.01,2.5", "--grid-density", "6"],
    ], ids=["transmission", "verify"])
    def test_one_probability_call_per_command(self, argv, capsys, monkeypatch):
        calls = []
        probability = potentials.transmission_probability

        def counting(spec, E, c):
            calls.append(E)
            return probability(spec, E, c)

        monkeypatch.setattr(potentials, "transmission_probability", counting)
        code, _out = run_cli(argv, capsys)
        assert code == 0
        assert len(calls) == 1

    def test_verify_skip_lines(self, capsys, monkeypatch):
        # a check that tests no mode says so and why, and is not a failure
        code, out = run_cli(["verify", "--type", "morse-feshbach", "--V0", "0.8",
                             "--mu", "0.7", "--L", "1.1"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "SKIP low-lying QNFs vs ODE poles: no closed-form QNF with |Im k| a <= 2.05" in out

        def reject(spec, guesses, c):
            return [(g, math.nan, f"no certified pole from guess {g}") for g in guesses.tolist()]

        # every refinement rejected, as for the tanh spec V- = 0, V+ = 2,
        # a = 1, whose verify takes seconds
        monkeypatch.setattr(oracle, "refine_pole", reject)
        code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert ("SKIP low-lying QNFs vs ODE poles: 0 of 1 candidate modes certified by the "
                "oracle; first rejection: no certified pole from guess") in out
        assert out.rstrip().endswith("(2 cancelled members not refined)")

    @pytest.mark.parametrize("argv", [["--type", "delta", "--alpha", "50"],
                                      ["--type", "step", "--V0", "1"]], ids=["delta", "step"])
    def test_verify_skips_an_empty_bijection(self, capsys, argv):
        # Delta(50)'s one pole, 50i, lies above the region's Im k <= 3, and a
        # step has none: the bijection tests nothing, and says so
        code, out = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert "FAIL" not in out and "QNF/pole bijection (" not in out
        assert out.splitlines()[-1] == ("SKIP QNF/pole bijection: no closed-form QNF and no "
                                        "oracle pole in the search region")

    def test_verify_refines_no_cancelled_member(self, capsys, monkeypatch):
        # the README Sech2 lists -1i, 1i and 2i below |Im k| a = 2.05; only
        # the bound state -1i is a pole of t
        calls = []
        refine = oracle.refine_pole

        def counting(spec, guesses, c):
            calls.extend(guesses.tolist())
            return refine(spec, guesses, c)

        monkeypatch.setattr(oracle, "refine_pole", counting)
        code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        assert code == 0
        assert len(calls) == 1
        assert "PASS low-lying QNFs vs ODE poles (1 modes): " in out
        assert "SKIP" not in out

    def test_verify_convergence_sees_the_tail_series(self, capsys, monkeypatch):
        # the check integrates the oracle's own domain, where a truncated
        # Jost tail series moves t; no call integrates beyond twice that
        # domain
        lengths = []
        amplitude = oracle.numeric_amplitude

        def counting(spec, k, c, L=None, **options):
            lengths.append(oracle._ODE_HALF_WIDTH * spec.a if L is None else L)
            return amplitude(spec, k, c, L, **options)

        monkeypatch.setattr(oracle, "numeric_amplitude", counting)
        code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        assert code == 0
        assert "PASS domain/step convergence: " in out
        assert max(lengths) == 2.0 * oracle._ODE_HALF_WIDTH

        monkeypatch.setattr(oracle, "_TAIL_ORDER", 4)
        code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        assert code == 2
        assert "FAIL domain/step convergence: " in out

    @pytest.mark.parametrize("order, status, low, high",
                             [(4, "FAIL", 1e-6, 1e-4), (32, "PASS", 0.0, 1e-12)])
    def test_verify_convergence_reads_the_tail_order(self, capsys, monkeypatch, order, status,
                                                     low, high):
        # the propagators resolve t far below the check's 1e-8, so on the
        # README Sech2 the check reads the truncation of the Jost tail
        # series: 5.6e-6 with 4 terms, rounding with the default 32
        monkeypatch.setattr(oracle, "_TAIL_ORDER", order)
        _code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        [line] = [ln for ln in out.splitlines() if "domain/step convergence" in ln]
        assert line.startswith(f"{status} domain/step convergence: ")
        assert low <= float(line.split(": ")[1].split()[0]) < high

    def test_verify_pass_and_exit_codes(self, capsys):
        code, out = run_cli(
            ["verify", "--type", "double-delta", "--alpha", "1", "--a", "1",
             "--region=-16,16,0.01,2.5", "--grid-density", "6"],
            capsys,
        )
        assert code == 0
        assert "FAIL" not in out
        assert "QNF/pole bijection" in out

    @pytest.mark.parametrize("name", sorted(TYPE_NAMES))
    def test_type_flags_build_the_spec(self, name):
        # every parameter of every catalog type has a flag, and --type plus
        # the flags gives the spec the schema gives
        fields = [f.name for f in dataclasses.fields(TYPE_NAMES[name])]
        doc = {"type": name}
        argv = ["eval", "--type", name.replace("_", "-")]
        for i, field in enumerate(fields):
            value = "cosh" if field == "kind" else 0.5 + 0.25 * i
            doc[field] = value
            argv += ["--" + field.replace("_", "-"), str(value)]
        spec, constants = _spec_from_args(_build_parser().parse_args(argv))
        assert spec == dict_to_spec(doc)
        assert constants == PhysicalConstants()

    def test_search_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["qnf", "--type", "delta", "--alpha", "1", "--search", "region"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --search" in capsys.readouterr().err

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

    def test_json_floats_are_the_csv_doubles(self, capsys):
        # a JSON float is bitwise the double that the CSV's 17 significant
        # digits name, on a command's rows and on the values that need care
        def doubles(csv_text, json_text):
            want = list(csv.reader(io.StringIO(csv_text)))[1:]
            got = json.loads(json_text)["rows"]
            assert len(got) == len(want)
            pairs = [(g, w) for gr, wr in zip(got, want) for g, w in zip(gr, wr)
                     if isinstance(g, float)]
            assert pairs
            for g, w in pairs:
                assert struct.pack("<d", g) == struct.pack("<d", float(w)), (g, w)
            return [g for g, _ in pairs]

        argv = ["qnf", "--type", "tanh", "--V-minus", "0", "--V-plus", "2", "--a", "1",
                "--n", "1..50"]
        _, csv_text = run_cli(argv, capsys)
        _, json_text = run_cli(argv + ["--format", "json"], capsys)
        assert len(doubles(csv_text, json_text)) == 50 * 5
        special = [-0.0, 0.0, math.nan, math.inf, -math.inf, 0.1, 1.0 / 3.0, 5e-324,
                   np.float64(-2.5e300)]
        texts = [_emit(argparse.Namespace(format=fmt, command="qnf"), None, None,
                       ["n", "x"], [(i, v) for i, v in enumerate(special)])
                 for fmt in ("csv", "json")]
        got = doubles(*texts)
        assert math.copysign(1.0, got[0]) == -1.0 and math.isnan(got[2])
