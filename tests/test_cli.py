import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import struct
from pathlib import Path

import numpy as np
import pytest
import yaml

from qnf1d import (
    Check, DoubleDelta, Eckart, Hua, MorseFeshbach, PhysicalConstants, PoleReport, RectBarrier,
    Sech2, Tanh, Tietz, asymptotic_qnfs, oracle, potentials, qnf_energy, verify,
)
from qnf1d import __version__, cli
from qnf1d.cli import _build_parser, _emit, _spec_from_args, main
from qnf1d.errors import DomainError
from qnf1d.potentials import normal_form
from qnf1d.serialize import (
    TYPE_NAMES, constants_to_dict, dict_to_spec, dumps, loads, spec_to_dict,
)

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
        assert loads(dumps(spec, constants)) == (spec, constants)

    @pytest.mark.parametrize("call, match", [
        (lambda: spec_to_dict(object()), "unknown spec class"),
        (lambda: dict_to_spec(["delta"]), "must be a mapping"),
        (lambda: loads("{type: delta, alpha: 1.0, constants: [1, 2]}"), "'constants' must be"),
        (lambda: loads("{type: delta, alpha: 1.0, constants: {h: 1.0}}"), "unknown constants"),
        (lambda: loads("[1, 2]"), "key-value mapping"),
    ], ids=["spec-class", "spec-document", "constants-mapping", "constants-keys",
            "config-mapping"])
    def test_malformed_documents_rejected(self, call, match):
        with pytest.raises(DomainError, match=match):
            call()

    def test_tietz_kind(self):
        spec, _ = loads("{type: tietz, V0: 1.0, x0: 0.3, a: 0.9, kind: sinh}")
        assert spec == Tietz(1.0, 0.3, 0.9, "sinh")

    @pytest.mark.parametrize("text", [
        "type: eckart\nV_minus: 0.0\nV_plus: 2.0\nV0: -1.0\na: 1.0\n"
        "constants: {hbar: 1.0, mass: 1.0, mode: nonrelativistic}\n",
        "{type: sech2, V0: -0x1, a: 1_000}",
        "{type: sech2, V0: -1.0, a: .inf}",
        "{type: sech2, V0: -1.0, a: 1.0",
    ], ids=["readme", "hex-underscore", "inf", "flow-error"])
    def test_both_yaml_loaders_read_the_same(self, monkeypatch, text):
        # libyaml's C loader where pyyaml has it, the pure-Python one
        # otherwise: the same spec, or a DomainError with the same prefix
        def read():
            try:
                return loads(text)
            except DomainError as exc:
                return str(exc).split(":")[0]

        got = read()
        monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
        assert read() == got


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

    def test_negative_range_after_n(self, capsys):
        # argparse reads a word like -2..2 as an option; both spellings give
        # the same double-delta rows
        flags = ["qnf", "--type", "double-delta", "--alpha", "1", "--a", "1"]
        code, spaced = run_cli([*flags, "--n", "-2..2"], capsys)
        assert code == 0
        assert run_cli([*flags, "--n=-2..2"], capsys) == (0, spaced)
        rows = list(csv.reader(io.StringIO(spaced)))[1:]
        assert sorted({int(row[0]) for row in rows}) == [-2, -1, 0, 1, 2]
        assert run_cli([*flags, "--n", "-1..-1"], capsys) == run_cli([*flags, "--n=-1"], capsys)
        assert "--n=-2..2" in _build_parser().format_help()

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
        # a constants flag overrides the file's constants
        code, out = run_cli(["eval", "--config", str(cfg), "--hbar", "2", "--points", "2",
                             "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["constants"] == {"hbar": 2.0, "mass": 1.0,
                                                "mode": "nonrelativistic"}

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
        ["eval", "--points", "3"],
    ], ids=["inf-region", "nan-density", "text-region", "text-n", "eval-points", "points",
            "coupling-353", "coupling-400", "no-spec"])
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

    def test_verify_skip_lines(self, monkeypatch):
        # a check that tests no mode says so and why, and is not a failure
        checks = verify(MorseFeshbach(0.8, 0.7, 1.1), C)
        assert "fail" not in [r.status for r in checks]
        assert checks[-1] == Check("low-lying QNFs vs ODE poles", "skip", detail=(
            "no closed-form QNF with |Im k| a <= 2.05"))
        # the README Eckart's low-lying members are its thresholds, no pole of t
        skip = verify(Eckart(0.0, 2.0, -1.0, 1.0), C)[-1]
        assert (skip.status, skip.value, skip.tol) == ("skip", None, None)
        assert skip.detail == ("no closed-form QNF with |Im k| a <= 2.05 "
                               "(2 cancelled members, no pole of t)")

        # a member the eigen-solve does not resolve is a failure, not a skip
        empty = np.array([], dtype=complex)
        monkeypatch.setattr(oracle, "_spectral_qnfs",
                            lambda spec, c, n: (empty, empty, np.array([], dtype=int)))
        check = verify(Sech2(-1.0, 1.0), C)[-1]
        assert (check.status, check.value, check.detail) == (
            "fail", math.inf, "0/3 matched, 0 unmatched eigenvalues")

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

    def test_verify_names_a_closed_form_error(self, monkeypatch):
        # the Lambert-W argument 2 k0 a e^(2 k0 a) overflows, so the closed
        # form raises: the QNF check's detail names the error, on a skip and,
        # with a pole in the region, on a failure
        spec = DoubleDelta(400.0, 1.0)
        error = ("closed form raised DomainError: delta coupling k0 = m alpha / hbar^2 = 400 "
                 "is too strong at a = 1: the Lambert-W argument 2 k0 a e^(2 k0 a) overflows")
        assert verify(spec, C)[-1] == Check("QNF/pole bijection", "skip", detail=(
            error + "; no oracle pole in the search region"))
        monkeypatch.setattr(oracle, "find_poles",
                            lambda spec, region, c: PoleReport([(1j, 0.0, 1)], region))
        check = verify(spec, C)[-1]
        assert (check.status, check.detail) == ("fail", "0/0 matched, 1 unmatched poles; " + error)

    def test_verify_matches_cancelled_members(self, capsys, monkeypatch):
        # the README Sech2 lists -1i, 1i and 2i below |Im k| a = 2.05; only
        # the bound state -1i is a pole of t, but an eigenvalue cannot tell
        # a pole from a cancelled member, so all three are matched, by one
        # eigen-solve on the least nodes, 10, and no pole refinement
        calls = []
        solve = oracle._spectral_qnfs

        def counting(spec, c, n):
            calls.append(n)
            return solve(spec, c, n)

        def refine(*args):
            raise AssertionError("verify refined a pole")

        monkeypatch.setattr(oracle, "_spectral_qnfs", counting)
        monkeypatch.setattr(oracle, "refine_pole", refine)
        code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1", "--a", "1"], capsys)
        assert code == 0
        assert calls == [10]
        assert ("PASS low-lying QNFs vs ODE poles (3/3 matched, 0 unmatched eigenvalues): "
                in out)
        assert "SKIP" not in out

    @pytest.mark.parametrize("argv, cancelled", [
        (["--type", "eckart", "--V-minus", "0", "--V-plus", "2", "--V0", "-1", "--a", "1"], 2),
        (["--type", "rosen-morse", "--A", "1", "--B", "1", "--C", "-1", "--a", "1"], 2),
        (["--type", "tanh", "--V-minus", "0", "--V-plus", "2", "--a", "1"], 1),
    ], ids=["eckart", "rosen_morse", "tanh"])
    def test_verify_refines_no_threshold(self, argv, cancelled, capsys, monkeypatch):
        # the low-lying members +-2i (2i for tanh) sit on the threshold
        # k- = 0, where t has no pole: a window of cancelled members makes
        # no eigen-solve and skips
        def solve(*args):
            raise AssertionError("verify solved for a cancelled-only window")

        monkeypatch.setattr(oracle, "_spectral_qnfs", solve)
        code, out = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert out.splitlines()[-1] == (
            "SKIP low-lying QNFs vs ODE poles: no closed-form QNF with |Im k| a <= 2.05 "
            f"({cancelled} cancelled members, no pole of t)")

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
    def test_verify_convergence_reads_the_tail_order(self, monkeypatch, order, status,
                                                     low, high):
        # the propagators resolve t far below the check's 1e-8, so on the
        # README Sech2 the check reads the truncation of the Jost tail
        # series: 5.6e-6 with 4 terms, rounding with the default 32
        monkeypatch.setattr(oracle, "_TAIL_ORDER", order)
        [check] = [r for r in verify(Sech2(-1.0, 1.0), C) if r.name == "domain/step convergence"]
        assert (check.status.upper(), check.tol) == (status, 1e-8)
        assert low <= check.value < high

    @pytest.mark.parametrize("argv, budget", [
        (["--type", "sech2", "--V0", "-1", "--a", "1"], 2),
        (["--type", "tietz", "--V0", "1.1", "--x0", "0.3", "--a", "0.9", "--kind", "cosh"], 2),
        (["--type", "rect-barrier", "--V0", "1", "--a", "1"], 6),
    ], ids=["sech2", "tietz", "rect-barrier"])
    def test_verify_engine_call_budget(self, capsys, monkeypatch, argv, budget):
        # Sech2 and Tietz: the amplitude batch and the convergence check (the
        # QNF check is an eigen-solve); RectBarrier: one amplitude call on
        # the oversampled disc, the grid and four Newton calls.  No call confirms the last iterate
        # or probes it again.  The checks call numeric_amplitude and the
        # pole search its 1/t (oracle._INVERSES); the counting wrapper names
        # the engine in __wrapped__, so the pole search still takes the 1/t
        calls = []
        amplitude = oracle.numeric_amplitude
        inverse = oracle._INVERSES[amplitude]

        @functools.wraps(amplitude)
        def counting(*args, **options):
            calls.append(args[1])
            return amplitude(*args, **options)

        def counting_inverse(spec, k, c):
            calls.append(k)
            return inverse(spec, k, c)

        monkeypatch.setattr(oracle, "numeric_amplitude", counting)
        monkeypatch.setitem(oracle._INVERSES, amplitude, counting_inverse)
        code, _out = run_cli(["verify", *argv], capsys)
        assert code == 0
        assert len(calls) == budget

    def test_verify_certifies_a_pole_where_the_ode_is_nan(self, capsys, monkeypatch):
        # the bound state -1.0325266745885129i has k a = -1, where the incident
        # row's X_1 = 4i(-k)/a + 4/a^2 is 0: numeric_amplitude is nan exactly
        # at the pole.  The eigen-solve certifies it with no ODE call there
        pole = -1.0325266745885129j
        near = []
        amplitude = oracle.numeric_amplitude

        def counting(spec, k, c, *args, **options):
            near.extend(np.asarray(k)[np.abs(np.asarray(k) - pole) < 0.5].tolist())
            return amplitude(spec, k, c, *args, **options)

        monkeypatch.setattr(oracle, "numeric_amplitude", counting)
        code, out = run_cli(["verify", "--type", "sech2", "--V0", "-1.066111333736813",
                             "--a", "0.9684979813219105"], capsys)
        assert code == 0
        assert "PASS low-lying QNFs vs ODE poles (3/3 matched, 0 unmatched eigenvalues): " in out
        assert near == []

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

    @pytest.mark.parametrize("alpha, a, code", [
        ("1", "1", 0),
        ("1.3051932532822195", "1.3733252972316858", 2),  # FAIL transfer-matrix determinant
    ], ids=["pass", "fail"])
    def test_verify_json_prints_the_records(self, alpha, a, code, capsys):
        # one row per check record, with the exit status of the text output
        argv = ["verify", "--type", "double-delta", "--alpha", alpha, "--a", a]
        got, out = run_cli([*argv, "--format", "json"], capsys)
        assert got == code
        doc = json.loads(out)
        assert doc["command"] == "verify"
        assert doc["spec"] == {"type": "double_delta", "alpha": float(alpha), "a": float(a)}
        assert doc["columns"] == ["check", "status", "value", "tol", "detail"]
        assert [Check(*row) for row in doc["rows"]] == verify(DoubleDelta(float(alpha), float(a)),
                                                             C)
        _code, text = run_cli(argv, capsys)
        assert [line.split(" ", 1)[0].lower() for line in text.splitlines()] == [
            row[1] for row in doc["rows"]]


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
                       ["n", "x"], [list(range(len(special))), special])
                 for fmt in ("csv", "json")]
        got = doubles(*texts)
        assert math.copysign(1.0, got[0]) == -1.0 and math.isnan(got[2])


def reference_output(fmt, command, spec, constants, names, columns) -> str:
    """The output text formatted cell by cell: each row through csv.writer,
    None as an empty field, an int with str, any other number as
    '{:.17g}' of its double; JSON from json.dumps of the row lists."""
    rows = list(zip(*[c.tolist() if isinstance(c, np.ndarray) else list(c)
                      for c in columns]))

    def csv_cell(v):
        if v is None:
            return ""
        if isinstance(v, str):
            return v
        return str(v) if isinstance(v, int) else "{:.17g}".format(float(v))

    def json_cell(v):
        return v if v is None or isinstance(v, (str, int)) else float(v)

    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(names)
        writer.writerows([list(map(csv_cell, row)) for row in rows])
        return buf.getvalue()
    envelope = {
        "version": __version__, "command": command,
        "spec": None if spec is None else spec_to_dict(spec),
        "constants": None if constants is None else constants_to_dict(constants),
        "columns": list(names), "rows": [list(map(json_cell, row)) for row in rows],
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


SECH2_FLAGS = ["--type", "sech2", "--V0", "-1", "--a", "1"]
ECKART_FLAGS = ["--type", "eckart", "--V-minus", "0", "--V-plus", "2", "--V0", "-1", "--a", "1"]
TANH_FLAGS = ["--type", "tanh", "--V-minus", "0", "--V-plus", "2", "--a", "1"]
DD_FLAGS = ["--type", "double-delta", "--alpha", "1", "--a", "1"]
DELTA_FLAGS = ["--type", "delta", "--alpha", "1"]
RB_FLAGS = ["--type", "rect-barrier", "--V0", "1", "--a", "1"]
WELL_FLAGS = ["--type", "rect-barrier", "--V0", "-1", "--a", "1"]
REGION = "--region=-6,6,-3,3"

EMIT_CASES = {
    "qnf:sech2": ["qnf", *SECH2_FLAGS, "--n", "0..200"],
    "qnf:sech2:region": ["qnf", *SECH2_FLAGS, "--method", "transcendental", REGION],
    "qnf:sech2:asymptotic": ["qnf", *SECH2_FLAGS, "--method", "asymptotic", "--n", "0..40"],
    "qnf:eckart": ["qnf", *ECKART_FLAGS, "--n", "0..200"],
    "qnf:eckart:region": ["qnf", *ECKART_FLAGS, "--method", "transcendental", REGION],
    "qnf:eckart:asymptotic": ["qnf", *ECKART_FLAGS, "--method", "asymptotic", "--n", "0..40"],
    "qnf:tanh": ["qnf", *TANH_FLAGS, "--n", "1..200"],
    "qnf:tanh:region": ["qnf", *TANH_FLAGS, "--method", "transcendental", REGION],
    "qnf:tanh:asymptotic": ["qnf", *TANH_FLAGS, "--method", "asymptotic", "--n", "0..40"],
    "qnf:double_delta": ["qnf", *DD_FLAGS, "--n", "0..60"],
    "qnf:double_delta:region": ["qnf", *DD_FLAGS, "--method", "transcendental", REGION],
    "qnf:double_delta:asymptotic": ["qnf", *DD_FLAGS, "--method", "asymptotic",
                                    "--n=-5..40"],
    "qnf:delta": ["qnf", *DELTA_FLAGS],
    "qnf:delta:region": ["qnf", *DELTA_FLAGS, "--method", "transcendental", REGION],
    "qnf:rect_barrier": ["qnf", *RB_FLAGS],
    "qnf:rect_barrier:region": ["qnf", *RB_FLAGS, "--method", "transcendental", REGION],
    "qnf:rect_barrier:asymptotic": ["qnf", *RB_FLAGS, "--method", "asymptotic",
                                    "--n", "0..40"],
    "qnf:rect_well": ["qnf", *WELL_FLAGS],
    "transmission:eckart": ["transmission", *ECKART_FLAGS],
    "transmission:double_delta": ["transmission", *DD_FLAGS, "--points", "200"],
    "transmission:rect_barrier": ["transmission", *RB_FLAGS],
    "transmission:sech2": ["transmission", *SECH2_FLAGS],
    "eval:eckart": ["eval", *ECKART_FLAGS, "--points", "101"],
    "eval:rect_barrier": ["eval", *RB_FLAGS, "--points", "101"],
    "eval:hua": ["eval", "--type", "hua", "--V0", "1.2", "--q", "-2", "--a", "1"],
    "resonances:rect_barrier": ["resonances", *RB_FLAGS, "--n-max", "10"],
    "resonances:double_delta": ["resonances", *DD_FLAGS, "--n-max", "50"],
    "resonances:sech2": ["resonances", *SECH2_FLAGS, "--n-max", "10"],
    "fit:double_delta": ["fit", "--type", "double-delta", "--alpha", "0.5", "--a", "1",
                         "--n", "5..15", "--model", "linear_plus_log"],
    "fit:sech2": ["fit", *SECH2_FLAGS, "--n", "5..15"],
    "catalog": ["catalog"],
}


class TestColumnarOutput:
    """The columnar output path against the per-cell reference above."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", list(EMIT_CASES.values()), ids=list(EMIT_CASES))
    def test_output_is_the_per_cell_reference(self, argv, fmt, capsys):
        argv = [*argv, "--format", fmt]
        args = _build_parser().parse_args(argv)
        spec, constants = (None, None) if args.command == "catalog" else _spec_from_args(args)
        names, columns = getattr(cli, f"_cmd_{args.command}")(args, spec, constants)
        want = reference_output(fmt, args.command, spec, constants, names, columns)
        assert _emit(args, spec, constants, names, columns) == want
        code, out = run_cli(argv, capsys)
        assert code == 0 and out == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_special_values(self, fmt):
        # 72 cells holding 9 values, so the distinct-value path formats them;
        # -0.0 and 0.0, and two nan payloads, are distinct bit patterns
        other_nan = struct.unpack("<d", struct.pack("<Q", 0x7FF8_0000_0000_0001))[0]
        special = [-0.0, 0.0, math.nan, other_nan, math.inf, -math.inf, 5e-324, 0.1,
                   np.float64(-2.5e300)]
        floats = np.array(special * 8)
        ints = np.repeat(np.arange(-4, 5), 8)
        labels = np.array(["a,b", "plain", 'quo"te'] * 24)
        cells = [None, "x", 7, np.float64(1.5), -0.0, math.nan] * 11 + [None, 2, 3.0] * 2
        names, columns = ["f", "reversed", "i", "label", "mixed"], [
            floats, floats[::-1], ints, labels, cells]
        args = argparse.Namespace(format=fmt, command="qnf")
        got = _emit(args, None, None, names, columns)
        assert got == reference_output(fmt, "qnf", None, None, names, columns)
        if fmt == "csv":
            fields = [row[0] for row in csv.reader(io.StringIO(got))][1:]
            assert fields[:9] == ["-0", "0", "nan", "nan", "inf", "-inf", "4.9406564584124654e-324",
                                  "0.10000000000000001", "-2.5000000000000001e+300"]

    def test_members_without_a_tower_index(self, capsys):
        # the single delta pole has no n: an empty CSV field, null in JSON
        code, out = run_cli(["qnf", *DELTA_FLAGS], capsys)
        assert code == 0 and out.splitlines()[1].startswith(",none,closed_form,")
        code, out = run_cli(["qnf", *DELTA_FLAGS, "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)["rows"]
        assert len(rows) == 1 and rows[0][0] is None
        code, out = run_cli(["qnf", *WELL_FLAGS, "--format", "json"], capsys)
        rows = json.loads(out)["rows"]
        assert code == 0 and rows and all(row[0] is None for row in rows)
