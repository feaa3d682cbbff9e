"""Command-line interface.

    qnf1d <command> [spec options] [command options]

Commands: eval, transmission, qnf, resonances, verify, fit, catalog.
Potentials come from --config FILE (YAML/JSON key-value schema) or from
--type plus parameter flags.  Output is CSV (default; verify prints
PASS/FAIL/SKIP lines) or JSON with a fixed column schema per command.  CSV
floats are printed with 17 significant digits; JSON floats are Python's
round-trip repr, with NaN and Infinity as json writes them; a missing cell
is empty in CSV and null in JSON.  Identical runs produce byte-identical
artifacts.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from .canonical import canonicalize
from .errors import CanonicalizationError, Qnf1dError
from . import potentials as P
from . import qnf as Q
from . import oracle as O
from . import serialize as S
from . import checks as V

# one float flag per parameter of the catalog types (Tietz's kind is --kind)
_PARAM_FLAGS = list(dict.fromkeys(
    f.name for cls in S.TYPE_NAMES.values() for f in dataclasses.fields(cls)
    if f.name != "kind"))


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    try:
        return int(lo), int(hi if sep else lo)
    except ValueError:
        raise Qnf1dError(f"--n needs an integer or a range lo..hi, got {text!r}") from None


def _parse_region(text: str, density: float) -> O.SearchRegion:
    try:  # four numbers, or a ValueError
        re_min, re_max, im_min, im_max = (float(p) for p in text.split(","))
    except ValueError:
        raise Qnf1dError("--region needs re_min,re_max,im_min,im_max") from None
    return O.SearchRegion(re_min, re_max, im_min, im_max, density)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qnf1d",
        description="Transmission amplitudes, resonances and quasi-normal "
                    "frequencies for exactly solvable 1D potentials.",
    )
    ap.add_argument("command", choices=[
        "eval", "transmission", "qnf", "resonances", "verify", "fit", "catalog",
    ])
    ap.add_argument("--config", help="spec config file (YAML/JSON)")
    ap.add_argument("--type", dest="pot_type", help="potential type name")
    for name in _PARAM_FLAGS:
        flag = "--" + name.replace("_", "-")
        ap.add_argument(flag, dest=f"p_{name}", type=float, default=None)
    ap.add_argument("--kind", dest="p_kind", default=None,
                    help="Tietz denominator kind: sinh, cosh or exp")
    ap.add_argument("--hbar", type=float, default=1.0)
    ap.add_argument("--mass", type=float, default=1.0)
    ap.add_argument("--mode", choices=["nonrelativistic", "relativistic"],
                    default="nonrelativistic")
    ap.add_argument("--format", choices=["csv", "json"], default="csv")
    ap.add_argument("--output", default=None, help="output path (default stdout)")
    # command-specific knobs
    ap.add_argument("--x-min", type=float, default=-5.0)
    ap.add_argument("--x-max", type=float, default=5.0)
    ap.add_argument("--e-min", type=float, default=None)
    ap.add_argument("--e-max", type=float, default=None)
    ap.add_argument("--points", type=int, default=50)
    ap.add_argument("--n", default="0..5", help="tower index range, e.g. 0..5; --n -2..2 is --n=-2..2")
    ap.add_argument("--n-max", type=int, default=10)
    ap.add_argument("--method", choices=["closed_form", "transcendental", "asymptotic"],
                    default=None)
    ap.add_argument("--region", default=None,
                    help="re_min,re_max,im_min,im_max for pole searches")
    ap.add_argument("--grid-density", type=float, default=8.0)
    ap.add_argument("--model", choices=["linear", "linear_plus_log"], default="linear")
    return ap


def _spec_from_args(args):
    if args.config:
        spec, constants = S.load_file(args.config)
        if args.hbar != 1.0 or args.mass != 1.0 or args.mode != "nonrelativistic":
            constants = P.PhysicalConstants(args.hbar, args.mass, args.mode)
        return spec, constants
    if not args.pot_type:
        raise Qnf1dError("either --config or --type is required")
    doc = {"type": args.pot_type}
    for name in _PARAM_FLAGS:
        val = getattr(args, f"p_{name}", None)
        if val is not None:
            doc[name] = val
    if args.p_kind is not None:
        doc["kind"] = args.p_kind
    spec = S.dict_to_spec(doc)
    return spec, P.PhysicalConstants(args.hbar, args.mass, args.mode)


def _csv_fields(column) -> list:
    """One column's CSV fields.  An array formats each distinct value once;
    a list (the short mixed columns) goes cell by cell."""
    if isinstance(column, np.ndarray):
        if column.dtype == np.float64:
            return _number_fields(column, "{:.17g}".format)
        if column.dtype == np.int64:
            return _number_fields(column, str)
        if column.dtype.kind == "U":
            return _label_fields(column)
        column = column.tolist()
    return list(map(_csv_cell, column))


def _number_fields(x, fmt) -> list:
    """fmt of each value of a float64 or int64 array.  Where at most three
    quarters of the cells are distinct (an imaginary-axis tower's k_re,
    residual and E_im hold one or two values, its n, k_im and E_re about one
    in two), each distinct bit pattern is formatted once, so -0.0, 0.0 and
    nan stay apart.  A column of distinct values pays one sort for the
    count, and one of fewer than 64 cells skips it: it costs about as much
    as formatting a dozen cells."""
    if len(x) >= 64:
        bits = np.sort(x.view(np.int64))
        new = bits[1:] != bits[:-1]
        if 4 * np.count_nonzero(new) < 3 * len(x):
            distinct = bits[np.concatenate(([True], new))]
            text = np.array(list(map(fmt, distinct.view(x.dtype).tolist())), dtype=object)
            return text[np.searchsorted(distinct, x.view(np.int64))].tolist()
    return list(map(fmt, x.tolist()))


def _label_fields(labels) -> list:
    """The CSV field of each cell of a text array, one mask per distinct
    value: the text columns (sign, method, classification) hold a few."""
    fields = np.empty(len(labels), dtype=object)
    todo = np.ones(len(labels), dtype=bool)
    while todo.any():
        label = labels[todo.argmax()]
        same = labels == label
        fields[same] = _csv_field(str(label))
        todo &= ~same
    return fields.tolist()


def _csv_cell(v) -> str:
    """One field of a mixed column: None is empty, an int prints as an int,
    another number with 17 significant digits."""
    if isinstance(v, float):
        return f"{v:.17g}"
    if isinstance(v, str):
        return _csv_field(v)
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.17g}"


@functools.lru_cache(maxsize=256)
def _csv_field(text: str) -> str:
    """text as csv.writer writes it inside a row: quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # the empty second field: ",\n"


def _json_cells(column) -> list:
    """One column's JSON values: float(v) is the double that the CSV's 17
    significant digits name, and None is null."""
    if isinstance(column, np.ndarray):
        if column.dtype != object:
            return column.tolist()
        column = column.tolist()
    return [v if v is None or isinstance(v, (str, int)) else float(v) for v in column]


def _emit(args, spec, constants, names, columns) -> str:
    """The command's output text from its named columns, arrays or lists of
    equal length."""
    if args.format == "csv":
        lines = map(",".join, [map(_csv_field, names), *zip(*map(_csv_fields, columns))])
        return "\n".join(lines) + "\n"
    envelope = {
        "version": __version__,
        "command": args.command,
        "spec": None if spec is None else S.spec_to_dict(spec),
        "constants": None if constants is None else S.constants_to_dict(constants),
        "columns": list(names),
        "rows": list(zip(*map(_json_cells, columns))),
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n"


def _write(args, text: str):
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    tmp = args.output + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, args.output)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_eval(args, spec, constants):
    xs = np.linspace(args.x_min, args.x_max, args.points)
    return ["x", "V"], [xs, P.evaluate(spec, xs)]


def _default_energy_window(spec):
    """E from 0.05 to 5 scales above the higher asymptote; the scale is the
    largest of |V+ - V-| and the normal form's levels and couplings (v0 for
    the Eckart family)."""
    form = P.normal_form(spec)
    sizes = ((form.v1, form.v2, form.v3, form.alpha_left, form.alpha_right)
             if isinstance(form, P.Interfaces) else (form.v0,))
    v_minus, v_plus = form.limits
    scale = max(abs(v_plus - v_minus), *map(abs, sizes)) or 1.0
    base = max(v_minus, v_plus)
    return base + 0.05 * scale, base + 5.0 * scale


def _cmd_transmission(args, spec, constants):
    e_min, e_max = args.e_min, args.e_max
    for flag, value in (("--e-min", e_min), ("--e-max", e_max)):
        if value is not None and not math.isfinite(value):
            raise Qnf1dError(f"{flag} must be a finite energy, got {value}")
    if e_min is None or e_max is None:
        d_min, d_max = _default_energy_window(spec)
        e_min = d_min if e_min is None else e_min
        e_max = d_max if e_max is None else e_max
    if not e_min < e_max:
        raise Qnf1dError("--e-min must be below --e-max")
    es = np.linspace(e_min, e_max, args.points)
    v_minus, _ = P.scattering_limits(spec)
    # T first: it rejects energies outside the scattering regime
    Ts = P.transmission_probability(spec, es, constants)
    ts = P.transmission_amplitude(spec, np.sqrt(constants.p2 * (es - v_minus)), constants).t
    bad = ~np.isfinite(ts)
    if bad.any():
        raise Qnf1dError(f"transmission amplitude not representable at E = {es[bad][0]:g}")
    return ["E", "T", "abs_t_sq", "arg_t"], [es, Ts, np.abs(ts) ** 2, np.angle(ts)]


def _qnf_columns(tower, spec, constants):
    """A tower's (qnf._Tower) output columns; n is missing (empty, or null
    in JSON) for members without a tower index."""
    e = Q.qnf_energy(tower.k, constants, P.normal_form(spec).qnf_level)
    n = len(tower.k)
    return ["n", "sign", "method", "k_re", "k_im", "residual",
            "classification", "E_re", "E_im"], [
        [None] * n if tower.branch is None else tower.branch,
        tower.sign, np.full(n, tower.method),
        tower.k.real, tower.k.imag, tower.residual,
        tower.classification, e.real, e.imag]


def _cmd_qnf(args, spec, constants):
    lo, hi = _parse_range(args.n)
    method = args.method
    if method is None:
        method = "closed_form" if Q.has_closed_form(spec) else "transcendental"
    if method == "closed_form":
        tower = Q._closed_form_tower(spec, (lo, hi), constants)
        # rows by (n, sign), minus < none < plus; a member without n sorts as 0
        n = np.zeros(len(tower.k), dtype=int) if tower.branch is None else tower.branch
        tower = tower.take(np.lexsort((tower.sign, n)))
    elif method == "transcendental":
        search = ("imaginary_axis" if args.region is None
                  else _parse_region(args.region, args.grid_density))
        tower = Q._transcendental_tower(spec, search, constants)
    else:
        tower = Q._asymptotic_tower(spec, np.arange(lo, hi + 1), constants)
    return _qnf_columns(tower, spec, constants)


def _cmd_resonances(args, spec, constants):
    entries = P.resonances(spec, args.n_max, constants)
    rows = [(e.index, e.kind, e.k, e.E, e.parameter, e.T) for e in entries]
    return ["n", "kind", "k", "E", "parameter", "T"], list(zip(*rows))


def _cmd_fit(args, spec, constants):
    lo, hi = _parse_range(args.n)
    tower = Q.closed_form_qnfs(spec, (lo, hi), constants)
    plus = [r for r in tower if r.sign_choice in ("plus", "none")]
    fit = Q.fit_offset_gap(plus, args.model)
    row = (
        fit.model,
        fit.offset.real, fit.offset.imag,
        fit.gap.real, fit.gap.imag,
        None if fit.log_coeff is None else fit.log_coeff.real,
        None if fit.log_coeff is None else fit.log_coeff.imag,
        max(fit.residuals),
        fit.verdict,
    )
    return ["model", "offset_re", "offset_im", "gap_re", "gap_im",
            "log_re", "log_im", "max_residual", "verdict"], [[v] for v in row]


# (name, spec, defined on the half line x > 0 only)
_CATALOG_DEMOS = [
    ("eckart", P.Eckart(0.0, 2.0, -1.0, 1.0), False),
    ("rosen_morse", P.RosenMorse(1.0, 1.0, -1.0, 1.0), False),
    ("morse_feshbach", P.MorseFeshbach(0.8, 0.7, 1.1), False),
    ("sech2 (Poschl-Teller)", P.Sech2(-1.0, 1.0), False),
    ("morse", P.Morse(1.0, 0.4, 0.9), False),
    ("manning_rosen", P.ManningRosen(1.3, -0.6, 0.8), True),
    ("hulthen", P.Hulthen(1.0, 1.0), True),
    ("tietz sinh", P.Tietz(1.1, 0.3, 0.9, "sinh"), True),
    ("tietz cosh", P.Tietz(1.1, 0.3, 0.9, "cosh"), False),
    ("tietz exp", P.Tietz(1.1, 0.3, 0.9, "exp"), False),
    ("hua q<0", P.Hua(1.2, -2.0, 1.0), False),
    ("hua q>0", P.Hua(1.2, 0.5, 1.0), True),
]


def _cmd_catalog(args, spec, constants):
    rows = []
    for name, demo, half_line in _CATALOG_DEMOS:
        try:
            cf = canonicalize(demo)
        except CanonicalizationError as exc:
            rows.append((name, "", "", "", "", "", "", "", "", "", str(exc)))
            continue
        grid = np.linspace(0.05, 8.0, 201) if half_line else np.linspace(-6.0, 6.0, 201)
        dev = float(np.max(np.abs(P.evaluate(demo, grid) - cf.evaluate(grid))))
        f = cf.form
        rows.append((name, f.A0, f.E1, f.F1, f.E2, f.F2, f.overall, f.a,
                     cf.shift, dev,
                     ("scattering" if cf.scattering else "non-scattering")
                     + ("; degenerate" if cf.degenerate else "")
                     + (f"; {cf.notes}" if cf.notes else "")))
    return ["name", "A0", "E1", "F1", "E2", "F2", "overall", "a", "shift",
            "max_dev", "status"], list(zip(*rows))


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_line(check) -> str:
    """A check record as verify's text prints it."""
    if check.status == "skip":
        return f"SKIP {check.name}: {check.detail}\n"
    label = f"{check.name} ({check.detail})" if check.detail else check.name
    return f"{check.status.upper()} {label}: {check.value:.3e} (tol {check.tol:.0e})\n"


def _cmd_verify(args, spec, constants):
    """(whether a check failed, the output text): PASS/FAIL/SKIP lines, or
    with --format json one row per check record."""
    region = (_parse_region(args.region, args.grid_density) if args.region
              else V.default_region(spec, args.grid_density))
    checks = V.verify(spec, constants, region)
    if args.format == "json":
        text = _emit(args, spec, constants, ["check", "status", "value", "tol", "detail"],
                     list(zip(*map(dataclasses.astuple, checks))))
    else:
        text = "".join(map(_verify_line, checks))
    return any(r.status == "fail" for r in checks), text


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):
        # argparse reads a range like -2..2 as an option: attach it to --n
        if argv[i - 1] == "--n" and re.fullmatch(r"-\d+\.\.-?\d+", argv[i]):
            argv[i - 1:i + 1] = [f"--n={argv[i]}"]
    args = _build_parser().parse_args(argv)
    try:
        if args.points < 1:
            raise Qnf1dError(f"--points must be at least 1, got {args.points}")
        if args.command == "catalog":
            names, columns = _cmd_catalog(args, None, None)
            _write(args, _emit(args, None, None, names, columns))
            return 0
        spec, constants = _spec_from_args(args)
        if args.command == "verify":
            failed, text = _cmd_verify(args, spec, constants)
            _write(args, text)
            return 2 if failed else 0
        handler = {
            "eval": _cmd_eval,
            "transmission": _cmd_transmission,
            "qnf": _cmd_qnf,
            "resonances": _cmd_resonances,
            "fit": _cmd_fit,
        }[args.command]
        names, columns = handler(args, spec, constants)
        _write(args, _emit(args, spec, constants, names, columns))
        return 0
    except Qnf1dError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
