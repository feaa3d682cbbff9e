"""Command-line interface.

    qnf1d <command> [spec options] [command options]

Commands: eval, transmission, qnf, resonances, verify, fit, catalog.
Potentials come from --config FILE (YAML/JSON key-value schema) or from
--type plus parameter flags.  Output is CSV (default) or JSON with a fixed
column schema per command; floats are printed with 17 significant digits so
identical runs produce byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import functools
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .canonical import canonicalize
from .errors import CanonicalizationError, Qnf1dError, UnsupportedPotentialError
from . import potentials as P
from . import qnf as Q
from . import oracle as O
from . import serialize as S

# one float flag per parameter of the catalog types (Tietz's kind is --kind)
_PARAM_FLAGS = list(dict.fromkeys(
    f.name for cls in S.TYPE_NAMES.values() for f in dataclasses.fields(cls)
    if f.name != "kind"))


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


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
    ap.add_argument("--n", default="0..5", help="tower index range, e.g. 0..5")
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


def _csv_column(cells) -> list:
    """One column's CSV fields: one formatter for the whole column where its
    cells share a kind, else _fmt per cell; only strings can need quotes."""
    kinds = set(map(type, cells))
    if kinds == {float}:
        return list(map("{:.17g}".format, cells))
    if kinds == {int}:
        return list(map(str, cells))
    if kinds == {str}:
        return list(map(_csv_field, cells))
    return [_csv_field(v) if isinstance(v, str) else _fmt(v) for v in cells]


@functools.lru_cache(maxsize=256)
def _csv_field(text: str) -> str:
    """text as csv.writer writes it inside a row: quoted where it must be."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]  # the empty second field: ",\n"


def _json_column(cells) -> list:
    """One column's JSON values: float(v) is the double that the CSV's 17
    significant digits name."""
    if set(map(type, cells)) <= {float, str, int, type(None)}:
        return list(cells)
    return [v if v is None or isinstance(v, (str, int)) else float(v) for v in cells]


def _emit(args, spec, constants, columns, rows) -> str:
    """The command's output text, formatted column by column."""
    cells = list(zip(*rows))
    if args.format == "csv":
        lines = map(",".join, [map(_csv_field, columns), *zip(*map(_csv_column, cells))])
        return "\n".join(lines) + "\n"
    envelope = {
        "version": __version__,
        "command": args.command,
        "spec": None if spec is None else S.spec_to_dict(spec),
        "constants": None if constants is None else S.constants_to_dict(constants),
        "columns": list(columns),
        "rows": list(zip(*map(_json_column, cells))),
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
    return ["x", "V"], list(zip(xs.tolist(), P.evaluate(spec, xs).tolist()))


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
    return ["E", "T", "abs_t_sq", "arg_t"], [
        (e, T, abs(t) ** 2, cmath.phase(t))
        for e, T, t in zip(es.tolist(), Ts.tolist(), ts.tolist())]


def _qnf_rows(tower, spec, constants):
    """The rows of a tower's columns (qnf._Tower)."""
    e = Q.qnf_energy(tower.k, constants, P.normal_form(spec).qnf_level)
    n = len(tower.k)
    rows = zip(
        [""] * n if tower.branch is None else tower.branch.tolist(),
        tower.sign.tolist(),
        [tower.method] * n,
        tower.k.real.tolist(), tower.k.imag.tolist(),
        tower.residual.tolist(),
        tower.classification.tolist(),
        e.real.tolist(), e.imag.tolist(),
    )
    return ["n", "sign", "method", "k_re", "k_im", "residual",
            "classification", "E_re", "E_im"], list(rows)


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
    return _qnf_rows(tower, spec, constants)


def _cmd_resonances(args, spec, constants):
    entries = P.resonances(spec, args.n_max, constants)
    rows = [(e.index, e.kind, e.k, e.E, e.parameter, e.T) for e in entries]
    return ["n", "kind", "k", "E", "parameter", "T"], rows


def _cmd_fit(args, spec, constants):
    lo, hi = _parse_range(args.n)
    tower = Q.closed_form_qnfs(spec, (lo, hi), constants)
    plus = [r for r in tower if r.sign_choice in ("plus", "none")]
    fit = Q.fit_offset_gap(plus, args.model)
    rows = [(
        fit.model,
        fit.offset.real, fit.offset.imag,
        fit.gap.real, fit.gap.imag,
        None if fit.log_coeff is None else fit.log_coeff.real,
        None if fit.log_coeff is None else fit.log_coeff.imag,
        max(fit.residuals),
        fit.verdict,
    )]
    return ["model", "offset_re", "offset_im", "gap_re", "gap_im",
            "log_re", "log_im", "max_residual", "verdict"], rows


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
            "max_dev", "status"], rows


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _verify_checks(spec, constants, region, out):
    rng = np.random.default_rng(20260810)
    checks = []
    skips = []  # checks that test nothing, with the reason
    form = P.normal_form(spec)
    piecewise = isinstance(form, P.Interfaces)
    a_scale = P.length_scale(spec)
    v_minus, v_plus = form.limits

    # 1. amplitude agreement, analytic vs numeric: one array call per engine
    # for each batch of draws, until enough samples keep a safe distance from
    # poles and zeros
    need = 100 if piecewise else 25
    worst = 0.0
    count = 0
    tries = 0
    while count < need and tries < 1000:
        n = min(need - count, 1000 - tries)
        tries += n
        if piecewise:
            # uniform over the disc |k| a <= 10, poles excluded below; one
            # (radius, angle) row per sample, drawn in the order of a loop
            r, phi = rng.uniform([0.0025, -math.pi], [1.0, math.pi], size=(n, 2)).T
            k = 10.0 * np.sqrt(r) * np.exp(1j * phi) / a_scale
        else:
            e = max(v_minus, v_plus) + rng.uniform(0.2, 6.0, size=n)
            k = np.sqrt(constants.p2 * (e - v_minus))
        ta = P.transmission_amplitude(spec, k, constants).t
        tn = O.numeric_amplitude(spec, k, constants).t
        keep = (1e-6 < np.abs(ta)) & (np.abs(ta) < 1e6) & ~np.isnan(tn)
        if keep.any():
            worst = max(worst, float(np.max(np.abs(ta[keep] - tn[keep]) / np.abs(ta[keep]))))
        count += int(keep.sum())
    tol = 1e-12 if piecewise else 1e-8
    checks.append((f"amplitude agreement ({count} samples)", worst, tol))

    # 2. T vs |t|^2 on a real-energy grid
    base = max(v_minus, v_plus)
    es = np.linspace(base + 0.05, base + 5.0, 50)
    Ts = P.transmission_probability(spec, es, constants)
    t = P.transmission_amplitude(spec, np.sqrt(constants.p2 * (es - v_minus)), constants).t
    checks.append(("T = |t|^2 on energy grid", float(np.max(np.abs(Ts - np.abs(t) ** 2))), 1e-10))

    # 3. flux surrogate / integrator convergence: the determinant of the
    # transfer matrices, or the ODE oracle against a tighter copy of itself
    if piecewise:
        # |Im k| a <= 2 keeps the matrix conditioning within reach of the
        # 1e-12 determinant contract
        re, im = rng.uniform([-8.0, -2.0], [8.0, 2.0], size=(20, 2)).T
        k = (re + 1j * im) / a_scale
        k = k[np.abs(k) * a_scale >= 0.05]
        checks.append(("transfer-matrix determinant",
                       float(np.max(O.transfer_matrix_det_error(spec, k, constants), initial=0.0)),
                       1e-12))
    else:
        # the domain the samples and the refinement use: a truncated tail
        # series moves t here, while on long domains it sits below rounding
        k = np.sqrt(constants.p2 * (np.linspace(base + 0.25, base + 4.0, 7) - v_minus))
        t1 = O.numeric_amplitude(spec, k, constants).t
        t2 = O.numeric_amplitude(spec, k, constants, L=2.0 * O._ODE_HALF_WIDTH * a_scale,
                                 rtol=1e-13).t
        checks.append(("domain/step convergence", float(np.max(np.abs(t1 - t2) / np.abs(t1))),
                       1e-8))

    # 4. analytic QNFs vs oracle poles
    try:
        if not piecewise:
            analytic = Q.closed_form_qnfs(spec, (1, 3) if form.v0 == 0.0 else (0, 2),
                                          constants)
        elif Q.has_closed_form(spec):
            span = int(max(abs(region.re_min), abs(region.re_max)) * a_scale / math.pi) + 2
            analytic = Q.closed_form_qnfs(spec, (-span, span), constants)
        else:
            try:
                analytic = Q.transcendental_qnfs(spec, "imaginary_axis", constants)
            except UnsupportedPotentialError:
                analytic = []
            for r in Q.transcendental_qnfs(spec, region, constants):
                if not any(abs(r.k - s.k) < 1e-8 for s in analytic):
                    analytic.append(r)
    except Qnf1dError:
        analytic = []
    if piecewise:
        rep = O.find_poles(spec, region, constants)
        inside = [r for r in analytic
                  if region.re_min <= r.k.real <= region.re_max
                  and region.im_min <= r.k.imag <= region.im_max]
        worst = 0.0
        matched = 0
        for r in inside:
            d = min((abs(r.k - kp) for kp, _, _ in rep.poles), default=math.inf)
            worst = max(worst, d)
            if d < 1e-8:
                matched += 1
        extra = len(rep.poles) - matched
        if inside or rep.poles:
            checks.append((f"QNF/pole bijection ({matched}/{len(inside)} matched, "
                           f"{extra} unmatched poles)", worst + (math.inf if extra else 0.0),
                           1e-8))
        else:
            skips.append("QNF/pole bijection: no closed-form QNF and no oracle pole "
                         "in the search region")
    else:
        low = [r for r in analytic if abs(r.k.imag) * a_scale <= 2.05]
        # a cancelled member is no pole of t: nothing to refine
        cancelled = sum(r.classification == "cancelled" for r in low)
        low = [r for r in low if r.classification != "cancelled"]
        # one batched refinement: each Newton iteration is one integration
        ks = np.array([r.k for r in low], dtype=complex)
        errors, rejections = [], []
        for k0, (k, _res, reason) in zip(ks, O.refine_pole(spec, ks * (1 + 1e-3), constants)):
            if reason:
                rejections.append(reason)
            else:
                errors.append(abs(k - k0))
        label = "low-lying QNFs vs ODE poles"
        note = f" ({cancelled} cancelled members not refined)" if cancelled else ""
        if errors:
            checks.append((f"{label} ({len(errors)} modes)", max(errors), 1e-8))
        elif low:
            skips.append(f"{label}: 0 of {len(low)} candidate modes certified by the "
                         f"oracle; first rejection: {rejections[0]}{note}")
        else:
            skips.append(f"{label}: no closed-form QNF with |Im k| a <= 2.05{note}")

    failed = 0
    for label, value, tol in checks:
        ok = value < tol
        failed += 0 if ok else 1
        out.write(f"{'PASS' if ok else 'FAIL'} {label}: {value:.3e} (tol {tol:.0e})\n")
    for line in skips:
        out.write(f"SKIP {line}\n")
    return failed


def _cmd_verify(args, spec, constants):
    density = args.grid_density
    if args.region:
        region = _parse_region(args.region, density)
    else:
        a_scale = P.length_scale(spec)
        region = O.SearchRegion(-12.0 / a_scale, 12.0 / a_scale, 0.01 / a_scale,
                                3.0 / a_scale, density * a_scale)
    buf = io.StringIO()
    failed = _verify_checks(spec, constants, region, buf)
    return failed, buf.getvalue()


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.points < 1:
            raise Qnf1dError(f"--points must be at least 1, got {args.points}")
        if args.command == "catalog":
            columns, rows = _cmd_catalog(args, None, None)
            _write(args, _emit(args, None, None, columns, rows))
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
        columns, rows = handler(args, spec, constants)
        _write(args, _emit(args, spec, constants, columns, rows))
        return 0
    except Qnf1dError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
