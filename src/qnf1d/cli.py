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

_PARAM_FLAGS = [
    "alpha", "a", "alpha_plus", "alpha_minus", "V0", "V1", "V2", "V3",
    "V_minus", "V_plus", "A0", "E1", "F1", "E2", "F2", "overall",
    "x0", "q", "A", "B", "C", "b", "mu", "L",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        return x
    if isinstance(x, int):
        return str(x)
    return f"{float(x):.17g}"


def _parse_range(text: str) -> tuple[int, int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        return int(lo), int(hi)
    n = int(text)
    return n, n


def _parse_region(text: str, density: float) -> O.SearchRegion:
    parts = [float(p) for p in text.split(",")]
    if len(parts) != 4:
        raise Qnf1dError("--region needs re_min,re_max,im_min,im_max")
    return O.SearchRegion(parts[0], parts[1], parts[2], parts[3], density)


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
    ap.add_argument("--search", choices=["imaginary_axis", "region"],
                    default="imaginary_axis")
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


def _emit(args, spec, constants, columns, rows) -> str:
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(columns)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
        return buf.getvalue()
    envelope = {
        "version": __version__,
        "command": args.command,
        "spec": None if spec is None else S.spec_to_dict(spec),
        "constants": None if constants is None else S.constants_to_dict(constants),
        "columns": list(columns),
        "rows": [[(None if v is None else (v if isinstance(v, (str, int)) else
                                           float(_fmt(v)))) for v in row]
                 for row in rows],
    }
    return json.dumps(envelope, sort_keys=True, separators=(",", ":")) + "\n"


def _write(args, text: str):
    if args.output in (None, "-"):
        sys.stdout.write(text)
        return
    tmp = args.output + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, args.output)


def _energy_offset(spec, constants) -> float:
    """Asymptote converting the stored QNF wavenumber into E_QNF."""
    form = P.normal_form(spec)
    v_minus, v_plus = form.limits
    if isinstance(form, P.Interfaces):
        return v_minus  # results are reported on the incidence side
    return v_plus  # the transmitted side for the Eckart family


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_eval(args, spec, constants):
    xs = np.linspace(args.x_min, args.x_max, args.points)
    rows = [(x, P.evaluate(spec, float(x))) for x in xs]
    return ["x", "V"], rows


def _default_energy_window(spec, constants):
    v_minus, v_plus = P.scattering_limits(spec, constants)
    base = max(v_minus, v_plus)
    scale = abs(v_plus - v_minus)
    for attr in ("V0", "V1", "V2", "V3", "alpha", "alpha_plus", "alpha_minus",
                 "A", "B", "C"):
        if hasattr(spec, attr):
            scale = max(scale, abs(getattr(spec, attr)))
    scale = scale or 1.0
    return base + 0.05 * scale, base + 5.0 * scale


def _cmd_transmission(args, spec, constants):
    e_min, e_max = args.e_min, args.e_max
    if e_min is None or e_max is None:
        d_min, d_max = _default_energy_window(spec, constants)
        e_min = d_min if e_min is None else e_min
        e_max = d_max if e_max is None else e_max
    if not e_min < e_max:
        raise Qnf1dError("--e-min must be below --e-max")
    es = np.linspace(e_min, e_max, args.points).tolist()
    v_minus, _ = P.scattering_limits(spec, constants)
    # T first: it rejects energies outside the scattering regime
    Ts = [P.transmission_probability(spec, e, constants) for e in es]
    ts = P.transmission_amplitude(spec, np.sqrt(constants.p2 * (np.array(es) - v_minus)),
                                  constants).t.tolist()
    bad = [e for e, t in zip(es, ts) if not cmath.isfinite(t)]
    if bad:
        raise Qnf1dError(f"transmission amplitude not representable at E = {bad[0]:g}")
    return ["E", "T", "abs_t_sq", "arg_t"], [
        (e, T, abs(t) ** 2, cmath.phase(t)) for e, T, t in zip(es, Ts, ts)]


def _qnf_rows(results, spec, constants):
    offset = _energy_offset(spec, constants)
    rows = []
    for r in results:
        e = Q.qnf_energy(r.k, constants, offset)
        rows.append((
            "" if r.branch is None else r.branch,
            r.sign_choice,
            r.method,
            r.k.real, r.k.imag,
            r.residual,
            r.classification,
            complex(e).real, complex(e).imag,
        ))
    return ["n", "sign", "method", "k_re", "k_im", "residual",
            "classification", "E_re", "E_im"], rows


def _cmd_qnf(args, spec, constants):
    lo, hi = _parse_range(args.n)
    method = args.method
    if method is None:
        method = "closed_form" if Q.has_closed_form(spec) else "transcendental"
    if method == "closed_form":
        results = Q.closed_form_qnfs(spec, (lo, hi), constants)
        results.sort(key=lambda r: (r.branch if r.branch is not None else 0,
                                    r.sign_choice))
    elif method == "transcendental":
        if args.region is not None:
            region = _parse_region(args.region, args.grid_density)
            results = Q.transcendental_qnfs(spec, region, constants)
        else:
            results = Q.transcendental_qnfs(spec, "imaginary_axis", constants)
    else:
        results = [Q.asymptotic_qnfs(spec, n, constants) for n in range(lo, hi + 1)]
    return _qnf_rows(results, spec, constants)


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
    form = P.normal_form(spec)
    piecewise = isinstance(form, P.Interfaces)
    a_scale = P.length_scale(spec)
    v_minus, v_plus = form.limits

    # 1. amplitude agreement, analytic vs numeric
    worst = 0.0
    count = 0
    tries = 0
    while count < (100 if piecewise else 25) and tries < 1000:
        tries += 1
        if piecewise:
            # uniform over the disc |k| a <= 10, poles excluded below
            r = 10.0 * math.sqrt(float(rng.uniform(0.0025, 1.0)))
            phi = float(rng.uniform(-math.pi, math.pi))
            k = cmath.rect(r, phi) / a_scale
        else:
            e = max(v_minus, v_plus) + float(rng.uniform(0.2, 6.0))
            k = math.sqrt(constants.p2 * (e - v_minus))
        try:
            ta = P.transmission_amplitude(spec, k, constants).t
            tn = O.numeric_amplitude(spec, k, constants).t
        except Qnf1dError:
            continue
        if not (1e-6 < abs(ta) < 1e6):
            continue  # keep a safe distance from poles and zeros
        worst = max(worst, abs(ta - tn) / abs(ta))
        count += 1
    tol = 1e-12 if piecewise else 1e-8
    checks.append((f"amplitude agreement ({count} samples)", worst, tol))

    # 2. T vs |t|^2 on a real-energy grid
    worst = 0.0
    base = max(v_minus, v_plus)
    for e in np.linspace(base + 0.05, base + 5.0, 50):
        e = float(e)
        T = P.transmission_probability(spec, e, constants)
        k = math.sqrt(constants.p2 * (e - v_minus))
        t = P.transmission_amplitude(spec, k, constants).t
        worst = max(worst, abs(T - abs(t) ** 2))
    checks.append(("T = |t|^2 on energy grid", worst, 1e-10))

    # 3. flux surrogate / integrator convergence
    if piecewise:
        worst = 0.0
        for _ in range(20):
            # |Im k| a <= 2 keeps the matrix conditioning within reach of the
            # 1e-12 determinant contract
            k = complex(rng.uniform(-8, 8), rng.uniform(-2, 2)) / a_scale
            if abs(k) * a_scale < 0.05:
                continue
            worst = max(worst, O.transfer_matrix_det_error(spec, k, constants))
        checks.append(("transfer-matrix determinant", worst, 1e-12))
    else:
        worst = 0.0
        for e in np.linspace(base + 0.25, base + 4.0, 7):
            e = float(e)
            k = math.sqrt(constants.p2 * (e - v_minus))
            t1 = O.numeric_amplitude(spec, k, constants, L=10.0 * a_scale).t
            t2 = O.numeric_amplitude(spec, k, constants, L=20.0 * a_scale,
                                     rtol=1e-13).t
            worst = max(worst, abs(t1 - t2) / abs(t1))
        checks.append(("domain/step convergence", worst, 1e-8))

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
        checks.append((f"QNF/pole bijection ({matched}/{len(inside)} matched, "
                       f"{extra} unmatched poles)", worst + (math.inf if extra else 0.0), 1e-8))
    else:
        worst = 0.0
        tested = 0
        for r in analytic:
            if abs(r.k.imag) * a_scale > 2.05 or r.classification == "trivial_zero":
                continue
            try:
                kx, _res = O.refine_pole(spec, r.k * (1 + 1e-3), constants,
                                         variable="transmitted"
                                         if v_plus != v_minus else "incident")
            except Qnf1dError:
                continue
            worst = max(worst, abs(kx - r.k))
            tested += 1
        if tested:
            checks.append((f"low-lying QNFs vs ODE poles ({tested} modes)", worst, 1e-8))

    failed = 0
    for label, value, tol in checks:
        ok = value < tol
        failed += 0 if ok else 1
        out.write(f"{'PASS' if ok else 'FAIL'} {label}: {value:.3e} (tol {tol:.0e})\n")
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
