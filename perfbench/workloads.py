"""Seeded operation lists for the three workloads.

A workload is an endless closed-loop stream of *rounds*.  Every round of a
workload has the same mix of operation families (so medians and failure
shares do not depend on which seed drew which family); the seed picks the
order inside a round and the parameter jitter.  Rounds are drawn from a
pool of ``POOL[workload]`` distinct rounds, cycled, so the mpmath references
computed after the timed loop cover every distinct operation at bounded cost.

Known failures (see NOTES.md) enter unjittered, as exact reproducers, so the
baseline failure share is the same on every seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "scan", "spectra")
POOL = {"certify": 2, "scan": 4, "spectra": 4}
JITTER = 0.05  # relative parameter jitter around the base specs

# Spec documents use the library's serialize schema (type + parameters).
ECKART_README = {"type": "eckart", "V_minus": 0.0, "V_plus": 2.0, "V0": -1.0, "a": 1.0}
SECH2_README = {"type": "sech2", "V0": -1.0, "a": 1.0}
# the scattering members of the CLI catalog demos (canonicalize says scattering)
CATALOG_SCATTERING = [
    ECKART_README,
    {"type": "rosen_morse", "A": 1.0, "B": 1.0, "C": -1.0, "a": 1.0},
    {"type": "morse_feshbach", "V0": 0.8, "mu": 0.7, "L": 1.1},
    SECH2_README,
    {"type": "tietz", "V0": 1.1, "x0": 0.3, "a": 0.9, "kind": "cosh"},
    {"type": "hua", "V0": 1.2, "q": -2.0, "a": 1.0},
]

DD = {"type": "double_delta", "alpha": 1.0, "a": 1.0}
RB = {"type": "rect_barrier", "V0": 1.0, "a": 1.0}

# spec classes of the library-call operations (CLI operations pass argv)
_CLASS = {
    "double_delta": "DoubleDelta", "asym_double_delta": "AsymDoubleDelta",
    "rect_barrier": "RectBarrier", "asym_rect_barrier": "AsymRectBarrier",
    "sech2": "Sech2",
}


@dataclass
class Op:
    """One library call.  ``kind`` is "cli", "find_poles" or
    "transcendental_qnfs"; the other fields are its generated inputs."""

    kind: str
    family: str
    doc: dict | None = None
    argv: tuple = ()
    region: tuple | None = None  # (re_min, re_max, im_min, im_max, density)
    amplitude: str | None = None  # find_poles: "transfer" or "closed_form"
    spec: object = None  # the spec object built from doc at set-up
    search: object = None  # SearchRegion or "imaginary_axis" built at set-up
    key: str = field(default="", init=False)

    def __post_init__(self):
        self.key = json.dumps([self.kind, self.doc, list(self.argv), self.region,
                               self.amplitude], sort_keys=True)


def jitter(rng: random.Random, doc: dict) -> dict:
    """Multiplicative jitter of every numeric parameter, kept to 6 digits."""
    out = {}
    for name, val in doc.items():
        if isinstance(val, float) and val != 0.0:
            val = float(f"{val * (1.0 + rng.uniform(-JITTER, JITTER)):.6g}")
        out[name] = val
    return out


def spec_argv(doc: dict) -> list:
    argv = ["--type", doc["type"].replace("_", "-")]
    for name, val in doc.items():
        if name != "type":
            text = repr(val) if isinstance(val, float) else str(val)
            argv += ["--" + name.replace("_", "-"), text]
    return argv


def cli_op(family, command, doc, *extra) -> Op:
    argv = [command] + (spec_argv(doc) if doc else []) + list(extra)
    return Op("cli", family, doc=doc, argv=tuple(argv))


# ---------------------------------------------------------------------------
# certify: `qnf1d verify` through cli.main
# ---------------------------------------------------------------------------

def certify_round(rng: random.Random) -> list:
    ops = [cli_op(f"verify:{d['type']}", "verify", d) for d in CATALOG_SCATTERING]
    ops.append(cli_op("verify:double_delta", "verify", dict(DD), "--region=-16,16,0.01,2.5"))
    # the cheap piecewise verifies outnumber the slow smooth ones that
    # succeed, so op_p50_ms is a median over several operations, not one
    for _ in range(2):
        ops.append(cli_op("verify:double_delta~", "verify", jitter(rng, DD),
                          "--region=-16,16,0.01,2.5"))
        ops.append(cli_op("verify:rect_barrier~", "verify", jitter(rng, RB)))
    ops.append(cli_op("verify:sech2~", "verify", scale_jitter(rng, SECH2_README)))
    return ops


def scale_jitter(rng: random.Random, doc: dict) -> dict:
    """Jitter the length a and keep V0 a^2 fixed: the same dimensionless
    problem (same QNF tower shape), so the verify work does not depend on
    the seed.  Unrounded, so the reflectionless coupling stays exact."""
    a = doc["a"] * (1.0 + rng.uniform(-JITTER, JITTER))
    return dict(doc, a=a, V0=doc["V0"] * doc["a"] ** 2 / (a * a))


# ---------------------------------------------------------------------------
# scan: find_poles / transcendental_qnfs over complex-k rectangles
# ---------------------------------------------------------------------------

SCAN_SPECS = [
    {"type": "double_delta", "alpha": 1.0, "a": 1.0},
    {"type": "asym_double_delta", "alpha_plus": 1.0, "alpha_minus": 0.7, "a": 1.0},
    {"type": "rect_barrier", "V0": 1.0, "a": 1.0},
    {"type": "rect_barrier", "V0": -1.0, "a": 1.0},
    {"type": "asym_rect_barrier", "V1": 0.0, "V2": 1.0, "V3": 0.5, "a": 1.0},
]
SECH2_SCAN_REGION = (-6.0, 6.0, 0.01, 4.0, 8.0)


def scan_region(doc: dict) -> tuple:
    """The verify-style rectangle scaled by the spec's length: 256 x 20 points."""
    a = doc["a"]
    return (-16.0 / a, 16.0 / a, 0.01 / a, 2.5 / a, 8.0 * a)


def scan_round(rng: random.Random) -> list:
    ops = []
    for base in SCAN_SPECS:
        doc = jitter(rng, base)
        fam = doc["type"] + ("-" if doc.get("V0", 1.0) < 0 else "")
        region = scan_region(doc)
        ops.append(Op("find_poles", f"find_poles:transfer:{fam}", doc=doc,
                      region=region, amplitude="transfer"))
        ops.append(Op("find_poles", f"find_poles:closed:{fam}", doc=doc,
                      region=region, amplitude="closed_form"))
        ops.append(Op("transcendental_qnfs", f"transcendental:region:{fam}", doc=doc,
                      region=region))
        if doc["type"] in ("rect_barrier", "asym_double_delta"):
            ops.append(Op("transcendental_qnfs", f"transcendental:axis:{fam}", doc=doc))
    # known failure: uncaught ValueError from log_gamma during the closed-form scan
    ops.append(Op("find_poles", "find_poles:closed:sech2", doc=dict(SECH2_README),
                  region=SECH2_SCAN_REGION, amplitude="closed_form"))
    ops.append(Op("find_poles", "find_poles:closed:sech2~", doc=jitter(rng, SECH2_README),
                  region=SECH2_SCAN_REGION, amplitude="closed_form"))
    return ops


# ---------------------------------------------------------------------------
# spectra: short interactive CLI commands
# ---------------------------------------------------------------------------

TANH = {"type": "tanh", "V_minus": 0.0, "V_plus": 2.0, "a": 1.0}
EVAL_SPECS = [
    ECKART_README,
    RB,
    {"type": "hua", "V0": 1.2, "q": -2.0, "a": 1.0},
    {"type": "morse", "V0": 1.0, "x0": 0.4, "a": 0.9},
]


def spectra_round(rng: random.Random, workdir: str, index: int) -> list:
    j = lambda d: jitter(rng, d)  # noqa: E731
    ops = [
        cli_op("transmission:eckart", "transmission", j(ECKART_README)),
        cli_op("transmission:double_delta", "transmission", j(DD), "--points", "200"),
        cli_op("transmission:rect_barrier", "transmission", j(RB)),
        cli_op("transmission:sech2", "transmission", j(SECH2_README)),
        cli_op("qnf:sech2", "qnf", j(SECH2_README), "--n", "0..1000"),
        cli_op("qnf:eckart", "qnf", j(ECKART_README), "--n", "0..1000"),
        cli_op("qnf:tanh", "qnf", j(TANH), "--n", "1..2000", "--format", "json"),
        cli_op("qnf:double_delta", "qnf", j(DD), "--n", "0..120"),
        # known failures: ConvergenceError in lambert_w on branches 166 and 169
        cli_op("qnf:double_delta:0.5", "qnf", {"type": "double_delta", "alpha": 0.5, "a": 1.0},
               "--n", "0..200"),
        cli_op("qnf:double_delta:1", "qnf", dict(DD), "--n", "0..200"),
        cli_op("fit:double_delta", "fit", j({"type": "double_delta", "alpha": 0.5, "a": 1.0}),
               "--n", "5..15", "--model", "linear_plus_log"),
        cli_op("fit:sech2", "fit", j(SECH2_README), "--n", "5..15"),
        cli_op("resonances:rect_barrier", "resonances", j(RB), "--n-max", "10",
               "--format", "json"),
        cli_op("resonances:double_delta", "resonances", j(DD), "--n-max", "50"),
        cli_op("resonances:sech2", "resonances", j(SECH2_README), "--n-max", "10"),
        cli_op("catalog", "catalog", None),
    ]
    for i, base in enumerate(EVAL_SPECS):
        doc = j(base)
        path = os.path.join(workdir, f"spec-{index}-{i}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f"{k}: {v}\n" for k, v in doc.items()))
        ops.append(Op("cli", f"eval:{doc['type']}", doc=doc,
                      argv=("eval", "--config", path, "--points", "101")))
    return ops


# ---------------------------------------------------------------------------

def generate(workload: str, seed: int, workdir: str, lib) -> list:
    """The pool of distinct rounds for a workload, with specs built."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    pool = []
    for index in range(POOL[workload]):
        rng = random.Random(f"{workload}:{seed}:{index}")
        if workload == "certify":
            ops = certify_round(rng)
        elif workload == "scan":
            ops = scan_round(rng)
        else:
            ops = spectra_round(rng, workdir, index)
        rng.shuffle(ops)
        for op in ops:
            _build(op, lib)
        pool.append(ops)
    return pool


def _build(op: Op, lib):
    if op.kind == "cli":
        return
    params = {k: v for k, v in op.doc.items() if k != "type"}
    op.spec = getattr(lib.potentials, _CLASS[op.doc["type"]])(**params)
    op.search = ("imaginary_axis" if op.region is None
                 else lib.oracle.SearchRegion(*op.region))
