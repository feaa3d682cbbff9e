"""qnf1d benchmark: closed-loop workloads with reference-checked outputs.

    python3 perfbench/run.py --workload {certify,scan,spectra} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the library is imported from ./src.  One
process and one thread drive the library: each operation starts when the
previous one has returned.  The run executes whole rounds (see
workloads.py) until ``--seconds`` have passed, then checks every output
against mpmath references and prints one JSON result as its last line.
``--trace 1`` reruns the same operations with per-layer spans and reports
the per-layer metrics instead of the end-to-end ones.  See NOTES.md.
"""

import argparse
import bisect
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from array import array
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
BENCH_DIR = Path(__file__).resolve().parent
SETUP_REPEATS = 5
PROBE_TIMEOUT_S = 120


@dataclass
class Record:
    op: object
    round: int
    duration: float  # normalized to nominal interpreter speed (SpeedProbe)
    wall: float  # raw wall time; for traced operations the root span's
    output: object = None
    error: str = ""  # raised / exit code / FAIL line, before any reference check
    digest: str = ""  # of the output
    verdict: str = ""  # reference verdict for outputs without an error
    confirmed: int = 0


def _speed_kernel():
    d = {}
    n = 0
    for i in range(1000):
        d[i & 511] = str(i)
        n += len(d[i & 511])
    return n


class SpeedProbe:
    """Interpreter speed, sampled by timing a fixed kernel on a timer signal.

    On a shared 2-vCPU host the speed of the same code swings by up to 30 %
    over seconds, independently on each vCPU, which would dominate the
    run-to-run spread of every timing.  Every PERIOD the SIGALRM handler
    times the kernel in the benchmark's own thread.  An operation's
    normalized duration is its wall time minus the handler's time, scaled by
    NOMINAL over the mean kernel time sampled during it (for short operations,
    the last few samples before it)."""

    PERIOD = 0.025
    NOMINAL = 0.25e-3  # s per kernel run, so normalized times read as ms

    def __init__(self):
        self.ends = array("d")
        self.durs = array("d")
        self.handler_s = 0.0
        self._old = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        _speed_kernel()
        t1 = time.perf_counter()
        self.ends.append(t1)
        self.durs.append(t1 - t0)
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start, end) -> float:
        lo = bisect.bisect_left(self.ends, start - 3 * self.PERIOD)
        hi = bisect.bisect_right(self.ends, end)
        window = self.durs[lo:hi] or self.durs[-3:]
        return self.NOMINAL * len(window) / sum(window) if window else 1.0


def load_library():
    """Import qnf1d from ./src of the checkout, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "qnf1d" / "__init__.py").is_file():
        raise SystemExit(f"error: no qnf1d sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR.parent))
    import qnf1d
    from qnf1d import cli, oracle, potentials, qnf

    if Path(qnf1d.__file__).resolve().parent != (src / "qnf1d").resolve():
        raise SystemExit(f"error: qnf1d imported from {qnf1d.__file__}, not {src}")
    return types.SimpleNamespace(cli=cli, oracle=oracle, potentials=potentials, qnf=qnf)


def execute(op, lib):
    """Run one operation; returns its output (the library sees only op inputs)."""
    if op.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = lib.cli.main(list(op.argv))
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 2
        return {"rc": rc, "out": out.getvalue(), "err": err.getvalue()}
    if op.kind == "find_poles":
        amp = None if op.amplitude == "transfer" else lib.potentials.transmission_amplitude
        rep = lib.oracle.find_poles(op.spec, op.search, amplitude=amp)
        return [(float(k.real), float(k.imag)) for k, _res, _mult in rep.poles]
    results = lib.qnf.transcendental_qnfs(op.spec, op.search)
    return [(float(r.k.real), float(r.k.imag)) for r in results]


def error_of(op, output, exc) -> str:
    if exc is not None:
        return f"raised {type(exc).__name__}: {exc}"
    if op.kind == "cli":
        fail = [ln for ln in output["out"].splitlines() if ln.startswith("FAIL")]
        if output["rc"] != 0:
            return f"exit {output['rc']}: {output['err'].strip() or (fail[:1] or [''])[0]}"
        if fail:
            return fail[0]
    return ""


def run_pass(ops_iter, lib, probe, tracer=None):
    """Execute (round, op) pairs in order, closed loop; returns Records.

    Equal outputs of the same operation share one stored object, so memory
    does not grow with the number of rounds."""
    records = []
    outputs = {}
    for rnd, op in ops_iter:
        handler_s = probe.handler_s
        start = time.perf_counter()
        if tracer is None:
            exc = output = None
            try:
                output = execute(op, lib)
            except Exception as e:  # a failed operation, counted below
                exc = e
            end = time.perf_counter()
            wall = end - start
        else:
            output, exc, wall = tracer.root_span(execute, op, lib)
            end = time.perf_counter()
        net = end - start - (probe.handler_s - handler_s)
        digest = hashlib.sha256(json.dumps(output, sort_keys=True).encode()).hexdigest()
        output = outputs.setdefault((op.key, digest), output)
        records.append(Record(op, rnd, net * probe.scale(start, end), wall, output,
                              error_of(op, output, exc), digest))
    return records


def timed_rounds(pool, seconds):
    """Whole rounds, cycling the pool, until ``seconds`` have passed."""
    start = time.perf_counter()
    rnd = 0
    while True:
        for op in pool[rnd % len(pool)]:
            yield rnd, op
        rnd += 1
        if time.perf_counter() - start >= seconds:
            return


def check_outputs(records):
    """Reference verdicts; each distinct (operation, output) is checked once."""
    from perfbench import reference

    cache = {}
    for rec in records:
        if rec.error:
            continue
        key = (rec.op.key, rec.digest)
        if key not in cache:
            try:
                verdict, confirmed, _detail = reference.check(rec.op, rec.output)
            except Exception as exc:  # the reference cannot judge this output
                verdict, confirmed = f"noref {type(exc).__name__}: {exc}", 0
            cache[key] = (verdict, confirmed)
        rec.verdict, rec.confirmed = cache[key]


def failed(rec) -> bool:
    return bool(rec.error) or rec.verdict != "ok"


def _p90(values):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(records, setup_s, peak_rss_mb, attr="duration"):
    """End-to-end metrics.  Timing statistics are taken per round (every
    round has the same mix) and the median over rounds is reported, so a
    short burst of outside load moves few rounds and not the result."""
    rounds = {}
    for r in records:
        rounds.setdefault(r.round, []).append(r)
    per_round = []
    for recs in rounds.values():
        ok = [getattr(r, attr) for r in recs if not failed(r)]
        if ok:
            per_round.append((len(ok) / sum(ok), statistics.median(ok), _p90(ok)))
    med = lambda i: statistics.median(x[i] for x in per_round) if per_round else None  # noqa: E731
    ms = lambda v: None if v is None else v * 1e3  # noqa: E731
    verified = [sum(r.confirmed for r in recs if not failed(r)) for recs in rounds.values()]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ok_ops_per_s": {"value": med(0) or 0.0, "unit": "1/s"},
        "op_p50_ms": {"value": ms(med(1)), "unit": "ms"},
        "op_p90_ms": {"value": ms(med(2)), "unit": "ms"},
        "failed_ops_frac": {"value": sum(map(failed, records)) / len(records),
                            "unit": "fraction"},
        "results_verified": {"value": statistics.median(verified), "unit": "count"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }


def measure_setup(args) -> float:
    """Median over fresh interpreters that import qnf1d and generate the
    inputs.  Each interpreter samples its own speed while it does so (it
    prints the handler time and the mean kernel time), and its wall time is
    normalized like an operation's."""
    times = []
    for i in range(SETUP_REPEATS):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        probe = subprocess.run(cmd, cwd=ROOT, check=True, timeout=PROBE_TIMEOUT_S,
                               stdout=subprocess.PIPE, text=True)
        wall = time.perf_counter() - start
        handler_s, kernel_s = (float(v) for v in probe.stdout.split()[-2:])
        times.append((wall - handler_s) * SpeedProbe.NOMINAL / kernel_s)
    return statistics.median(times)


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def stamp(args, loadavg):
    import mpmath
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": sha, "source_sha256": source_digest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__,
            "nproc": os.cpu_count(), "loadavg_at_start": loadavg}


def family_summary(records):
    out = {}
    for r in records:
        fam = out.setdefault(r.op.family, {"n": 0, "failed": 0, "why": "", "ms": []})
        fam["n"] += 1
        fam["ms"].append(r.duration * 1e3)
        if failed(r):
            fam["failed"] += 1
            fam["why"] = fam["why"] or (r.error or r.verdict)[:160]
    for fam in out.values():
        fam["ms"] = round(statistics.median(fam["ms"]), 3)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    loadavg = Path("/proc/loadavg").read_text().split()[:3]

    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        with SpeedProbe() as probe:
            lib = load_library()
            from perfbench import workloads

            if args.workload not in workloads.WORKLOADS:
                ap.error(f"unknown workload {args.workload!r}; "
                         f"choose from {workloads.WORKLOADS}")
            workdir.mkdir(parents=True, exist_ok=True)
            pool = workloads.generate(args.workload, args.seed, str(workdir), lib)
        if args.setup_probe:
            print(probe.handler_s, sum(probe.durs) / len(probe.durs))
            return 0
        setup_s = measure_setup(args)

        with SpeedProbe() as probe:
            records = run_pass(timed_rounds(pool, args.seconds), lib, probe)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        identical = True
        if args.trace:
            from perfbench.layers import Tracer

            tracer = Tracer()
            with tracer, SpeedProbe() as probe:
                traced = run_pass(((r.round, r.op) for r in records), lib, probe, tracer)
            identical = all(a.digest == b.digest and a.error == b.error
                            for a, b in zip(records, traced))
            overhead = (sum(r.duration for r in traced)
                        / sum(r.duration for r in records) - 1.0)
        check_outputs(records)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    if args.trace:
        metrics = tracer.metrics(overhead)
    else:
        metrics = end_to_end(records, setup_s, peak_rss_mb)
    mismatches = sum(1 for r in records if r.verdict == "mismatch")
    info = stamp(args, loadavg)
    raw = end_to_end(records, setup_s, peak_rss_mb, attr="wall")
    info.update(rounds=records[-1].round + 1, mismatches=mismatches,
                raw_wall={k: raw[k]["value"] for k in ("ok_ops_per_s", "op_p50_ms", "op_p90_ms")},
                trace_outputs_identical=identical, families=family_summary(records))
    print(json.dumps({"stamp": info}, sort_keys=True))
    print(json.dumps({
        "correct": mismatches == 0 and identical,
        "attempted": len(records),
        "failed": sum(map(failed, records)),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    # one BLAS/OpenMP thread, set before numpy is imported here or in a child
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.exit(main())
