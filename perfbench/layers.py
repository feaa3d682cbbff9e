"""Per-layer tracing from outside the library.

Each traced public function is replaced, in every ``qnf1d`` module that
holds a reference to it, by a wrapper that records a span: calls, errors and
self time (the span's duration minus the time covered by its child spans).
``from .x import y`` copies the binding, so every module-level alias is
rebound, not only the defining one.  Spans are aggregated in memory as they
close; nothing is written while the workload runs.
"""

from __future__ import annotations

import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs whose spans are reported.  The layers are the
# package's modules.
TARGETS = [
    ("specfn", "lambert_w"),
    ("specfn", "log_gamma"),
    ("potentials", "evaluate"),
    ("potentials", "transmission_amplitude"),
    ("potentials", "transmission_probability"),
    ("potentials", "resonances"),
    ("qnf", "closed_form_qnfs"),
    ("qnf", "transcendental_qnfs"),
    ("qnf", "pole_condition"),
    ("qnf", "fit_offset_gap"),
    ("oracle", "numeric_amplitude"),
    ("oracle", "find_poles"),
    ("oracle", "refine_pole"),
    ("oracle", "solve_ivp"),
    ("canonical", "canonicalize"),
    ("serialize", "load_file"),
    ("serialize", "spec_to_dict"),
    ("serialize", "dict_to_spec"),
    ("cli", "main"),
]

CLI_COMMANDS = ["eval", "transmission", "qnf", "resonances", "verify", "fit", "catalog"]

# spec classes served by the transfer-matrix engine; the rest use the ODE
PIECEWISE = {"Delta", "DoubleDelta", "AsymDoubleDelta", "Step", "RectBarrier",
             "AsymRectBarrier"}

AMPLITUDE_FNS = {("potentials", "transmission_amplitude"), ("oracle", "numeric_amplitude")}

ROOT_SPAN = "bench.op"


def span_keys(module: str, fn: str) -> list[str]:
    """The span keys one target reports under (engine / command splits)."""
    base = f"{module}.{fn}"
    if (module, fn) == ("oracle", "numeric_amplitude"):
        return [base + ".ode", base + ".transfer"]
    if (module, fn) == ("cli", "main"):
        return [f"{base}.{cmd}" for cmd in CLI_COMMANDS]
    return [base]


def metric_specs() -> list[tuple[str, str]]:
    """(metric name, unit) of every per-layer metric, in report order."""
    out = []
    for module, fn in TARGETS:
        for key in span_keys(module, fn):
            out += [(key + ".calls", "count"), (key + ".self_s", "s"),
                    (key + ".errors", "count")]
    out += [
        ("oracle.solve_ivp.nfev", "count"),
        ("oracle.find_poles.amp_evals", "count"),
        ("oracle.refine_pole.ok_frac", "fraction"),
        (ROOT_SPAN + ".self_s", "s"),
        ("trace_overhead_frac", "fraction"),
    ]
    return out


@dataclass
class _Frame:
    key: str
    start: float
    child: float = 0.0


@dataclass
class _Stat:
    calls: int = 0
    errors: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Installs span wrappers on the loaded ``qnf1d`` modules."""

    stats: dict = field(default_factory=dict)
    missing: dict = field(default_factory=dict)  # "module.fn" -> error text
    nfev: int = 0
    amp_evals: int = 0
    find_poles_amp_evals: int = 0
    _stack: list = field(default_factory=list)
    _patched: list = field(default_factory=list)  # (module, attr, original)

    # -- spans ---------------------------------------------------------------
    def _enter(self, key):
        self._stack.append(_Frame(key, time.perf_counter()))

    def _exit(self, failed: bool) -> float:
        end = time.perf_counter()
        frame = self._stack.pop()
        dur = end - frame.start
        st = self.stats.setdefault(frame.key, _Stat())
        st.calls += 1
        st.errors += failed
        st.self_s += dur - frame.child
        if self._stack:
            self._stack[-1].child += dur
        return dur

    def root_span(self, fn, *args):
        """Run fn(*args) inside the benchmark's own per-operation span.

        Returns (result, exception, duration); the duration is the span's, so
        the self times of all spans add up to the sum of these durations."""
        self._enter(ROOT_SPAN)
        try:
            result = fn(*args)
        except Exception as exc:  # the caller classifies the failure
            return None, exc, self._exit(True)
        return result, None, self._exit(False)

    # -- wrappers ------------------------------------------------------------
    def _wrap(self, module, fn, original):
        key = f"{module}.{fn}"
        tracer = self

        if (module, fn) == ("oracle", "numeric_amplitude"):
            def keyof(args, kwargs):
                spec = args[0] if args else kwargs.get("spec")
                engine = "transfer" if type(spec).__name__ in PIECEWISE else "ode"
                return f"{key}.{engine}"
        elif (module, fn) == ("cli", "main"):
            def keyof(args, kwargs):
                argv = args[0] if args else kwargs.get("argv")
                cmd = argv[0] if argv else ""
                return f"{key}.{cmd}"
        else:
            def keyof(args, kwargs):
                return key

        is_amp = (module, fn) in AMPLITUDE_FNS
        is_cli = (module, fn) == ("cli", "main")
        is_ivp = (module, fn) == ("oracle", "solve_ivp")
        is_scan = (module, fn) == ("oracle", "find_poles")

        def wrapper(*args, **kwargs):
            if is_amp:
                tracer.amp_evals += 1
            before = tracer.amp_evals
            tracer._enter(keyof(args, kwargs))
            try:
                result = original(*args, **kwargs)
            except BaseException:
                tracer._exit(True)
                if is_scan:
                    tracer.find_poles_amp_evals += tracer.amp_evals - before
                raise
            tracer._exit(bool(is_cli and result))
            if is_ivp:
                tracer.nfev += int(getattr(result, "nfev", 0))
            if is_scan:
                tracer.find_poles_amp_evals += tracer.amp_evals - before
            return result

        wrapper.__wrapped__ = original
        wrapper.__name__ = getattr(original, "__name__", fn)
        return wrapper

    def install(self):
        mods = [m for name, m in list(sys.modules.items())
                if m is not None and (name == "qnf1d" or name.startswith("qnf1d."))]
        for module, fn in TARGETS:
            try:
                owner = importlib.import_module(f"qnf1d.{module}")
                original = getattr(owner, fn)
            except (ImportError, AttributeError) as exc:
                self.missing[f"{module}.{fn}"] = f"{type(exc).__name__}: {exc}"
                continue
            wrapper = self._wrap(module, fn, original)
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- report --------------------------------------------------------------
    def metrics(self, overhead_frac: float) -> dict:
        out = {}
        for module, fn in TARGETS:
            miss = self.missing.get(f"{module}.{fn}")
            for key in span_keys(module, fn):
                st = self.stats.get(key, _Stat())
                for name, unit, value in ((".calls", "count", st.calls),
                                          (".self_s", "s", st.self_s),
                                          (".errors", "count", st.errors)):
                    out[key + name] = _metric(value, unit, miss)
        refine = self.stats.get("oracle.refine_pole", _Stat())
        ok_frac = 1.0 if refine.calls == 0 else (refine.calls - refine.errors) / refine.calls
        out["oracle.solve_ivp.nfev"] = _metric(
            self.nfev, "count", self.missing.get("oracle.solve_ivp"))
        out["oracle.find_poles.amp_evals"] = _metric(
            self.find_poles_amp_evals, "count", self.missing.get("oracle.find_poles"))
        out["oracle.refine_pole.ok_frac"] = _metric(
            ok_frac, "fraction", self.missing.get("oracle.refine_pole"))
        root = self.stats.get(ROOT_SPAN, _Stat())
        out[ROOT_SPAN + ".self_s"] = _metric(root.self_s, "s", None)
        out["trace_overhead_frac"] = _metric(overhead_frac, "fraction", None)
        return out


def _metric(value, unit, missing):
    """A metric entry; a function that could not be found reports no value."""
    if missing:
        return {"value": None, "unit": unit, "error": f"not traced: {missing}"}
    return {"value": value, "unit": unit}
