"""Independent references (mpmath at 30 digits) and the output checks.

Nothing here calls the library.  Each checker gets an operation and what
the library returned, and returns ``(verdict, confirmed, detail)``:

- ``ok``: every output item agrees with the reference;
- ``incomplete``: an item the reference expects is missing (a check or pole
  silently dropped);
- ``mismatch``: an item disagrees with the reference (a wrong result).

``confirmed`` counts the items that agreed.  Tolerances are the ones the
library states: amplitudes 1e-12 (piecewise) / 1e-8 (smooth) relative,
T vs |t|^2 1e-10, pole positions 1e-8 relative to max(1, |k|) (towers reach
|k| ~ 2e4); points with
|t| outside (1e-6, 1e6) are skipped, as ``verify`` does.  All specs use the
default constants hbar = m = 1, so 2m/hbar^2 = 2.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

import mpmath as mp

mp.mp.dps = 30

P2 = mp.mpf(2)  # 2 m / hbar^2
H2_2M = 1 / P2
I = mp.mpc(0, 1)

PIECEWISE = {"double_delta", "asym_double_delta", "rect_barrier", "asym_rect_barrier"}
AMP_TOL = {True: 1e-12, False: 1e-8}  # keyed by piecewise
T_TOL = 1e-10
POLE_TOL = 1e-8
EVAL_TOL = 1e-12

# the CLI catalog demos, by the name the `catalog` command prints
CATALOG = {
    "eckart": {"type": "eckart", "V_minus": 0.0, "V_plus": 2.0, "V0": -1.0, "a": 1.0},
    "rosen_morse": {"type": "rosen_morse", "A": 1.0, "B": 1.0, "C": -1.0, "a": 1.0},
    "morse_feshbach": {"type": "morse_feshbach", "V0": 0.8, "mu": 0.7, "L": 1.1},
    "sech2 (Poschl-Teller)": {"type": "sech2", "V0": -1.0, "a": 1.0},
    "morse": {"type": "morse", "V0": 1.0, "x0": 0.4, "a": 0.9},
    "manning_rosen": {"type": "manning_rosen", "A": 1.3, "B": -0.6, "b": 0.8},
    "hulthen": {"type": "hulthen", "V0": 1.0, "a": 1.0},
    "tietz sinh": {"type": "tietz", "V0": 1.1, "x0": 0.3, "a": 0.9, "kind": "sinh"},
    "tietz cosh": {"type": "tietz", "V0": 1.1, "x0": 0.3, "a": 0.9, "kind": "cosh"},
    "tietz exp": {"type": "tietz", "V0": 1.1, "x0": 0.3, "a": 0.9, "kind": "exp"},
    "hua q<0": {"type": "hua", "V0": 1.2, "q": -2.0, "a": 1.0},
    "hua q>0": {"type": "hua", "V0": 1.2, "q": 0.5, "a": 1.0},
}
HALF_LINE = {"manning_rosen", "hulthen", "tietz sinh", "hua q>0"}


# ---------------------------------------------------------------------------
# Potentials and amplitudes
# ---------------------------------------------------------------------------

def _f(doc, name):
    return mp.mpf(doc[name])


def reduction(doc):
    """(V_-inf, V_+inf, V0, a, shift) of the tanh + sech^2 standard form."""
    key = tuple(sorted(doc.items()))
    if key not in _REDUCTIONS:
        _REDUCTIONS[key] = _reduction(doc)
    return _REDUCTIONS[key]


_REDUCTIONS = {}


def _reduction(doc):
    t = doc["type"]
    if t == "tanh":
        return _f(doc, "V_minus"), _f(doc, "V_plus"), mp.mpf(0), _f(doc, "a"), mp.mpf(0)
    if t == "sech2":
        return mp.mpf(0), mp.mpf(0), _f(doc, "V0"), _f(doc, "a"), mp.mpf(0)
    if t == "eckart":
        return _f(doc, "V_minus"), _f(doc, "V_plus"), _f(doc, "V0"), _f(doc, "a"), mp.mpf(0)
    if t == "rosen_morse":
        A, B = _f(doc, "A"), _f(doc, "B")
        return A - B, A + B, _f(doc, "C"), _f(doc, "a"), mp.mpf(0)
    if t == "morse_feshbach":
        mu, L = _f(doc, "mu"), _f(doc, "L")
        v1 = _f(doc, "V0") * mp.cosh(mu) ** 2
        d = mp.tanh(mu)
        return v1 * (d - 1) ** 2, v1 * (d + 1) ** 2, -v1, L, mu * L
    if t == "tietz" and doc["kind"] == "cosh":
        # V0 (cosh(x0/a) tanh(x/a) - sinh(x0/a))^2 with tanh^2 = 1 - sech^2
        V0, r, a = _f(doc, "V0"), _f(doc, "x0") / _f(doc, "a"), _f(doc, "a")
        return V0 * mp.exp(2 * r), V0 * mp.exp(-2 * r), -V0 * mp.cosh(r) ** 2, a, mp.mpf(0)
    if t == "hua":
        # V0 ((1 - u)/(1 - q u))^2, u = exp(-2x/a); q < 0.  With w = -q u the
        # denominator is 1 + w, x -> x - shift, and the square expands into
        # tanh and sech^2 terms of (x - shift)/a.
        V0, q, a = _f(doc, "V0"), _f(doc, "q"), _f(doc, "a")
        shift = a / 2 * mp.log(-q)
        alpha = (1 + 1 / q) / 2
        beta = (1 - 1 / q) / 2
        mid = V0 * (alpha**2 + beta**2)
        half = 2 * V0 * alpha * beta
        return mid - half, mid + half, -V0 * beta**2, a, shift
    raise KeyError(t)


def limits(doc):
    t = doc["type"]
    if t in ("double_delta", "asym_double_delta", "rect_barrier"):
        return mp.mpf(0), mp.mpf(0)
    if t == "asym_rect_barrier":
        return _f(doc, "V1"), _f(doc, "V3")
    vm, vp, *_ = reduction(doc)
    return vm, vp


def potential(doc, x):
    """V(x) from the textbook formula of each catalog type."""
    t = doc["type"]
    x = mp.mpf(x)
    if t == "rect_barrier":
        return _f(doc, "V0") if abs(x) <= _f(doc, "a") else mp.mpf(0)
    if t == "tanh":
        vm, vp, a = _f(doc, "V_minus"), _f(doc, "V_plus"), _f(doc, "a")
        return (vm + vp) / 2 + (vp - vm) / 2 * mp.tanh(x / a)
    if t == "sech2":
        return _f(doc, "V0") * mp.sech(x / _f(doc, "a")) ** 2
    if t == "eckart":
        vm, vp, a = _f(doc, "V_minus"), _f(doc, "V_plus"), _f(doc, "a")
        return ((vm + vp) / 2 + (vp - vm) / 2 * mp.tanh(x / a)
                + _f(doc, "V0") * mp.sech(x / a) ** 2)
    if t == "rosen_morse":
        a = _f(doc, "a")
        return _f(doc, "A") + _f(doc, "B") * mp.tanh(x / a) + _f(doc, "C") * mp.sech(x / a) ** 2
    if t == "morse_feshbach":
        mu, L = _f(doc, "mu"), _f(doc, "L")
        return _f(doc, "V0") * mp.cosh(mu) ** 2 * (mp.tanh((x - mu * L) / L) + mp.tanh(mu)) ** 2
    if t == "morse":
        return _f(doc, "V0") * (1 - mp.exp(-(x - _f(doc, "x0")) / _f(doc, "a"))) ** 2
    if t == "manning_rosen":
        v = mp.exp(-x / _f(doc, "b"))
        return _f(doc, "A") * v**2 / (1 - v) ** 2 + _f(doc, "B") * v / (1 - v)
    if t == "hulthen":
        v = mp.exp(-x / _f(doc, "a"))
        return _f(doc, "V0") * v / (1 - v)
    if t == "tietz":
        a = _f(doc, "a")
        num = mp.sinh((x - _f(doc, "x0")) / a)
        den = {"sinh": mp.sinh, "cosh": mp.cosh, "exp": mp.exp}[doc["kind"]](x / a)
        return _f(doc, "V0") * (num / den) ** 2
    if t == "hua":
        u = mp.exp(-2 * x / _f(doc, "a"))
        return _f(doc, "V0") * ((1 - u) / (1 - _f(doc, "q") * u)) ** 2
    raise KeyError(t)


def mobius2(A0, E1, F1, E2, F2, overall, a, x):
    u = mp.exp(-2 * mp.mpf(x) / a)
    return A0 + overall * ((E1 + F1 * u) / (E2 + F2 * u)) ** 2


def _k0(alpha):
    return P2 * mp.mpf(alpha) / 2


def _den_piecewise(doc, k):
    """The denominator whose zeros are the poles of t (piecewise specs)."""
    t = doc["type"]
    a = _f(doc, "a")
    if t == "double_delta":
        k0 = _k0(doc["alpha"])
        return (k - I * k0) ** 2 + k0**2 * mp.exp(-4 * I * k * a)
    if t == "asym_double_delta":
        kp, km = _k0(doc["alpha_plus"]), _k0(doc["alpha_minus"])
        return (k - I * kp) * (k - I * km) + kp * km * mp.exp(-4 * I * k * a)
    if t == "rect_barrier":
        q = mp.sqrt(k * k - P2 * _f(doc, "V0"))
        den = (k + q) ** 2 * mp.exp(2 * I * q * a) - (k - q) ** 2 * mp.exp(-2 * I * q * a)
        return den, q
    if t == "asym_rect_barrier":
        k1, k2, k3 = _arb_wavenumbers(doc, k)
        den = ((k1 + k2) * (k3 + k2) * mp.exp(2 * I * k2 * a)
               - (k1 - k2) * (k3 - k2) * mp.exp(-2 * I * k2 * a))
        return den, k2
    raise KeyError(t)


def _arb_wavenumbers(doc, k):
    V1, V2, V3 = _f(doc, "V1"), _f(doc, "V2"), _f(doc, "V3")
    e = V1 + k * k / P2
    k3 = k if V3 == V1 else mp.sqrt(P2 * (e - V3))
    return k, mp.sqrt(P2 * (e - V2)), k3


def amplitude(doc, k):
    """Closed-form t at incidence-side wavenumber k."""
    k = mp.mpc(k)
    t = doc["type"]
    if t in ("double_delta", "asym_double_delta"):
        return k * k / _den_piecewise(doc, k)
    if t == "rect_barrier":
        den, q = _den_piecewise(doc, k)
        return 4 * k * q * mp.exp(2 * I * k * _f(doc, "a")) / den
    if t == "asym_rect_barrier":
        den, k2 = _den_piecewise(doc, k)
        k1, _, k3 = _arb_wavenumbers(doc, k)
        return (4 * k2 * mp.sqrt(k1) * mp.sqrt(k3)
                * mp.exp(I * (k1 + k3) * _f(doc, "a")) / den)
    vm, vp, v0, a, shift = reduction(doc)
    km = k
    kp = k if vp == vm else mp.sqrt(P2 * (vm + k * k / P2 - vp))
    kbar = (km + kp) / 2
    sqrt_kk = mp.sqrt(kp) * mp.sqrt(km)
    den = mp.gamma(I * kp * a) * mp.gamma(I * km * a)
    if v0 == 0:
        out = kbar / sqrt_kk * mp.gamma(I * kbar * a) ** 2 / den
    else:
        s = mp.sqrt(mp.mpf(1) / 4 - P2 * v0 * a * a)
        out = (-I / (sqrt_kk * a) * mp.gamma(I * kbar * a + mp.mpf(1) / 2 + s)
               * mp.gamma(I * kbar * a + mp.mpf(1) / 2 - s) / den)
    return out * mp.exp(I * (kp - km) * shift)


def pole_function(doc):
    """f(k) whose zeros are exactly the poles of t (removable points divided out)."""
    t = doc["type"]
    if t in ("double_delta", "asym_double_delta"):
        return lambda k: _den_piecewise(doc, k)
    if t in ("rect_barrier", "asym_rect_barrier"):
        def f(k):
            den, q = _den_piecewise(doc, k)
            return den / q  # even in q: no branch choice, no zero at q = 0
        return f
    vm, vp, v0, a, _ = reduction(doc)
    if vm != vp:
        raise KeyError("pole function needs equal asymptotes")
    s = mp.sqrt(mp.mpf(1) / 4 - P2 * v0 * a * a)

    def f(k):
        z = I * k * a
        half = mp.mpf(1) / 2
        return mp.rgamma(z + half + s) * mp.rgamma(z + half - s) / mp.rgamma(z) ** 2
    return f


# ---------------------------------------------------------------------------
# Exact pole families
# ---------------------------------------------------------------------------

def dd_tower(doc, n, sign):
    """k = i (k0 - W_n(+/- 2 k0 a e^{2 k0 a}) / (2a)): the double-delta poles."""
    k0, a = _k0(doc["alpha"]), _f(doc, "a")
    arg = 2 * k0 * a * mp.exp(2 * k0 * a)
    w = mp.lambertw(arg if sign == "plus" else -arg, n)
    return I * (k0 - w / (2 * a))


def smooth_tower(doc, n, sign):
    """(k_+inf, k_-inf) of the gamma-pole family member (n, sign)."""
    vm, vp, v0, a, _ = reduction(doc)
    dv = vp - vm
    if v0 == 0:
        n = mp.mpf(n)
        return I * (P2 * dv * a / (4 * n) + n / a), I * (-P2 * dv * a / (4 * n) + n / a)
    d = 2 * n + 1 + (1 if sign == "plus" else -1) * 2 * mp.sqrt(mp.mpf(1) / 4 - P2 * v0 * a * a)
    if abs(d) < 1e-12:
        return None
    return I * (P2 * dv * a / (2 * d) + d / (2 * a)), I * (-P2 * dv * a / (2 * d) + d / (2 * a))


def _nonpositive_integer(z):
    return abs(mp.im(z)) < 1e-9 and mp.re(z) < 0.5 and abs(mp.re(z) - mp.nint(mp.re(z))) < 1e-9


def expects_qnf_check(doc):
    """Whether `verify` owes a "low-lying QNFs" line: a genuine pole (gamma
    pole not cancelled by the denominator, not at a threshold) of the
    n = 0..3 family with 0 < |Im k| a <= 2.05."""
    _, _, v0, a, _ = reduction(doc)
    scale = _f(doc, "a") if "a" in doc else _f(doc, "L")
    for n in range(0, 4):
        for sign in ("plus", "minus"):
            if v0 == 0 and n == 0:
                continue
            pair = smooth_tower(doc, n, sign)
            if pair is None:
                continue
            kp, km = pair
            if abs(kp) < 1e-8 or not 0 < abs(mp.im(kp)) * scale <= 2.05:
                continue
            if _nonpositive_integer(I * kp * a) or _nonpositive_integer(I * km * a):
                continue
            return True
    return False


def expected_poles(doc, region, margin):
    """All poles inside the region shrunk by ``margin``, or None if the
    family has no closed-form enumeration here."""
    re0, re1, im0, im1 = (mp.mpf(v) for v in region[:4])

    def inside(k):
        return (re0 + margin <= mp.re(k) <= re1 - margin
                and im0 + margin <= mp.im(k) <= im1 - margin)

    out = []
    if doc["type"] == "double_delta":
        a = _f(doc, "a")
        span = int(max(abs(re0), abs(re1)) * a / math.pi) + 3
        for n in range(-span, span + 1):
            for sign in ("plus", "minus"):
                k = dd_tower(doc, n, sign)
                if abs(k) > 1e-8 and inside(k) and all(abs(k - p) > 1e-9 for p in out):
                    out.append(k)
        return out
    if doc["type"] == "sech2":
        _, _, v0, a, _ = reduction(doc)
        s = mp.sqrt(mp.mpf(1) / 4 - P2 * v0 * a * a)
        f = pole_function(doc)
        for n in range(0, int(im1 * a) + 3):
            for sgn in (1, -1):
                k = I * (n + mp.mpf(1) / 2 + sgn * s) / a
                if abs(k) > 1e-8 and inside(k) and all(abs(k - p) > 1e-9 for p in out):
                    if abs(f(k * (1 + mp.mpf(10) ** -12))) < 1e-6:  # not cancelled
                        out.append(k)
        return out
    return None


def confirm_pole(doc, k):
    """mpmath root of the pole function within the position tolerance of k,
    or None.  Secant iterations start from k and a point 1e-7 away, along
    the real and then the imaginary direction, so they stay local."""
    f = pole_function(doc)
    k = mp.mpc(k)
    step = 1e-7 * max(1, abs(k))
    for second in (k + step, k + I * step):
        try:
            root = mp.findroot(f, (k, second), tol=mp.mpf(10) ** -50, maxsteps=100)
        except (ValueError, ZeroDivisionError):
            continue
        if abs(root - k) <= POLE_TOL * max(1, abs(k)):
            return root
    return None


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------

def _rows(text):
    """(columns, rows) of a CSV or JSON command output, cells as strings."""
    if text.startswith("{"):
        doc = json.loads(text)
        cell = lambda v: "" if v is None else (v if isinstance(v, str) else repr(v))  # noqa: E731
        return doc["columns"], [[cell(v) for v in row] for row in doc["rows"]]
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def _num(x):
    return mp.mpf(x) if x != "" else None


def _close(x, ref, tol, scale=None):
    return abs(x - ref) <= tol * (max(1, abs(ref)) if scale is None else scale)


def check_transmission(op, text):
    doc = op.doc
    pw = doc["type"] in PIECEWISE
    tol = AMP_TOL[pw]
    vm, _ = limits(doc)
    _, rows = _rows(text)
    good = bad = 0
    for e, T, tsq, arg in rows:
        e, T, tsq, arg = (mp.mpf(v) for v in (e, T, tsq, arg))
        t = amplitude(doc, mp.sqrt(P2 * (e - vm)))
        if not 1e-6 < abs(t) < 1e6:
            continue
        dphase = abs(mp.arg(mp.exp(I * (arg - mp.arg(t)))))
        ok = (abs(T - tsq) <= T_TOL and abs(tsq - abs(t) ** 2) <= 2 * tol * abs(t) ** 2
              and dphase <= 2 * tol)
        good += ok
        bad += not ok
    return good, bad, 0


def _tower_ref(doc, n, sign):
    if doc["type"] == "double_delta":
        return dd_tower(doc, n, sign)
    pair = smooth_tower(doc, n, sign)
    return None if pair is None else pair[0]


def tower(doc, lo, hi):
    """{(n, sign): k} of the closed-form tower the `qnf` command should print:
    trivial zeros (|k| a < 1e-8) and duplicates (double delta) left out."""
    a = _f(doc, "a")
    if doc["type"] == "double_delta":
        signs = ("plus", "minus")
    else:
        signs = ("none",) if reduction(doc)[2] == 0 else ("plus", "minus")
    out, seen = {}, []
    for n in range(lo, hi + 1):
        for sign in signs:
            k = _tower_ref(doc, n, sign)
            if k is None or abs(k) < 1e-8 / a:
                continue
            kc = complex(k)
            if doc["type"] == "double_delta" and any(abs(kc - s) < 1e-9 / a for s in seen):
                continue
            seen.append(kc)
            out[(n, sign)] = k
    return out


def _range(op, flag):
    text = op.argv[op.argv.index(flag) + 1]
    lo, hi = text.split("..")
    return int(lo), int(hi)


def check_qnf(op, text):
    doc = op.doc
    _, vp = limits(doc)
    ref = tower(doc, *_range(op, "--n"))
    _, rows = _rows(text)
    good = bad = 0
    for n, sign, _method, kre, kim, _res, _cls, ere, eim in rows:
        k = mp.mpc(mp.mpf(kre), mp.mpf(kim))
        kr = ref.pop((int(n), sign), None)
        e = mp.mpc(mp.mpf(ere), mp.mpf(eim))
        ok = (kr is not None and _close(k, kr, POLE_TOL)
              and _close(e, vp + H2_2M * kr * kr, POLE_TOL))
        good += ok
        bad += not ok
    return good, bad, len(ref)


def _lstsq(cols, ks):
    a = mp.matrix([[c[i] for c in cols] for i in range(len(ks))])
    y = mp.matrix(ks)
    ah = a.H
    return mp.lu_solve(ah * a, ah * y), a, y


def check_fit(op, text):
    doc = op.doc
    lo, hi = _range(op, "--n")
    sign = "none" if doc["type"] == "tanh" else "plus"
    ns = list(range(lo, hi + 1))
    ks = [_tower_ref(doc, n, sign) for n in ns]
    cols = [[mp.mpf(1)] * len(ns), [mp.mpf(n) for n in ns]]
    log_model = "linear_plus_log" in op.argv
    if log_model:
        cols.append([mp.log(n) for n in ns])
    coef, a, y = _lstsq(cols, ks)
    res = a * coef - y
    scale = max(1, max(abs(k) for k in ks))
    _, rows = _rows(text)
    (_model, ore, oim, gre, gim, lre, lim, maxres, _verdict), = rows
    ok = (_close(mp.mpc(_num(ore), _num(oim)), coef[0], POLE_TOL, scale)
          and _close(mp.mpc(_num(gre), _num(gim)), coef[1], POLE_TOL, scale)
          and _close(_num(maxres), max(abs(r) for r in res), POLE_TOL, scale))
    if log_model:
        ok = ok and _close(mp.mpc(_num(lre), _num(lim)), coef[2], POLE_TOL, scale)
    return int(ok), int(not ok), 0


def check_resonances(op, text):
    doc = op.doc
    _, rows = _rows(text)
    good = bad = 0
    for n, kind, k, e, param, _T in rows:
        n = int(n)
        if doc["type"] == "rect_barrier":
            a = _f(doc, "a")
            e_ref = _f(doc, "V0") + H2_2M * (n * mp.pi / (2 * a)) ** 2
            k = mp.mpf(k)
            ok = (kind == "exact" and _close(mp.mpf(e), e_ref, EVAL_TOL)
                  and abs(abs(amplitude(doc, k)) ** 2 - 1) <= T_TOL)
        elif doc["type"] == "double_delta":
            k = mp.mpf(k)
            ok = (kind == "exact" and _close(mp.mpf(e), H2_2M * k * k, EVAL_TOL)
                  and abs(abs(amplitude(doc, k)) ** 2 - 1) <= T_TOL)
        else:  # sech2: reflectionless couplings V0 = -n(n+1) hbar^2/(2m a^2)
            a = _f(doc, "a")
            p_ref = -n * (n + 1) * H2_2M / (a * a)
            probe = dict(doc, V0=float(param))
            ok = (kind == "parameter_condition" and _close(mp.mpf(param), p_ref, EVAL_TOL)
                  and abs(abs(amplitude(probe, 1 / a)) ** 2 - 1) <= T_TOL)
        good += ok
        bad += not ok
    n_max = int(op.argv[op.argv.index("--n-max") + 1])
    expected = n_max if doc["type"] in ("rect_barrier", "sech2") else 0
    return good, bad, max(0, expected - len(rows))


def check_catalog(op, text):
    _, rows = _rows(text)
    good = bad = 0
    for name, A0, E1, F1, E2, F2, overall, a, shift, _dev, _status in rows:
        doc = CATALOG.get(name)
        if doc is None:
            bad += 1
            continue
        if A0 == "":
            ok = doc["type"] == "hulthen"  # affine in coth: no exact form
        else:
            form = [mp.mpf(v) for v in (A0, E1, F1, E2, F2, overall, a)]
            xs = ([0.05 + 7.95 * i / 8 for i in range(9)] if name in HALF_LINE
                  else [-6 + 1.5 * i for i in range(9)])
            ok = True
            for x in xs:
                v = potential(doc, x)
                ok = ok and _close(mobius2(*form, mp.mpf(x) - mp.mpf(shift)), v, 1e-8)
        good += ok
        bad += not ok
    return good, bad, max(0, len(CATALOG) - len(rows))


def check_eval(op, text):
    _, rows = _rows(text)
    good = bad = 0
    for x, v in rows:
        ok = _close(mp.mpf(v), potential(op.doc, float(x)), EVAL_TOL)
        good += ok
        bad += not ok
    return good, bad, 0


_VERIFY_PIECEWISE = ["amplitude agreement (100 samples)", "T = |t|^2 on energy grid",
                     "transfer-matrix determinant", "QNF/pole bijection"]
_VERIFY_SMOOTH = ["amplitude agreement (25 samples)", "T = |t|^2 on energy grid",
                  "domain/step convergence"]
_QNF_LINE = "low-lying QNFs vs ODE poles"


def check_verify(op, text):
    doc = op.doc
    lines = [ln for ln in text.splitlines() if ln.startswith("PASS ")]
    labels = [ln[5:].split(":")[0] for ln in lines]
    if doc["type"] in PIECEWISE:
        expected = list(_VERIFY_PIECEWISE)
    else:
        expected = list(_VERIFY_SMOOTH) + ([_QNF_LINE] if expects_qnf_check(doc) else [])
    missing = sum(1 for e in expected if not any(lab.startswith(e) for lab in labels))
    bad = 0
    region = next((a.split("=", 1)[1] for a in op.argv if a.startswith("--region=")), None)
    if doc["type"] == "double_delta" and region is not None:
        # the closed-form poles the bijection check should have found
        m = re.search(r"QNF/pole bijection \((\d+)/(\d+) matched", text)
        box = [float(v) for v in region.split(",")] + [8.0]
        if m and int(m.group(2)) != len(expected_poles(doc, box, 0)):
            bad = 1
    return len(lines) - bad, bad, missing


def check_poles(op, poles):
    """Library poles (list of (re, im)) against mpmath roots of the pole condition."""
    doc = op.doc
    good = bad = 0
    found = []
    for re_, im_ in poles:
        k = mp.mpc(re_, im_)
        found.append(k)
        if confirm_pole(doc, k) is None:
            bad += 1
        else:
            good += 1
    missing = 0
    if op.region is not None:
        cell = max((op.region[1] - op.region[0]), (op.region[3] - op.region[2])) / 1000
        margin = mp.mpf(max(1.0 / op.region[4], cell))
        exp = expected_poles(doc, op.region, margin)
        if exp is not None:
            missing = sum(1 for k in exp if not any(abs(k - f) < 1e-6 for f in found))
    return good, bad, missing


CLI_CHECKS = {
    "transmission": check_transmission,
    "qnf": check_qnf,
    "fit": check_fit,
    "resonances": check_resonances,
    "catalog": check_catalog,
    "eval": check_eval,
    "verify": check_verify,
}


def check(op, output):
    """(verdict, confirmed, detail) for a completed operation's output."""
    if op.kind == "cli":
        good, bad, missing = CLI_CHECKS[op.argv[0]](op, output["out"])
    else:
        good, bad, missing = check_poles(op, output)
    if bad:
        verdict = "mismatch"
    elif missing:
        verdict = "incomplete"
    else:
        verdict = "ok"
    return verdict, good, f"{good} confirmed, {bad} disagree, {missing} missing"
