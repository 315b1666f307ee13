"""Independent checks of recorded benchmark outputs, run after the timed process.

Reads the ``outputs-<mode>.jsonl`` a worker wrote (the first output of every
pool entry; repeats were compared byte for byte in the worker) and checks
each against mpmath 1.3 or scipy.  It never imports greenchain, so neither
its memory nor its time reaches the worker's metrics.

Usage: python3 oracle.py OUTPUTS.jsonl  -- prints one JSON object with the
failing pool entries, the worst error of each check, and notes.
"""

from __future__ import annotations

import json
import math
import sys
from collections import defaultdict

import mpmath
import numpy as np
from scipy import optimize, special

# Published levels of the oscillator in a box of one characteristic length (units of hbar w0).
TABLE1 = (4.951, 19.774, 44.452, 78.996, 123.410, 177.693)
TABLE1_TOL = 0.01

LEVEL_TOL_V = 1e-8  # oscillator level vs the mpmath root of its Kummer factor
SCAN_TOL_ABS = 1e-7  # abs_reduced cell vs mpmath D_v
CHAIN_TOL_REL = 1e-9  # |g - g_ref| <= tol * max(|g0(x, x')|, |g_ref|)
CHAIN_LOGDET_TOL = 1e-9  # |log|det| - ref| <= tol * max(1, |ref|)
KAPPA_TOL_REL = 1e-10  # Dirichlet wavenumbers vs scipy


class Checks:
    def __init__(self):
        self.failures = {}  # pool index -> reason
        self.worst = defaultdict(float)
        self.notes = []
        self.checked = 0

    def fail(self, index, reason):
        self.failures.setdefault(index, reason)

    def error(self, name, value):
        self.worst[name] = max(self.worst[name], value)


# ----------------------------------------------------------------------
# oscillator_levels: mpmath roots of the even/odd Kummer factors
# ----------------------------------------------------------------------

def _alpha(box_length):
    return math.sqrt(2.0) * box_length / 2.0  # natural units: sqrt(2 m w0 / hbar) L / 2


def _kummer_factor(parity, x):
    if parity == "even_bracket":
        return lambda v: mpmath.hyp1f1(-v / 2, mpmath.mpf(1) / 2, x)
    return lambda v: mpmath.hyp1f1((1 - v) / 2, mpmath.mpf(3) / 2, x)


def check_levels(checks, index, req, levels):
    box_length = req["L"]
    x = mpmath.mpf(_alpha(box_length)) ** 2 / 2
    v_max_energy = box_length * box_length / 8.0  # m w0^2 (L/2)^2 / 2
    if len(levels) != req["n"]:
        checks.fail(index, f"returned {len(levels)} of {req['n']} levels")
    with mpmath.workdps(30):
        for i, (v, energy, parity) in enumerate(levels):
            want = "even_bracket" if i % 2 == 0 else "odd_bracket"
            if parity != want:
                checks.fail(index, f"level {i} classified {parity}, parity order needs {want}")
                continue
            f = _kummer_factor(parity, x)
            lo, hi = mpmath.mpf(v) - 1e-6, mpmath.mpf(v) + 1e-6
            if f(lo) * f(hi) > 0:
                checks.fail(index, f"level {i} (v={v}) has no {parity} root within 1e-6")
                continue
            root = mpmath.findroot(f, (lo, hi), solver="anderson")
            err = abs(float(root) - v)
            checks.error("oscillator_levels.max_abs_dv", err)
            if err > LEVEL_TOL_V:
                checks.fail(index, f"level {i}: v={v} vs mpmath {mpmath.nstr(root, 15)}")
            e_ref = float(root) + 0.5
            if abs(energy - e_ref) > 1e-9 * e_ref:
                checks.fail(index, f"level {i}: energy {energy} vs (v + 1/2) = {e_ref}")
            # min-max bounds: box levels <= E <= box levels + max potential, and E >= free levels
            e_box = 0.5 * ((i + 1) * math.pi / box_length) ** 2
            if not (max(e_box, i + 0.5) - 1e-9 <= e_ref <= e_box + v_max_energy + 1e-9):
                checks.fail(index, f"level {i}: E={e_ref} outside its min-max bracket")
    if box_length == 1.0:
        for i, ref in enumerate(TABLE1):
            err = abs(levels[i][1] - ref) if i < len(levels) else math.inf
            checks.error("oscillator_levels.table1_max_abs_dE", err)
            if err > TABLE1_TOL:
                checks.fail(index, f"table1 level {i}: {levels[i][1] if i < len(levels) else None}"
                                   f" vs published {ref}")


# ----------------------------------------------------------------------
# oscillator_scan: |r(v)| from mpmath D_v on the 0.01 lattice
# ----------------------------------------------------------------------

class ReducedRatio:
    """|r(v)| = |D_v(-a)^2 - D_v(a)^2| / (D_v(-a)^2 + D_v(a)^2) at v = c / 100.

    For each fractional offset, D_f and D_{f+1} come from mpmath.pcfd; higher
    orders follow from the three-term recurrence D_{v+1}(y) = y D_v(y) - v
    D_{v-1}(y) (DLMF 12.8.1) at 40 digits, which keeps about 37 of them up to
    v = 200.
    """

    def __init__(self, box_length, c_max):
        self.values = {}
        with mpmath.workdps(40):
            a = mpmath.mpf(_alpha(box_length))
            for offset in range(100):
                if offset > c_max:
                    break
                f = mpmath.mpf(offset) / 100
                series = {}
                for y in (a, -a):
                    d0, d1 = mpmath.pcfd(f, y), mpmath.pcfd(f + 1, y)
                    out = [d0, d1]
                    v = f + 1
                    while offset + 100 * len(out) <= c_max:
                        d0, d1 = d1, y * d1 - v * d0
                        out.append(d1)
                        v += 1
                    series[y] = out
                for k, (dp, dm) in enumerate(zip(series[a], series[-a])):
                    dp2, dm2 = dp * dp, dm * dm
                    self.values[offset + 100 * k] = float(abs(dm2 - dp2) / (dm2 + dp2))


def check_scans(checks, records):
    c_max = defaultdict(int)
    for _, req, _ in records:
        c_max[req["L"]] = max(c_max[req["L"]], req["lo_c"] + req["width_c"])
    ratios = {length: ReducedRatio(length, c) for length, c in c_max.items()}
    # spot-check the recurrence against direct mpmath.pcfd
    with mpmath.workdps(40):
        for length, ratio in ratios.items():
            c = max(ratio.values)
            a = mpmath.mpf(_alpha(length))
            dp, dm = mpmath.pcfd(mpmath.mpf(c) / 100, a), mpmath.pcfd(mpmath.mpf(c) / 100, -a)
            direct = float(abs(dm * dm - dp * dp) / (dm * dm + dp * dp))
            if abs(direct - ratio.values[c]) > 1e-15:
                raise RuntimeError(f"D_v recurrence disagrees with mpmath.pcfd at L={length}")
    empty = 0
    for index, req, text in records:
        lines = text.split("\n")
        if lines[0] != "v,abs_reduced,abs_full" or lines[-1] != "":
            checks.fail(index, "CSV header or final newline missing")
            continue
        rows = lines[1:-1]
        if len(rows) != req["width_c"] + 1:
            checks.fail(index, f"{len(rows)} rows, expected {req['width_c'] + 1}")
            continue
        ref = ratios[req["L"]].values
        for i, row in enumerate(rows):
            c = req["lo_c"] + i
            v_cell, reduced, _ = row.split(",")
            if abs(float(v_cell) - c / 100) > 1e-9:
                checks.fail(index, f"row {i}: v={v_cell}, expected {c / 100}")
                break
            if reduced == "":
                empty += 1
                continue
            err = abs(float(reduced) - ref[c])
            checks.error("oscillator_scan.max_abs_err", err)
            if err > SCAN_TOL_ABS:
                checks.fail(index, f"v={c / 100}: abs_reduced {reduced} vs mpmath {ref[c]:.12g}")
                break
    checks.notes.append(f"oscillator_scan: {empty} empty abs_reduced cells in the checked "
                        "outputs (documented NumericError rows)")


# ----------------------------------------------------------------------
# chain_greens: float64 dense solve with scipy kernels
# ----------------------------------------------------------------------

def _kernel(geometry, mode, param, x, xp):
    x, xp = np.broadcast_arrays(np.asarray(x, float), np.asarray(xp, float))
    lo, hi = np.minimum(x, xp), np.maximum(x, xp)
    if geometry == "rectangular":
        return np.exp(-param * (hi - lo)) / (2.0 * param)
    if geometry == "cylindrical":
        return special.iv(mode, param * lo) * special.kv(mode, param * hi)
    if geometry == "spherical":
        return (2.0 * param / math.pi) * special.spherical_in(mode, param * lo) \
            * special.spherical_kn(mode, param * hi)
    y_lo, y_hi = math.sqrt(2.0) * (lo - 0.5), math.sqrt(2.0) * (hi - 0.5)
    return 0.5 / math.sqrt(math.pi) * special.gamma(-param) \
        * special.pbdv(param, -y_lo)[0] * special.pbdv(param, y_hi)[0]


def check_chain(checks, index, req, value):
    a = np.array(req["positions"])
    geometry, mode, k = req["geometry"], req["mode"], req["param"]
    G0 = _kernel(geometry, mode, k, a[:, None], a[None, :])
    if req["call"] == "char_func":
        sign, logdet = np.linalg.slogdet(G0)
        err = abs(value[1] - logdet) / max(1.0, abs(logdet))
        checks.error("chain_greens.char_func_max_rel_logdet_err", err)
        if value[0] != int(sign) or err > CHAIN_LOGDET_TOL:
            checks.fail(index, f"det sign {value[0]} log {value[1]} vs {int(sign)} {logdet}")
        return
    x, xp = req["x"], req["xp"]
    u, v = _kernel(geometry, mode, k, x, a), _kernel(geometry, mode, k, a, xp)
    g0 = float(_kernel(geometry, mode, k, x, xp))
    if req["call"] == "greens_strong":
        ref = g0 - float(u @ np.linalg.solve(G0, v))
    else:
        w = {"cylindrical": a, "spherical": a * a}.get(geometry, np.ones_like(a))
        w_lambda = w * 2.0 * np.array(req["couplings"])  # natural units: lambda = 2 m mu / hbar^2
        lam = np.eye(len(a)) + G0 * w_lambda[None, :]
        ref = g0 - float(u @ (w_lambda * np.linalg.solve(lam, v)))
    scale = max(abs(g0), abs(ref))
    err = abs(value - ref) / scale
    checks.error("chain_greens.max_rel_err", err)
    if err > CHAIN_TOL_REL:
        checks.fail(index, f"g={value!r} vs scipy {ref!r} (scale {scale:.3g})")


# ----------------------------------------------------------------------
# dirichlet_spectra: scipy zeros and cross-product roots
# ----------------------------------------------------------------------

def _first_roots(f, lo, step, count):
    """First `count` sign changes of a vectorized f on a grid from lo, refined by brentq."""
    roots = []
    x0 = lo
    while len(roots) < count:
        xs = x0 + step * np.arange(4097)
        fs = f(xs)
        for i in np.nonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[0]:
            roots.append(optimize.brentq(f, xs[i], xs[i + 1], xtol=1e-15, rtol=1e-15))
            if len(roots) == count:
                break
        x0 = xs[-1]
    return np.array(roots)


def dirichlet_reference(req):
    shape, n = req["shape"], req["n"]
    if shape == "delta_well":
        return np.array([-req["mu"]])  # pole of 1 + lambda / (2 k0) with lambda = 2 mu
    if shape == "box":
        return np.arange(1, n + 1) * math.pi / req["a"]
    m = req["mode"]
    if shape == "disk":
        return special.jn_zeros(m, n) / req["r"]
    if shape == "ball":
        return _first_roots(lambda x: special.spherical_jn(m, x), 1e-3, 0.01, n) / req["r"]
    r1, r2 = req["r1"], req["r2"]
    if shape == "annulus":
        def f(k):
            return special.jv(m, k * r1) * special.yv(m, k * r2) \
                - special.jv(m, k * r2) * special.yv(m, k * r1)
    else:
        def f(k):
            return special.spherical_jn(m, k * r1) * special.spherical_yn(m, k * r2) \
                - special.spherical_jn(m, k * r2) * special.spherical_yn(m, k * r1)
    return _first_roots(f, 1e-3, math.pi / (64.0 * (r2 - r1)), n)


def check_dirichlet(checks, index, req, levels):
    ref = dirichlet_reference(req)
    if len(levels) != len(ref):
        checks.fail(index, f"returned {len(levels)} of {len(ref)} levels")
        return
    for i, ((kappa, energy), k_ref) in enumerate(zip(levels, ref)):
        err = abs(kappa - k_ref) / abs(k_ref)
        checks.error(f"dirichlet_spectra.{req['shape']}_max_rel_err", err)
        if err > KAPPA_TOL_REL:
            checks.fail(index, f"{req['shape']} level {i}: {kappa!r} vs scipy {k_ref!r}")
            return
        e_ref = -0.5 * k_ref * k_ref if req["shape"] == "delta_well" else 0.5 * k_ref * k_ref
        if abs(energy - e_ref) > 1e-9 * abs(e_ref):
            checks.fail(index, f"{req['shape']} level {i}: energy {energy} vs {e_ref}")
            return


def check_file(path):
    checks = Checks()
    scans = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            index, req, output = rec["id"], rec["request"], rec["output"]
            checks.checked += 1
            if rec["error"] is not None:
                checks.fail(index, rec["error"])
            elif req["kind"] == "oscillator_spectrum":
                check_levels(checks, index, req, output)
            elif req["kind"] == "scan":
                scans.append((index, req, output))
            elif req["kind"] == "chain":
                check_chain(checks, index, req, output)
            else:
                check_dirichlet(checks, index, req, output)
    if scans:
        check_scans(checks, scans)
    return {"checked": checks.checked,
            "failures": {str(k): v for k, v in sorted(checks.failures.items())},
            "worst": dict(checks.worst), "notes": checks.notes}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit("usage: oracle.py OUTPUTS.jsonl")
    print(json.dumps(check_file(sys.argv[1])))
