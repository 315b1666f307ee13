"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL lines.
The checks here are deliberately self-contained (they re-derive their oracles
rather than importing helpers from the other test modules).
"""

import math
import time

import numpy as np
import pytest

from greenchain import (
    ALL_INFINITE,
    DeltaChain,
    box_spectrum_rect,
    char_func,
    char_scan_table,
    custom_free_greens,
    cyl_dirichlet_spectrum,
    cyl_free_greens,
    delta_well_bound_state,
    greens_finite,
    greens_strong,
    oscillator_char_reduced,
    rect_free_greens,
    sph_dirichlet_spectrum,
    sph_free_greens,
)
from greenchain import specfun as sf
from greenchain.cli import main

H = 1e-5

TABLE_REFERENCE = (4.951, 19.774, 44.452, 78.996, 123.410, 177.693)
FIG1_ROOTS = (4.45, 19.27, 43.95, 78.49, 122.91, 177.19)


def report(number, desc, fn):
    try:
        fn()
    except BaseException:
        print(f"[criterion {number}] FAIL — {desc}")
        raise
    print(f"[criterion {number}] PASS — {desc}")


# ----------------------------------------------------------------------

def test_criterion_1_reference_table(capsys):
    def check():
        t0 = time.perf_counter()
        code = main(["table1"])
        elapsed = time.perf_counter() - t0
        out = capsys.readouterr().out
        assert code == 0
        rows = [l.split() for l in out.splitlines() if l.startswith("E")]
        assert len(rows) == 6
        for row, ref in zip(rows, TABLE_REFERENCE):
            assert abs(float(row[1]) - ref) <= 0.01
        assert elapsed <= 30.0, f"table run took {elapsed:.1f} s"

    report(1, "first six boxed-oscillator energies within 0.01 of the reference, "
              "single-threaded run under 30 s", check)


def test_criterion_2_root_locations(six_levels, unit_box):
    def check():
        assert len(six_levels) == 6
        for line, ref in zip(six_levels, FIG1_ROOTS):
            assert abs(line.root.value - ref) <= 0.01
            # each reported level is a genuine sign change of the reduced ratio
            lo = oscillator_char_reduced(line.root.value - 5e-3, unit_box)
            hi = oscillator_char_reduced(line.root.value + 5e-3, unit_box)
            assert lo * hi < 0.0

    report(2, "six reduced-characteristic sign changes within 0.01 of "
              "{4.45, 19.27, 43.95, 78.49, 122.91, 177.19}", check)


def test_criterion_3_zoom_minimum(unit_box):
    def check():
        rows = char_scan_table(lambda v: oscillator_char_reduced(v, unit_box),
                               4.3, 4.8, 1e-3)
        assert len(rows) == 501
        v_min = min(rows, key=lambda r: r[1])[0]
        assert abs(v_min - 4.45) <= 0.005

    report(3, "scan of [4.3, 4.8] at step 1e-3 puts min |r(v)| within 0.005 of 4.45", check)


def test_criterion_4_box_continuation():
    def check():
        for a in (1.0, 2.0):
            lines = box_spectrum_rect(a, 5)
            for j, line in enumerate(lines, start=1):
                want = 0.5 * (j * math.pi / a) ** 2
                assert abs(line.energy - want) <= 1e-8 * want

    report(4, "box energies match hbar^2 pi^2 n^2 / (2 m a^2) to 1e-8 for n = 1..5", check)


def test_criterion_5_disk_and_ball():
    def check():
        # independent oracle: bisection on the J0 power series
        def j0_series(x):
            t, s, k = 1.0, 1.0, 0
            while True:
                k += 1
                t *= -(x * x / 4.0) / (k * k)
                s_new = s + t
                if s_new == s:
                    return s
                s = s_new

        def bisect(lo, hi):
            flo = j0_series(lo)
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if flo * j0_series(mid) <= 0.0:
                    hi = mid
                else:
                    lo = mid
                    flo = j0_series(lo)
            return 0.5 * (lo + hi)

        oracle = [bisect(*w) for w in ((2.0, 3.0), (5.0, 6.0), (8.0, 9.0))]
        for got, disp in zip(oracle, (2.404826, 5.520078, 8.653728)):
            assert abs(got - disp) <= 1e-6  # oracle agrees with the quoted roundings
        lines = cyl_dirichlet_spectrum(1.0, 0, 3)
        for line, want in zip(lines, oracle):
            assert abs(line.root.value - want) <= 1e-8 * want
        for j, line in enumerate(sph_dirichlet_spectrum(1.0, 0, 3), start=1):
            assert abs(line.root.value - j * math.pi) <= 1e-10 * j * math.pi

    report(5, "disk roots match the series-bisection oracle to 1e-8; "
              "ball roots match n pi to 1e-10", check)


def test_criterion_6_delta_well():
    def check():
        line = delta_well_bound_state(-1.0)
        assert abs(line.energy + 0.5) <= 1e-10 * 0.5

    report(6, "single attractive delta well binds at E = -m mu^2 / (2 hbar^2) to 1e-10", check)


def test_criterion_7_chain_properties():
    def check():
        rng = np.random.RandomState(777)
        rect = rect_free_greens()

        # symmetry <= 1e-12
        ch = DeltaChain("rectangular", (0.0, 0.8, 1.7), (1.0, 2.5, 0.7))
        for _ in range(20):
            x, xp = rng.uniform(-1.0, 2.5, 2)
            a = greens_finite(ch, rect, x, xp, 1.1)
            b = greens_finite(ch, rect, xp, x, 1.1)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)

        # strong-coupling Dirichlet vanishing <= 1e-10
        strong = DeltaChain("rectangular", (0.0, 1.0), ALL_INFINITE)
        interior = max(abs(greens_strong(strong, rect, z, 0.44, 1.3))
                       for z in np.linspace(0.05, 0.95, 9))
        for wall in (0.0, 1.0):
            for _ in range(20):
                xp = rng.uniform(0.05, 0.95)
                assert abs(greens_strong(strong, rect, wall, xp, 1.3)) <= 1e-10 * max(interior, 1.0)

        # finite-coupling jump condition <= 1e-4 (central differences, h = 1e-5)
        f = lambda x: greens_finite(ch, rect, x, 1.2, 1.1)
        jump = (f(0.8 + H) - 2.0 * f(0.8) + f(0.8 - H)) / H
        want = ch.lambdas[1] * greens_finite(ch, rect, 0.8, 1.2, 1.1)
        assert abs(jump - want) <= 1e-4 * max(1.0, abs(want))

        # brute-force linear-system oracle <= 1e-10 for n in {1, 2, 3, 5}
        for geom, g0, lo in (("rectangular", rect, -2.0),
                             ("cylindrical", cyl_free_greens(0), 0.2),
                             ("spherical", sph_free_greens(1), 0.2)):
            for n in (1, 2, 3, 5):
                positions = np.sort(rng.uniform(lo if lo > 0 else -2.0, 4.0, n))
                positions = tuple(positions + np.arange(n) * 1e-9)  # force strict ordering
                lams = tuple(rng.uniform(0.1, 10.0, n))
                chn = DeltaChain(geom, positions, lams)
                x, xp = rng.uniform(max(lo, 0.05) if lo > 0 else -2.0, 4.0, 2)
                mine = greens_finite(chn, g0, x, xp, 1.1)
                w = np.array([g0.weight(p) * l for p, l in zip(positions, lams)])
                G0 = np.array([[g0.evaluate(p, q, 1.1) for q in positions] for p in positions])
                wall_vals = np.linalg.solve(
                    np.eye(n) + G0 * w[None, :],
                    np.array([g0.evaluate(p, xp, 1.1) for p in positions]))
                oracle = g0.evaluate(x, xp, 1.1) - float(
                    sum(w[i] * g0.evaluate(x, positions[i], 1.1) * wall_vals[i]
                        for i in range(n)))
                assert abs(mine - oracle) <= 1e-10 * max(abs(oracle), 1e-12)

        # finite -> strong convergence is O(1/lambda) across three decades
        diffs = []
        for lam in (1e2, 1e4, 1e6):
            chl = DeltaChain("rectangular", (0.0, 1.0), (lam, lam))
            diffs.append(max(abs(greens_finite(chl, rect, z, 0.37, 1.3)
                                 - greens_strong(strong, rect, z, 0.37, 1.3))
                             for z in (0.11, 0.5, 0.83)))
        assert diffs[0] > diffs[1] > diffs[2]
        cs = [d * l for d, l in zip(diffs, (1e2, 1e4, 1e6))]
        assert max(cs) <= 2.0 * min(cs)

        # rescaling g0 leaves every characteristic sign-change bracket unchanged
        c = 7.3

        def scaled_factors(x, p):  # the pair of c g0: p scaled by c
            f_p, f_q = rect.factors(x, p)
            return f_p.scaled(c), f_q

        scaled = custom_free_greens(scaled_factors)
        params = [0.2 + 0.17 * i for i in range(12)]
        signs_base = [char_func(strong, rect, p).sign for p in params]
        signs_scaled = [char_func(strong, scaled, p).sign for p in params]
        assert signs_base == signs_scaled

    report(7, "chain property suite: symmetry 1e-12, Dirichlet 1e-10, jump 1e-4, "
              "oracle 1e-10, O(1/lambda) convergence, rescaling invariance", check)


def test_criterion_8_special_function_suite():
    def check():
        # Wronskian I K' - I' K = -1/x <= 1e-9
        for m in (0, 1, 2, 5):
            for x in (0.5, 1.0, 5.0, 20.0):
                im, km = sf.bessel_i(m, x), sf.bessel_k(m, x)
                ip = 0.5 * (sf.bessel_i(abs(m - 1), x) + sf.bessel_i(m + 1, x))
                kp = -0.5 * (sf.bessel_k(abs(m - 1), x) + sf.bessel_k(m + 1, x))
                assert abs(im * kp - ip * km + 1.0 / x) <= 1e-9 / x

        # Wronskian i k' - i' k = -pi/(2x^2) <= 1e-9
        for l in (0, 1, 2, 5):
            for x in (0.5, 1.0, 5.0, 20.0):
                il, kl = sf.sph_modified(l, x)
                if l == 0:
                    i_lo, k_lo = math.cosh(x) / x, kl
                else:
                    i_lo, k_lo = sf.sph_modified(l - 1, x)
                ip = i_lo - (l + 1.0) / x * il
                kp = -k_lo - (l + 1.0) / x * kl
                want = -0.5 * math.pi / (x * x)
                assert abs(il * kp - ip * kl - want) <= 1e-9 * abs(want)

        # D_{v+1} - y D_v + v D_{v-1} = 0 <= 1e-8 of the largest term
        for v in (0.5, 1.5, 4.45, 20.3):
            for y in (-2.0, -0.7071, 0.7071, 2.0):
                d0, d1, d2 = sf.pcf_d(v - 1, y), sf.pcf_d(v, y), sf.pcf_d(v + 1, y)
                scale = max(abs(d2), abs(y * d1), abs(v * d0))
                assert abs(d2 - y * d1 + v * d0) <= 1e-8 * scale

        # D_n against the Hermite closed form <= 1e-9 for n <= 20
        for n in range(21):
            hs = []
            grid = np.arange(-4.0, 4.0 + 1e-9, 0.25)
            for y in grid:
                p, c_ = 1.0, 2.0 * (y / math.sqrt(2.0))
                h = 1.0 if n == 0 else c_
                for k in range(1, n):
                    p, c_ = c_, 2.0 * (y / math.sqrt(2.0)) * c_ - 2.0 * k * p
                    h = c_
                hs.append(2.0 ** (-0.5 * n) * math.exp(-0.25 * y * y) * h)
            amp = max(abs(h) for h in hs)
            for y, w in zip(grid, hs):
                assert abs(sf.pcf_d(float(n), float(y)) - w) <= 1e-9 * max(abs(w), 1e-5 * amp)

        # Gamma functional equation <= 1e-12
        rng = np.random.RandomState(8)
        for x in rng.uniform(0.1, 50.0, 200):
            lhs = sf.gamma(x + 1.0)
            assert abs(lhs - x * sf.gamma(x)) <= 1e-12 * abs(lhs)

    report(8, "special-function suite: Wronskians 1e-9, D recurrence 1e-8, "
              "Hermite match 1e-9, Gamma equation 1e-12", check)


def test_criterion_9_deterministic_csv(tmp_path):
    def check():
        args = ["scan", "--geometry", "oscillator", "--a", "1", "--lo", "4.3",
                "--hi", "4.8", "--step", "0.001"]
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    report(9, "CSV output byte-identical across runs (suite wall time reported "
              "at session end)", check)
