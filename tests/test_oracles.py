"""High-precision oracles for what greenchain prints; skipped without mpmath.

Boxed-oscillator levels: each refined level must lie within
max(tol, eps peak / |f'|) of the mpmath zero of its Kummer wall factor,
where peak is the largest term of the float series at the level (its
rounding noise is about eps peak) and f' the factor's slope there.
Kummer M at x < 0: every value kummer_m returns lies within 1e-12 of mpmath.
K_m: bessel_k lies within 1e-14 of mpmath below x = 14 and within 6e-14 from there.
"""

import math
import sys

import numpy as np
import pytest

from greenchain import OscillatorProblem, oscillator_spectrum
from greenchain.spectrum import RootKind
from greenchain.errors import NumericError, RangeError
from greenchain.specfun import _kummer_series, bessel_k, kummer_m

mpmath = pytest.importorskip("mpmath")

EPS = 2.220446049250313e-16
TOL = 1e-10  # oscillator_spectrum's default tolerance in v


@pytest.mark.parametrize("box_length",
                         sorted(set(np.linspace(0.3, 14.1, 24).tolist()
                                    + [1.0, 1.5, 2.0, 3.0, 5.0, 8.0])))
def test_oscillator_levels_lie_at_the_mpmath_zeros(box_length):
    prob = OscillatorProblem(box_length)
    x = 0.5 * (prob.alpha * prob.alpha)  # the wall factors' x, bit for bit
    lines = oscillator_spectrum(prob, 12)
    assert lines
    for j, line in enumerate(lines, start=1):
        v, kind = line.root.value, line.root.classification
        assert kind is (RootKind.EVEN_BRACKET if j % 2 else RootKind.ODD_BRACKET)
        b = 0.5 if j % 2 else 1.5  # even: M(-v/2, 1/2, x); odd: M((1 - v)/2, 3/2, x)
        a = -0.5 * v if j % 2 else 0.5 * (1.0 - v)
        with mpmath.workdps(30):
            f = lambda t: mpmath.hyp1f1((b - 0.5 - t) / 2, b, x)
            zero = mpmath.findroot(f, (mpmath.mpf(v) - 1e-7, mpmath.mpf(v) + 1e-7))
            slope = float(mpmath.diff(f, zero))
            err = abs(float(v - zero))
        bound = max(TOL, EPS * _kummer_series(a, b, x)[1] / abs(slope))
        assert err <= bound, (j, v, err, bound)


# kummer_m at x < 0: a seeded sweep of |a| <= 300, x in [-50, 0), and a lattice of orders
# and points; the alternating series often cancels there, and kummer_m must then raise
_NEG_RNG = np.random.default_rng(57)
NEGATIVE_X_POINTS = (list(zip(_NEG_RNG.uniform(-300.0, 300.0, 200).tolist(),
                              _NEG_RNG.uniform(-50.0, 0.0, 200).tolist()))
                     + [(a, x) for a in (-300.0, -41.0, -2.5, 0.5, 7.0, 40.0, 150.0, 300.0)
                        for x in (-50.0, -20.0, -3.5, -1e-3)])


@pytest.mark.parametrize("b", [0.5, 1.5, 0.3, 2.7])
def test_kummer_at_negative_x_returns_only_within_its_bound(b):
    # every point that returns lies within 1e-12 of mpmath's M(a, b, x); the others
    # raise NumericError
    kept = raised = 0
    for a, x in NEGATIVE_X_POINTS:
        try:
            got = kummer_m(a, b, x)
        except NumericError:
            raised += 1
            continue
        with mpmath.workdps(40):
            want = float(mpmath.hyp1f1(a, b, x))
        assert abs(got - want) <= 1e-12 * abs(want), (a, x, got, want)
        kept += 1
    assert kept >= 80 and raised >= 80


# bessel_k: seeded log-uniform x in (1e-300, 14), where the leading terms (x < 1e-9) and the
# trapezoid take K_0 and K_1, more of them in (1e-9, 14) where the trapezoid runs, and
# 5, 6 and 6.1 around the seam of the series band the trapezoid replaced; then the
# asymptotic band from its seam at 14, whose worst point is the seam itself (5.3e-14)
_K_RNG = np.random.default_rng(27)
K_BELOW_14 = np.exp(np.concatenate([_K_RNG.uniform(math.log(1e-300), math.log(14.0), 200),
                                    _K_RNG.uniform(math.log(1e-9), math.log(14.0), 150)])
                    ).tolist() + [5.0, 6.0, 6.1]
K_FROM_14 = [14.0] + np.exp(_K_RNG.uniform(math.log(14.0), math.log(100.0), 40)).tolist()


@pytest.mark.parametrize("xs, tol", [(K_BELOW_14, 1e-14), (K_FROM_14, 6e-14)],
                         ids=["below-14", "from-14"])
def test_bessel_k_lies_within_its_bound_of_mpmath(xs, tol):
    # K_2 and K_5 recur upward from mpmath's K_0 and K_1 at 30 digits; bessel_k raises
    # RangeError exactly where K_m is past double range
    for x in xs:
        with mpmath.workdps(30):
            want = [mpmath.besselk(0, x), mpmath.besselk(1, x)]
            for j in range(1, 5):
                want.append(want[-2] + (2 * j / mpmath.mpf(x)) * want[-1])
            for m in (0, 1, 2, 5):
                if want[m] > sys.float_info.max:
                    with pytest.raises(RangeError):
                        bessel_k(m, x)
                    continue
                got = bessel_k(m, x)
                assert abs(got - want[m]) <= tol * want[m], (m, x, got)
