"""High-precision oracles for what greenchain prints; skipped without mpmath.

Boxed-oscillator levels: each refined level must lie within
max(tol, eps peak / |f'|) of the mpmath zero of its Kummer wall factor,
where peak is the largest term of the float series at the level (its
rounding noise is about eps peak) and f' the factor's slope there.
Kummer M at x < 0: every value kummer_m returns lies within 1e-12 of mpmath.
K_m: bessel_k lies within 1e-14 of mpmath below x = 15 and within 8e-15 from there.
J_m, Y_m: bessel_jy and _bessel_j lie within 1e-15 of mpmath's J_m (relative below
x = 1e-9) and within 2e-15 max(1, |Y_m|) of its Y_m, and raise RangeError exactly
where Y_m leaves double range.
Disk and annulus levels: each lies within tol = 1e-12 in kappa L of its mpmath zero.
"""

import math
import sys

import numpy as np
import pytest

from greenchain import (OscillatorProblem, cyl_annulus_spectrum, cyl_dirichlet_spectrum,
                        oscillator_spectrum)
from greenchain.spectrum import RootKind
from greenchain.errors import NumericError, RangeError
from greenchain.specfun import (_JY_HANKEL_MIN, _JY_TINY, _K_ASYMPTOTIC_MIN, _bessel_j,
                                _kummer_series, bessel_jy, bessel_k, kummer_m)

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


# bessel_k: seeded log-uniform x in (1e-300, 15), where the leading terms (x < 1e-9) and the
# trapezoid take K_0 and K_1, more of them in (1e-9, 15) where the trapezoid runs, 5, 6 and
# 6.1 around the seam of the series band the trapezoid replaced, and 14 and 14.5, where the
# asymptotic sums were 5.3e-14 and 1.9e-14 off when they took over at 14; then the
# asymptotic band from its seam at 15, whose worst point is the seam itself (7.1e-15)
_K_RNG = np.random.default_rng(27)
K_BELOW_15 = np.exp(np.concatenate([_K_RNG.uniform(math.log(1e-300), math.log(15.0), 200),
                                    _K_RNG.uniform(math.log(1e-9), math.log(15.0), 150)])
                    ).tolist() + [5.0, 6.0, 6.1, 14.0, 14.5]
K_FROM_15 = [15.0] + np.exp(_K_RNG.uniform(math.log(15.0), math.log(100.0), 40)).tolist()


@pytest.mark.parametrize("xs, tol", [(K_BELOW_15, 1e-14), (K_FROM_15, 8e-15)],
                         ids=["below-15", "from-15"])
def test_bessel_k_lies_within_its_bound_of_mpmath(xs, tol):
    # K_2 and K_5 recur upward from mpmath's K_0 and K_1 at 30 digits; bessel_k raises
    # RangeError exactly where K_m is past double range
    assert _K_ASYMPTOTIC_MIN == 15.0  # the seam the two samples straddle
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


# bessel_jy and _bessel_j: seeded log-uniform x in (1e-300, 100], more of them in (1e-9, 100]
# where the Miller pass and the Hankel sums run, both seams and their neighbours, and the
# zeros of J_0, J_1, Y_0 and Y_1 below 20, where the earlier series lost the most digits
_JY_RNG = np.random.default_rng(28)
_ZEROS_BELOW_20 = [
    2.404825557695773, 5.520078110286311, 8.653727912911013, 11.791534439014281,
    14.930917708487787, 18.071063967910924, 3.8317059702075125, 7.015586669815619,
    10.173468135062722, 13.323691936314223, 16.470630050877634, 19.615858510468243,
    0.8935769662791675, 3.957678419314858, 7.086051060301773, 10.222345043496418,
    13.361097473872764, 16.50092244152809, 19.64130970088794, 2.197141326031017,
    5.429681040794135, 8.596005868331169, 11.749154830839881, 14.897442128336726,
    18.043402276727857]
JY_POINTS = (np.exp(np.concatenate([_JY_RNG.uniform(math.log(1e-300), math.log(100.0), 100),
                                    _JY_RNG.uniform(math.log(1e-9), math.log(100.0), 100)])
                    ).tolist()
             + [float(np.nextafter(s, d)) for s in (_JY_TINY, _JY_HANKEL_MIN)
                for d in (0.0, s, math.inf)]
             + _ZEROS_BELOW_20)


def test_bessel_jy_lies_within_its_bound_of_mpmath():
    # J_m from mpmath's besselj at each order; Y_2, Y_5 and Y_13 recur upward from its Y_0
    # and Y_1 (stable: Y grows with order).  Below x = 1e-9 J_m may be subnormal, so there
    # it is held relative to its value and to its last subnormal ulp.
    orders = (0, 1, 2, 5, 13)
    for x in JY_POINTS:
        with mpmath.workdps(25):
            xm = mpmath.mpf(x)
            y_ref = [mpmath.bessely(0, xm), mpmath.bessely(1, xm)]
            for j in range(1, max(orders)):
                y_ref.append((2 * j / xm) * y_ref[-1] - y_ref[-2])
            for m in orders:
                j_ref = mpmath.besselj(m, xm)
                j_tol = 1e-15 * (abs(j_ref) if x < _JY_TINY else 1) + 5e-324
                assert abs(_bessel_j(m, x) - j_ref) <= j_tol, (m, x)
                if abs(y_ref[m]) > sys.float_info.max:
                    with pytest.raises(RangeError):
                        bessel_jy(m, x)
                    continue
                j, y = bessel_jy(m, x)
                assert abs(j - j_ref) <= j_tol, (m, x, j)
                assert abs(y - y_ref[m]) <= 2e-15 * max(1, abs(y_ref[m])), (m, x, y)


# disk and annulus levels, 12 a request: at m = 3 and 4 level 2 of the annulus (1.0, 2.5)
# was 2.4e-12 off in kappa L when the ascending J/Y series met the Hankel sums at x = 12
@pytest.mark.parametrize("m", [0, 3, 4])
def test_cylinder_levels_lie_at_the_mpmath_zeros(m):
    tol = 1e-12
    for b in (0.7, 2.0):
        for j, line in enumerate(cyl_dirichlet_spectrum(b, m, 12), start=1):
            with mpmath.workdps(20):
                err = abs(mpmath.mpf(line.root.value) * b - mpmath.besseljzero(m, j))
            assert err <= tol, (b, j, float(err))
    for b1, b2 in ((0.5, 1.0), (0.5, 2.5), (1.0, 2.5)):
        lines = cyl_annulus_spectrum(b1, b2, m, 12)
        assert len(lines) == 12
        for line in lines:
            with mpmath.workdps(20):
                cross = lambda k: (mpmath.besselj(m, k * b1) * mpmath.bessely(m, k * b2)
                                   - mpmath.besselj(m, k * b2) * mpmath.bessely(m, k * b1))
                # one secant step from the level: it lies within about 1e-12 of the zero
                kappa, h = mpmath.mpf(line.root.value), mpmath.mpf(1e-9)
                f0 = cross(kappa)
                err = abs(f0 * h / (cross(kappa + h) - f0)) * (b2 - b1)
            assert err <= tol, (b1, b2, line.root.value, float(err))
