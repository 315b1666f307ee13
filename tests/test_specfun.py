"""Special-function tests: closed forms, independent oracles, identities."""

import math

import numpy as np
import pytest

from greenchain import specfun as sf
from greenchain.errors import DomainError, GreenChainError, NumericError, RangeError

SQRT_PI = math.sqrt(math.pi)


# ----------------------------------------------------------------------
# Independent oracles (kept series-only so they share nothing with the
# implementation's asymptotic/integral branches)
# ----------------------------------------------------------------------

def i_series_oracle(m, x):
    """I_m by the ascending series summed to machine convergence."""
    t = (0.5 * x) ** m / math.factorial(m)
    s = t
    k = 0
    while True:
        k += 1
        t *= (x * x / 4.0) / (k * (m + k))
        s_new = s + t
        if s_new == s:
            return s
        s = s_new


def hermite_oracle(n, x):
    if n == 0:
        return 1.0
    p, c = 1.0, 2.0 * x
    for k in range(1, n):
        p, c = c, 2.0 * x * c - 2.0 * k * p
    return c


def d_hermite_oracle(n, y):
    """D_n for integer n from the Hermite closed form."""
    return 2.0 ** (-0.5 * n) * math.exp(-0.25 * y * y) * hermite_oracle(n, y / math.sqrt(2.0))


# frozen oracle values (i_series_oracle / quadrature of exp(-x cosh t) cosh(mt)
# via scipy.integrate.quad / bisection on the J0 power series)
I0_AT_1 = 1.2660658777520082
K0_AT_1 = 0.4210244382407083
K1_AT_1 = 0.6019072301972347
J0_FIRST_ZERO = 2.404825557695773
D3_AT_1 = -1.55760156614281


# ----------------------------------------------------------------------
# SignLog
# ----------------------------------------------------------------------

def test_signlog_roundtrip_and_zero():
    sl = sf.SignLog.from_value(-3.5)
    assert sl.sign == -1
    assert sl.value() == pytest.approx(-3.5, rel=1e-15)
    zero = sf.SignLog.from_value(0.0)
    assert zero.sign == 0
    assert zero.value() == 0.0


def test_signlog_products_never_overflow():
    # ten factors near the double limit: the product must stay representable in log space
    big = sf.SignLog(-1, 650.0)
    acc = sf.SignLog(1, 0.0)
    for _ in range(10):
        acc = acc * big
    assert acc.sign == 1
    assert acc.log_mag == pytest.approx(6500.0)
    with pytest.raises(RangeError):
        acc.value()


def test_signlog_rejects_bad_sign():
    with pytest.raises(DomainError):
        sf.SignLog(2, 0.0)


# ----------------------------------------------------------------------
# gamma
# ----------------------------------------------------------------------

def test_gamma_closed_forms():
    assert sf.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
    assert sf.gamma(5.0) == pytest.approx(24.0, rel=1e-14)
    assert sf.gamma(-0.5) == pytest.approx(-2.0 * SQRT_PI, rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -33.0])
def test_gamma_pole_raises(x):
    with pytest.raises(DomainError):
        sf.gamma(x)


@pytest.mark.parametrize("fn", [sf.gamma, sf.gamma_signlog], ids=["gamma", "gamma_signlog"])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_gamma_rejects_non_finite_arguments(fn, x):
    with pytest.raises(DomainError, match="finite"):
        fn(x)


def test_gamma_overflow_raises():
    with pytest.raises(RangeError):
        sf.gamma(180.0)


def test_gamma_functional_equation():
    rng = np.random.RandomState(20240817)
    xs = rng.uniform(0.1, 50.0, size=200)
    for x in xs:
        lhs = sf.gamma(x + 1.0)
        rhs = x * sf.gamma(x)
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


def test_gamma_signlog_matches_gamma():
    for x in (0.5, 7.3, -0.5, -1.5, -10.2, 40.0):
        sl = sf.gamma_signlog(x)
        assert sl.value() == pytest.approx(sf.gamma(x), rel=1e-13)
    # beyond double range the signlog form still works
    sl = sf.gamma_signlog(250.0)
    assert sl.sign == 1
    assert sl.log_mag == pytest.approx(math.lgamma(250.0))


# ----------------------------------------------------------------------
# Modified Bessel I, K
# ----------------------------------------------------------------------

def test_bessel_i_limits_and_series_value():
    assert sf.bessel_i(0, 1e-8) == pytest.approx(1.0, abs=1e-12)
    assert sf.bessel_i(1, 1e-8) == pytest.approx(0.0, abs=1e-8)
    assert sf.bessel_i(0, 1.0) == pytest.approx(I0_AT_1, rel=1e-12)


def test_bessel_i_domain_and_overflow_guard():
    with pytest.raises(DomainError):
        sf.bessel_i(0, -1.0)
    with pytest.raises(DomainError):
        sf.bessel_i(-1, 1.0)
    with pytest.raises(RangeError):
        sf.bessel_i(0, 701.0)


def test_bessel_k_oracle_values():
    assert sf.bessel_k(0, 1.0) == pytest.approx(K0_AT_1, rel=1e-10)
    assert sf.bessel_k(1, 1.0) == pytest.approx(K1_AT_1, rel=1e-10)


def test_bessel_k_leading_asymptotic():
    x = 50.0
    leading = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
    assert sf.bessel_k(0, x) / leading == pytest.approx(1.0, abs=1e-2)


def test_bessel_k_domain():
    with pytest.raises(DomainError):
        sf.bessel_k(0, 0.0)


def test_ik_wronskian():
    # I_m(x) K_m'(x) - I_m'(x) K_m(x) = -1/x, derivatives from the recurrences
    for m in (0, 1, 2, 5):
        for x in (0.5, 1.0, 5.0, 20.0):
            im = sf.bessel_i(m, x)
            km = sf.bessel_k(m, x)
            i_lo = sf.bessel_i(abs(m - 1), x)
            i_hi = sf.bessel_i(m + 1, x)
            k_lo = sf.bessel_k(abs(m - 1), x)
            k_hi = sf.bessel_k(m + 1, x)
            ip = 0.5 * (i_lo + i_hi)
            kp = -0.5 * (k_lo + k_hi)
            wr = im * kp - ip * km
            assert abs(wr + 1.0 / x) <= 1e-9 / x


# ----------------------------------------------------------------------
# Ordinary Bessel J, Y
# ----------------------------------------------------------------------

def test_bessel_jy_small_argument():
    j, _ = sf.bessel_jy(0, 1e-8)
    assert j == pytest.approx(1.0, abs=1e-12)
    j, _ = sf.bessel_jy(1, 1e-8)
    assert j == pytest.approx(0.0, abs=1e-8)


def test_bessel_j_first_zero():
    j, _ = sf.bessel_jy(0, J0_FIRST_ZERO)
    assert abs(j) <= 1e-9


def test_bessel_jy_wronskian():
    # J_m(x) Y_m'(x) - J_m'(x) Y_m(x) = 2/(pi x); m = 7 exercises the
    # downward-recurrence branch at the smaller arguments
    for m in (0, 1, 3, 7):
        for x in (0.7, 5.0, 11.0, 40.0):
            jm, ym = sf.bessel_jy(m, x)
            j_lo, y_lo = sf.bessel_jy(abs(m - 1), x)
            j_hi, y_hi = sf.bessel_jy(m + 1, x)
            sgn = -1.0 if m == 0 else 1.0  # J_{-1} = -J_1, Y_{-1} = -Y_1
            jp = 0.5 * (sgn * j_lo - j_hi)
            yp = 0.5 * (sgn * y_lo - y_hi)
            wr = jm * yp - jp * ym
            assert abs(wr - 2.0 / (math.pi * x)) <= 1e-9


def test_bessel_jy_domain():
    with pytest.raises(DomainError):
        sf.bessel_jy(0, 0.0)


def test_bessel_j_alone_is_the_first_of_the_pair():
    # the series, upward and Miller branches, each bitwise J_m of bessel_jy;
    # J_m alone keeps its value where Y_m overflows
    for m in (0, 1, 2, 7, 13, 40, 150):
        for x in (1e-3, 0.1, 0.7, 5.0, 12.0, 12.5, 20.0, 45.0, 99.0, 160.0):
            try:
                want = sf.bessel_jy(m, x)[0]
            except RangeError:
                assert math.isfinite(sf._bessel_j(m, x)), (m, x)
                continue
            assert sf._bessel_j(m, x).hex() == want.hex(), (m, x)
    with pytest.raises(RangeError):
        sf.bessel_jy(150, 0.1)


# ----------------------------------------------------------------------
# Spherical Bessel (modified and ordinary)
# ----------------------------------------------------------------------

def test_sph_modified_closed_forms():
    i0, k0 = sf.sph_modified(0, 1.0)
    assert i0 == pytest.approx(math.sinh(1.0), rel=1e-12)
    assert k0 == pytest.approx(0.5 * math.pi * math.exp(-1.0), rel=1e-12)
    i1, _ = sf.sph_modified(1, 1.0)
    assert i1 == pytest.approx(math.cosh(1.0) - math.sinh(1.0), rel=1e-12)


def test_sph_modified_wronskian():
    # i_l k_l' - i_l' k_l = -pi/(2 x^2) in the sqrt(pi/2x) convention;
    # derivatives from f_l' = f_{l-1} - (l+1)/x f_l with k_{-1} = k_0
    for l in (0, 1, 2, 5):
        for x in (0.5, 1.0, 5.0, 20.0):
            il, kl = sf.sph_modified(l, x)
            if l == 0:
                i_lo = math.cosh(x) / x  # i_{-1}
                k_lo = kl  # k_{-1} = k_0
            else:
                i_lo, k_lo = sf.sph_modified(l - 1, x)
            ip = i_lo - (l + 1.0) / x * il
            kp = -k_lo - (l + 1.0) / x * kl
            wr = il * kp - ip * kl
            want = -0.5 * math.pi / (x * x)
            assert abs(wr - want) <= 1e-9 * abs(want)


def test_sph_ordinary_closed_forms():
    j0, _ = sf.sph_ordinary(0, math.pi)
    assert abs(j0) <= 1e-12
    j0, _ = sf.sph_ordinary(0, 1.0)
    assert j0 == pytest.approx(math.sin(1.0), rel=1e-12)
    j1, _ = sf.sph_ordinary(1, 1e-4)
    assert abs(j1) <= 1e-4


def test_sph_ordinary_miller_branch():
    # l >= x forces the downward recurrence; check against the explicit l=2 form
    x = 1.5
    j2, y2 = sf.sph_ordinary(2, x)
    want = (3.0 / x ** 3 - 1.0 / x) * math.sin(x) - 3.0 / x ** 2 * math.cos(x)
    assert j2 == pytest.approx(want, rel=1e-10)
    want_y = -(3.0 / x ** 3 - 1.0 / x) * math.cos(x) - 3.0 / x ** 2 * math.sin(x)
    assert y2 == pytest.approx(want_y, rel=1e-10)


# ----------------------------------------------------------------------
# Bessel array paths: bitwise the scalar calls
# ----------------------------------------------------------------------

# every branch: series, the x = 12 seam, Hankel, J Miller (12 < x <= m),
# j_l Miller (x <= l), tiny x and points where the scalar call raises
X_BESSEL = np.concatenate([
    np.linspace(0.05, 60.0, 1200),
    [12.0, np.nextafter(12.0, 0.0), np.nextafter(12.0, 13.0), 1e-3, 1e-30, 1e-170, 5e-324],
    [0.0, -1.0, math.nan, math.inf],
])


def _array_matches_scalar(got, scalar, xs):
    """Element by element: NaN in every part where `scalar` raises, else the same bits."""
    raised = 0
    for i, x in enumerate(xs.tolist()):
        try:
            want = scalar(x)
        except (DomainError, NumericError, RangeError, ValueError, ZeroDivisionError):
            assert all(math.isnan(part[i]) for part in got), x
            raised += 1
            continue
        want = want if isinstance(want, tuple) else (want,)
        assert [float(part[i]).hex() for part in got] == [w.hex() for w in want], x
    return raised


def _checked(alone, order):
    """The private J_m or j_l alone, behind the public pair's domain check."""
    def scalar(x):
        sf._check_positive(x, "bessel")
        return alone(order, x)
    return scalar


@pytest.mark.parametrize("m", [0, 1, 2, 5, 13, 150])
def test_bessel_jy_array_bitwise_equals_scalar(m):
    raised = _array_matches_scalar(sf.bessel_jy(m, X_BESSEL), lambda x: sf.bessel_jy(m, x),
                                   X_BESSEL)
    assert raised >= 5  # 0, -1, nan, inf and 5e-324, whose log(x/2) raises
    if m == 150:
        assert raised > 15  # Y_150 overflows below x = 1: NaN in J and Y alike
    j_alone = sf._bessel_j(m, X_BESSEL)
    _array_matches_scalar([j_alone], _checked(sf._bessel_j, m), X_BESSEL)
    if m == 13:
        assert j_alone[X_BESSEL == 1e-30] == 0.0  # log_t0 < _LOG_TINY: the series is skipped


@pytest.mark.parametrize("l", [0, 1, 2, 5, 8])
def test_sph_ordinary_array_bitwise_equals_scalar(l):
    assert _array_matches_scalar(sf.sph_ordinary(l, X_BESSEL),
                                 lambda x: sf.sph_ordinary(l, x), X_BESSEL) >= 5
    # j_0 alone keeps its value at x = 1e-170, where 1/x^2 raises for y_l
    _array_matches_scalar([sf._sph_j(l, X_BESSEL)], _checked(sf._sph_j, l), X_BESSEL)


def test_bessel_arrays_keep_the_shape_and_check_the_order():
    x = np.array([[0.5, 13.0], [-1.0, 30.0]])
    for fn in (sf.bessel_jy, sf.sph_ordinary):
        j, y = fn(3, x)
        assert j.shape == y.shape == x.shape and np.isnan(j[1, 0])
        assert [a.shape for a in fn(3, np.empty(0))] == [(0,), (0,)]
        with pytest.raises(DomainError):
            fn(-1, x)


def test_bessel_jy_reuses_the_series_j0_j1(monkeypatch):
    # at x <= 12 the Y_0/Y_1 series already sums J_0 and J_1: m <= 1 sums no third J series
    calls = []
    real = sf._bessel_j_series
    monkeypatch.setattr(sf, "_bessel_j_series", lambda m, x: calls.append(m) or real(m, x))
    for m in (0, 1):
        calls.clear()
        sf.bessel_jy(m, 5.0)
        assert calls == [0, 1]
    calls.clear()
    sf.bessel_jy(2, 5.0)
    assert calls == [0, 1, 2]


# the three K_0/K_1 branches and their seams, I_m up to its overflow guard,
# and the edge arguments of the domain checks
X_IK = np.concatenate([
    np.linspace(0.05, 30.0, 600),
    np.linspace(30.0, 720.0, 40),
    [6.0, np.nextafter(6.0, 0.0), np.nextafter(6.0, 7.0), 14.0, np.nextafter(14.0, 0.0),
     700.0, np.nextafter(700.0, 800.0), 1e-3, 1e-30, 1e-170, 1e-309, 1e-320],
    [0.0, -1.0, 5e-324, math.nan, math.inf],
])


@pytest.mark.parametrize("m", [0, 1, 2, 5, 40])
def test_bessel_ik_arrays_bitwise_equal_scalar_on_every_branch(m):
    # x <= 6 series rows, the 6 < x < 14 trapezoid, the x >= 14 asymptotic sums
    i_arr, k_arr = sf.bessel_i(m, X_IK), sf.bessel_k(m, X_IK)
    raised_i = _array_matches_scalar([i_arr], lambda x: sf.bessel_i(m, x), X_IK)
    raised_k = _array_matches_scalar([k_arr], lambda x: sf.bessel_k(m, x), X_IK)
    assert raised_i >= 6  # 0, -1, 5e-324, nan, inf and x past the 700 guard
    assert raised_k >= 5
    if m == 40:
        assert (i_arr == 0.0).sum() >= 3  # log_t0 underflow: the series is skipped
        assert raised_k > 5  # the upward recurrence overflows at small x
    if m == 1:
        assert np.isnan(k_arr[X_IK == 1e-309])  # 1/x overflows: K_1 is inf, the scalar raises
    assert [part.shape for part in sf._ik_array(m, X_IK[:650].reshape(5, -1))] == [(5, 130)] * 2


@pytest.mark.parametrize("l", [0, 1, 2, 5, 8])
def test_sph_modified_array_bitwise_equals_scalar(l):
    got = sf.sph_modified(l, X_IK)
    assert _array_matches_scalar(got, lambda x: sf.sph_modified(l, x), X_IK) >= 6
    assert np.isnan(got[1][X_IK == 1e-320]).all()  # k_l overflows: RangeError in the scalar


@pytest.mark.parametrize("call", [
    lambda: sf.bessel_i(0, 5e-324),
    lambda: sf.bessel_k(0, 5e-324),
    lambda: sf.bessel_jy(0, 5e-324),
    lambda: sf.bessel_jy(0, math.inf),
    lambda: sf.sph_ordinary(0, math.inf),
    lambda: sf.sph_ordinary(2, 1e-170),
    lambda: sf.sph_ordinary(1, 1e-160),
    lambda: sf.sph_modified(2, 1e-170),
    lambda: sf.sph_modified(0, 5e-324),
    lambda: sf.bessel_k(1, 1e-309),
    lambda: sf.bessel_jy(1, 1e-309),
], ids=["i-tiny", "k-tiny", "jy-tiny", "jy-inf", "sph-inf", "sph-x2-underflow", "sph-y1-inf",
        "sph_modified-k2", "sph_modified-k0", "k1-inf", "y1-inf"])
def test_edge_arguments_raise_library_errors(call):
    # each of these used to raise a raw ValueError/ZeroDivisionError or return an infinity
    with pytest.raises((DomainError, RangeError)):
        call()


# ----------------------------------------------------------------------
# Kummer M
# ----------------------------------------------------------------------

def test_kummer_truncations_and_exponential():
    assert sf.kummer_m(0.0, 0.5, 3.0) == 1.0
    assert sf.kummer_m(2.3, 0.7, 0.0) == 1.0
    assert sf.kummer_m(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)


def test_kummer_domain_errors():
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, 0.0, 1.0)
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, -2.0, 1.0)
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, 0.5, 51.0)
    with pytest.raises(DomainError):
        sf.kummer_m(301.0, 0.5, 1.0)


def bits(values):
    """The float64 bit patterns of a sequence, so NaN == NaN and -0.0 != 0.0."""
    return np.asarray(values, dtype=float).view(np.int64)


V_LATTICE = np.arange(20001) * 0.01  # v in [0, 200] at step 0.01


@pytest.mark.parametrize("box_length", [1.0, 1.5, 2.0, 3.0, 5.0, 8.0])
def test_kummer_array_bitwise_equals_scalar(box_length):
    # the two oscillator wall factors M(-v/2, 1/2, x) and M((1-v)/2, 3/2, x),
    # x = alpha^2 / 2 with alpha = L / sqrt(2) in natural units
    x = 0.5 * (box_length / math.sqrt(2.0)) ** 2
    for a, b in ((-0.5 * V_LATTICE, 0.5), (0.5 * (1.0 - V_LATTICE), 1.5)):
        got = sf.kummer_m(a, b, x)
        want = [sf.kummer_m(ai, b, x) for ai in a.tolist()]
        assert np.array_equal(bits(got), bits(want))


def test_kummer_array_marks_scalar_errors_with_nan():
    a = np.array([[1.0, 301.0], [math.nan, -300.0]])
    got = sf.kummer_m(a, 0.5, 2.0)
    assert got.shape == a.shape
    assert np.isnan(got[0, 1]) and np.isnan(got[1, 0])
    assert bits(got[0, 0]) == bits(sf.kummer_m(1.0, 0.5, 2.0))
    assert bits(got[1, 1]) == bits(sf.kummer_m(-300.0, 0.5, 2.0))
    assert sf.kummer_m(np.empty(0), 0.5, 2.0).shape == (0,)
    # the scalar arguments raise as in the scalar call
    with pytest.raises(DomainError):
        sf.kummer_m(a, 0.5, 51.0)
    with pytest.raises(DomainError):
        sf.kummer_m(a, -1.0, 2.0)
    with pytest.raises(DomainError):
        sf.kummer_m(math.nan, 0.5, 2.0)


def test_kummer_array_nan_where_the_series_does_not_converge(monkeypatch):
    monkeypatch.setattr(sf, "_MAX_TERMS", 20)
    a = np.array([-2.0, -40.5])  # M(-2, 1/2, x) is a quadratic: three terms, then zeros
    got = sf.kummer_m(a, 0.5, 30.0)
    with pytest.raises(NumericError):
        sf.kummer_m(-40.5, 0.5, 30.0)
    assert bits(got[0]) == bits(sf.kummer_m(-2.0, 0.5, 30.0))
    assert np.isnan(got[1])


def _pair_matches_scalar(v, y):
    """Element by element: NaN where pcf_d_signlog raises, else the same bits."""
    sign_m, log_m, sign_p, log_p = sf.pcf_d_pair_signlog(v, y)
    raised = 0
    for i, vi in enumerate(v.tolist()):
        for sign, log_mag, yy in ((sign_m, log_m, -y), (sign_p, log_p, y)):
            try:
                sl = sf.pcf_d_signlog(vi, yy)
            except (DomainError, NumericError):
                assert np.isnan(sign[i]) and np.isnan(log_mag[i]), (vi, yy)
                raised += 1
                continue
            assert sign[i] == sl.sign and bits(log_mag[i]) == bits(sl.log_mag), (vi, yy)
    return raised


def test_pcf_pair_nan_mask_is_where_scalar_raises():
    # L = 3: the cancellation guard trips on a large share of the lattice
    alpha = 3.0 / math.sqrt(2.0)
    assert _pair_matches_scalar(V_LATTICE, alpha) > 10000
    # orders past 200 (and below -1) are outside the validated range
    outside = np.concatenate([200.0 + np.arange(1, 200) * 0.01, [-1.5, -1.0, math.nan]])
    assert _pair_matches_scalar(outside, alpha) == 2 * (len(outside) - 1)


def test_pcf_pair_at_small_y_and_integer_orders():
    # integer v: one of the reciprocal gammas is an exact zero; y = 0 and the
    # D_2 node at y = 1 give exact-zero values
    v = np.arange(-1.0, 30.0, 0.25)
    for y in (0.0, 1.0, 2.5):
        assert _pair_matches_scalar(v, y) == 0
    with pytest.raises(DomainError):
        sf.pcf_d_pair_signlog(v, 10.5)


def _pair_over_y_matches_scalar(v, ys):
    """The pair over an array of y at one order, element by element against pcf_d_signlog."""
    parts = sf.pcf_d_pair_signlog(v, ys)
    raised = 0
    for i, y in enumerate(ys.tolist()):
        for sign, log_mag, yy in ((parts[0], parts[1], -y), (parts[2], parts[3], y)):
            try:
                sl = sf.pcf_d_signlog(v, yy)
            except (DomainError, NumericError):
                assert np.isnan(sign[i]) and np.isnan(log_mag[i]), (v, yy)
                raised += 1
                continue
            assert sign[i] == sl.sign and bits(log_mag[i]) == bits(sl.log_mag), (v, yy)
    return raised


def test_pcf_pair_over_y_bitwise_equals_scalar():
    ys = np.concatenate([np.linspace(-10.5, 10.5, 85), [0.0, 1.0, 10.0, math.nan]])
    outside = 2 * int(np.sum(~(np.abs(ys) <= 10.0)))  # |y| > 10 and nan, at -y and y
    for v in (-1.0, -0.9, -0.5, 0.0, 1.0, 2.0, 3.7, 5.9):
        assert _pair_over_y_matches_scalar(v, ys) == outside
    # large orders at large |y|: the cancellation guard
    assert _pair_over_y_matches_scalar(150.5, ys) > outside
    assert _pair_over_y_matches_scalar(201.0, ys) == 2 * len(ys)
    assert [p.shape for p in sf.pcf_d_pair_signlog(0.5, ys.reshape(1, -1))] == [(1, len(ys))] * 4


def test_kummer_series_over_x_bitwise_equals_scalar(monkeypatch):
    xs = np.linspace(-50.0, 50.0, 101)
    for a, b in ((-88.65, 0.5), (-3.0, 1.5), (0.7, 0.5), (12.5, 1.5)):
        sums, peaks = sf._kummer_series_array(a, b, xs)
        for i, x in enumerate(xs.tolist()):
            want = sf._kummer_series(a, b, x)
            assert (bits(sums[i]), bits(peaks[i])) == (bits(want[0]), bits(want[1])), (a, x)
    monkeypatch.setattr(sf, "_MAX_TERMS", 20)
    sums, _ = sf._kummer_series_array(np.array([-2.0, -40.5]), 0.5, np.array([30.0, 30.0]))
    assert bits(sums[0]) == bits(sf._kummer_series(-2.0, 0.5, 30.0)[0]) and np.isnan(sums[1])


def test_scalar_pcf_pair_is_the_two_scalar_calls():
    # one pair of Kummer series for D_v(-y) and D_v(y): same bits, same exceptions
    rng = np.random.default_rng(7)
    points = list(zip(rng.uniform(-1.2, 201.0, 300).tolist(), rng.uniform(-10.5, 10.5, 300).tolist()))
    points += [(150.5, 9.0), (2.0, 0.0), (0.0, 1.0), (3.0, 0.0)]

    def outcome(call):
        try:
            return call()
        except GreenChainError as exc:
            return type(exc), str(exc)

    for v, y in points:
        want = outcome(lambda: (sf.pcf_d_signlog(v, -y), sf.pcf_d_signlog(v, y)))
        assert outcome(lambda: sf._pcf_d_signlog_pair(v, y)) == want, (v, y)


# ----------------------------------------------------------------------
# Parabolic cylinder D_v
# ----------------------------------------------------------------------

def test_pcf_d_closed_forms():
    assert sf.pcf_d(0.0, 1.0) == pytest.approx(math.exp(-0.25), rel=1e-12)
    assert sf.pcf_d(1.0, 2.0) == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)
    # D_2(y) = (y^2 - 1) e^{-y^2/4} vanishes at y = 1
    assert abs(sf.pcf_d(2.0, 1.0)) <= 1e-15
    assert sf.pcf_d(3.0, 1.0) == pytest.approx(D3_AT_1, rel=1e-10)


def test_pcf_d_signlog_values():
    sl = sf.pcf_d_signlog(0.0, 1.0)
    assert sl.sign == 1
    assert sl.log_mag == pytest.approx(-0.25, abs=1e-12)
    sl = sf.pcf_d_signlog(1.0, -2.0)
    assert sl.sign == -1
    assert sl.log_mag == pytest.approx(math.log(2.0) - 1.0, abs=1e-12)
    # the D_2 node at y = 1 is hit exactly by the truncated even series
    assert sf.pcf_d_signlog(2.0, 1.0).sign == 0


def test_pcf_d_domain():
    with pytest.raises(DomainError):
        sf.pcf_d(-1.5, 0.0)
    with pytest.raises(DomainError):
        sf.pcf_d(201.0, 0.0)
    with pytest.raises(DomainError):
        sf.pcf_d(1.0, 11.0)


def test_pcf_d_cancellation_guard():
    # large order together with large |y| cannot be summed in doubles
    with pytest.raises(NumericError):
        sf.pcf_d(200.0, 10.0)


def test_pcf_three_term_recurrence():
    # D_{v+1}(y) - y D_v(y) + v D_{v-1}(y) = 0
    for v in (0.5, 1.5, 4.45, 20.3):
        for y in (-2.0, -0.7071, 0.7071, 2.0):
            d_lo = sf.pcf_d(v - 1.0, y)
            d_mid = sf.pcf_d(v, y)
            d_hi = sf.pcf_d(v + 1.0, y)
            resid = d_hi - y * d_mid + v * d_lo
            scale = max(abs(d_hi), abs(y * d_mid), abs(v * d_lo))
            assert abs(resid) <= 1e-8 * scale


def test_pcf_matches_hermite_oracle():
    for n in range(21):
        grid = np.arange(-4.0, 4.0 + 1e-9, 0.25)
        want = np.array([d_hermite_oracle(n, y) for y in grid])
        amp = np.max(np.abs(want))
        for y, w in zip(grid, want):
            got = sf.pcf_d(float(n), float(y))
            # relative where the value is meaningful, absolute at the nodes
            assert abs(got - w) <= 1e-9 * max(abs(w), 1e-5 * amp)


def test_pcf_signlog_consistent_with_direct():
    for v in np.arange(-1.0, 30.0, 0.7):
        for y in (-3.0, -1.0, 0.5, 2.0, 3.0):
            direct = sf.pcf_d(float(v), y)
            sl = sf.pcf_d_signlog(float(v), y)
            if direct == 0.0:
                assert sl.sign == 0
            else:
                assert sl.value() == pytest.approx(direct, rel=1e-9)
