"""Special-function tests: closed forms, independent oracles, identities."""

import math

import numpy as np
import pytest

from greenchain import specfun as sf
from greenchain.errors import DomainError, NumericError, RangeError

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
