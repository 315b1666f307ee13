"""Special-function tests: closed forms, independent oracles, identities."""

import math

import numpy as np
import pytest

from greenchain import specfun as sf
from greenchain._arrays import _ik_array
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

def _around(*seams):
    """Each seam and its two float neighbours."""
    return [x for s in seams for x in (np.nextafter(s, -math.inf), s, np.nextafter(s, math.inf))]


# x where q = x^2/4 is subnormal or first underflows (the neighbours of 2 sqrt(tiny))
X_Q_UNDERFLOW = [1e-160, 2e-158, 3e-155, 1e-154, *_around(2.0 * math.sqrt(np.finfo(float).tiny))]


# every branch: the J/Y leading terms below 1e-9, the Miller pass, the Hankel seam, Hankel,
# the Miller pass for J_m past the seam (x <= m), j_l Miller (x <= l), tiny x and points
# where the scalar call raises
X_BESSEL = np.concatenate([
    np.linspace(0.05, 60.0, 1200),
    _around(sf._JY_TINY, sf._JY_HANKEL_MIN), [1e-3, 1e-30, 1e-170, 5e-324], X_Q_UNDERFLOW,
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
        assert j_alone[X_BESSEL == 1e-30] == 0.0  # the leading term of J_13 underflows


@pytest.mark.parametrize("m", [13, 300, 1000])
def test_j_miller_branch_is_one_array_loop(m, monkeypatch):
    # below the Hankel seam, and for J_m at any x <= m, the Miller pass runs once over the
    # array, bitwise each scalar pass; at m = 300 and 1000 it rescales by 1e-100 on its
    # way down, and where J_m's leading term underflows (x = 13) it starts from x alone
    from greenchain import _arrays

    top = m if m >= sf._JY_HANKEL_MIN else np.nextafter(sf._JY_HANKEL_MIN, 0.0)
    xs = np.concatenate([np.linspace(1e-3, top, 40), [1e-12, 13.0]])
    want = [sf._jy_miller(m, x, math.log(0.5 * x))[0].hex() for x in xs.tolist()]
    calls = []
    real = sf._jy_miller

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(sf, "_jy_miller", counted)
    monkeypatch.setattr(_arrays, "_jy_miller", counted, raising=False)
    got = sf._bessel_j(m, xs)
    sf.bessel_jy(m, xs)  # NaN where Y_m overflows, else the same J_m
    assert calls == []
    assert [float(g).hex() for g in got] == want


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


def _counting(monkeypatch, name):
    calls = []
    real = getattr(sf, name)
    monkeypatch.setattr(sf, name, lambda *args: calls.append(args) or real(*args))
    return calls


def test_bessel_jy_reuses_the_series_j0_j1(monkeypatch):
    # below the Hankel seam the Neumann sums of Y_0/Y_1 share the Miller pass that gives
    # J_0 and J_1: every order sums that one pass, for its own m, and no J_m alone
    miller, j_alone = (_counting(monkeypatch, name) for name in ("_jy_miller", "_bessel_j"))
    for m in (0, 1, 2):
        miller.clear()
        j_alone.clear()
        sf.bessel_jy(m, 5.0)
        assert [args[:2] for args in miller] == [(m, 5.0)]
        assert j_alone == []


def test_scalar_bessel_sums_each_band_in_one_loop(monkeypatch):
    # one Miller pass per bessel_jy below the Hankel seam, whatever the order (J_m, J_0,
    # J_1 and the Neumann sums of Y_0 and Y_1 all come from it), and none per bessel_k;
    # one pass of the large-argument loop from the asymptotic seams on, where J_m (x > m)
    # recurs upward from the Hankel J_0 and J_1 with no Miller pass
    miller, asymptotic = (_counting(monkeypatch, name) for name in ("_jy_miller", "_asymptotic01"))
    jy_below = (1e-12, 1e-3, 0.5, 5.0, 12.0, np.nextafter(sf._JY_HANKEL_MIN, 0.0))
    k_below = (1e-12, 1e-3, 0.5, 3.0, 6.0)
    for fn, xs, beyond, passes in ((sf.bessel_jy, jy_below, sf._JY_HANKEL_MIN, 1),
                                   (sf.bessel_k, k_below, sf._K_ASYMPTOTIC_MIN, 0)):
        for m in (0, 1, 2, 5):
            for x in xs:
                miller.clear()
                fn(m, x)
                assert len(miller) == passes, (fn.__name__, m, x)
            miller.clear()
            asymptotic.clear()
            fn(m, beyond)
            assert (len(miller), len(asymptotic)) == (0, 1)
    miller.clear()
    asymptotic.clear()
    sf.bessel_jy(40, 30.0)  # x <= m past the seam: the Hankel Y_0, Y_1 and a Miller J_40
    assert (len(miller), len(asymptotic)) == (1, 1)


def _outcome(fn, *args):
    """The float.hex of each value, or the exception's type and message."""
    try:
        got = fn(*args)
    except Exception as exc:  # the reference must raise the same type and message
        return type(exc).__name__, str(exc)
    return [v.hex() for v in (got if isinstance(got, tuple) else (got,))]


# log-uniform x over every band of the scalar kernels, each seam and its neighbours, the
# zeros of J_0, J_1, Y_0 and Y_1 below 12, and the edge arguments of the domain checks
# and of double range
_RNG = np.random.default_rng(7)
_ZEROS_BELOW_12 = [2.404825557695773, 5.520078110286311, 8.653727912911013, 11.79153443901428,
                   3.831705970207512, 7.015586669815619, 10.17346813506272,
                   0.8935769662791675, 3.957678419314858, 7.086051060301773, 10.22234504349642,
                   2.197141326031017, 5.429681040794135, 8.596005868331169, 11.74915483332025]
X_REFERENCE = np.concatenate(
    [np.exp(_RNG.uniform(math.log(lo), math.log(hi), 100))
     for lo, hi in ((1e-3, 6.0), (6.0, 14.0), (14.0, 700.0), (1e-3, 12.0), (12.0, 120.0))]
    + [_around(sf._K_TINY, sf._K_ASYMPTOTIC_MIN, sf._JY_TINY, sf._JY_HANKEL_MIN, sf._OVERFLOW_GUARD,
               *_ZEROS_BELOW_12),
       [1e-3, 1e-30, 1e-170, 1e-309, 1e-320, 1e-323, 5e-324, 0.0, -1.0, math.nan, math.inf,
        1e300, 1.7e308], X_Q_UNDERFLOW]).tolist()


@pytest.mark.parametrize("m", [0, 1, 2, 5, 40])
def test_scalar_bessel_kernels_bitwise_equal_the_reference(m):
    # the fused loops against the loops they replaced, kept verbatim in bessel_reference
    import bessel_reference as ref

    for name in ("bessel_k", "bessel_i", "sph_modified"):
        fn, want = getattr(sf, name), getattr(ref, name)
        for x in X_REFERENCE:
            assert _outcome(fn, m, x) == _outcome(want, m, x), (name, x)


def test_scalar_bessel_kernels_cut_at_max_terms_like_the_reference(monkeypatch):
    # a lowered term limit stops both sides alike: the same value where every series
    # ends in time, and the same NumericError where an order series does not; K sums
    # no series, so it never raises
    import bessel_reference as ref

    raised = dict.fromkeys(("bessel_k", "bessel_i", "sph_modified"), 0)
    for cut in (3, 5, 8, 20):
        monkeypatch.setattr(sf, "_MAX_TERMS", cut)
        monkeypatch.setattr(ref, "_MAX_TERMS", cut)
        for name in raised:
            for m, x in ((0, 1e-3), (1, 0.5), (0, 5.0), (2, 11.0)):
                got = _outcome(getattr(sf, name), m, x)
                assert got == _outcome(getattr(ref, name), m, x), (cut, name, m, x)
                raised[name] += got[0] == "NumericError"
    assert sum(raised.values()) >= 8 and raised["bessel_k"] == 0


# the three K_0/K_1 branches and their seams, I_m up to its overflow guard,
# and the edge arguments of the domain checks
X_IK = np.concatenate([
    np.linspace(0.05, 30.0, 600),
    np.linspace(30.0, 720.0, 40),
    _around(sf._K_TINY, sf._K_ASYMPTOTIC_MIN, sf._OVERFLOW_GUARD),
    [1e-3, 1e-30, 1e-170, 1e-309, 1e-320],
    [0.0, -1.0, 5e-324, math.nan, math.inf], X_Q_UNDERFLOW,
])


@pytest.mark.parametrize("m", [0, 1, 2, 5, 40])
def test_bessel_ik_arrays_bitwise_equal_scalar_on_every_branch(m):
    # the x < 1e-9 leading terms, the trapezoid below 15, the x >= 15 asymptotic sums: the
    # array route of long cylindrical chains against the scalar bessel_i and bessel_k
    i_arr, k_arr = _ik_array(m, X_IK)
    raised_i = _array_matches_scalar([i_arr], lambda x: sf.bessel_i(m, x), X_IK)
    raised_k = _array_matches_scalar([k_arr], lambda x: sf.bessel_k(m, x), X_IK)
    assert raised_i >= 6  # 0, -1, 5e-324, nan, inf and x past the 700 guard
    assert raised_k >= 5
    guard = X_IK == sf._OVERFLOW_GUARD
    past = X_IK == np.nextafter(sf._OVERFLOW_GUARD, math.inf)
    assert np.isfinite(i_arr[guard]).all() and np.isnan(i_arr[past]).all()
    if m == 40:
        assert (i_arr == 0.0).sum() >= 3  # log_t0 underflow: the series is skipped
        assert raised_k > 5  # the upward recurrence overflows at small x
    if m == 1:
        assert np.isnan(k_arr[X_IK == 1e-309])  # 1/x overflows: K_1 is inf, the scalar raises
    assert [part.shape for part in _ik_array(m, X_IK[:650].reshape(5, -1))] == [(5, 130)] * 2


# the array fold of the large-argument sums takes int(2 x.max) + 3 terms while x.max < 19
# and 41 from there on: windows all below 18.5 (across the J/Y seam at 17 and the K seam at
# 15), all at or past 19, and straddling 18.5-19
@pytest.mark.parametrize("name, lo, hi", [
    ("bessel_jy", 12.0, 18.5), ("bessel_k", 14.0, 18.5), ("bessel_jy", 19.0, 80.0),
    ("bessel_k", 19.0, 80.0), ("bessel_jy", 18.5, 19.0), ("bessel_k", 18.5, 19.0)])
@pytest.mark.parametrize("m", [0, 1, 2, 5])
def test_large_argument_arrays_bitwise_equal_scalar_in_each_window(m, name, lo, hi):
    xs = np.linspace(lo, hi, 150)
    if hi == 18.5:
        xs = xs[1:-1]  # the open windows (12, 18.5) and (14, 18.5)
    fn = getattr(sf, name)
    got = sf.bessel_jy(m, xs) if name == "bessel_jy" else [_ik_array(m, xs)[1]]
    assert _array_matches_scalar(got, lambda x: fn(m, x), xs) == 0


@pytest.mark.parametrize("rows, rel, tol", [
    (sf._K_ROWS, sf._REL_EPS, 0.0), (sf._HANKEL_ROWS, 0.0, sf._REL_EPS),
    (sf._HANKEL_ROWS, 1e-12, 1e-10), (sf._K_ROWS, 0.0, 0.0), (sf._HANKEL_ROWS, 0.0, 0.0)])
def test_asymptotic_fold_stops_each_element_where_the_scalar_loop_does(rows, rel, tol):
    # with neither a relative nor an absolute stop only growing terms break a sum: past
    # x = 20 the first 41 terms leave elements open and the fold runs all rows again, and
    # past x = 29 a sum never breaks and keeps every row, as the scalar loop does; the
    # array is longer than one pass of the fold
    from greenchain import _arrays

    xs = np.linspace(12.0, 60.0, _arrays._FOLD_PASS + 400)
    got = _arrays._asymptotic01_array(xs, rows, rel, tol)
    for i, x in enumerate(xs.tolist()):
        want = sf._asymptotic01(x, rows, rel, tol)
        assert [float(part[i]).hex() for part in got] == [w.hex() for w in want], x


def test_array_bessel_sums_the_large_argument_band_in_one_call(monkeypatch):
    # one fold per array bessel_jy / _ik_array call with any x past its seam, none otherwise
    from greenchain import _arrays

    calls = []
    real = _arrays._asymptotic01_array
    monkeypatch.setattr(_arrays, "_asymptotic01_array",
                        lambda *args: calls.append(args) or real(*args))
    below_jy = [1e-3, 0.5, 5.0, float(np.nextafter(sf._JY_HANKEL_MIN, 0.0))]
    for fn, below, past in ((sf.bessel_jy, below_jy, sf._JY_HANKEL_MIN),
                            (_ik_array, [1e-3, 3.0, 6.0, 10.0, 14.9], sf._K_ASYMPTOTIC_MIN)):
        for m in (0, 1, 2, 5):
            for xs, n_calls in ((below, 0), (below + [past], 1), (below + [past, 50.0, 700.0], 1),
                                ([past, 30.0], 1)):
                calls.clear()
                fn(m, np.array(xs))
                assert len(calls) == n_calls, (fn.__name__, m, xs)


@pytest.mark.parametrize("l", [0, 1, 2, 5, 8])
def test_sph_modified_array_bitwise_equals_scalar(l):
    got = sf.sph_modified(l, X_IK)
    assert _array_matches_scalar(got, lambda x: sf.sph_modified(l, x), X_IK) >= 6
    past = X_IK == np.nextafter(sf._OVERFLOW_GUARD, math.inf)
    assert np.isfinite(got[0][X_IK == sf._OVERFLOW_GUARD]).all() and np.isnan(got[0][past]).all()
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


@pytest.mark.parametrize("a,x", [(40.0, -20.0), (150.0, -50.0)])
def test_kummer_raises_where_the_alternating_series_cancels(a, x):
    # these returned 1.18e12 and -1.19e69, where mpmath gives 9.73e-6 and 7.95e-12: at
    # x < 0 the terms alternate and the noise of the peak term swamps the value
    with pytest.raises(NumericError, match="cancelled"):
        sf.kummer_m(a, 0.5, x)


def test_kummer_guard_leaves_the_level_path_alone():
    # x >= 0 has no relative guard, even where the peak noise passes 1e-12 of the value
    # (M(-60.7, 1/2, 20) by 1e3); a quiet x < 0 point returns the sum as it is
    for a, b, x in ((-60.7, 0.5, 20.0), (-40.3, 1.5, 30.0), (-40.0, 0.5, -20.0),
                    (3.7, 0.5, -3.5)):
        assert sf.kummer_m(a, b, x).hex() == sf._kummer_series(a, b, x)[0].hex()


# a seeded sweep of kummer_m's validated range |a| <= 300, |x| <= 50, its edges, integer
# orders (whose series end in zeros) and x = 0, points just outside both bounds, and a = NaN,
# whose series never stops
_KUMMER_RNG = np.random.default_rng(24)
KUMMER_POINTS = (list(zip(_KUMMER_RNG.uniform(-300.0, 300.0, 150).tolist(),
                          _KUMMER_RNG.uniform(-50.0, 50.0, 150).tolist()))
                 + [(a, x) for a in (-300.0, -41.0, -2.0, 0.0, 0.5, 7.0, 293.93, 300.0)
                    for x in (-50.0, -3.5, 0.0, 2.25, 50.0)]
                 + [(a, x) for a in (-300.25, 300.25) for x in (-50.0, 1.0, 50.0)]
                 + [(a, x) for a in (-120.5, 120.5) for x in (-50.25, 50.25)]
                 + [(math.nan, 1.0)])


@pytest.mark.parametrize("b", [0.5, 1.5, 0.3, 2.7])
def test_kummer_series_bitwise_equals_the_reference(b):
    # the row tables (b = 1/2, 3/2) and the inline rows (any other b) against the loop
    # they replaced, kept verbatim in kummer_reference: sum and peak to the bit
    import kummer_reference as ref

    for a, x in KUMMER_POINTS:
        assert _outcome(sf._kummer_series, a, b, x) == _outcome(ref._kummer_series, a, b, x), (a, x)


def test_kummer_series_cut_at_max_terms_like_the_reference(monkeypatch):
    # a lowered term limit stops both loops alike: the same sum and peak where the series
    # ends in time, the same NumericError where it does not
    import kummer_reference as ref

    raised = 0
    for cut in (1, 3, 5, 20, 40):
        monkeypatch.setattr(sf, "_MAX_TERMS", cut)
        monkeypatch.setattr(ref, "_MAX_TERMS", cut)
        for b in (0.5, 1.5, 0.3, 2.7):
            for a, x in ((-2.0, 30.0), (-40.5, 30.0), (-39.0, 2.25), (1.0, 0.5), (300.0, -50.0)):
                got = _outcome(sf._kummer_series, a, b, x)
                assert got == _outcome(ref._kummer_series, a, b, x), (cut, b, a, x)
                raised += got[0] == "NumericError"
    assert raised >= 40


class _DrawnRows(list):
    """A row table that records the most rows one loop drew from it."""

    drawn = 0

    def __iter__(self):
        for n, row in enumerate(super().__iter__(), 1):
            self.drawn = max(self.drawn, n)
            yield row


def test_kummer_rows_outlast_every_series_of_the_validated_range(monkeypatch):
    # no series at b = 1/2 or 3/2 in |a| <= 300, |x| <= 50 draws every row of _KUMMER_ROWS:
    # the longest run at x = -50 with a near 300 (291 terms at a = 293.93)
    tables = {b: _DrawnRows(rows) for b, rows in sf._KUMMER_ROWS.items()}
    monkeypatch.setattr(sf, "_KUMMER_ROWS", tables)
    for b, table in tables.items():
        for a in np.arange(250.0, 300.01, 0.25).tolist() + [293.93, 297.46]:
            for x in (-50.0, -49.99, 50.0):
                sf._kummer_series(a, b, x)
                sf._kummer_series(-a, b, x)
        assert 285 <= table.drawn < len(table), b


def test_kummer_series_outside_the_validated_range_makes_its_rows_inline(monkeypatch):
    # past |a| = 300 or |x| = 50 a series may outrun the tables (574 terms at a = 800,
    # x = -120): it draws no row of them and matches the reference to the bit
    import kummer_reference as ref

    tables = {b: _DrawnRows(rows) for b, rows in sf._KUMMER_ROWS.items()}
    monkeypatch.setattr(sf, "_KUMMER_ROWS", tables)
    for b, table in tables.items():
        for a, x in ((800.0, -120.0), (300.25, -50.0), (-300.25, 1.0), (2.0, 50.25), (2.0, -50.25)):
            assert _outcome(sf._kummer_series, a, b, x) == _outcome(ref._kummer_series, a, b, x)
        assert table.drawn == 0
        sf._kummer_series(300.0, b, -50.0)
        assert table.drawn > 0


def bits(values):
    """The float64 bit patterns of a sequence, so NaN == NaN and -0.0 != 0.0."""
    return np.asarray(values, dtype=float).view(np.int64)


V_LATTICE = np.arange(20001) * 0.01  # v in [0, 200] at step 0.01


@pytest.mark.parametrize("box_length", [1.0, 1.5, 2.0, 3.0, 5.0, 8.0])
def test_kummer_array_bitwise_equals_scalar(box_length):
    # the two oscillator wall factors M(-v/2, 1/2, x) and M((1-v)/2, 3/2, x),
    # x = alpha^2 / 2 with alpha = L / sqrt(2) in natural units, summed over the
    # lattice in one array call against the scalar kummer_m
    x = 0.5 * (box_length / math.sqrt(2.0)) ** 2
    for a, b in ((-0.5 * V_LATTICE, 0.5), (0.5 * (1.0 - V_LATTICE), 1.5)):
        got = sf._kummer_series_array(a, b, x)[0]
        want = [sf.kummer_m(ai, b, x) for ai in a.tolist()]
        assert np.array_equal(bits(got), bits(want))


def test_kummer_array_marks_scalar_errors_with_nan():
    # the array sum is NaN where the series does not converge (a = nan), as the scalar
    # series raises; the |a| <= 300 range is kummer_m's, so a = 301 is summed
    a = np.array([[1.0, 301.0], [math.nan, -300.0]])
    got = sf._kummer_series_array(a, 0.5, 2.0)[0]
    assert got.shape == a.shape
    assert np.isnan(got[1, 0])
    assert bits(got[0, 0]) == bits(sf.kummer_m(1.0, 0.5, 2.0))
    assert bits(got[1, 1]) == bits(sf.kummer_m(-300.0, 0.5, 2.0))
    assert bits(got[0, 1]) == bits(sf._kummer_series(301.0, 0.5, 2.0)[0])
    assert sf._kummer_series_array(np.empty(0), 0.5, 2.0)[0].shape == (0,)
    # the scalar call raises on each argument
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, 0.5, 51.0)
    with pytest.raises(DomainError):
        sf.kummer_m(1.0, -1.0, 2.0)
    with pytest.raises(DomainError):
        sf.kummer_m(math.nan, 0.5, 2.0)
    with pytest.raises(DomainError):
        sf.kummer_m(301.0, 0.5, 2.0)


def test_kummer_array_nan_where_the_series_does_not_converge(monkeypatch):
    monkeypatch.setattr(sf, "_MAX_TERMS", 20)
    a = np.array([-2.0, -40.5])  # M(-2, 1/2, x) is a quadratic: three terms, then zeros
    got = sf._kummer_series_array(a, 0.5, 30.0)[0]
    with pytest.raises(NumericError):
        sf.kummer_m(-40.5, 0.5, 30.0)
    assert bits(got[0]) == bits(sf.kummer_m(-2.0, 0.5, 30.0))
    assert np.isnan(got[1])


# one series, and sizes on either side of 64: every size runs the one array loop
KUMMER_ROUTE_SIZES = [1, 63, 64, 65]


def _scalar_series_calls(monkeypatch):
    """Count the scalar _kummer_series calls from here on."""
    real, calls = sf._kummer_series, []

    def counting(a, b, x):
        calls.append(a)
        return real(a, b, x)

    monkeypatch.setattr(sf, "_kummer_series", counting)
    return calls


@pytest.mark.parametrize("size", KUMMER_ROUTE_SIZES)
def test_kummer_route_is_bitwise_at_the_crossover(monkeypatch, size):
    # at any size the sum at one x runs one array loop and no scalar series:
    # it gives the scalar bits, NaN where the scalar series raises (with 20
    # terms, a series that does not converge: a = -40.5 and a = 301)
    x = 0.5 * (3.0 / math.sqrt(2.0)) ** 2
    orders = -0.5 * (np.arange(size) * 0.37)
    calls = _scalar_series_calls(monkeypatch)
    sums, peaks = sf._kummer_series_array(orders, 0.5, x)
    assert calls == []
    for i, a in enumerate(orders.tolist()):
        want = sf._kummer_series(a, 0.5, x)
        assert (bits(sums[i]), bits(peaks[i])) == (bits(want[0]), bits(want[1])), a
    monkeypatch.setattr(sf, "_MAX_TERMS", 20)
    pattern = np.array([-2.0, 301.0, -40.5, -7.0])  # -2, -7: polynomials, a few terms each
    raised = 0
    for start in range(len(pattern)):
        a = np.resize(np.roll(pattern, -start), size)
        calls.clear()
        got = sf._kummer_series_array(a, 0.5, 30.0)[0]
        assert calls == []
        for i, ai in enumerate(a.tolist()):
            try:
                want = sf._kummer_series(ai, 0.5, 30.0)[0]
            except NumericError:
                assert np.isnan(got[i]), ai
                raised += 1
                continue
            assert bits(got[i]) == bits(want), ai
    assert raised >= 2


def _stacked_matches_scalar(a, b, x):
    """_kummer_series_array over a stack of orders and their b against per-element
    _kummer_series: the same bits, NaN in sums and peaks where it raises."""
    sums, peaks = sf._kummer_series_array(a, b, x)
    assert sums.shape == peaks.shape == a.shape
    raised = 0
    b = np.broadcast_to(b, a.shape)
    for got_s, got_p, ai, bi in zip(*(arr.ravel().tolist() for arr in (sums, peaks, a, b))):
        try:
            want = sf._kummer_series(ai, bi, x)
        except NumericError:
            assert math.isnan(got_s) and math.isnan(got_p), (ai, bi)
            raised += 1
            continue
        assert (bits(got_s), bits(got_p)) == (bits(want[0]), bits(want[1])), (ai, bi)
    return raised


@pytest.mark.parametrize("size", KUMMER_ROUTE_SIZES[1:])
def test_stacked_kummer_series_is_bitwise_at_the_crossover(monkeypatch, size):
    # the even (b = 1/2) and odd (b = 3/2) series of the D_v pair as one call:
    # the array loop runs no scalar series at any size of the stack and gives
    # each element the bits of its own scalar series
    x = 0.5 * (3.0 / math.sqrt(2.0)) ** 2
    n = (size + 1) // 2
    w = np.arange(n) * 0.37
    a = np.stack([-0.5 * w, 0.5 * (1.0 - w)]).ravel()[:size]
    b = np.repeat([0.5, 1.5], n)[:size]
    calls = _scalar_series_calls(monkeypatch)
    sf._kummer_series_array(a, b, x)
    assert calls == []
    assert _stacked_matches_scalar(a, b, x) == 0
    # with 20 terms the long series are cut: NaN in both outputs
    monkeypatch.setattr(sf, "_MAX_TERMS", 20)
    a = np.resize([-2.0, -40.5, -7.0, 30.25], size)  # -2, -7: polynomials, a few terms each
    calls.clear()
    sums, peaks = sf._kummer_series_array(a, b, 30.0)
    assert calls == []
    cut = np.isnan(sums)
    assert (cut == np.isnan(peaks)).all() and 2 <= cut.sum() < size
    assert _stacked_matches_scalar(a, b, 30.0) == cut.sum()


@pytest.mark.parametrize("box_length", [1.0, 2.0, 3.0])
def test_stacked_pair_window_is_bitwise_from_v0(box_length):
    # one 2 x 1001 scan window from v = 0: its elements stop after 3 terms up
    # to 15, 22 and 28 terms at L = 1, 2, 3, so the shrinking loop drops them
    # at many different steps
    alpha = box_length / math.sqrt(2.0)
    w = V_LATTICE[:1001]
    a = np.stack([-0.5 * w, 0.5 * (1.0 - w)])
    assert _stacked_matches_scalar(a, np.array([[0.5], [1.5]]), 0.5 * alpha * alpha) == 0
    # and the pair built on it is still the scalar D_v(-alpha), D_v(alpha), NaN mask included
    _pair_matches_scalar(w, alpha)


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
