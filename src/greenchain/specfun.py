"""Special functions in double precision.

Everything here is a pure function of its arguments: no caching, no global
state, safe to call from any number of threads.  Every infinite series uses
a term recurrence with compensated (Kahan) summation and stops once three
consecutive terms fall below 1e-16 of the running partial sum.

The functions take scalars, except for the array paths used by grid scans
and long chains: :func:`kummer_m` also accepts an array of ``a``,
:func:`pcf_d_pair_signlog` gives ``D_v(-y)`` and ``D_v(y)`` over an array of
orders or over an array of points, and :func:`bessel_i`, :func:`bessel_k`,
:func:`sph_modified`, :func:`bessel_jy` and :func:`sph_ordinary` (and
``_bessel_j`` and ``_sph_j``, the first values of the last two alone)
accept an array of ``x``.  Each sums every element with exactly the
operations of the scalar series, with ``math`` functions per element where
numpy's are not bitwise the same, so the values are bitwise equal to the
scalar ones; each marks with NaN the elements where the scalar function
raises.  The Bessel array paths live in :mod:`greenchain._arrays`.

Conventions fixed by this module:

* modified spherical Bessel functions are
  ``i_l(x) = sqrt(pi/2x) I_{l+1/2}(x)`` and
  ``k_l(x) = sqrt(pi/2x) K_{l+1/2}(x)``;
* the parabolic cylinder function ``D_v`` is assembled from the even/odd
  Kummer solutions of Weber's equation (DLMF 12.4, 12.7),

      D_v(y) = 2^{v/2} sqrt(pi) e^{-y^2/4}
               [ M(-v/2, 1/2, y^2/2) / Gamma((1-v)/2)
                 - sqrt(2) y M((1-v)/2, 3/2, y^2/2) / Gamma(-v/2) ],

  with the coefficient signs pinned by the closed forms
  ``D_0(y) = exp(-y^2/4)`` and ``D_1(y) = y exp(-y^2/4)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NumericError, RangeError

_EULER_GAMMA = 0.5772156649015328606
_SQRT_PI = 1.7724538509055160273
_SQRT_2 = 1.4142135623730950488
_LN_2 = 0.6931471805599453094
_LOG_MAX = 709.0  # exp() overflows just past this
_LOG_TINY = -745.0  # exp() underflows below this
_REL_EPS = 1e-16
_SMALL_RUN = 3  # consecutive small terms required to stop a series
_MAX_TERMS = 10000


@dataclass(frozen=True)
class SignLog:
    """A scalar stored as ``sign * exp(log_mag)``.

    ``sign == 0`` encodes an exact zero and ``log_mag`` is then ignored.
    Multiplication adds log magnitudes, so chains of huge or tiny factors
    never overflow.
    """

    sign: int
    log_mag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise DomainError(f"SignLog sign must be -1, 0 or +1, got {self.sign!r}")

    @classmethod
    def from_value(cls, x: float) -> "SignLog":
        if x == 0.0:
            return cls(0, 0.0)
        return cls(1 if x > 0.0 else -1, math.log(abs(x)))

    def __mul__(self, other: "SignLog") -> "SignLog":
        s = self.sign * other.sign
        if s == 0:
            return SignLog(0, 0.0)
        return SignLog(s, self.log_mag + other.log_mag)

    def scaled(self, factor: float) -> "SignLog":
        """Multiply by a plain float without leaving log space."""
        return self * SignLog.from_value(factor)

    def value(self) -> float:
        """Collapse to a double; raises RangeError past the representable range."""
        if self.sign == 0:
            return 0.0
        if self.log_mag > _LOG_MAX:
            raise RangeError(
                f"SignLog magnitude exp({self.log_mag:.2f}) overflows double range"
            )
        return self.sign * math.exp(self.log_mag)


def _check_order(m: int, name: str) -> None:
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise DomainError(f"{name}: order must be a non-negative integer, got {m!r}")


def _check_positive(x: float, name: str, scale: float = 1.0) -> None:
    """x must be finite and ``scale * x`` positive: the Bessel series take log(x/2)."""
    if not (scale * x > 0.0 and x < math.inf):
        raise DomainError(f"{name}: argument must be positive, finite and above the "
                          f"double underflow, got {x}")


def _check_gamma_arg(x: float) -> None:
    if not math.isfinite(x):
        raise DomainError(f"gamma needs a finite argument, got {x}")
    if x <= 0.0 and x == math.floor(x):
        raise DomainError(f"gamma has a pole at non-positive integer x={x}")


def gamma(x: float) -> float:
    """Euler gamma function for finite real non-pole arguments."""
    _check_gamma_arg(x)
    try:
        return math.gamma(x)
    except OverflowError as exc:
        raise RangeError(f"gamma({x}) overflows double range") from exc


def gamma_signlog(x: float) -> SignLog:
    """gamma(x) as a SignLog, usable far outside the double range."""
    _check_gamma_arg(x)
    # For x < 0 the sign alternates between consecutive poles.
    return SignLog(-1 if x < 0.0 and int(math.floor(x)) % 2 else 1, math.lgamma(x))


def _rgamma(x: float) -> float:
    """1/gamma(x); exactly 0.0 at the poles of gamma."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    lg = math.lgamma(x)
    if -lg > _LOG_MAX:
        raise RangeError(f"1/gamma({x}) overflows double range")
    sign = 1.0
    if x < 0.0 and int(math.floor(x)) % 2 != 0:
        sign = -1.0
    return sign * math.exp(-lg)


def _kahan_series(first_term: float, ratio, what: str) -> float:
    """Sum ``first_term * prod_{j<=k} ratio(j)`` with Kahan compensation.

    ``ratio(k)`` maps term ``k-1`` to term ``k`` (k >= 1).
    """
    term = first_term
    total = first_term
    comp = 0.0
    small = 0
    for k in range(1, _MAX_TERMS):
        term *= ratio(k)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(term) <= _REL_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                return total
        else:
            small = 0
    raise NumericError(f"{what} did not converge within {_MAX_TERMS} terms")


# ----------------------------------------------------------------------
# Modified Bessel functions I_m, K_m (integer order)
# ----------------------------------------------------------------------

def bessel_i(m: int, x):
    """Modified Bessel function I_m(x) for integer m >= 0, 0 < x <= 700.

    Ascending series throughout: all terms are positive, so there is no
    cancellation at any admissible argument; the only failure mode is
    overflow, guarded by the x <= 700 precondition.  An array of x gives the
    array of values, bitwise the scalar ones, NaN where the scalar call raises.
    """
    _check_order(m, "bessel_i")
    if isinstance(x, np.ndarray):
        return _ik_array(m, x)[0]
    _check_positive(x, "bessel_i", 0.5)
    if x > 700.0:
        raise RangeError(f"bessel_i: x={x} is past the overflow guard at 700")
    q = 0.25 * x * x
    log_t0 = m * math.log(0.5 * x) - math.lgamma(m + 1.0)
    if log_t0 + q / (m + 1.0) < _LOG_TINY:
        return 0.0  # entire sum is below double underflow (m >> x)
    scaled = _kahan_series(1.0, lambda k: q / (k * (m + k)), "bessel_i series")
    log_val = log_t0 + math.log(scaled)
    if log_val > _LOG_MAX:
        raise RangeError(f"bessel_i({m}, {x}) overflows double range")
    return math.exp(log_val)


def _k01_series(x: float) -> tuple[float, float]:
    """K_0 and K_1 by the ascending log series (A&S 9.6.11); good for x <= 6."""
    q = 0.25 * x * x
    lh = math.log(0.5 * x)
    i0 = bessel_i(0, x)
    i1 = bessel_i(1, x)

    # K_0 = -(ln(x/2)+gamma) I_0 + sum_{k>=1} H_k q^k / (k!)^2
    term = 1.0
    hk = 0.0
    total = 0.0
    comp = 0.0
    small = 0
    for k in range(1, _MAX_TERMS):
        term *= q / (k * k)
        hk += 1.0 / k
        c = term * hk
        y = c - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(c) <= _REL_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                break
        else:
            small = 0
    k0 = -(lh + _EULER_GAMMA) * i0 + total

    # K_1 = 1/x + ln(x/2) I_1 - (x/4) sum_{k>=0} (H_k + H_{k+1} - 2 gamma) q^k / (k! (k+1)!)
    term = 1.0
    hk = 0.0
    hk1 = 1.0
    total = 1.0 - 2.0 * _EULER_GAMMA  # k = 0 term
    comp = 0.0
    small = 0
    for k in range(1, _MAX_TERMS):
        term *= q / (k * (k + 1.0))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1.0)
        c = term * (hk + hk1 - 2.0 * _EULER_GAMMA)
        y = c - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(c) <= _REL_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                break
        else:
            small = 0
    k1 = 1.0 / x + lh * i1 - 0.25 * x * total
    return k0, k1


def _k_cosh_integral(m: int, x: float) -> float:
    """K_m(x) = integral_0^inf exp(-x cosh t) cosh(m t) dt by trapezoid.

    The integrand extends to an analytic, doubly-exponentially decaying even
    function of t, so the trapezoid rule with h = 0.2 is already converged to
    machine precision for the 6 < x < 14 band where it is used.
    """
    h = 0.2
    total = 0.5 * math.exp(-x)  # t = 0 term carries half weight
    t = h
    while x * math.cosh(t) < 760.0:
        total += math.exp(-x * math.cosh(t)) * math.cosh(m * t)
        t += h
    return h * total


def _k01_asymptotic(x: float) -> tuple[float, float]:
    """K_0 and K_1 from the large-argument expansion, truncated at the smallest term."""
    pref = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
    out = []
    for mu in (0.0, 4.0):
        term = 1.0
        total = 1.0
        prev = 1.0
        for k in range(1, 60):
            term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
            if abs(term) >= prev or abs(term) <= _REL_EPS * abs(total):
                break
            total += term
            prev = abs(term)
        out.append(pref * total)
    return out[0], out[1]


def bessel_k(m: int, x):
    """Modified Bessel function K_m(x) for integer m >= 0, x > 0.

    K_0/K_1 come from the log series (x <= 6), a cosh-transform trapezoid
    integral (6 < x < 14) or the asymptotic expansion (x >= 14); higher
    orders use the upward recurrence, which is stable because K grows
    with order.  RangeError where K_m overflows (small x).  An array of x
    gives the array of values, bitwise the scalar ones, NaN where the scalar
    call raises.
    """
    _check_order(m, "bessel_k")
    if isinstance(x, np.ndarray):
        return _ik_array(m, x)[1]
    _check_positive(x, "bessel_k", 0.5)
    if x <= 6.0:
        k0, k1 = _k01_series(x)
    elif x < 14.0:
        k0, k1 = _k_cosh_integral(0, x), _k_cosh_integral(1, x)
    else:
        k0, k1 = _k01_asymptotic(x)
    prev, cur = k0, k1
    for j in range(1, m):  # K grows with order, so an overflow stays infinite
        prev, cur = cur, prev + (2.0 * j / x) * cur
    out = cur if m else prev
    if math.isinf(out):
        raise RangeError(f"bessel_k({m}, {x}) overflows double range")
    return out


# ----------------------------------------------------------------------
# Ordinary Bessel functions J_m, Y_m (integer order)
# ----------------------------------------------------------------------

def _bessel_j_series(m: int, x: float) -> float:
    """Ascending series for J_m; accurate for x <= 12 at any order."""
    q = 0.25 * x * x
    log_t0 = m * math.log(0.5 * x) - math.lgamma(m + 1.0)
    if log_t0 < _LOG_TINY:
        return 0.0
    t0 = math.exp(log_t0)
    return _kahan_series(t0, lambda k: -q / (k * (m + k)), "bessel_j series")


def _y01_series(x: float) -> tuple[float, float, float, float]:
    """J_0, J_1, Y_0 and Y_1 by the ascending (log) series (A&S 9.1.11); good for x <= 12."""
    q = 0.25 * x * x
    lh = math.log(0.5 * x)
    j0 = _bessel_j_series(0, x)
    j1 = _bessel_j_series(1, x)

    term = 1.0
    hk = 0.0
    total = 0.0
    comp = 0.0
    small = 0
    for k in range(1, _MAX_TERMS):
        term *= -q / (k * k)
        hk += 1.0 / k
        c = -term * hk  # (-1)^{k+1} H_k q^k/(k!)^2
        y = c - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(c) <= _REL_EPS * (abs(total) + 1e-300):
            small += 1
            if small >= _SMALL_RUN:
                break
        else:
            small = 0
    y0 = (2.0 / math.pi) * ((lh + _EULER_GAMMA) * j0 + total)

    term = 1.0
    hk = 0.0
    hk1 = 1.0
    total = 1.0 - 2.0 * _EULER_GAMMA
    comp = 0.0
    small = 0
    for k in range(1, _MAX_TERMS):
        term *= -q / (k * (k + 1.0))
        hk += 1.0 / k
        hk1 += 1.0 / (k + 1.0)
        c = term * (hk + hk1 - 2.0 * _EULER_GAMMA)
        y = c - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if abs(c) <= _REL_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                break
        else:
            small = 0
    y1 = (2.0 / math.pi) * (lh * j1 - 1.0 / x) - 0.5 * x * total / math.pi
    return j0, j1, y0, y1


def _jy01_asymptotic(x: float) -> tuple[float, float, float, float]:
    """J_0, J_1, Y_0, Y_1 from the Hankel expansion, truncated at the smallest term."""
    out = []
    for mu in (0.0, 4.0):
        term = 1.0
        p = 1.0
        qsum = 0.0
        prev = math.inf
        for k in range(1, 60):
            term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
            if abs(term) >= prev:
                break
            prev = abs(term)
            if k % 2 == 1:
                qsum += term if (k // 2) % 2 == 0 else -term
            else:
                p += term if (k // 2) % 2 == 0 else -term
            if abs(term) <= _REL_EPS:
                break
        out.append((p, qsum))
    c = math.sqrt(2.0 / (math.pi * x))
    vals = []
    for mm, (p, qq) in enumerate(out):
        chi = x - (0.5 * mm + 0.25) * math.pi
        vals.append(c * (p * math.cos(chi) - qq * math.sin(chi)))  # J_mm
        vals.append(c * (p * math.sin(chi) + qq * math.cos(chi)))  # Y_mm
    return vals[0], vals[2], vals[1], vals[3]


def _bessel_j_miller(m: int, x: float) -> float:
    """J_m by downward recurrence, normalized with J_0 + 2 sum J_{2k} = 1."""
    tox = 2.0 / x
    start = m + int(math.sqrt(160.0 * (m + 1))) + 2
    if start % 2:
        start += 1
    fp, fc = 0.0, 1e-30  # f_{start+1}, f_{start}
    norm = 0.0
    ans = 0.0
    for j in range(start, 0, -1):
        fm = j * tox * fc - fp
        fp, fc = fc, fm  # fc is now f_{j-1}
        if abs(fc) > 1e100:
            fc *= 1e-100
            fp *= 1e-100
            norm *= 1e-100
            ans *= 1e-100
        if (j - 1) % 2 == 0 and j - 1 > 0:
            norm += fc
        if j - 1 == m:
            ans = fc
    norm = 2.0 * norm + fc  # fc is f_0 here
    if norm == 0.0 or math.isinf(norm):
        raise NumericError(f"bessel_jy: Miller normalization failed for m={m}, x={x}")
    return ans / norm


def _bessel_j(m: int, x, j01: tuple[float, float] | None = None):
    """J_m(x) alone, bitwise the first value of ``bessel_jy(m, x)``.

    Never overflows, so it has a value wherever Y_m would not.  `j01` is
    (J_0(x), J_1(x)) when the caller has them.  An array of x gives the
    array of values, NaN where the scalar call raises.
    """
    if isinstance(x, np.ndarray):
        return _jy_array(m, x, with_y=False)
    if x <= 12.0:
        return j01[m] if j01 and m <= 1 else _bessel_j_series(m, x)
    if x <= m:
        return _bessel_j_miller(m, x)
    jp, jc = j01 if j01 else _jy01_asymptotic(x)[:2]
    for j in range(1, m):
        jp, jc = jc, (2.0 * j / x) * jc - jp
    return jc if m else jp


def bessel_jy(m: int, x):
    """Ordinary Bessel pair (J_m(x), Y_m(x)) for integer m >= 0, x > 0.

    Series below x = 12, Hankel asymptotics above; Y recurs upward (stable),
    J recurs upward only in the oscillatory regime x > m and switches to
    Miller's downward recurrence otherwise.  Validated to x = 100; beyond
    that the phase x - (m/2 + 1/4) pi slowly loses ulps.

    ``x`` may be a numpy array: the result is then a pair of arrays of its
    shape, bitwise the scalar values, with NaN in both at every element
    where the scalar call raises (x not positive and finite, x/2 = 0, Y_m
    overflow).
    """
    _check_order(m, "bessel_jy")
    if isinstance(x, np.ndarray):
        return _jy_array(m, x, with_y=True)
    _check_positive(x, "bessel_jy", 0.5)
    j0, j1, y0, y1 = _y01_series(x) if x <= 12.0 else _jy01_asymptotic(x)
    yp, yc = y0, y1
    for j in range(1, m):
        yp, yc = yc, (2.0 * j / x) * yc - yp
        if math.isinf(yc):
            break
    y = yc if m else yp
    if math.isinf(y):  # Y_1 = -inf at x below about 1e-308, or Y_m past it
        raise RangeError(f"bessel_jy: Y_{m}({x}) overflows double range")
    return _bessel_j(m, x, (j0, j1)), y


# ----------------------------------------------------------------------
# Spherical Bessel functions (modified and ordinary)
# ----------------------------------------------------------------------

def sph_modified(l: int, x):
    """Modified spherical pair (i_l(x), k_l(x)) in the sqrt(pi/2x) convention.

    i_l uses the all-positive ascending series; k_l is the exact finite sum
    ``(pi/2x) e^{-x} sum_{j<=l} (l+j)! / (j! (l-j)! (2x)^j)``, and raises
    RangeError where it overflows (small x).  ``x`` may be a numpy array:
    the result is then a pair of arrays of its shape, bitwise the scalar
    values, with NaN in both where the scalar call raises.
    """
    _check_order(l, "sph_modified")
    if isinstance(x, np.ndarray):
        return _sph_modified_array(l, x)
    _check_positive(x, "sph_modified")
    if x > 700.0:
        raise RangeError(f"sph_modified: x={x} is past the overflow guard at 700")
    # ln((2l+1)!!) = lgamma(2l+2) - l ln 2 - lgamma(l+1)
    log_t0 = l * math.log(x) - (math.lgamma(2.0 * l + 2.0) - l * _LN_2 - math.lgamma(l + 1.0))
    half_q = 0.5 * x * x
    if log_t0 + half_q / (2.0 * l + 3.0) < _LOG_TINY:
        il = 0.0
    else:
        scaled = _kahan_series(
            1.0, lambda k: half_q / (k * (2.0 * l + 2.0 * k + 1.0)), "sph_modified series"
        )
        log_val = log_t0 + math.log(scaled)
        if log_val > _LOG_MAX:
            raise RangeError(f"sph_modified: i_{l}({x}) overflows double range")
        il = math.exp(log_val)

    term = 1.0
    total = 1.0
    for j in range(1, l + 1):
        term *= (l + j) * (l - j + 1.0) / (j * 2.0 * x)
        total += term
    kl = 0.5 * math.pi / x * math.exp(-x) * total
    if math.isinf(kl):
        raise RangeError(f"sph_modified: k_{l}({x}) overflows double range")
    return il, kl


def _sph_j(l: int, x, sin_cos: tuple[float, float] | None = None):
    """j_l(x) alone, bitwise the first value of ``sph_ordinary(l, x)``.

    Recurs upward for l < x and downward (Miller, normalized against the
    larger of j_0, j_1) otherwise.  `sin_cos` is (sin x, cos x) when the
    caller has it.  An array of x gives the array of values, NaN where the
    scalar call raises.
    """
    if isinstance(x, np.ndarray):
        return _sph_jy_array(l, x, with_y=False)[0]
    sx, cx = sin_cos if sin_cos else (math.sin(x), math.cos(x))
    j0 = sx / x
    if l == 0:
        return j0
    j1 = sx / (x * x) - cx / x
    if l == 1:
        return j1
    if l < x:
        jp, jc = j0, j1
        for j in range(1, l):
            jp, jc = jc, ((2.0 * j + 1.0) / x) * jc - jp
        return jc
    start = l + int(math.sqrt(40.0 * (l + 1))) + 12
    fp, fc = 0.0, 1e-30  # f_{start+1}, f_{start}
    fl = 0.0
    for j in range(start, 0, -1):
        fm = ((2.0 * j + 1.0) / x) * fc - fp
        fp, fc = fc, fm  # fc is now f_{j-1}
        if abs(fc) > 1e250:
            fc *= 1e-250
            fp *= 1e-250
            fl *= 1e-250
        if j - 1 == l:
            fl = fc
    # fc = f_0, fp = f_1; normalize against whichever true value is larger
    if abs(j0) >= abs(j1):
        scale = j0 / fc
    else:
        scale = j1 / fp
    return fl * scale


def sph_ordinary(l: int, x):
    """Ordinary spherical pair (j_l(x), y_l(x)); j_0(x) = sin x / x.

    y recurs upward; j comes from :func:`_sph_j`.  ``x`` may be a numpy
    array: the result is then a pair of arrays of its shape, bitwise the
    scalar values, with NaN in both where the scalar call raises (x not
    positive and finite, or so small that 1/x^2 divides by zero).
    """
    _check_order(l, "sph_ordinary")
    if isinstance(x, np.ndarray):
        return _sph_jy_array(l, x, with_y=True)
    _check_positive(x, "sph_ordinary")
    if not x * x > 0.0:
        raise RangeError(f"sph_ordinary: y_1({x}) overflows double range (x*x underflows)")
    sx, cx = math.sin(x), math.cos(x)
    yp, yc = -cx / x, -cx / (x * x) - sx / x  # y_0, y_1
    for j in range(1, l):
        yp, yc = yc, ((2.0 * j + 1.0) / x) * yc - yp
    y = yc if l else yp
    if not math.isfinite(y):
        raise RangeError(f"sph_ordinary: y_{l}({x}) overflows double range")
    return _sph_j(l, x, (sx, cx)), y


# ----------------------------------------------------------------------
# Kummer M and the parabolic cylinder function D_v
# ----------------------------------------------------------------------

def _kummer_series(a: float, b: float, x: float) -> tuple[float, float]:
    """Kummer sum plus the largest |term| seen (the cancellation scale)."""
    term = 1.0
    total = 1.0
    comp = 0.0
    peak = 1.0
    small = 0
    k = 0
    while k < _MAX_TERMS:
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        at = abs(term)
        if at > peak:
            peak = at
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        if at <= _REL_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                return total, peak
        else:
            small = 0
    raise NumericError(f"kummer_m({a}, {b}, {x}) did not converge within {_MAX_TERMS} terms")


def _kummer_series_array(a, b, x) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_kummer_series` over an array of ``a``, or over arrays of ``a``,
    ``b`` and ``x`` broadcast together: sums and peaks, NaN where it raises.

    Every element runs the scalar recurrence, operation for operation, with
    its own Kahan compensation, peak and run of small terms.  With a scalar
    ``x`` an element leaves the working set as soon as its run reaches
    three; an array of ``x`` (one order over many points) runs the blocked
    sum of :func:`_kahan_blocks`.
    """
    if isinstance(x, np.ndarray):
        shape = np.broadcast(a, b, x).shape
        a, b, x = (np.broadcast_to(np.asarray(arr, dtype=float), shape).ravel()
                   for arr in (a, b, x))

        def ratio(s0, s1, cols):
            k = np.arange(s0, s1, dtype=float)[:, None]
            return (a[cols] + k) * x[cols] / ((b[cols] + k) * (k + 1.0))

        sums, peaks = _kahan_blocks(ratio, np.ones(a.size), np.ones(a.size), _MAX_TERMS,
                                    with_peak=True)
        return sums.reshape(shape), peaks.reshape(shape)
    sums = np.full(a.shape, np.nan)
    peaks = np.full(a.shape, np.nan)
    idx = np.arange(a.size)
    a = a.ravel()
    term = np.ones(a.size)
    total = np.ones(a.size)
    comp = np.zeros(a.size)
    peak = np.ones(a.size)
    small = np.zeros(a.size, dtype=np.int64)
    k = 0
    while k < _MAX_TERMS and idx.size:
        term *= (a + k) * x / ((b + k) * (k + 1.0))
        at = np.abs(term)
        np.maximum(peak, at, out=peak)
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        k += 1
        small = np.where(at <= _REL_EPS * np.abs(total), small + 1, 0)
        done = small >= _SMALL_RUN
        if done.any():
            sums.flat[idx[done]] = total[done]
            peaks.flat[idx[done]] = peak[done]
            keep = ~done
            idx, a, term, total, comp, peak, small = (
                arr[keep] for arr in (idx, a, term, total, comp, peak, small))
    return sums, peaks


def kummer_m(a, b: float, x: float):
    """Confluent hypergeometric M(a, b, x) by the ascending series.

    Term recurrence with compensated summation; stops after three
    consecutive terms below 1e-16 of the partial sum.  Validated for
    |x| <= 50 and |a| <= 300 with b away from non-positive integers.

    ``a`` may be a numpy array: the result is then an array of the same
    shape, bitwise equal to the scalar values, with NaN at every element
    where the scalar call would raise (``|a| > 300``, non-finite ``a``, or
    no convergence).  ``b`` and ``x`` stay scalars and raise as above.
    """
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"kummer_m: b={b} is a non-positive integer (pole)")
    if not abs(x) <= 50.0:
        raise DomainError(f"kummer_m: |x|={abs(x)} outside the validated range 50")
    if isinstance(a, np.ndarray):
        a = a.astype(float)
        valid = np.abs(a) <= 300.0
        out = np.full(a.shape, np.nan)
        out[valid] = _kummer_series_array(a[valid], b, x)[0]
        return out
    if not abs(a) <= 300.0:
        raise DomainError(f"kummer_m: |a|={abs(a)} outside the validated range 300")
    return _kummer_series(a, b, x)[0]


def _pcf_check(v: float, y: float) -> None:
    if not -1.0 <= v <= 200.0:
        raise DomainError(f"pcf_d: order v={v} outside the validated range [-1, 200]")
    if abs(y) > 10.0:
        raise DomainError(f"pcf_d: |y|={abs(y)} outside the validated range 10")


def _pcf_bracket(v: float, y: float) -> float:
    """Gamma-weighted Kummer combination of D_v(y), without the 2^{v/2} sqrt(pi) e^{-y^2/4} prefactor.

    The series peak terms bound the rounding noise; when that noise exceeds
    1e-8 of the combination scale (large v together with large |y|), the
    value would be silent garbage, so a NumericError is raised instead.
    """
    return _pcf_brackets(v, y, y)[1]


def _pcf_brackets(v: float, y: float, shown: float) -> tuple[float, float]:
    """:func:`_pcf_bracket` at -y and at y, bitwise, from one pair of Kummer series.

    Both share q = y^2/2 and the noise bound, and the odd term only changes
    sign.  The cancellation error names the point ``(v, shown)``.
    """
    q = 0.5 * y * y
    m_even, peak_even = _kummer_series(-0.5 * v, 0.5, q)
    m_odd, peak_odd = _kummer_series(0.5 * (1.0 - v), 1.5, q)
    rg_even = _rgamma(0.5 * (1.0 - v))
    rg_odd = _rgamma(-0.5 * v)
    t_even = m_even * rg_even
    t_odd = _SQRT_2 * y * m_odd * rg_odd
    noise = _REL_EPS * (peak_even * abs(rg_even) + _SQRT_2 * abs(y) * peak_odd * abs(rg_odd))
    scale = max(abs(t_even), abs(t_odd))
    if scale == 0.0:
        return 0.0, 0.0  # both solutions vanish exactly (integer v at a representable node)
    if noise > 1e-8 * scale:
        raise NumericError(
            f"pcf_d({v}, {shown}): series cancellation exceeds tolerance; "
            "the (large v, large |y|) corner is outside the supported accuracy region"
        )
    return t_even + t_odd, t_even - t_odd


def pcf_d(v: float, y: float) -> float:
    """Parabolic cylinder function D_v(y) for v in [-1, 200], |y| <= 10.

    For the validated ranges the assembled value stays inside double range
    (the reciprocal gammas peak near 6e156 and the Kummer values near 1e5),
    so no clamping is needed here; use :func:`pcf_d_signlog` when squares or
    products of D_v are required.

    Absolute accuracy is machine epsilon times the larger of the two
    gamma-weighted solution terms.  For y >> 1 the recessive D_v(y) is
    exponentially smaller than that scale and loses relative digits
    accordingly; combinations with severe internal series cancellation
    (large v together with large |y|) raise NumericError instead of
    returning noise.
    """
    _pcf_check(v, y)
    bracket = _pcf_bracket(v, y)
    return _SQRT_PI * math.exp(0.5 * v * _LN_2 - 0.25 * y * y) * bracket


def pcf_d_signlog(v: float, y: float) -> SignLog:
    """D_v(y) as a SignLog; overflow-safe building block for D_v^2 ratios."""
    _pcf_check(v, y)
    return _pcf_signlog(_pcf_bracket(v, y), v, y)


def _pcf_signlog(bracket: float, v: float, y: float) -> SignLog:
    sl = SignLog.from_value(bracket)
    if sl.sign == 0:
        return sl
    log_pref = 0.5 * v * _LN_2 - 0.25 * y * y + 0.5 * math.log(math.pi)
    return SignLog(sl.sign, sl.log_mag + log_pref)


def _pcf_d_signlog_pair(v: float, y: float) -> tuple[SignLog, SignLog]:
    """``(pcf_d_signlog(v, -y), pcf_d_signlog(v, y))``, bitwise and raising alike,
    from one pair of Kummer series."""
    _pcf_check(v, y)
    minus, plus = _pcf_brackets(v, y, -y)
    return _pcf_signlog(minus, v, -y), _pcf_signlog(plus, v, y)


def _elementwise(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` from ``math`` at each element of ``x``: ``np.exp`` is not bitwise ``math.exp``."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _gamma_signlog_array(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sign and log|Gamma| of :func:`gamma_signlog` over an array, bitwise; NaN at the poles."""
    pole = (x <= 0.0) & (x == np.floor(x))
    log_mag = np.where(pole, np.nan, _elementwise(math.lgamma, np.where(pole, 1.0, x)))
    sign = np.where(pole, np.nan, np.where((x < 0.0) & (np.floor(x) % 2 != 0), -1.0, 1.0))
    return sign, log_mag


def _rgamma_array(x: np.ndarray) -> np.ndarray:
    """:func:`_rgamma` over an array, bitwise; NaN where it raises RangeError."""
    sign, lg = _gamma_signlog_array(x)
    inv = _elementwise(math.exp, np.where(-lg > _LOG_MAX, np.nan, -lg))
    return np.where(np.isnan(sign), 0.0, sign * inv)


def pcf_d_pair_signlog(v, y) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """D_v(-y) and D_v(y) over an array of orders v at one y, or over an array of y at one v.

    Returns ``(sign_minus, log_minus, sign_plus, log_plus)``: element i of
    ``sign_minus`` and ``log_minus`` are the ``sign`` and ``log_mag`` of
    ``pcf_d_signlog(v[i], -y)`` (or of ``pcf_d_signlog(v, -y[i])``),
    bitwise, and likewise for ``+y``.  Both signs share q = y^2/2, so the
    two Kummer series run once for the pair.  All four arrays hold NaN where
    :func:`pcf_d_signlog` would raise: v outside [-1, 200], ``|y| > 10`` in
    an array of y, the series cancellation guard, or a series that does not
    converge.  A scalar ``|y| > 10`` raises DomainError as in the scalar call.
    """
    if isinstance(y, np.ndarray):  # one order: every array below is over the valid y
        shape = y.shape
        ok = (np.abs(y) <= 10.0) & (-1.0 <= v <= 200.0)
        w, y = np.full(1, float(v)), y.astype(float)[ok]
    else:
        if abs(y) > 10.0:
            raise DomainError(f"pcf_d: |y|={abs(y)} outside the validated range 10")
        v = np.asarray(v, dtype=float)
        shape = v.shape
        ok = (v >= -1.0) & (v <= 200.0)
        w = v[ok]
    q = 0.5 * y * y
    if isinstance(q, np.ndarray):  # both series in one blocked sum
        (m_even, m_odd), (peak_even, peak_odd) = _kummer_series_array(
            np.stack([-0.5 * w, 0.5 * (1.0 - w)]), np.array([[0.5], [1.5]]), q)
    else:
        m_even, peak_even = _kummer_series_array(-0.5 * w, 0.5, q)
        m_odd, peak_odd = _kummer_series_array(0.5 * (1.0 - w), 1.5, q)
    rg_even = _rgamma_array(0.5 * (1.0 - w))
    rg_odd = _rgamma_array(-0.5 * w)
    t_even = m_even * rg_even
    noise = _REL_EPS * (peak_even * np.abs(rg_even)
                        + _SQRT_2 * abs(y) * peak_odd * np.abs(rg_odd))
    log_pref = 0.5 * w * _LN_2 - 0.25 * y * y + 0.5 * math.log(math.pi)
    out = []
    for s in (-y, y):
        t_odd = _SQRT_2 * s * m_odd * rg_odd
        scale = np.maximum(np.abs(t_even), np.abs(t_odd))
        bracket = np.where(scale == 0.0, 0.0, t_even - t_odd)
        bracket[~(noise <= 1e-8 * scale) & (scale != 0.0)] = np.nan
        zero = bracket == 0.0
        log_abs = _elementwise(math.log, np.where(zero, 1.0, np.abs(bracket)))
        sign = np.full(shape, np.nan)
        log_mag = np.full(shape, np.nan)
        sign[ok] = np.sign(bracket)
        log_mag[ok] = np.where(zero, 0.0, log_abs + log_pref)
        out += [sign, log_mag]
    return tuple(out)


# The array paths use the scalar helpers above, so they are bound last.
from ._arrays import (_ik_array, _jy_array, _kahan_blocks, _sph_jy_array,  # noqa: E402
                      _sph_modified_array)
