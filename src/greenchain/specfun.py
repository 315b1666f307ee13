"""Special functions in double precision.

Everything here is a pure function of its arguments: no caching, no global
state but constant row tables of coefficients built at import
(``_MILLER_ROWS`` of the J Miller pass, ``_K_ROWS``/``_HANKEL_ROWS`` of the
large-argument sums, ``_KUMMER_ROWS``, and the trapezoid nodes
``_COSH_NODES``), safe to call from any number of threads.  Every ascending
series uses a term recurrence with compensated (Kahan) summation and stops
once three consecutive terms fall below 1e-16 of the running partial sum.

The functions take scalars (:func:`kummer_m`, :func:`bessel_i` and
:func:`bessel_k` among them), except where grid scans and long chains pass
arrays: :func:`pcf_d_pair_signlog` gives ``D_v(-y)`` and ``D_v(y)`` over an
array of orders or of points, and :func:`sph_modified`, :func:`bessel_jy`
and :func:`sph_ordinary` (and ``_bessel_j`` and ``_sph_j``, the first values
of the last two alone) accept an array of ``x``.  Each sums every element
with exactly the operations of the scalar series, with ``math`` functions
per element where numpy's are not bitwise the same, so the values are
bitwise equal to the scalar ones; each marks with NaN the elements where
the scalar function raises.  The Bessel array paths, and the (I_m, K_m)
pair of long cylindrical chains, live in :mod:`greenchain._arrays`.

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
from itertools import accumulate, count, islice, repeat, takewhile

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

# Seams, guards and Miller starts that the scalar functions and their array
# paths in greenchain._arrays share bit for bit.
_K_TINY = 1e-9  # K_0, K_1: leading terms below this, then the trapezoid
_K_ASYMPTOTIC_MIN = 15.0  # K_0, K_1: the large-argument sums from here on
_COSH_STEP = 0.2  # trapezoid step in t of _k01_cosh_integral
_COSH_CUTOFF = 40.0  # its nodes stop where x (cosh t - 1) reaches this
_ASYMPTOTIC_TERMS = 60  # the K and Hankel large-argument sums end before this term
_JY_TINY = 1e-9  # J, Y: leading terms below this, then the J Miller pass
_JY_HANKEL_MIN = 17.0  # J, Y: the Hankel sums from here on (J_m at x <= m excepted)
_OVERFLOW_GUARD = 700.0  # I_m and i_l raise RangeError past this x
_MILLER_SEED = 1e-30  # the J and j_l Miller recurrences start from (0, this)
_J_RESCALE = 1e100  # J Miller: a value past this is rescaled by its reciprocal
_SPH_RESCALE = 1e250  # j_l Miller: likewise

# Validated ranges: kummer_m takes |x| <= 50 and |a| <= 300, pcf_d v in [-1, 200] and |y| <= 10.
_KUMMER_X_MAX = 50.0
_KUMMER_A_MAX = 300.0
_PCF_V_MIN, _PCF_V_MAX = -1.0, 200.0
_PCF_Y_MAX = 10.0


def _j_miller_start(s):
    """The even order from which the J Miller pass runs down, for s = max(m, x); at an
    array of s, the array of starts (numpy's sqrt is IEEE, so each is the scalar one)."""
    if isinstance(s, np.ndarray):
        start = (s + np.sqrt(160.0 * (s + 1.0))).astype(int) + 2
    else:
        start = int(s + math.sqrt(160.0 * (s + 1.0))) + 2
    return start + start % 2


def _sph_miller_start(l: int) -> int:
    """The order from which the j_l Miller recurrence runs down."""
    return l + int(math.sqrt(40.0 * (l + 1))) + 12


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


def _kahan_series(first_term: float, q: float, m: int, stride: int, what: str) -> float:
    """Sum ``first_term * prod_{j<=k} q / (j (m + stride j))`` with Kahan compensation;
    the denominators are exact integers, so each ratio is bitwise the one written in floats."""
    term = total = first_term
    comp, small = 0.0, 0
    for k in range(1, _MAX_TERMS):
        term *= q / (k * (m + stride * k))
        y = term - comp
        t = total + y
        comp, total = (t - total) - y, t
        small = small + 1 if abs(term) <= _REL_EPS * abs(t) else 0
        if small >= _SMALL_RUN:
            return total
    raise NumericError(f"{what} did not converge within {_MAX_TERMS} terms")


# ----------------------------------------------------------------------
# Modified Bessel functions I_m, K_m (integer order)
# ----------------------------------------------------------------------

def bessel_i(m: int, x: float) -> float:
    """Modified Bessel function I_m(x) for integer m >= 0, 0 < x <= 700.

    Ascending series throughout: all terms are positive, so there is no
    cancellation at any admissible argument; the only failure mode is
    overflow, guarded by the x <= 700 precondition.  Takes one x.
    """
    _check_order(m, "bessel_i")
    _check_positive(x, "bessel_i", 0.5)
    if x > _OVERFLOW_GUARD:
        raise RangeError(f"bessel_i: x={x} is past the overflow guard at {_OVERFLOW_GUARD:g}")
    q = 0.25 * x * x
    log_t0 = m * math.log(0.5 * x) - math.lgamma(m + 1.0)
    if log_t0 + q / (m + 1.0) < _LOG_TINY:
        return 0.0  # entire sum is below double underflow (m >> x)
    scaled = _kahan_series(1.0, q, m, 1, "bessel_i series")
    log_val = log_t0 + math.log(scaled)
    if log_val > _LOG_MAX:
        raise RangeError(f"bessel_i({m}, {x}) overflows double range")
    return math.exp(log_val)


# cosh t at the trapezoid nodes t = h, 2h, ... (t summed step by step) of _k01_cosh_integral,
# through the last one below the cutoff at x = _K_TINY, the smallest x it takes
_COSH_NODES = list(takewhile(lambda c: c < 1.0 + _COSH_CUTOFF / _K_TINY,
                             map(math.cosh, accumulate(repeat(_COSH_STEP), initial=_COSH_STEP))))


def _k01_cosh_integral(x: float) -> tuple[float, float]:
    """K_0 and K_1 as integral_0^inf exp(-x cosh t) cosh(m t) dt by trapezoid, in one pass.

    The integrand extends to an analytic, doubly-exponentially decaying even
    function of t, so the trapezoid rule with h = 0.2 is already converged to
    machine precision for every x in [_K_TINY, 15) where it is used.  The
    nodes stop where exp(-x cosh t) falls to e^-40 exp(-x): the tail left
    out is below 1e-17 of K_0 and of K_1.
    """
    k0 = k1 = 0.5 * math.exp(-x)  # t = 0 term carries half weight
    top = 1.0 + _COSH_CUTOFF / x  # cosh t at the cutoff
    for c in takewhile(top.__gt__, _COSH_NODES):
        e = math.exp(-x * c)
        k0, k1 = k0 + e, k1 + e * c  # cosh(0 t) = 1
    return _COSH_STEP * k0, _COSH_STEP * k1


# Rows k < _ASYMPTOTIC_TERMS of the large-argument sums at mu = 0 and 4, whose term k is term
# k-1 times (mu - (2k-1)^2) / (8k x): 0 - (2k-1)^2, 4 - (2k-1)^2, 8k, and whether the term goes
# to Q rather than P.  K adds every term to P; the Hankel sums add i^k times it to P + iQ, the
# sign of i^k carried by a numerator negated at even k (which negates the product exactly).
_K_ROWS = [(0.0 - (2.0 * k - 1.0) ** 2, 4.0 - (2.0 * k - 1.0) ** 2, 8.0 * k, False)
           for k in range(1, _ASYMPTOTIC_TERMS)]
_HANKEL_ROWS = [(-n0, -n4, k8, False) if k % 2 == 0 else (n0, n4, k8, True)
                for k, (n0, n4, k8, _) in enumerate(_K_ROWS, 1)]


def _asymptotic01(x: float, rows: list, rel: float, tol: float) -> tuple[float, ...]:
    """The large-argument sums (P, Q) at mu = 0 and at mu = 4 over `rows`, in one loop.

    A mu stops before a term no smaller than its last one (from term 0 = 1) or
    at most rel |P|, or after adding one at most tol: K stops relative to its
    sum, the Hankel sums of J and Y below an absolute 1e-16."""
    t0 = t4 = p0 = p4 = prev0 = prev4 = 1.0
    q0 = q4 = 0.0
    live0 = live4 = True
    for n0, n4, k8, odd in rows:
        d = k8 * x
        if live0:
            t0 *= n0 / d
            a = abs(t0)
            live0 = not (a >= prev0 or a <= rel * abs(p0))
            if live0:
                prev0, live0 = a, not a <= tol
                if odd:
                    q0 += t0
                else:
                    p0 += t0
        if live4:
            t4 *= n4 / d
            a = abs(t4)
            live4 = not (a >= prev4 or a <= rel * abs(p4))
            if live4:
                prev4, live4 = a, not a <= tol
                if odd:
                    q4 += t4
                else:
                    p4 += t4
        elif not live0:
            break
    return p0, q0, p4, q4


def bessel_k(m: int, x: float) -> float:
    """Modified Bessel function K_m(x) for integer m >= 0, x > 0.

    K_0/K_1 come from the leading terms -(log(x/2) + gamma) and 1/x (x < 1e-9, exact to
    half an ulp), a cosh-transform trapezoid integral (DLMF 10.32.9, x < 15) or the
    asymptotic expansion (x >= 15); higher orders use the upward recurrence, which is
    stable because K grows with order.  RangeError where K_m overflows (small x).
    """
    _check_order(m, "bessel_k")
    _check_positive(x, "bessel_k", 0.5)
    if x < _K_TINY:  # the node table of the trapezoid ends here
        k0, k1 = -(math.log(0.5 * x) + _EULER_GAMMA), 1.0 / x
    elif x < _K_ASYMPTOTIC_MIN:
        k0, k1 = _k01_cosh_integral(x)
    else:
        p0, _, p4, _ = _asymptotic01(x, _K_ROWS, _REL_EPS, 0.0)
        pref = math.sqrt(0.5 * math.pi / x) * math.exp(-x)
        k0, k1 = pref * p0, pref * p4
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

def _jy01_asymptotic(x: float) -> tuple[float, float, float, float]:
    """J_0, J_1, Y_0, Y_1 from the Hankel expansion (x >= 17), truncated at the smallest term."""
    p0, q0, p1, q1 = _asymptotic01(x, _HANKEL_ROWS, 0.0, _REL_EPS)
    c = math.sqrt(2.0 / (math.pi * x))
    chi0, chi1 = x - 0.25 * math.pi, x - 0.75 * math.pi
    cos0, sin0, cos1, sin1 = math.cos(chi0), math.sin(chi0), math.cos(chi1), math.sin(chi1)
    return (c * (p0 * cos0 - q0 * sin0), c * (p1 * cos1 - q1 * sin1),  # J_0, J_1
            c * (p0 * sin0 + q0 * cos0), c * (p1 * sin1 + q1 * cos1))  # Y_0, Y_1


def _miller_row(k: int) -> tuple[int, float, float, float, float]:
    """Row k >= 1 of the J Miller pass: k; 4k + 4 and 4k + 2, the 2n of
    f_{n-1} = (2n/x) f_n - f_{n+1} that give f_{2k+1} and f_{2k}; and the signed Neumann
    weights (-1)^k (2k + 1) / (k (k + 1)) of J_{2k+1} in S_1 and (-1)^k / k of J_{2k} in S_0."""
    sign = -1.0 if k % 2 else 1.0
    return k, 4.0 * k + 4.0, 4.0 * k + 2.0, sign * (2.0 * k + 1.0) / (k * (k + 1.0)), sign / k


# Rows k = 1..511 of the J Miller pass: every start up to order 1024 (s = max(m, x) up to
# 690) reads them from here; a pass from higher up makes its rows inline.
_MILLER_ROWS = [_miller_row(k) for k in range(1, 512)]


def _miller_rows(start: int):
    """The rows of a pass from order `start`, top down: k = start/2 - 1, ..., 1."""
    k_top = start // 2 - 1
    if k_top <= len(_MILLER_ROWS):
        return _MILLER_ROWS[k_top - 1::-1]
    return map(_miller_row, range(k_top, 0, -1))


def _jy_miller(m: int, x: float, lh: float) -> tuple[float, float, float, float, float]:
    """J_m, J_0, J_1 and the Neumann sums S_0 = sum_k (-1)^k J_{2k} / k and
    S_1 = sum_k (-1)^k (2k + 1) J_{2k+1} / (k (k + 1)) (k >= 1) of Y_0 and Y_1
    (A&S 9.1.88-89) from one downward Miller pass; lh = log(x/2).

    The pass runs f_{n-1} = (2n/x) f_n - f_{n+1} down from (0, 1e-30) at an
    even order start = _j_miller_start(max(m, x)), or _j_miller_start(x)
    where J_m's leading term (x/2)^m / m! underflows (J_m is then 0.0), and
    normalizes with J_0 + 2 sum J_{2k} = 1.  Below _JY_TINY it returns the
    leading terms (x/2)^m / m!, 1, x/2, 0 and 0, exact to half an ulp.
    """
    under = m * lh - math.lgamma(m + 1.0) < _LOG_TINY
    if x < _JY_TINY:
        return (0.0 if under else (0.5 * x) ** m / math.factorial(m)), 1.0, 0.5 * x, 0.0, 0.0
    km, odd = divmod(m, 2)
    big, shrink = _J_RESCALE, 1.0 / _J_RESCALE
    fp, fc = 0.0, _MILLER_SEED  # f_{start+1}, f_start
    jm = norm = s0 = s1 = 0.0
    for k, c1, c0, w1, w0 in _miller_rows(_j_miller_start(x if under else max(m, x))):
        fp, fc = fc, (c1 / x) * fc - fp  # f_{2k+1}
        fp, fc = fc, (c0 / x) * fc - fp  # f_{2k}
        if abs(fc) > big:
            fp, fc, jm, norm, s0, s1 = (f * shrink for f in (fp, fc, jm, norm, s0, s1))
        if k == km:
            jm = fp if odd else fc
        norm += fc
        s0 += w0 * fc
        s1 += w1 * fp
    fp, fc = fc, (4.0 / x) * fc - fp  # f_1
    fp, fc = fc, (2.0 / x) * fc - fp  # f_0
    if m < 2:
        jm = fp if m else fc
    norm = 2.0 * norm + fc
    if norm == 0.0 or math.isinf(norm):
        raise NumericError(f"bessel_jy: Miller normalization failed for m={m}, x={x}")
    return jm / norm, fc / norm, fp / norm, s0 / norm, s1 / norm


def _y01(x: float, lh: float, j0: float, j1: float, s0: float, s1: float) -> tuple[float, float]:
    """Y_0 and Y_1 from J_0, J_1 and the Neumann sums of :func:`_jy_miller` (A&S 9.1.88-89)."""
    return ((2.0 / math.pi) * ((lh + _EULER_GAMMA) * j0 - 2.0 * s0),
            (2.0 / math.pi) * ((lh + (_EULER_GAMMA - 1.0)) * j1 - j0 / x - s1))


def _bessel_j(m: int, x, j01: tuple[float, float] | None = None):
    """J_m(x) alone, bitwise the first value of ``bessel_jy(m, x)``.

    Never overflows, so it has a value wherever Y_m would not.  `j01` is
    (J_0(x), J_1(x)) from the Hankel sums when the caller has them.  An
    array of x gives the array of values, NaN where the scalar call raises.
    """
    if isinstance(x, np.ndarray):
        return _jy_array(m, x, with_y=False)
    if x < _JY_HANKEL_MIN or x <= m:
        return _jy_miller(m, x, math.log(0.5 * x))[0]
    jp, jc = j01 if j01 else _jy01_asymptotic(x)[:2]
    for j in range(1, m):
        jp, jc = jc, (2.0 * j / x) * jc - jp
    return jc if m else jp


def bessel_jy(m: int, x):
    """Ordinary Bessel pair (J_m(x), Y_m(x)) for integer m >= 0, x > 0.

    Below x = _JY_HANKEL_MIN, J_m, J_0, J_1 and the Neumann sums of Y_0 and
    Y_1 come from one Miller pass (:func:`_jy_miller`, leading terms below
    x = 1e-9); from there on, J_0, J_1, Y_0 and Y_1 come from the Hankel
    sums, and J_m recurs upward from them where x > m, else takes the
    Miller pass.  Y_m recurs upward (stable).  J lies within 1e-15 and Y
    within 2e-15 max(1, |Y|) of mpmath on (1e-9, 100] (relative below);
    beyond x = 100 the phase x - (m/2 + 1/4) pi slowly loses ulps.

    ``x`` may be a numpy array: the result is then a pair of arrays of its
    shape, bitwise the scalar values, with NaN in both at every element
    where the scalar call raises (x not positive and finite, x/2 = 0, Y_m
    overflow).
    """
    _check_order(m, "bessel_jy")
    if isinstance(x, np.ndarray):
        return _jy_array(m, x, with_y=True)
    _check_positive(x, "bessel_jy", 0.5)
    if x < _JY_HANKEL_MIN:
        lh = math.log(0.5 * x)
        jm, j0, j1, s0, s1 = _jy_miller(m, x, lh)
        y0, y1 = _y01(x, lh, j0, j1, s0, s1)
    else:
        j0, j1, y0, y1 = _jy01_asymptotic(x)
        jm = _bessel_j(m, x, (j0, j1))
    yp, yc = y0, y1
    for j in range(1, m):
        yp, yc = yc, (2.0 * j / x) * yc - yp
        if math.isinf(yc):
            break
    y = yc if m else yp
    if math.isinf(y):  # Y_1 = -inf at x below about 1e-308, or Y_m past it
        raise RangeError(f"bessel_jy: Y_{m}({x}) overflows double range")
    return jm, y


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
    if x > _OVERFLOW_GUARD:
        raise RangeError(f"sph_modified: x={x} is past the overflow guard at {_OVERFLOW_GUARD:g}")
    # ln((2l+1)!!) = lgamma(2l+2) - l ln 2 - lgamma(l+1)
    log_t0 = l * math.log(x) - (math.lgamma(2.0 * l + 2.0) - l * _LN_2 - math.lgamma(l + 1.0))
    half_q = 0.5 * x * x
    if log_t0 + half_q / (2.0 * l + 3.0) < _LOG_TINY:
        il = 0.0
    else:
        scaled = _kahan_series(1.0, half_q, 2 * l + 1, 2, "sph_modified series")
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
    big, shrink = _SPH_RESCALE, 1.0 / _SPH_RESCALE
    fp, fc = 0.0, _MILLER_SEED  # f_{start+1}, f_{start}
    fl = 0.0
    for j in range(_sph_miller_start(l), 0, -1):
        fp, fc = fc, ((2.0 * j + 1.0) / x) * fc - fp  # fc is now f_{j-1}
        if abs(fc) > big:
            fc, fp, fl = fc * shrink, fp * shrink, fl * shrink
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

# Rows k and (b + k)(k + 1), both exact, of the Kummer series at b = 1/2 and 3/2 (the D_v pair).
# The longest series sampled in kummer_m's validated range at these b ends at row 291.
_KUMMER_ROWS = {b: [(float(k), (b + k) * (k + 1.0)) for k in range(512)] for b in (0.5, 1.5)}


def _kummer_series(a: float, b: float, x: float) -> tuple[float, float]:
    """Kummer sum plus the largest |term| seen (the cancellation scale); its rows k and
    (b + k)(k + 1) come from _KUMMER_ROWS in kummer_m's validated range, else inline."""
    rows = _KUMMER_ROWS.get(b) if abs(a) <= _KUMMER_A_MAX and abs(x) <= _KUMMER_X_MAX else None
    if rows is None:
        rows = ((k, (b + k) * (k + 1.0)) for k in map(float, count()))
    term = total = peak = 1.0
    comp = 0.0
    small = 0
    for k, den in islice(rows, _MAX_TERMS):
        term *= (a + k) * x / den
        at = abs(term)
        if at > peak:
            peak = at
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if at <= _REL_EPS * abs(total):
            small += 1
            if small >= _SMALL_RUN:
                return total, peak
        else:
            small = 0
    raise NumericError(f"kummer_m({a}, {b}, {x}) did not converge within {_MAX_TERMS} terms")


def _kummer_series_array(a, b, x) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_kummer_series` over ``a``, ``b`` and ``x`` broadcast together: sums and
    peaks, NaN where it raises.

    Every element runs the scalar recurrence, operation for operation, with
    its own Kahan compensation, peak and run of small terms.  At one ``x``
    (many orders) one array loop runs in place, which an element leaves as
    soon as its last three terms are flagged small; an array of ``x`` (one
    order over many points) runs the blocked sum of :func:`_kahan_blocks`.
    """
    shape = np.broadcast(a, b, x).shape
    a, b = (np.broadcast_to(np.asarray(arr, dtype=float), shape).ravel() for arr in (a, b))
    if isinstance(x, np.ndarray):
        x = np.broadcast_to(x.astype(float), shape).ravel()

        def ratio(s0, s1, cols):
            k = np.arange(s0, s1, dtype=float)[:, None]
            return (a[cols] + k) * x[cols] / ((b[cols] + k) * (k + 1.0))

        sums, peaks = _kahan_blocks(ratio, np.ones(a.size), np.ones(a.size), _MAX_TERMS,
                                    with_peak=True)
        return sums.reshape(shape), peaks.reshape(shape)
    x = float(x)
    sums, peaks = np.full((2,) + shape, np.nan)
    idx = np.arange(a.size)
    term, total, peak = np.ones((3, a.size))
    comp = np.zeros(a.size)
    work = np.empty((4, a.size))
    ratio, den, y, t = work  # ratio, then |term|; the denominator, then eps |total|
    small1 = small2 = np.zeros(a.size, dtype=bool)  # the last two terms were small
    for k in range(_MAX_TERMS):
        if not idx.size:
            break
        np.add(b, k, out=den)
        den *= k + 1.0
        np.add(a, k, out=ratio)
        ratio *= x
        ratio /= den
        term *= ratio
        at = np.abs(term, out=ratio)
        np.maximum(peak, at, out=peak)
        np.subtract(term, comp, out=y)
        np.add(total, y, out=t)
        np.subtract(t, total, out=comp)
        comp -= y
        total, t = t, total
        np.abs(total, out=den)
        den *= _REL_EPS
        small = at <= den
        done = small & small1
        done &= small2
        small1, small2 = small, small1
        if done.any():
            sums.flat[idx[done]] = total[done]
            peaks.flat[idx[done]] = peak[done]
            keep = ~done
            idx, a, b, term, total, comp, peak, small1, small2 = (
                arr[keep] for arr in (idx, a, b, term, total, comp, peak, small1, small2))
            ratio, den, y, t = work[:, :idx.size]
    return sums, peaks


def kummer_m(a: float, b: float, x: float) -> float:
    """Confluent hypergeometric M(a, b, x) at one order a, by the ascending series.

    Term recurrence with compensated summation; stops after three
    consecutive terms below 1e-16 of the partial sum.  Validated for
    |x| <= 50 and |a| <= 300 with b away from non-positive integers; at
    b = 1/2 and 3/2 it reads the constant rows ``_KUMMER_ROWS``.  At x < 0 the
    terms alternate: NumericError is raised where their rounding noise, the
    peak term times 1e-16, exceeds 1e-12 of the value (x >= 0 is not guarded).
    """
    if not math.isfinite(b):
        raise DomainError(f"kummer_m: b={b} is not finite")
    if b <= 0.0 and b == math.floor(b):
        raise DomainError(f"kummer_m: b={b} is a non-positive integer (pole)")
    if not abs(x) <= _KUMMER_X_MAX:
        raise DomainError(f"kummer_m: |x|={abs(x)} outside the validated range {_KUMMER_X_MAX:g}")
    if not abs(a) <= _KUMMER_A_MAX:
        raise DomainError(f"kummer_m: |a|={abs(a)} outside the validated range {_KUMMER_A_MAX:g}")
    total, peak = _kummer_series(a, b, x)
    if x < 0.0 and peak * _REL_EPS > 1e-12 * abs(total):
        raise NumericError(f"kummer_m({a}, {b}, {x}): the alternating series cancelled "
                           "past 1e-12 of its value")
    return total


def _pcf_check(v: float, y: float) -> None:
    if not _PCF_V_MIN <= v <= _PCF_V_MAX:
        raise DomainError(f"pcf_d: order v={v} outside the validated range "
                          f"[{_PCF_V_MIN:g}, {_PCF_V_MAX:g}]")
    if abs(y) > _PCF_Y_MAX:
        raise DomainError(f"pcf_d: |y|={abs(y)} outside the validated range {_PCF_Y_MAX:g}")


def _pcf_brackets(v: float, y: float, shown: float) -> tuple[float, float]:
    """Gamma-weighted Kummer combinations of D_v(-y) and D_v(y), without the
    2^{v/2} sqrt(pi) e^{-y^2/4} prefactor, from one pair of Kummer series.

    Both share q = y^2/2 and the noise bound, and the odd term only changes
    sign.  The series peak terms bound the rounding noise; when that noise
    exceeds 1e-8 of the combination scale (large v together with large
    |y|), the value would be silent garbage, so a NumericError naming the
    point ``(v, shown)`` is raised instead.
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
    bracket = _pcf_brackets(v, y, y)[1]
    return _SQRT_PI * math.exp(0.5 * v * _LN_2 - 0.25 * y * y) * bracket


def pcf_d_signlog(v: float, y: float) -> SignLog:
    """D_v(y) as a SignLog; overflow-safe building block for D_v^2 ratios."""
    _pcf_check(v, y)
    return _pcf_signlog(_pcf_brackets(v, y, y)[1], v, y)


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
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


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
    two Kummer series run in one call for the pair.  All four arrays hold NaN where
    :func:`pcf_d_signlog` would raise: v outside [-1, 200], ``|y| > 10`` in
    an array of y, the series cancellation guard, or a series that does not
    converge.  A scalar ``|y| > 10`` raises DomainError as in the scalar call.
    """
    if isinstance(y, np.ndarray):  # one order: every array below is over the valid y
        shape = y.shape
        ok = (np.abs(y) <= _PCF_Y_MAX) & (_PCF_V_MIN <= v <= _PCF_V_MAX)
        w, y = np.full(1, float(v)), y.astype(float)[ok]
    else:
        if abs(y) > _PCF_Y_MAX:
            raise DomainError(f"pcf_d: |y|={abs(y)} outside the validated range {_PCF_Y_MAX:g}")
        v = np.asarray(v, dtype=float)
        shape = v.shape
        ok = (v >= _PCF_V_MIN) & (v <= _PCF_V_MAX)
        w = v[ok]
    # both series of q = y^2/2 in one call; their a are the reciprocal gammas' arguments, swapped
    a = np.stack([-0.5 * w, 0.5 * (1.0 - w)])
    (m_even, m_odd), (peak_even, peak_odd) = _kummer_series_array(
        a, np.array([[0.5], [1.5]]), 0.5 * y * y)
    rg_odd, rg_even = _rgamma_array(a)
    t_even = m_even * rg_even
    noise = _REL_EPS * (peak_even * np.abs(rg_even)
                        + _SQRT_2 * abs(y) * peak_odd * np.abs(rg_odd))
    log_pref = 0.5 * w * _LN_2 - 0.25 * y * y + 0.5 * math.log(math.pi)
    t_odd = _SQRT_2 * (np.array([[-1.0], [1.0]]) * y) * m_odd * rg_odd  # rows -y, y
    scale = np.maximum(np.abs(t_even), np.abs(t_odd))
    bracket = np.where(scale == 0.0, 0.0, t_even - t_odd)
    bracket[~(noise <= 1e-8 * scale) & (scale != 0.0)] = np.nan
    zero = bracket == 0.0
    log_abs = _elementwise(math.log, np.where(zero, 1.0, np.abs(bracket)))
    sign, log_mag = np.full((2, 2) + shape, np.nan)
    sign[:, ok] = np.sign(bracket)
    log_mag[:, ok] = np.where(zero, 0.0, log_abs + log_pref)
    return sign[0], log_mag[0], sign[1], log_mag[1]


# The array paths use the scalar helpers above, so they are bound last.
from ._arrays import (_jy_array, _kahan_blocks, _sph_jy_array,  # noqa: E402
                      _sph_modified_array)
