"""Reference for the scalar Bessel kernels: one loop per series.

`_kahan_series` (with its per-term ratio callable), `_k_cosh_integral` and
`_k01_asymptotic` are the library's earlier implementation, kept verbatim:
the trapezoids of K_0 and K_1 each run their own loop (now taken for every
x below 15 past the leading terms at tiny x, their nodes stopping where
x (cosh t - 1) reaches the cutoff), and so does each mu of the
large-argument sums.  The scalar entry points below (`bessel_i`,
`bessel_k`, `sph_modified`) compose them exactly as the library did.  The
fused loops in `greenchain.specfun` claim the same operations in the same
order, so every value must agree to the bit, and every exception in type
and message.  A test that lowers ``_MAX_TERMS`` sets it here as well as in
the library.
"""

import math

from greenchain.errors import NumericError, RangeError
from greenchain.specfun import (_ASYMPTOTIC_TERMS, _COSH_CUTOFF, _COSH_STEP, _EULER_GAMMA,
                                _K_ASYMPTOTIC_MIN, _K_TINY, _LN_2, _LOG_MAX, _LOG_TINY,
                                _MAX_TERMS, _OVERFLOW_GUARD, _REL_EPS, _SMALL_RUN,
                                _check_order, _check_positive)


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


def bessel_i(m: int, x):
    _check_order(m, "bessel_i")
    _check_positive(x, "bessel_i", 0.5)
    if x > _OVERFLOW_GUARD:
        raise RangeError(f"bessel_i: x={x} is past the overflow guard at {_OVERFLOW_GUARD:g}")
    q = 0.25 * x * x
    log_t0 = m * math.log(0.5 * x) - math.lgamma(m + 1.0)
    if log_t0 + q / (m + 1.0) < _LOG_TINY:
        return 0.0  # entire sum is below double underflow (m >> x)
    scaled = _kahan_series(1.0, lambda k: q / (k * (m + k)), "bessel_i series")
    log_val = log_t0 + math.log(scaled)
    if log_val > _LOG_MAX:
        raise RangeError(f"bessel_i({m}, {x}) overflows double range")
    return math.exp(log_val)


def _k_cosh_integral(m: int, x: float) -> float:
    """K_m(x) = integral_0^inf exp(-x cosh t) cosh(m t) dt by trapezoid.

    The integrand extends to an analytic, doubly-exponentially decaying even
    function of t, so the trapezoid rule with h = 0.2 is already converged to
    machine precision for the _K_TINY <= x < 15 band where it is used.
    """
    h, cutoff = _COSH_STEP, _COSH_CUTOFF
    total = 0.5 * math.exp(-x)  # t = 0 term carries half weight
    t = h
    while math.cosh(t) < 1.0 + cutoff / x:
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
        for k in range(1, _ASYMPTOTIC_TERMS):
            term *= (mu - (2.0 * k - 1.0) ** 2) / (8.0 * k * x)
            if abs(term) >= prev or abs(term) <= _REL_EPS * abs(total):
                break
            total += term
            prev = abs(term)
        out.append(pref * total)
    return out[0], out[1]


def bessel_k(m: int, x):
    _check_order(m, "bessel_k")
    _check_positive(x, "bessel_k", 0.5)
    if x < _K_TINY:
        k0, k1 = -(math.log(0.5 * x) + _EULER_GAMMA), 1.0 / x
    elif x < _K_ASYMPTOTIC_MIN:
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


def sph_modified(l: int, x):
    _check_order(l, "sph_modified")
    _check_positive(x, "sph_modified")
    if x > _OVERFLOW_GUARD:
        raise RangeError(f"sph_modified: x={x} is past the overflow guard at {_OVERFLOW_GUARD:g}")
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
