"""Reference for the scalar Kummer series: the loop before its row tables.

`_kummer_series` is the library's earlier implementation, kept verbatim: it
counts k as an int and forms each denominator (b + k)(k + 1) inline.  The
loop in `greenchain.specfun` reads those denominators from its row tables
at b = 1/2 and 3/2 and makes them inline past the tables or at any other b,
so every (sum, peak) must agree to the bit, and every exception in type and
message.  A test that lowers ``_MAX_TERMS`` sets it here as well as in the
library.
"""

from greenchain.errors import NumericError
from greenchain.specfun import _MAX_TERMS, _REL_EPS, _SMALL_RUN


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
