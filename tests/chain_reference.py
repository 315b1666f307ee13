"""Reference for the chain determinant and the scaling of a chain result.

`_factor_det` and `_value` are the library's earlier implementations, kept
verbatim: the determinant forms every interval factor d_i in numpy arrays and
multiplies one SignLog per wall, and `_value` scales a result through two
SignLogs.  `char_func` is the earlier call around `_factor_det`, inside its
`np.errstate` context.  The library's single float pass must give the same
sign, exact zero and exception as `char_func` here and a log magnitude within
1e-12 of it, and its Green's functions must equal, bit for bit, the ones
computed with `_value` patched in.
"""

import math

import numpy as np

from greenchain.chain import _wall_factors
from greenchain.errors import RangeError
from greenchain.specfun import SignLog


def _factor_det(factors) -> SignLog:
    """det G0 = p_1 q_n prod_i d_i, with d_i = p_{i+1} q_i - p_i q_{i+1}."""
    sp, lp, sq, lq = (np.array(part, dtype=float) for part in factors)
    la, lb = lp[1:] + lq[:-1], lp[:-1] + lq[1:]
    top = np.maximum(la, lb)
    dhat = sp[1:] * sq[:-1] * np.exp(la - top) - sp[:-1] * sq[1:] * np.exp(lb - top)
    out = SignLog(int(sp[0] * sq[-1]), float(lp[0] + lq[-1] + np.sum(top)))
    for d in dhat.tolist():
        out = out * SignLog.from_value(d)
    return out


def _checked(out: SignLog, param: float) -> SignLog:
    """char_func's check of the determinant's log magnitude."""
    if not math.isfinite(out.log_mag):
        raise RangeError(f"char_func at parameter {param}: log|det G0| is not a finite double")
    return out


def factor_det(factors, param: float) -> SignLog:
    """`_factor_det` as char_func ran it: in `np.errstate`, then checked."""
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf: raised below
        out = _factor_det(factors)
    return _checked(out, param)


def char_func(chain, g0, param: float) -> SignLog:
    """Characteristic function det[g0(a_i, a_j)] at the given parameter."""
    return factor_det(_wall_factors(g0, chain.positions, param), param)


def _value(hat: float, log_mag: float, param: float) -> float:
    """hat * e^log_mag, raising RangeError past double range or where it is not finite."""
    out = (SignLog.from_value(hat) * SignLog(1, log_mag)).value()
    if not math.isfinite(out):  # a factor's log or a weight left double range: inf - inf
        raise RangeError(f"the Green's function at parameter {param} is not a finite double")
    return out
