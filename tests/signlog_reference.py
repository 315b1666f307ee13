"""Reference for the oscillator characteristic columns: the per-row SignLog composition.

`_over_pairs`, `_char_full` and `_char_reduced` are the library's earlier
implementation, kept verbatim: every row builds SignLog objects and combines
them one operation at a time.  The array kernels in `greenchain.spectrum`
claim the same operations in the same order, so their values must agree to
the bit, NaN positions included.
"""

import math
from typing import Optional, Tuple

import numpy as np

from greenchain.errors import DomainError, GreenChainError, RangeError
from greenchain.specfun import SignLog, gamma_signlog, pcf_d_pair_signlog
from greenchain.spectrum import OscillatorProblem

_LOG_MAX = 709.0
_DvPair = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _over_pairs(combine, v: np.ndarray, prob: OscillatorProblem,
                dv: Optional[_DvPair]) -> np.ndarray:
    """combine(v, D_v(-alpha), D_v(alpha), prob) at every order of v.

    The pair comes from one array evaluation (or `dv`, the same pair passed
    in by a caller that needs it twice); elements where the pair is NaN or
    where combine raises a GreenChainError are NaN.
    """
    if dv is None:
        dv = pcf_d_pair_signlog(v, prob.alpha)
    if any(len(part) != len(v) for part in dv):
        raise DomainError("the D_v pair was evaluated on a different grid")
    out = np.full(len(v), math.nan)
    for i, (vi, sm, lm, sp, lp) in enumerate(zip(v.tolist(), *(part.tolist() for part in dv))):
        if math.isnan(lm) or math.isnan(lp):
            continue
        try:
            out[i] = combine(vi, SignLog(int(sm), lm), SignLog(int(sp), lp), prob)
        except GreenChainError:
            pass
    return out


def _char_full(v: float, dm: SignLog, dp: SignLog, prob: OscillatorProblem) -> float:
    u = prob.units
    g = gamma_signlog(-v)
    dm2, dp2 = dm * dm, dp * dp
    # bracket = D_v(-a)^2 - D_v(a)^2, rescaled by the larger square
    lead = max(dm2.log_mag if dm2.sign else -math.inf,
               dp2.log_mag if dp2.sign else -math.inf)
    diff = 0.0
    if dm2.sign:
        diff += math.exp(dm2.log_mag - lead)
    if dp2.sign:
        diff -= math.exp(dp2.log_mag - lead)
    bracket = SignLog.from_value(diff)
    if bracket.sign:
        bracket = SignLog(bracket.sign, bracket.log_mag + lead)
    total = g * g * dp2 * bracket
    total = total.scaled(u.mass / (math.pi * u.hbar * u.omega0))
    if total.sign and total.log_mag > _LOG_MAX:
        raise RangeError(
            f"Delta({v}) overflows double range; use oscillator_char_reduced "
            "for scans at large v"
        )
    return total.value()


def _char_reduced(v: float, dm: SignLog, dp: SignLog, prob: OscillatorProblem) -> float:
    lm = 2.0 * dm.log_mag if dm.sign else -math.inf
    lp = 2.0 * dp.log_mag if dp.sign else -math.inf
    lead = max(lm, lp)
    em = math.exp(lm - lead) if dm.sign else 0.0
    ep = math.exp(lp - lead) if dp.sign else 0.0
    return (em - ep) / (em + ep)


def char_full_columns(v: np.ndarray, prob: OscillatorProblem,
                      dv: Optional[_DvPair] = None) -> np.ndarray:
    return _over_pairs(_char_full, v, prob, dv)


def char_reduced_columns(v: np.ndarray, prob: OscillatorProblem,
                         dv: Optional[_DvPair] = None) -> np.ndarray:
    return _over_pairs(_char_reduced, v, prob, dv)
