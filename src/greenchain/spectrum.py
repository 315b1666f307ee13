"""Root finding for characteristic functions and the spectra built from them.

The boxed-oscillator characteristic determinant factors as

    Delta(v) = (m / pi hbar w0) Gamma(-v)^2 D_v(alpha)^2
               [D_v(-alpha)^2 - D_v(alpha)^2]

with alpha the dimensionless half-box width.  Scanning the sign of the
bounded ratio r(v) = [D_v(-alpha)^2 - D_v(alpha)^2] / [D_v(-alpha)^2 +
D_v(alpha)^2] avoids both the Gamma poles and the D_v^2 overflow, but r(v)
also crosses zero at every non-negative integer v: there the two solutions
D_v(+-y) degenerate into one (their Wronskian sqrt(2pi)/Gamma(-v) vanishes),
so the determinant zero does not correspond to a two-wall Dirichlet state.
The spectrum therefore scans the even/odd wall-value factors

    even: M(-v/2, 1/2, alpha^2/2)      odd: M((1-v)/2, 3/2, alpha^2/2)

whose zeros are exactly the physical levels (the even/odd solutions of the
oscillator equation vanishing at both walls); every root of either factor is
also a sign change of r(v).

Grid scans hand the function the whole grid as one float64 array and read
back an array of the same length, NaN or infinite where a point has no
value.  Delta(v) and r(v) take arrays of v natively (one Kummer series
pass for the D_v pair), the Dirichlet solution pairs arrays of kappa (one
Bessel series pass per window, both walls stacked), and `pointwise` lifts
a scalar function: a user's, or a wall factor, which takes one order.
Brent refinement evaluates the scalar path.  Delta(v) and r(v) combine the
(sign, log) arrays of the D_v(-+alpha) pair in numpy float operations, with
exp, log and lgamma from `math` per element; a scalar order runs the same
operations on one element, so its value is bitwise the array's.

Every spectrum goes through one refine loop, `_levels`: Brent refines the
sign-change brackets of a source in ascending order until n roots are in
hand.  The oscillator's source scans nothing: level j's bracket is its
min-max bracket

    max(E_j, j - 1/2) - 1/2 <= v_j <= E_j + alpha^2/4 - 1/2,  E_j = (j pi / 2 alpha)^2

(the box level plus the minimum and maximum of the potential y^2/4, and
the free oscillator's level j) narrowed to a Ritz / Kato-Temple enclosure
of the level, with its parity factor taken at both ends on the scalar
path, as Brent takes it.  A Dirichlet spectrum scans windows in turn;
it is one interval factor of a real-energy solution pair (u1, u2) =
(sin kz / k, cos kz), (J_m, Y_m) or (j_l, y_l): u1(k, b) alone on
[0, b], and u1(k, b1) u2(k, b2) - u1(k, b2) u2(k, b1) on [b1, b2].
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, List, Optional, Tuple, Union

import numpy as np

from .errors import DomainError, GreenChainError, NumericError, RangeError
from .greens import NATURAL_UNITS, UnitSystem
from .specfun import (_KUMMER_X_MAX, _LOG_MAX, _PCF_V_MAX, SignLog, _bessel_j, _elementwise,
                      _gamma_signlog_array, _pcf_d_signlog_pair, _sph_j, bessel_jy,
                      gamma_signlog, kummer_m, pcf_d_pair_signlog, pcf_d_signlog, sph_ordinary)

_EPS = 2.220446049250313e-16
_STEP = 0.01  # grid step in v of the oscillator scans
_MAX_SCAN_ROWS = 10_000_000  # a scan table is held in memory whole


class RootKind(str, Enum):
    NODE_FACTOR = "node_factor"
    EVEN_BRACKET = "even_bracket"
    ODD_BRACKET = "odd_bracket"
    GENERIC = "generic"


@dataclass(frozen=True)
class Bracket:
    """Sign-change interval: f(lo) and f(hi) have strictly opposite signs."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"bracket endpoints must satisfy lo < hi, got [{self.lo}, {self.hi}]")
        if not (self.f_lo < 0.0 < self.f_hi or self.f_hi < 0.0 < self.f_lo):
            raise DomainError("bracket endpoint values must have opposite signs")


@dataclass(frozen=True)
class Root:
    """Refined root with its residual, source bracket and iteration count."""

    value: float
    residual: float
    bracket: Bracket
    iterations: int
    classification: RootKind = RootKind.GENERIC

    def __post_init__(self):
        if not self.bracket.lo <= self.value <= self.bracket.hi:
            raise DomainError("refined root left its bracket")


@dataclass(frozen=True)
class SpectrumLine:
    """One spectral level: the refined root plus the energy it encodes (finite)."""

    root: Root
    energy: float

    def __post_init__(self):
        if not math.isfinite(self.energy):
            raise RangeError(f"the level at {self.root.value} has non-finite energy {self.energy}")


@dataclass(frozen=True)
class OscillatorProblem:
    """Harmonic oscillator confined to a box of length `box_length`.

    Walls sit at z = 0 and z = box_length with the oscillator centered
    between them; `alpha` is the dimensionless half-box width
    sqrt(2 m w0 / hbar) * box_length / 2.
    """

    box_length: float
    units: UnitSystem = NATURAL_UNITS

    def __post_init__(self):
        if not self.box_length > 0.0:
            raise DomainError(f"box_length must be positive, got {self.box_length}")

    @cached_property
    def alpha(self) -> float:
        u = self.units
        return math.sqrt(2.0 * u.mass * u.omega0 / u.hbar) * self.box_length / 2.0

    def energy_of(self, v: float) -> float:
        return (v + 0.5) * self.units.hbar * self.units.omega0


# ----------------------------------------------------------------------
# Grid scanning and Brent refinement
# ----------------------------------------------------------------------

def pointwise(f: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    """Lift a scalar f to the array contract of the scans.

    The lifted function evaluates f at each grid point in order and returns
    a float array, with NaN wherever f raises a GreenChainError.
    """

    def lifted(xs: np.ndarray) -> np.ndarray:
        out = np.empty(len(xs))
        for i, x in enumerate(xs.tolist()):
            try:
                out[i] = f(x)
            except GreenChainError:
                out[i] = math.nan
        return out

    return lifted


def _grid_values(f: Callable[[np.ndarray], np.ndarray], xs: np.ndarray) -> np.ndarray:
    vals = np.asarray(f(xs), dtype=float)
    if vals.shape != xs.shape:
        raise DomainError(f"scan function returned shape {vals.shape} for a grid of {xs.shape}")
    return vals


def scan_sign_changes(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                      n_grid: int) -> List[Bracket]:
    """Brackets around every sign change of f on a uniform n_grid-point grid.

    f is called once with the float64 grid and returns an array of the same
    length (wrap a scalar function with :func:`pointwise`).  Grid points
    where f is NaN or infinite are skipped with a warning; a grid point where
    f is exactly zero is bracketed between its nearest non-zero neighbours.
    """
    if n_grid < 2:
        raise DomainError(f"scan needs n_grid >= 2, got {n_grid}")
    if not lo < hi:
        raise DomainError(f"scan needs lo < hi, got [{lo}, {hi}]")
    step = (hi - lo) / (n_grid - 1)
    xs = lo + np.arange(n_grid) * step
    xs[-1] = hi
    vals = _grid_values(f, xs)
    finite = np.isfinite(vals)
    for x, val in zip(xs[~finite].tolist(), vals[~finite].tolist()):
        warnings.warn(f"scan: skipping grid point {x} ({val})")
    kept = finite & (vals != 0.0)  # a zero lands between the surrounding kept points
    negative = vals[kept] < 0.0
    flips = np.flatnonzero(negative[1:] != negative[:-1]).tolist()
    x_kept, f_kept = xs[kept].tolist(), vals[kept].tolist()
    return [Bracket(x_kept[i], x_kept[i + 1], f_kept[i], f_kept[i + 1]) for i in flips]


def brent(f: Callable[[float], float], bracket: Bracket, tol: float = 1e-10,
          max_iter: int = 200) -> Root:
    """Brent root refinement (inverse quadratic / secant / bisection hybrid).

    Stops once the bracket width falls below `tol` plus machine-epsilon
    padding; never steps outside the original bracket.
    """
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"brent tolerance must be positive and finite, got {tol}")
    a, b = bracket.lo, bracket.hi
    fa, fb = bracket.f_lo, bracket.f_hi
    c, fc = a, fa
    d = e = b - a
    for it in range(1, max_iter + 1):
        if (fb > 0.0 and fc > 0.0) or (fb < 0.0 and fc < 0.0):
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            value = min(max(b, bracket.lo), bracket.hi)
            return Root(value=value, residual=abs(fb), bracket=bracket, iterations=it)
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e = d
                d = p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += tol1 if xm > 0.0 else -tol1
        fb = f(b)
    best = Root(value=min(max(b, bracket.lo), bracket.hi), residual=abs(fb),
                bracket=bracket, iterations=max_iter)
    raise NumericError(f"brent did not converge within {max_iter} iterations", best=best)


def _levels(batches: Iterable[List[Tuple[Bracket, Callable[[float], float], RootKind]]],
            n: int, tol: float, energy_of: Callable[[float], float]) -> List[SpectrumLine]:
    """First n roots from batches of (bracket, point function, RootKind).

    Each batch lists its brackets in ascending order.  Brent refines them one
    by one until n roots are in hand, and a batch is drawn only when those
    before it fell short; fewer roots are returned when the batches run out.
    A NumericError, from Brent or from drawing a batch, carries the sorted
    levels refined so far as `partial`.
    """
    if n < 1:
        raise DomainError(f"need n >= 1 roots, got {n}")
    roots: List[Root] = []

    def lines() -> List[SpectrumLine]:
        roots.sort(key=lambda r: r.value)
        return [SpectrumLine(root=r, energy=energy_of(r.value)) for r in roots[:n]]

    try:
        for br, point_f, kind in itertools.chain.from_iterable(batches):
            root = brent(point_f, br, tol=tol)
            # dataclasses.replace costs about two Bessel evaluations: skip it if it is a no-op
            roots.append(root if root.classification is kind
                         else replace(root, classification=kind))
            if len(roots) == n:
                break
    except NumericError as exc:
        exc.partial = lines()
        raise
    return lines()


# ----------------------------------------------------------------------
# Boxed-oscillator characteristic functions
# ----------------------------------------------------------------------

_Orders = Union[float, np.ndarray]


def _char_columns(v: _Orders, prob: OscillatorProblem,
                  full: bool = True) -> Tuple[np.ndarray, Optional[np.ndarray]]:
    """r(v) and, with `full`, Delta(v) as arrays (length 1 for a scalar order, which raises
    as `pcf_d_signlog`), NaN where undefined: a scan's two columns from one exponentiation
    of the D_v squares, each over e^lead, lead the larger log square (0.0 where both
    vanish); a vanishing D_v gives 0.0.
    """
    if isinstance(v, np.ndarray):
        sm, lm, sp, lp = pcf_d_pair_signlog(v, prob.alpha)
    else:
        dm, dp = _pcf_d_signlog_pair(v, prob.alpha)
        sm, lm, sp, lp = np.array([[dm.sign], [dm.log_mag], [dp.sign], [dp.log_mag]], dtype=float)
    lm2, lp2 = lm + lm, lp + lp
    lead = np.maximum(np.where(sm != 0.0, lm2, -np.inf), np.where(sp != 0.0, lp2, -np.inf))
    lead[np.isneginf(lead)] = 0.0
    em, ep = np.split(_elementwise(math.exp, np.concatenate([lm2 - lead, lp2 - lead])), 2)
    em, ep = np.where(sm != 0.0, em, 0.0), np.where(sp != 0.0, ep, 0.0)
    diff = em - ep
    with np.errstate(invalid="ignore"):
        reduced = diff / (em + ep)  # NaN where both vanish
    if not full:
        return reduced, None
    g_log = (_gamma_signlog_array(-v)[1] if isinstance(v, np.ndarray)
             else np.array([gamma_signlog(-v).log_mag]))
    log_bracket = _elementwise(math.log, np.where(diff == 0.0, 1.0, np.abs(diff))) + lead
    den = math.pi * prob.units.hbar * prob.units.omega0
    c = prob.units.mass / den if den else math.inf  # hbar w0 underflows: Delta overflows
    log_total = g_log + g_log + lp2 + log_bracket + math.log(c if c else 1.0)
    mag = _elementwise(math.exp, np.where(log_total > _LOG_MAX, np.nan, log_total))
    out = np.where((sp == 0.0) | (diff == 0.0) | (c == 0.0), 0.0, np.sign(diff) * mag)
    out[np.isnan(g_log)] = np.nan  # the Gamma(-v) poles
    return reduced, out


def oscillator_char_full(v: _Orders, prob: OscillatorProblem) -> _Orders:
    """Determinant Delta(v) of the two-wall oscillator boundary matrix.

    Gamma(-v)^2 D_v(alpha)^2 [D_v(-alpha)^2 - D_v(alpha)^2] m / (pi hbar w0)
    is summed in log space, the bracket rescaled by the larger square, and
    exponentiated once at the end.  It diverges at the Gamma(-v) poles
    (DomainError at non-negative integer v) and overflows double range once
    v is large (RangeError suggesting the reduced form).

    For an array of orders the result is an array, NaN wherever the scalar
    call raises.  A scalar order runs the same array operations on one
    element, so both give bitwise the same values.
    """
    out = _char_columns(v, prob)[1]
    if isinstance(v, np.ndarray):
        return out
    if math.isnan(out[0]):
        raise RangeError(f"Delta({v}) overflows double range; use oscillator_char_reduced "
                         "for scans at large v")
    return float(out[0])


def oscillator_char_reduced(v: _Orders, prob: OscillatorProblem) -> _Orders:
    """Bounded reduced ratio r(v) in [-1, 1] sharing the sign of Delta(v).

    The two log squares are rescaled by their common maximum before they are
    exponentiated, so r(v) is overflow-free across the whole validated order
    range.  Note r(v) also vanishes at every non-negative integer v, where
    the two parabolic cylinder solutions degenerate; those crossings are not
    spectrum points (see oscillator_spectrum).  Where D_v(-alpha) and
    D_v(alpha) both vanish (alpha = 0 at odd integer v) r(v) has no value:
    NumericError for a scalar order, NaN in an array.  Arrays of orders work
    as in :func:`oscillator_char_full`.
    """
    out = _char_columns(v, prob, full=False)[0]
    if isinstance(v, np.ndarray):
        return out
    if math.isnan(out[0]):
        raise NumericError(f"r({v}) is 0/0: D_v(-alpha) and D_v(alpha) both vanish "
                           f"at alpha = {prob.alpha}")
    return float(out[0])


def even_wall_value(v: float, prob: OscillatorProblem) -> float:
    """Wall value of the even-parity oscillator solution, M(-v/2, 1/2, alpha^2/2).

    Proportional to D_v(-alpha) + D_v(alpha) with a factor that never
    vanishes at non-integer v; its zeros are exactly the even levels of the
    boxed oscillator.  Takes one order; lift it with :func:`pointwise` to
    scan a grid, as :func:`oscillator_spectrum` does.
    """
    return kummer_m(-0.5 * v, 0.5, 0.5 * (prob.alpha * prob.alpha))


def odd_wall_value(v: float, prob: OscillatorProblem) -> float:
    """Wall value of the odd-parity oscillator solution, M((1-v)/2, 3/2, alpha^2/2).

    Proportional to D_v(-alpha) - D_v(alpha); its zeros are the odd levels.
    Takes one order, like :func:`even_wall_value`.
    """
    return kummer_m(0.5 * (1.0 - v), 1.5, 0.5 * (prob.alpha * prob.alpha))


def _node_factor_roots(prob: OscillatorProblem, v_hi: float, tol: float) -> List[Root]:
    """Zeros of the node factor D_v(alpha) in v, refined on a rescaled surrogate.

    The signs on the grid come from one array evaluation of D_v(alpha); a
    grid point without a value raises NumericError.  Each bracket is refined
    on D_v(alpha) divided by the larger of its two endpoint magnitudes.
    """
    alpha = prob.alpha

    def signs(vs: np.ndarray) -> np.ndarray:
        sign = pcf_d_pair_signlog(vs, alpha)[2]
        missing = np.isnan(sign)
        if missing.any():
            raise NumericError(f"D_v({alpha}) has no accurate value at v = "
                               f"{vs[missing][0]} on the node-factor grid")
        return sign

    def rescaled(s: SignLog, lead: float) -> float:
        return s.sign * math.exp(min(s.log_mag - lead, 0.0)) if s.sign else 0.0

    roots: List[Root] = []
    n_grid = max(2, int(round(v_hi / _STEP)) + 1)
    for br in scan_sign_changes(signs, 0.0, v_hi, n_grid):
        ends = pcf_d_signlog(br.lo, alpha), pcf_d_signlog(br.hi, alpha)
        lead = max(end.log_mag for end in ends)
        surrogate = lambda v, _lead=lead: rescaled(pcf_d_signlog(v, alpha), _lead)
        root = brent(surrogate, Bracket(br.lo, br.hi, *(rescaled(end, lead) for end in ends)),
                     tol=tol)
        roots.append(replace(root, classification=RootKind.NODE_FACTOR))
    return roots


def _level_enclosures(alpha: float, levels: range) -> Tuple[List[float], List[float]]:
    """Lower and upper bounds in v of `levels`, the levels of one parity from its first.

    In y in [-alpha, alpha] the levels are the eigenvalues E = v + 1/2 of
    H = -d^2/dy^2 + y^2/4.  H is projected on the first N = len(levels) + 16
    box sines of the parity (odd k for odd j, even k for even j), whose
    entries are, with w = 2 alpha the box width,

        H_kk = (k pi / w)^2 + w^2 (1/12 - 1/(2 k^2 pi^2)) / 4,
        H_km = (w / pi)^2 2 k m / (k^2 - m^2)^2   (k != m).

    The Ritz value theta_i bounds level i from above (Poincare min-max).
    The residual norm eta_i of its Ritz vector c is bounded by the rows
    k <= M = 4 N taken exactly and, past them, by |r_k| <= C / k^3 with
    C = 2 (w / pi)^2 (16/9) sum_m m |c_m|, whose tail sums to at most
    C^2 / (5 M^5).  With beta the min-max lower bound of the next level of
    the parity and a = theta_{i-1} (-inf for the first), Kato-Temple gives
    E >= theta_i - eta_i^2 / (beta - theta_i) when (beta - theta_i)
    (theta_i - a) > eta_i^2.  Both bounds are padded by 1e-9 (1 + max theta)
    for the rounding of eigh and the noise of the refined roots.  A bound
    that cannot be had is -inf or inf: both, at alpha = 0 or where eigh
    fails; the lower one, where the Kato-Temple condition fails.
    """
    n = len(levels)
    lower, upper = [-math.inf] * n, [math.inf] * n
    if not (n and alpha > 0.0):
        return lower, upper
    size = n + 16
    w2 = (2.0 * alpha) ** 2
    scale = w2 / (math.pi * math.pi)
    k = levels.start + 2.0 * np.arange(2 * size)  # the rows k <= M of the parity
    basis = k[:size]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        h = (2.0 * scale) * np.outer(k, basis) / (k[:, None] ** 2 - basis ** 2) ** 2
        np.fill_diagonal(h, (basis * math.pi / (2.0 * alpha)) ** 2
                         + 0.25 * w2 * (1.0 / 12.0 - 0.5 / (math.pi * math.pi * basis * basis)))
    if not np.isfinite(h).all():
        return lower, upper
    try:
        theta, vecs = np.linalg.eigh(h[:size])
    except np.linalg.LinAlgError:
        return lower, upper
    c = vecs[:, :n]
    resid = h @ c
    resid[:size] -= theta[:n] * c
    tail = (2.0 * scale * 16.0 / 9.0) * (basis @ np.abs(c))
    eta2 = (resid * resid).sum(axis=0) + tail * tail / (5.0 * (4.0 * size) ** 5)
    pad = 1e-9 * (1.0 + float(theta[n - 1]))
    a = -math.inf
    for i, (j, t, e2) in enumerate(zip(levels, theta[:n].tolist(), eta2.tolist())):
        beta = max((0.5 * (j + 2) * math.pi) ** 2 / (alpha * alpha), j + 1.5)
        if beta > t and (beta - t) * (t - a) > e2:
            lower[i] = t - e2 / (beta - t) - 0.5 - pad
        upper[i] = t - 0.5 + pad
        a = t
    return lower, upper


def _minmax_brackets(prob: OscillatorProblem, n: int):
    """The boxed oscillator's brackets for `_levels`: one pass over the levels in order.

    Level j's bracket is its min-max bracket (see oscillator_spectrum)
    narrowed to its `_level_enclosures` and clipped at _PCF_V_MAX, with the
    scalar wall factor that Brent refines evaluated once at each end.  A
    parity's enclosures are built at its first level, once that level's
    min-max bracket starts at or below _PCF_V_MAX.  The levels end quietly at
    the first bracket that starts past _PCF_V_MAX, is empty after the clip or
    has ends of one sign.  A level without a finite enclosure, or with an end
    where its wall factor has no value, may lie anywhere in its min-max
    bracket: NumericError naming it ends the levels there.
    """
    a2 = prob.alpha * prob.alpha
    walls = ((lambda v: even_wall_value(v, prob), RootKind.EVEN_BRACKET),
             (lambda v: odd_wall_value(v, prob), RootKind.ODD_BRACKET))
    enclosures = []  # per parity, (lower, upper) of its levels from the first
    for j in range(1, n + 1):
        box = (0.5 * j * math.pi) ** 2 / a2 if a2 else math.inf
        lo = max(box, j - 0.5) - 0.5
        if lo > _PCF_V_MAX:
            return
        if j <= 2:  # the first level of its parity
            enclosures.append(zip(*_level_enclosures(prob.alpha, range(j, n + 1, 2))))
        below, above = next(enclosures[(j - 1) % 2])
        if not (math.isfinite(below) and math.isfinite(above)):
            raise NumericError(f"oscillator level {j}: no finite Ritz / Kato-Temple enclosure")
        f, kind = walls[(j - 1) % 2]
        lo, hi = max(lo, below), min(box + 0.25 * a2 - 0.5, above, _PCF_V_MAX)
        if not lo < hi:
            return
        f_lo, f_hi = pointwise(f)(np.array([lo, hi])).tolist()
        if not (math.isfinite(f_lo) and math.isfinite(f_hi)):
            raise NumericError(f"oscillator level {j}: the wall factor has no value at an end "
                               f"of its enclosure [{lo}, {hi}]")
        if not (f_lo < 0.0 < f_hi or f_hi < 0.0 < f_lo):
            return
        yield [(Bracket(lo, hi, f_lo, f_hi), f, kind)]


def oscillator_spectrum(prob: OscillatorProblem, n_roots: int, tol: float = 1e-10,
                        include_node_factor: bool = False) -> List[SpectrumLine]:
    """First `n_roots` levels of the boxed oscillator, energies attached.

    Brackets each level in a zero of its even/odd wall-value factor, refines
    it with Brent to the tolerance `tol` in v, and classifies the root by the
    factor that produced it.  Level j lies in its min-max bracket

        max(E_j, j - 1/2) - 1/2 <= v <= E_j + alpha^2/4 - 1/2,  E_j = (j pi / 2 alpha)^2,

    narrowed to an enclosure of the level: the Rayleigh-Ritz value in the
    first len(levels) + 16 box sines of the parity above, the Kato-Temple
    bound below, both padded by 1e-9 (1 + max theta); see
    `_level_enclosures`.  The enclosure, clipped at v = 200, is the bracket
    Brent starts from, so a level costs two wall-factor evaluations plus
    Brent.  The levels are taken in order, and a parity's eigenproblem is
    built only if one of its levels starts below v = 200.  The degenerate
    integer-v zeros of the reduced ratio never enter because the wall-value
    factors do not vanish there; node-factor zeros (D_v(alpha) = 0) are left
    out, and with `include_node_factor` a 0.01-step scan reports them flagged.

    alpha^2/2 > 50 raises DomainError first.  Fewer than `n_roots` levels are
    returned when the validated order range v <= 200 is exhausted first.  A
    level without a finite enclosure (where eigh fails or the Kato-Temple
    condition fails) or with an end where its factor has no value raises
    NumericError naming it; that error, and one from Brent, carry the levels
    below the failure as `partial`; one from the node-factor scan carries all
    the levels.
    """
    if not 0.5 * (prob.alpha * prob.alpha) <= _KUMMER_X_MAX:
        raise DomainError(f"alpha = {prob.alpha}: alpha^2/2 is past {_KUMMER_X_MAX:g}, "
                          "the validated range of kummer_m")
    if not 1 <= n_roots <= 12:
        raise DomainError(f"n_roots must be in [1, 12], got {n_roots}")

    lines = _levels(_minmax_brackets(prob, n_roots), n_roots, tol, prob.energy_of)
    if include_node_factor:
        v_hi = lines[-1].root.value + 1.0 if lines else _PCF_V_MAX
        try:
            nodes = _node_factor_roots(prob, min(v_hi, _PCF_V_MAX), tol)
        except NumericError as exc:
            exc.partial = lines  # the levels are refined already
            raise
        lines += [SpectrumLine(root=r, energy=prob.energy_of(r.value)) for r in nodes]
        lines.sort(key=lambda line: line.root.value)
    return lines


# ----------------------------------------------------------------------
# Dirichlet spectra: one interval factor of a real-energy solution pair
# ----------------------------------------------------------------------

def _sine_solution(kappa, z):
    """sin(kappa z) / kappa, the box's u1; at an array of kappa in one call."""
    if isinstance(kappa, np.ndarray):
        return _elementwise(math.sin, kappa * z) / kappa
    return math.sin(kappa * z) / kappa


def _bessel_solution(mode: int, spherical: bool, pair: bool):
    """J_m, or j_l if `spherical`, of (kappa, z); with `pair`, (J_m, Y_m) or (j_l, y_l).

    At arrays of kappa and z the solution is one array call of the special function.
    """
    if mode < 0:
        raise DomainError(f"order must be a non-negative integer, got {mode}")
    if spherical:
        if pair:
            return lambda kappa, z: sph_ordinary(mode, kappa * z)
        return lambda kappa, z: _sph_j(mode, kappa * z)
    if pair:
        return lambda kappa, z: bessel_jy(mode, kappa * z)
    return lambda kappa, z: _bessel_j(mode, kappa * z)


def _interval_spectrum(solution, walls: Tuple[float, ...], step: float, hi: float, n: int,
                       units: UnitSystem, tol: float) -> List[SpectrumLine]:
    """First n roots in kappa of the interval factor of a real-energy solution pair (u1, u2).

    `solution(kappa, z)` is u1 for one wall b and the pair (u1, u2) for two
    walls b1 < b2, at a scalar kappa or, bitwise the same, at arrays of kappa
    and z.  Windows as wide as the first, [step / 4, hi], are scanned in
    turn, each in one call of `solution` that stacks both walls; the scan
    stops after _MAX_SCAN_ROWS grid points, and Brent refines kappa to
    tol / L, L being b or b2 - b1, on the scalar path.  A length whose step
    is not positive, or whose first window or row budget has no finite end,
    raises DomainError before the scan.
    """
    b1, b2 = walls[0], walls[-1]
    length = b2 - b1 if len(walls) == 2 else b2
    lo = 0.25 * step
    end = lo + _MAX_SCAN_ROWS * step
    if not (0.0 < step and hi < math.inf and end < math.inf):
        raise DomainError(f"length {length} gives no finite kappa scan grid "
                          f"(step {step}, first window end {hi})")
    if len(walls) == 1:
        f = lambda kappa: solution(kappa, b2)
    else:
        def f(kappa):
            if isinstance(kappa, np.ndarray):
                n = kappa.size
                u1, u2 = solution(np.concatenate([kappa, kappa]), np.repeat([b1, b2], n))
                (u1_b1, u1_b2), (u2_b1, u2_b2) = np.split(u1, 2), np.split(u2, 2)
                with np.errstate(over="ignore", invalid="ignore"):  # as float products do
                    return u1_b1 * u2_b2 - u1_b2 * u2_b1
            (u1_b1, u2_b1), (u1_b2, u2_b2) = solution(kappa, b1), solution(kappa, b2)
            return u1_b1 * u2_b2 - u1_b2 * u2_b1

    def windows():
        lo_w, hi_w, width = lo, hi, hi - lo
        while lo_w < end:
            hi_w = min(hi_w, end)
            n_grid = max(2, int(round((hi_w - lo_w) / step)) + 1)
            brackets = scan_sign_changes(f, lo_w, hi_w, n_grid)
            yield [(br, f, RootKind.GENERIC) for br in brackets]
            lo_w, hi_w = hi_w, hi_w + width

    hb2m = units.hbar * units.hbar / (2.0 * units.mass)
    return _levels(windows(), n, tol / length, lambda k: hb2m * k * k)


def box_spectrum_rect(a: float, n: int, units: UnitSystem = NATURAL_UNITS,
                      tol: float = 1e-12) -> List[SpectrumLine]:
    """Dirichlet box levels from the continued rectangular characteristic function.

    Under k0 -> i kappa the two-wall determinant (1 - e^{-2 k0 a})/(4 k0^2)
    becomes sin(kappa a)/kappa up to constant factors; its positive roots
    kappa_j = j pi / a carry energies hbar^2 kappa^2 / (2 m); `tol` bounds kappa a.
    """
    if not 0.0 < a < math.inf:
        raise DomainError(f"box length must be positive and finite, got {a}")
    return _interval_spectrum(_sine_solution, (a,),
                              math.pi / (8.0 * a), (n + 0.75) * math.pi / a, n, units, tol)


def cyl_dirichlet_spectrum(b: float, mode: int, n: int,
                           units: UnitSystem = NATURAL_UNITS,
                           tol: float = 1e-12) -> List[SpectrumLine]:
    """First n roots of J_mode(kappa b): the Dirichlet disk spectrum; `tol` bounds kappa b."""
    if not 0.0 < b < math.inf:
        raise DomainError(f"radius must be positive and finite, got {b}")
    return _interval_spectrum(_bessel_solution(mode, spherical=False, pair=False), (b,), 0.3 / b,
                              ((n + 1.25) * math.pi + mode + 2.0) / b, n, units, tol)


def sph_dirichlet_spectrum(c: float, mode: int, n: int,
                           units: UnitSystem = NATURAL_UNITS,
                           tol: float = 1e-12) -> List[SpectrumLine]:
    """First n roots of j_mode(kappa c): the Dirichlet ball spectrum; `tol` bounds kappa c."""
    if not 0.0 < c < math.inf:
        raise DomainError(f"radius must be positive and finite, got {c}")
    return _interval_spectrum(_bessel_solution(mode, spherical=True, pair=False), (c,), 0.3 / c,
                              ((n + 1.25) * math.pi + mode + 2.0) / c, n, units, tol)


def cyl_annulus_spectrum(b1: float, b2: float, mode: int, n: int,
                         units: UnitSystem = NATURAL_UNITS,
                         tol: float = 1e-12) -> List[SpectrumLine]:
    """Annulus Dirichlet spectrum from the J/Y cross product.

    Roots of J_m(k b1) Y_m(k b2) - J_m(k b2) Y_m(k b1), the oscillatory
    continuation of the two-wall cylindrical determinant; `tol` bounds kappa (b2 - b1).
    """
    if not 0.0 < b1 < b2 < math.inf:
        raise DomainError(f"annulus radii must satisfy 0 < b1 < b2 < inf, got ({b1}, {b2})")
    return _interval_spectrum(_bessel_solution(mode, spherical=False, pair=True), (b1, b2),
                              math.pi / (8.0 * (b2 - b1)),
                              (n + 1.5) * math.pi / (b2 - b1), n, units, tol)


def sph_shell_spectrum(c1: float, c2: float, mode: int, n: int,
                       units: UnitSystem = NATURAL_UNITS,
                       tol: float = 1e-12) -> List[SpectrumLine]:
    """Spherical-shell Dirichlet spectrum, the j/y cross product; `tol` bounds kappa (c2 - c1)."""
    if not 0.0 < c1 < c2 < math.inf:
        raise DomainError(f"shell radii must satisfy 0 < c1 < c2 < inf, got ({c1}, {c2})")
    return _interval_spectrum(_bessel_solution(mode, spherical=True, pair=True), (c1, c2),
                              math.pi / (8.0 * (c2 - c1)),
                              (n + 1.5) * math.pi / (c2 - c1), n, units, tol)


def delta_well_bound_state(mu: float, units: UnitSystem = NATURAL_UNITS) -> Optional[SpectrumLine]:
    """Bound state of a single attractive delta well at the pole of 1 + lambda/(2 k0).

    Returns None for repulsive (or zero) coupling: the corrected kernel has
    no pole on the positive k0 axis then.  The pole sits at k0 = -lambda/2
    and carries energy -hbar^2 k0^2 / (2 m) = -m mu^2 / (2 hbar^2).
    RangeError where lambda = 2 m mu / hbar^2 is infinite, or so small that
    the Brent tolerance 1e-13 |lambda| underflows to 0.
    """
    if mu >= 0.0:
        return None
    lam = 2.0 * units.mass * mu / (units.hbar * units.hbar)
    if not (1e-13 * abs(lam) > 0.0 and abs(lam) < math.inf):
        raise RangeError(f"delta well: lambda = 2 m mu / hbar^2 = {lam} leaves double range")

    def f(k0: float) -> float:
        return 1.0 + lam / (2.0 * k0)

    lo, hi = abs(lam) * 1e-9, abs(lam)
    root = brent(f, Bracket(lo, hi, f(lo), f(hi)), tol=1e-13 * abs(lam))
    k = root.value
    return SpectrumLine(root=root, energy=-units.hbar * units.hbar * k * k / (2.0 * units.mass))


def scan_grid(lo: float, hi: float, step: float) -> np.ndarray:
    """The orders lo, lo + step, ... of a scan table; empty when lo == hi.

    The last point is lo + n step with n = round((hi - lo) / step); more
    than ten million points raise DomainError.
    """
    if not 0.0 < step < math.inf:
        raise DomainError(f"step must be positive and finite, got {step}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"scan range must be finite, got [{lo}, {hi}]")
    if hi < lo:
        raise DomainError(f"scan range needs lo <= hi, got [{lo}, {hi}]")
    if hi == lo:
        return np.empty(0)
    steps = (hi - lo) / step
    if not steps < _MAX_SCAN_ROWS:
        raise DomainError(f"[{lo}, {hi}] at step {step} exceeds {_MAX_SCAN_ROWS} rows")
    return lo + np.arange(int(round(steps)) + 1) * step


def char_scan_table(f: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
                    step: float) -> List[Tuple[float, Optional[float], Optional[int]]]:
    """Deterministic (param, |f|, sign) rows for CSV emission.

    f is called once with the :func:`scan_grid` array and returns an array
    of the same length (wrap a scalar function with :func:`pointwise`).
    Rows where f is NaN or infinite carry None cells.  An empty range
    (lo == hi) yields no rows.
    """
    xs = scan_grid(lo, hi, step)
    if not xs.size:
        return []
    rows: List[Tuple[float, Optional[float], Optional[int]]] = []
    for x, val in zip(xs.tolist(), _grid_values(f, xs).tolist()):
        if math.isfinite(val):
            sign = 0 if val == 0.0 else (1 if val > 0.0 else -1)
            rows.append((x, abs(val), sign))
        else:
            rows.append((x, None, None))
    return rows
