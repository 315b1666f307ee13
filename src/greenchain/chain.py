"""Delta-potential chains: coupling corrections and characteristic determinants.

The chain solution needs nothing beyond the free kernel evaluated at the wall
positions: the corrected Green's function is

    g(x, x') = g0(x, x') - u^T W Lambda^{-1} v,
    Lambda = I + G0 W,  W = diag(weight(a_i) * lambda_i),

and the strong-coupling (impenetrable wall) limit replaces W Lambda^{-1} with
G0^{-1}.

Every kernel is given by its factor pair, g0(x, x') = p(x_<) q(x_>), which
makes G0 a Green's (semiseparable) matrix in the sense of Gantmacher & Krein
and of Vandebril, Van Barel & Mastronardi (2008):

    det G0 = p_1 q_n prod_i d_i,   d_i = p_{i+1} q_i - p_i q_{i+1}.

The corrected kernel needs no matrix either.  A delta wall only kinks the
solutions through it, so g(x, x') = P(x_<) Q(x_>) / W[P, Q], where P equals
p left of the chain, Q equals q right of it, and one sweep across the walls
carries each.  The strong limit is the Dirichlet kernel of the interval
that holds x and x'.  All three calls then need the kernel factors at the
walls (and at x, x') only: O(n) work for any n and any kernel.  A long
chain takes its wall factors from one array call of the pair.  The dense
boundary matrix and its partial-pivot LU stay here as the reference the
tests compare against; no chain call uses them.  Determinants are
accumulated as SignLog so they survive any magnitude.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .errors import DomainError, NearPoleError, SingularMatrixError
from .greens import FreeGreens, Geometry, NATURAL_UNITS, UnitSystem
from .specfun import SignLog

_MAX_LU_ROWS = 64
# Walls from which one array call of the factor pair is no slower than the
# per-wall loop for every built-in kernel; CHANGES.md records the measured curve.
_ARRAY_WALLS = 32
_PIVOT_FLOOR = 1e-300
_NEAR_POLE_RATIO = 1e-12
_LOG_NEAR_POLE = math.log(_NEAR_POLE_RATIO)


class _AllInfinite:
    """Singleton marker: every coupling is infinite (impenetrable walls)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "ALL_INFINITE"


ALL_INFINITE = _AllInfinite()


@dataclass(frozen=True)
class DeltaChain:
    """Ordered delta-potential walls with rescaled couplings.

    `lambdas` stores the rescaled couplings 2 m mu / hbar^2 (or the
    ALL_INFINITE marker); use :meth:`from_couplings` to build a chain from
    the raw physical strengths mu_j.  Negative couplings are accepted: the
    single-wall algebra is coupling-sign agnostic and an attractive wall is
    how the bound-state pole is probed.
    """

    geometry: Geometry
    positions: tuple
    lambdas: Union[tuple, _AllInfinite]

    def __post_init__(self):
        object.__setattr__(self, "geometry", Geometry(self.geometry))
        positions = tuple(float(p) for p in self.positions)
        object.__setattr__(self, "positions", positions)
        if len(positions) < 1:
            raise DomainError("DeltaChain needs at least one wall")
        if not all(math.isfinite(p) for p in positions):
            raise DomainError("wall positions must be finite")
        for lo, hi in zip(positions, positions[1:]):
            if not lo < hi:
                raise DomainError(
                    "wall positions must be strictly increasing (coincident walls "
                    "make the boundary matrix singular)"
                )
        if self.geometry in (Geometry.CYLINDRICAL, Geometry.SPHERICAL):
            if positions[0] <= 0.0:
                raise DomainError(f"{self.geometry.value} wall positions must be positive")
        if self.lambdas is not ALL_INFINITE:
            lams = tuple(float(l) for l in self.lambdas)
            if len(lams) != len(positions):
                raise DomainError("one coupling per wall is required")
            if not all(math.isfinite(l) for l in lams):
                raise DomainError(
                    "couplings must all be finite; use ALL_INFINITE for the "
                    "strong-coupling limit (mixed chains are rejected)"
                )
            object.__setattr__(self, "lambdas", lams)

    @classmethod
    def from_couplings(cls, geometry, positions: Sequence[float],
                       couplings, units: UnitSystem = NATURAL_UNITS) -> "DeltaChain":
        """Build a chain from raw delta strengths mu_j (rescaled to 2 m mu / hbar^2)."""
        if couplings is ALL_INFINITE:
            lams = ALL_INFINITE
        else:
            scale = 2.0 * units.mass / (units.hbar * units.hbar)
            lams = tuple(scale * float(mu) for mu in couplings)
        return cls(geometry, tuple(positions), lams)

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def is_strong(self) -> bool:
        return self.lambdas is ALL_INFINITE


@dataclass(frozen=True)
class LUFactors:
    """Partial-pivoting LU of a small dense matrix.

    `lu` packs L (unit diagonal, below) and U (on and above); `perm` maps
    factored row -> original row; `parity` is the permutation sign.
    """

    lu: np.ndarray
    perm: np.ndarray
    parity: int
    norm: float
    min_pivot: float

    @property
    def n(self) -> int:
        return self.lu.shape[0]


def boundary_matrix(chain: DeltaChain, g0: FreeGreens, param: float) -> np.ndarray:
    """g0 at every wall pair, symmetric by construction; its determinant is char_func."""
    n = chain.n
    entries = np.empty((n, n), dtype=float)
    for i in range(n):
        for j in range(i, n):
            val = g0.evaluate(chain.positions[i], chain.positions[j], param)
            entries[i, j] = val
            entries[j, i] = val
        if not math.isfinite(entries[i, i]):
            raise DomainError(
                f"g0 is not finite at coincidence for wall {i}; the chain "
                "algebra requires finite diagonal entries"
            )
    return entries


def lu(A: np.ndarray) -> LUFactors:
    """LU with partial pivoting for matrices up to 64x64 (the dense reference).

    Raises SingularMatrixError when a pivot collapses below 1e-300; solves
    additionally refuse factors whose smallest pivot is within 1e-12 of the
    matrix norm (see :func:`solve`).
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise DomainError(f"lu expects a square matrix, got shape {A.shape}")
    n = A.shape[0]
    if n > _MAX_LU_ROWS:
        raise DomainError(f"lu supports at most {_MAX_LU_ROWS} rows")
    norm = float(np.abs(A).sum(axis=1).max())
    packed = A.copy()
    perm = np.arange(n)
    parity = 1
    min_pivot = math.inf
    for k in range(n):
        p = k + int(np.argmax(np.abs(packed[k:, k])))
        if p != k:
            packed[[k, p], :] = packed[[p, k], :]
            perm[[k, p]] = perm[[p, k]]
            parity = -parity
        pivot = packed[k, k]
        if abs(pivot) < _PIVOT_FLOOR:
            raise SingularMatrixError(f"singular matrix: pivot {pivot} at column {k}")
        min_pivot = min(min_pivot, abs(pivot))
        if k + 1 < n:
            packed[k + 1:, k] /= pivot
            packed[k + 1:, k + 1:] -= np.outer(packed[k + 1:, k], packed[k, k + 1:])
    return LUFactors(lu=packed, perm=perm, parity=parity, norm=norm, min_pivot=min_pivot)


def solve(factors: LUFactors, rhs: np.ndarray) -> np.ndarray:
    """Solve A x = rhs from the LU factors.

    Refuses near-singular factors (min pivot < 1e-12 * ||A||): for
    characteristic matrices that means the spectral parameter sits on a pole
    of the corrected Green's function.
    """
    if factors.min_pivot < _NEAR_POLE_RATIO * factors.norm:
        raise NearPoleError(
            "matrix is numerically singular (pivot below 1e-12 of the norm); "
            "the parameter sits on or near a characteristic root"
        )
    rhs = np.asarray(rhs, dtype=float)
    x = rhs[factors.perm].astype(float)
    n = factors.n
    packed = factors.lu
    for i in range(1, n):
        x[i] -= packed[i, :i] @ x[:i]
    for i in range(n - 1, -1, -1):
        if i + 1 < n:
            x[i] -= packed[i, i + 1:] @ x[i + 1:]
        x[i] /= packed[i, i]
    return x


def det(factors: LUFactors) -> SignLog:
    """Determinant as a SignLog: product of pivots times the permutation sign."""
    out = SignLog(factors.parity, 0.0)
    for d in np.diagonal(factors.lu):
        out = out * SignLog.from_value(float(d))
    return out


def _wall_factors(g0: FreeGreens, positions, param: float):
    """Sign and log magnitude of p(a) and q(a) at each position, as four lists.

    From _ARRAY_WALLS walls on, one array call of the factor pair evaluates
    every wall; a wall where it gives NaN is evaluated again by the scalar
    call, which raises as the per-wall loop would.  Below that the per-wall
    loop is faster.
    """
    if len(positions) >= _ARRAY_WALLS:
        parts = np.stack(g0.factors(np.array(positions), param))
        for i in np.flatnonzero(np.isnan(parts).any(axis=0)).tolist():
            p, q = g0.factors(positions[i], param)
            parts[:, i] = p.sign, p.log_mag, q.sign, q.log_mag
        sp, lp, sq, lq = parts.tolist()
    else:
        pairs = [g0.factors(a, param) for a in positions]
        sp, lp = [p.sign for p, _ in pairs], [p.log_mag for p, _ in pairs]
        sq, lq = [q.sign for _, q in pairs], [q.log_mag for _, q in pairs]
    if 0 in sp or 0 in sq:
        raise SingularMatrixError(
            "a kernel factor vanishes at a wall; the boundary matrix is singular"
        )
    return sp, lp, sq, lq


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


def _terms(coef, p: SignLog, q: SignLog):
    """The two terms of c_p p + c_q q at a point, scaled by e^-top: (t_p, t_q, top).

    `coef` holds each coefficient as (factor, log magnitude), so the solution
    is f_p e^{l_p} p + f_q e^{l_q} q; a missing term is (0.0, -inf).
    """
    (fp, lp), (fq, lq) = coef
    lp, lq = lp + p.log_mag, lq + q.log_mag
    top = max(lp, lq)
    return fp * p.sign * math.exp(lp - top), fq * q.sign * math.exp(lq - top), top


def _value(hat: float, log_mag: float) -> float:
    """hat * e^log_mag, raising RangeError past double range."""
    return (SignLog.from_value(hat) * SignLog(1, log_mag)).value()


def _sweep(walls, sigma: float):
    """Carry the solution that starts as p e^{-sigma} across the walls, in order.

    `walls` holds (sign p(a_i), sign q(a_i), sigma_i, kappa_i) with sigma_i =
    log|p(a_i)/q(a_i)| / 2 and kappa_i = weight(a_i) lambda_i |g0(a_i, a_i)|.
    The solution is held as e^L (A p e^{-s} + B q e^{s}) in the frame s of the
    last wall crossed, where p e^{-s} and q e^{s} both have magnitude
    sqrt|g0(a, a)|; each wall adds kappa_i P_i (q, -p) to (A, B), the kink
    its delta imposes (P_i is the solution at a_i in units of that
    magnitude).  Returns the coefficients on every interval from the start
    on, in `_terms` form, and the log magnitude of the largest term added to
    the p coefficient e^{L-s} A.
    """
    a, b, scale = 1.0, 0.0, 0.0
    peak = -sigma
    coefs = [((a, -sigma), (b, sigma))]
    for sp, sq, s, kappa in walls:
        d = s - sigma  # move to this wall's frame; shrink a coefficient, never grow one
        if not b or (a and d >= 0.0):
            if b:
                b *= math.exp(-2.0 * d)
            scale += d
        else:
            if a:
                a *= math.exp(2.0 * d)
            scale -= d
        sigma = s
        t = kappa * (a * sp + b * sq)
        a += t * sq
        b -= t * sp
        if t:
            peak = max(peak, scale + math.log(abs(t)) - sigma)
        m = max(abs(a), abs(b))
        a, b, scale = a / m, b / m, scale + math.log(m)
        coefs.append(((a, scale - sigma), (b, scale + sigma)))
    return coefs, peak


def _ordered(x: float, xp: float):
    """(x_<, x_>), refusing non-finite points."""
    if not (math.isfinite(x) and math.isfinite(xp)):
        raise DomainError(f"x and x' must be finite, got {x} and {xp}")
    return (x, xp) if x <= xp else (xp, x)


def greens_finite(chain: DeltaChain, g0: FreeGreens, x: float, xp: float,
                  param: float) -> float:
    """Corrected Green's function for finite couplings: g0 - u^T W Lambda^{-1} v.

    This is P(x_<) Q(x_>) / W[P, Q]: P is the solution equal to p left of
    the chain and Q the one equal to q right of it, each carried across the
    walls by the kinks the deltas impose (O(n) work, no wall cap).  The
    Wronskian is P's p coefficient A_n right of the chain; NearPoleError is
    raised when A_n cancels below 1e-12 of its largest summand, i.e. on a
    bound-state pole, and SingularMatrixError when a factor vanishes at a
    wall.
    """
    if chain.is_strong:
        raise DomainError("chain has infinite couplings; use greens_strong")
    lo, hi = _ordered(x, xp)
    positions = chain.positions
    walls = [(sp, sq, 0.5 * (lp - lq), g0.weight(a) * lam * math.exp(lp + lq))
             for sp, lp, sq, lq, a, lam in zip(*_wall_factors(g0, positions, param),
                                               positions, chain.lambdas)]
    left, peak = _sweep(walls, walls[0][2])
    (a_n, log_a), _ = left[-1]  # P's p coefficient right of the chain, a_n e^log_a
    if not a_n or log_a + math.log(abs(a_n)) < peak + _LOG_NEAR_POLE:
        raise NearPoleError(
            "the Wronskian of the wall-matched solutions cancelled below 1e-12 of "
            "its terms; the parameter sits on or near a pole of the corrected "
            "Green's function"
        )
    # Q is P's mirror image: p and q trade places and sigma changes sign
    mirrored = [(sq, sp, -s, kappa)
                for sp, sq, s, kappa in reversed(walls[bisect_left(positions, hi):])]
    sigma_n = walls[-1][2]
    q_coef, p_coef = _sweep(mirrored, -sigma_n)[0][-1]
    p1, p2, p_log = _terms(left[bisect_left(positions, lo)], *g0.factors(lo, param))
    q1, q2, q_log = _terms((p_coef, q_coef), *g0.factors(hi, param))
    # Q = q e^{sigma_n} right of the chain, so W[P, Q] = a_n e^{log_a + sigma_n}
    return _value((p1 + p2) * (q1 + q2) / a_n, p_log + q_log - log_a - sigma_n)


def _vanishing_at(sp, lp, sq, lq):
    """Coefficients of q(a) p - p(a) q, the solution that vanishes at a wall a."""
    return (sq, lq), (-sp, lp)


def greens_strong(chain: DeltaChain, g0: FreeGreens, x: float, xp: float,
                  param: float) -> float:
    """Impenetrable-wall Green's function: g0 - u^T G0^{-1} v (couplings ignored).

    This is the Dirichlet kernel of the one interval that holds x and x':
    exactly 0 when a wall lies between them (or under either), else
    h_l(x_<) h_r(x_>) / W[h_l, h_r].  h_l = q(a_k) p - p(a_k) q
    vanishes on the interval's left wall (h_l = p left of the chain), h_r
    likewise on its right wall (h_r = q right of the chain), and inside the
    chain W[h_l, h_r] = -d_k.  Raises NearPoleError when d_k cancels below
    1e-12 of its two products, i.e. on a Dirichlet level of the interval.
    """
    lo, hi = _ordered(x, xp)
    positions, n = chain.positions, chain.n
    k = bisect_left(positions, lo)
    if k < n and positions[k] <= hi:
        return 0.0
    ends = list(zip(*_wall_factors(g0, positions[max(k - 1, 0):k + 1], param)))
    one, zero = (1.0, 0.0), (0.0, -math.inf)
    h_l = _vanishing_at(*ends[0]) if k > 0 else (one, zero)
    h_r = _vanishing_at(*ends[-1]) if k < n else (zero, one)
    (fa, la), (fb, lb) = h_l
    (fc, lc), (fd, ld) = h_r
    unit = SignLog(1, 0.0)
    t1, t2, w_log = _terms(((fa * fd, la + ld), (-fb * fc, lb + lc)), unit, unit)
    if abs(t1 + t2) < _NEAR_POLE_RATIO * (abs(t1) + abs(t2)):
        raise NearPoleError(
            "an interval factor of the boundary matrix cancelled below 1e-12; "
            "the parameter sits on or near a characteristic root"
        )
    l1, l2, l_log = _terms(h_l, *g0.factors(lo, param))
    r1, r2, r_log = _terms(h_r, *g0.factors(hi, param))
    return _value((l1 + l2) * (r1 + r2) / (t1 + t2), l_log + r_log - w_log)


def char_func(chain: DeltaChain, g0: FreeGreens, param: float) -> SignLog:
    """Characteristic function det[g0(a_i, a_j)] at the given parameter."""
    return _factor_det(_wall_factors(g0, chain.positions, param))
