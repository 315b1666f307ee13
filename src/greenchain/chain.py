"""Delta-potential chains: boundary matrices, coupling corrections, determinants.

The chain solution needs nothing beyond the free kernel evaluated at the wall
positions: the corrected Green's function is

    g(x, x') = g0(x, x') - u^T W Lambda^{-1} v,
    Lambda = I + G0 W,  W = diag(weight(a_i) * lambda_i),

and the strong-coupling (impenetrable wall) limit replaces W Lambda^{-1} with
G0^{-1}.

Every built-in kernel factors as g0(x, x') = p(x_<) q(x_>), which makes G0 a
Green's (semiseparable) matrix in the sense of Gantmacher & Krein and of
Vandebril, Van Barel & Mastronardi (2008):

    det G0 = p_1 q_n prod_i d_i,   d_i = p_{i+1} q_i - p_i q_{i+1},

and T = G0^{-1} is tridiagonal in closed form.  Since Lambda = G0 (T + W),
the finite-coupling correction is one tridiagonal solve of (T + W) t = T v
(Thomas elimination with partial pivoting).  All three calls then need the
kernel factors at the n walls (and at x, x') only: O(n) work for any n.
Kernels without a factor pair (custom kernels) take the dense path -- the
boundary matrix and a partial-pivot LU of at most 64 rows -- which is also
the reference the tests compare against, and the fallback of greens_finite
when an interval factor nearly cancels.  Determinants are accumulated as
SignLog so they survive any magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import DomainError, NearPoleError, NumericError, SingularMatrixError
from .greens import FreeGreens, Geometry, NATURAL_UNITS, UnitSystem, weight
from .specfun import SignLog

_MAX_LU_ROWS = 64
_PIVOT_FLOOR = 1e-300
_NEAR_POLE_RATIO = 1e-12
# The structured finite-coupling solve loses about 1e-16 / (interval-factor
# cancellation ratio) in relative accuracy, while Lambda itself may be well
# conditioned; below this ratio the dense Lambda path is used instead.
_DENSE_FALLBACK_RATIO = 1e-6


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


def _w_lambda(chain: DeltaChain, weight_fn: Callable[[float], float]) -> np.ndarray:
    """The diagonal of W: weight(a_i) * lambda_i at every wall."""
    return np.array([weight_fn(a) * lam for a, lam in zip(chain.positions, chain.lambdas)],
                    dtype=float)


def lambda_matrix(G0: np.ndarray, chain: DeltaChain,
                  weight_fn: Optional[Callable[[float], float]] = None) -> np.ndarray:
    """Finite-coupling system matrix I + G0 W.

    The coupling of column j is scaled by the measure weight of wall j
    (Lambda_ij = delta_ij + w_j lambda_j g0(a_i, a_j)); `weight_fn` overrides
    the geometry dispatch for custom kernels.
    """
    if chain.is_strong:
        raise DomainError(
            "an all-infinite chain has no finite Lambda matrix; use the "
            "strong-coupling path"
        )
    if weight_fn is None:
        weight_fn = lambda a: weight(chain.geometry, a)
    return np.eye(chain.n) + G0 * _w_lambda(chain, weight_fn)[np.newaxis, :]


def lu(A: np.ndarray) -> LUFactors:
    """LU with partial pivoting for matrices up to 64x64 (the dense path).

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


@dataclass(frozen=True)
class _Factored:
    """Kernel factors at the walls of a chain, with its interval factors.

    Signs and log magnitudes of p(a_i), q(a_i) are kept apart so nothing has
    to leave double range; d_i = p_{i+1} q_i - p_i q_{i+1} is stored as
    exp(top_i) * dhat_i with top_i the larger log of its two products.
    """

    positions: np.ndarray
    sp: np.ndarray
    lp: np.ndarray
    sq: np.ndarray
    lq: np.ndarray
    top: np.ndarray
    dhat: np.ndarray
    cancellation: float  # smallest |d_i| / (|p_{i+1} q_i| + |p_i q_{i+1}|); inf for one wall

    def det(self) -> SignLog:
        """det G0 = p_1 q_n prod_i d_i."""
        out = SignLog(int(self.sp[0] * self.sq[-1]),
                      float(self.lp[0] + self.lq[-1] + np.sum(self.top)))
        for d in self.dhat.tolist():
            out = out * SignLog.from_value(d)
        return out

    def inverse(self):
        """Diagonal and off-diagonal of the tridiagonal T = G0^{-1}.

        T = D_q^{-1} L D_q^{-1}, with L the chain Laplacian of conductances
        q_i q_{i+1} / d_i grounded by q_1 / p_1 at the first wall:

            T_{i,i+1} = -1/d_i,
            T_ii = q_{i-1} / (q_i d_{i-1}) + q_{i+1} / (q_i d_i)  [+ 1/(p_1 q_1) at i = 1].

        Each exponent below is at most -log|g0(a_i, a_i)|, so none overflows.
        """
        sq, lq, top = self.sq, self.lq, self.top
        diag = np.zeros(len(sq))
        diag[0] = self.sp[0] * sq[0] * math.exp(-self.lp[0] - lq[0])
        ratio = sq[1:] * sq[:-1] / self.dhat
        diag[:-1] += ratio * np.exp(lq[1:] - lq[:-1] - top)
        diag[1:] += ratio * np.exp(lq[:-1] - lq[1:] - top)
        return diag, -np.exp(-top) / self.dhat

    def column(self, pair, y: float) -> np.ndarray:
        """g0(y, a_i) at every wall, from the factor pair (p(y), q(y))."""
        py, qy = pair
        left = y <= self.positions
        sign = np.where(left, py.sign * self.sq, self.sp * qy.sign)
        return sign * np.exp(np.where(left, py.log_mag + self.lq, self.lp + qy.log_mag))


def _factored(chain: DeltaChain, g0: FreeGreens, param: float) -> _Factored:
    """Evaluate the factor pair once per wall and form the interval factors."""
    pairs = [g0.factors(a, param) for a in chain.positions]
    if any(p.sign == 0 or q.sign == 0 for p, q in pairs):
        raise SingularMatrixError(
            "a kernel factor vanishes at a wall; the boundary matrix is singular"
        )
    sp = np.array([p.sign for p, _ in pairs], dtype=float)
    lp = np.array([p.log_mag for p, _ in pairs])
    sq = np.array([q.sign for _, q in pairs], dtype=float)
    lq = np.array([q.log_mag for _, q in pairs])
    la, lb = lp[1:] + lq[:-1], lp[:-1] + lq[1:]
    top = np.maximum(la, lb)
    ea, eb = np.exp(la - top), np.exp(lb - top)
    dhat = sp[1:] * sq[:-1] * ea - sp[:-1] * sq[1:] * eb
    cancellation = float(np.min(np.abs(dhat) / (ea + eb))) if len(dhat) else math.inf
    return _Factored(np.array(chain.positions), sp, lp, sq, lq, top, dhat, cancellation)


def _free_and_columns(f: _Factored, g0: FreeGreens, x: float, xp: float, param: float):
    """g0(x, x') and the wall columns u_i = g0(x, a_i), v_i = g0(a_i, x')."""
    px, pxp = g0.factors(x, param), g0.factors(xp, param)
    free = (px[0] * pxp[1] if x <= xp else pxp[0] * px[1]).value()
    return free, f.column(px, x), f.column(pxp, xp)


def _tridiag_matvec(diag, off, v):
    out = diag * v
    out[:-1] += off * v[1:]
    out[1:] += off * v[:-1]
    return out


def _tridiagonal_solve(diag, off, rhs) -> np.ndarray:
    """Solve a symmetric tridiagonal system: Thomas elimination with partial pivoting.

    Rows are swapped as in LAPACK's gtsv, which fills one extra superdiagonal;
    without the swaps an attractive wall can make a leading block of T + W
    nearly singular and the elimination loses digits silently.  Raises
    NearPoleError when a pivot of U falls below 1e-12 of the matrix norm.
    """
    a = np.abs(off)
    norm = float(np.max(np.abs(diag) + np.append(a, 0.0) + np.insert(a, 0, 0.0)))
    floor = _NEAR_POLE_RATIO * norm
    d, y = diag.tolist(), rhs.tolist()
    sub, up = off.tolist(), off.tolist()
    n = len(d)
    up2 = [0.0] * n
    for i in range(n):
        swap = i + 1 < n and abs(sub[i]) > abs(d[i])
        if swap:  # rows i and i+1 trade places; the elimination is folded in
            fact = d[i] / sub[i]
            d[i], below = sub[i], d[i + 1]
            d[i + 1] = up[i] - fact * below
            if i + 2 < n:
                up2[i] = up[i + 1]
                up[i + 1] = -fact * up2[i]
            up[i] = below
            y[i], y[i + 1] = y[i + 1], y[i] - fact * y[i + 1]
        if not abs(d[i]) > floor:
            raise NearPoleError(
                "tridiagonal pivot below 1e-12 of the norm; the parameter sits "
                "on or near a pole of the corrected Green's function"
            )
        if i + 1 < n and not swap:
            fact = sub[i] / d[i]
            d[i + 1] -= fact * up[i]
            y[i + 1] -= fact * y[i]
    t = [0.0] * n
    for i in range(n - 1, -1, -1):
        acc = y[i]
        if i + 1 < n:
            acc -= up[i] * t[i + 1]
        if i + 2 < n:
            acc -= up2[i] * t[i + 2]
        t[i] = acc / d[i]
    return np.array(t)


def _wall_vectors(chain: DeltaChain, g0: FreeGreens, x: float, xp: float, param: float):
    u = np.array([g0.evaluate(x, a, param) for a in chain.positions])
    v = np.array([g0.evaluate(a, xp, param) for a in chain.positions])
    return u, v


def _dense_finite(chain: DeltaChain, g0: FreeGreens, x: float, xp: float,
                  param: float) -> float:
    lam = lambda_matrix(boundary_matrix(chain, g0, param), chain, weight_fn=g0.weight)
    u, v = _wall_vectors(chain, g0, x, xp, param)
    t = solve(lu(lam), v)
    return g0.evaluate(x, xp, param) - float(u @ (_w_lambda(chain, g0.weight) * t))


def greens_finite(chain: DeltaChain, g0: FreeGreens, x: float, xp: float,
                  param: float) -> float:
    """Corrected Green's function for finite couplings: g0 - u^T W Lambda^{-1} v.

    With a factor pair this solves (T + W) t = T v and returns g0 - u^T W t,
    accurate to about 1e-16 / c relative, where c is the smallest interval-
    factor cancellation ratio.  Below c = 1e-6 (walls very close together
    in k0 units, or the parameter near a Dirichlet level of one interval),
    T loses the digits that Lambda may still have, so the call takes the
    dense Lambda path, which allows at most 64 walls.
    """
    if chain.is_strong:
        raise DomainError("chain has infinite couplings; use greens_strong")
    if g0.factors is None:
        return _dense_finite(chain, g0, x, xp, param)
    f = _factored(chain, g0, param)
    if f.cancellation < _DENSE_FALLBACK_RATIO:
        if chain.n > _MAX_LU_ROWS:
            raise NumericError(
                f"an interval factor cancels to {f.cancellation:.1e} of its products, "
                "too close for the structured solve, and the dense fallback allows "
                f"at most {_MAX_LU_ROWS} walls"
            )
        return _dense_finite(chain, g0, x, xp, param)
    diag, off = f.inverse()
    w = _w_lambda(chain, g0.weight)
    free, u, v = _free_and_columns(f, g0, x, xp, param)
    t = _tridiagonal_solve(diag + w, off, _tridiag_matvec(diag, off, v))
    return free - float(u @ (w * t))


def greens_strong(chain: DeltaChain, g0: FreeGreens, x: float, xp: float,
                  param: float) -> float:
    """Impenetrable-wall Green's function: g0 - u^T G0^{-1} v (couplings ignored).

    Raises NearPoleError when G0 is numerically singular: with a factor
    pair, when an interval factor d_i cancels below 1e-12 of its two
    products.
    """
    if g0.factors is None:
        G0 = boundary_matrix(chain, g0, param)
        u, v = _wall_vectors(chain, g0, x, xp, param)
        t = solve(lu(G0), v)
        return g0.evaluate(x, xp, param) - float(u @ t)
    f = _factored(chain, g0, param)
    if f.cancellation < _NEAR_POLE_RATIO:
        raise NearPoleError(
            "an interval factor of the boundary matrix cancelled below 1e-12; "
            "the parameter sits on or near a characteristic root"
        )
    diag, off = f.inverse()
    free, u, v = _free_and_columns(f, g0, x, xp, param)
    return free - float(u @ _tridiag_matvec(diag, off, v))


def char_func(chain: DeltaChain, g0: FreeGreens, param: float) -> SignLog:
    """Characteristic function det[g0(a_i, a_j)] at the given parameter."""
    if g0.factors is None:
        return det(lu(boundary_matrix(chain, g0, param)))
    return _factored(chain, g0, param).det()
