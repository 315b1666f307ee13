"""Free-space reduced Green's functions for the four concrete geometries.

Each kernel solves its 1D radial/axial operator with a unit delta source and
decaying (or regular/recessive) boundary behaviour, in the evanescent regime
where the spectral parameter k0 is real and positive:

* rectangular:  exp(-k0 |z - z'|) / (2 k0)
* cylindrical:  I_m(k0 r_<) K_m(k0 r_>)
* spherical:    (2 k0 / pi) i_l(k0 r_<) k_l(k0 r_>)
* oscillator:   (1/2) sqrt(hbar/(pi m w0)) Gamma(-v) D_v(-y_<) D_v(y_>),
                y = sqrt(2 m w0 / hbar) (z - center)

At energy hbar w the spectral parameter of the first three is
k0^2 = kx^2 + ky^2 - 2 m w / hbar (rectangular, with transverse wavenumbers
kx, ky), kz^2 - 2 m w / hbar (cylindrical, axial kz) or -2 m w / hbar
(spherical); k0^2 <= 0 belongs to the oscillatory continuation handled by
the spectrum module.

All prefactors are fixed by the unit jump condition of the measure-weighted
radial derivative at coincidence (equivalently by the Wronskian of the two
homogeneous solutions), so every kernel here feeds the same chain algebra
without per-geometry rescaling.

Each kernel has the form g0(x, x') = p(x_<) q(x_>).  The `*_factors`
functions return that pair at a position, in SignLog form so it survives
any magnitude; the `g0_*` kernels and `FreeGreens.evaluate` are built from
them, and the chain algebra uses them directly.  Given a numpy array of
positions, each returns the pair at every position in one array call, as
four float arrays (sign p, log|p|, sign q, log|q|): element i is bitwise
the scalar pair at position i, and NaN in all four where the scalar call
raises for that position.  A spectral parameter or order the scalar call
rejects raises as in the scalar call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional, Tuple

import numpy as np

from . import specfun
from ._arrays import _ik_array
from .errors import DomainError, GreenChainError


class Geometry(str, Enum):
    RECTANGULAR = "rectangular"
    CYLINDRICAL = "cylindrical"
    SPHERICAL = "spherical"
    OSCILLATOR = "oscillator"
    CUSTOM = "custom"


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants of the problem; defaults are natural units."""

    hbar: float = 1.0
    mass: float = 1.0
    omega0: float = 1.0

    def __post_init__(self):
        for name in ("hbar", "mass", "omega0"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"UnitSystem.{name} must be positive and finite")


NATURAL_UNITS = UnitSystem()


def _k0_value(k0) -> float:
    k = float(k0)
    if not 0.0 < k < math.inf:
        raise DomainError(f"k0 must be positive and finite, got {k}")
    return k


def weight(geometry, position: float) -> float:
    """Measure weight multiplying the coupling in the Lambda matrix: 1, rho or r^2."""
    g = Geometry(geometry)
    if g in (Geometry.CYLINDRICAL, Geometry.SPHERICAL):
        if not position > 0.0:
            raise DomainError(f"{g.value} position must be positive, got {position}")
        return position if g is Geometry.CYLINDRICAL else position * position
    return 1.0


def _kernel(factors, x: float, xp: float, *args) -> specfun.SignLog:
    """g0(x, x') = p(x_<) q(x_>) from a factor pair."""
    lo, hi = (x, xp) if x <= xp else (xp, x)
    p, _ = factors(lo, *args)
    _, q = factors(hi, *args)
    return p * q


def _pair_parts(p: np.ndarray, q: np.ndarray, bad: np.ndarray):
    """The four arrays of a factor pair from the values p and q, as ``SignLog.from_value``
    makes them, NaN in all four where `bad` or either value is NaN (the scalar call
    raises there)."""
    values = np.stack([p, q])
    zero = values == 0.0
    logs = specfun._elementwise(math.log, np.where(zero, 1.0, np.abs(values)))
    out = np.empty((4, p.size))
    out[0::2] = np.sign(values)
    out[1::2] = np.where(zero, 0.0, logs)
    out[:, bad | np.isnan(values).any(axis=0)] = np.nan
    return tuple(part.reshape(p.shape) for part in out)


def rect_factors(z, k0):
    """Rectangular factor pair (exp(k0 z), exp(-k0 z) / (2 k0)), kept in log form."""
    k = _k0_value(k0)
    if isinstance(z, np.ndarray):
        z = z.astype(float)
        return np.ones(z.shape), k * z, np.ones(z.shape), -k * z - math.log(2.0 * k)
    return specfun.SignLog(1, k * z), specfun.SignLog(1, -k * z - math.log(2.0 * k))


def cyl_factors(rho, k0, mode: int = 0):
    """Cylindrical factor pair (I_m(k0 rho), K_m(k0 rho))."""
    k = _k0_value(k0)
    if isinstance(rho, np.ndarray):
        specfun._check_order(mode, "bessel_i")
        rho = rho.astype(float)
        return _pair_parts(*_ik_array(mode, k * rho), ~(rho > 0.0))
    if not rho > 0.0:
        raise DomainError(f"cylindrical radius must be positive, got {rho}")
    return (specfun.SignLog.from_value(specfun.bessel_i(mode, k * rho)),
            specfun.SignLog.from_value(specfun.bessel_k(mode, k * rho)))


def sph_factors(r: float, k0, mode: int = 0) -> Tuple[specfun.SignLog, specfun.SignLog]:
    """Spherical factor pair ((2 k0/pi) i_l(k0 r), k_l(k0 r)).

    The 2 k0/pi prefactor and overall sign are pinned by the jump condition
    r'^2 [d_r g]_{r'-}^{r'+} = -1 for the -delta(r - r')/r^2 source in the
    i_l/k_l convention of :mod:`greenchain.specfun`.
    """
    k = _k0_value(k0)
    if isinstance(r, np.ndarray):
        r = r.astype(float)
        il, kl = specfun.sph_modified(mode, k * r)
        return _pair_parts((2.0 * k / math.pi) * il, kl, ~(r > 0.0))
    if not r > 0.0:
        raise DomainError(f"spherical radius must be positive, got {r}")
    il, kl = specfun.sph_modified(mode, k * r)
    return specfun.SignLog.from_value((2.0 * k / math.pi) * il), specfun.SignLog.from_value(kl)


def osc_factors(z: float, v: float, units: UnitSystem = NATURAL_UNITS,
                center: float = 0.0) -> Tuple[specfun.SignLog, specfun.SignLog]:
    """Oscillator factor pair ((1/2) sqrt(hbar/(pi m w0)) Gamma(-v) D_v(-y), D_v(y)).

    y = sqrt(2 m w0 / hbar) (z - center).  The prefactor gives the unit
    derivative jump that the chain algebra assumes; Gamma(-v) makes
    non-negative integer v a pole (DomainError).
    """
    if not math.isfinite(v):
        raise DomainError(f"oscillator order v must be finite, got {v}")
    beta = math.sqrt(2.0 * units.mass * units.omega0 / units.hbar)
    y = beta * (z - center)
    pref = 0.5 * math.sqrt(units.hbar / (math.pi * units.mass * units.omega0))
    gam = specfun.gamma_signlog(-v)
    if isinstance(y, np.ndarray):
        specfun._pcf_check(v, 0.0)  # an order outside [-1, 200] raises for every position
        sm, lm, sp, lp = specfun.pcf_d_pair_signlog(v, y)
        # SignLog product then .scaled(pref): an exact zero keeps log_mag 0.0
        return (gam.sign * sm, np.where(sm == 0.0, 0.0, (gam.log_mag + lm) + math.log(pref)),
                sp, lp)
    d_minus, d_plus = specfun._pcf_d_signlog_pair(v, y)
    return (gam * d_minus).scaled(pref), d_plus


def g0_rect(z: float, zp: float, k0) -> float:
    """Rectangular free kernel exp(-k0 |z - z'|) / (2 k0)."""
    return _kernel(rect_factors, z, zp, k0).value()


def g0_cyl(rho: float, rhop: float, k0, mode: int = 0) -> float:
    """Cylindrical free kernel I_m(k0 rho_<) K_m(k0 rho_>) for azimuthal order `mode`."""
    return _kernel(cyl_factors, rho, rhop, k0, mode).value()


def g0_sph(r: float, rp: float, k0, mode: int = 0) -> float:
    """Spherical free kernel (2 k0/pi) i_l(k0 r_<) k_l(k0 r_>) for angular order `mode`."""
    return _kernel(sph_factors, r, rp, k0, mode).value()


def g0_osc(z: float, zp: float, v: float,
           units: UnitSystem = NATURAL_UNITS, center: float = 0.0) -> float:
    """Unconstrained harmonic oscillator kernel at energy E = (v + 1/2) hbar w0.

    Finite at coincidence; Gamma(-v) makes non-negative integer v a pole of
    the kernel (DomainError).
    """
    return _kernel(osc_factors, z, zp, v, units, center).value()


@dataclass(frozen=True)
class FreeGreens:
    """Pluggable free kernel g0(x, x'; param), given by its factor pair, plus the measure weight.

    `factors(x, param)` returns the pair (p(x), q(x)) as SignLogs such that
    g0(x, x') = p(x_<) q(x_>): p is the solution regular at the lower end,
    q the one regular at the upper end, with Wronskian p q' - p' q = -1 in
    the measure of `weight(position)`, the factor multiplying the coupling
    at a wall (1, rho, or r^2 for the concrete geometries).  The Green's
    function of every second-order 1D operator has this form, so any such
    operator plugs into the chain algebra through this type, which runs in
    O(n) factor evaluations for any number of walls.

    Given a numpy array of positions, `factors` returns the pair at each of
    them as four float arrays (sign p, log|p|, sign q, log|q|), bitwise the
    scalar pairs, NaN in all four where the scalar call raises a
    GreenChainError; a long chain evaluates its walls in that one call.
    The built-in pairs do it in array arithmetic; :func:`custom_free_greens`
    lifts a scalar pair, which it then calls once per position.
    """

    factors: Callable[[float, float], Tuple[specfun.SignLog, specfun.SignLog]]
    weight: Callable[[float], float]

    def evaluate(self, x: float, xp: float, param: float) -> float:
        """g0(x, x') = p(x_<) q(x_>) at the spectral parameter."""
        return _kernel(self.factors, x, xp, param).value()


def rect_free_greens() -> FreeGreens:
    return FreeGreens(factors=rect_factors, weight=lambda a: 1.0)


def cyl_free_greens(mode: int = 0) -> FreeGreens:
    return FreeGreens(
        factors=lambda r, k0, _m=mode: cyl_factors(r, k0, _m),
        weight=lambda a: weight(Geometry.CYLINDRICAL, a),
    )


def sph_free_greens(mode: int = 0) -> FreeGreens:
    return FreeGreens(
        factors=lambda r, k0, _m=mode: sph_factors(r, k0, _m),
        weight=lambda a: weight(Geometry.SPHERICAL, a),
    )


def osc_free_greens(units: UnitSystem = NATURAL_UNITS, center: float = 0.0) -> FreeGreens:
    return FreeGreens(
        factors=lambda z, v, _u=units, _c=center: osc_factors(z, v, _u, _c),
        weight=lambda a: 1.0,
    )


def _lifted(pair: Callable[[float, float], Tuple[specfun.SignLog, specfun.SignLog]]):
    """A scalar factor pair lifted to the array contract of `FreeGreens.factors`.

    An array of positions is evaluated one position at a time, in order,
    with NaN in all four arrays wherever the pair raises a GreenChainError.
    """

    def factors(x, param):
        if not isinstance(x, np.ndarray):
            return pair(x, param)
        out = np.full((4, x.size), np.nan)
        for i, xi in enumerate(x.ravel().tolist()):
            try:
                p, q = pair(xi, param)
            except GreenChainError:
                continue
            out[:, i] = p.sign, p.log_mag, q.sign, q.log_mag
        return tuple(part.reshape(x.shape) for part in out)

    return factors


def custom_free_greens(factors: Callable[[float, float], Tuple[specfun.SignLog, specfun.SignLog]],
                       weight_fn: Optional[Callable[[float], float]] = None) -> FreeGreens:
    """Wrap the scalar factor pair (p(x), q(x)) of an arbitrary operator's kernel.

    The pair is lifted to the array contract of `FreeGreens`, so it is
    still called once per position; the weight defaults to 1.
    """
    return FreeGreens(
        factors=_lifted(factors),
        weight=weight_fn if weight_fn is not None else (lambda a: 1.0),
    )


def free_greens_for(geometry, mode: int = 0,
                    units: UnitSystem = NATURAL_UNITS, center: float = 0.0) -> FreeGreens:
    """Factory dispatching on the geometry tag."""
    g = Geometry(geometry)
    if g is Geometry.RECTANGULAR:
        return rect_free_greens()
    if g is Geometry.CYLINDRICAL:
        return cyl_free_greens(mode)
    if g is Geometry.SPHERICAL:
        return sph_free_greens(mode)
    if g is Geometry.OSCILLATOR:
        return osc_free_greens(units, center)
    raise DomainError("custom geometry needs an explicit factor pair; use custom_free_greens")
