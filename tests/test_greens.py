"""Free-kernel tests: closed forms, symmetry, defining ODEs, jump conditions."""

import math

import numpy as np
import pytest

from greenchain import (
    UnitSystem,
    cyl_free_greens,
    osc_free_greens,
    rect_free_greens,
    sph_free_greens,
)
from greenchain.errors import DomainError
from greenchain.greens import Geometry, g0_cyl, g0_osc, g0_rect, g0_sph, weight

H = 1e-5  # finite-difference step fixed by the validation protocol

# frozen products of the series/quadrature oracles from test_specfun
I0K0_AT_1 = 0.5330446749562685
SPH_1_2 = 0.0795230932008946  # (2/pi) i0(1) k0(2) = sinh(1) e^{-2} / 2


def deriv_jump(f, x):
    """One-sided slope difference across a kink at x."""
    return (f(x + H) - 2.0 * f(x) + f(x - H)) / H


def second_diff(f, x):
    return (f(x + H) - 2.0 * f(x) + f(x - H)) / (H * H)


# ----------------------------------------------------------------------
# Unit system and wavenumber
# ----------------------------------------------------------------------

def test_unit_system_validation():
    with pytest.raises(DomainError):
        UnitSystem(hbar=0.0)
    with pytest.raises(DomainError):
        UnitSystem(mass=-1.0)


def test_weight_per_geometry():
    assert weight(Geometry.RECTANGULAR, 3.2) == 1.0
    assert weight(Geometry.CYLINDRICAL, 2.0) == 2.0
    assert weight(Geometry.SPHERICAL, 2.0) == 4.0
    assert weight(Geometry.OSCILLATOR, -1.7) == 1.0
    with pytest.raises(DomainError):
        weight(Geometry.CYLINDRICAL, 0.0)
    with pytest.raises(DomainError):
        weight(Geometry.SPHERICAL, -1.0)


# ----------------------------------------------------------------------
# Closed-form values
# ----------------------------------------------------------------------

def test_g0_rect_values():
    assert g0_rect(0.0, 0.0, 2.0) == pytest.approx(0.25, rel=1e-15)
    assert g0_rect(1.0, 0.0, 1.0) == pytest.approx(0.5 * math.exp(-1.0), rel=1e-15)
    assert g0_rect(0.3, 0.9, 1.7) == g0_rect(0.9, 0.3, 1.7)


def test_g0_cyl_values():
    assert g0_cyl(1.0, 1.0, 1.0, 0) == pytest.approx(I0K0_AT_1, rel=1e-10)
    assert g0_cyl(0.7, 1.9, 1.0, 0) == g0_cyl(1.9, 0.7, 1.0, 0)
    assert g0_cyl(1e-7, 1.0, 1.0, 1) == pytest.approx(0.0, abs=1e-7)
    with pytest.raises(DomainError):
        g0_cyl(0.0, 1.0, 1.0, 0)


def test_g0_sph_values():
    assert g0_sph(1.0, 2.0, 1.0, 0) == pytest.approx(SPH_1_2, rel=1e-10)
    assert g0_sph(1.3, 0.4, 0.9, 2) == g0_sph(0.4, 1.3, 0.9, 2)
    with pytest.raises(DomainError):
        g0_sph(1.0, -1.0, 1.0, 0)


def test_g0_osc_symmetry_and_signlog_consistency():
    val = g0_osc(0.0, 1.0, 0.5, center=0.5)
    assert val == g0_osc(1.0, 0.0, 0.5, center=0.5)


def test_g0_osc_pole_at_integer_order():
    with pytest.raises(DomainError):
        g0_osc(0.1, 0.6, 1.0, center=0.5)


# ----------------------------------------------------------------------
# Symmetry property on random pairs
# ----------------------------------------------------------------------

def test_symmetry_random_pairs():
    rng = np.random.RandomState(42)
    kernels = [
        (rect_free_greens(), 1.3, lambda: rng.uniform(-3.0, 3.0)),
        (cyl_free_greens(1), 0.9, lambda: rng.uniform(0.05, 4.0)),
        (sph_free_greens(2), 1.1, lambda: rng.uniform(0.05, 4.0)),
        (osc_free_greens(center=0.5), 0.7, lambda: rng.uniform(-1.0, 2.0)),
    ]
    for g0, param, draw in kernels:
        for _ in range(100):
            x, xp = draw(), draw()
            a = g0.evaluate(x, xp, param)
            b = g0.evaluate(xp, x, param)
            assert abs(a - b) <= 1e-12 * max(abs(a), 1e-300)


# ----------------------------------------------------------------------
# Defining equation away from the source (central differences)
# ----------------------------------------------------------------------

def test_ode_residual_rect():
    k0, zp = 1.4, 0.9
    zs = np.linspace(-1.5, 0.5, 20)
    for z in zs:
        g = lambda t: g0_rect(t, zp, k0)
        resid = second_diff(g, z) - k0 * k0 * g(z)
        assert abs(resid) <= 1e-4 * abs(g(z))


def test_ode_residual_cyl():
    k0, rp, m = 0.9, 2.2, 1
    for r in np.linspace(0.4, 1.8, 20):
        g = lambda t: g0_cyl(t, rp, k0, m)
        gp = (g(r + H) - g(r - H)) / (2.0 * H)
        resid = second_diff(g, r) + gp / r - (m * m / (r * r) + k0 * k0) * g(r)
        assert abs(resid) <= 1e-4 * abs(g(r))


def test_ode_residual_sph():
    k0, rp, l = 0.8, 2.5, 2
    for r in np.linspace(0.5, 2.0, 20):
        g = lambda t: g0_sph(t, rp, k0, l)
        gp = (g(r + H) - g(r - H)) / (2.0 * H)
        resid = second_diff(g, r) + 2.0 * gp / r - (l * (l + 1.0) / (r * r) + k0 * k0) * g(r)
        assert abs(resid) <= 1e-4 * abs(g(r))


def test_ode_residual_osc():
    # [d2/dz2 - (z-c)^2 + (2v+1)] g = 0 in natural units, v = E/(hbar w0) - 1/2
    v, c, zp = 0.7, 0.5, 1.9
    for z in np.linspace(-0.5, 1.2, 20):
        g = lambda t: g0_osc(t, zp, v, center=c)
        resid = second_diff(g, z) - (z - c) ** 2 * g(z) + (2.0 * v + 1.0) * g(z)
        assert abs(resid) <= 1e-4 * abs(g(z))


# ----------------------------------------------------------------------
# Jump condition at coincidence
# ----------------------------------------------------------------------

def test_jump_rect():
    assert deriv_jump(lambda z: g0_rect(z, 0.7, 1.3), 0.7) == pytest.approx(-1.0, abs=1e-4)


def test_jump_cyl():
    rp = 1.1
    got = deriv_jump(lambda r: g0_cyl(r, rp, 0.9, 2), rp)
    assert got == pytest.approx(-1.0 / rp, abs=1e-4)


def test_jump_sph():
    rp, k0, l = 1.3, 0.9, 2
    got = deriv_jump(lambda r: g0_sph(r, rp, k0, l), rp)
    assert got == pytest.approx(-1.0 / (rp * rp), abs=1e-4)


def test_jump_osc():
    got = deriv_jump(lambda z: g0_osc(z, 0.4, 0.5, center=0.5), 0.4)
    assert got == pytest.approx(-1.0, abs=1e-4)


# ----------------------------------------------------------------------
# Monotonic decay
# ----------------------------------------------------------------------

def test_rect_decays_with_separation():
    vals = [g0_rect(0.0, d, 1.2) for d in np.linspace(0.0, 5.0, 40)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_cyl_sph_decay_in_outer_radius():
    lo = 0.8
    cyl_vals = [g0_cyl(lo, hi, 1.0, 0) for hi in np.linspace(1.0, 6.0, 30)]
    assert all(a > b for a, b in zip(cyl_vals, cyl_vals[1:]))
    sph_vals = [g0_sph(lo, hi, 1.0, 0) for hi in np.linspace(1.0, 6.0, 30)]
    assert all(a > b for a, b in zip(sph_vals, sph_vals[1:]))
