"""Chain algebra tests: corrections and characteristic functions against the dense
reference (boundary matrix, LU, and I + G0 W built inline)."""

import math

import numpy as np
import pytest

from greenchain import (
    ALL_INFINITE,
    DeltaChain,
    FreeGreens,
    SignLog,
    UnitSystem,
    char_func,
    custom_free_greens,
    cyl_free_greens,
    free_greens_for,
    greens_finite,
    greens_strong,
    osc_free_greens,
    rect_free_greens,
    sph_free_greens,
)
from greenchain.chain import boundary_matrix, det, lu, solve
from greenchain.errors import DomainError, NearPoleError, NumericError, SingularMatrixError
from mp_reference import chain_greens_50_digits, rect_chain_greens_50_digits

# frozen oracle products (series / quadrature oracles, see test_specfun)
I0K0_AT_1 = 0.5330446749562685
I0_1_K0_2 = 0.1441971459732136
I0_2_K0_2 = 0.2596307983459707

H = 1e-5


# ----------------------------------------------------------------------
# DeltaChain construction
# ----------------------------------------------------------------------

def test_chain_requires_increasing_positions():
    with pytest.raises(DomainError):
        DeltaChain("rectangular", (1.0, 0.0), (1.0, 1.0))
    with pytest.raises(DomainError):
        DeltaChain("rectangular", (0.5, 0.5), (1.0, 1.0))


def test_chain_rejects_mixed_couplings():
    with pytest.raises(DomainError):
        DeltaChain("rectangular", (0.0, 1.0), (1.0, math.inf))


def test_chain_radial_positions_positive():
    with pytest.raises(DomainError):
        DeltaChain("cylindrical", (-1.0, 1.0), (1.0, 1.0))
    with pytest.raises(DomainError):
        DeltaChain("spherical", (0.0, 1.0), ALL_INFINITE)


def test_chain_from_couplings_rescales():
    # lambda = 2 m mu / hbar^2
    ch = DeltaChain.from_couplings("rectangular", (0.0,), (1.0,))
    assert ch.lambdas == (2.0,)
    units = UnitSystem(hbar=2.0, mass=3.0)
    ch = DeltaChain.from_couplings("rectangular", (0.0,), (4.0,), units)
    assert ch.lambdas == (2.0 * 3.0 * 4.0 / 4.0,)
    ch = DeltaChain.from_couplings("rectangular", (0.0,), ALL_INFINITE)
    assert ch.is_strong


def test_chain_rejects_non_finite_positions():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="finite"):
            DeltaChain("rectangular", (0.0, bad), (1.0, 1.0))


def test_chain_allows_attractive_couplings():
    ch = DeltaChain("rectangular", (0.0,), (-2.0,))
    assert ch.lambdas == (-2.0,)


# ----------------------------------------------------------------------
# Boundary matrix
# ----------------------------------------------------------------------

def test_boundary_matrix_rect_two_walls():
    ch = DeltaChain("rectangular", (0.0, 1.0), (1.0, 1.0))
    bm = boundary_matrix(ch, rect_free_greens(), 1.0)
    want = np.array([[0.5, 0.5 * math.exp(-1.0)], [0.5 * math.exp(-1.0), 0.5]])
    assert np.allclose(bm, want, rtol=1e-14)
    assert np.array_equal(bm, bm.T)


def test_boundary_matrix_single_wall():
    ch = DeltaChain("rectangular", (0.3,), (1.0,))
    bm = boundary_matrix(ch, rect_free_greens(), 2.0)
    assert bm.shape == (1, 1)
    assert bm[0, 0] == pytest.approx(0.25)


def test_boundary_matrix_cylindrical():
    ch = DeltaChain("cylindrical", (1.0, 2.0), (1.0, 1.0))
    bm = boundary_matrix(ch, cyl_free_greens(0), 1.0)
    want = np.array([[I0K0_AT_1, I0_1_K0_2], [I0_1_K0_2, I0_2_K0_2]])
    assert np.allclose(bm, want, rtol=1e-10)


# ----------------------------------------------------------------------
# LU / solve / det
# ----------------------------------------------------------------------

def test_lu_identity_det():
    d = det(lu(np.eye(4)))
    assert d.sign == 1
    assert d.log_mag == pytest.approx(0.0, abs=1e-15)


def test_lu_det_matches_two_wall_closed_form():
    # det Lambda = (1 + l1/2k0)(1 + l2/2k0) - l1 l2 e^{-2 k0 a} / 4 k0^2
    k0, l1, l2, a = 1.3, 2.0, 5.0, 0.8
    ch = DeltaChain("rectangular", (0.0, a), (l1, l2))
    bm = boundary_matrix(ch, rect_free_greens(), k0)
    got = det(lu(np.eye(2) + bm * np.array([l1, l2]))).value()
    want = (1.0 + l1 / (2 * k0)) * (1.0 + l2 / (2 * k0)) \
        - l1 * l2 * math.exp(-2.0 * k0 * a) / (4.0 * k0 * k0)
    assert got == pytest.approx(want, rel=1e-12)


def test_lu_reconstruction_random_spd():
    rng = np.random.RandomState(99)
    b = rng.randn(5, 5)
    a = b @ b.T + 5.0 * np.eye(5)
    factors = lu(a)
    n = 5
    lower = np.tril(factors.lu, -1) + np.eye(n)
    upper = np.triu(factors.lu)
    assert np.allclose((lower @ upper), a[factors.perm], atol=1e-12 * np.abs(a).max())


def test_lu_solve_residual():
    rng = np.random.RandomState(3)
    a = rng.randn(8, 8) + 8.0 * np.eye(8)
    rhs = rng.randn(8)
    x = solve(lu(a), rhs)
    assert np.linalg.norm(a @ x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_lu_singular_raises():
    with pytest.raises(SingularMatrixError):
        lu(np.zeros((2, 2)))


def test_solve_near_pole_raises():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(NearPoleError):
        solve(lu(a), np.array([1.0, 1.0]))


# ----------------------------------------------------------------------
# Finite-coupling correction
# ----------------------------------------------------------------------

def test_greens_finite_single_wall_closed_form():
    # g0 - [lambda/(1 + lambda/2k0)] g0(z,a) g0(z',a); at z=z'=a=0, lambda=2, k0=1 -> 1/4
    ch = DeltaChain("rectangular", (0.0,), (2.0,))
    got = greens_finite(ch, rect_free_greens(), 0.0, 0.0, 1.0)
    assert got == pytest.approx(0.25, rel=1e-12)


def test_greens_finite_zero_coupling_returns_free():
    ch = DeltaChain("rectangular", (0.0, 1.0), (0.0, 0.0))
    g0 = rect_free_greens()
    assert greens_finite(ch, g0, 0.2, 0.9, 1.3) == g0.evaluate(0.2, 0.9, 1.3)


def test_greens_finite_symmetry():
    ch = DeltaChain("rectangular", (0.0, 0.8, 1.7), (1.0, 2.5, 0.7))
    g0 = rect_free_greens()
    a = greens_finite(ch, g0, 0.3, 1.2, 1.1)
    b = greens_finite(ch, g0, 1.2, 0.3, 1.1)
    assert abs(a - b) <= 1e-12 * abs(a)


def test_greens_finite_rejects_strong_chain():
    ch = DeltaChain("rectangular", (0.0,), ALL_INFINITE)
    with pytest.raises(DomainError):
        greens_finite(ch, rect_free_greens(), 0.0, 0.0, 1.0)


def test_greens_finite_pole_at_bound_state():
    # 1 + lambda/(2 k0) = 0 at k0 = 1 for lambda = -2: the corrected kernel has a pole
    # (here Lambda collapses to an exact zero, the singular flavour of the signal)
    ch = DeltaChain("rectangular", (0.0,), (-2.0,))
    with pytest.raises(NumericError):
        greens_finite(ch, rect_free_greens(), 0.1, 0.2, 1.0)


def test_brute_force_wall_system_oracle():
    # solve the wall equations by dense elimination and rebuild g independently
    rng = np.random.RandomState(20240818)
    cases = [
        ("rectangular", rect_free_greens(), lambda: rng.uniform(-2.0, 2.0)),
        ("cylindrical", cyl_free_greens(0), lambda: rng.uniform(0.2, 4.0)),
        ("spherical", sph_free_greens(1), lambda: rng.uniform(0.2, 4.0)),
    ]
    for n in (1, 2, 3, 5):
        for geom, g0, draw in cases:
            positions = tuple(sorted({round(draw(), 6) for _ in range(3 * n)})[:n])
            if len(positions) < n:
                continue
            lams = tuple(rng.uniform(0.1, 10.0, n))
            ch = DeltaChain(geom, positions, lams)
            param = 1.1
            x, xp = draw(), draw()
            mine = greens_finite(ch, g0, x, xp, param)
            w = np.array([g0.weight(p) * l for p, l in zip(positions, lams)])
            G0 = np.array([[g0.evaluate(p, q, param) for q in positions] for p in positions])
            wall_vals = np.linalg.solve(np.eye(n) + G0 * w[None, :],
                                        np.array([g0.evaluate(p, xp, param) for p in positions]))
            oracle = g0.evaluate(x, xp, param) - float(
                sum(w[i] * g0.evaluate(x, positions[i], param) * wall_vals[i] for i in range(n))
            )
            assert abs(mine - oracle) <= 1e-10 * max(abs(oracle), 1e-12)


def test_push_through_identity():
    # u^T W (I + G0 W)^{-1} v  ==  u^T (I + W G0)^{-1} W v
    rng = np.random.RandomState(5)
    positions = (0.5, 1.1, 2.0, 3.3)
    lams = tuple(rng.uniform(0.1, 5.0, 4))
    ch = DeltaChain("cylindrical", positions, lams)
    g0 = cyl_free_greens(0)
    param = 0.9
    G0 = boundary_matrix(ch, g0, param)
    w = np.array([g0.weight(p) * l for p, l in zip(positions, lams)])
    u = np.array([g0.evaluate(1.4, p, param) for p in positions])
    v = np.array([g0.evaluate(p, 2.6, param) for p in positions])
    sa = u @ (w * np.linalg.solve(np.eye(4) + G0 * w[None, :], v))
    sb = u @ np.linalg.solve(np.eye(4) + w[:, None] * G0, w * v)
    assert abs(sa - sb) <= 1e-12 * abs(sa)


def test_wall_jump_equals_coupling_times_g():
    # the delta term forces [dg]_{a-}^{a+} = lambda_i g(a_i, x') in every geometry
    cases = [
        ("rectangular", rect_free_greens(), (0.0, 1.0), 1.1, 0.6, 0),
        ("cylindrical", cyl_free_greens(1), (0.8, 1.7), 1.1, 1.34, 1),
        ("spherical", sph_free_greens(2), (0.9, 2.1), 1.1, 1.62, 1),
        ("oscillator", osc_free_greens(center=0.5), (0.0, 1.0), 0.6, 0.6, 0),
    ]
    for geom, g0, positions, param, xp, wall in cases:
        ch = DeltaChain(geom, positions, (1.7, 0.6))
        a = positions[wall]
        f = lambda x: greens_finite(ch, g0, x, xp, param)
        jump = (f(a + H) - 2.0 * f(a) + f(a - H)) / H
        want = ch.lambdas[wall] * greens_finite(ch, g0, a, xp, param)
        assert jump == pytest.approx(want, abs=1e-4 * max(1.0, abs(want)))


@pytest.mark.parametrize("geometry,mode", [("rectangular", 0), ("cylindrical", 1),
                                           ("spherical", 2), ("oscillator", 0)])
def test_non_finite_points_and_param_raise(geometry, mode):
    # a NaN or infinite x, x', k0 or v is outside every kernel's domain: an error,
    # never a NaN or a 0 from the Dirichlet shortcut
    g0 = free_greens_for(geometry, mode=mode)
    strong = DeltaChain(geometry, (0.4, 1.0), ALL_INFINITE)
    finite = DeltaChain(geometry, (0.4, 1.0), (1.0, 2.0))
    calls = [lambda: char_func(strong, g0, math.inf), lambda: char_func(strong, g0, math.nan)]
    for x, xp, k0 in ((math.nan, 0.7, 1.3), (0.7, math.nan, 1.3), (0.5, math.inf, 1.3),
                      (0.5, 0.7, math.inf), (0.5, 0.7, math.nan)):
        calls += [lambda x=x, xp=xp, k0=k0: greens_strong(strong, g0, x, xp, k0),
                  lambda x=x, xp=xp, k0=k0: greens_finite(finite, g0, x, xp, k0)]
    for call in calls:
        with pytest.raises(DomainError):
            call()


# ----------------------------------------------------------------------
# Strong coupling
# ----------------------------------------------------------------------

def test_strong_dirichlet_at_walls():
    ch = DeltaChain("rectangular", (0.0, 1.0), ALL_INFINITE)
    g0 = rect_free_greens()
    rng = np.random.RandomState(11)
    interior = max(abs(greens_strong(ch, g0, z, 0.44, 1.3)) for z in np.linspace(0.05, 0.95, 10))
    for wall in (0.0, 1.0):
        for _ in range(20):
            xp = rng.uniform(0.05, 0.95)
            assert abs(greens_strong(ch, g0, wall, xp, 1.3)) <= 1e-10 * max(interior, 1.0)


def test_strong_matches_sinh_product_oracle():
    # Dirichlet kernel on [a1, a2]: sinh(k(z_< - a1)) sinh(k(a2 - z_>)) / (k sinh(k a))
    ch = DeltaChain("rectangular", (0.0, 1.0), ALL_INFINITE)
    g0 = rect_free_greens()
    k = 1.3
    for z, zp in [(0.3, 0.8), (0.5, 0.5), (0.9, 0.1), (0.25, 0.35)]:
        want = math.sinh(k * min(z, zp)) * math.sinh(k * (1.0 - max(z, zp))) / (k * math.sinh(k))
        got = greens_strong(ch, g0, z, zp, k)
        assert got == pytest.approx(want, rel=1e-10)


def test_strong_single_wall_closed_form():
    ch = DeltaChain("rectangular", (0.4,), ALL_INFINITE)
    g0 = rect_free_greens()
    k = 0.9
    z, zp = 0.1, 0.9
    want = g0.evaluate(z, zp, k) - g0.evaluate(z, 0.4, k) * g0.evaluate(0.4, zp, k) / g0.evaluate(0.4, 0.4, k)
    assert greens_strong(ch, g0, z, zp, k) == pytest.approx(want, rel=1e-12)


def test_finite_couplings_converge_to_strong():
    strong_ch = DeltaChain("rectangular", (0.0, 1.0), ALL_INFINITE)
    g0 = rect_free_greens()
    k = 1.3
    samples = (0.11, 0.5, 0.83)
    diffs = []
    for lam in (1e2, 1e4, 1e6):
        ch = DeltaChain("rectangular", (0.0, 1.0), (lam, lam))
        diffs.append(max(abs(greens_finite(ch, g0, z, 0.37, k)
                             - greens_strong(strong_ch, g0, z, 0.37, k)) for z in samples))
    assert diffs[0] > diffs[1] > diffs[2]
    cs = [d * lam for d, lam in zip(diffs, (1e2, 1e4, 1e6))]
    # fitted C = diff * lambda stays put across three decades
    assert max(cs) <= 2.0 * min(cs)


def test_strong_at_characteristic_root_raises():
    # the oscillator boundary determinant vanishes at a spectrum point; refine
    # that point to machine precision first so the pivot collapse is guaranteed
    from greenchain import OscillatorProblem, even_wall_value
    from greenchain.spectrum import Bracket, brent

    prob = OscillatorProblem(1.0)
    f = lambda v: even_wall_value(v, prob)
    root = brent(f, Bracket(4.4, 4.5, f(4.4), f(4.5)), tol=1e-13)
    ch = DeltaChain("oscillator", (0.0, 1.0), ALL_INFINITE)
    g0 = osc_free_greens(center=0.5)
    with pytest.raises(NearPoleError):
        greens_strong(ch, g0, 0.3, 0.7, root.value)


# ----------------------------------------------------------------------
# Characteristic function
# ----------------------------------------------------------------------

def test_char_func_rect_two_walls():
    ch = DeltaChain("rectangular", (0.0, 1.0), ALL_INFINITE)
    got = char_func(ch, rect_free_greens(), 1.0).value()
    assert got == pytest.approx((1.0 - math.exp(-2.0)) / 4.0, rel=1e-12)


def test_char_func_cylindrical_two_walls():
    ch = DeltaChain("cylindrical", (1.0, 2.0), ALL_INFINITE)
    got = char_func(ch, cyl_free_greens(0), 1.0).value()
    want = I0K0_AT_1 * I0_2_K0_2 - I0_1_K0_2 ** 2
    assert got == pytest.approx(want, rel=1e-9)


def test_char_func_single_wall_positive():
    ch = DeltaChain("rectangular", (0.2,), ALL_INFINITE)
    sl = char_func(ch, rect_free_greens(), 1.7)
    assert sl.sign == 1
    assert sl.value() == pytest.approx(1.0 / 3.4, rel=1e-14)


def _scale_p(pair, c):
    """The factor pair of c g0: p scaled by c."""
    p, q = pair
    return p.scaled(c), q


def test_char_func_rescaling_shifts_log_keeps_brackets():
    # replacing g0 by c*g0 shifts log|det| by n log c and moves no sign change
    ch = DeltaChain("oscillator", (0.0, 1.0), ALL_INFINITE)
    base = osc_free_greens(center=0.5)
    c = 7.3
    scaled = custom_free_greens(lambda x, p: _scale_p(base.factors(x, p), c))
    params = [3.3 + 0.31 * i for i in range(10)]
    base_signs = []
    for p in params:
        a = char_func(ch, base, p)
        b = char_func(ch, scaled, p)
        assert b.log_mag - a.log_mag == pytest.approx(2.0 * math.log(c), rel=1e-9)
        assert b.sign == a.sign
        base_signs.append(a.sign)
    # the bracket pattern on this grid straddles the first root near 4.45
    flips = [i for i, (s1, s2) in enumerate(zip(base_signs, base_signs[1:])) if s1 != s2]
    assert len(flips) >= 1


# ----------------------------------------------------------------------
# Structured (factor-pair) path against the dense reference
# ----------------------------------------------------------------------

KERNELS = [("rectangular", 0), ("oscillator", 0)] + [
    (geometry, mode) for geometry in ("cylindrical", "spherical") for mode in range(4)
]


def _half_line_factors(x, k):
    """Dirichlet kernel of k^2 - d^2/dx^2 on x > 0: p = sinh(kx) / k, q = e^{-kx}."""
    return SignLog.from_value(math.sinh(k * x) / k), SignLog(1, -k * x)


def _kernel(geometry, mode):
    """A built-in kernel, or the half-line pair as a custom kernel for "custom"."""
    if geometry == "custom":
        return custom_free_greens(_half_line_factors)
    return free_greens_for(geometry, mode=mode, center=0.5)


def _random_chain(geometry, n, rng, span=1.0):
    """n jittered walls over `span`, a spectral parameter, and the cell edges."""
    a0 = 0.5 if geometry in ("cylindrical", "spherical", "custom") else 0.0
    h = span / n
    positions = [a0 + (i + 0.5 + rng.uniform(-0.3, 0.3)) * h for i in range(n)]
    if geometry == "oscillator":
        param = rng.uniform(-0.9, 5.9)  # order v, walls in a box centred at 0.5
    else:
        param = math.exp(rng.uniform(math.log(0.5), math.log(16.0)))  # k0
    edges = [positions[0] - 0.5 * h] + positions + [positions[-1] + 0.5 * h]
    return positions, param, edges


def _placements(positions, edges):
    """(x, x') in one cell, in distant cells, and left/right of the chain."""
    n = len(positions)

    def point(cell, frac):
        return edges[cell] + frac * (edges[cell + 1] - edges[cell])

    mid = max(1, n // 2) if n > 1 else 0
    return {
        "same": (point(mid, 0.3), point(mid, 0.7)),
        "distant": (point(min(1, n - 1), 0.6), point(n, 0.4)),
        "left": (positions[0] - 0.3, positions[0] - 0.1),
        "right": (positions[-1] + 0.5, positions[-1] + 0.2),
    }


def _dense_strong(G0, g0, positions, x, xp, param):
    u = np.array([g0.evaluate(x, a, param) for a in positions])
    v = np.array([g0.evaluate(a, xp, param) for a in positions])
    return g0.evaluate(x, xp, param) - float(u @ solve(lu(G0), v))


def _dense_finite(G0, chain, g0, x, xp, param):
    w = np.array([g0.weight(a) * l for a, l in zip(chain.positions, chain.lambdas)])
    u = np.array([g0.evaluate(x, a, param) for a in chain.positions])
    v = np.array([g0.evaluate(a, xp, param) for a in chain.positions])
    t = solve(lu(np.eye(chain.n) + G0 * w), v)
    return g0.evaluate(x, xp, param) - float(u @ (w * t))


def _assert_close(got, want, g_free):
    assert abs(got - want) <= 1e-10 * max(abs(g_free), abs(want)), (got, want)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("geometry,mode", KERNELS)
def test_structured_matches_dense(geometry, mode, n):
    rng = np.random.RandomState(1000 * n + 10 * mode + len(geometry))
    g0 = free_greens_for(geometry, mode=mode, center=0.5)
    positions, param, edges = _random_chain(geometry, n, rng)
    strong = DeltaChain(geometry, positions, ALL_INFINITE)
    G0 = boundary_matrix(strong, g0, param)

    want = det(lu(G0))
    got = char_func(strong, g0, param)
    assert got.sign == want.sign
    assert abs(got.log_mag - want.log_mag) <= 1e-10 * max(1.0, abs(want.log_mag))

    couplings = {
        "repulsive": rng.uniform(0.1, 10.0, n),
        "zero": np.zeros(n),
        "attractive": -rng.uniform(0.1, 3.0, n),
    }
    for x, xp in _placements(positions, edges).values():
        g_free = g0.evaluate(x, xp, param)
        _assert_close(greens_strong(strong, g0, x, xp, param),
                      _dense_strong(G0, g0, positions, x, xp, param), g_free)
        for lams in couplings.values():
            chain = DeltaChain(geometry, positions, tuple(lams))
            _assert_close(greens_finite(chain, g0, x, xp, param),
                          _dense_finite(G0, chain, g0, x, xp, param), g_free)


def _numpy_boundary_matrix(g0, points, param):
    """G0[i, j] = p(a_min) q(a_max) at every pair of points (in any order), assembled
    with numpy from one factor pair per point."""
    pairs = [g0.factors(a, param) for a in points]
    sp = np.array([p.sign for p, _ in pairs])
    lp = np.array([p.log_mag for p, _ in pairs])
    sq = np.array([q.sign for _, q in pairs])
    lq = np.array([q.log_mag for _, q in pairs])
    pq = np.outer(sp, sq) * np.exp(lp[:, None] + lq[None, :])
    points = np.array(points)
    return np.where(points[:, None] <= points[None, :], pq, pq.T)


def _check_against_numpy(geometry, mode, n, rng, span=1.0):
    """char_func and both Green's functions of a random n-wall chain against numpy's
    slogdet and dense solves."""
    g0 = _kernel(geometry, mode)
    positions, param, edges = _random_chain(geometry, n, rng, span)
    strong = DeltaChain(geometry, positions, ALL_INFINITE)
    G0 = _numpy_boundary_matrix(g0, positions, param)

    sign, logdet = np.linalg.slogdet(G0)
    got = char_func(strong, g0, param)
    assert got.sign == sign
    assert abs(got.log_mag - logdet) <= 1e-10 * max(1.0, abs(logdet))

    lams = rng.uniform(0.1, 10.0, n)
    chain = DeltaChain(geometry, positions, tuple(lams))
    w = np.array([g0.weight(a) for a in positions]) * lams
    for x, xp in _placements(positions, edges).values():
        u = np.array([g0.evaluate(x, a, param) for a in positions])
        v = np.array([g0.evaluate(a, xp, param) for a in positions])
        g_free = g0.evaluate(x, xp, param)
        _assert_close(greens_strong(strong, g0, x, xp, param),
                      g_free - float(u @ np.linalg.solve(G0, v)), g_free)
        _assert_close(greens_finite(chain, g0, x, xp, param),
                      g_free - float(u @ (w * np.linalg.solve(np.eye(n) + G0 * w, v))), g_free)


@pytest.mark.parametrize("geometry,mode", [("rectangular", 0), ("oscillator", 0),
                                           ("cylindrical", 1), ("spherical", 2)])
def test_structured_matches_numpy_at_512_walls(geometry, mode):
    _check_against_numpy(geometry, mode, 512, np.random.RandomState(512 + mode), span=4.0)


@pytest.mark.parametrize("n", [1, 8, 65])
def test_custom_pair_matches_numpy_dense_solve(n):
    # a custom factor pair runs the same O(n) algebra as the built-in kernels,
    # with no wall cap
    _check_against_numpy("custom", 0, n, np.random.RandomState(65 + n))


def test_custom_pair_matches_50_digits_at_512_walls():
    # past numpy's accuracy (its dense solve is 3.5e-6 off here): the custom pair
    # against its own kink recurrence at 50 digits
    positions = [0.01 * (i + 1) for i in range(512)]
    lams = [1.0 + 0.002 * i for i in range(512)]
    pair = lambda mp, k: (lambda z: mp.sinh(k * z) / k, lambda z: mp.exp(-k * z))
    want = chain_greens_50_digits(pair, positions, lams, 2.0, 1.234, 3.456)
    chain = DeltaChain("custom", positions, lams)
    got = greens_finite(chain, _kernel("custom", 0), 1.234, 3.456, 2.0)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


def test_custom_pair_vanishing_at_a_wall_is_singular():
    # p(0) = 0: the boundary matrix has a zero row, whatever the call
    g0 = _kernel("custom", 0)
    strong = DeltaChain("custom", (0.0, 0.5), ALL_INFINITE)
    finite = DeltaChain("custom", (0.0, 0.5), (1.0, 2.0))
    for call in (lambda: char_func(strong, g0, 1.3),
                 lambda: greens_strong(strong, g0, 0.1, 0.2, 1.3),
                 lambda: greens_finite(finite, g0, 0.1, 0.7, 1.3)):
        with pytest.raises(SingularMatrixError):
            call()


def _both_paths(chain, g0, x, xp, param):
    """(structured, dense reference) results of the chain's call; an error stands for
    its class."""
    if chain.is_strong:
        calls = (lambda: greens_strong(chain, g0, x, xp, param),
                 lambda: _dense_strong(boundary_matrix(chain, g0, param), g0,
                                       chain.positions, x, xp, param))
    else:
        calls = (lambda: greens_finite(chain, g0, x, xp, param),
                 lambda: _dense_finite(boundary_matrix(chain, g0, param), chain, g0,
                                       x, xp, param))
    out = []
    for call in calls:
        try:
            out.append(call())
        except NumericError as exc:
            out.append(type(exc))
    return out


@pytest.mark.parametrize("positions,k0", [
    ([1000.0 + 0.1 * i for i in range(8)], 1.0),  # raw e^{k0 z} would overflow
    ([100.0 + 0.01 * i for i in range(8)], 10.0),
    ([-1000.0, 0.0, 1000.0], 1.0),  # off-diagonal entries underflow to zero
])
def test_rectangular_walls_far_out(positions, k0):
    g0 = rect_free_greens()
    x, xp = positions[0] + 0.03, positions[1] + 0.05
    for lams in (ALL_INFINITE, (1.0,) * len(positions)):
        chain = DeltaChain("rectangular", positions, lams)
        got, want = _both_paths(chain, g0, x, xp, k0)
        _assert_close(got, want, g0.evaluate(x, xp, k0))
    strong = DeltaChain("rectangular", positions, ALL_INFINITE)
    want = det(lu(boundary_matrix(strong, g0, k0)))
    got = char_func(strong, g0, k0)
    assert got.sign == want.sign
    assert got.log_mag == pytest.approx(want.log_mag, rel=1e-10)


@pytest.mark.parametrize("v", [190.3, 199.5])
def test_oscillator_near_order_200(v):
    g0 = osc_free_greens(center=0.5)
    for positions in ((0.0, 0.45, 1.0), (-4.0, 0.45, 5.0)):
        for lams in (ALL_INFINITE, (1.0, 2.0, 0.5)):
            chain = DeltaChain("oscillator", positions, lams)
            got, want = _both_paths(chain, g0, 0.2, 0.3, v)
            if isinstance(want, type):
                assert got is want  # the far walls leave D_v's accurate range
            else:
                _assert_close(got, want, g0.evaluate(0.2, 0.3, v))


def test_structured_path_is_linear_in_walls(monkeypatch):
    # a counting factor pair: n walls cost n + 2 factor evaluations and no g0 call;
    # the strong kernel needs only the interval that holds x and x'
    n = 64
    calls = []

    def counting(z, k0):
        calls.append(z)
        return rect_free_greens().factors(z, k0)

    def forbidden(*args):
        raise AssertionError("the structured path must not evaluate g0 pairwise")

    monkeypatch.setattr(FreeGreens, "evaluate", forbidden)
    g0 = custom_free_greens(counting)
    positions = tuple(0.05 * i for i in range(n))
    strong = DeltaChain("rectangular", positions, ALL_INFINITE)
    finite = DeltaChain("rectangular", positions, (1.5,) * n)
    for call, limit in ((lambda: char_func(strong, g0, 1.3), n),
                        (lambda: greens_strong(strong, g0, 0.31, 0.33, 1.3), 4),
                        (lambda: greens_strong(strong, g0, 0.31, 2.2, 1.3), 0),
                        (lambda: greens_finite(finite, g0, 0.31, 2.2, 1.3), n + 2)):
        calls.clear()
        call()
        assert len(calls) == limit


def test_strong_is_exactly_zero_across_a_wall():
    ch = DeltaChain("rectangular", (0.0, 1.0), ALL_INFINITE)
    g0 = rect_free_greens()
    for x, xp in ((-0.5, 0.5), (0.5, 1.5), (-0.5, 1.5), (0.0, 0.5), (1.0, 1.0)):
        assert greens_strong(ch, g0, x, xp, 1.3) == 0.0
        assert greens_strong(ch, g0, xp, x, 1.3) == 0.0


def test_finite_attractive_wall_with_nearly_singular_leading_block():
    # lambda_1 puts a bound state on [-inf, a_2] with wall 2 impenetrable, so the
    # sub-problem left of wall 2 is (nearly) singular although Lambda is regular;
    # the wall-matched solutions must keep their accuracy there
    g0 = rect_free_greens()
    k, gap = 1.3, 0.4
    for eps in (1e-6, 1e-8, 1e-10):
        lam1 = -k * (1.0 + 1.0 / math.tanh(k * gap)) * (1.0 - eps)
        chain = DeltaChain("rectangular", (0.0, gap), (lam1, 2.0))
        want = _dense_finite(boundary_matrix(chain, g0, k), chain, g0, 0.1, 0.3, k)
        _assert_close(greens_finite(chain, g0, 0.1, 0.3, k), want, g0.evaluate(0.1, 0.3, k))


@pytest.mark.parametrize("geometry,mode", KERNELS + [("custom", 0)])
def test_finite_near_coincident_walls_match_numpy(geometry, mode, monkeypatch):
    # two walls `gap` apart cancel their interval factor while Lambda stays regular;
    # the wall-matched solutions need no dense fallback and no wall cap
    import greenchain.chain as chain_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("the factor-pair path must not use the dense algebra")

    g0 = _kernel(geometry, mode)
    for name in ("boundary_matrix", "lu", "solve"):
        monkeypatch.setattr(chain_mod, name, forbidden)
    monkeypatch.setattr(FreeGreens, "evaluate", forbidden)
    for n in (3, 8, 64, 65):
        for gap in (1e-3, 1e-6, 1e-9, 1e-12):
            rng = np.random.RandomState(n + 10 * mode + len(geometry) + round(-math.log10(gap)))
            positions, param, edges = _random_chain(geometry, n, rng)
            m = n // 2
            positions[m + 1] = positions[m] + gap
            w = np.array([g0.weight(a) for a in positions])
            for sign in (1.0, -1.0):  # repulsive, attractive
                lams = sign * rng.uniform(0.1, 3.0, n)
                chain = DeltaChain(geometry, positions, tuple(lams))
                for x, xp in ((positions[m] + 0.5 * gap, edges[m]),
                              (positions[0] - 0.05, positions[m + 1] + 0.5 * gap),
                              (edges[1], edges[-2])):
                    G = _numpy_boundary_matrix(g0, positions + [x, xp], param)
                    G0, u, v, g_free = G[:n, :n], G[n, :n], G[:n, n + 1], G[n, n + 1]
                    wl = w * lams
                    want = g_free - float(u @ (wl * np.linalg.solve(np.eye(n) + G0 * wl, v)))
                    _assert_close(greens_finite(chain, g0, x, xp, param), want, g_free)


def test_finite_many_strong_walls_match_numpy():
    # each wall with lambda = 1e4 multiplies the swept solution by ~4e3, past double
    # range after ~90 walls unless the sweep rescales as it goes
    g0 = rect_free_greens()
    n, k = 256, 1.3
    positions = [0.05 * i for i in range(n)]
    lams = np.full(n, 1e4)
    chain = DeltaChain("rectangular", positions, tuple(lams))
    for x, xp in ((6.41, 6.43), (-0.3, 0.02), (12.8, 13.1)):
        G = _numpy_boundary_matrix(g0, positions + [x, xp], k)
        G0, u, v, g_free = G[:n, :n], G[n, :n], G[:n, n + 1], G[n, n + 1]
        want = g_free - float(u @ (lams * np.linalg.solve(np.eye(n) + G0 * lams, v)))
        _assert_close(greens_finite(chain, g0, x, xp, k), want, g_free)


# (couplings, bracket of the bound-state k0): a shallow pair, and a deep first wall
# with the second tuned to put the pole at k0 = 1, where the Wronskian's largest
# summand is about 5e3 times its first
_KAPPA = -5e3
TWO_WALL_POLES = [
    ((-3.0, -2.5), (1.0, 3.0)),
    ((2.0 * _KAPPA, 2.0 * (1.0 + _KAPPA) / (_KAPPA * math.exp(-2.0) - 1.0 - _KAPPA)),
     (0.9, 1.1)),
]


def _two_wall_bound_state(lams, bracket):
    """A 2-wall attractive rectangular chain and its bound-state k0, refined by Brent
    on the dense det(I + G0 W)."""
    from greenchain.spectrum import Bracket, brent

    g0 = rect_free_greens()
    chain = DeltaChain("rectangular", (0.0, 1.0), lams)
    f = lambda k: det(lu(np.eye(2) + boundary_matrix(chain, g0, k) * np.array(lams))).value()
    lo, hi = bracket
    root = brent(f, Bracket(lo, hi, f(lo), f(hi)), tol=1e-14)
    return chain, g0, root.value


@pytest.mark.parametrize("lams,bracket", TWO_WALL_POLES)
def test_greens_finite_raises_at_refined_two_wall_bound_state(lams, bracket):
    # 1e-13 off the deep pole, A_n is about 7e-14 of its largest summand but 3e-10
    # of its first: the test is against the largest
    chain, g0, k = _two_wall_bound_state(lams, bracket)
    for offset in (0.0, 1e-13):
        with pytest.raises(NearPoleError):
            greens_finite(chain, g0, 0.2, 0.7, k * (1.0 + offset))


def test_greens_finite_matches_dense_near_two_wall_bound_state():
    chain, g0, k = _two_wall_bound_state(*TWO_WALL_POLES[0])
    k *= 1.0 + 1e-6
    want = _dense_finite(boundary_matrix(chain, g0, k), chain, g0, 0.2, 0.7, k)
    _assert_close(greens_finite(chain, g0, 0.2, 0.7, k), want, g0.evaluate(0.2, 0.7, k))


def test_finite_deep_attenuation_matches_high_precision():
    # 512 walls damp g to 1e-11 of g0: the dense Lambda solve keeps only a few of
    # the digits left, so the reference is the same kink recurrence at 50 digits
    positions = [0.01 * i for i in range(512)]
    lams = [1.0 + 0.002 * i for i in range(512)]
    want = rect_chain_greens_50_digits(positions, lams, 2.0, 1.234, 3.456)
    chain = DeltaChain("rectangular", positions, lams)
    got = greens_finite(chain, rect_free_greens(), 1.234, 3.456, 2.0)
    assert abs(got - want) <= 1e-10 * abs(want)


# ----------------------------------------------------------------------
# One array call of the factor pair against the per-wall loop
# ----------------------------------------------------------------------

def _outcome(call):
    """A chain value in float.hex form, or the type and message of what it raised."""
    try:
        value = call()
    except Exception as exc:  # the per-wall loop's raw exceptions must match too
        return type(exc).__name__, str(exc)
    return (value.sign, value.log_mag.hex()) if isinstance(value, SignLog) else value.hex()


# a spectral parameter (or span) that makes some walls raise in each kernel
FAILING = {"rectangular": None, "cylindrical": (800.0, 1.0), "spherical": (1e-300, 1.0),
           "oscillator": (1.5, 20.0), "custom": (800.0, 1.0)}


@pytest.mark.parametrize("geometry,mode", [("rectangular", 0), ("cylindrical", 2),
                                           ("spherical", 1), ("oscillator", 0), ("custom", 0)])
def test_array_wall_factors_equal_the_per_wall_loop(geometry, mode, monkeypatch):
    # char_func, greens_finite and greens_strong just below the crossover, at it, and
    # well above it: bitwise the scalar loop's values, and the same exceptions
    import greenchain.chain as chain_mod

    rng = np.random.default_rng(5)
    g0 = _kernel(geometry, mode)
    crossover = chain_mod._ARRAY_WALLS
    cases = []
    for n in (crossover - 1, crossover, 64, 512):
        positions, param, edges = _random_chain(geometry, n, rng)
        cases.append((positions, param, edges))
    if FAILING[geometry]:
        param, span = FAILING[geometry]
        positions, _, edges = _random_chain(geometry, 64, rng, span)
        cases.append((positions, param, edges))
    for positions, param, edges in cases:
        n = len(positions)
        strong = DeltaChain(geometry, positions, ALL_INFINITE)
        finite = DeltaChain(geometry, positions, tuple(rng.uniform(0.1, 10.0, n).tolist()))
        calls = [lambda: char_func(strong, g0, param)]
        for x, xp in _placements(positions, edges).values():
            calls += [lambda x=x, xp=xp: greens_finite(finite, g0, x, xp, param),
                      lambda x=x, xp=xp: greens_strong(strong, g0, x, xp, param)]
        got = [_outcome(call) for call in calls]
        monkeypatch.setattr(chain_mod, "_ARRAY_WALLS", 10 ** 9)
        want = [_outcome(call) for call in calls]
        monkeypatch.undo()
        assert got == want, (geometry, n, param)


@pytest.mark.parametrize("geometry", ["rectangular", "cylindrical", "spherical", "oscillator"])
def test_built_in_kernels_make_no_scalar_call_at_a_wall_above_the_crossover(geometry,
                                                                             monkeypatch):
    # a work gate: from the crossover on, the walls take one array call of the pair;
    # below it, one scalar call each; x and x' always take a scalar call
    import greenchain.chain as chain_mod
    import greenchain.greens as greens_mod

    name = {"rectangular": "rect_factors", "cylindrical": "cyl_factors",
            "spherical": "sph_factors", "oscillator": "osc_factors"}[geometry]
    real, calls = getattr(greens_mod, name), []

    def spy(x, *args):
        calls.append("array" if isinstance(x, np.ndarray) else "scalar")
        return real(x, *args)

    monkeypatch.setattr(greens_mod, name, spy)
    g0 = free_greens_for(geometry, mode=1, center=0.5)
    crossover = chain_mod._ARRAY_WALLS
    for n, walls in ((crossover, ["array"]), (crossover - 1, ["scalar"] * (crossover - 1))):
        positions, param, edges = _random_chain(geometry, n, np.random.default_rng(n))
        x, xp = _placements(positions, edges)["distant"]
        calls.clear()
        char_func(DeltaChain(geometry, positions, ALL_INFINITE), g0, param)
        assert calls == walls
        calls.clear()
        greens_finite(DeltaChain(geometry, positions, (1.5,) * n), g0, x, xp, param)
        assert calls == walls + ["scalar", "scalar"]
