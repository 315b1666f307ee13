"""Root finding and spectra: scanning, Brent, oscillator/box/disk/ball/well."""

import hashlib
import json
import math
import pathlib
import warnings

import numpy as np
import pytest

from greenchain import (
    OscillatorProblem,
    UnitSystem,
    box_spectrum_rect,
    char_scan_table,
    cyl_annulus_spectrum,
    cyl_dirichlet_spectrum,
    delta_well_bound_state,
    even_wall_value,
    odd_wall_value,
    oscillator_char_full,
    oscillator_char_reduced,
    oscillator_spectrum,
    pointwise,
    scan_sign_changes,
    sph_dirichlet_spectrum,
    sph_shell_spectrum,
)
from greenchain.errors import DomainError, GreenChainError, NumericError, RangeError
from greenchain.spectrum import Bracket, RootKind, brent, scan_grid
from greenchain.specfun import (_kummer_series, _kummer_series_array, gamma, kummer_m, pcf_d,
                                pcf_d_pair_signlog)

FIG1_ROOTS = (4.45, 19.27, 43.95, 78.49, 122.91, 177.19)
EPS = 2.220446049250313e-16


# ----------------------------------------------------------------------
# series-bisection oracles (independent of the implementation's branches)
# ----------------------------------------------------------------------

def j0_series(x):
    t = 1.0
    s = 1.0
    k = 0
    while True:
        k += 1
        t *= -(x * x / 4.0) / (k * k)
        s_new = s + t
        if s_new == s:
            return s
        s = s_new


def bisect(f, lo, hi, iters=200):
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
            flo = f(lo)
    return 0.5 * (lo + hi)


# first three zeros of J0 by bisection on the power series
J0_ZEROS = (2.404825557695773, 5.5200781102863115, 8.65372791291098)


# ----------------------------------------------------------------------
# scan_sign_changes / brent
# ----------------------------------------------------------------------

def test_scan_finds_sin_zeros():
    brackets = scan_sign_changes(np.sin, 0.1, 7.0, 1000)
    assert len(brackets) == 2
    assert brackets[0].lo < math.pi < brackets[0].hi
    assert brackets[1].lo < 2.0 * math.pi < brackets[1].hi


def test_scan_no_sign_change():
    assert scan_sign_changes(lambda x: x * x + 1.0, -3.0, 3.0, 100) == []


def test_scan_skips_raising_points_with_warning():
    def f(x):
        if abs(x - 1.0) < 0.015:
            raise DomainError("hole in the domain")
        return x - 1.1

    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        brackets = scan_sign_changes(pointwise(f), 0.0, 2.0, 101)
    assert len(rec) >= 1
    assert len(brackets) == 1
    assert brackets[0].lo < 1.1 < brackets[0].hi


def test_scan_sign_change_semantics():
    # skip non-finite points (with a warning each) and exact zeros; bracket
    # between consecutive kept points
    vals = np.array([1.0, math.nan, 0.0, -1.0, math.inf, -2.0, 3.0, 0.0, 0.0, -4.0])
    with warnings.catch_warnings(record=True) as rec:
        warnings.simplefilter("always")
        brackets = scan_sign_changes(lambda xs: vals, 0.0, 9.0, 10)
    skipped = [str(w.message) for w in rec]
    assert skipped == ["scan: skipping grid point 1.0 (nan)", "scan: skipping grid point 4.0 (inf)"]
    assert [(b.lo, b.hi, b.f_lo, b.f_hi) for b in brackets] == \
        [(0.0, 3.0, 1.0, -1.0), (5.0, 6.0, -2.0, 3.0), (6.0, 9.0, 3.0, -4.0)]


def test_scan_calls_f_once_on_the_grid():
    calls = []

    def f(xs):
        calls.append(xs)
        return np.cos(xs)

    brackets = scan_sign_changes(f, 0.0, 4.0, 401)
    assert len(calls) == 1
    assert calls[0].dtype == np.float64 and calls[0].shape == (401,)
    assert calls[0][0] == 0.0 and calls[0][-1] == 4.0
    assert len(brackets) == 1
    assert brackets[0].lo < 0.5 * math.pi < brackets[0].hi


def test_scan_rejects_a_wrong_length_result():
    with pytest.raises(DomainError):
        scan_sign_changes(lambda xs: xs[:-1], 0.0, 1.0, 11)
    with pytest.raises(DomainError):
        char_scan_table(lambda xs: 1.0, 0.0, 1.0, 0.1)


def test_pointwise_maps_library_errors_to_nan():
    def f(x):
        if x > 0.5:
            raise NumericError("no value here")
        return 2.0 * x

    got = pointwise(f)(np.array([0.25, 0.5, 0.75]))
    assert got[:2].tolist() == [0.5, 1.0]
    assert math.isnan(got[2])
    with pytest.raises(ZeroDivisionError):
        pointwise(lambda x: 1.0 / x)(np.array([1.0, 0.0]))


def test_bracket_validation():
    with pytest.raises(DomainError):
        Bracket(1.0, 0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        Bracket(0.0, 1.0, 1.0, 2.0)


def test_brent_refines_sin_to_pi():
    br = Bracket(3.0, 3.3, math.sin(3.0), math.sin(3.3))
    root = brent(math.sin, br, tol=1e-12)
    assert root.value == pytest.approx(math.pi, abs=1e-12)
    assert br.lo <= root.value <= br.hi


def test_brent_linear_converges_fast():
    f = lambda x: x - 2.5
    root = brent(f, Bracket(0.0, 4.0, f(0.0), f(4.0)), tol=1e-12)
    assert root.value == pytest.approx(2.5, abs=1e-12)
    assert root.iterations <= 3


@pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
def test_brent_rejects_bad_tolerance(tol):
    br = Bracket(3.0, 3.3, math.sin(3.0), math.sin(3.3))
    with pytest.raises(DomainError):
        brent(math.sin, br, tol=tol)


def test_brent_nonconvergence_attaches_best():
    f = lambda x: math.tanh(50.0 * (x - 0.123))
    with pytest.raises(NumericError) as err:
        brent(f, Bracket(0.0, 1.0, f(0.0), f(1.0)), tol=1e-15, max_iter=2)
    assert err.value.best is not None
    assert 0.0 <= err.value.best.value <= 1.0


# ----------------------------------------------------------------------
# Oscillator characteristic functions
# ----------------------------------------------------------------------

def test_char_full_matches_direct_assembly_at_small_v(unit_box):
    # independent evaluation in plain doubles at v = 0.5
    v = 0.5
    a = unit_box.alpha
    dm = pcf_d(v, -a)
    dp = pcf_d(v, a)
    g = gamma(-v)
    want = (1.0 / math.pi) * g * g * dp * dp * (dm * dm - dp * dp)
    assert oscillator_char_full(v, unit_box) == pytest.approx(want, rel=1e-9)


def test_char_full_diverges_toward_integer(unit_box):
    assert abs(oscillator_char_full(0.999999, unit_box)) > \
        1e4 * abs(oscillator_char_full(0.9, unit_box))
    with pytest.raises(DomainError):
        oscillator_char_full(1.0, unit_box)


def test_char_full_finite_at_large_order(unit_box):
    # D_v(alpha)^2 alone exceeds double range past v ~ 170, but the SignLog
    # assembly cancels it against the Gamma^2 decay, so the determinant value
    # itself stays representable all the way to the order cap
    for v in (150.5, 177.5, 199.5):
        assert math.isfinite(oscillator_char_full(v, unit_box))
    from greenchain.specfun import pcf_d_signlog
    sl = pcf_d_signlog(177.5, unit_box.alpha)
    assert 2.0 * sl.log_mag > 709.0  # the square really would overflow a double


def test_char_reduced_bounded_and_sign_changes_at_first_root(unit_box):
    for v in np.arange(0.05, 60.0, 0.37):
        assert abs(oscillator_char_reduced(float(v), unit_box)) <= 1.0
    assert oscillator_char_reduced(4.4, unit_box) * oscillator_char_reduced(4.5, unit_box) < 0.0


def test_char_reduced_degenerates_with_narrow_box():
    # alpha -> 0: D_v(-alpha) -> D_v(alpha), so the ratio collapses to zero
    prob = OscillatorProblem(1e-6)
    for v in (0.3, 2.6, 7.9):
        assert abs(oscillator_char_reduced(v, prob)) <= 1e-3


def test_sign_consistency_full_vs_reduced(unit_box):
    # Gamma^2, D_v(alpha)^2 and the normalizer are all non-negative, so the
    # determinant and the reduced ratio always share a sign where both exist
    rng = np.random.RandomState(314159)
    vs = rng.uniform(0.5, 100.0, size=10000)
    checked = 0
    for v in vs:
        try:
            full = oscillator_char_full(float(v), unit_box)
        except GreenChainError:
            continue  # Gamma pole or overflow: Delta not finite there
        reduced = oscillator_char_reduced(float(v), unit_box)
        if full == 0.0 or reduced == 0.0:
            continue
        assert (full > 0.0) == (reduced > 0.0), f"sign mismatch at v={v}"
        checked += 1
    assert checked > 9000


# ----------------------------------------------------------------------
# Oscillator spectrum
# ----------------------------------------------------------------------

def test_six_roots_match_reference_locations(six_levels):
    assert len(six_levels) == 6
    for line, ref in zip(six_levels, FIG1_ROOTS):
        assert abs(line.root.value - ref) <= 0.01


def test_six_energies(six_levels):
    refs = (4.95, 19.77, 44.45, 78.99, 123.41, 177.69)
    for line, ref in zip(six_levels, refs):
        assert abs(line.energy - ref) <= 0.01


def test_roots_increasing_and_parities_alternate(six_levels):
    values = [line.root.value for line in six_levels]
    assert values == sorted(values)
    kinds = [line.root.classification for line in six_levels]
    assert kinds[0] == RootKind.EVEN_BRACKET
    for a, b in zip(kinds, kinds[1:]):
        assert a != b


def test_roots_stay_bracketed_with_small_residuals(six_levels):
    for line in six_levels:
        r = line.root
        assert r.bracket.lo <= r.value <= r.bracket.hi
        assert r.residual <= 1e-10


def test_roots_are_sign_changes_of_reduced_ratio(unit_box, six_levels):
    for line in six_levels:
        v = line.root.value
        left = oscillator_char_reduced(v - 5e-3, unit_box)
        right = oscillator_char_reduced(v + 5e-3, unit_box)
        assert left * right < 0.0


def test_roots_kill_their_wall_factor(unit_box, six_levels):
    for line in six_levels:
        f = even_wall_value if line.root.classification == RootKind.EVEN_BRACKET \
            else odd_wall_value
        off = abs(f(line.root.value - 0.1, unit_box))
        assert abs(f(line.root.value, unit_box)) <= 1e-6 * max(off, 1e-6)


def test_spectrum_deterministic(unit_box, six_levels):
    again = oscillator_spectrum(unit_box, 6)
    assert [l.root.value for l in again] == [l.root.value for l in six_levels]
    assert [l.energy for l in again] == [l.energy for l in six_levels]


def test_node_factor_roots_flagged_and_excluded(unit_box):
    default = oscillator_spectrum(unit_box, 2)
    assert all(l.root.classification != RootKind.NODE_FACTOR for l in default)
    withnode = oscillator_spectrum(unit_box, 2, include_node_factor=True)
    nodes = [l for l in withnode if l.root.classification == RootKind.NODE_FACTOR]
    assert nodes, "node-factor zeros exist below the first physical roots"
    # first node of D_v(alpha) sits near v = 1.66 for the unit box
    assert nodes[0].root.value == pytest.approx(1.664, abs=0.01)
    physical = [l for l in withnode if l.root.classification != RootKind.NODE_FACTOR]
    assert [l.root.value for l in physical] == [l.root.value for l in default]


def _scalar_node_factor_roots(prob, v_hi, tol=1e-10):
    """Oracle: the node-factor scan with one scalar pcf_d_signlog call per grid point."""
    from greenchain.specfun import pcf_d_signlog

    alpha = prob.alpha
    n_grid = max(2, int(round(v_hi / 0.01)) + 1)
    step = v_hi / (n_grid - 1)
    roots = []
    prev = None
    for i in range(n_grid):
        v = i * step
        sl = pcf_d_signlog(v, alpha)
        if prev is not None and sl.sign and prev[1].sign and sl.sign != prev[1].sign:
            lead = max(prev[1].log_mag, sl.log_mag)

            def surrogate(x, _lead=lead):
                s = pcf_d_signlog(x, alpha)
                return s.sign * math.exp(min(s.log_mag - _lead, 0.0)) if s.sign else 0.0

            br = Bracket(prev[0], v, surrogate(prev[0]), surrogate(v))
            roots.append(brent(surrogate, br, tol=tol).value)
        prev = (v, sl)
    return roots


@pytest.mark.parametrize("box_length", [1.0, 3.0, 5.0])
def test_node_factor_roots_match_scalar_scan(box_length):
    prob = OscillatorProblem(box_length)
    lines = oscillator_spectrum(prob, 6, include_node_factor=True)
    levels = [l.root.value for l in lines if l.root.classification != RootKind.NODE_FACTOR]
    got = [l.root.value for l in lines if l.root.classification == RootKind.NODE_FACTOR]
    want = _scalar_node_factor_roots(prob, min(levels[-1] + 1.0, 200.0))
    assert got and len(got) == len(want)
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-10


def test_node_factor_grid_is_one_array_pass(monkeypatch, unit_box):
    # scalar D_v calls come from the two bracket ends and the Brent steps only
    import greenchain.spectrum as spectrum_mod

    real = spectrum_mod.pcf_d_signlog
    calls = {"n": 0}

    def spy(v, y):
        calls["n"] += 1
        return real(v, y)

    monkeypatch.setattr(spectrum_mod, "pcf_d_signlog", spy)
    lines = oscillator_spectrum(unit_box, 6, include_node_factor=True)
    nodes = [l.root for l in lines if l.root.classification == RootKind.NODE_FACTOR]
    assert calls["n"] == sum(2 + r.iterations - 1 for r in nodes)


def test_node_factor_scan_raises_where_d_v_has_no_value():
    # at L = 2 the D_v(alpha) series guard trips on grid points below v = 200;
    # the scan raises instead of skipping them with a warning each
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            oscillator_spectrum(OscillatorProblem(2.0), 12, include_node_factor=True)


def test_wide_box_recovers_free_oscillator():
    lines = oscillator_spectrum(OscillatorProblem(10.0), 2)
    assert abs(lines[0].root.value - 0.0) <= 0.05
    assert abs(lines[1].root.value - 1.0) <= 0.05


def test_spectrum_kummer_call_counts(monkeypatch, unit_box):
    # deterministic work gate: no array call; one scalar call at each end of
    # a level's enclosure, and one per Brent evaluation
    import greenchain.spectrum as spectrum_mod

    real_kummer, real_brent = spectrum_mod.kummer_m, spectrum_mod.brent
    calls = {"array": 0, "scalar": 0, "brent_evals": 0}

    def kummer_spy(a, b, x):
        calls["array" if isinstance(a, np.ndarray) else "scalar"] += 1
        return real_kummer(a, b, x)

    def brent_spy(f, bracket, tol=1e-10, max_iter=200):
        root = real_brent(f, bracket, tol=tol, max_iter=max_iter)
        calls["brent_evals"] += root.iterations - 1  # one evaluation per non-final iteration
        return root

    monkeypatch.setattr(spectrum_mod, "kummer_m", kummer_spy)
    monkeypatch.setattr(spectrum_mod, "brent", brent_spy)
    lines = oscillator_spectrum(unit_box, 6)
    assert len(lines) == 6
    assert calls["array"] == 0
    assert calls["scalar"] == 2 * len(lines) + calls["brent_evals"]
    assert calls["scalar"] < 200


def _dense_lattice_brackets(prob):
    """Both parity factors scanned on the whole lattice, [20 k, 20 k + 20] at 2001 points,
    each window in one array Kummer sum, with the scalar wall value to refine on."""
    x = 0.5 * (prob.alpha * prob.alpha)  # the wall values' x, bit for bit
    even = lambda v: even_wall_value(v, prob)
    odd = lambda v: odd_wall_value(v, prob)
    even_grid = lambda vs: _kummer_series_array(-0.5 * vs, 0.5, x)[0]
    odd_grid = lambda vs: _kummer_series_array(0.5 * (1.0 - vs), 1.5, x)[0]
    return [[(f, kind, scan_sign_changes(grid, 20.0 * k, 20.0 * k + 20.0, 2001))
             for f, grid, kind in ((even, even_grid, RootKind.EVEN_BRACKET),
                                   (odd, odd_grid, RootKind.ODD_BRACKET))]
            for k in range(10)]


def _dense_lattice_levels(windows, n):
    """The first n levels from whole windows: the first n brackets of each factor, sorted."""
    roots = []
    for window in windows:
        for f, kind, brackets in window:
            roots += [(brent(f, br, tol=1e-10), kind) for br in brackets[:n]]
        if len(roots) >= n:
            break
    return sorted(roots, key=lambda pair: pair[0].value)[:n]


@pytest.mark.parametrize("box_length",
                         np.linspace(0.3, 14.1, 24).tolist() + [1.0, 2.0, 3.0, 5.0, 8.0])
def test_minmax_runs_equal_the_dense_lattice(box_length):
    # Brent from the enclosures finds the dense scan's levels: the same count,
    # parities and order, each root within twice the larger of the tolerance
    # and the series noise eps peak over the slope of the dense bracket's secant
    prob = OscillatorProblem(box_length)
    x = 0.5 * (prob.alpha * prob.alpha)
    windows = _dense_lattice_brackets(prob)
    for n in (1, 5, 12):
        lines = oscillator_spectrum(prob, n)
        want = _dense_lattice_levels(windows, n)
        assert [line.root.classification for line in lines] == [kind for _, kind in want], n
        for line, (root, kind) in zip(lines, want):
            v, br = line.root.value, root.bracket
            a, b = (-0.5 * v, 0.5) if kind is RootKind.EVEN_BRACKET else (0.5 * (1.0 - v), 1.5)
            noise = EPS * _kummer_series(a, b, x)[1] * (br.hi - br.lo) / abs(br.f_hi - br.f_lo)
            assert abs(v - root.value) <= 2.0 * max(1e-10, noise), (n, v, root.value, noise)


@pytest.mark.parametrize("box_length", [0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 14.1])
def test_levels_lie_in_their_minmax_brackets(box_length):
    # level j: the box level plus min/max of y^2/4, and no lower than the free
    # level j; the slack is the Brent tolerance
    prob = OscillatorProblem(box_length)
    a2 = prob.alpha ** 2
    lines = oscillator_spectrum(prob, 12)
    assert lines
    for j, line in enumerate(lines, start=1):
        box = (j * math.pi) ** 2 / (4.0 * a2)
        assert max(box, j - 0.5) - 0.5 - 1e-10 <= line.root.value <= box + a2 / 4.0 - 0.5 + 1e-10
        parity = RootKind.EVEN_BRACKET if j % 2 else RootKind.ODD_BRACKET
        assert line.root.classification is parity


@pytest.mark.parametrize("box_length", np.linspace(0.3, 14.1, 24).tolist())
def test_levels_lie_in_their_enclosures(box_length):
    # Ritz above, Kato-Temple below: each refined level lies in its padded
    # enclosure, the Kato-Temple condition holds for every level asked, and
    # the enclosure is narrower than one lattice step
    import greenchain.spectrum as spectrum_mod

    prob = OscillatorProblem(box_length)
    values = [line.root.value for line in oscillator_spectrum(prob, 12)]
    assert values
    for first in (1, 2):
        levels = range(first, 13, 2)
        lower, upper = spectrum_mod._level_enclosures(prob.alpha, levels)
        assert all(math.isfinite(bound) for bound in lower + upper)
        for j, below, above in zip(levels, lower, upper):
            assert below < above < below + spectrum_mod._STEP
            if j <= len(values):
                assert below <= values[j - 1] <= above, (j, below, values[j - 1], above)


def _raises_below_level_2(monkeypatch, prob, broken):
    """oscillator_spectrum(prob, 12) with `broken` as the odd levels' eigh:
    NumericError naming level 2, with level 1 as partial."""
    want = oscillator_spectrum(prob, 12)
    real_eigh = np.linalg.eigh
    calls = []

    def odd_broken(h):  # the even levels' enclosures come first
        calls.append(h)
        return (broken if len(calls) == 2 else real_eigh)(h)

    monkeypatch.setattr(np.linalg, "eigh", odd_broken)
    with pytest.raises(NumericError, match="level 2: no finite") as info:
        oscillator_spectrum(prob, 12)
    assert info.value.partial == want[:1]


def test_kato_temple_bound_falls_back_where_its_condition_fails(monkeypatch):
    # Ritz values pushed above the next level's lower bound beta break the
    # condition (beta - theta)(theta - a) > eta^2 of every level: the lower
    # bounds fall back to -inf, and a level without one may lie anywhere in
    # its min-max bracket, so the spectrum raises below it
    import greenchain.spectrum as spectrum_mod

    prob = OscillatorProblem(3.0)
    real_eigh = np.linalg.eigh

    def raised_eigh(h):
        theta, vecs = real_eigh(h)
        return theta + 100.0, vecs

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", raised_eigh)
        for first in (1, 2):
            lower, upper = spectrum_mod._level_enclosures(prob.alpha, range(first, 13, 2))
            assert lower == [-math.inf] * 6 and all(above > 100.0 for above in upper)
    _raises_below_level_2(monkeypatch, prob, raised_eigh)


def test_enclosure_fallback_gives_the_min_max_runs(monkeypatch):
    # alpha = 0 or a failing eigh: no enclosure, both bounds fall back to
    # +-inf and leave the whole min-max bracket, so the spectrum raises below
    # the first level without one
    import greenchain.spectrum as spectrum_mod

    lower, upper = spectrum_mod._level_enclosures(0.0, range(1, 13, 2))
    assert lower == [-math.inf] * 6 and upper == [math.inf] * 6
    prob = OscillatorProblem(3.0)

    def failing_eigh(h):
        raise np.linalg.LinAlgError("forced failure")

    with monkeypatch.context() as patch:
        patch.setattr(np.linalg, "eigh", failing_eigh)
        for first in (1, 2):
            lower, upper = spectrum_mod._level_enclosures(prob.alpha, range(first, 13, 2))
            assert lower == [-math.inf] * 6 and upper == [math.inf] * 6
    _raises_below_level_2(monkeypatch, prob, failing_eigh)


@pytest.mark.parametrize("box_length", [1.0, 1.5, 2.0, 3.0, 5.0, 8.0])
def test_enclosures_scan_a_few_lattice_points_per_level(monkeypatch, box_length):
    # work gate: outside Brent a request makes two scalar kummer_m calls per
    # level, one at each end of its enclosure (the min-max lattice runs saw up
    # to 3,455 at L = 5)
    import greenchain.spectrum as spectrum_mod

    real_kummer, real_brent = spectrum_mod.kummer_m, spectrum_mod.brent
    calls = {"array": 0, "scalar": 0, "brent_evals": 0}

    def kummer_spy(a, b, x):
        calls["array" if isinstance(a, np.ndarray) else "scalar"] += 1
        return real_kummer(a, b, x)

    def brent_spy(f, bracket, tol=1e-10, max_iter=200):
        root = real_brent(f, bracket, tol=tol, max_iter=max_iter)
        calls["brent_evals"] += root.iterations - 1
        return root

    monkeypatch.setattr(spectrum_mod, "kummer_m", kummer_spy)
    monkeypatch.setattr(spectrum_mod, "brent", brent_spy)
    n = min(12, int(20.0 * box_length / math.pi))
    assert len(oscillator_spectrum(OscillatorProblem(box_length), n)) == n
    assert calls["array"] == 0
    assert calls["scalar"] - calls["brent_evals"] == 2 * n


@pytest.mark.parametrize("box_length, levels, builds", [(0.15, 0, 0), (0.25, 1, 1), (1.0, 6, 2)])
def test_a_parity_builds_its_enclosures_only_below_v_200(monkeypatch, box_length, levels, builds):
    # a parity's eigenproblem is built at its first level, and only if that
    # level's min-max bracket starts below v = 200: none at L = 0.15, the even
    # one alone at L = 0.25, where the first odd level starts past v = 200
    import greenchain.spectrum as spectrum_mod

    real_enclosures, calls = spectrum_mod._level_enclosures, []

    def enclosures_spy(alpha, parity_levels):
        calls.append(parity_levels)
        return real_enclosures(alpha, parity_levels)

    monkeypatch.setattr(spectrum_mod, "_level_enclosures", enclosures_spy)
    assert len(oscillator_spectrum(OscillatorProblem(box_length), 12)) == levels
    assert calls == [range(1, 13, 2), range(2, 13, 2)][:builds]


def test_array_char_functions_match_scalar(unit_box):
    # NaN exactly where the scalar call raises (Gamma poles at integer v for
    # Delta, orders past 200 for both); bitwise equal values elsewhere
    v = np.concatenate([np.arange(0.0, 6.0, 0.125), [176.5, 199.5, 200.0, 200.25]])
    for fn in (oscillator_char_full, oscillator_char_reduced):
        got = fn(v, unit_box)
        for vi, gi in zip(v.tolist(), got.tolist()):
            try:
                want = fn(vi, unit_box)
            except GreenChainError:
                assert math.isnan(gi), (fn.__name__, vi)
                continue
            assert np.float64(gi).view(np.int64) == np.float64(want).view(np.int64), \
                (fn.__name__, vi)
    assert np.isnan(oscillator_char_full(np.arange(0.0, 6.0), unit_box)).all()


@pytest.mark.parametrize("box_length", [0.5, 1.0, 2.0, 3.0, 5.0, 8.0])
def test_char_columns_match_signlog_composition_bit_for_bit(box_length):
    # independent of the kernel: the per-row SignLog composition the array
    # kernels replaced, over the whole 0..200 scan lattice
    from signlog_reference import char_full_columns, char_reduced_columns

    prob = OscillatorProblem(box_length)
    v = scan_grid(0.0, 200.0, 0.01)
    dv = pcf_d_pair_signlog(v, prob.alpha)
    for kernel, reference in ((oscillator_char_full, char_full_columns),
                              (oscillator_char_reduced, char_reduced_columns)):
        want = reference(v, prob, dv)
        assert [x.hex() for x in kernel(v, prob).tolist()] == [x.hex() for x in want.tolist()]
    assert np.isnan(oscillator_char_full(v, prob)).sum() >= 201  # the Gamma poles at least


def test_scalar_char_full_raises_where_delta_overflows():
    # m / (pi hbar w0) = 1e300 / (pi 1e-300) overflows: the array holds NaN, the scalar raises
    prob = OscillatorProblem(1.0, UnitSystem(mass=1e300, omega0=1e-300))
    with pytest.raises(RangeError, match="overflows"):
        oscillator_char_full(4.3, prob)
    assert np.isnan(oscillator_char_full(np.array([4.3]), prob)).all()
    assert math.isfinite(oscillator_char_reduced(4.3, prob))


def test_char_reduced_without_a_value():
    # alpha underflows to 0: D_1(-alpha) = D_1(alpha) = 0, and r(1) = 0/0
    prob = OscillatorProblem(5e-324)
    assert prob.alpha == 0.0
    with pytest.raises(NumericError, match="both vanish"):
        oscillator_char_reduced(1.0, prob)
    assert np.isnan(oscillator_char_reduced(np.array([1.0]), prob)).all()
    assert oscillator_char_reduced(0.5, prob) == 0.0


def test_oscillator_spectrum_beyond_the_kummer_range_raises():
    # alpha^2 / 2 = L^2 / 4 > 50: the wall factors are outside the validated
    # Kummer range, so the spectrum raises instead of returning no levels
    with pytest.raises(DomainError):
        oscillator_spectrum(OscillatorProblem(20.0), 2)


def test_oscillator_spectrum_validates_args(unit_box):
    with pytest.raises(DomainError):
        oscillator_spectrum(unit_box, 0)
    with pytest.raises(DomainError):
        oscillator_spectrum(unit_box, 13)


def test_oscillator_spectrum_reports_fewer_when_range_exhausted(unit_box, six_levels):
    # only six levels fit below the order cap for the unit box: asking for
    # more returns the count found, not an error
    lines = oscillator_spectrum(unit_box, 8)
    assert len(lines) == 6
    for got, want in zip(lines, six_levels):
        assert got.root.value == pytest.approx(want.root.value, abs=1e-9)


def test_oscillator_spectrum_unit_invariance(six_levels):
    # for a box of one characteristic length the dimensionless roots cannot
    # depend on the unit system; energies scale with hbar * omega0
    units = UnitSystem(hbar=2.0, mass=3.0, omega0=0.7)
    a = math.sqrt(units.hbar / (units.mass * units.omega0))
    lines = oscillator_spectrum(OscillatorProblem(a, units), 6)
    for got, ref in zip(lines, six_levels):
        assert got.root.value == pytest.approx(ref.root.value, rel=1e-10)
        assert got.energy == pytest.approx(ref.energy * 2.0 * 0.7, rel=1e-10)


def test_oscillator_problem_alpha(unit_box):
    assert unit_box.alpha == pytest.approx(math.sqrt(2.0) / 2.0, rel=1e-15)


# ----------------------------------------------------------------------
# Box / disk / ball spectra via the oscillatory continuation
# ----------------------------------------------------------------------

def test_box_spectrum_matches_analytic():
    lines = box_spectrum_rect(1.0, 5)
    for j, line in enumerate(lines, start=1):
        assert line.root.value == pytest.approx(j * math.pi, rel=1e-10)
        assert line.energy == pytest.approx(0.5 * (j * math.pi) ** 2, rel=1e-8)


def test_box_roots_flip_continued_determinant():
    # the continued two-wall determinant sin(kappa a)/kappa changes sign at
    # every reported root, tying the spectrum back to the pole condition
    a = 1.0
    f = lambda k: math.sin(k * a) / k
    for line in box_spectrum_rect(a, 4):
        assert f(line.root.value - 1e-4) * f(line.root.value + 1e-4) < 0.0


def test_box_spectrum_scaling():
    base = box_spectrum_rect(1.0, 3)
    wide = box_spectrum_rect(2.0, 3)
    for b, w in zip(base, wide):
        assert w.root.value == pytest.approx(0.5 * b.root.value, rel=1e-10)
        assert w.energy == pytest.approx(0.25 * b.energy, rel=1e-10)


def test_cyl_spectrum_matches_series_bisection_oracle():
    lines = cyl_dirichlet_spectrum(1.0, 0, 3)
    for line, want in zip(lines, J0_ZEROS):
        assert line.root.value == pytest.approx(want, rel=1e-8)


def test_cyl_spectrum_scaling():
    base = cyl_dirichlet_spectrum(1.0, 0, 3)
    double = cyl_dirichlet_spectrum(2.0, 0, 3)
    for b, d in zip(base, double):
        assert d.root.value == pytest.approx(0.5 * b.root.value, rel=1e-10)


def test_sphere_spectrum_is_pi_multiples():
    lines = sph_dirichlet_spectrum(1.0, 0, 3)
    for j, line in enumerate(lines, start=1):
        assert line.root.value == pytest.approx(j * math.pi, rel=1e-10)


def test_shell_cross_product_unit_gap():
    # j0/y0 cross product on c in [1, 2] reduces to sin(kappa (c2-c1)) up to
    # a nonvanishing factor, so the roots sit at integer multiples of pi
    lines = sph_shell_spectrum(1.0, 2.0, 0, 3)
    for j, line in enumerate(lines, start=1):
        assert line.root.value == pytest.approx(j * math.pi, rel=1e-10)


def test_annulus_cross_product_oracle():
    # independent J/Y series assembly bisected for the first root (b2/b1 = 2)
    def y0_series(x):
        q = x * x / 4.0
        term, hk, total = 1.0, 0.0, 0.0
        for k in range(1, 60):
            term *= -q / (k * k)
            hk += 1.0 / k
            total += -term * hk
        g = 0.5772156649015328606
        return (2.0 / math.pi) * ((math.log(0.5 * x) + g) * j0_series(x) + total)

    def cross(k):
        return j0_series(k * 1.0) * y0_series(k * 2.0) - j0_series(k * 2.0) * y0_series(k * 1.0)

    want = bisect(cross, 3.0, 3.3)
    lines = cyl_annulus_spectrum(1.0, 2.0, 0, 1)
    assert lines[0].root.value == pytest.approx(want, rel=1e-8)


# ----------------------------------------------------------------------
# Delta-well bound state
# ----------------------------------------------------------------------

def test_delta_well_unit_strength():
    line = delta_well_bound_state(-1.0)
    assert line.energy == pytest.approx(-0.5, rel=1e-10)
    assert line.root.value == pytest.approx(1.0, rel=1e-10)


def test_delta_well_double_strength():
    line = delta_well_bound_state(-2.0)
    assert line.energy == pytest.approx(-2.0, rel=1e-10)


def test_delta_well_repulsive_is_empty():
    assert delta_well_bound_state(1.0) is None
    assert delta_well_bound_state(0.0) is None


def test_delta_well_with_units():
    units = UnitSystem(hbar=2.0, mass=3.0)
    line = delta_well_bound_state(-1.5, units)
    want = -units.mass * 1.5 ** 2 / (2.0 * units.hbar ** 2)
    assert line.energy == pytest.approx(want, rel=1e-10)


def test_cyl_spectrum_higher_mode():
    # J_5 zeros: first-zero shift ~ m + 1.86 m^{1/3}, spacing -> pi
    lines = cyl_dirichlet_spectrum(1.0, 5, 3)
    assert len(lines) == 3
    from greenchain.specfun import bessel_jy
    for line in lines:
        assert abs(bessel_jy(5, line.root.value)[0]) <= 1e-10
    assert 8.0 < lines[0].root.value < 10.0  # first J_5 zero near 8.77


# ----------------------------------------------------------------------
# Scan table
# ----------------------------------------------------------------------

def test_scan_table_row_count():
    rows = char_scan_table(np.sin, 0.0, 7.0, 0.01)
    assert len(rows) == 701
    assert rows[0][0] == 0.0
    assert rows[-1][0] == pytest.approx(7.0, abs=1e-9)


def test_scan_table_empty_range():
    assert char_scan_table(np.sin, 2.0, 2.0, 0.1) == []


def test_scan_table_monotone_single_flip():
    rows = char_scan_table(lambda x: x - 0.5, 0.0, 1.0, 0.01)
    signs = [s for (_, _, s) in rows if s is not None and s != 0]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    assert flips <= 1


def test_scan_table_zoom_locates_first_root(unit_box):
    rows = char_scan_table(lambda v: oscillator_char_reduced(v, unit_box), 4.3, 4.8, 1e-3)
    assert len(rows) == 501
    v_min = min(rows, key=lambda r: r[1])[0]
    assert abs(v_min - 4.45) <= 0.005


def test_scan_table_emits_empty_cells_where_not_finite(unit_box):
    # Delta diverges at integer v (Gamma pole): those rows carry None cells
    rows = char_scan_table(lambda v: oscillator_char_full(v, unit_box), 0.5, 1.5, 0.25)
    by_param = {round(p, 6): (a, s) for (p, a, s) in rows}
    assert by_param[1.0] == (None, None)
    assert by_param[0.75][0] is not None


# ----------------------------------------------------------------------
# One windowed scan-and-refine: pinned output, high orders, arguments
# ----------------------------------------------------------------------

# CLI bytes and the float.hex of (root, residual, Brent iterations), recorded
# from the code before every spectrum went through one windowed scan (`_levels`)
GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden_spectra.json").read_text())


@pytest.mark.parametrize("command", sorted(GOLDEN["cli"]))
def test_cli_bytes_match_golden(command, capsys):
    from greenchain.cli import main

    assert main(command.split()) == 0
    assert capsys.readouterr().out == GOLDEN["cli"][command]


# sha256 of the scan CSV over 0..200, recorded from the per-row SignLog composition
@pytest.mark.parametrize("command", sorted(GOLDEN["scan"]))
def test_scan_csv_matches_golden_sha256(command, tmp_path):
    from greenchain.cli import main

    out = tmp_path / "scan.csv"
    assert main(command.split() + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN["scan"][command]


def _golden_levels(key):
    name, *args = key.split()
    if name == "oscillator_spectrum":
        length, n = args
        return oscillator_spectrum(OscillatorProblem(float(length)), int(n))
    if name in ("cyl_dirichlet_spectrum", "sph_dirichlet_spectrum"):
        # recorded from the scalar Bessel scans, before they took arrays of kappa
        radius, mode, n = args
        fn = {"cyl_dirichlet_spectrum": cyl_dirichlet_spectrum,
              "sph_dirichlet_spectrum": sph_dirichlet_spectrum}
        return fn[name](float(radius), int(mode), int(n))
    b1, b2, mode, n = args
    gap = float(b2) - float(b1)
    # the recorded roots used an absolute Brent tolerance of 1e-12 in kappa;
    # tol bounds kappa (b2 - b1) now, and 1e-12 * gap / gap == 1e-12 here
    fn = {"cyl_annulus_spectrum": cyl_annulus_spectrum, "sph_shell_spectrum": sph_shell_spectrum}
    return fn[name](float(b1), float(b2), int(mode), int(n), tol=1e-12 * gap)


@pytest.mark.parametrize("key", sorted(GOLDEN["levels"]))
def test_levels_match_golden_bit_for_bit(key):
    got = [[line.root.value.hex(), line.root.residual.hex(), line.root.iterations]
           for line in _golden_levels(key)]
    assert got == GOLDEN["levels"][key]


DIRICHLET = [
    lambda n: box_spectrum_rect(1.0, n),
    lambda n, mode=2: cyl_dirichlet_spectrum(1.0, mode, n),
    lambda n, mode=2: sph_dirichlet_spectrum(1.0, mode, n),
    lambda n, mode=2: cyl_annulus_spectrum(1.0, 2.0, mode, n),
    lambda n, mode=2: sph_shell_spectrum(1.0, 2.0, mode, n),
]


@pytest.mark.parametrize("n", [0, -1, -2])
@pytest.mark.parametrize("spectrum", range(len(DIRICHLET)))
def test_dirichlet_spectra_reject_non_positive_n(spectrum, n):
    with pytest.raises(DomainError, match="n >= 1"):
        DIRICHLET[spectrum](n)


@pytest.mark.parametrize("spectrum", range(1, len(DIRICHLET)))
def test_bessel_spectra_reject_negative_order(spectrum, monkeypatch):
    # a negative order has no grid point with a value: reject it before the scan
    import greenchain.spectrum as spectrum_mod

    monkeypatch.setattr(spectrum_mod, "scan_sign_changes", None)
    with pytest.raises(DomainError, match="order"):
        DIRICHLET[spectrum](3, mode=-1)


@pytest.mark.parametrize("call", [
    lambda: box_spectrum_rect(math.inf, 2),
    lambda: box_spectrum_rect(math.nan, 2),
    lambda: cyl_dirichlet_spectrum(math.inf, 0, 2),
    lambda: sph_dirichlet_spectrum(math.inf, 0, 2),
    lambda: cyl_annulus_spectrum(1.0, math.inf, 0, 2),
    lambda: sph_shell_spectrum(1.0, math.inf, 0, 2),
    lambda: scan_grid(0.0, 1.0, math.inf),
    lambda: kummer_m(1.0, math.nan, 1.0),
    lambda: kummer_m(1.0, -math.inf, 1.0),
    lambda: kummer_m(1.0, 0.5, math.nan),
], ids=["box-inf", "box-nan", "disk", "ball", "annulus", "shell", "scan-step", "kummer-nan",
        "kummer-minus-inf", "kummer-x-nan"])
def test_non_finite_inputs_raise_up_front(call, monkeypatch):
    # each used to return [], NaN or run a 10,000-term series before failing;
    # none may reach a scan or a series now
    import greenchain.specfun as specfun_mod
    import greenchain.spectrum as spectrum_mod

    monkeypatch.setattr(spectrum_mod, "scan_sign_changes", None)
    monkeypatch.setattr(specfun_mod, "_kummer_series", None)
    monkeypatch.setattr(specfun_mod, "_kummer_series_array", None)
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("call", [
    lambda: box_spectrum_rect(1e308, 2),  # the step pi / (8 a) underflows to 0
    lambda: box_spectrum_rect(1e-310, 2),
    lambda: cyl_dirichlet_spectrum(1e-310, 0, 2),  # 0.3 / b overflows
    lambda: cyl_dirichlet_spectrum(1e-305, 1000, 12),  # the row budget's end overflows
    lambda: sph_dirichlet_spectrum(1e-310, 0, 2),
    lambda: cyl_annulus_spectrum(1e-310, 2e-310, 0, 2),
    lambda: sph_shell_spectrum(1e-310, 2e-310, 0, 2),
], ids=["box-long", "box-short", "disk", "disk-high-order", "ball", "annulus", "shell"])
def test_lengths_without_a_finite_kappa_grid_raise_up_front(call, monkeypatch):
    # each used to return [] or stop on an OverflowError mid-scan
    import greenchain.spectrum as spectrum_mod

    monkeypatch.setattr(spectrum_mod, "scan_sign_changes", None)
    with pytest.raises(DomainError, match="no finite kappa scan grid"):
        call()


def _scipy_sign_change_roots(f, lo, step, count):
    """The first `count` roots of a vectorised f above lo, by grid and brentq."""
    from scipy import optimize

    roots, x0 = [], lo
    while len(roots) < count:
        xs = x0 + step * np.arange(4097)
        fs = f(xs)
        for i in np.flatnonzero(np.sign(fs[:-1]) * np.sign(fs[1:]) < 0)[:count - len(roots)]:
            roots.append(optimize.brentq(f, xs[i], xs[i + 1], xtol=1e-15, rtol=1e-15))
        x0 = xs[-1]
    return np.array(roots)


@pytest.mark.parametrize("mode", [20, 30, 100])
def test_disk_high_order_continues_the_scan(mode):
    # the first window ends below the 12th zero of J_m: later windows find the rest
    special = pytest.importorskip("scipy.special")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Y_m overflows near kappa = 0
        lines = cyl_dirichlet_spectrum(1.0, mode, 12)
    got = np.array([line.root.value for line in lines])
    np.testing.assert_allclose(got, special.jn_zeros(mode, 12), rtol=1e-12, atol=0)


def test_ball_high_order_continues_the_scan():
    special = pytest.importorskip("scipy.special")
    want = _scipy_sign_change_roots(lambda x: special.spherical_jn(100, x), 100.0, 0.01, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lines = sph_dirichlet_spectrum(1.0, 100, 12)
    np.testing.assert_allclose([line.root.value for line in lines], want, rtol=1e-12, atol=0)


def test_thin_annulus_at_high_order_gives_every_level():
    # at m = 400 the annulus (1, 1.1) has no level in the first window
    special = pytest.importorskip("scipy.special")
    m, b1, b2 = 400, 1.0, 1.1

    def cross(k):
        return special.jv(m, k * b1) * special.yv(m, k * b2) \
            - special.jv(m, k * b2) * special.yv(m, k * b1)

    want = _scipy_sign_change_roots(cross, 300.0, 0.05, 12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lines = cyl_annulus_spectrum(b1, b2, m, 12)
    np.testing.assert_allclose([line.root.value for line in lines], want, rtol=1e-12, atol=0)


def test_dirichlet_tolerance_is_per_unit_length():
    # tol bounds kappa L, so long boxes and wide disks keep their relative digits
    special = pytest.importorskip("scipy.special")
    box = box_spectrum_rect(1e6, 1)[0].root.value
    assert abs(box - math.pi / 1e6) <= 1e-11 * math.pi / 1e6
    disk = cyl_dirichlet_spectrum(1e5, 0, 1)[0].root.value
    want = special.jn_zeros(0, 1)[0] / 1e5
    assert abs(disk - want) <= 1e-11 * want


def test_dirichlet_scan_stops_when_the_row_budget_is_spent(monkeypatch):
    # a factor without roots: the windows end after _MAX_SCAN_ROWS grid points
    import greenchain.spectrum as spectrum_mod

    rows = []
    real_scan = spectrum_mod.scan_sign_changes

    def counting_scan(f, lo, hi, n_grid):
        rows.append(n_grid)
        return real_scan(f, lo, hi, n_grid)

    monkeypatch.setattr(spectrum_mod, "_MAX_SCAN_ROWS", 500)
    # the disk reads J_m alone, over the whole scan window in one call
    monkeypatch.setattr(spectrum_mod, "_bessel_j", lambda m, x: np.ones_like(x))
    monkeypatch.setattr(spectrum_mod, "scan_sign_changes", counting_scan)
    assert cyl_dirichlet_spectrum(1.0, 0, 3) == []
    assert len(rows) > 1
    assert sum(rows) <= 500 + 2 * len(rows)


@pytest.mark.parametrize("spectrum,solution,walls", [
    (lambda: box_spectrum_rect(1.0, 12), "_sine_solution", 1),
    (lambda: cyl_dirichlet_spectrum(1.0, 2, 12), "_bessel_j", 1),
    (lambda: sph_dirichlet_spectrum(1.0, 2, 12), "_sph_j", 1),
    (lambda: cyl_annulus_spectrum(1.0, 2.0, 2, 12), "bessel_jy", 2),
    (lambda: sph_shell_spectrum(1.0, 2.0, 2, 12), "sph_ordinary", 2),
    (lambda: cyl_dirichlet_spectrum(1.0, 30, 12), "_bessel_j", 1),  # several windows
])
def test_dirichlet_scan_makes_one_array_call_per_window(monkeypatch, spectrum, solution, walls):
    # the scan evaluates a window in one array call, both walls stacked; the
    # scalar path serves Brent alone, one call per wall and evaluation
    import greenchain.spectrum as spectrum_mod

    calls = {"array": 0, "scalar": 0}
    real_solution = getattr(spectrum_mod, solution)

    def counting_solution(*args):
        calls["array" if any(isinstance(a, np.ndarray) for a in args) else "scalar"] += 1
        return real_solution(*args)

    windows, evaluations = [], []
    real_scan, real_brent = spectrum_mod.scan_sign_changes, spectrum_mod.brent

    def counting_scan(f, lo, hi, n_grid):
        windows.append(n_grid)
        return real_scan(f, lo, hi, n_grid)

    def counting_brent(f, bracket, **kwargs):
        return real_brent(lambda k: evaluations.append(k) or f(k), bracket, **kwargs)

    monkeypatch.setattr(spectrum_mod, solution, counting_solution)
    monkeypatch.setattr(spectrum_mod, "scan_sign_changes", counting_scan)
    monkeypatch.setattr(spectrum_mod, "brent", counting_brent)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # Y_m overflows near kappa = 0
        assert len(spectrum()) == 12
    assert calls["array"] == len(windows) >= 1
    assert calls["scalar"] == walls * len(evaluations) > 0


def test_levels_partial_is_sorted_across_windows(monkeypatch):
    # Brent fails in the second window: the levels of the first come back sorted
    import greenchain.spectrum as spectrum_mod

    real_brent = spectrum_mod.brent

    def failing(f, bracket, tol=1e-10, max_iter=200):
        if bracket.lo > 20.0:
            raise NumericError("forced failure")
        return real_brent(f, bracket, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(spectrum_mod, "brent", failing)
    with pytest.raises(NumericError) as info:
        oscillator_spectrum(OscillatorProblem(3.0), 12)
    values = [line.root.value for line in info.value.partial]
    assert values and values == sorted(values) and values[-1] < 20.0


def test_levels_partial_keeps_every_level_below_the_failure(monkeypatch):
    # brackets are refined in ascending v across both parities: Brent failing
    # on the fifth level of L = 3 leaves levels 1-4
    import greenchain.spectrum as spectrum_mod

    want = oscillator_spectrum(OscillatorProblem(3.0), 12)
    real_brent = spectrum_mod.brent
    brackets = []

    def failing(f, bracket, tol=1e-10, max_iter=200):
        brackets.append(bracket)
        if len(brackets) == 5:
            raise NumericError("forced failure")
        return real_brent(f, bracket, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(spectrum_mod, "brent", failing)
    with pytest.raises(NumericError) as info:
        oscillator_spectrum(OscillatorProblem(3.0), 12)
    assert info.value.partial == want[:4]
    assert brackets[4] == want[4].root.bracket


def test_run_without_an_end_value_raises_with_the_levels_below(monkeypatch):
    # no value at the lower end of the second level's enclosure (NaN there, or a
    # library error from the wall factor): the level could hide there, so the
    # spectrum stops below it instead of dropping it
    import greenchain.spectrum as spectrum_mod

    want = oscillator_spectrum(OscillatorProblem(3.0), 12)
    real_kummer = spectrum_mod.kummer_m

    def raising(a, b, x):
        raise NumericError("injected")

    for failure in (lambda a, b, x: math.nan, raising):
        odd_calls = []

        def odd_run_without_a_start(a, b, x):
            # the even levels are bracketed first: the first odd call is level 2's lower end
            if b == 1.5:
                odd_calls.append(a)
                if len(odd_calls) == 1:
                    return failure(a, b, x)
            return real_kummer(a, b, x)

        monkeypatch.setattr(spectrum_mod, "kummer_m", odd_run_without_a_start)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            with pytest.raises(NumericError, match="level 2: the wall factor has no value") as info:
                oscillator_spectrum(OscillatorProblem(3.0), 12)
        assert info.value.partial == want[:1]
