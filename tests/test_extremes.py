"""Extreme inputs: every public spectrum and chain call raises a GreenChainError or answers
with finite numbers.

Lengths and radii span 1e-310 to 1e300, delta strengths -1e-320 to -inf and
spectral parameters (k0, or v for the oscillator) 1e-320 to 1e300, with unit
constants at the edges of double range.  No call may escape with a raw
Python exception (OverflowError, ZeroDivisionError, ...) or answer NaN or an
infinity, and the CLI lines built on them exit 1 or 2 with one line on
stderr.
"""

import itertools
import json
import math
import re
import warnings

import pytest

from greenchain import (ALL_INFINITE, DeltaChain, GreenChainError, OscillatorProblem, RangeError,
                        SignLog, UnitSystem, box_spectrum_rect, char_func, cyl_annulus_spectrum,
                        cyl_dirichlet_spectrum, delta_well_bound_state, even_wall_value,
                        free_greens_for, greens_finite, greens_strong, odd_wall_value,
                        oscillator_char_full, oscillator_char_reduced, oscillator_spectrum,
                        sph_dirichlet_spectrum, sph_shell_spectrum)
from greenchain.cli import main
from greenchain.errors import DomainError
from greenchain.spectrum import SpectrumLine

LENGTHS = [1e-310, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300]
MUS = [-1e-320, -1e-300, -1e-150, -1.0, -1e150, -1e300, -math.inf]
PARAMS = [1e-320, 1e-310, 1e-300, 1e-8, 1.0, 1e8, 1e300]
UNITS = [UnitSystem(), UnitSystem(hbar=1e200), UnitSystem(mass=1e-320), UnitSystem(mass=1e300)]
GEOMETRIES = ["rectangular", "cylindrical", "spherical", "oscillator"]


def _spectrum_calls():
    for length in LENGTHS:
        yield f"oscillator({length})", lambda L=length: oscillator_spectrum(OscillatorProblem(L), 3)
        yield f"box({length})", lambda L=length: box_spectrum_rect(L, 3)
        yield f"disk({length})", lambda L=length: cyl_dirichlet_spectrum(L, 0, 3)
        yield f"ball({length})", lambda L=length: sph_dirichlet_spectrum(L, 0, 3)
        yield f"annulus({length})", lambda L=length: cyl_annulus_spectrum(L, 2.0 * L, 0, 3)
        yield f"shell({length})", lambda L=length: sph_shell_spectrum(L, 2.0 * L, 0, 3)
        for fn, v in itertools.product((oscillator_char_full, oscillator_char_reduced,
                                        even_wall_value, odd_wall_value), PARAMS):
            yield f"{fn.__name__}({v}, {length})", \
                lambda fn=fn, v=v, L=length: fn(v, OscillatorProblem(L))
    for length in LENGTHS + [1e-100]:
        yield f"oscillator({length}, 12)", \
            lambda L=length: oscillator_spectrum(OscillatorProblem(L), 12)
    for units in UNITS + [UnitSystem(hbar=1e300)]:
        yield f"oscillator(1.0, {units}, 12)", \
            lambda u=units: oscillator_spectrum(OscillatorProblem(1.0, u), 12)
    for mu, units in itertools.product(MUS, UNITS):
        yield f"delta_well({mu}, {units})", lambda mu=mu, u=units: delta_well_bound_state(mu, u)


def _chain_calls():
    for geometry, length, param in itertools.product(GEOMETRIES, LENGTHS, PARAMS):
        g0 = free_greens_for(geometry)
        walls = [length, 2.0 * length]
        finite = DeltaChain.from_couplings(geometry, walls, [1.0, 1.0])
        strong = DeltaChain.from_couplings(geometry, walls, ALL_INFINITE)
        at = 1.5 * length
        yield f"greens_finite({geometry}, {length}, {param})", \
            lambda c=finite, g=g0, x=at, p=param: greens_finite(c, g, x, x, p)
        yield f"greens_strong({geometry}, {length}, {param})", \
            lambda c=strong, g=g0, x=at, p=param: greens_strong(c, g, x, x, p)
        yield f"char_func({geometry}, {length}, {param})", \
            lambda c=finite, g=g0, p=param: char_func(c, g, p)


def _numbers(answer):
    """The numbers an answer carries: a float, the log magnitude of a SignLog whose sign
    is not 0, and the root and energy of each level."""
    if isinstance(answer, SignLog):
        return [answer.log_mag] if answer.sign else []
    if isinstance(answer, (list, SpectrumLine)):
        lines = answer if isinstance(answer, list) else [answer]
        return [x for line in lines for x in (line.root.value, line.energy)]
    return [] if answer is None else [answer]  # None: the delta well of a repulsive coupling


def test_extreme_inputs_raise_only_greenchain_errors():
    # every call raises a GreenChainError or answers finite numbers
    escaped, non_finite, answered = [], [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning escapes as an exception
        warnings.filterwarnings("ignore", message="scan: skipping grid point")
        for name, call in itertools.chain(_spectrum_calls(), _chain_calls()):
            try:
                answer = call()
            except GreenChainError:
                continue
            except Exception as exc:  # noqa: BLE001 - the sweep reports every escape
                escaped.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            answered += 1
            if not all(math.isfinite(x) for x in _numbers(answer)):
                non_finite.append(f"{name}: {answer!r}")
    assert escaped == [] and non_finite == []
    assert answered > 400  # the sweep still reaches most calls


@pytest.mark.parametrize("mu, units", [(-1e-320, UnitSystem()), (-1.0, UnitSystem(hbar=1e200)),
                                       (-1.0, UnitSystem(mass=1e-320)),
                                       (-1e300, UnitSystem(mass=1e300)), (-math.inf, UnitSystem())])
def test_delta_well_outside_double_range_raises_range_error(mu, units):
    # lambda = 2 m mu / hbar^2 is 0, subnormal or infinite: the Brent bracket
    # [1e-9 |lambda|, |lambda|] or its tolerance has no value
    with pytest.raises(RangeError, match="lambda"):
        delta_well_bound_state(mu, units)


def test_delta_well_at_extreme_but_representable_coupling():
    # k0 = -lambda / 2 = -mu at mu = -1e-300 and -1e150: the root is still found
    for mu in (-1e-300, -1e150):
        line = delta_well_bound_state(mu)
        assert line.root.value == pytest.approx(-mu, rel=1e-12)


@pytest.mark.parametrize("field", ["hbar", "mass", "omega0"])
def test_unit_system_rejects_infinite_constants(field):
    with pytest.raises(DomainError, match="finite"):
        UnitSystem(**{field: math.inf})


def test_greens_finite_raises_where_the_wall_kernel_overflows():
    # |g0(a, a)| = 1 / (2 k0) overflows at k0 = 1e-320; the oscillator's at v = 1e-310
    chain = DeltaChain.from_couplings("rectangular", [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(RangeError, match="g0"):
        greens_finite(chain, free_greens_for("rectangular"), 0.5, 0.5, 1e-320)
    chain = DeltaChain.from_couplings("oscillator", [0.0, 1.0], [1.0, 1.0])
    with pytest.raises(RangeError, match="g0"):
        greens_finite(chain, free_greens_for("oscillator", center=0.5), 0.5, 0.5, 1e-310)


@pytest.mark.parametrize("geometry, walls, param", [
    ("rectangular", [1e8, 2e8], 1e300),  # log p = k0 z overflows at the second wall
    ("rectangular", [1e300, 2e300], 1e8),
    ("spherical", [1e300, 2e300], 1e-300),  # the weight r^2 overflows
])
def test_chain_results_outside_double_range_raise_range_error(geometry, walls, param):
    # each of these answered NaN: the wall sweep formed inf - inf
    g0 = free_greens_for(geometry)
    finite = DeltaChain.from_couplings(geometry, walls, [1.0, 1.0])
    strong = DeltaChain.from_couplings(geometry, walls, ALL_INFINITE)
    at = 1.5 * walls[0]
    calls = [lambda: greens_finite(finite, g0, at, at, param)]
    if geometry == "rectangular":
        calls += [lambda: greens_strong(strong, g0, at, at, param),
                  lambda: char_func(finite, g0, param)]
    for call in calls:
        with pytest.raises(RangeError, match=re.escape(f"parameter {param}")):
            call()


def test_oscillator_spectrum_past_the_kummer_range_raises_domain_error():
    # alpha^2 overflows at alpha = 7e199; it used to raise a raw OverflowError
    with pytest.raises(DomainError, match="alpha"):
        oscillator_spectrum(OscillatorProblem(1e200), 3)


RECT = {"geometry": "rectangular", "positions": [0.0, 1.0], "couplings": [1.0, 1.0]}
RECT_FAR = {"geometry": "rectangular", "positions": [1e8, 2e8], "couplings": [1.0, 1.0]}
SPH_FAR = {"geometry": "spherical", "positions": [1e300, 2e300], "couplings": [1.0, 1.0]}
OSC = {"geometry": "oscillator", "positions": [0.0, 1.0], "couplings": [1.0, 1.0],
       "oscillator": {"box_length": 1.0}}


@pytest.mark.parametrize("argv", [
    ["spectrum", "--geometry", "delta-well", "--mu", "-1e-320"],
    ["spectrum", "--geometry", "delta-well", "--mu", "-1", "--hbar", "1e200"],
    ["spectrum", "--geometry", "delta-well", "--mu", "-1", "--mass", "1e-320"],
    ["spectrum", "--geometry", "delta-well", "--mu", "-1e300", "--mass", "1e300"],
    ["greens", RECT, "0.5", "0.5", "1e-320"],
    ["greens", OSC, "0.5", "0.5", "1e-310"],
    ["greens", RECT_FAR, "1.5e8", "1.5e8", "1e300"],
    ["greens", SPH_FAR, "1.5e300", "1.5e300", "1e-300"],
], ids=["well-tiny-mu", "well-large-hbar", "well-tiny-mass", "well-infinite-lambda",
        "greens-rect", "greens-osc", "greens-rect-far", "greens-sph-far"])
def test_cli_extreme_inputs_exit_2_with_one_line(tmp_path, capsys, argv):
    if isinstance(argv[1], dict):
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(argv[1]), encoding="utf-8")
        argv = [argv[0], str(path)] + argv[2:]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
