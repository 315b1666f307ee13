"""Command-line surface: kernel evaluation, scan tables, spectra, reference check.

Exit codes: 0 success, 1 usage/configuration error, 2 numeric failure.
CSV output prints every number with 12 significant digits, '.' decimal
separator, ',' field separator and '\\n' line terminator; non-finite values
become empty cells.  Output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, replace
from typing import Optional, Tuple, Union

import numpy as np

from . import chain as chain_mod
from . import greens as greens_mod
from . import specfun
from . import spectrum as spectrum_mod
from .errors import ConfigError, DomainError, GreenChainError, NumericError, RangeError
from .greens import Geometry, UnitSystem

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2

# Published numerical eigenvalues of the box-confined oscillator for a box of
# one oscillator characteristic length, in units of hbar*omega0.
REFERENCE_LEVELS = (4.951, 19.774, 44.452, 78.996, 123.410, 177.693)
REFERENCE_TOLERANCE = 0.01

_TOP_KEYS = {"geometry", "mode", "positions", "couplings", "units", "oscillator"}
_UNIT_KEYS = {"hbar", "mass", "omega0"}
_OSC_KEYS = {"box_length", "center"}


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _csv_row(cells) -> str:
    return ",".join("" if c is None else (c if isinstance(c, str) else _fmt(c)) for c in cells)


@dataclass(frozen=True)
class ChainConfig:
    """Validated JSON configuration for a delta chain."""

    geometry: Geometry
    positions: Tuple[float, ...]
    couplings: Union[Tuple[float, ...], str]  # tuple of raw strengths or "infinite"
    mode: Optional[int]
    units: UnitSystem
    center: Optional[float]

    def to_chain(self) -> chain_mod.DeltaChain:
        couplings = (
            chain_mod.ALL_INFINITE if self.couplings == "infinite" else self.couplings
        )
        try:
            return chain_mod.DeltaChain.from_couplings(
                self.geometry, self.positions, couplings, self.units
            )
        except DomainError as exc:
            raise ConfigError(f"invalid chain: {exc}") from None

    def to_free_greens(self) -> greens_mod.FreeGreens:
        return greens_mod.free_greens_for(self.geometry, 0 if self.mode is None else self.mode,
                                          self.units, 0.0 if self.center is None else self.center)


def _finite_number(value, name: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) \
            or not math.isfinite(value):
        raise ConfigError(f"'{name}' must be a finite number, got {value!r}")
    return float(value)


def parse_config(data: dict) -> ChainConfig:
    if not isinstance(data, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    for key in ("geometry", "positions", "couplings"):
        if key not in data:
            raise ConfigError(f"config field '{key}' is required")
    try:
        geometry = Geometry(data["geometry"])
    except ValueError:
        raise ConfigError(f"unknown geometry {data['geometry']!r}") from None
    if geometry is Geometry.CUSTOM:
        raise ConfigError("custom geometry cannot be configured from JSON")

    positions = data["positions"]
    if not isinstance(positions, list) or not positions or \
            not all(isinstance(p, (int, float)) and not isinstance(p, bool) for p in positions):
        raise ConfigError("'positions' must be a non-empty list of numbers")
    positions = tuple(float(p) for p in positions)
    if not all(math.isfinite(p) for p in positions):
        raise ConfigError("'positions' must be finite numbers")

    couplings = data["couplings"]
    if couplings == "infinite":
        couplings_val: Union[Tuple[float, ...], str] = "infinite"
    elif isinstance(couplings, list) and \
            all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in couplings):
        couplings_val = tuple(float(c) for c in couplings)
        if not all(math.isfinite(c) for c in couplings_val):
            raise ConfigError("'couplings' must be finite numbers; use \"infinite\" for "
                              "impenetrable walls")
    else:
        raise ConfigError("'couplings' must be a list of numbers or the string \"infinite\"")

    mode = data.get("mode")
    if mode is not None:
        if not isinstance(mode, int) or isinstance(mode, bool) or mode < 0:
            raise ConfigError("'mode' must be a non-negative integer")

    units_data = data.get("units", {})
    if not isinstance(units_data, dict):
        raise ConfigError("'units' must be an object")
    unknown = set(units_data) - _UNIT_KEYS
    if unknown:
        raise ConfigError(f"unknown units fields: {sorted(unknown)}")
    try:
        units = UnitSystem(**{key: _finite_number(value, f"units.{key}")
                              for key, value in units_data.items()})
    except DomainError as exc:
        raise ConfigError(f"invalid units: {exc}") from None

    box_length = None
    center = None
    osc_data = data.get("oscillator")
    if osc_data is not None:
        if not isinstance(osc_data, dict):
            raise ConfigError("'oscillator' must be an object")
        unknown = set(osc_data) - _OSC_KEYS
        if unknown:
            raise ConfigError(f"unknown oscillator fields: {sorted(unknown)}")
        if "box_length" not in osc_data:
            raise ConfigError("'oscillator.box_length' is required when the section is present")
        box_length = _finite_number(osc_data["box_length"], "oscillator.box_length")
        if box_length <= 0.0:
            raise ConfigError("'oscillator.box_length' must be positive")
        center = _finite_number(osc_data.get("center", box_length / 2.0), "oscillator.center")
    if geometry is Geometry.OSCILLATOR and box_length is None:
        raise ConfigError("oscillator geometry requires the 'oscillator' section")

    cfg = ChainConfig(geometry, positions, couplings_val, mode, units, center)
    cfg.to_chain()  # validate wall ordering/couplings eagerly
    return cfg


def load_config(path: str) -> ChainConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from None
    return parse_config(data)


class _Parser(argparse.ArgumentParser):
    """argparse that exits with the documented usage code (1, not 2) and one line."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes -1e-3 for an option; any negative float literal is a value
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
    return value


def _positive(text: str) -> float:
    value = _finite(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _order(text: str) -> int:
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {text!r}")


def _add_unit_flags(parser):
    parser.add_argument("--hbar", type=_positive, default=None, help="override hbar")
    parser.add_argument("--mass", type=_positive, default=None, help="override mass")
    parser.add_argument("--omega0", type=_positive, default=None, help="override omega0")


def _units_from_args(args, base: UnitSystem = greens_mod.NATURAL_UNITS) -> UnitSystem:
    flags = {name: getattr(args, name) for name in ("hbar", "mass", "omega0")}
    return replace(base, **{name: value for name, value in flags.items() if value is not None})


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="greenchain",
                     description="Delta-chain Green's functions and confined spectra")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("greens", parents=[], help="evaluate the corrected Green's function",
                       description="Evaluate g(x, x') for the chain in CONFIG at the given "
                                   "spectral parameter (k0, or v for the oscillator). "
                                   "Command-line unit/mode flags override config values.")
    p.add_argument("config", help="JSON chain configuration")
    p.add_argument("x", type=_finite)
    p.add_argument("xp", type=_finite)
    p.add_argument("param", type=_finite, help="k0 (geometries) or v (oscillator)")
    p.add_argument("--strong", action="store_true",
                   help="impenetrable-wall limit (implied by couplings: \"infinite\")")
    p.add_argument("--mode", type=_order, default=None, help="override azimuthal/angular order")
    _add_unit_flags(p)
    p.set_defaults(func=cmd_greens)

    p = sub.add_parser("scan", help="write a characteristic-function scan table as CSV")
    p.add_argument("--geometry", choices=["oscillator"], required=True)
    p.add_argument("--a", type=_positive, required=True, help="box length")
    p.add_argument("--lo", type=_finite, required=True)
    p.add_argument("--hi", type=_finite, required=True)
    p.add_argument("--step", type=_finite, required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    _add_unit_flags(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("spectrum", help="compute a spectrum as CSV on stdout")
    p.add_argument("--geometry", required=True,
                   choices=["oscillator", "box", "cylinder", "sphere", "delta-well"])
    p.add_argument("--n-roots", type=int, default=6)
    p.add_argument("--tol", type=_positive, default=None,
                   help="Brent tolerance on v (oscillator) or on kappa*L, L the length or radius")
    p.add_argument("--a", type=_positive, default=1.0, help="box length (oscillator/box)")
    p.add_argument("--radius", type=_positive, default=1.0, help="radius (cylinder/sphere)")
    p.add_argument("--mode", type=_order, default=0, help="azimuthal m or angular l")
    p.add_argument("--mu", type=_finite, default=-1.0, help="delta-well strength")
    _add_unit_flags(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("table1", help="compare the first six boxed-oscillator levels "
                                      "against the published reference values")
    p.add_argument("--tolerance", type=_positive, default=REFERENCE_TOLERANCE,
                   help="acceptance tolerance in units of hbar*omega0 (default 0.01)")
    p.set_defaults(func=cmd_table1)

    return parser


def cmd_greens(args) -> int:
    cfg = load_config(args.config)
    cfg = replace(cfg, units=_units_from_args(args, cfg.units),
                  mode=cfg.mode if args.mode is None else args.mode)
    if cfg.geometry is not Geometry.OSCILLATOR and not args.param > 0.0:
        raise ConfigError(f"k0 must be positive for the {cfg.geometry.value} geometry, "
                          f"got {_fmt(args.param)}")
    if cfg.geometry in (Geometry.CYLINDRICAL, Geometry.SPHERICAL) and min(args.x, args.xp) <= 0.0:
        raise ConfigError(f"x and x' must be positive radii for the {cfg.geometry.value} "
                          f"geometry, got {_fmt(args.x)} and {_fmt(args.xp)}")
    delta_chain = cfg.to_chain()
    g0 = cfg.to_free_greens()
    if args.strong or delta_chain.is_strong:
        value = chain_mod.greens_strong(delta_chain, g0, args.x, args.xp, args.param)
    else:
        value = chain_mod.greens_finite(delta_chain, g0, args.x, args.xp, args.param)
    print(_fmt(value))
    return EXIT_OK


def _oscillator_problem(args, units: UnitSystem) -> spectrum_mod.OscillatorProblem:
    """The boxed oscillator of --a; ConfigError where alpha leaves the kernels' validated range.

    pcf_d takes |y| = alpha <= 10 and kummer_m takes x = alpha^2 / 2 <= 50.
    """
    prob = spectrum_mod.OscillatorProblem(args.a, units)
    alpha = prob.alpha
    y_max, x_max = specfun._PCF_Y_MAX, specfun._KUMMER_X_MAX
    if not (alpha <= y_max and 0.5 * (alpha * alpha) <= x_max):
        raise ConfigError(f"--a {_fmt(args.a)} gives alpha = {_fmt(alpha)}, outside the "
                          f"validated range alpha <= {y_max:g} (alpha^2/2 <= {x_max:g})")
    return prob


def cmd_scan(args) -> int:
    try:
        grid = spectrum_mod.scan_grid(args.lo, args.hi, args.step)
    except DomainError as exc:
        raise ConfigError(f"bad --lo/--hi/--step: {exc}") from None
    prob = _oscillator_problem(args, _units_from_args(args))
    # one D_v pair and one set of its squares over the window serve both columns
    cols = [np.where(np.isfinite(col), np.abs(col), np.nan).tolist()
            for col in spectrum_mod._char_columns(grid, prob)]
    # _fmt's cells (the same .12g conversion); a non-finite one is NaN, and no number prints "nan"
    text = "".join(["%.12g,%.12g,%.12g\n" % row for row in zip(grid.tolist(), *cols)])
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write("v,abs_reduced,abs_full\n" + text.replace("nan", ""))
    except OSError as exc:
        print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _spectrum_lines(args, units: UnitSystem, prob: Optional[spectrum_mod.OscillatorProblem]):
    kwargs = {} if args.tol is None else {"tol": args.tol}
    if prob is not None:
        return spectrum_mod.oscillator_spectrum(prob, args.n_roots, **kwargs)
    kwargs["units"] = units
    if args.geometry == "box":
        return spectrum_mod.box_spectrum_rect(args.a, args.n_roots, **kwargs)
    if args.geometry == "cylinder":
        return spectrum_mod.cyl_dirichlet_spectrum(args.radius, args.mode, args.n_roots, **kwargs)
    if args.geometry == "sphere":
        return spectrum_mod.sph_dirichlet_spectrum(args.radius, args.mode, args.n_roots, **kwargs)
    line = spectrum_mod.delta_well_bound_state(args.mu, units)
    return [] if line is None else [line]


def cmd_spectrum(args) -> int:
    if not 1 <= args.n_roots <= 12:
        raise ConfigError(f"--n-roots must be in [1, 12], got {args.n_roots}")
    units = _units_from_args(args)
    prob = _oscillator_problem(args, units) if args.geometry == "oscillator" else None
    status = EXIT_OK
    try:
        lines = _spectrum_lines(args, units, prob)
    except (NumericError, RangeError) as exc:  # a DomainError is bad input: main exits 1
        lines = list(getattr(exc, "partial", None) or [])  # levels refined before the failure
        print(f"error: {exc}", file=sys.stderr)
        status = EXIT_NUMERIC
    print("index,root_param,energy,residual,classification")
    for i, line in enumerate(lines):
        print(_csv_row((i, line.root.value, line.energy, line.root.residual,
                        line.root.classification.value)))
    return status


def cmd_table1(args) -> int:
    units = greens_mod.NATURAL_UNITS
    a = math.sqrt(units.hbar / (units.mass * units.omega0))
    prob = spectrum_mod.OscillatorProblem(a, units)
    lines = spectrum_mod.oscillator_spectrum(prob, 6)
    scale = units.hbar * units.omega0
    print("level  computed      reference    abs_diff")
    ok = len(lines) == len(REFERENCE_LEVELS)
    for i, ref in enumerate(REFERENCE_LEVELS):
        if i >= len(lines):
            break
        e = lines[i].energy / scale
        diff = abs(e - ref)
        ok = ok and diff <= args.tolerance
        print(f"E{i}     {e:<12.6f}  {ref:<11.3f}  {diff:.6f}")
    if ok:
        print(f"all six levels within {_fmt(args.tolerance)} hbar*omega0 of the reference")
        return EXIT_OK
    print(f"deviation exceeds {_fmt(args.tolerance)} hbar*omega0", file=sys.stderr)
    return EXIT_NUMERIC


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ConfigError, DomainError) as exc:  # bad input, whichever layer rejects it
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GreenChainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


def entry() -> None:
    sys.exit(main())
