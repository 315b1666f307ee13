"""CLI surface: config handling, CSV output, exit codes, determinism."""

import json
import math
import subprocess
import sys
import warnings

import pytest

from greenchain.cli import main, parse_config
from greenchain.errors import ConfigError
from mp_reference import rect_chain_greens_50_digits


def write_config(tmp_path, data, name="chain.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


RECT_ONE_WALL = {"geometry": "rectangular", "positions": [0.0], "couplings": [1.0]}
RECT_STRONG = {"geometry": "rectangular", "positions": [0.0, 1.0], "couplings": "infinite"}


# ----------------------------------------------------------------------
# Config parsing
# ----------------------------------------------------------------------

def test_config_rejects_unknown_fields():
    with pytest.raises(ConfigError):
        parse_config({**RECT_ONE_WALL, "bogus": 1})


def test_config_rejects_unknown_geometry():
    with pytest.raises(ConfigError):
        parse_config({**RECT_ONE_WALL, "geometry": "toroidal"})


def test_config_requires_core_fields():
    with pytest.raises(ConfigError):
        parse_config({"geometry": "rectangular", "positions": [0.0]})


def test_config_oscillator_needs_box():
    with pytest.raises(ConfigError):
        parse_config({"geometry": "oscillator", "positions": [0.0, 1.0],
                      "couplings": "infinite"})


def test_config_center_defaults_to_half_box():
    cfg = parse_config({
        "geometry": "oscillator", "positions": [0.0, 1.0], "couplings": "infinite",
        "oscillator": {"box_length": 1.0},
    })
    assert cfg.center == 0.5


def test_config_infinite_couplings():
    cfg = parse_config(RECT_STRONG)
    assert cfg.to_chain().is_strong


OSC_CHAIN = {"geometry": "oscillator", "positions": [0.0, 1.0], "couplings": "infinite"}


@pytest.mark.parametrize("field,value", [
    ("box_length", "x"),
    ("box_length", None),
    ("box_length", True),
    ("box_length", math.nan),
    ("box_length", math.inf),
    ("center", None),
    ("center", "0.5"),
    ("center", False),
    ("center", math.nan),
    ("center", -math.inf),
])
def test_oscillator_config_rejects_bad_numbers(tmp_path, capsys, field, value):
    osc = {"box_length": 1.0, field: value}
    with pytest.raises(ConfigError):
        parse_config({**OSC_CHAIN, "oscillator": osc})
    cfg = write_config(tmp_path, {**OSC_CHAIN, "oscillator": osc})
    assert main(["greens", cfg, "0.2", "0.4", "0.5"]) == 1
    err = capsys.readouterr().err
    assert f"oscillator.{field}" in err
    assert err.count("\n") == 1


# ----------------------------------------------------------------------
# greens command
# ----------------------------------------------------------------------

def test_greens_single_wall_value(tmp_path, capsys):
    cfg = write_config(tmp_path, RECT_ONE_WALL)
    assert main(["greens", cfg, "0", "0", "1.0"]) == 0
    out = capsys.readouterr().out.strip()
    assert float(out) == pytest.approx(0.25, rel=1e-10)


def test_greens_strong_dirichlet_on_wall(tmp_path, capsys):
    cfg = write_config(tmp_path, RECT_STRONG)
    assert main(["greens", cfg, "0", "0.5", "1.0", "--strong"]) == 0
    assert abs(float(capsys.readouterr().out)) <= 1e-10


def test_greens_zero_coupling_prints_free_kernel(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": "rectangular", "positions": [0.0],
                                  "couplings": [0.0]})
    assert main(["greens", cfg, "0.2", "0.9", "1.3"]) == 0
    want = math.exp(-1.3 * 0.7) / 2.6
    assert float(capsys.readouterr().out) == pytest.approx(want, rel=1e-10)


def test_greens_numeric_failure_exits_2(tmp_path, capsys):
    # attractive wall tuned onto the bound-state pole
    cfg = write_config(tmp_path, {"geometry": "rectangular", "positions": [0.0],
                                  "couplings": [-1.0]})
    assert main(["greens", cfg, "0.1", "0.2", "1.0"]) == 2
    assert "error" in capsys.readouterr().err


def test_greens_512_wall_chain(tmp_path, capsys):
    # finite couplings on 512 walls damp g to 1e-11 of g0: the reference is the
    # kink recurrence at 50 digits, compared without an absolute floor
    positions = [0.01 * i for i in range(512)]
    couplings = [0.5 + 0.001 * i for i in range(512)]
    cfg = write_config(tmp_path, {"geometry": "rectangular", "positions": positions,
                                  "couplings": couplings})
    k, x, xp = 2.0, 1.234, 3.456
    lams = [2.0 * c for c in couplings]  # lambda = 2 m mu / hbar^2
    want = rect_chain_greens_50_digits(positions, lams, k, x, xp)
    assert main(["greens", cfg, repr(x), repr(xp), repr(k)]) == 0
    got = float(capsys.readouterr().out)
    assert got == pytest.approx(want, rel=1e-10, abs=0)


@pytest.mark.parametrize("field,values", [
    ("positions", [0.0, math.nan]),
    ("positions", [0.0, math.inf]),
    ("couplings", [1.0, math.nan]),
    ("couplings", [1.0, -math.inf]),
])
def test_greens_non_finite_config_exits_1(tmp_path, capsys, field, values):
    data = {"geometry": "rectangular", "positions": [0.0, 1.0], "couplings": [1.0, 1.0]}
    data[field] = values
    cfg = write_config(tmp_path, data)  # json writes NaN / Infinity, which json reads back
    assert main(["greens", cfg, "0.2", "0.4", "1.0"]) == 1
    err = capsys.readouterr().err
    assert "finite" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("geometry", ["rectangular", "cylindrical", "spherical"])
@pytest.mark.parametrize("k0", ["0", "-1.5"])
def test_greens_non_positive_k0_exits_1(tmp_path, capsys, geometry, k0):
    cfg = write_config(tmp_path, {"geometry": geometry, "positions": [0.5, 1.0],
                                  "couplings": [1.0, 1.0]})
    assert main(["greens", cfg, "0.6", "0.7", k0]) == 1
    err = capsys.readouterr().err
    assert "k0 must be positive" in err and geometry in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("data,flags", [
    ({"geometry": "rectangular", "positions": [1.0, 0.0], "couplings": [1.0, 1.0]}, []),
    ({"geometry": "rectangular", "positions": [0.5, 0.5], "couplings": [1.0, 1.0]}, []),
    ({"geometry": "rectangular", "positions": [0.0, 1.0], "couplings": [1.0]}, []),
    ({"geometry": "cylindrical", "positions": [0.0, 1.0], "couplings": [1.0, 1.0]}, []),
    ({"geometry": "spherical", "positions": [-1.0, 1.0], "couplings": "infinite"}, []),
    ({"geometry": "rectangular", "positions": [0.0], "couplings": [1e308],
      "units": {"mass": 10}}, []),
    ({"geometry": "rectangular", "positions": [0.0], "couplings": [1e307]}, ["--mass", "100"]),
])
def test_greens_invalid_chain_exits_1(tmp_path, capsys, data, flags):
    # a chain the config cannot build is a configuration error, not a numeric failure
    cfg = write_config(tmp_path, data)
    assert main(["greens", cfg, "0.2", "0.4", "1.0"] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid chain:")
    assert err.count("\n") == 1


def test_greens_oscillator_accepts_negative_order(tmp_path, capsys):
    cfg = write_config(tmp_path, {"geometry": "oscillator", "positions": [0.0, 1.0],
                                  "couplings": [1.0, 1.0], "oscillator": {"box_length": 1.0}})
    assert main(["greens", cfg, "0.2", "0.4", "-0.5"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


def test_greens_strong_across_a_wall_prints_zero(tmp_path, capsys):
    cfg = write_config(tmp_path, {"positions": [0, 1], "couplings": "infinite",
                                  "geometry": "rectangular"})
    assert main(["greens", cfg, "-0.5", "0.5", "1.3"]) == 0
    assert capsys.readouterr().out == "0\n"


def test_greens_missing_config_exits_1(capsys):
    assert main(["greens", "/nonexistent.json", "0", "0", "1.0"]) == 1


def test_usage_error_exits_1(capsys):
    assert main(["bogus-command"]) == 1
    assert main(["greens"]) == 1
    assert main(["spectrum", "--geometry", "oscillator", "--include-node-factor"]) == 1


# ----------------------------------------------------------------------
# scan command
# ----------------------------------------------------------------------

def test_scan_zoom_window(tmp_path):
    out = tmp_path / "zoom.csv"
    code = main(["scan", "--geometry", "oscillator", "--a", "1", "--lo", "4.3",
                 "--hi", "4.8", "--step", "0.001", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "v,abs_reduced,abs_full"
    assert len(lines) == 1 + 501
    best = min(lines[1:], key=lambda l: float(l.split(",")[1]))
    assert abs(float(best.split(",")[0]) - 4.45) <= 0.005


def test_scan_empty_range_writes_header_only(tmp_path):
    out = tmp_path / "empty.csv"
    code = main(["scan", "--geometry", "oscillator", "--a", "1", "--lo", "2",
                 "--hi", "2", "--step", "0.01", "--out", str(out)])
    assert code == 0
    assert out.read_text() == "v,abs_reduced,abs_full\n"


def test_scan_unwritable_path_exits_1(capsys):
    code = main(["scan", "--geometry", "oscillator", "--a", "1", "--lo", "0",
                 "--hi", "1", "--step", "0.5", "--out", "/nonexistent-dir/x.csv"])
    assert code == 1


def test_scan_gamma_pole_rows_have_empty_full_cells(tmp_path):
    out = tmp_path / "pole.csv"
    main(["scan", "--geometry", "oscillator", "--a", "1", "--lo", "0.5",
          "--hi", "1.5", "--step", "0.25", "--out", str(out)])
    rows = {l.split(",")[0]: l.split(",") for l in out.read_text().splitlines()[1:]}
    assert rows["1"][2] == ""  # Delta not finite at the Gamma pole
    assert rows["1"][1] != ""  # the reduced column is always finite
    assert rows["0.75"][2] != ""


def test_scan_full_range_data_product(tmp_path):
    # the headline scan: 20001 rows over v in [0, 200], determinant cells
    # empty exactly at the 201 integer Gamma poles, reduced minima at the roots
    out = tmp_path / "full.csv"
    code = main(["scan", "--geometry", "oscillator", "--a", "1", "--lo", "0",
                 "--hi", "200", "--step", "0.01", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 20001
    rows = [l.split(",") for l in lines[1:]]
    assert all(r[1] != "" for r in rows)  # the reduced column is total
    empty_full = [float(r[0]) for r in rows if r[2] == ""]
    assert len(empty_full) == 201
    assert all(abs(v - round(v)) < 1e-9 for v in empty_full)
    # |reduced| dips below 2e-2 near every physical root
    reduced = {round(float(r[0]), 2): float(r[1]) for r in rows}
    for root in (4.45, 19.27, 43.95, 78.49, 122.91, 177.19):
        assert min(reduced[round(root + d, 2)] for d in (-0.01, 0.0, 0.01)) < 2e-2


@pytest.mark.parametrize("box_length", [1.0, 2.0, 3.0])
def test_scan_csv_equals_scalar_composition(tmp_path, monkeypatch, box_length):
    # the whole 0..200 lattice, against rows composed point by point from the
    # scalar characteristic functions (D_v memoized: both columns share it)
    import functools

    import greenchain.spectrum as spectrum_mod
    from greenchain.cli import _csv_row
    from greenchain.errors import GreenChainError

    out = tmp_path / "scan.csv"
    assert main(["scan", "--geometry", "oscillator", "--a", repr(box_length), "--lo", "0",
                 "--hi", "200", "--step", "0.01", "--out", str(out)]) == 0

    monkeypatch.setattr(spectrum_mod, "_pcf_d_signlog_pair",
                        functools.lru_cache(maxsize=None)(spectrum_mod._pcf_d_signlog_pair))
    prob = spectrum_mod.OscillatorProblem(box_length)

    def cell(fn, v):
        try:
            val = fn(v, prob)
        except GreenChainError:
            return None
        return abs(val) if math.isfinite(val) else None

    want = ["v,abs_reduced,abs_full"]
    for i in range(20001):
        v = 0.0 + i * 0.01
        want.append(_csv_row((v, cell(spectrum_mod.oscillator_char_reduced, v),
                              cell(spectrum_mod.oscillator_char_full, v))))
    assert out.read_text() == "\n".join(want) + "\n"


def test_scan_runs_one_series_pass_per_factor(tmp_path, monkeypatch):
    # a 1001-row window: the two Kummer series run together in one array call
    # over the whole window, instead of 8 scalar series per row
    from greenchain import specfun

    calls = {"array": 0, "scalar": 0}
    real_array, real_scalar = specfun._kummer_series_array, specfun._kummer_series

    def array_spy(a, b, x):
        calls["array"] += 1
        return real_array(a, b, x)

    def scalar_spy(a, b, x):
        calls["scalar"] += 1
        return real_scalar(a, b, x)

    monkeypatch.setattr(specfun, "_kummer_series_array", array_spy)
    monkeypatch.setattr(specfun, "_kummer_series", scalar_spy)
    out = tmp_path / "window.csv"
    assert main(["scan", "--geometry", "oscillator", "--a", "3", "--lo", "40",
                 "--hi", "50", "--step", "0.01", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 1001
    assert calls == {"array": 1, "scalar": 0}


def test_scan_exponentiates_the_squares_once(tmp_path, monkeypatch):
    # both columns share one set of rescaled D_v squares: one _char_columns call
    # per window, and math.exp runs over the 2 x 1001 squares and the 1001
    # magnitudes of Delta, where the two column functions took 5 x 1001
    import greenchain.spectrum as spectrum_mod

    columns, exps = [], []
    real_columns, real_elementwise = spectrum_mod._char_columns, spectrum_mod._elementwise

    def columns_spy(*args, **kwargs):
        columns.append(args[0].size)
        return real_columns(*args, **kwargs)

    def elementwise_spy(fn, x):
        if fn is math.exp:
            exps.append(x.size)
        return real_elementwise(fn, x)

    monkeypatch.setattr(spectrum_mod, "_char_columns", columns_spy)
    monkeypatch.setattr(spectrum_mod, "_elementwise", elementwise_spy)
    out = tmp_path / "window.csv"
    assert main(["scan", "--geometry", "oscillator", "--a", "3", "--lo", "40",
                 "--hi", "50", "--step", "0.01", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 1001
    assert columns == [1001]
    assert exps == [2 * 1001, 1001]


def test_main_builds_the_parser_once(monkeypatch, capsys):
    from greenchain import cli

    built = []
    real_build = cli.build_parser

    def build_spy():
        built.append(1)
        return real_build()

    monkeypatch.setattr(cli, "build_parser", build_spy)
    cli._parser.cache_clear()
    for argv in (["table1"], ["spectrum", "--geometry", "box", "--n-roots", "2"], ["table1"]):
        assert main(argv) == 0
    assert len(built) <= 1


def test_reused_parser_answers_as_a_fresh_one(tmp_path, monkeypatch, capsys):
    # one parser serves every call of the process: no flag, default or config
    # override of one call may leak into the next, in exit codes or output bytes
    from greenchain import cli

    config = write_config(tmp_path, {"geometry": "cylindrical", "positions": [0.5, 0.9],
                                     "couplings": [1.5, -0.7], "mode": 1})
    out = tmp_path / "scan.csv"
    scan = ["scan", "--geometry", "oscillator", "--a", "3", "--lo", "39.5", "--hi", "41",
            "--step", "0.01", "--out", str(out)]
    calls = [
        scan,
        ["spectrum", "--geometry", "cylinder", "--mode", "2"],
        ["spectrum", "--geometry", "cylinder"],
        ["greens", config, "0.6", "0.8", "2.0", "--mode", "3"],
        ["greens", config, "0.6", "0.8", "2.0"],
        ["spectrum", "--geometry", "torus"],
        ["table1"],
        scan,
    ]

    def run_all():
        seen = []
        for argv in calls:
            code = main(argv)
            written = out.read_bytes() if argv is scan else None
            seen.append((code, capsys.readouterr(), written))
        return seen

    reused = run_all()
    assert [code for code, _, _ in reused] == [0, 0, 0, 0, 0, 1, 0, 0]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)  # a fresh parser for every call
    assert run_all() == reused


def test_scan_builds_no_signlog_per_row(tmp_path, monkeypatch):
    # a work gate that timing noise cannot hide: the 1001-row window combines
    # (sign, log) float arrays, where a per-row SignLog composition builds
    # about a dozen objects a row
    from greenchain.specfun import SignLog

    built = []
    real_check = SignLog.__post_init__

    def counting_check(self):
        built.append(self)
        real_check(self)

    monkeypatch.setattr(SignLog, "__post_init__", counting_check)
    out = tmp_path / "window.csv"
    assert main(["scan", "--geometry", "oscillator", "--a", "3", "--lo", "40",
                 "--hi", "50", "--step", "0.01", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 1001
    assert len(built) <= 8


@pytest.mark.parametrize("flags,rows", [
    # alpha underflows to 0, so D_1(-alpha) = D_1(alpha) = 0 and r(1) is 0/0
    (["--a", "5e-324"], "0.5,0,0\n1,,\n1.5,0,0\n"),
    # hbar omega0 underflows, so the prefactor m / (pi hbar omega0) of Delta overflows
    (["--a", "1", "--hbar", "1e-200", "--omega0", "1e-200"],
     "0.5,0.993419033628,\n1,0,\n1.5,0.905592347852,\n"),
])
def test_scan_cells_without_a_value_are_empty(tmp_path, capsys, flags, rows):
    # each used to end in a ZeroDivisionError traceback
    out = tmp_path / "edge.csv"
    assert main(["scan", "--geometry", "oscillator", *flags, "--lo", "0.5", "--hi", "1.5",
                 "--step", "0.5", "--out", str(out)]) == 0
    assert out.read_text() == "v,abs_reduced,abs_full\n" + rows
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv", [
    ["scan", "--geometry", "oscillator", "--a", "1", "--lo", "0", "--hi", "1",
     "--step", "nan"],
    ["scan", "--geometry", "oscillator", "--a", "1", "--lo", "0", "--hi", "inf",
     "--step", "0.1"],
    ["scan", "--geometry", "oscillator", "--a", "1", "--lo=-inf", "--hi", "1",
     "--step", "0.1"],
    ["scan", "--geometry", "oscillator", "--a", "nan", "--lo", "0", "--hi", "1",
     "--step", "0.1"],
    ["spectrum", "--geometry", "box", "--a", "inf"],
    ["spectrum", "--geometry", "oscillator", "--a", "nan"],
    ["spectrum", "--geometry", "cylinder", "--radius", "nan"],
    ["spectrum", "--geometry", "delta-well", "--mu", "nan"],
    ["spectrum", "--geometry", "oscillator", "--tol", "nan"],
    ["spectrum", "--geometry", "box", "--tol", "inf"],
    # the parser rejects these before the config file is opened
    ["greens", "missing.json", "0.6", "0.7", "nan"],
    ["greens", "missing.json", "inf", "0.7", "1.0"],
])
def test_non_finite_flags_exit_1(tmp_path, capsys, argv):
    if argv[0] == "scan":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert "must be a finite number" in captured.err
    assert captured.err.count("\n") == 1
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--geometry", "cylinder", "--mode", "-1"], "non-negative integer"),
    (["spectrum", "--geometry", "sphere", "--mode", "-1"], "non-negative integer"),
    (["greens", "CONFIG", "0.6", "0.7", "1.0", "--mode", "-1"], "non-negative integer"),
    (["spectrum", "--geometry", "oscillator", "--tol", "0"], "must be positive"),
    (["spectrum", "--geometry", "box", "--a", "-1"], "must be positive"),
    (["spectrum", "--geometry", "sphere", "--radius", "0"], "must be positive"),
    (["spectrum", "--geometry", "box", "--hbar", "0"], "must be positive"),
    (["spectrum", "--geometry", "delta-well", "--mass", "-2"], "must be positive"),
    (["greens", "CONFIG", "0.6", "0.7", "1.0", "--omega0", "0"], "must be positive"),
    (["scan", "--geometry", "oscillator", "--a", "-1", "--lo", "0", "--hi", "1",
      "--step", "0.1"], "must be positive"),
])
def test_bad_flag_values_exit_1(tmp_path, capsys, argv, message):
    cfg = write_config(tmp_path, RECT_ONE_WALL)
    argv = [cfg if a == "CONFIG" else a for a in argv]
    if argv[0] == "scan":
        argv = argv + ["--out", str(tmp_path / "x.csv")]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("value", [True, "2", None, math.nan, 0.0])
@pytest.mark.parametrize("field", ["hbar", "mass", "omega0"])
def test_units_config_rejects_bad_numbers(tmp_path, capsys, field, value):
    data = {**RECT_ONE_WALL, "units": {field: value}}
    with pytest.raises(ConfigError):
        parse_config(data)
    assert main(["greens", write_config(tmp_path, data), "0.2", "0.4", "1.0"]) == 1
    err = capsys.readouterr().err
    assert f"units.{field}" in err or f"UnitSystem.{field}" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("lo,hi,step", [("0", "1", "0"), ("0", "1", "-0.1"), ("2", "1", "0.1"),
                                         ("0", "1e300", "0.01"), ("0", "1", "1e-8")])
def test_scan_bad_window_exits_1(tmp_path, capsys, lo, hi, step):
    out = tmp_path / "x.csv"
    assert main(["scan", "--geometry", "oscillator", "--a", "1", "--lo", lo, "--hi", hi,
                 "--step", step, "--out", str(out)]) == 1
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


def _assert_alpha_rejected(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "outside the validated range alpha <= 10" in captured.err
    assert captured.err.count("\n") == 1


def test_spectrum_oscillator_beyond_kummer_range_exits_1(capsys):
    # alpha^2/2 > 50 leaves kummer_m's range: a bad box length, rejected before the header
    for argv in (["--a", "20", "--n-roots", "2"], ["--a", "14.2"], ["--a", "1", "--hbar", "1e-3"]):
        assert main(["spectrum", "--geometry", "oscillator", *argv]) == 1
        _assert_alpha_rejected(capsys)


def test_spectrum_oscillator_tiny_box_prints_the_header_only(capsys):
    # alpha = 7e-101: every level starts past v = 200, so no enclosure
    # eigenproblem is built; its residual norm would overflow in numpy
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["spectrum", "--geometry", "oscillator", "--a", "1e-100"]) == 0
    captured = capsys.readouterr()
    assert captured.out == "index,root_param,energy,residual,classification\n"
    assert captured.err == ""


def test_scan_beyond_pcf_range_exits_1(tmp_path, capsys):
    # alpha > 10 leaves pcf_d's range: rejected before the file is opened
    out = tmp_path / "x.csv"
    for a in ("100", "14.2"):
        assert main(["scan", "--geometry", "oscillator", "--a", a, "--lo", "0", "--hi", "1",
                     "--step", "0.1", "--out", str(out)]) == 1
        _assert_alpha_rejected(capsys)
        assert not out.exists()
    # the largest box inside the range still scans
    assert main(["scan", "--geometry", "oscillator", "--a", "14.1", "--lo", "0", "--hi", "1",
                 "--step", "0.5", "--out", str(out)]) == 0


def test_scan_bytes_deterministic_across_runs_and_processes(tmp_path):
    args = ["scan", "--geometry", "oscillator", "--a", "1", "--lo", "4.3",
            "--hi", "4.8", "--step", "0.001"]
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    out3 = tmp_path / "c.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "greenchain"] + args + ["--out", str(out3)],
        capture_output=True,
    )
    assert proc.returncode == 0
    assert out3.read_bytes() == out1.read_bytes()


# ----------------------------------------------------------------------
# spectrum command
# ----------------------------------------------------------------------

def test_spectrum_box_csv(capsys):
    assert main(["spectrum", "--geometry", "box", "--a", "1", "--n-roots", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "index,root_param,energy,residual,classification"
    energies = [float(l.split(",")[2]) for l in lines[1:]]
    want = [4.934802200545329, 19.739208802178716, 44.41321980490211]
    for e, w in zip(energies, want):
        assert e == pytest.approx(w, rel=1e-8)


def test_spectrum_delta_well(capsys):
    assert main(["spectrum", "--geometry", "delta-well", "--mu", "-1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[2]) == pytest.approx(-0.5, rel=1e-10)


def test_spectrum_delta_well_repulsive_header_only(capsys):
    assert main(["spectrum", "--geometry", "delta-well", "--mu", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == ["index,root_param,energy,residual,classification"]


def test_spectrum_cylinder(capsys):
    assert main(["spectrum", "--geometry", "cylinder", "--radius", "1",
                 "--mode", "0", "--n-roots", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert float(lines[1].split(",")[1]) == pytest.approx(2.404825557695773, rel=1e-8)


@pytest.mark.parametrize("argv,message", [
    (["spectrum", "--geometry", "delta-well", "--mu", "-1e-1"], None),
    (["spectrum", "--geometry", "delta-well", "--mu", "-1.5E+0"], None),
    (["spectrum", "--geometry", "oscillator", "--tol", "-1e-3"], "must be positive"),
    (["spectrum", "--geometry", "box", "--a", "-1e-3"], "must be positive"),
    (["spectrum", "--geometry", "sphere", "--radius", "-.5e1"], "must be positive"),
    (["table1", "--tolerance", "-1"], "must be positive"),
    (["table1", "--tolerance", "0"], "must be positive"),
    (["table1", "--tolerance", "nan"], "must be a finite number"),
])
def test_negative_float_literals_are_values(capsys, argv, message):
    # argparse alone takes "-1e-1" for an option; table1 checks its tolerance up front
    code = main(argv)
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and captured.err == ""
        decimal = argv[:-1] + [repr(float(argv[-1]))]
        assert main(decimal) == 0
        assert capsys.readouterr().out == captured.out
    else:
        assert code == 1
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["spectrum", "--geometry", "delta-well", "--mu=-1e200"],
    ["spectrum", "--geometry", "box", "--a", "1e-160", "--n-roots", "1"],
])
def test_spectrum_non_finite_energy_exits_2(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out.splitlines() == ["index,root_param,energy,residual,classification"]
    assert "energy" in captured.err
    assert captured.err.count("\n") == 1


def test_spectrum_cylinder_high_mode_prints_every_row(capsys):
    special = pytest.importorskip("scipy.special")
    assert main(["spectrum", "--geometry", "cylinder", "--mode", "30", "--n-roots", "3"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 3
    for row, want in zip(rows, special.jn_zeros(30, 3)):
        assert abs(float(row.split(",")[1]) - want) <= 1e-10 * want


def test_spectrum_cylinder_very_high_mode_skips_no_grid_point(capsys):
    # the disk factor reads J_m alone, which has a value where Y_m overflows
    special = pytest.importorskip("scipy.special")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["spectrum", "--geometry", "cylinder", "--mode", "150", "--n-roots", "2"]) == 0
    assert not [w for w in caught if "skipping grid point" in str(w.message)]
    captured = capsys.readouterr()
    assert captured.err == ""
    rows = captured.out.splitlines()[1:]
    assert len(rows) == 2
    for row, want in zip(rows, special.jn_zeros(150, 2)):
        assert abs(float(row.split(",")[1]) - want) <= 1e-10 * want


@pytest.mark.parametrize("argv", [
    ["--geometry", "box", "--a", "1e308"],
    ["--geometry", "cylinder", "--radius", "1e-310"],
    ["--geometry", "sphere", "--radius", "1e-310"],
    ["--geometry", "cylinder", "--radius", "1e-305", "--mode", "1000", "--n-roots", "12"],
])
def test_spectrum_length_without_a_kappa_grid_exits_1(capsys, argv):
    # these printed the header alone and exited 0, or a traceback
    assert main(["spectrum", *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no finite kappa scan grid" in captured.err
    assert captured.err.count("\n") == 1


def test_spectrum_rejects_bad_n_roots(capsys):
    assert main(["spectrum", "--geometry", "box", "--n-roots", "0"]) == 1


def test_spectrum_emits_partial_rows_on_refiner_failure(capsys, monkeypatch):
    # force the refiner to fail on the third bracket: the first two levels
    # must still reach stdout and the command must exit 2
    import greenchain.spectrum as spectrum_mod
    from greenchain.errors import NumericError

    real_brent = spectrum_mod.brent
    calls = {"n": 0}

    def flaky(f, bracket, tol=1e-10, max_iter=200):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise NumericError("forced failure")
        return real_brent(f, bracket, tol=tol, max_iter=max_iter)

    monkeypatch.setattr(spectrum_mod, "brent", flaky)
    assert main(["spectrum", "--geometry", "box", "--a", "1", "--n-roots", "4"]) == 2
    captured = capsys.readouterr()
    rows = captured.out.splitlines()
    assert rows[0] == "index,root_param,energy,residual,classification"
    assert len(rows) == 3  # two refined levels survived
    assert "error" in captured.err


# ----------------------------------------------------------------------
# table1 command
# ----------------------------------------------------------------------

def test_table1_passes_at_default_tolerance(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    rows = [l for l in out.splitlines() if l.startswith("E")]
    assert len(rows) == 6


def test_table1_fails_at_tight_tolerance(capsys):
    # the reference column is a 3-decimal rounding: 1e-6 cannot hold
    assert main(["table1", "--tolerance", "1e-6"]) == 2
