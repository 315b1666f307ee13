"""Seeded request pools for the four benchmark workloads, and how to run one request.

A pool is a list of whole *blocks*.  Every block of a workload holds the same
number of requests of each class; the seed only draws the continuous inputs
(radii, wavenumbers, windows, wall jitter) and shuffles the order inside the
block.  Because a run always ends on a block boundary, the class mix of every
run is exact, so the median and the 90th percentile sit at the same place in
the cost distribution whatever the seed.

This module imports nothing from greenchain at module level: the oracle
process reads request specs without loading the library.
"""

from __future__ import annotations

import math
import os
import random

WORKLOADS = ("oscillator_levels", "oscillator_scan", "chain_greens", "dirichlet_spectra")

# oscillator_levels: box length -> requests per block (20 per block).  Sorted
# by cost, L=8 < 5 < 3 < 1 < 1.5 < 2; the median falls inside the eight L=3
# requests (ranks 5-12) and the 90th percentile inside the five L=2 ones
# (ranks 16-20), so each is a percentile of one request class.
LEVELS_BLOCK = {8.0: 2, 5.0: 2, 3.0: 8, 1.0: 2, 1.5: 1, 2.0: 5}
LEVELS_POOL_BLOCKS = 8

# oscillator_scan: one window per (L, stratum of the window start), 18 per block.
SCAN_LENGTHS = (1.0, 2.0, 3.0)
SCAN_STRATA = 6
SCAN_WIDTH_C = 1000  # window width in units of the 0.01 step
SCAN_V_MAX_C = 20000  # v <= 200, the validated order range
SCAN_POOL_BLOCKS = 16

# chain_greens, 72 requests per block:
#   n=2:  48 = 2 x (4 geometries x 3 calls x 2 placements)  -> the median
#   n=8:   8 = 2 per geometry
#   n=64: 16 = rectangular 2, spherical 2, cylindrical 6, oscillator 6 -> the p90
GEOMETRIES = ("rectangular", "cylindrical", "spherical", "oscillator")
CALLS = ("greens_finite", "greens_strong", "char_func")
PLACEMENTS = ("same", "distant")
CHAIN_N64 = {"rectangular": 2, "spherical": 2, "cylindrical": 6, "oscillator": 6}
CHAIN_POOL_BLOCKS = 40

# dirichlet_spectra, 20 requests per block: the median falls among the ten
# ball/shell requests, the 90th percentile among the four annulus requests.
DIRICHLET_BLOCK = {"delta_well": 1, "box": 2, "ball": 5, "shell": 5, "disk": 3, "annulus": 4}
DIRICHLET_POOL_BLOCKS = 25
DIRICHLET_LEVELS = 12

# Blocks repeated by the traced run; its counts are totals over one pass.
TRACE_BLOCKS = {"oscillator_levels": 1, "oscillator_scan": 1,
                "chain_greens": 1, "dirichlet_spectra": 5}


def oscillator_levels_asked(box_length: float) -> int:
    """Levels requested for a box: min(12, floor(20 L / pi)) keeps every level below v = 200."""
    return min(12, int(20.0 * box_length / math.pi))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _levels_block(rng):
    block = []
    for length, count in LEVELS_BLOCK.items():
        block += [{"kind": "oscillator_spectrum", "L": length,
                   "n": oscillator_levels_asked(length)}] * count
    return [dict(r) for r in block]


def _scan_block(rng):
    block = []
    span = SCAN_V_MAX_C - SCAN_WIDTH_C
    for length in SCAN_LENGTHS:
        for s in range(SCAN_STRATA):
            lo_c = rng.randrange(s * span // SCAN_STRATA, (s + 1) * span // SCAN_STRATA + 1)
            block.append({"kind": "scan", "L": length, "lo_c": lo_c, "width_c": SCAN_WIDTH_C})
    return block


def _chain_request(rng, geometry, n, call, placement):
    # walls spread over a unit interval; cylindrical/spherical radii start at 0.5
    a0 = 0.5 if geometry in ("cylindrical", "spherical") else 0.0
    h = 1.0 / n
    positions = [a0 + (i + 0.5 + rng.uniform(-0.3, 0.3)) * h for i in range(n)]
    edges = [positions[0] - 0.5 * h] + positions + [positions[-1] + 0.5 * h]

    def point_in(cell):
        lo, hi = edges[cell], edges[cell + 1]
        return lo + (0.1 + 0.8 * rng.random()) * (hi - lo)

    if placement == "same":
        cell = rng.randrange(n + 1)
        x, xp = point_in(cell), point_in(cell)
    else:
        gap = max(2, n // 2)
        c1 = rng.randrange(n + 1 - gap)
        c2 = rng.randrange(c1 + gap, n + 1)
        x, xp = point_in(c1), point_in(c2)
        if rng.random() < 0.5:
            x, xp = xp, x
    if geometry == "oscillator":
        param = rng.uniform(-0.9, 5.9)  # order v; walls inside the unit box centred at 0.5
    else:
        param = _log_uniform(rng, 0.5, 16.0)  # k0
    req = {"kind": "chain", "call": call, "geometry": geometry, "n": n,
           "mode": rng.randrange(4), "positions": positions, "x": x, "xp": xp,
           "param": param, "placement": placement}
    if call == "greens_finite":
        req["couplings"] = [_log_uniform(rng, 0.1, 10.0) for _ in range(n)]
    return req


def _chain_block(rng):
    block = []
    for _ in range(2):
        for geometry in GEOMETRIES:
            for call in CALLS:
                for placement in PLACEMENTS:
                    block.append(_chain_request(rng, geometry, 2, call, placement))
    for geometry in GEOMETRIES:
        for _ in range(2):
            block.append(_chain_request(rng, geometry, 8, rng.choice(CALLS),
                                        rng.choice(PLACEMENTS)))
    for geometry, count in CHAIN_N64.items():
        for _ in range(count):
            block.append(_chain_request(rng, geometry, 64, rng.choice(CALLS),
                                        rng.choice(PLACEMENTS)))
    return block


def _dirichlet_request(rng, shape):
    if shape == "delta_well":
        return {"kind": "dirichlet", "shape": shape, "mu": rng.uniform(-5.0, -0.2), "n": 1}
    req = {"kind": "dirichlet", "shape": shape, "n": DIRICHLET_LEVELS}
    if shape == "box":
        req["a"] = rng.uniform(0.5, 3.0)
    elif shape in ("disk", "ball"):
        req["r"] = _log_uniform(rng, 0.5, 2.0)
        req["mode"] = rng.randrange(6)
    else:
        r1 = rng.uniform(0.2, 1.0)
        req["r1"], req["r2"] = r1, r1 + rng.uniform(0.3, 2.0)
        req["mode"] = rng.randrange(6)
    return req


def _dirichlet_block(rng):
    return [_dirichlet_request(rng, shape)
            for shape, count in DIRICHLET_BLOCK.items() for _ in range(count)]


_BLOCKS = {
    "oscillator_levels": (_levels_block, LEVELS_POOL_BLOCKS),
    "oscillator_scan": (_scan_block, SCAN_POOL_BLOCKS),
    "chain_greens": (_chain_block, CHAIN_POOL_BLOCKS),
    "dirichlet_spectra": (_dirichlet_block, DIRICHLET_POOL_BLOCKS),
}


def make_pool(workload: str, seed: int):
    """Return (blocks, trace_blocks): the seeded request pool and the traced prefix length."""
    make_block, n_blocks = _BLOCKS[workload]
    rng = random.Random(f"{workload}:{seed}")
    blocks = []
    for _ in range(n_blocks):
        block = make_block(rng)
        rng.shuffle(block)
        blocks.append(block)
    return blocks, TRACE_BLOCKS[workload]


# ----------------------------------------------------------------------
# Executing a request against the library
# ----------------------------------------------------------------------

class Library:
    """The greenchain entry points a request needs, looked up at call time.

    Lookups go through the module objects on every call, so the span
    wrappers the traced run installs on module globals are seen.
    """

    def __init__(self):
        import greenchain
        from greenchain import chain, cli, greens, spectrum
        self.package = greenchain
        self.chain = chain
        self.cli = cli
        self.greens = greens
        self.spectrum = spectrum

    def call(self, req, scratch_path):
        """Run one request; the raw result is converted by :meth:`output` outside the timing."""
        kind = req["kind"]
        sp = self.spectrum
        if kind == "oscillator_spectrum":
            return sp.oscillator_spectrum(sp.OscillatorProblem(req["L"]), req["n"])
        if kind == "scan":
            lo_c = req["lo_c"]
            return self.cli.main([
                "scan", "--geometry", "oscillator", "--a", repr(req["L"]),
                "--lo", f"{lo_c / 100:.2f}", "--hi", f"{(lo_c + req['width_c']) / 100:.2f}",
                "--step", "0.01", "--out", scratch_path])
        if kind == "chain":
            ch = self.chain
            g0 = self.greens.free_greens_for(req["geometry"], mode=req["mode"], center=0.5)
            if req["call"] == "greens_finite":
                c = ch.DeltaChain.from_couplings(req["geometry"], req["positions"],
                                                 req["couplings"])
                return ch.greens_finite(c, g0, req["x"], req["xp"], req["param"])
            c = ch.DeltaChain(req["geometry"], req["positions"], ch.ALL_INFINITE)
            if req["call"] == "greens_strong":
                return ch.greens_strong(c, g0, req["x"], req["xp"], req["param"])
            return ch.char_func(c, g0, req["param"])
        shape = req["shape"]
        if shape == "delta_well":
            line = sp.delta_well_bound_state(req["mu"])
            return [] if line is None else [line]
        if shape == "box":
            return sp.box_spectrum_rect(req["a"], req["n"])
        if shape == "disk":
            return sp.cyl_dirichlet_spectrum(req["r"], req["mode"], req["n"])
        if shape == "ball":
            return sp.sph_dirichlet_spectrum(req["r"], req["mode"], req["n"])
        if shape == "annulus":
            return sp.cyl_annulus_spectrum(req["r1"], req["r2"], req["mode"], req["n"])
        return sp.sph_shell_spectrum(req["r1"], req["r2"], req["mode"], req["n"])

    @staticmethod
    def output(req, raw, scratch_path):
        """JSON-ready output of a request, and the number of levels it returned (or None)."""
        kind = req["kind"]
        if kind == "scan":
            if raw != 0:
                raise RuntimeError(f"greenchain scan exited with code {raw}")
            with open(scratch_path, "r", encoding="utf-8") as fh:
                text = fh.read()
            os.remove(scratch_path)
            return text, None
        if kind == "chain":
            if req["call"] == "char_func":
                return [raw.sign, raw.log_mag], None
            return raw, None
        if kind == "oscillator_spectrum":
            levels = [[ln.root.value, ln.energy, ln.root.classification.value] for ln in raw]
        else:
            levels = [[ln.root.value, ln.energy] for ln in raw]
        return levels, len(levels)
