"""Reduced Green's functions for delta-potential chains and confined spectra.

The package splits into five layers:

* :mod:`greenchain.specfun` — special functions (gamma, Bessel, spherical
  Bessel, Kummer M, parabolic cylinder D_v), array paths for Kummer M and
  the D_v(+-y) pair, and the overflow-safe SignLog scalar;
* :mod:`greenchain.greens` — the four concrete free-space kernels and the
  pluggable FreeGreens interface: a kernel is its factor pair
  g0(x, x') = p(x_<) q(x_>) plus a measure weight;
* :mod:`greenchain.chain` — finite/strong coupling corrections and
  characteristic determinants for arbitrary chains, in O(n) factor
  evaluations for every kernel;
* :mod:`greenchain.spectrum` — sign-change scanning, Brent refinement and
  the boxed-oscillator / box / disk / ball / delta-well spectra;
* :mod:`greenchain.cli` — the ``greenchain`` command line tool.

The top level re-exports what the CLI and the README examples use; the
dense reference (boundary matrix and LU) lives in :mod:`greenchain.chain`,
the ``g0_*`` kernels in :mod:`greenchain.greens`, and Brent and its types in
:mod:`greenchain.spectrum`.
"""

from .chain import (
    ALL_INFINITE,
    DeltaChain,
    char_func,
    greens_finite,
    greens_strong,
)
from .errors import (
    ConfigError,
    DomainError,
    GreenChainError,
    NearPoleError,
    NumericError,
    RangeError,
    SingularMatrixError,
)
from .greens import (
    FreeGreens,
    UnitSystem,
    custom_free_greens,
    cyl_free_greens,
    free_greens_for,
    osc_free_greens,
    rect_free_greens,
    sph_free_greens,
)
from .specfun import SignLog
from .spectrum import (
    OscillatorProblem,
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

__version__ = "0.1.0"
