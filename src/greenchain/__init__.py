"""Reduced Green's functions for delta-potential chains and confined spectra.

The package splits into five layers:

* :mod:`greenchain.specfun` — special functions (gamma, Bessel, spherical
  Bessel, Kummer M, parabolic cylinder D_v, Hermite), array paths for
  Kummer M and the D_v(+-y) pair, and the overflow-safe SignLog scalar;
* :mod:`greenchain.greens` — the four concrete free-space kernels and the
  pluggable FreeGreens interface;
* :mod:`greenchain.chain` — boundary matrices, finite/strong coupling
  corrections and characteristic determinants for arbitrary chains;
* :mod:`greenchain.spectrum` — sign-change scanning, Brent refinement and
  the boxed-oscillator / box / disk / ball / delta-well spectra;
* :mod:`greenchain.cli` — the ``greenchain`` command line tool.
"""

from .chain import (
    ALL_INFINITE,
    BoundaryMatrix,
    DeltaChain,
    LambdaMatrix,
    LUFactors,
    boundary_matrix,
    char_func,
    det,
    greens_finite,
    greens_strong,
    lambda_matrix,
    lu,
    solve,
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
    Geometry,
    NATURAL_UNITS,
    UnitSystem,
    Wavenumber,
    custom_free_greens,
    cyl_free_greens,
    free_greens_for,
    g0_cyl,
    g0_osc,
    g0_rect,
    g0_sph,
    osc_free_greens,
    rect_free_greens,
    sph_free_greens,
    weight,
)
from .specfun import SignLog
from .spectrum import (
    Bracket,
    OscillatorProblem,
    Root,
    RootKind,
    SpectrumLine,
    box_spectrum_rect,
    brent,
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
    scan_grid,
    scan_sign_changes,
    sph_dirichlet_spectrum,
    sph_shell_spectrum,
)

__version__ = "0.1.0"
