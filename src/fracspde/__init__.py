"""fracspde: spectral simulation of fractional SPDEs with correlated noise.

Submodules
----------
fields            grid/field types and transform conventions
stable_kernel     asymmetric stable symbols, Green kernel, generator
spectral_measure  noise spectral densities, admissibility, frequency integrals
noise             synthesis of spatially correlated Gaussian increments
solver            exponential-Euler and whole-path fixed-point schemes
regularity        Hölder-exponent estimation and theoretical windows
density           Monte-Carlo law diagnostics and variance bounds
cli               batch front-end
"""

from .fields import Field, FractionalIndex, Grid, to_frequency, to_physical
from .stable_kernel import (
    apply_generator,
    apply_semigroup,
    kernel,
)
from .spectral_measure import (
    AdmissibilityReport,
    SpectralMeasure,
    admissibility,
    critical_eta,
    cumulative_bound_check,
    weighted_spectral_integral,
)
from .noise import RngStream, empirical_covariance, sample_increments
from .solver import (
    Coefficient,
    PathSolution,
    SolverConfig,
    moment_estimate,
    smooth_initial,
    solve,
    solve_picard,
)
from .regularity import (
    HolderReport,
    estimate_spatial,
    estimate_temporal,
    theoretical_exponents,
)
from .density import DensityEstimate, kde, sample_law, variance_bound_check

__version__ = "0.22.0"

__all__ = [
    "Field",
    "FractionalIndex",
    "Grid",
    "to_frequency",
    "to_physical",
    "apply_generator",
    "apply_semigroup",
    "kernel",
    "AdmissibilityReport",
    "SpectralMeasure",
    "admissibility",
    "critical_eta",
    "cumulative_bound_check",
    "weighted_spectral_integral",
    "RngStream",
    "empirical_covariance",
    "sample_increments",
    "Coefficient",
    "PathSolution",
    "SolverConfig",
    "moment_estimate",
    "smooth_initial",
    "solve",
    "solve_picard",
    "HolderReport",
    "estimate_spatial",
    "estimate_temporal",
    "theoretical_exponents",
    "DensityEstimate",
    "kde",
    "sample_law",
    "variance_bound_check",
    "__version__",
]
