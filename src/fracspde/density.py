"""Monte-Carlo law of the solution at a point, and small-time variance bounds.

Smoothness of the law is probed, not proved: (a) a Gaussian kernel
density estimate with plug-in bandwidth whose finite-difference
derivatives must stay bounded and bandwidth-stable, and (b) a numerical
check that the small-time noise variance I(rho) = int_0^rho (variance
rate) admits two-sided power-law control

    c1 * rho^theta1 <= I(rho) <= c2 * rho^theta2

with positive finite constants, where theta1 >= 1 and theta2 is capped by
1 - eta* for the measure's critical admissibility exponent eta*.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    AccuracyWarning,
    ConfigurationError,
    ConstraintViolationError,
    DegenerateLawWarning,
    EllipticityError,
    NumericalConsistencyError,
)
from .fields import FractionalIndex, _grid_point, _integer
from .solver import SolverConfig, _frame_index, solve
from .spectral_measure import N_RADIAL, SpectralMeasure, spectral_integral
from .spectral_measure import _cumulative_integrand

__all__ = [
    "DensityEstimate",
    "sample_law",
    "kde",
    "variance_bound_check",
    "VarianceBoundReport",
    "cumulative_variance",
]

ETA_SMOOTHNESS_GATE = 0.5
KDE_GRID_POINTS = 512
MIN_KDE_SAMPLES = 500
_ELLIPTICITY_PROBE = np.linspace(-10.0, 10.0, 401)  # where sigma must be > 0


@dataclass(frozen=True)
class DensityEstimate:
    """Kernel density estimate with smoothness diagnostics."""

    samples: tuple
    bandwidth: float
    grid_1d: tuple
    values: tuple
    derivative_bounds: tuple  # (max |f'|, max |f''|)
    degenerate: bool = False


def sample_law(config: SolverConfig, t: float, x, n: int) -> np.ndarray:
    """n independent replicate values of the solution at (t, x).

    ``x`` is a grid index (int for d=1, tuple otherwise) and ``t`` a stored
    frame time.  Before any solve, ``n`` (an integer >= 1), ``x`` (a point
    of the grid, ``fields._grid_point``), ``t`` and the ellipticity of
    sigma (> 0 on a probe range) are checked.  Each replicate is stepped
    by ``solve`` (exponential Euler).  Deterministic given the master seed.
    """
    if not (_integer(n) and n >= 1):
        raise ConfigurationError(f"need an integer n >= 1, got {n!r}")
    probe = _grid_point(x, config.grid)
    low = float(np.min(config.sigma(_ELLIPTICITY_PROBE)))
    if not low > 0:
        raise EllipticityError(f"diffusion coefficient dips to {low:.3e} on "
                               "[-10, 10]; it must stay strictly positive")
    if not t > 0:
        raise ConfigurationError(f"no frame stored at t={t} in (0, T]")
    row = _frame_index(config._stored_times, t)
    out = np.empty(n)
    for i in range(n):
        out[i] = solve(config, i).values[row][probe]
    return out


def silverman_bandwidth(samples) -> float:
    """Plug-in rule: 0.9 min(std, IQR/1.34) n^(-1/5), with the std alone
    where the IQR is 0 (as R's ``bw.nrd0``)."""
    samples = np.asarray(samples, dtype=float)
    std = samples.std(ddof=1)
    q75, q25 = np.percentile(samples, [75, 25])
    spread = min(std, (q75 - q25) / 1.34) or std
    return float(0.9 * spread * len(samples) ** (-0.2))


def kde(samples, bandwidth: float | None = None) -> DensityEstimate:
    """Gaussian-kernel density estimate with derivative diagnostics.

    Needs MIN_KDE_SAMPLES finite samples.  Uses the Silverman plug-in
    bandwidth unless one (finite and > 0) is given.  Reports max |f'| and
    max |f''| by central finite differences on a KDE_GRID_POINTS grid.  A
    numerically degenerate sample warns and returns a point-mass report.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.size < MIN_KDE_SAMPLES:
        raise ConfigurationError(
            f"need >= {MIN_KDE_SAMPLES} samples, got {samples.size}"
        )
    if not np.isfinite(samples).all():
        raise ConfigurationError("samples must be finite")
    h = silverman_bandwidth(samples) if bandwidth is None else float(bandwidth)
    if bandwidth is not None and not 0 < h < math.inf:
        raise ConfigurationError(
            f"bandwidth must be finite and > 0, got {bandwidth}")
    lo = samples.min() - 4 * h
    hi = samples.max() + 4 * h
    grid = np.linspace(lo, hi, KDE_GRID_POINTS)
    step = grid[1] - grid[0]
    # equal samples can have a rounding-level std, and so a bandwidth too
    # small for the evaluation grid to have a step
    if samples.std() == 0 or h == 0 or not step > 0:
        warnings.warn(
            "samples are numerically a point mass; density is degenerate",
            DegenerateLawWarning,
            stacklevel=2,
        )
        v = float(samples[0])
        return DensityEstimate(
            samples=tuple(samples), bandwidth=0.0, grid_1d=(v,),
            values=(math.inf,), derivative_bounds=(math.inf, math.inf),
            degenerate=True,
        )
    z = (grid[:, None] - samples[None, :]) / h
    vals = np.exp(-0.5 * z**2).sum(axis=1) / (samples.size * h *
                                              math.sqrt(2 * math.pi))
    d1 = np.gradient(vals, step)
    d2 = np.gradient(d1, step)
    return DensityEstimate(
        samples=tuple(float(s) for s in samples),
        bandwidth=h,
        grid_1d=tuple(float(g) for g in grid),
        values=tuple(float(v) for v in vals),
        derivative_bounds=(float(np.abs(d1).max()), float(np.abs(d2).max())),
    )


def cumulative_variance(idx: FractionalIndex, measure: SpectralMeasure,
                        rho: float, *, n_radial: int = N_RADIAL) -> float:
    """int_0^rho of the variance rate, via the closed time integral."""
    if not 0 < rho < math.inf:
        raise ConstraintViolationError(
            f"rho must be finite and > 0, got {rho}")
    w, g = _cumulative_integrand(idx, rho)
    return spectral_integral(measure, idx, g, w, n_radial=n_radial)


@dataclass(frozen=True)
class VarianceBoundReport:
    """Fitted two-sided power-law control of the small-time variance."""

    theta1: float
    theta2: float
    c1: float
    c2: float
    rho_grid: tuple
    integrals: tuple
    theta2_degenerate: bool

    def to_dict(self):
        return asdict(self)


def _check_bound_inputs(t: float, thetas, rho_grid) -> np.ndarray:
    """The sorted ``rho_grid``; ConstraintViolationError unless t is finite,
    theta1 >= 1 and theta2 > 0 are finite and ``rho_grid`` is non-empty
    and lies in (0, min(t, 1)]."""
    theta1, theta2 = thetas
    if not 1 <= theta1 < math.inf:
        raise ConstraintViolationError("theta1 must be finite and >= 1")
    if not 0 < theta2 < math.inf:
        raise ConstraintViolationError("theta2 must be finite and > 0")
    if not math.isfinite(t):
        raise ConstraintViolationError(f"t must be finite, got {t}")
    rho_grid = np.sort(np.asarray(rho_grid, dtype=float))  # NaN sorts last
    if (rho_grid.size == 0 or rho_grid[0] <= 0
            or not rho_grid[-1] <= min(t, 1.0) + 1e-12):
        raise ConstraintViolationError(
            "rho_grid must be non-empty and lie in (0, min(t, 1)]"
        )
    return rho_grid


def variance_bound_check(idx: FractionalIndex, measure: SpectralMeasure,
                         t: float, thetas, rho_grid, *,
                         eta_star: float | None = None,
                         n_radial: int = N_RADIAL) -> VarianceBoundReport:
    """Fit the largest c1 with I >= c1 rho^theta1 and the smallest c2 with
    I <= c2 rho^theta2 on ``rho_grid`` (``n_radial`` nodes per shell).

    theta1 must be >= 1; theta2 must lie in (0, 1 - eta*] when the
    measure's critical exponent eta* is supplied.  If theta2 exceeds its
    valid range the ratio I/rho^theta2 blows up as rho -> 0; this is
    detected and flagged rather than hidden in the fitted constant.

    Raises
    ------
    NumericalConsistencyError
        If no positive finite constants fit (the two-sided control fails
        numerically).
    """
    theta1, theta2 = thetas
    rho_grid = _check_bound_inputs(t, thetas, rho_grid)
    if eta_star is not None and eta_star >= ETA_SMOOTHNESS_GATE:
        warnings.warn(
            f"critical admissibility exponent {eta_star} is outside the "
            f"smooth-density regime (< {ETA_SMOOTHNESS_GATE})",
            AccuracyWarning,
            stacklevel=2,
        )
    if eta_star is not None and theta2 > 1 - eta_star + 1e-12:
        warnings.warn(
            f"theta2={theta2} exceeds 1 - eta* = {1 - eta_star}; the upper "
            "fit is expected to degenerate",
            AccuracyWarning,
            stacklevel=2,
        )
    integrals = np.array(
        [cumulative_variance(idx, measure, r, n_radial=n_radial)
         for r in rho_grid]
    )
    ratios1 = integrals / rho_grid**theta1
    ratios2 = integrals / rho_grid**theta2
    c1, c2 = float(ratios1.min()), float(ratios2.max())
    if not (c1 > 0 and math.isfinite(c2) and c2 > 0):
        raise NumericalConsistencyError(
            f"two-sided variance control failed: c1={c1}, c2={c2}"
        )
    # blow-up of I/rho^theta2 toward small rho means theta2 is outside the
    # valid range: compare the small-rho end against the middle
    mid = ratios2[len(ratios2) // 2]
    degenerate = bool(ratios2[0] > 2.0 * mid)
    return VarianceBoundReport(
        theta1=float(theta1), theta2=float(theta2), c1=c1, c2=c2,
        rho_grid=tuple(float(r) for r in rho_grid),
        integrals=tuple(float(v) for v in integrals),
        theta2_degenerate=degenerate,
    )
