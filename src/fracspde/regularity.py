"""Hölder-exponent estimation from simulated ensembles.

Exponents are read off second-moment increment scaling: regress
log E|u(t+h, x) - u(t, x)|^2 (or the spatial analogue) on log h across
dyadic lags, and report slope/2 with a bootstrap interval over
replicates.  The usable scale window excludes lags below 2*dt (scheme
noise) and above T/8 (boundary effects).

The theoretical ceilings depend on the stability indices alpha, the
initial-condition smoothness rho, and the noise admissibility exponent
eta:

    temporal < min( rho * sum_i 1/alpha_i, (1 - eta)/2 )
    spatial  < min( rho, min(alpha) * (1 - eta)/2, 1/2 )
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ConstraintViolationError
from .fields import FractionalIndex, _integer
from .solver import _bootstrap_interval

__all__ = [
    "HolderReport",
    "ExponentEstimate",
    "theoretical_exponents",
    "estimate_temporal",
    "estimate_spatial",
    "build_report",
]

MIN_SCALES = 4
DEFAULT_MIN_REPLICATES = 200


def _check_window_inputs(rho: float, eta: float):
    """ConstraintViolationError unless rho lies in (0, 1) and eta in
    [0, 1): eta* is 0 for a measure admissible at every eta > 0."""
    if not (0 < rho < 1):
        raise ConstraintViolationError(f"rho must lie in (0, 1), got {rho}")
    if not (0 <= eta < 1):
        raise ConstraintViolationError(f"eta must lie in [0, 1), got {eta}")


def theoretical_exponents(idx: FractionalIndex, rho: float, eta: float):
    """Upper limits (temporal, spatial) of the Hölder windows."""
    _check_window_inputs(rho, eta)
    gamma1 = min(rho * idx.inverse_alpha_sum, (1 - eta) / 2)
    gamma2 = min(rho, idx.min_alpha * (1 - eta) / 2, 0.5)
    return gamma1, gamma2


@dataclass(frozen=True)
class ExponentEstimate:
    """Slope/2 of a dyadic variogram with bootstrap CI."""

    value: float
    ci_low: float
    ci_high: float
    lags: tuple
    moments: tuple
    n_replicates: int

    @property
    def n_scales(self) -> int:
        return len(self.lags)


@dataclass(frozen=True)
class HolderReport:
    """Estimated vs theoretical Hölder exponents for one configuration."""

    gamma1_hat: float
    gamma2_hat: float
    gamma1_max: float
    gamma2_max: float
    ci: dict

    def to_dict(self):
        return asdict(self)


def _fit_exponent(lags, sq_increments):
    """sq_increments: (n_rep, n_lags) mean squared increments per replicate."""
    lags = np.asarray(lags, dtype=float)
    mean = sq_increments.mean(axis=0)
    if np.any(mean <= 0):
        raise ConstraintViolationError("degenerate increments (zero moment)")
    log_lags = np.log(lags)
    slope = np.polyfit(log_lags, np.log(mean), 1)[0]
    n_rep = sq_increments.shape[0]
    lo, hi = (slope / 2,) * 2 if n_rep == 1 else _bootstrap_interval(
        sq_increments, lambda m: np.polyfit(
            log_lags, np.log(np.maximum(m, 1e-300)).T, 1)[0] / 2)
    return ExponentEstimate(float(slope / 2), float(lo), float(hi),
                            tuple(lags), tuple(float(v) for v in mean),
                            n_rep)


def _dyadic_lags(base, limit, min_scales):
    lags, lag = [], base
    while lag <= limit * (1 + 1e-9):
        lags.append(lag)
        lag *= 2
    if len(lags) < min_scales:
        raise ConstraintViolationError(
            f"only {len(lags)} usable dyadic scales in [{base}, {limit}]; "
            f"need >= {min_scales}"
        )
    return lags


def _check_ensemble(n_replicates, min_replicates):
    """At least one replicate, and at least ``min_replicates``."""
    need = max(min_replicates, 1)
    if n_replicates < need:
        raise ConstraintViolationError(
            f"need >= {need} replicates, got {n_replicates}"
        )


def _replicate_rows(values, row_shape, min_replicates):
    """``values`` as an (R, *row_shape) float array, R checked as above."""
    values = np.asarray(values, dtype=float)
    if values.shape[1:] != row_shape:
        raise ConstraintViolationError(
            f"values of shape {values.shape} are not (R, *{row_shape})"
        )
    _check_ensemble(len(values), min_replicates)
    return values


def _temporal_window(times, min_lag_steps):
    """Dyadic lags, their lengths in steps and the base-step range
    [base_lo, base_hi] that the temporal estimate uses on ``times``.

    ConstraintViolationError unless min_lag_steps is a whole number of
    steps, >= 2, and the times are uniform from 0 and leave at least
    MIN_SCALES lags between min_lag_steps*dt and T/8.
    """
    if not (_integer(min_lag_steps) and min_lag_steps >= 2):
        raise ConstraintViolationError(
            f"min_lag_steps must be an integer >= 2, got {min_lag_steps!r}")
    times = np.asarray(times, dtype=float)
    steps = np.diff(times)
    if steps.size == 0 or times[0] != 0 or not np.allclose(steps, steps[0]):
        raise ConstraintViolationError(
            "temporal estimation needs uniformly spaced times from 0"
        )
    dt = float(steps[0])
    T = float(times[-1])
    lags = _dyadic_lags(min_lag_steps * dt, T / 8, MIN_SCALES)
    lag_steps = [int(round(h / dt)) for h in lags]
    base_lo = int(np.ceil(T / 2 / dt))
    base_hi = len(times) - 1 - lag_steps[-1]
    if base_hi < base_lo:
        raise ConstraintViolationError("no base times left in [T/2, T-max_lag]")
    return lags, lag_steps, base_lo, base_hi


def _spatial_offsets(grid, min_lag_cells):
    """Dyadic lags in cells of the spatial estimate on ``grid``;
    ConstraintViolationError unless min_lag_cells is a whole number of
    cells, >= 1, and MIN_SCALES of them fit in n/4."""
    if not (_integer(min_lag_cells) and min_lag_cells >= 1):
        raise ConstraintViolationError(
            f"min_lag_cells must be an integer >= 1, got {min_lag_cells!r}")
    n = grid.n_per_dim
    offsets = [min_lag_cells * 2**j for j in range(MIN_SCALES)]
    if offsets[-1] > n // 4:
        raise ConstraintViolationError(
            f"grid with {n} points per axis has fewer than "
            f"{MIN_SCALES} usable dyadic spatial scales from "
            f"{min_lag_cells} cells"
        )
    return offsets


def estimate_temporal(series, times, *,
                      min_replicates=DEFAULT_MIN_REPLICATES,
                      min_lag_steps=2) -> ExponentEstimate:
    """Temporal Hölder exponent at one grid point.

    ``series`` is an (R, len(times)) array: the field at that point over
    the stored ``times`` in each of R replicates.  The times must be
    uniform from 0 and leave at least 4 dyadic lags between
    min_lag_steps*dt (an integer min_lag_steps >= 2: below 2*dt the
    stepping scheme dominates) and T/8.
    Increments are averaged over all admissible base times in
    [T/2, T - max_lag] and over replicates.
    """
    series = _replicate_rows(series, (len(times),), min_replicates)
    lags, lag_steps, base_lo, base_hi = _temporal_window(times, min_lag_steps)
    sq = np.empty((len(series), len(lags)))
    for j, m in enumerate(lag_steps):
        inc = (series[:, base_lo + m:base_hi + m + 1]
               - series[:, base_lo:base_hi + 1])
        sq[:, j] = (inc**2).mean(axis=1)
    return _fit_exponent(lags, sq)


def estimate_spatial(fields, grid, *,
                     min_replicates=DEFAULT_MIN_REPLICATES,
                     min_lag_cells=1) -> ExponentEstimate:
    """Spatial Hölder exponent at one time, averaged over the grid.

    ``fields`` is an (R, *grid.shape) array: the field of each of R
    replicates at that time.  Uses dyadic lags starting at min_lag_cells
    grid cells (an integer >= 1, per the first axis) with periodic
    wrap-around.
    """
    fields = _replicate_rows(fields, grid.shape, min_replicates)
    offsets = _spatial_offsets(grid, min_lag_cells)
    lags = [grid.spacing * o for o in offsets]
    sq = np.empty((len(fields), len(lags)))
    for j, o in enumerate(offsets):
        inc = np.roll(fields, -o, axis=1) - fields
        sq[:, j] = (inc**2).mean(axis=tuple(range(1, fields.ndim)))
    return _fit_exponent(lags, sq)


def build_report(temporal: ExponentEstimate, spatial: ExponentEstimate,
                 idx: FractionalIndex, rho: float, eta: float) -> HolderReport:
    """Combine estimates with the theoretical ceilings."""
    if temporal.n_scales < MIN_SCALES or spatial.n_scales < MIN_SCALES:
        raise ConstraintViolationError(
            f"estimates must use >= {MIN_SCALES} dyadic scales"
        )
    g1, g2 = theoretical_exponents(idx, rho, eta)
    return HolderReport(
        gamma1_hat=temporal.value,
        gamma2_hat=spatial.value,
        gamma1_max=g1,
        gamma2_max=g2,
        ci={
            "gamma1": [temporal.ci_low, temporal.ci_high],
            "gamma2": [spatial.ci_low, spatial.ci_high],
        },
    )
