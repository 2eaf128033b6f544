"""Spectral synthesis of the driving noise increments.

The noise is Gaussian, white in time and spatially correlated through a
spectral density m.  On the periodic grid an increment over a step dt is

    dM(x_j) = sqrt(dt) * (2*pi/L)^(d/2) * sum_k sqrt(m(xi_k)) Z_k e^{-i xi_k x_j}

with Z a Hermitian complex Gaussian array of unit modal variance, so that
E[dM(x) dM(y)] = dt * Gamma_L(x - y) where Gamma_L is the band-limited
periodization of the covariance.  Z is realized as the DFT of an iid real
Gaussian array, which enforces Hermitian symmetry exactly; the synthesized
field is real to round-off.

Randomness is counter-style: each (master_seed, replicate, step) triple
names a disjoint, reproducible Philox stream, so replicates and steps can
be generated in any order or in parallel with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoiseSynthesisError
from .fields import Field, Grid
from .spectral_measure import SpectralMeasure

__all__ = [
    "RngStream",
    "NoiseIncrement",
    "sample_increment",
    "band_limited_covariance",
    "empirical_covariance",
]


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream for one (replicate, step)."""

    master_seed: int
    replicate_id: int = 0
    step_id: int = 0

    def generator(self) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.replicate_id, self.step_id),
        )
        return np.random.Generator(np.random.Philox(seq))

    def for_step(self, step_id: int) -> "RngStream":
        return RngStream(self.master_seed, self.replicate_id, step_id)

    def for_replicate(self, replicate_id: int) -> "RngStream":
        return RngStream(self.master_seed, replicate_id, self.step_id)


@dataclass(frozen=True)
class NoiseIncrement:
    """One spatial noise increment over a time step."""

    field: Field
    dt: float
    imag_residue: float = 0.0


class _Synthesizer:
    """The increment synthesis, precomputed for one (grid, measure, dt).
    Increments come out in the solver's FFT (wrap-around) index layout."""

    def __init__(self, grid: Grid, measure: SpectralMeasure, dt: float):
        if not dt > 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        dens = measure.density_on_lattice(grid)
        if not np.all(np.isfinite(dens)) or np.any(dens < 0):
            raise NoiseSynthesisError(
                "spectral density is negative or undefined on the grid band"
            )
        self.sqrt_m = np.sqrt(dens)
        self.mode_norm = grid.n_per_dim ** (grid.d / 2)
        self.scale = np.sqrt(dt) * (2 * np.pi / grid.box_length) ** (grid.d / 2)

    def modes(self, rng_stream: RngStream) -> np.ndarray:
        """Unscaled synthesis, complex but real to round-off."""
        white = rng_stream.generator().standard_normal(self.sqrt_m.shape)
        return np.fft.fftn(self.sqrt_m * (np.fft.fftn(white) / self.mode_norm))

    def draw(self, rng_stream: RngStream) -> np.ndarray:
        """One real increment in wrap-around layout."""
        return self.scale * np.real(self.modes(rng_stream))


def sample_increment(grid: Grid, measure: SpectralMeasure, dt: float,
                     rng_stream: RngStream) -> NoiseIncrement:
    """Draw one noise increment on ``grid`` over a step of length ``dt``.

    Deterministic in ``rng_stream``; increments with distinct stream ids
    are independent.  The solver draws its increments through the same
    synthesis, so a trajectory's noise is exactly what this returns.

    Parameters
    ----------
    grid, measure : spatial lattice and spectral density of the covariance.
    dt : time-step length, > 0.
    rng_stream : stream identity (master seed, replicate, step).
    """
    synth = _Synthesizer(grid, measure, dt)
    modes = synth.modes(rng_stream)
    norm = float(np.abs(modes).max())
    residue = float(np.abs(modes.imag).max() / norm) if norm > 0 else 0.0
    values = np.fft.fftshift(synth.scale * np.real(modes))
    return NoiseIncrement(Field(grid, values, _skip_copy=True), dt,
                          residue)


def band_limited_covariance(grid: Grid, measure: SpectralMeasure) -> np.ndarray:
    """Exact lag covariance of synthesized increments per unit dt.

    This is the inverse transform of the band-limited spectral density:
    the deterministic oracle the empirical covariance converges to.
    Index the result by lag offsets (lag 0 at position 0, wrap-around).
    """
    dens = measure.density_on_lattice(grid)
    cov = np.fft.fftn(dens) * (2 * np.pi / grid.box_length) ** grid.d
    return np.real(cov)


def empirical_covariance(ensemble, lags):
    """Unbiased spatial covariance of an increment ensemble per lag.

    Parameters
    ----------
    ensemble : sequence of NoiseIncrement sharing grid, measure and dt.
    lags : iterable of integer grid offsets (ints for d=1, tuples else).

    Returns
    -------
    dict mapping lag -> (estimate, standard_error).
    """
    if len(ensemble) < 100:
        raise ConfigurationError("need at least 100 increments")
    first = ensemble[0]
    grid = first.field.grid
    for inc in ensemble:
        if inc.field.grid != grid or inc.dt != first.dt:
            raise ConfigurationError(
                "ensemble mixes grids or time steps"
            )
    stack = np.stack([inc.field.values for inc in ensemble])
    stack = stack - stack.mean(axis=0)
    n_rep = stack.shape[0]
    out = {}
    for lag in lags:
        shift = (lag,) if np.isscalar(lag) else tuple(lag)
        rolled = np.roll(stack, shift=[-s for s in shift],
                         axis=tuple(range(1, grid.d + 1)))
        per_rep = (stack * rolled).mean(axis=tuple(range(1, grid.d + 1)))
        per_rep = per_rep * n_rep / (n_rep - 1)
        out[lag] = (float(per_rep.mean()),
                    float(per_rep.std(ddof=1) / np.sqrt(n_rep)))
    return out
