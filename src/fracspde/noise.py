"""Spectral synthesis of the driving noise increments.

The noise is Gaussian, white in time and spatially correlated through a
spectral density m.  On the periodic grid an increment over a step dt is

    dM(x_j) = sqrt(dt) * (2*pi/L)^(d/2) * sum_k sqrt(m(xi_k)) Z_k e^{-i xi_k x_j}

with Z a Hermitian complex Gaussian array of unit modal variance, so that
E[dM(x) dM(y)] = dt * Gamma_L(x - y) where Gamma_L is the band-limited
periodization of the covariance.  Z is realized as the DFT of an iid real
Gaussian array W, which enforces Hermitian symmetry exactly.

The synthesis is real: W and dM are real arrays, so both transforms are
real FFTs.  In the half-spectrum layout of ``fields._rfft`` the increment is

    rfftn(dM) = sqrt(dt) * (2*pi/L)^(d/2) * n^(d/2) * sqrt(m) * conj(rfftn(W))

and ``irfftn`` of that is dM, real by construction.

Increments are drawn in blocks of consecutive steps of one replicate, at
most BLOCK_ELEMENTS grid values per block: each step's white array comes
from its own stream, and the block is transformed by one batched
``rfftn``.  The solver adds the spectra directly when sigma is constant and
transforms the block back with one batched ``irfftn`` otherwise.

Randomness is counter-style: each (master_seed, replicate, step) triple
names a disjoint, reproducible Philox stream, so replicates and steps can
be generated in any order or in parallel with identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NoiseSynthesisError
from .fields import Field, Grid, _centre, _irfft, _real_multiplier, _rfft
from .spectral_measure import SpectralMeasure

__all__ = [
    "RngStream",
    "NoiseIncrement",
    "sample_increment",
    "band_limited_covariance",
    "empirical_covariance",
]

BLOCK_ELEMENTS = 2**16  # most grid values drawn and transformed in one block


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


@dataclass(frozen=True)
class NoiseIncrement:
    """One spatial noise increment over a time step."""

    field: Field
    dt: float


class _Synthesizer:
    """The increment synthesis for one (grid, measure, dt).  Its weight is
    ``fields._real_multiplier`` of sqrt(m): sqrt(m) cut, as m is radial."""

    def __init__(self, grid: Grid, measure: SpectralMeasure, dt: float):
        if not dt > 0:
            raise ConfigurationError(f"dt must be > 0, got {dt}")
        dens = measure.density_on_lattice(grid)
        if not np.all(np.isfinite(dens)) or np.any(dens < 0):
            raise NoiseSynthesisError(
                "spectral density is negative or undefined on the grid band"
            )
        scale = (np.sqrt(dt) * (2 * np.pi / grid.box_length) ** (grid.d / 2)
                 * grid.n_per_dim ** (grid.d / 2))
        self.weight = scale * _real_multiplier(np.sqrt(dens))
        self.grid = grid
        self.block_steps = max(1, BLOCK_ELEMENTS // dens.size)

    def spectra(self, rng_stream: RngStream, steps) -> np.ndarray:
        """Half spectra of the increments at ``steps`` of one replicate,
        stacked along a leading axis; one stream per step."""
        white = np.empty((len(steps),) + self.grid.shape)
        for row, k in zip(white, steps):
            rng_stream.for_step(k).generator().standard_normal(out=row)
        return self.weight * np.conj(_rfft(white, self.grid))

    def blocks(self, rng_stream: RngStream, n_steps: int):
        """Spectra of steps 0..n_steps-1, ``block_steps`` steps at a time."""
        for start in range(0, n_steps, self.block_steps):
            stop = min(start + self.block_steps, n_steps)
            yield self.spectra(rng_stream, range(start, stop))


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
    spectrum = synth.spectra(rng_stream, [rng_stream.step_id])
    values = _centre(_irfft(spectrum[0], grid), grid)
    return NoiseIncrement(Field(grid, values, _skip_copy=True), dt)


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
