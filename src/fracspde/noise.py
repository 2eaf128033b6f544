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

``_Synthesizer.spectra`` draws the increments of R replicates over a run
of consecutive steps as one ``(R, steps, *grid.shape)`` white array: the
solver's ``_step_rows`` asks for blocks of at most BLOCK_ELEMENTS values
(``_Synthesizer.block_steps`` steps each), and a Picard sweep for its
whole path.  A block is drawn replicate-major, each (replicate, step)
white array from its own stream, and transformed by one batched
``rfftn``; the solver transforms it back with one batched ``irfftn``
unless b and sigma are both constant and it adds the spectra directly.
Neither the row count nor the block length changes a byte of any
increment, so the rows of ``sample_increments``, one step of many
replicates, are the solver's increments.

Randomness is counter-style (Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11): the stream of a (master_seed, replicate, step)
triple is numpy's keyed ``Philox(key=[master_seed, replicate],
counter=[0, step, 0, 0])``.  The ids name the stream directly, so streams
are disjoint and reproducible, and replicates and steps can be generated
in any order or in parallel with identical results.  A stream counts its
Philox blocks in counter word 0, so it reaches the next step's counter
only after 2**64 blocks.  A stream is its key and counter words alone, so
one Philox set to each stream in turn draws what a new one per stream
would, byte for byte.  The triple is formed here alone:
``_Synthesizer.spectra`` takes the master seed, the replicate ids and the
steps and draws row (r, k) from ``RngStream(master_seed, r,
k).generator(rng)``, one call per replicate-step, each re-keying the one
Generator ``rng`` the call builds; the solver and ``sample_increments``
pass only the seed, their ids and their steps.  ``_stream_id`` checks ids
where they enter the package and hands on plain ints.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, ConstraintViolationError,
                     NoiseSynthesisError)
from .fields import Grid, _centre, _integer, _irfft, _real_multiplier, _rfft
from .spectral_measure import SpectralMeasure

__all__ = [
    "RngStream",
    "sample_increments",
    "band_limited_covariance",
    "empirical_covariance",
]

BLOCK_ELEMENTS = 2**16  # most grid values drawn and transformed in one block


def _stream_id(value, name: str) -> int:
    """A stream id or step, where it enters the package, as a plain int;
    ConstraintViolationError unless it is a non-bool integer in [0, 2**64),
    one Philox key or counter word."""
    if not (_integer(value) and 0 <= value < 2**64):
        raise ConstraintViolationError(
            f"{name} must be an integer >= 0 and < 2**64, got {value!r}")
    return int(value)


@functools.cache
def _unkeyed() -> object:
    """The seed sequence a new stream's ``Philox`` is built from: it hands
    over zero key words, which ``RngStream.generator`` then overwrites.

    ``Philox()`` and ``Philox(key=...)`` first seed themselves from OS
    entropy, which makes a new generator about three times as costly.
    Built on first use: importing ``numpy.random`` when the package is
    imported would add about 17 ms and 6 MB to every process.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Unkeyed(ISeedSequence):
        # Philox seeds itself with generate_state(2, np.uint64)
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype)

    return Unkeyed()


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream for one (replicate, step)."""

    master_seed: int
    replicate_id: int = 0
    step_id: int = 0

    def generator(self, reuse=None) -> np.random.Generator:
        """A Generator at the start of the stream ``Philox(key=[master_seed,
        replicate_id], counter=[0, step_id, 0, 0])``: ``reuse``, a Generator
        on a Philox, set to it in place, or a new one if ``reuse`` is None.
        ConstraintViolationError unless each id is a non-bool integer in
        [0, 2**64)."""
        master, rep, step = self.master_seed, self.replicate_id, self.step_id
        # the plain ints in range that the package passes skip the checks
        if not (type(master) is type(rep) is type(step) is int
                and not (master | rep | step) >> 64):
            master = _stream_id(master, "master_seed")
            rep = _stream_id(rep, "replicate id")
            step = _stream_id(step, "step")
        if reuse is None:
            reuse = np.random.Generator(np.random.Philox(_unkeyed()))
        # the whole state of a new keyed Philox: its buffer empty, no uint32
        # held; a Generator keeps no state of its own
        reuse.bit_generator.state = {
            "bit_generator": "Philox",
            "state": {"counter": [0, step, 0, 0], "key": [master, rep]},
            "buffer": [0, 0, 0, 0], "buffer_pos": 4,
            "has_uint32": 0, "uinteger": 0}
        return reuse


class _Synthesizer:
    """The increment synthesis for one (grid, measure, dt).  Its weight is
    ``fields._real_multiplier`` of sqrt(m): sqrt(m) cut, as m is radial."""

    def __init__(self, grid: Grid, measure: SpectralMeasure, dt: float):
        if not 0 < dt < np.inf:
            raise ConfigurationError(f"dt must be finite and > 0, got {dt}")
        dens = measure.density_on_lattice(grid)
        if not np.all(np.isfinite(dens)) or np.any(dens < 0):
            raise NoiseSynthesisError(
                "spectral density is negative or undefined on the grid band"
            )
        scale = (np.sqrt(dt) * (2 * np.pi / grid.box_length) ** (grid.d / 2)
                 * grid.n_per_dim ** (grid.d / 2))
        self.weight = scale * _real_multiplier(np.sqrt(dens))
        self.grid, self.points = grid, dens.size

    def block_steps(self, rows: int) -> int:
        """Steps per block when ``rows`` replicates are drawn together:
        at most BLOCK_ELEMENTS grid values, and at least one step."""
        return max(1, BLOCK_ELEMENTS // (rows * self.points))

    def spectra(self, master_seed: int, replicate_ids, steps) -> np.ndarray:
        """Half spectra of the increments at ``steps``, one row per replicate:
        shape ``(len(replicate_ids), len(steps), *half)``.  Drawn
        replicate-major, row (r, k) from ``RngStream(master_seed, r,
        k).generator``, which re-keys the one Generator the call builds."""
        white = np.empty((len(replicate_ids), len(steps)) + self.grid.shape)
        rng = None
        for rows, r in zip(white, replicate_ids):
            for row, k in zip(rows, steps):
                rng = RngStream(master_seed, r, k).generator(rng)
                rng.standard_normal(out=row)
        return self.weight * np.conj(_rfft(white, self.grid))


def sample_increments(grid: Grid, measure: SpectralMeasure, dt: float,
                      master_seed: int, replicate_ids, step: int) -> np.ndarray:
    """The centred ``(R, *grid.shape)`` increments over a step ``dt`` of
    the streams (master_seed, r, step), one row per r in ``replicate_ids``.

    The solver's synthesis, so a trajectory's noise is exactly what this
    returns; increments of distinct streams are independent.

    Parameters
    ----------
    grid, measure : spatial lattice and spectral density of the covariance.
    dt : time-step length, finite and > 0.
    master_seed, replicate_ids, step : integers in [0, 2**64), numpy's
        included (ConstraintViolationError otherwise).
    """
    ids = tuple(_stream_id(r, "replicate id") for r in replicate_ids)
    spectra = _Synthesizer(grid, measure, dt).spectra(
        _stream_id(master_seed, "master_seed"), ids,
        [_stream_id(step, "step")])
    return _centre(_irfft(spectra[:, 0], grid), grid)


def band_limited_covariance(grid: Grid, measure: SpectralMeasure) -> np.ndarray:
    """Exact lag covariance of synthesized increments per unit dt.

    This is the inverse transform of the band-limited spectral density:
    the deterministic oracle the empirical covariance converges to.
    Index the result by lag offsets (lag 0 at position 0, wrap-around).
    """
    dens = measure.density_on_lattice(grid)
    cov = np.fft.fftn(dens) * (2 * np.pi / grid.box_length) ** grid.d
    return np.real(cov)


def empirical_covariance(increments, lags):
    """Unbiased spatial covariance of an increment ensemble per lag.

    Parameters
    ----------
    increments : ``(R, *grid.shape)`` array of R >= 100 increments, as
        ``sample_increments`` returns.
    lags : iterable of integer grid offsets, one per axis: a tuple of d
        ints, or a bare int when d = 1.

    Returns
    -------
    dict mapping lag -> (estimate, standard_error).
    """
    stack = np.asarray(increments)
    if stack.ndim < 2 or len(stack) < 100:
        raise ConfigurationError(
            f"need an (R >= 100, *grid) array, got shape {stack.shape}")
    axes = tuple(range(1, stack.ndim))
    stack = stack - stack.mean(axis=0)
    n_rep = stack.shape[0]
    out = {}
    for lag in lags:
        shift = lag if isinstance(lag, tuple) else (lag,)
        if len(shift) != len(axes) or not all(map(_integer, shift)):
            raise ConfigurationError(
                f"lag {lag!r} is not one integer offset per axis of a "
                f"{len(axes)}-d grid")
        rolled = np.roll(stack, shift=[-s for s in shift], axis=axes)
        per_rep = (stack * rolled).mean(axis=axes)
        per_rep = per_rep * n_rep / (n_rep - 1)
        out[lag] = (float(per_rep.mean()),
                    float(per_rep.std(ddof=1) / np.sqrt(n_rep)))
    return out
