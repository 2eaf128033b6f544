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

Increments are drawn in blocks of consecutive steps of R replicates
stepped together, with a leading row axis: a block is an ``(R, steps,
*grid.shape)`` white array of at most BLOCK_ELEMENTS values, so it spans
about BLOCK_ELEMENTS // (R * grid points) steps (see
``_Synthesizer.block_steps``); the solver's ``_step_rows`` asks
``_Synthesizer.spectra`` for each block it steps by the block's steps.
A block is drawn replicate-major, each (replicate, step) white array from
its own stream, and transformed by one batched ``rfftn``.  The solver
adds the spectra directly when sigma is constant and transforms the block
back with one batched ``irfftn`` otherwise.  Neither the row count nor
the block length changes a byte of
any increment, so the rows of ``sample_increments``, one step of many
replicates, are the solver's increments.

Randomness is counter-style: each (master_seed, replicate, step) triple
names a disjoint, reproducible Philox stream, so replicates and steps can
be generated in any order or in parallel with identical results.  The
triple is formed here alone: ``_Synthesizer.spectra`` takes the master
seed, the replicate ids and the steps and draws row (r, k) from
``RngStream(master_seed, r, k).generator()``, one call per replicate-step;
the solver and ``sample_increments`` pass only the seed, their ids and
their steps.  ``_stream_id`` checks ids where they enter the package and
hands on plain ints.  The stream is ``Philox(SeedSequence(master_seed,
spawn_key=(replicate, step)))``.  For plain-int ids below 2**32 its
Philox key is read from a table that
runs numpy's SeedSequence hash-mix (after M. O'Neill's ``seed_seq``) over
a chunk of steps at once, so no SeedSequence is built per step; the draws
are the same bytes.  Philox is handed that key and an explicit zero
counter, the shared read-only ``_ZERO_COUNTER``: numpy turns its default
scalar counter 0 into an array with a Python loop, more than half the cost
of a Philox.  The bit-generator state is the same.
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
KEY_CHUNK = 128  # steps per key table; a power of 2, so none crosses 2**32
KEY_CACHE_SIZE = 64  # key tables kept; solver.MAX_CHUNK_ROWS is this many

# Philox's counter at the start of every stream; numpy copies it into the
# bit generator's state
_ZERO_COUNTER = np.zeros(4, dtype=np.uint64)
_ZERO_COUNTER.flags.writeable = False

# numpy's SeedSequence: a pool of 4 uint32 words, hash-mixed with running
# constants h <- h * MULT (constant i is xor-ed in, constant i + 1 multiplies)
_POOL = 4
_M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _running_constants(init, mult, n):
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _M32)
    return out


# entropy (master, 0, 0, 0, replicate, step) takes 24 hash-mixes; the
# output takes 4
_HASH_A = _running_constants(0x43B0D7E5, 0x931E8875, 6 * _POOL)
_HASH_B = np.array(_running_constants(0x8B51F9DD, 0x58F38DED, _POOL),
                   dtype=np.uint64)


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult & _M32
    return value ^ value >> 16


def _mix(x, y):
    result = (_MIX_L * x - _MIX_R * y) & _M32
    return result ^ result >> 16


@functools.lru_cache(maxsize=KEY_CACHE_SIZE)
def _philox_keys(master_seed: int, replicate_id: int,
                 chunk: int) -> np.ndarray:
    """Philox keys of steps ``chunk * KEY_CHUNK`` onward, one row each.

    Row j equals ``SeedSequence(master_seed, spawn_key=(replicate_id, s))
    .generate_state(2, np.uint64)`` for s = chunk * KEY_CHUNK + j; every id
    is an int in [0, 2**32).  Scalar words are Python ints and step words
    uint64 arrays, masked to 32 bits after each product; a product of two
    words fits in 64 bits, and the wrap of ``_mix``'s subtraction modulo
    2**64 vanishes under the mask.  No numpy scalar arithmetic runs, so
    no overflow warning fires.
    """
    a = _HASH_A
    pool = [_hashmix(w, a[i], a[i + 1])
            for i, w in enumerate((master_seed, 0, 0, 0))]
    i = _POOL
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                mixed = _hashmix(pool[src], a[i], a[i + 1])
                pool[dst] = _mix(pool[dst], mixed)
                i += 1
    pool = [_mix(p, _hashmix(replicate_id, a[i + j], a[i + j + 1]))
            for j, p in enumerate(pool)]
    i += _POOL
    steps = np.arange(chunk * KEY_CHUNK, (chunk + 1) * KEY_CHUNK,
                      dtype=np.uint64)[:, None]
    hashed = np.array(a[i:i + _POOL + 1], dtype=np.uint64)
    pool = _mix(np.array(pool, dtype=np.uint64),
                _hashmix(steps, hashed[:-1], hashed[1:]))
    words = _hashmix(pool, _HASH_B[:-1], _HASH_B[1:])
    keys = words[:, 0::2] | words[:, 1::2] << np.uint64(32)
    keys.flags.writeable = False
    return keys


def _stream_id(value, name: str) -> int:
    """A stream id or step, where it enters the package, as a plain int;
    ConstraintViolationError unless it is a non-bool integer >= 0."""
    if not (_integer(value) and value >= 0):
        raise ConstraintViolationError(
            f"{name} must be an integer >= 0, got {value!r}")
    return int(value)


@functools.cache
def _philox_key_type() -> type:
    """The seed-sequence type that hands ``Philox`` a precomputed key.

    Built on first use: importing ``numpy.random`` when the package is
    imported would add about 17 ms and 6 MB to every process.
    """
    from numpy.random.bit_generator import ISeedSequence

    class PhiloxKey(ISeedSequence):
        # Philox seeds itself with generate_state(2, np.uint64)
        __slots__ = ("key",)

        def __init__(self, key: np.ndarray):
            self.key = key

        def generate_state(self, n_words, dtype=np.uint32):
            return self.key

    return PhiloxKey


@dataclass(frozen=True)
class RngStream:
    """Named, reproducible random stream for one (replicate, step)."""

    master_seed: int
    replicate_id: int = 0
    step_id: int = 0

    def generator(self) -> np.random.Generator:
        """A new Generator on the Philox stream of
        ``SeedSequence(master_seed, spawn_key=(replicate_id, step_id))``."""
        master, rep, step = self.master_seed, self.replicate_id, self.step_id
        # plain ints in [0, 2**32), the ids the package passes, are keyed
        if (type(master) is type(rep) is type(step) is int
                and not (master | rep | step) >> 32):
            key = _philox_keys(master, rep, step // KEY_CHUNK)[
                step % KEY_CHUNK]
            seed = _philox_key_type()(key)
            return np.random.Generator(
                np.random.Philox(seed, counter=_ZERO_COUNTER))
        seq = np.random.SeedSequence(
            entropy=self.master_seed,
            spawn_key=(self.replicate_id, self.step_id),
        )
        return np.random.Generator(np.random.Philox(seq))


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
        """Steps per block when ``rows`` replicates are drawn together.

        At most BLOCK_ELEMENTS grid values, and a block never crosses a
        key chunk: below KEY_CHUNK steps its length is a power of 2, above
        it a multiple of KEY_CHUNK.  So each (replicate, key chunk) is
        drawn in one run of blocks, which the key cache holds for up to
        KEY_CACHE_SIZE rows.
        """
        steps = max(1, BLOCK_ELEMENTS // (rows * self.points))
        if steps >= KEY_CHUNK:
            return steps - steps % KEY_CHUNK
        return 1 << (steps.bit_length() - 1)

    def spectra(self, master_seed: int, replicate_ids, steps) -> np.ndarray:
        """Half spectra of the increments at ``steps``, one row per replicate:
        shape ``(len(replicate_ids), len(steps), *half)``.  Drawn
        replicate-major, row (r, k) from ``RngStream(master_seed, r, k)``."""
        white = np.empty((len(replicate_ids), len(steps)) + self.grid.shape)
        for rows, r in zip(white, replicate_ids):
            for row, k in zip(rows, steps):
                RngStream(master_seed, r, k).generator().standard_normal(
                    out=row)
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
    master_seed, replicate_ids, step : integers >= 0, numpy's included
        (ConstraintViolationError otherwise).
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
        if len(shift) != len(axes) or not all(
                type(s) is int or isinstance(s, np.integer) for s in shift):
            raise ConfigurationError(
                f"lag {lag!r} is not one integer offset per axis of a "
                f"{len(axes)}-d grid")
        rolled = np.roll(stack, shift=[-s for s in shift], axis=axes)
        per_rep = (stack * rolled).mean(axis=axes)
        per_rep = per_rep * n_rep / (n_rep - 1)
        out[lag] = (float(per_rep.mean()),
                    float(per_rep.std(ddof=1) / np.sqrt(n_rep)))
    return out
