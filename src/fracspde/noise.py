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
``_Synthesizer.block_steps``).  It is drawn replicate-major, each
(replicate, step) white array from its own stream, and transformed by one
batched ``rfftn``.  The solver adds the spectra directly when sigma is
constant and transforms the block back with one batched ``irfftn``
otherwise.  Neither the row count nor the block length changes a byte of
any increment.

Randomness is counter-style: each (master_seed, replicate, step) triple
names a disjoint, reproducible Philox stream, so replicates and steps can
be generated in any order or in parallel with identical results.  The
stream is ``Philox(SeedSequence(master_seed, spawn_key=(replicate,
step)))``.  For ids below 2**32 its Philox key is read from a table that
runs numpy's SeedSequence hash-mix (after M. O'Neill's ``seed_seq``) over
a chunk of steps at once, so no SeedSequence is built per step; the draws
are the same bytes.
"""

from __future__ import annotations

import functools
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
KEY_CHUNK = 128  # steps per key table; a power of 2, so none crosses 2**32

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


@functools.lru_cache(maxsize=64)
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


def _table_id(value) -> bool:
    """An id the key table covers: a non-bool integer in [0, 2**32)."""
    return ((type(value) is int or isinstance(value, np.integer))
            and 0 <= value <= _M32)


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
        ids = (self.master_seed, self.replicate_id, self.step_id)
        if all(map(_table_id, ids)):
            master, rep, step = map(int, ids)
            chunk, row = divmod(step, KEY_CHUNK)
            key = _philox_keys(master, rep, chunk)[row]
            seed = _philox_key_type()(key)
            return np.random.Generator(np.random.Philox(seed))
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
        self.grid, self.points = grid, dens.size

    def block_steps(self, rows: int) -> int:
        """Steps per block when ``rows`` replicates are drawn together.

        At most BLOCK_ELEMENTS grid values, and a block never crosses a
        key chunk: below KEY_CHUNK steps its length is a power of 2, above
        it a multiple of KEY_CHUNK.  So each (replicate, key chunk) is
        drawn in one run of blocks, which the 64-entry key cache holds for
        up to 64 rows.
        """
        steps = max(1, BLOCK_ELEMENTS // (rows * self.points))
        if steps >= KEY_CHUNK:
            return steps - steps % KEY_CHUNK
        return 1 << (steps.bit_length() - 1)

    def spectra(self, rng_streams, steps) -> np.ndarray:
        """Half spectra of the increments at ``steps``, one row per stream:
        shape ``(len(rng_streams), len(steps), *half)``.  Drawn
        replicate-major, one stream per (replicate, step)."""
        white = np.empty((len(rng_streams), len(steps)) + self.grid.shape)
        for rows, stream in zip(white, rng_streams):
            for row, k in zip(rows, steps):
                stream.for_step(k).generator().standard_normal(out=row)
        return self.weight * np.conj(_rfft(white, self.grid))

    def blocks(self, rng_streams, n_steps: int):
        """Spectra of steps 0..n_steps-1 of each stream, ``block_steps``
        steps at a time."""
        size = self.block_steps(len(rng_streams))
        for start in range(0, n_steps, size):
            stop = min(start + size, n_steps)
            yield self.spectra(rng_streams, range(start, stop))


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
    spectrum = synth.spectra([rng_stream], [rng_stream.step_id])
    values = _centre(_irfft(spectrum[0, 0], grid), grid)
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
