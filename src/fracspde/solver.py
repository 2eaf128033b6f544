"""Mild-solution schemes for the fractional stochastic evolution equation.

Production scheme is the exponential Euler step

    u_{k+1} = S_dt[ u_k + dt * b(u_k) + sigma(u_k) * dM_k ]

where S_dt is the exact linear semigroup (diagonal in frequency), b is
treated explicitly and the stochastic term uses the left-endpoint (Ito)
evaluation.  The whole-path fixed-point scheme iterates the discrete
integral map on a frozen noise realization; both schemes share the same
discrete fixed point, so they cross-validate path by path.  The function
called is the scheme run (``solve`` or ``solve_picard``); a SolverConfig
names none, and only ``solve_picard`` reads its Picard settings.

The stepping state is the half spectrum (``fields._rfft``) of the field,
so a step is

    u_hat <- psi_h * (u_hat + F[dt * b(u_k) + sigma(u_k) * dM_k])

followed by an ``_irfft`` for the checked (and possibly stored) frame;
psi_h (``fields._real_multiplier`` of the symbol), the noise synthesis,
the blow-up ceiling, the stored steps and times, and u0 in FFT order with
its half spectrum are cached on the SolverConfig.
The recursion is ``_advance``, which steps a state through a run of
forcing spectra F_k, each new state written over its own forcing.
``_step_rows`` has two forcing paths.  With both coefficients constant
the forcing is known before a noise block is stepped: sigma times the
block's noise spectra (zeros when sigma is zero), plus dt*b*n^d on the
zero mode.  A step then makes no forward transform and no coefficient
call, and a block is one ``_advance``, one batched ``_irfft`` and one
check (still of every step's frame; the first failing step is the one
reported).  When a coefficient acts on the frame, each step's forcing is
dt*b(u) + sigma(u)*dM_k in physical space (``_forcing``: a zero b or a
zero sigma drops its term), so that path transforms, steps and checks
one step at a time.

Replicates are stepped in chunks by ``_step_rows``: the state of R
replicates is one ``(R, *grid.shape)`` array (its half spectrum ``(R,
*half)``), and every operation above runs on it with the row axis
leading, so each numpy call does the chunk's work at once.  Each row's
arithmetic, its order and its FFT calls are those of a one-row run, so
a row's bytes depend on neither the chunk nor its size.  ``_step_rows``
draws each noise block of ``_Synthesizer.block_steps`` steps by one
``_Synthesizer.spectra`` call.  ``solve`` is the one-row call;
``moment_estimate`` and the CLI run the chunks that ``_chunks`` alone
plans through ``_ensemble``, one after another or on forked worker
processes (the CLI's ``--threads``).  A failing row keeps stepping, and
the chunk raises the BlowUpError a replicate-by-replicate loop would
raise.  ``_picard_rows`` sweeps a chunk's whole paths by the same
``_forcing`` and ``_advance``, their noise drawn by one ``spectra`` call.

Either way a noise block ends with its frames in FFT order, ``(R,
steps, *grid.shape)``.  Its stored rows are centred by one ``_centre``
and yielded; ``solve`` copies them into the path's ``(F, *grid.shape)``
array, which ``PathSolution`` holds as ``values``; no per-frame Field is
built while stepping.

Determinism: step k of replicate r draws the noise stream
(config.master_seed, r, k), which ``noise`` names, so results are
bit-identical regardless of scheduling and chunking.
"""

from __future__ import annotations

import bisect
import math
import sys
import warnings
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np

from .errors import (
    AccuracyWarning,
    BlowUpError,
    ConfigurationError,
    ConstraintViolationError,
    PicardConvergenceError,
)
from .fields import (Field, FractionalIndex, Grid, _centre,
                     _check_dimensions, _grid_point, _integer, _irfft, _rfft,
                     _real_multiplier, _wrap)
from .noise import _Synthesizer, _stream_id
from .spectral_measure import SpectralMeasure, require_admissible
from .stable_kernel import _symbol_lattice, apply_semigroup

__all__ = [
    "Coefficient",
    "SolverConfig",
    "PathSolution",
    "smooth_initial",
    "solve",
    "solve_picard",
    "moment_estimate",
    "MomentEstimate",
]

BLOWUP_FACTOR = 1e6
TIME_RTOL = 1e-9  # relative tolerance for matching step and frame times
MIN_MOMENT_REPLICATES = 100
BOOT_RESAMPLES, BOOT_SEED = 200, 0  # every bootstrap interval uses these
CHUNK_ELEMENTS = 2**20  # most values a chunk of replicates holds
MAX_CHUNK_ROWS = 64  # most rows a chunk steps; bounds the CLI's --threads


_PRESETS = {
    "constant": lambda c, u: np.full_like(np.asarray(u, dtype=float), c),
    "linear": lambda a, u: a * u,
    "affine": lambda a, c, u: a * u + c,
    "sine": lambda a, w, u: a * np.sin(w * u),
}


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient with a known Lipschitz constant.

    Presets: constant(c), linear(a), affine(a, c), sine(a, w) for a*sin(w*u),
    each ``fn`` a ``_PRESETS`` function with its parameters bound, which
    ``name`` and ``params`` read.  Custom callables need a Lipschitz constant.
    """

    fn: object
    lipschitz: float

    def __post_init__(self):
        if not (math.isfinite(self.lipschitz) and self.lipschitz >= 0):
            raise ConstraintViolationError(
                "Lipschitz constant must be finite and >= 0"
            )

    def __call__(self, u):
        return self.fn(u)

    @classmethod
    def constant(cls, c):
        return cls(partial(_PRESETS["constant"], float(c)), 0.0)

    @classmethod
    def linear(cls, a):
        return cls(partial(_PRESETS["linear"], float(a)), abs(float(a)))

    @classmethod
    def affine(cls, a, c):
        a = float(a)
        return cls(partial(_PRESETS["affine"], a, float(c)), abs(a))

    @classmethod
    def sine(cls, a, w=1.0):
        a, w = float(a), float(w)
        return cls(partial(_PRESETS["sine"], a, w), abs(a * w))

    @cached_property
    def _preset(self) -> tuple:
        """(name, params) of the preset ``fn`` is, read once: neither ``fn``
        nor a partial's bound arguments rebind."""
        fn = self.fn
        name = next((name for name, f in _PRESETS.items()
                     if type(fn) is partial and fn.func is f
                     and not fn.keywords
                     and len(fn.args) == f.__code__.co_argcount - 1), "custom")
        return name, () if name == "custom" else fn.args

    @property
    def name(self) -> str:
        """The preset ``fn`` is, or "custom" for any other callable."""
        return self._preset[0]

    @property
    def params(self) -> tuple:
        """The parameters ``fn`` binds to its preset; () if it is custom."""
        return self._preset[1]

    @property
    def is_zero(self) -> bool:
        return self.name == "constant" and self.params == (0.0,)


def _as_initial_field(u0, grid: Grid) -> Field:
    if isinstance(u0, Field):
        if u0.grid != grid:
            raise ConfigurationError("initial field lives on a different grid")
        return u0.require_space("physical")
    if np.isscalar(u0):
        return Field.constant(grid, float(u0))
    if callable(u0):
        return Field.from_function(grid, u0)
    raise ConfigurationError("u0 must be a Field, a scalar, or a callable")


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Full problem statement for one simulation.

    Checked at construction: positive steps, a horizon T that is a whole
    number of steps, Lipschitz coefficients, admissibility of the measure
    at eta = 1 for the given index (the well-posedness condition of the
    scheme), and a finite u0 whose blow-up ceiling is finite.
    """

    idx: FractionalIndex
    measure: SpectralMeasure
    grid: Grid
    b: Coefficient
    sigma: Coefficient
    u0: object
    dt: float
    T: float
    picard_max_iter: int = 200
    picard_tol: float = 1e-12
    master_seed: int = 0
    frame_stride: int = 1

    def __post_init__(self):
        if not self.dt > 0:
            raise ConstraintViolationError("dt must be > 0")
        if not (math.isfinite(self.T) and self.T >= self.dt):
            raise ConstraintViolationError("T must be finite and >= dt")
        if abs(self.n_steps * self.dt - self.T) > TIME_RTOL * self.T:
            raise ConstraintViolationError(
                f"T={self.T} is not a whole number of steps of dt={self.dt}"
            )
        object.__setattr__(self, "master_seed",
                           _stream_id(self.master_seed, "master_seed"))
        for name in ("frame_stride", "picard_max_iter"):
            count = getattr(self, name)
            if not (_integer(count) and count >= 1):
                raise ConstraintViolationError(
                    f"{name} must be an integer >= 1, got {count!r}")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ConstraintViolationError("picard_tol must be finite and > 0")
        _check_dimensions(index=self.idx, measure=self.measure, grid=self.grid)
        require_admissible(self.measure, self.idx)
        object.__setattr__(self, "u0", _as_initial_field(self.u0, self.grid))
        if not np.isfinite(self.u0.values).all():
            raise ConstraintViolationError("u0 must be finite everywhere")
        if not math.isfinite(self._ceiling):
            limit = sys.float_info.max / BLOWUP_FACTOR
            raise ConstraintViolationError(
                f"sup |u0| must be below {limit:.3e}, or the blow-up "
                f"ceiling {BLOWUP_FACTOR:g} * |u0| overflows"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.T / self.dt))

    @cached_property
    def _psi_h(self) -> np.ndarray:
        return _real_multiplier(_symbol_lattice(self.idx, self.grid, self.dt))

    @cached_property
    def _synthesizer(self) -> _Synthesizer:
        return _Synthesizer(self.grid, self.measure, self.dt)

    @cached_property
    def _ceiling(self) -> float:
        u0 = np.asarray(self.u0.values, dtype=float)
        return BLOWUP_FACTOR * max(1.0, float(np.abs(u0).max()))

    @cached_property
    def _stored_steps(self) -> tuple:
        """Steps after which a frame is stored: each stride and the last."""
        return (*range(0, self.n_steps, self.frame_stride), self.n_steps)

    @cached_property
    def _stored_times(self) -> tuple:
        """Times of the frames ``solve`` stores: the floats it records."""
        return tuple(k * self.dt for k in self._stored_steps)

    @cached_property
    def _u0_wrapped(self) -> np.ndarray:
        """u0 in FFT order, read-only."""
        u0 = _wrap(np.asarray(self.u0.values, dtype=float), self.grid)
        u0.flags.writeable = False
        return u0

    @cached_property
    def _u0_hat(self) -> np.ndarray:
        """Half spectrum of u0, read-only: the state before the first step."""
        with np.errstate(over="ignore", invalid="ignore"):
            u0_hat = _rfft(self._u0_wrapped, self.grid)
        u0_hat.flags.writeable = False
        return u0_hat


@dataclass(frozen=True, eq=False)
class PathSolution:
    """Stored frames of one simulated trajectory.

    ``values`` holds the frames as one read-only ``(F, *grid.shape)``
    array, row i being the centred frame at ``times[i]``.  Rows (and the
    ``frames`` Fields) are views of it: copy one to keep it past the path.
    """

    values: np.ndarray
    grid: Grid
    times: tuple
    replicate_id: int

    def __post_init__(self):
        values = np.asarray(self.values).view()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape[1:] != self.grid.shape:
            raise ConstraintViolationError(
                f"frame shape {values.shape[1:]} != grid shape "
                f"{self.grid.shape}"
            )
        if len(values) != len(self.times):
            raise ConstraintViolationError("frames/times length mismatch")
        times = self.times
        if (not len(times) or times[0] != 0
                or not all(a < b for a, b in zip(times, times[1:]))):
            raise ConstraintViolationError(
                "times must be strictly increasing from 0"
            )

    @cached_property
    def frames(self) -> tuple:
        """One read-only Field per stored frame, each a view of a row."""
        return tuple(Field(self.grid, row, _skip_copy=True)
                     for row in self.values)

    def values_at(self, probe) -> np.ndarray:
        """Time series of the field at one grid point (a copy); a probe that
        ``fields._grid_point`` rejects raises ConfigurationError."""
        probe = _grid_point(probe, self.grid, "probe")
        return self.values[(slice(None),) + probe].copy()

    def frame_at(self, t: float) -> Field:
        """The frame stored at time ``t``; ConfigurationError if none is."""
        return self.frames[_frame_index(self.times, t)]


def _frame_index(times, t: float) -> int:
    """Index of the stored time ``t`` in ``times`` (to TIME_RTOL);
    ConfigurationError if no frame is stored there."""
    hit = np.flatnonzero(np.isclose(times, t, TIME_RTOL, 0.0))
    if hit.size == 0:
        raise ConfigurationError(f"no frame stored at t={t}")
    return int(hit[0])


def smooth_initial(u0, idx: FractionalIndex, t: float, grid: Grid) -> Field:
    """Semigroup-smoothed initial condition at time t."""
    return apply_semigroup(_as_initial_field(u0, grid), idx, t)


def _blow_ups(stack, ceiling, first_step, replicate_ids) -> dict:
    """{row: BlowUpError} for each row of ``stack`` (``(R, k, *grid)``,
    frame j of row r the frame of ``replicate_ids[r]`` after ``first_step +
    j`` steps) with a frame that is non-finite or above ``ceiling``, at the
    first such frame of the row."""
    peak = np.abs(stack).max()  # NaN or inf if any value is
    if peak <= ceiling and math.isfinite(peak):  # the ceiling may be inf
        return {}
    sup = np.abs(stack).reshape(stack.shape[:2] + (-1,)).max(axis=2)
    bad = ~(np.isfinite(sup) & (sup <= ceiling))
    errors = {}
    for r in np.flatnonzero(bad.any(axis=1)):
        first = int(np.argmax(bad[r]))
        step, peak = first_step + first, float(sup[r, first])
        errors[int(r)] = BlowUpError(
            f"non-finite values at step {step}" if not math.isfinite(peak)
            else f"sup-norm {peak:.3e} exceeded stability ceiling at step "
                 f"{step}", step, replicate_ids[r])
    return errors


def _forcing(config: SolverConfig, u, dm, out=None):
    """dt * b(u) + sigma(u) * dm (into ``out`` if given), without the term of
    a zero sigma (``dm`` is then not read), nor that of a zero b unless sigma
    is zero too."""
    if config.sigma.is_zero:
        return np.multiply(config.dt, config.b(u), out=out)
    forcing = np.multiply(config.sigma(u), dm, out=out)
    if not config.b.is_zero:
        forcing += config.dt * config.b(u)
    return forcing


def _advance(u_hat, forcing, psi_h):
    """Step ``u_hat <- psi_h * (u_hat + F_k)`` through the ``(R, k, *half)``
    forcing spectra F_k, each state written over its own; returns the last."""
    for k in range(forcing.shape[1]):
        state = forcing[:, k]
        np.add(u_hat, state, out=state)
        u_hat = np.multiply(psi_h, state, out=state)
    return u_hat


def _step_rows(config: SolverConfig, replicate_ids):
    """Step the replicates ``replicate_ids`` together, row r of an ``(R,
    *grid.shape)`` state being ``replicate_ids[r]``.

    Yields ``(first, rows)`` for the initial frame and for each noise block
    that stores frames: ``rows`` is ``(R, k, *grid.shape)``, the centred
    frames stored after steps ``config._stored_steps[first:first + k]``.
    The arithmetic of every row is that of a one-row run, so each row's
    bytes do not depend on the other rows.  Every step's frames are
    checked; BlowUpError is the one a replicate-by-replicate loop raises:
    the first failing row's, at its first failing step.  A row that has
    failed keeps stepping, until the first row fails or the end.
    """
    grid, dt, n = config.grid, config.dt, config.n_steps
    psi_h, noise, ceiling = config._psi_h, config._synthesizer, config._ceiling
    b_const, sigma_const = (c.params[0] if c.name == "constant" else None
                            for c in (config.b, config.sigma))
    has_noise = not config.sigma.is_zero
    # with both constant the forcing is known before the block is stepped
    on_frame = b_const is None or sigma_const is None
    rows, seed = len(replicate_ids), config.master_seed
    block_steps = noise.block_steps(rows)
    steps = config._stored_steps
    errors = {}  # row -> its first BlowUpError

    def check(frames, first):  # raise once the first row has failed
        found = _blow_ups(frames, ceiling, first, replicate_ids)
        errors.update(found | errors)  # a row keeps its first error
        if 0 in errors:
            raise errors[0]

    u0 = np.asarray(config.u0.values, dtype=float)  # is _centre(_wrap(u0))
    zero, b_mode = (Ellipsis,) + (0,) * grid.d, dt * (b_const or 0.0) * u0.size
    yield 0, np.broadcast_to(u0, (rows, 1) + grid.shape)
    u = np.repeat(config._u0_wrapped[np.newaxis], rows, axis=0)
    u_hat = config._u0_hat
    row = 1
    for start in range(0, n, block_steps):
        count = min(block_steps, n - start)
        # An overflow leaves a non-finite frame, which the check reports;
        # a batched block, or a failed row, steps past a blow-up.  Neither
        # may warn.
        with np.errstate(over="ignore", invalid="ignore"):
            drawn = range(start, start + count)
            if has_noise:  # the block's noise; its raw spectra are not kept
                dm = noise.spectra(seed, replicate_ids, drawn)
            if not on_frame:  # step the block, then transform it at once
                forcing = (np.multiply(sigma_const, dm, out=dm) if has_noise
                           else np.zeros((rows, count) + psi_h.shape, complex))
                if b_const:
                    forcing[zero] += b_mode
                u_hat = _advance(u_hat, forcing, psi_h)
                block = _irfft(forcing, grid)
                check(block, start + 1)
            else:  # the block's frames in FFT order, one step at a time
                dm = _irfft(dm, grid) if has_noise else None
                block = np.empty((rows, count) + grid.shape)
                for j in range(count):
                    forcing = _forcing(config, u,
                                       None if dm is None else dm[:, j])
                    spectrum = _rfft(forcing, grid)[:, np.newaxis]
                    u_hat = _advance(u_hat, spectrum, psi_h)
                    block[:, j] = u = _irfft(u_hat, grid)
                    check(u[:, np.newaxis], start + j + 1)
        stop = bisect.bisect_right(steps, start + count, row)
        if stop > row:  # the block's stored rows, centred at once
            kept = [k - start - 1 for k in steps[row:stop]]
            yield row, _centre(block[:, kept], grid)
            row = stop
    if errors:
        raise errors[min(errors)]


def _stored_values(config: SolverConfig, replicate_ids) -> np.ndarray:
    """``(R, F, *grid.shape)`` stored frames of ``replicate_ids``, stepped
    together by ``_step_rows``."""
    values = np.empty((len(replicate_ids), len(config._stored_steps))
                      + config.grid.shape)
    for first, rows in _step_rows(config, replicate_ids):
        values[:, first:first + rows.shape[1]] = rows
    return values


def _chunks(config: SolverConfig, n_replicates: int, workers: int = 1,
            per_row: int | None = None):
    """Replicate ids ``0..n_replicates-1`` in the chunks run together: each
    of at most MAX_CHUNK_ROWS // ``workers`` rows and CHUNK_ELEMENTS values,
    a row holding ``per_row`` (default: its stored frames), and at least
    ``workers`` chunks if there are as many ids."""
    per_row = per_row or len(config._stored_steps) * config.u0.values.size
    size = max(1, min(MAX_CHUNK_ROWS // workers, CHUNK_ELEMENTS // per_row,
                      -(-n_replicates // workers)))
    return [range(lo, min(lo + size, n_replicates))
            for lo in range(0, n_replicates, size)]


_WORK = None  # (fn, chunks) of the ``_ensemble`` run a worker was forked for


def _adopt(fn, chunks):
    """Worker initializer: keep the run's ``fn`` and chunks, which a forked
    worker inherits rather than unpickles."""
    global _WORK
    _WORK = fn, chunks


def _run_chunk(i: int):
    fn, chunks = _WORK
    return fn(chunks[i])


def _ensemble(config: SolverConfig, n_replicates: int, fn, workers: int = 1,
              per_row: int | None = None):
    """``fn`` of each chunk of ``_chunks(config, n_replicates, workers,
    per_row)``, in order.  With ``workers`` > 1 and more than one chunk,
    the chunks run on as many forked worker processes: ``fn`` and the
    chunks reach them by inheritance, so ``fn`` may be a closure, but each
    result (or error) is pickled back, and a write ``fn`` makes to the
    caller's memory is the worker's own.  No worker outlives the call."""
    chunks = _chunks(config, n_replicates, workers, per_row)
    workers = min(workers, len(chunks))
    if workers == 1:
        return [fn(ids) for ids in chunks]
    # imported on use: concurrent.futures alone adds about 5 ms to an import
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_adopt,
                             initargs=(fn, chunks)) as pool:
        return list(pool.map(_run_chunk, range(len(chunks))))


def solve(config: SolverConfig, replicate_id: int = 0) -> PathSolution:
    """Exponential-Euler trajectory for one replicate.

    Deterministic in (config, replicate_id).  With b = sigma = 0 the
    linear part is integrated exactly, so frames coincide with the
    smoothed initial condition to round-off.  Every step's frame is
    checked; the stepping state stays in half-spectrum layout.  This is
    the one-row call of the chunk stepper ``_step_rows``.

    Raises
    ------
    BlowUpError
        If any frame becomes non-finite or leaves the stability envelope.
    """
    replicate_id = _stream_id(replicate_id, "replicate_id")
    values = _stored_values(config, (replicate_id,))[0]
    return PathSolution(values, config.grid, config._stored_times,
                        replicate_id)


def _sweep_values(config: SolverConfig) -> int:
    """The ``per_row`` of Picard chunks: a sweep holds about seven arrays of
    a replicate's path (path, noise, forcing, spectra, frames, temporaries)."""
    return 7 * (config.n_steps + 1) * config.u0.values.size


def _picard_rows(config: SolverConfig, replicate_ids):
    """Stored frames ``(R, F, *grid.shape)`` and residual traces of the fixed
    points of ``replicate_ids``, each kept as its row converges, or the
    lowest failing row's error.  The rows sweep together and their whole
    paths' increments are drawn at once: a chunk planned with
    ``_sweep_values`` keeps the sweep within CHUNK_ELEMENTS values."""
    grid, n = config.grid, config.n_steps
    rows, stored = len(replicate_ids), list(config._stored_steps)
    dm = None if config.sigma.is_zero else _irfft(
        config._synthesizer.spectra(config.master_seed, replicate_ids,
                                    range(n)), grid)
    # a sweep's forcing, then its frames; the residual is taken in place in
    # the path that the frames replace.  A path-sized temporary freed every
    # sweep can go back to the system and be faulted in again on the next.
    new = np.empty((rows, n) + grid.shape)
    path = np.zeros((rows, n + 1) + grid.shape)  # FFT order, k steps in row k
    path[:, 0] = config._u0_wrapped
    spectra = np.zeros((rows, n) + config._psi_h.shape, dtype=complex)
    values = np.empty((rows, len(stored)) + grid.shape)
    live, traces, errors = np.ones(rows, bool), [[] for _ in range(rows)], {}
    with np.errstate(over="ignore", invalid="ignore"):  # _blow_ups checks
        for sweep in range(config.picard_max_iter + 1):
            if sweep:  # the first sweep, with no forcing, is the flow of u0
                _rfft(_forcing(config, path[:, :-1], dm, new), grid,
                      out=spectra)
            _advance(config._u0_hat, spectra, config._psi_h)
            _irfft(spectra, grid, out=new)
            change = np.subtract(path[:, 1:], new, out=path[:, 1:])
            residuals = np.abs(change, out=change).reshape(rows, -1).max(1)
            path[:, 1:] = new
            if not sweep:  # the flow is neither checked nor a residual
                continue
            found = _blow_ups(new, config._ceiling, 1, replicate_ids)
            errors |= {r: exc for r, exc in found.items() if live[r]}
            for r in np.flatnonzero(live):
                traces[r].append(float(residuals[r]))
            done = live & (residuals < config.picard_tol)
            values[done] = path[np.ix_(done, stored)]
            live &= ~done & (np.arange(rows) < min(errors, default=rows))
            if not live.any():
                break
        else:  # the lowest row still sweeping is the lowest failing one
            trace = traces[np.argmax(live)]
            raise PicardConvergenceError(
                f"no convergence within {config.picard_max_iter} sweeps "
                f"(last residual {trace[-1]:.3e})", trace)
    if errors:
        raise errors[min(errors)]
    return _centre(values, grid), traces


def solve_picard(config: SolverConfig, replicate_id: int = 0,
                 *, return_trace: bool = False):
    """Whole-path fixed-point iteration on one frozen noise realization.

    Iterates the discrete mild-equation map (same left-endpoint rule and
    exact semigroup as the stepping scheme) until successive path sweeps
    differ by less than ``picard_tol`` in sup-norm.  Returns the converged
    path, with the residual trace when ``return_trace`` is set.

    Raises
    ------
    PicardConvergenceError
        If the residuals do not drop below tolerance within
        ``picard_max_iter`` sweeps (the trace is attached).
    """
    replicate_id = _stream_id(replicate_id, "replicate_id")
    values, (trace,) = _picard_rows(config, (replicate_id,))
    path = PathSolution(values[0], config.grid, config._stored_times,
                        replicate_id)
    return (path, trace) if return_trace else path


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical worst-case moment with a bootstrap interval."""

    p: float
    value: float
    ci_low: float
    ci_high: float
    n_replicates: int


def _bootstrap_interval(per_replicate: np.ndarray, statistic):
    """2.5/97.5 percentiles of ``statistic`` of the ``(resamples, L)`` means
    of the ``(n, L)`` replicates, drawn as counts, CHUNK_ELEMENTS at a time."""
    n = per_replicate.shape[0]
    rng = np.random.default_rng(BOOT_SEED)
    counts = np.array([np.bincount(rng.integers(0, n, n), minlength=n)
                       for _ in range(BOOT_RESAMPLES)], dtype=float)
    size = max(1, CHUNK_ELEMENTS // per_replicate.shape[1])  # resamples
    boots = np.empty(BOOT_RESAMPLES)
    for lo in range(0, BOOT_RESAMPLES, size):
        sums = counts[lo:lo + size] @ per_replicate
        boots[lo:lo + size] = statistic(sums / n)
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return float(lo), float(hi)


def moment_estimate(config: SolverConfig, p: float,
                    n_replicates: int) -> MomentEstimate:
    """max over (frame, x) of the empirical p-th absolute moment, for a
    finite p >= 2.

    Runs ``n_replicates`` >= MIN_MOMENT_REPLICATES independent trajectories
    and bootstraps the replicate axis for the confidence interval, which
    can miss the estimate (AccuracyWarning; the numbers are kept).
    """
    if not 2 <= p < math.inf:
        raise ConstraintViolationError(
            f"moment order must be finite and >= 2, got {p}")
    if not (_integer(n_replicates)
            and n_replicates >= MIN_MOMENT_REPLICATES):
        raise ConfigurationError(
            f"need an integer n_replicates >= {MIN_MOMENT_REPLICATES}, got "
            f"{n_replicates!r}")
    stack = np.empty((n_replicates, len(config._stored_steps))
                     + config.grid.shape)
    _ensemble(config, n_replicates, lambda ids: np.abs(
        _stored_values(config, ids), out=stack[ids.start:ids.stop]))
    stack = stack.reshape(n_replicates, -1)
    stack **= p
    value = float(stack.mean(axis=0).max())
    lo, hi = _bootstrap_interval(stack, lambda means: means.max(axis=1))
    if not lo <= value <= hi:  # the bootstrapped max is biased upward
        warnings.warn(f"moment estimate {value:.4g} lies outside its "
                      f"bootstrap interval [{lo:.4g}, {hi:.4g}]",
                      AccuracyWarning, stacklevel=2)
    return MomentEstimate(p, value, lo, hi, n_replicates)
