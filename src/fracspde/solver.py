"""Mild-solution schemes for the fractional stochastic evolution equation.

Production scheme is the exponential Euler step

    u_{k+1} = S_dt[ u_k + dt * b(u_k) + sigma(u_k) * dM_k ]

where S_dt is the exact linear semigroup (diagonal in frequency), b is
treated explicitly and the stochastic term uses the left-endpoint (Ito)
evaluation.  The whole-path fixed-point scheme iterates the discrete
integral map on a frozen noise realization; both schemes share the same
discrete fixed point, so they cross-validate path by path.

The stepping state is the half spectrum (``fields._rfft``) of the field,
so a step is

    u_hat <- psi_h * (u_hat + F[dt * b(u_k) + sigma(u_k) * dM_k])

followed by an ``_irfft`` for the checked (and possibly stored) frame;
psi_h (``fields._real_multiplier`` of the symbol), the noise synthesis
and the blow-up ceiling are cached on the SolverConfig.
A constant coefficient acts in frequency space: constant sigma adds the
noise spectrum directly and constant b adds dt*b*n^d to the zero mode, so
with both constant a step makes no forward transform and no coefficient
call, and the frames of a whole noise block are transformed back by one
batched ``_irfft`` and checked together (still every step's frame; the
first failing step is the one reported).  A coefficient that acts on the
frame needs it every step, so that path transforms and checks per step.

Replicates are stepped in chunks by ``_step_rows``: the state of R
replicates is one ``(R, *grid.shape)`` array (its half spectrum ``(R,
*half)``), and every operation above runs on it with the row axis
leading, so each numpy call does the chunk's work at once.  Each row's
arithmetic, its order and its FFT calls are those of a one-row run, so
a row's bytes depend on neither the chunk nor its size.  A noise block
spans about BLOCK_ELEMENTS // (R * grid points) steps
(``_Synthesizer.block_steps``).  ``solve`` is the one-row call;
``moment_estimate`` and the CLI split replicates with ``_chunks``, whose
chunks hold at most CHUNK_ELEMENTS stored values and MAX_CHUNK_ROWS rows.
A failing row keeps stepping, and the chunk raises the BlowUpError a
replicate-by-replicate loop would raise.

Either way a noise block ends with its frames in FFT order, ``(R,
steps, *grid.shape)``.  Its stored rows are centred by one ``_centre``
and yielded; ``solve`` copies them into the path's ``(F, *grid.shape)``
array, which ``PathSolution`` holds as ``values``; no per-frame Field is
built while stepping.

Determinism: (config, replicate_id) fixes every noise stream, so results
are bit-identical regardless of scheduling and chunking.
"""

from __future__ import annotations

import bisect
import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    BlowUpError,
    ConfigurationError,
    ConstraintViolationError,
    PicardConvergenceError,
)
from .fields import (Field, FractionalIndex, Grid, _centre, _irfft, _rfft,
                     _real_multiplier, _wrap)
from .noise import RngStream, _Synthesizer
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
CHUNK_ELEMENTS = 2**20  # most stored frame values a chunk of replicates holds
MAX_CHUNK_ROWS = 64  # replicates per chunk: the size of the Philox key cache


@dataclass(frozen=True)
class Coefficient:
    """Scalar coefficient with a known Lipschitz constant.

    Presets: constant(c), linear(a), affine(a, c), sine(a, w) for
    a*sin(w*u).  Custom callables need an explicit Lipschitz constant.
    """

    fn: object
    lipschitz: float
    name: str = "custom"
    params: tuple = ()

    def __post_init__(self):
        if not (math.isfinite(self.lipschitz) and self.lipschitz >= 0):
            raise ConstraintViolationError(
                "Lipschitz constant must be finite and >= 0"
            )

    def __call__(self, u):
        return self.fn(u)

    @classmethod
    def constant(cls, c):
        c = float(c)
        return cls(lambda u: np.full_like(np.asarray(u, dtype=float), c),
                   0.0, "constant", (c,))

    @classmethod
    def linear(cls, a):
        a = float(a)
        return cls(lambda u: a * u, abs(a), "linear", (a,))

    @classmethod
    def affine(cls, a, c):
        a, c = float(a), float(c)
        return cls(lambda u: a * u + c, abs(a), "affine", (a, c))

    @classmethod
    def sine(cls, a, w=1.0):
        a, w = float(a), float(w)
        return cls(lambda u: a * np.sin(w * u), abs(a * w), "sine", (a, w))

    @property
    def is_zero(self) -> bool:
        return self.name == "constant" and self.params == (0.0,)

    @classmethod
    def from_spec(cls, spec):
        """Build from a {"preset": name, ...params} mapping."""
        if isinstance(spec, Coefficient):
            return spec
        spec = dict(spec)
        preset = spec.pop("preset")
        makers = {
            "constant": lambda: cls.constant(spec.get("value", 0.0)),
            "linear": lambda: cls.linear(spec.get("slope", 1.0)),
            "affine": lambda: cls.affine(spec.get("slope", 1.0),
                                         spec.get("value", 0.0)),
            "sine": lambda: cls.sine(spec.get("amplitude", 1.0),
                                     spec.get("frequency", 1.0)),
        }
        if preset not in makers:
            raise ConfigurationError(f"unknown coefficient preset {preset!r}")
        return makers[preset]()


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
    scheme: str = "exp_euler"
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
        if self.scheme not in ("exp_euler", "picard"):
            raise ConstraintViolationError(f"unknown scheme {self.scheme!r}")
        if self.frame_stride < 1:
            raise ConstraintViolationError("frame_stride must be >= 1")
        if self.picard_max_iter < 1:
            raise ConstraintViolationError("picard_max_iter must be >= 1")
        if not (math.isfinite(self.picard_tol) and self.picard_tol > 0):
            raise ConstraintViolationError("picard_tol must be finite and > 0")
        if self.idx.d != self.grid.d or self.measure.d != self.grid.d:
            raise ConstraintViolationError(
                "index, measure and grid dimensions must agree"
            )
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

    def noise_stream(self, replicate_id: int) -> RngStream:
        return RngStream(self.master_seed, replicate_id, 0)

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
        if (not len(self.times) or self.times[0] != 0
                or np.any(np.diff(self.times) <= 0)):
            raise ConstraintViolationError(
                "times must be strictly increasing from 0"
            )

    @cached_property
    def frames(self) -> tuple:
        """One read-only Field per stored frame, each a view of a row."""
        return tuple(Field(self.grid, row, _skip_copy=True)
                     for row in self.values)

    def values_at(self, probe) -> np.ndarray:
        """Time series of the field at one grid index (a copy)."""
        probe = (probe,) if np.isscalar(probe) else tuple(probe)
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


def _check_frames(stack, ceiling, first_step, replicate_id):
    """BlowUpError at the first frame of ``stack`` (row i is the frame
    after ``first_step + i`` steps) that is non-finite or above ``ceiling``."""
    errors = _blow_ups(stack[np.newaxis], ceiling, first_step, (replicate_id,))
    if errors:
        raise errors[0]


def _stored_steps(config: SolverConfig) -> tuple:
    """Steps after which a frame is stored: each stride and the last."""
    return (*range(0, config.n_steps, config.frame_stride), config.n_steps)


def _stored_times(config: SolverConfig) -> tuple:
    """Times of the frames ``solve`` stores: the floats it records."""
    return tuple(k * config.dt for k in _stored_steps(config))


def _require_exp_euler(config: SolverConfig, caller: str):
    """``caller`` solves with ``solve``; a Picard scheme would be ignored."""
    if config.scheme != "exp_euler":
        raise ConfigurationError(
            f"{caller} runs the exp_euler scheme only, got {config.scheme!r}"
        )


def _constant_value(coef: Coefficient):
    """c for a ``Coefficient.constant(c)`` preset, None for any other."""
    return coef.params[0] if coef.name == "constant" else None


def _step_rows(config: SolverConfig, replicate_ids):
    """Step the replicates ``replicate_ids`` together, row r of an ``(R,
    *grid.shape)`` state being ``replicate_ids[r]``.

    Yields ``(first, rows)`` for the initial frame and for each noise block
    that stores frames: ``rows`` is ``(R, k, *grid.shape)``, the centred
    frames stored after steps ``_stored_steps(config)[first:first + k]``.
    The arithmetic of every row is that of a one-row run, so each row's
    bytes do not depend on the other rows.  Every step's frames are
    checked; BlowUpError is the one a replicate-by-replicate loop raises:
    the first failing row's, at its first failing step.  A row that has
    failed keeps stepping, until the first row fails or the end.
    """
    grid, dt, n = config.grid, config.dt, config.n_steps
    psi_h, noise, ceiling = config._psi_h, config._synthesizer, config._ceiling
    b_const = _constant_value(config.b)
    sigma_const = _constant_value(config.sigma)
    has_noise = not config.sigma.is_zero
    # constant coefficients act in frequency space, the others on the frame
    sigma_on_frame = has_noise and sigma_const is None
    on_frame = b_const is None or sigma_on_frame
    rows = len(replicate_ids)
    block_steps = noise.block_steps(rows)
    if has_noise:
        blocks = noise.blocks(
            [config.noise_stream(rep) for rep in replicate_ids], n)
    steps = _stored_steps(config)
    errors = {}  # row -> its first BlowUpError

    u = _wrap(np.asarray(config.u0.values, dtype=float), grid)
    zero, b_mode = (Ellipsis,) + (0,) * grid.d, dt * (b_const or 0.0) * u.size
    yield 0, np.broadcast_to(_centre(u, grid), (rows, 1) + grid.shape)
    u = np.repeat(u[np.newaxis], rows, axis=0)
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat = _rfft(u, grid)
    row = 1
    for start in range(0, n, block_steps):
        count = min(block_steps, n - start)
        # An overflow leaves a non-finite frame, which the check reports;
        # a batched block, or a failed row, steps past a blow-up.  Neither
        # may warn.
        with np.errstate(over="ignore", invalid="ignore"):
            if has_noise:
                dm_hat = next(blocks)
                if sigma_on_frame:
                    dm = _irfft(dm_hat, grid)
            if on_frame:  # the block's frames in FFT order
                block = np.empty((rows, count) + grid.shape)
            else:  # both constant: the block stays in frequency
                states = np.empty((rows, count) + u_hat.shape[1:],
                                  dtype=u_hat.dtype)
            for j in range(count):
                if on_frame:
                    forcing = dt * config.b(u) if b_const is None else 0.0
                    if sigma_on_frame:
                        forcing = forcing + config.sigma(u) * dm[:, j]
                    u_hat = u_hat + _rfft(forcing, grid)
                if b_const:
                    u_hat[zero] += b_mode
                if has_noise and not sigma_on_frame:
                    u_hat = u_hat + sigma_const * dm_hat[:, j]
                u_hat = psi_h * u_hat
                if on_frame:  # the next step needs this frame
                    block[:, j] = u = _irfft(u_hat, grid)
                    found = _blow_ups(u[:, np.newaxis], ceiling,
                                      start + j + 1, replicate_ids)
                    errors = found | errors
                    if 0 in errors:
                        raise errors[0]
                else:
                    states[:, j] = u_hat
            if not on_frame:  # transform and check the block's frames at once
                block = _irfft(states, grid)
                errors = _blow_ups(block, ceiling, start + 1,
                                   replicate_ids) | errors
                if 0 in errors:
                    raise errors[0]
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
    values = np.empty((len(replicate_ids), len(_stored_steps(config)))
                      + config.grid.shape)
    for first, rows in _step_rows(config, replicate_ids):
        values[:, first:first + rows.shape[1]] = rows
    return values


def _chunks(config: SolverConfig, n_replicates: int, threads: int = 1):
    """Replicate ids ``0..n_replicates-1`` split into the chunks that are
    stepped together.  A chunk holds at most CHUNK_ELEMENTS stored values,
    and ``threads`` chunks at once at most MAX_CHUNK_ROWS replicates.  A
    Picard run solves one replicate at a time.
    """
    per_row = len(_stored_steps(config)) * config.u0.values.size
    size = max(1, min(MAX_CHUNK_ROWS // threads, CHUNK_ELEMENTS // per_row))
    if config.scheme == "picard":
        size = 1
    return [range(lo, min(lo + size, n_replicates))
            for lo in range(0, n_replicates, size)]


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
    values = _stored_values(config, (replicate_id,))[0]
    return PathSolution(values, config.grid, _stored_times(config),
                        replicate_id)


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
    grid, dt, psi_h = config.grid, config.dt, config._psi_h
    n = config.n_steps
    blocks = config._synthesizer.blocks([config.noise_stream(replicate_id)],
                                        n)
    increments = np.concatenate([_irfft(s[0], grid) for s in blocks])

    def semigroup(values):
        return _irfft(psi_h * _rfft(values, grid), grid)

    # frames of the semigroup flow of u0, built by repeated one-step maps
    # so the linear arithmetic matches the stepping scheme exactly
    flow = [_wrap(np.asarray(config.u0.values, dtype=float), grid)]
    for _ in range(n):
        flow.append(semigroup(flow[-1]))

    current = list(flow)
    residuals = []
    for _sweep in range(config.picard_max_iter):
        w = np.zeros(grid.shape)
        new = [flow[0]]
        residual = 0.0
        for k in range(n):
            with np.errstate(over="ignore", invalid="ignore"):
                w = semigroup(w + dt * config.b(current[k])
                                 + config.sigma(current[k]) * increments[k])
                frame = flow[k + 1] + w
            _check_frames(frame[np.newaxis], config._ceiling, k + 1,
                          replicate_id)
            residual = max(residual,
                           float(np.abs(frame - current[k + 1]).max()))
            new.append(frame)
        current = new
        residuals.append(residual)
        if residual < config.picard_tol:
            break
    else:
        raise PicardConvergenceError(
            f"no convergence within {config.picard_max_iter} sweeps "
            f"(last residual {residuals[-1]:.3e})",
            residuals,
        )

    kept = [current[k] for k in _stored_steps(config)]
    path = PathSolution(_centre(np.stack(kept), grid), grid,
                        _stored_times(config), replicate_id)
    return (path, residuals) if return_trace else path


@dataclass(frozen=True)
class MomentEstimate:
    """Empirical worst-case moment with a bootstrap interval."""

    p: float
    value: float
    ci_low: float
    ci_high: float
    n_replicates: int


def _bootstrap_interval(per_replicate: np.ndarray, statistic):
    """2.5/97.5 percentiles of ``statistic`` of resampled replicate means."""
    n = per_replicate.shape[0]
    rng = np.random.default_rng(BOOT_SEED)
    boots = np.empty(BOOT_RESAMPLES)
    for i in range(BOOT_RESAMPLES):
        pick = rng.integers(0, n, n)
        boots[i] = statistic(per_replicate[pick].mean(axis=0))
    lo, hi = np.percentile(boots, [2.5, 97.5])
    return float(lo), float(hi)


def moment_estimate(config: SolverConfig, p: float,
                    n_replicates: int) -> MomentEstimate:
    """max over (frame, x) of the empirical p-th absolute moment.

    Runs ``n_replicates`` >= MIN_MOMENT_REPLICATES independent trajectories
    and bootstraps the replicate axis for the confidence interval.  Only
    the exp_euler scheme is run (ConfigurationError otherwise).
    """
    _require_exp_euler(config, "moment_estimate")
    if p < 2:
        raise ConstraintViolationError("moment order must be >= 2")
    if n_replicates < MIN_MOMENT_REPLICATES:
        raise ConfigurationError(
            f"need >= {MIN_MOMENT_REPLICATES} replicates, got {n_replicates}"
        )
    stack = np.concatenate([np.abs(_stored_values(config, ids)) ** p
                            for ids in _chunks(config, n_replicates)])
    stack = stack.reshape(n_replicates, -1)
    value = float(stack.mean(axis=0).max())
    lo, hi = _bootstrap_interval(stack, np.max)
    return MomentEstimate(p, value, lo, hi, n_replicates)
