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

followed by one ``irfftn`` for the checked (and possibly stored) frame;
psi_h (``fields._real_multiplier`` of the symbol), the noise synthesis
and the blow-up ceiling are cached on the SolverConfig.
A constant coefficient acts in frequency space: constant sigma adds the
noise spectrum directly and constant b adds dt*b*n^d to the zero mode, so
with both constant a step makes no forward transform and no coefficient
call.

Determinism: (config, replicate_id) fixes every noise stream, so results
are bit-identical regardless of scheduling.
"""

from __future__ import annotations

import math
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
    number of steps, Lipschitz coefficients, and admissibility of the
    measure at eta = 1 for the given index (the well-posedness condition
    of the scheme).
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
        if self.idx.d != self.grid.d or self.measure.d != self.grid.d:
            raise ConstraintViolationError(
                "index, measure and grid dimensions must agree"
            )
        require_admissible(self.measure, self.idx)
        object.__setattr__(self, "u0", _as_initial_field(self.u0, self.grid))

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
    """Stored frames of one simulated trajectory."""

    frames: tuple
    times: tuple
    replicate_id: int

    def __post_init__(self):
        if len(self.frames) != len(self.times):
            raise ConstraintViolationError("frames/times length mismatch")
        if np.any(np.diff(self.times) <= 0) or self.times[0] != 0:
            raise ConstraintViolationError(
                "times must be strictly increasing from 0"
            )
        g = self.frames[0].grid
        if any(f.grid != g for f in self.frames):
            raise ConstraintViolationError("frames must share one grid")

    @property
    def grid(self) -> Grid:
        return self.frames[0].grid

    def values_at(self, probe) -> np.ndarray:
        """Time series of the field at one grid index."""
        probe = (probe,) if np.isscalar(probe) else tuple(probe)
        return np.array([f.values[probe] for f in self.frames])

    def frame_at(self, t: float) -> Field:
        """The frame stored at time ``t``; ConfigurationError if none is."""
        hit = np.flatnonzero(np.isclose(self.times, t, TIME_RTOL, 0.0))
        if hit.size == 0:
            raise ConfigurationError(f"no frame stored at t={t}")
        return self.frames[hit[0]]


def smooth_initial(u0, idx: FractionalIndex, t: float, grid: Grid) -> Field:
    """Semigroup-smoothed initial condition at time t."""
    return apply_semigroup(_as_initial_field(u0, grid), idx, t)


def _check_frame(values, ceiling, step, replicate_id):
    sup = float(np.abs(values).max())  # NaN or inf if any value is
    if not math.isfinite(sup):
        raise BlowUpError(f"non-finite values at step {step}", step,
                          replicate_id)
    if sup > ceiling:
        raise BlowUpError(
            f"sup-norm {sup:.3e} exceeded stability ceiling at step {step}",
            step, replicate_id,
        )


def _stored(step: int, config: SolverConfig) -> bool:
    """Whether the frame after ``step`` steps is stored (stride or last)."""
    return step % config.frame_stride == 0 or step == config.n_steps


def _constant_value(coef: Coefficient):
    """c for a ``Coefficient.constant(c)`` preset, None for any other."""
    return coef.params[0] if coef.name == "constant" else None


def solve(config: SolverConfig, replicate_id: int = 0) -> PathSolution:
    """Exponential-Euler trajectory for one replicate.

    Deterministic in (config, replicate_id).  With b = sigma = 0 the
    linear part is integrated exactly, so frames coincide with the
    smoothed initial condition to round-off.  Every step's frame is
    checked; the stepping state stays in half-spectrum layout.

    Raises
    ------
    BlowUpError
        If any frame becomes non-finite or leaves the stability envelope.
    """
    grid, dt, n = config.grid, config.dt, config.n_steps
    psi_h, noise, ceiling = config._psi_h, config._synthesizer, config._ceiling
    b_const = _constant_value(config.b)
    sigma_const = _constant_value(config.sigma)
    has_noise = not config.sigma.is_zero
    # constant coefficients act in frequency space, the others on the frame
    sigma_on_frame = has_noise and sigma_const is None
    if has_noise:
        blocks = noise.blocks(config.noise_stream(replicate_id), n)

    u = _wrap(np.asarray(config.u0.values, dtype=float), grid)
    u_hat = _rfft(u, grid)
    frames = [Field(grid, _centre(u, grid), _skip_copy=True)]
    times = [0.0]
    for k in range(n):
        j = k % noise.block_steps
        if has_noise and j == 0:
            dm_hat = next(blocks)
            if sigma_on_frame:
                dm = _irfft(dm_hat, grid)
        if b_const is None or sigma_on_frame:
            forcing = dt * config.b(u) if b_const is None else 0.0
            if sigma_on_frame:
                forcing = forcing + config.sigma(u) * dm[j]
            u_hat = u_hat + _rfft(forcing, grid)
        if b_const:
            u_hat[(0,) * grid.d] += dt * b_const * u.size
        if has_noise and not sigma_on_frame:
            u_hat = u_hat + sigma_const * dm_hat[j]
        u_hat = psi_h * u_hat
        u = _irfft(u_hat, grid)
        _check_frame(u, ceiling, k + 1, replicate_id)
        if _stored(k + 1, config):
            frames.append(Field(grid, _centre(u, grid), _skip_copy=True))
            times.append((k + 1) * dt)
    return PathSolution(tuple(frames), tuple(times), replicate_id)


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
    blocks = config._synthesizer.blocks(config.noise_stream(replicate_id), n)
    increments = np.concatenate([_irfft(s, grid) for s in blocks])

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
            w = semigroup(w + dt * config.b(current[k])
                             + config.sigma(current[k]) * increments[k])
            frame = flow[k + 1] + w
            _check_frame(frame, config._ceiling, k + 1, replicate_id)
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

    keep = [j for j in range(n + 1) if _stored(j, config)]
    path = PathSolution(
        tuple(Field(grid, _centre(current[j], grid), _skip_copy=True)
              for j in keep),
        tuple(j * dt for j in keep),
        replicate_id,
    )
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
    and bootstraps the replicate axis for the confidence interval.
    """
    if p < 2:
        raise ConstraintViolationError("moment order must be >= 2")
    if n_replicates < MIN_MOMENT_REPLICATES:
        raise ConfigurationError(
            f"need >= {MIN_MOMENT_REPLICATES} replicates, got {n_replicates}"
        )
    powers = []
    for rep in range(n_replicates):
        path = solve(config, rep)
        powers.append(np.abs(np.stack([f.values for f in path.frames])) ** p)
    stack = np.stack(powers).reshape(n_replicates, -1)
    value = float(stack.mean(axis=0).max())
    lo, hi = _bootstrap_interval(stack, np.max)
    return MomentEstimate(p, value, lo, hi, n_replicates)
