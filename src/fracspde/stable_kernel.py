"""Asymmetric stable semigroup: symbols, Green kernel, generator.

The generator acts per axis through the Fourier multiplier

    -|xi|^alpha * exp(-i * delta * (pi/2) * sgn(xi))

and the d-dimensional operator is the sum over axes, so its heat kernel
factorizes over axes.  All evaluation here is spectral: sample the
semigroup symbol on the frequency lattice and invert the DFT.  By Poisson
summation the result is exactly the L-periodization of the continuum
kernel, which keeps total mass exactly 1 and non-negativity intact; grid
coarseness shows up as wrap-around (leakage) in the tails, reported by
``KernelDiagnostics`` rather than silently ignored.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .errors import (
    AccuracyWarning,
    ConstraintViolationError,
    TruncationError,
)
from .fields import (Field, FractionalIndex, Grid, _apply_symbol,
                     _check_dimensions, to_frequency, to_physical)

__all__ = [
    "generator_symbol",
    "semigroup_symbol",
    "kernel",
    "KernelDiagnostics",
    "apply_semigroup",
    "apply_generator",
    "tail_coefficients",
    "leakage_estimate",
    "write_kernel_csv",
]

# negative entries beyond this magnitude mean the grid cannot represent
# the kernel; smaller ripples are clipped and accounted for.
NEGATIVE_RIPPLE_TOL = 1e-8
LEAKAGE_TOL = 1e-6  # largest estimated out-of-box mass that is leakage_ok
HIGH_FREQ_TOL = 1e-6  # top-octave energy share where apply_generator warns


def _symbol_terms(idx: FractionalIndex, xi_axes):
    """Per-axis multiplier terms -|xi|^a * exp(-i d pi/2 sgn xi)."""
    terms = []
    for a, dl, x in zip(idx.alpha, idx.delta, xi_axes):
        x = np.asarray(x, dtype=float)
        phase = np.exp(-1j * dl * (np.pi / 2) * np.sign(x))
        terms.append(-np.abs(x) ** a * phase)
    return terms


def generator_symbol(idx: FractionalIndex, xi):
    """Fourier multiplier of the generator at frequency ``xi``.

    ``xi`` is a scalar (d=1) or a length-d sequence of finite values.  The
    real part is always <= 0; the imaginary part encodes the skew.
    """
    return complex(sum(_symbol_terms(idx, idx._frequency(xi))))


def semigroup_symbol(idx: FractionalIndex, xi, t):
    """exp(t * generator_symbol(idx, xi)); modulus <= 1 for t >= 0."""
    if not 0 <= t < math.inf:
        raise ConstraintViolationError(
            f"time must be finite and >= 0, got {t}")
    return complex(np.exp(t * generator_symbol(idx, xi)))


def _symbol_lattice(idx: FractionalIndex, grid: Grid, t: float):
    """Semigroup symbol sampled on the grid's frequency lattice: the
    product over axes of exp(t * term_i), each on its sparse axis of the
    mesh, broadcast to the grid."""
    return functools.reduce(np.multiply, [
        np.exp(t * term) for term in _symbol_terms(idx, grid.frequency_mesh())])


def tail_coefficients(alpha: float, delta: float):
    """Leading tail amplitudes (c_minus, c_plus) of the t=1 kernel.

    The kernel decays like c/|x|^(1+alpha) on each side; the amplitudes
    follow from the first-order expansion of the Fourier integral.  Both
    vanish at alpha=2 (Gaussian tails).
    """
    g = math.gamma(1 + alpha) / math.pi
    return (g * math.sin(math.pi * (alpha - delta) / 2),
            g * math.sin(math.pi * (alpha + delta) / 2))


def leakage_estimate(idx: FractionalIndex, t: float, grid: Grid) -> float:
    """First-order estimate of kernel mass outside the box.

    Per axis this is the stable tail beyond L/2, using the exact Gaussian
    complement at alpha=2 and the power-tail asymptotic otherwise.
    """
    if not 0 < t < math.inf:
        raise ConstraintViolationError(f"time must be finite and > 0, got {t}")
    _check_dimensions(index=idx, grid=grid)
    total = 0.0
    half = grid.box_length / 2
    for a, dl in zip(idx.alpha, idx.delta):
        if a == 2.0:
            total += math.erfc(half / (2 * math.sqrt(t)))
        else:
            cm, cp = tail_coefficients(a, dl)
            # in float64, a huge r**a gives a tail of 0 and r**a = 0 a
            # tail of inf, which the cap at 1 takes, where floats raise
            with np.errstate(over="ignore", divide="ignore"):
                r = half * np.float64(t) ** (-1.0 / a)
                total += (cm + cp) / (a * r**a)
    return float(min(total, 1.0))


@dataclass(frozen=True)
class KernelDiagnostics:
    """Resolution report attached to a discretized kernel."""

    mass: float
    min_value: float
    clipped_mass: float
    leakage_estimate: float
    leakage_tol: float
    symbol_edge_modulus: float

    @property
    def leakage_ok(self) -> bool:
        return bool(self.leakage_estimate <= self.leakage_tol)

    def to_dict(self):
        d = asdict(self)
        d["leakage_ok"] = self.leakage_ok
        return d


def kernel(idx: FractionalIndex, t: float, grid: Grid, *,
           return_diagnostics: bool = False):
    """Discretized Green kernel at time ``t``: S_t of ``Field.spike(grid)``.

    Returns the physical Field (values real, clipped of sub-round-off
    negative ripple, cell sums to mass 1 by construction).  With
    ``return_diagnostics=True`` also returns a :class:`KernelDiagnostics`
    carrying the out-of-box mass estimate and clipping report.

    Raises
    ------
    TruncationError
        If negative entries exceed the ripple tolerance, meaning the
        frequency band is too narrow for this (idx, t).
    """
    if not 0 < t < math.inf:
        raise ConstraintViolationError(
            f"kernel time must be finite and > 0, got {t}")
    vals = apply_semigroup(Field.spike(grid), idx, t).values
    min_value = float(vals.min())
    if min_value < -NEGATIVE_RIPPLE_TOL:
        raise TruncationError(
            f"kernel has negative entries down to {min_value:.3e}; "
            "grid cannot resolve this (alpha, delta, t)"
        )
    clipped_mass = float(-vals[vals < 0].sum() * grid.cell_volume) + 0.0
    vals = np.maximum(vals, 0.0)
    field = Field(grid, vals, _skip_copy=True)
    if not return_diagnostics:
        return field
    edge = math.exp(-t * min(grid.max_frequency**a * c for a, c
                             in zip(idx.alpha, idx.damping)))
    diag = KernelDiagnostics(
        mass=field.mass(),
        min_value=min_value,
        clipped_mass=clipped_mass,
        leakage_estimate=leakage_estimate(idx, t, grid),
        leakage_tol=LEAKAGE_TOL,
        symbol_edge_modulus=edge,
    )
    return field, diag


def apply_semigroup(field: Field, idx: FractionalIndex, t: float) -> Field:
    """Evolve a real physical field by time t under the stable semigroup.

    Exact (to round-off) for band-limited data; composition in t holds by
    construction; t=0 returns the field as it is.  ConstraintViolationError
    for an index of another dimension, or a complex field at t > 0.
    """
    if not 0 <= t < math.inf:
        raise ConstraintViolationError(
            f"time must be finite and >= 0, got {t}")
    _check_dimensions(index=idx, grid=field.grid)
    if t == 0:
        return field.require_space("physical")
    return _apply_symbol(field, _symbol_lattice(idx, field.grid, t))


def apply_generator(field: Field, idx: FractionalIndex) -> Field:
    """Apply the fractional generator as a Fourier multiplier.

    Warns when the top octave of the spectrum carries more than
    HIGH_FREQ_TOL of the energy: the multiplier then amplifies
    unresolved content and the result loses accuracy.
    """
    field.require_space("physical")
    _check_dimensions(index=idx, grid=field.grid)
    grid = field.grid
    hat = to_frequency(field).values
    if grid.n_per_dim >= 4:
        axis = np.abs(grid.frequency_axis())
        top = axis >= grid.max_frequency / 2
        mask = np.zeros(grid.shape, dtype=bool)
        for ax in range(grid.d):
            mask |= top.reshape(
                (1,) * ax + (-1,) + (1,) * (grid.d - ax - 1)
            )
        total = float((np.abs(hat) ** 2).sum())
        if total > 0:
            frac = float((np.abs(hat[mask]) ** 2).sum()) / total
            if frac > HIGH_FREQ_TOL:
                warnings.warn(
                    f"top-octave spectral energy fraction {frac:.2e} exceeds "
                    f"{HIGH_FREQ_TOL:.1e}; generator output may be inaccurate",
                    AccuracyWarning,
                    stacklevel=2,
                )
    mult = sum(_symbol_terms(idx, grid.frequency_mesh()))
    out = to_physical(Field(grid, mult * hat, "frequency", _skip_copy=True))
    vals = out.values.real if np.isrealobj(field.values) else out.values
    return Field(grid, vals, _skip_copy=True)


def write_kernel_csv(path, field: Field, idx: FractionalIndex, t: float,
                     diagnostics: KernelDiagnostics):
    """Kernel dump: one JSON metadata header line, then coordinate/value rows."""
    grid = field.grid
    meta = {
        "alpha": list(idx.alpha),
        "delta": list(idx.delta),
        "t": t,
        "grid": {"d": grid.d, "n_per_dim": grid.n_per_dim,
                 "box_length": grid.box_length},
        "diagnostics": diagnostics.to_dict(),
    }
    ax = grid.axis_coordinates()
    with open(path, "w") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write(",".join(f"x{i}" for i in range(grid.d)) + ",value\n")
        for index in np.ndindex(grid.shape):
            coords = ",".join(repr(float(ax[i])) for i in index)
            fh.write(f"{coords},{float(field.values[index])!r}\n")
