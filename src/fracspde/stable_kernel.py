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

import json
import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np
from scipy.integrate import quad
from scipy.special import erfc, gamma as gamma_fn

from .errors import (
    AccuracyWarning,
    ConstraintViolationError,
    TruncationError,
)
from .fields import (Field, FractionalIndex, Grid, _apply_symbol,
                     to_frequency, to_physical)
from .spectral_measure import _damping_weights

__all__ = [
    "generator_symbol",
    "semigroup_symbol",
    "kernel",
    "KernelDiagnostics",
    "apply_semigroup",
    "apply_generator",
    "tail_coefficients",
    "leakage_estimate",
    "singular_integral_symbol",
    "calibrate_integral_weights",
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

    ``xi`` is a scalar (d=1) or a length-d sequence.  The real part is
    always <= 0; the imaginary part encodes the skew.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if xi.shape != (idx.d,):
        raise ConstraintViolationError(
            f"frequency must have {idx.d} components, got shape {xi.shape}"
        )
    return complex(sum(t for t in _symbol_terms(idx, xi)))


def semigroup_symbol(idx: FractionalIndex, xi, t):
    """exp(t * generator_symbol(idx, xi)); modulus <= 1 for t >= 0."""
    if t < 0:
        raise ConstraintViolationError(f"time must be >= 0, got {t}")
    return complex(np.exp(t * generator_symbol(idx, xi)))


def _check_idx_grid(idx: FractionalIndex, grid: Grid):
    if idx.d != grid.d:
        raise ConstraintViolationError(
            f"index dimension {idx.d} != grid dimension {grid.d}"
        )


def _symbol_lattice(idx: FractionalIndex, grid: Grid, t: float):
    """Semigroup symbol sampled on the grid's frequency lattice."""
    _check_idx_grid(idx, grid)
    mesh = grid.frequency_mesh()
    expo = sum(_symbol_terms(idx, mesh))
    return np.exp(t * expo)


def tail_coefficients(alpha: float, delta: float):
    """Leading tail amplitudes (c_minus, c_plus) of the t=1 kernel.

    The kernel decays like c/|x|^(1+alpha) on each side; the amplitudes
    follow from the first-order expansion of the Fourier integral.  Both
    vanish at alpha=2 (Gaussian tails).
    """
    g = float(gamma_fn(1 + alpha)) / math.pi
    return (g * math.sin(math.pi * (alpha - delta) / 2),
            g * math.sin(math.pi * (alpha + delta) / 2))


def leakage_estimate(idx: FractionalIndex, t: float, grid: Grid) -> float:
    """First-order estimate of kernel mass outside the box.

    Per axis this is the stable tail beyond L/2, using the exact Gaussian
    complement at alpha=2 and the power-tail asymptotic otherwise.
    """
    _check_idx_grid(idx, grid)
    total = 0.0
    half = grid.box_length / 2
    for a, dl in zip(idx.alpha, idx.delta):
        if a == 2.0:
            total += float(erfc(half / (2 * math.sqrt(t))))
        else:
            cm, cp = tail_coefficients(a, dl)
            r = half * t ** (-1.0 / a)
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
    if not t > 0:
        raise ConstraintViolationError(f"kernel time must be > 0, got {t}")
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
                             in zip(idx.alpha, _damping_weights(idx))))
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
    construction.  t=0 returns the input field unchanged; for t > 0 a
    complex field raises ConstraintViolationError.
    """
    if t < 0:
        raise ConstraintViolationError(f"time must be >= 0, got {t}")
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
    _check_idx_grid(idx, field.grid)
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


# ---------------------------------------------------------------------------
# Singular-integral representation of the 1-d generator.
#
# For smooth f the generator equals a jump-type integral with one-sided
# weights kappa_-, kappa_+.  No closed form for the weights is asserted;
# they are calibrated numerically by matching the Fourier multiplier at one
# frequency, and homogeneity of the multiplier validates the match
# everywhere else.
# ---------------------------------------------------------------------------


def _one_sided_constants(alpha: float):
    """(A_c, A_s): int_0^inf (cos u - 1)/u^{1+a} du and the sine analogue
    (with the linear term subtracted when 1 < a < 2)."""
    drift = alpha > 1
    a_c = quad(lambda u: (math.cos(u) - 1) / u ** (1 + alpha), 0, 1,
               limit=200)[0]
    a_c += quad(lambda u: u ** (-1 - alpha), 1, np.inf,
                weight="cos", wvar=1.0)[0]
    a_c += -1.0 / alpha  # int_1^inf -u^{-1-a} du
    if drift:
        a_s = quad(lambda u: (math.sin(u) - u) / u ** (1 + alpha), 0, 1,
                   limit=200)[0]
        a_s += quad(lambda u: u ** (-1 - alpha), 1, np.inf,
                    weight="sin", wvar=1.0)[0]
        a_s += -1.0 / (alpha - 1)  # int_1^inf -u^{-a} du
    else:
        a_s = quad(lambda u: math.sin(u) / u ** (1 + alpha), 0, 1,
                   limit=200)[0]
        a_s += quad(lambda u: u ** (-1 - alpha), 1, np.inf,
                    weight="sin", wvar=1.0)[0]
    return a_c, a_s


def singular_integral_symbol(alpha: float, xi: float,
                             kappa_minus: float, kappa_plus: float) -> complex:
    """Multiplier of the jump-integral operator at frequency xi, by direct
    quadrature in the jump variable (no homogeneity shortcut)."""
    if xi == 0:
        return 0j
    drift = 1.0 if alpha > 1 else 0.0
    s = abs(xi)

    def side(sign):
        # int_0^inf (e^{i sign s y} - 1 - i sign s y [drift]) / y^{1+a} dy
        re = quad(lambda y: (math.cos(s * y) - 1) / y ** (1 + alpha),
                  0, 1 / s, limit=200)[0]
        re += quad(lambda y: y ** (-1 - alpha), 1 / s, np.inf,
                   weight="cos", wvar=s)[0]
        re += -(1 / s) ** (-alpha) / alpha
        im = quad(lambda y: (math.sin(s * y) - drift * s * y)
                  / y ** (1 + alpha), 0, 1 / s, limit=200)[0]
        im += quad(lambda y: y ** (-1 - alpha), 1 / s, np.inf,
                   weight="sin", wvar=s)[0]
        if drift:
            im += -s * (1 / s) ** (1 - alpha) / (alpha - 1)
        return complex(re, sign * im)

    val = kappa_plus * side(+1) + kappa_minus * side(-1)
    if xi < 0:
        val = val.conjugate()
    return val


def calibrate_integral_weights(idx: FractionalIndex):
    """Fit (kappa_minus, kappa_plus) so the jump integral matches the
    Fourier multiplier at xi=1.  d=1 only."""
    if idx.d != 1:
        raise ConstraintViolationError("integral representation is per-axis")
    alpha, delta = idx.alpha[0], idx.delta[0]
    a_c, a_s = _one_sided_constants(alpha)
    # target -exp(-i delta pi/2); kp+km from the real part, kp-km from the
    # imaginary part.
    ssum = -math.cos(delta * np.pi / 2) / a_c
    sdiff = math.sin(delta * np.pi / 2) / a_s
    kp = (ssum + sdiff) / 2
    km = (ssum - sdiff) / 2
    return km, kp


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
