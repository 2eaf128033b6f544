"""Core lattice types and the Fourier transform conventions.

Everything downstream discretizes R^d as a uniform periodic grid on
[-L/2, L/2)^d with n points per axis and angular frequencies
xi_k = 2*pi*k/L, k in {-n/2, ..., n/2 - 1}.

Transform pair (continuum convention, pinned by the Gaussian test case):

    forward   F(f)(xi) = int f(x) exp(+i<xi, x>) dx
    inverse   f(x)     = (2*pi)^-d int F(xi) exp(-i<xi, x>) dxi

Discretely, ``to_frequency`` approximates the forward integral by its
Riemann sum (exact for band-limited periodic data) and ``to_physical``
inverts it; the pair round-trips to machine precision.

Layouts, all owned here: physical fields are centred (origin at index
n//2 per axis); ``_wrap``/``_centre`` move them to and from FFT order, and
``_rfft``/``_irfft`` keep half spectra (``rfftn`` over the trailing
``grid.d`` axes, called axis by axis; leading axes are a batch).  A
lattice symbol psi acts on half spectra as ``_real_multiplier(psi)`` =
(psi(-k) + conj psi(k)) / 2, what the real part of the complex route
applies; it is not psi on Nyquist planes where psi is not Hermitian.
``_apply_symbol`` applies it.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, ConstraintViolationError

__all__ = [
    "FractionalIndex",
    "Grid",
    "Field",
    "to_frequency",
    "to_physical",
    "write_array_binary",
    "read_array_binary",
]

# alpha values this close to the excluded point 1 are rejected outright:
# the symbol's phase becomes numerically degenerate there.
ALPHA_ONE_GAP = 1e-3


def _integer(value) -> bool:
    """A non-bool integer: a Python int or a numpy integer."""
    return type(value) is int or isinstance(value, np.integer)


def _check_dimensions(**parts):
    """ConstraintViolationError unless the named parts share one ``d``."""
    if len({part.d for part in parts.values()}) > 1:
        raise ConstraintViolationError("dimensions must agree: " + ", ".join(
            f"{name} {part.d}" for name, part in parts.items()))


@dataclass(frozen=True)
class FractionalIndex:
    """Stability/skewness multi-index of the fractional generator.

    Each axis i carries a stability exponent alpha_i in (0, 2] \\ {1} and a
    skewness delta_i with |delta_i| <= min(alpha_i, 2 - alpha_i).
    """

    alpha: tuple
    delta: tuple

    def __init__(self, alpha, delta=None):
        alpha = tuple(float(a) for a in np.atleast_1d(alpha))
        if delta is None:
            delta = (0.0,) * len(alpha)
        delta = tuple(float(x) for x in np.atleast_1d(delta))
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "delta", delta)
        self._validate()

    def _validate(self):
        if len(self.alpha) != len(self.delta) or not self.alpha:
            raise ConstraintViolationError(
                "alpha and delta must be non-empty sequences of equal length"
            )
        for i, (a, dl) in enumerate(zip(self.alpha, self.delta)):
            if not (0.0 < a <= 2.0):
                raise ConstraintViolationError(
                    f"alpha[{i}]={a} outside (0, 2]"
                )
            if abs(a - 1.0) < ALPHA_ONE_GAP:
                raise ConstraintViolationError(
                    f"alpha[{i}]={a} too close to the excluded value 1"
                )
            if not abs(dl) <= min(a, 2.0 - a) + 1e-12:  # NaN fails too
                raise ConstraintViolationError(
                    f"|delta[{i}]|={abs(dl)} exceeds min(alpha, 2-alpha)="
                    f"{min(a, 2.0 - a)}"
                )

    @property
    def d(self) -> int:
        return len(self.alpha)

    @property
    def min_alpha(self) -> float:
        """Smallest stability exponent across axes."""
        return min(self.alpha)

    @property
    def damping(self) -> np.ndarray:
        """cos(delta_i*pi/2) per axis: the symbol's modulus damping factor."""
        return np.cos(np.asarray(self.delta) * np.pi / 2)

    @property
    def min_damping(self) -> float:
        """min_i cos(delta_i*pi/2): worst-case modulus damping factor."""
        return float(min(self.damping))

    @property
    def inverse_alpha_sum(self) -> float:
        """sum_i 1/alpha_i, the white-noise admissibility threshold."""
        return float(sum(1.0 / a for a in self.alpha))


@dataclass(frozen=True)
class Grid:
    """Uniform periodic lattice on [-L/2, L/2)^d.

    Powers of two per axis are recommended (everything downstream is
    FFT-based) but not required.
    """

    d: int
    n_per_dim: int
    box_length: float

    def __post_init__(self):
        if not (_integer(self.d) and self.d >= 1):
            raise ConstraintViolationError(
                f"grid dimension must be an integer >= 1, got {self.d!r}")
        if not (_integer(self.n_per_dim) and self.n_per_dim >= 1):
            raise ConstraintViolationError(
                f"n_per_dim must be an integer >= 1, got {self.n_per_dim!r}")
        if not (math.isfinite(self.box_length) and self.box_length > 0):
            raise ConstraintViolationError("box_length must be finite and > 0")
        # the transforms scale by box_length**d and a spike by 1/cell_volume
        with np.errstate(over="ignore"):
            box, cell = np.float64([self.box_length, self.spacing]) ** self.d
        if not (box < math.inf and cell > 0):
            raise ConstraintViolationError(
                f"box_length**d or the cell volume of a {self.d}-d box of "
                f"{self.box_length} with {self.n_per_dim} points per axis "
                "is out of the float range"
            )

    @property
    def spacing(self) -> float:
        return self.box_length / self.n_per_dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.d

    @property
    def shape(self) -> tuple:
        return (self.n_per_dim,) * self.d

    def axis_coordinates(self) -> np.ndarray:
        """Monotone physical coordinates of one axis."""
        return -self.box_length / 2 + self.spacing * np.arange(self.n_per_dim)

    def frequency_axis(self) -> np.ndarray:
        """Angular frequencies of one axis in FFT (wrap-around) order."""
        return 2 * np.pi * np.fft.fftfreq(self.n_per_dim, d=self.spacing)

    def frequency_mesh(self) -> list:
        """Per-axis angular frequency arrays broadcastable to ``shape``."""
        ax = self.frequency_axis()
        return list(np.meshgrid(*([ax] * self.d), indexing="ij", sparse=True))

    def coordinate_mesh(self) -> list:
        ax = self.axis_coordinates()
        return list(np.meshgrid(*([ax] * self.d), indexing="ij", sparse=True))

    @property
    def max_frequency(self) -> float:
        """Magnitude of the largest resolved frequency per axis."""
        return np.pi * self.n_per_dim / self.box_length


PHYSICAL = "physical"
FREQUENCY = "frequency"


class Field:
    """Array of values over a Grid, tagged physical- or frequency-space.

    Values are frozen after construction; all operations return new Fields.
    """

    __slots__ = ("grid", "values", "space")

    def __init__(self, grid, values, space=PHYSICAL, _skip_copy=False):
        if space not in (PHYSICAL, FREQUENCY):
            raise ConstraintViolationError(f"unknown space tag {space!r}")
        values = np.asarray(values) if _skip_copy else np.array(values)
        if values.shape != grid.shape:
            raise ConstraintViolationError(
                f"values shape {values.shape} != grid shape {grid.shape}"
            )
        values.setflags(write=False)
        self.grid = grid
        self.values = values
        self.space = space

    def __repr__(self):
        return (f"Field(space={self.space!r}, shape={self.values.shape}, "
                f"dtype={self.values.dtype})")

    @classmethod
    def constant(cls, grid, value):
        return cls(grid, np.full(grid.shape, float(value)), PHYSICAL,
                   _skip_copy=True)

    @classmethod
    def from_function(cls, grid, fn):
        """Sample a vectorized function of the coordinate mesh."""
        vals = np.broadcast_to(fn(*grid.coordinate_mesh()), grid.shape)
        return cls(grid, np.array(vals, dtype=float), PHYSICAL,
                   _skip_copy=True)

    @classmethod
    def spike(cls, grid):
        """Discrete delta: cell mass 1 at the box center."""
        vals = np.zeros(grid.shape)
        vals[(grid.n_per_dim // 2,) * grid.d] = 1.0 / grid.cell_volume
        return cls(grid, vals, PHYSICAL, _skip_copy=True)

    def mass(self) -> float:
        """Integral of the field over the box (sum times cell volume)."""
        return float(np.real(self.values.sum()) * self.grid.cell_volume)

    def require_space(self, space):
        if self.space != space:
            raise ConstraintViolationError(
                f"expected a {space} field, got {self.space}"
            )
        return self


def to_frequency(field: Field) -> Field:
    """Forward transform; output samples F(f) on the frequency lattice."""
    field.require_space(PHYSICAL)
    g = field.grid
    vals = np.fft.ifftn(_wrap(field.values, g)) * g.box_length**g.d
    return Field(g, vals, FREQUENCY, _skip_copy=True)


def to_physical(field: Field) -> Field:
    """Inverse transform; output samples the band-limited f on the grid."""
    field.require_space(FREQUENCY)
    g = field.grid
    vals = _centre(np.fft.fftn(field.values), g) / g.box_length**g.d
    return Field(g, vals, PHYSICAL, _skip_copy=True)


def _grid_point(x, grid: Grid, name: str = "x") -> tuple:
    """The grid index ``x`` (an integer in 1-d, one per axis) as a tuple
    of ints.  ConfigurationError unless each is a non-bool integer, numpy
    integers included, in [0, n_per_dim): a negative index is not wrapped."""
    point = (tuple(x) if isinstance(x, (tuple, list)) or getattr(x, "ndim", 0)
             else (x,))
    if len(point) != grid.d or not all(
            _integer(i) and 0 <= i < grid.n_per_dim for i in point):
        raise ConfigurationError(
            f"{name}={x!r} is not a point of the {grid.d}-d grid with "
            f"{grid.n_per_dim} points per axis")
    return tuple(map(int, point))


def _wrap(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Centred values in FFT (wrap-around) order over the trailing axes."""
    return np.fft.ifftshift(values, axes=tuple(range(-grid.d, 0)))


def _centre(values: np.ndarray, grid: Grid) -> np.ndarray:
    """FFT-ordered values centred over the trailing axes: undoes ``_wrap``."""
    return np.fft.fftshift(values, axes=tuple(range(-grid.d, 0)))


def _rfft(values: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """Half spectrum of real values in FFT order (into ``out`` if given);
    leading axes are a batch.  The calls ``rfftn`` makes over the trailing
    ``grid.d`` axes, in its order, without its wrapper (the same bytes, a
    few µs less a call)."""
    spectrum = np.fft.rfft(values, axis=-1, out=out)
    for axis in range(-2, -grid.d - 1, -1):
        spectrum = np.fft.fft(spectrum, axis=axis, out=out)
    return spectrum


def _irfft(spectrum: np.ndarray, grid: Grid, out=None) -> np.ndarray:
    """Real values in FFT order of half spectra (into ``out`` if given): the
    inverse of ``_rfft``, made of the calls ``irfftn`` makes, in its order."""
    for axis in range(-grid.d, -1):
        spectrum = np.fft.ifft(spectrum, axis=axis)
    return np.fft.irfft(spectrum, grid.n_per_dim, axis=-1, out=out)


def _real_multiplier(symbol: np.ndarray) -> np.ndarray:
    """Half-lattice multiplier of a full-lattice symbol in FFT order."""
    half = symbol.shape[-1] // 2 + 1
    reflected = np.roll(np.flip(symbol), 1, axis=tuple(range(symbol.ndim)))
    return 0.5 * (reflected[..., :half] + np.conj(symbol[..., :half]))


def _apply_symbol(field: Field, symbol: np.ndarray) -> Field:
    """real(to_physical(symbol * to_frequency(field))) of a real physical
    field, computed through half spectra."""
    if np.iscomplexobj(field.require_space(PHYSICAL).values):
        raise ConstraintViolationError("expected a real field, got complex")
    g = field.grid
    hat = _real_multiplier(symbol) * _rfft(_wrap(field.values, g), g)
    return Field(g, _centre(_irfft(hat, g), g), _skip_copy=True)


_MAGIC = b"FSPD"


def write_array_binary(path, values):
    """Dump a real array: magic, uint64 ndim, uint64 dims, little-endian f64
    entries in row-major order."""
    values = np.real(values)
    with open(path, "wb") as fh:
        _write_dump_header(fh, values.shape)
        _write_dump_entries(fh, values)


def _write_dump_header(fh, shape):
    """The header of an array dump of ``shape``; the entries follow it."""
    fh.write(_MAGIC)
    fh.write(struct.pack("<Q", len(shape)))
    fh.write(struct.pack(f"<{len(shape)}Q", *shape))


def _write_dump_entries(fh, values):
    """Append ``values`` to a dump: consecutive calls with consecutive
    leading rows write the entries of the whole array."""
    fh.write(np.ascontiguousarray(values, dtype="<f8").tobytes())


def read_array_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        if fh.read(4) != _MAGIC:
            raise ConstraintViolationError(f"{path}: not an array dump")
        (ndim,) = struct.unpack("<Q", fh.read(8))
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
        data = np.frombuffer(fh.read(), dtype="<f8").reshape(shape)
    return np.array(data)
