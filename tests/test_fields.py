import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from fracspde.errors import ConfigurationError, ConstraintViolationError
from fracspde.fields import (
    Field,
    FractionalIndex,
    Grid,
    read_array_binary,
    _grid_point,
    _irfft,
    _rfft,
    to_frequency,
    to_physical,
    write_array_binary,
)


def test_index_accepts_valid_parameters():
    idx = FractionalIndex([1.5, 0.5], [0.3, -0.2])
    assert idx.d == 2
    assert idx.min_alpha == 0.5
    assert idx.inverse_alpha_sum == pytest.approx(1 / 1.5 + 2.0)


def test_index_default_delta_is_zero():
    idx = FractionalIndex([2.0, 2.0])
    assert idx.delta == (0.0, 0.0)
    assert idx.min_damping == 1.0


@pytest.mark.parametrize("alpha,delta", [
    ([2.5], [0.0]),          # alpha > 2
    ([0.0], [0.0]),          # alpha = 0
    ([1.0], [0.0]),          # excluded value
    ([1.0004], [0.0]),       # within the exclusion gap
    ([1.5], [0.6]),          # |delta| > min(alpha, 2-alpha)
    ([2.0], [0.1]),          # delta must vanish at alpha=2
    ([1.5, 1.5], [0.1]),     # length mismatch
    ([1.5], [float("nan")]),  # once gave an all-NaN kernel
])
def test_index_rejects_invalid(alpha, delta):
    with pytest.raises(ConstraintViolationError):
        FractionalIndex(alpha, delta)


@given(
    alpha=st.floats(0.05, 2.0).filter(lambda a: abs(a - 1) > 2e-3),
    frac=st.floats(0.0, 1.0),
)
def test_index_damping_positive(alpha, frac):
    delta = frac * min(alpha, 2 - alpha)
    idx = FractionalIndex([alpha], [delta])
    assert idx.min_damping > 0


def test_grid_geometry():
    grid = Grid(1, 8, 4.0)
    assert grid.spacing == 0.5
    x = grid.axis_coordinates()
    assert x[0] == -2.0 and x[-1] == pytest.approx(1.5)
    xi = grid.frequency_axis()
    assert xi[0] == 0.0
    assert np.abs(xi).max() == pytest.approx(grid.max_frequency)


def test_grid_rejects_bad_parameters():
    with pytest.raises(ConstraintViolationError):
        Grid(0, 8, 1.0)
    with pytest.raises(ConstraintViolationError):
        Grid(1, 8, -1.0)
    for d, n in [(1, 64.5), (1, 64.0), (1.0, 8), (1, True)]:
        with pytest.raises(ConstraintViolationError, match="integer"):
            Grid(d, n, 16.0)  # 64.5 once failed in numpy on first use
    assert Grid(np.int64(1), np.int32(8), 4.0).shape == (8,)


@pytest.mark.parametrize("box_length", [float("inf"), float("nan")])
def test_grid_rejects_non_finite_box_length(box_length):
    with pytest.raises(ConstraintViolationError):
        Grid(1, 16, box_length)


@pytest.mark.parametrize("d,n,box_length", [
    (2, 1, 1e300), (3, 32, 1e150), (2, 1, 1e-300),
])
def test_grid_rejects_volumes_out_of_float_range(d, n, box_length):
    # box_length**d overflows or the cell volume underflows to 0
    with pytest.raises(ConstraintViolationError, match="float range"):
        Grid(d, n, box_length)
    Grid(1, n, box_length)


def test_field_shape_checked():
    grid = Grid(2, 4, 1.0)
    with pytest.raises(ConstraintViolationError):
        Field(grid, np.zeros(4))


def test_field_values_frozen():
    grid = Grid(1, 4, 1.0)
    f = Field.constant(grid, 2.0)
    with pytest.raises(ValueError):
        f.values[0] = 1.0


@pytest.mark.parametrize("space", ["physical", "frequency"])
@pytest.mark.parametrize("copier", [lambda f: pickle.loads(pickle.dumps(f)),
                                    copy.deepcopy], ids=["pickle", "deepcopy"])
def test_field_copies_stay_frozen(space, copier):
    grid = Grid(2, 4, 1.0)
    f = Field(grid, np.arange(16.0).reshape(4, 4) * (1 + 2j), space)
    g = copier(f)
    assert (g.grid, g.space) == (grid, space)
    assert g.values.tobytes() == f.values.tobytes()
    assert not g.values.flags.writeable


def test_transform_roundtrip():
    grid = Grid(1, 64, 10.0)
    f = Field.from_function(grid, lambda x: np.exp(-x**2) * np.cos(3 * x))
    back = to_physical(to_frequency(f))
    assert np.abs(back.values - f.values).max() < 1e-13


def test_transform_roundtrip_2d():
    grid = Grid(2, 16, 6.0)
    f = Field.from_function(grid, lambda x, y: np.cos(x) * np.sin(2 * y))
    back = to_physical(to_frequency(f))
    assert np.abs(back.values - f.values).max() < 1e-13


def test_forward_transform_normalization():
    # mass of the field equals the zero-frequency coefficient
    grid = Grid(1, 128, 20.0)
    f = Field.from_function(grid, lambda x: np.exp(-x**2 / 2))
    hat = to_frequency(f)
    assert hat.values[0].real == pytest.approx(f.mass(), rel=1e-12)
    # and matches the continuum Gaussian integral sqrt(2 pi)
    assert hat.values[0].real == pytest.approx(np.sqrt(2 * np.pi), rel=1e-10)


def test_space_tags_enforced():
    grid = Grid(1, 8, 1.0)
    f = Field.constant(grid, 1.0)
    with pytest.raises(ConstraintViolationError):
        to_physical(f)
    with pytest.raises(ConstraintViolationError):
        to_frequency(to_frequency(f))


def test_spike_has_unit_mass():
    grid = Grid(1, 32, 8.0)
    assert Field.spike(grid).mass() == pytest.approx(1.0)


def test_binary_roundtrip(tmp_path):
    grid = Grid(2, 8, 2.0)
    f = Field.from_function(grid, lambda x, y: x + 2 * y)
    path = tmp_path / "dump.bin"
    write_array_binary(path, f.values)
    back = Field(grid, read_array_binary(path))
    assert np.array_equal(back.values, f.values)


def test_array_binary_roundtrip(tmp_path):
    arr = np.arange(24.0).reshape(2, 3, 4)
    path = tmp_path / "a.bin"
    write_array_binary(path, arr)
    assert np.array_equal(read_array_binary(path), arr)


def test_read_array_binary_rejects_a_file_without_the_magic(tmp_path):
    path = tmp_path / "a.bin"
    write_array_binary(path, np.arange(3.0))
    path.write_bytes(b"FSPX" + path.read_bytes()[4:])
    with pytest.raises(ConstraintViolationError, match="not an array dump"):
        read_array_binary(path)


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("d,n", [(1, 256), (1, 33), (2, 16), (2, 7),
                                 (3, 8), (3, 5)])
def test_half_spectrum_transforms_equal_rfftn_byte_for_byte(d, n, batch):
    # _rfft/_irfft make rfftn/irfftn's per-axis calls directly, so any
    # difference in order or arguments shows as a changed byte
    grid = Grid(d, n, 3.0)
    axes = tuple(range(-d, 0))
    values = np.random.default_rng(d * n).standard_normal(batch + grid.shape)
    spectrum = _rfft(values, grid)
    reference = np.fft.rfftn(values, axes=axes)
    assert spectrum.shape == reference.shape
    assert spectrum.tobytes() == reference.tobytes()
    back = _irfft(spectrum, grid)
    reference = np.fft.irfftn(spectrum, s=grid.shape, axes=axes)
    assert back.shape == reference.shape == values.shape
    assert back.tobytes() == reference.tobytes()


@pytest.mark.parametrize("x,want", [
    ((0, 15), (0, 15)),
    ([np.int32(3), np.uint64(4)], (3, 4)),
    (np.array([3, 4]), (3, 4)),
])
def test_grid_point_reads_one_integer_per_axis(x, want):
    point = _grid_point(x, Grid(2, 16, 8.0))
    assert point == want and all(type(i) is int for i in point)


@pytest.mark.parametrize("x", [
    3, (3,), (3, 4, 5), (3, 16), (-1, 3), (3.0, 4), (True, 4),
    (np.bool_(True), 4), ("3", 4), np.array(3), None,
])
def test_grid_point_rejects_what_is_not_a_point(x):
    with pytest.raises(ConfigurationError):
        _grid_point(x, Grid(2, 16, 8.0))
