import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspde.errors import ConfigurationError, ConstraintViolationError
from fracspde.fields import Field, FractionalIndex, Grid
from fracspde.regularity import (
    build_report,
    estimate_spatial,
    estimate_temporal,
    theoretical_exponents,
)
from fracspde.solver import PathSolution


def test_theoretical_exponents_alpha2_cases():
    idx = FractionalIndex([2.0, 2.0], [0.0, 0.0])
    g1, g2 = theoretical_exponents(idx, 0.3, 0.5)
    assert g1 == pytest.approx(0.25)   # min(0.3, 0.25)
    assert g2 == pytest.approx(0.3)    # min(0.3, 0.5, 0.5)


def test_theoretical_exponents_small_alpha():
    idx = FractionalIndex([0.5], [0.0])
    g1, g2 = theoretical_exponents(idx, 0.2, 0.9)
    assert g1 == pytest.approx(0.05)   # min(0.4, 0.05)
    assert g2 == pytest.approx(0.025)  # min(0.2, 0.025, 0.5)


def test_theoretical_exponents_heat_limit():
    # smooth initial data, critical white-noise exponent 1/2 + epsilon
    idx = FractionalIndex([2.0], [0.0])
    g1, g2 = theoretical_exponents(idx, 0.999, 0.5 + 1e-9)
    assert g1 == pytest.approx(0.25, abs=1e-6)
    assert g2 == pytest.approx(0.5, abs=1e-6)


def test_theoretical_exponents_domain():
    idx = FractionalIndex([2.0], [0.0])
    with pytest.raises(ConstraintViolationError):
        theoretical_exponents(idx, 0.0, 0.5)
    with pytest.raises(ConstraintViolationError):
        theoretical_exponents(idx, 0.5, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    rho=st.floats(0.05, 0.95),
    eta=st.floats(0.05, 0.9),
    bump=st.floats(0.01, 0.09),
)
def test_theoretical_exponents_monotone(rho, eta, bump):
    idx = FractionalIndex([1.5, 0.5], [0.3, 0.2])
    g1, g2 = theoretical_exponents(idx, rho, eta)
    h1, h2 = theoretical_exponents(idx, rho, min(eta + bump, 0.99))
    assert h1 <= g1 + 1e-12 and h2 <= g2 + 1e-12
    k1, k2 = theoretical_exponents(idx, min(rho + bump, 0.99), eta)
    assert k1 >= g1 - 1e-12 and k2 >= g2 - 1e-12


def _path_from_series(series, dt, replicate_id=0):
    grid = Grid(1, 1, 1.0)
    frames = tuple(Field(grid, np.array([v])) for v in series)
    times = tuple(dt * k for k in range(len(series)))
    return PathSolution(frames, times, replicate_id)


def test_temporal_estimate_linear_drift():
    dt = 1e-3
    n = 257
    series = dt * np.arange(n)
    paths = [_path_from_series(series, dt)]
    est = estimate_temporal(paths, 0, min_replicates=1)
    assert est.value == pytest.approx(1.0, abs=0.01)


def test_temporal_estimate_brownian_calibration():
    dt = 1e-3
    n_steps, n_rep = 1024, 200
    rng = np.random.default_rng(8)
    paths = []
    for r in range(n_rep):
        incs = rng.normal(0, np.sqrt(dt), n_steps)
        series = np.concatenate([[0.0], np.cumsum(incs)])
        paths.append(_path_from_series(series, dt, r))
    est = estimate_temporal(paths, 0, min_replicates=200)
    assert abs(est.value - 0.5) < 0.05
    assert est.ci_low < 0.5 < est.ci_high


def test_temporal_estimate_needs_scales():
    dt = 0.01
    paths = [_path_from_series(np.arange(9) * dt, dt)]
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(paths, 0, min_replicates=1)


def test_temporal_estimate_needs_uniform_frames():
    grid = Grid(1, 1, 1.0)
    frames = tuple(Field(grid, np.array([float(k)])) for k in range(4))
    path = PathSolution(frames, (0.0, 0.1, 0.3, 0.35), 0)
    with pytest.raises(ConstraintViolationError):
        estimate_temporal([path], 0, min_replicates=1)


def _flat_time_path(field_values, grid, n_frames=2, dt=0.5):
    frames = tuple(Field(grid, field_values) for _ in range(n_frames))
    times = tuple(dt * k for k in range(n_frames))
    return PathSolution(frames, times, 0)


def test_spatial_estimate_smooth_field():
    grid = Grid(1, 256, 2 * np.pi)
    x = grid.axis_coordinates()
    paths = [_flat_time_path(np.sin(x), grid)]
    est = estimate_spatial(paths, 0.5, min_replicates=1)
    assert est.value >= 0.95


def test_spatial_estimate_rough_field_calibration():
    # iid cells: increment variance is lag-independent, exponent 0
    grid = Grid(1, 512, 8.0)
    rng = np.random.default_rng(3)
    paths = [_flat_time_path(rng.normal(size=512), grid) for _ in range(50)]
    est = estimate_spatial(paths, 0.0, min_replicates=1)
    assert abs(est.value) < 0.05


def test_spatial_estimate_needs_stored_time():
    grid = Grid(1, 256, 2 * np.pi)
    paths = [_flat_time_path(np.sin(grid.axis_coordinates()), grid)]
    with pytest.raises(ConfigurationError):
        estimate_spatial(paths, 0.25, min_replicates=1)  # frames at 0, 0.5


def test_spatial_estimate_needs_grid_resolution():
    grid = Grid(1, 16, 1.0)
    paths = [_flat_time_path(np.zeros(16) + np.arange(16), grid)]
    with pytest.raises(ConstraintViolationError):
        estimate_spatial(paths, 0.0, min_replicates=1)


def test_replicate_floor_enforced():
    dt = 1e-3
    paths = [_path_from_series(np.arange(257) * dt, dt)]
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(paths, 0)


def test_empty_ensemble_rejected():
    # a floor of 0 replicates still needs one path to read the grid from
    with pytest.raises(ConstraintViolationError):
        estimate_temporal([], 0, min_replicates=0)
    with pytest.raises(ConstraintViolationError):
        estimate_spatial([], 0.0, min_replicates=0)


def test_build_report_combines():
    dt = 1e-3
    series = dt * np.arange(257)
    paths = [_path_from_series(series, dt)]
    tem = estimate_temporal(paths, 0, min_replicates=1)
    grid = Grid(1, 256, 2 * np.pi)
    spa = estimate_spatial(
        [_flat_time_path(np.sin(grid.axis_coordinates()), grid)],
        0.5, min_replicates=1,
    )
    idx = FractionalIndex([2.0], [0.0])
    rep = build_report(tem, spa, idx, 0.9, 0.51)
    assert rep.gamma1_max == pytest.approx(min(0.9 * 0.5, (1 - 0.51) / 2))
    assert rep.gamma2_max == pytest.approx(0.49)  # min(0.9, 2*0.49/2, 0.5)
    assert "gamma1" in rep.ci and "gamma2" in rep.ci
