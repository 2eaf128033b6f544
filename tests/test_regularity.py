import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspde.errors import ConfigurationError, ConstraintViolationError
from fracspde.fields import FractionalIndex, Grid
from fracspde.regularity import (
    _fit_exponent,
    build_report,
    estimate_spatial,
    estimate_temporal,
    theoretical_exponents,
)
from fracspde.solver import BOOT_RESAMPLES, BOOT_SEED, PathSolution


@pytest.mark.parametrize("n", [7, 150, 300])
def test_fit_exponent_interval_equals_one_fit_per_resample(n):
    # one polyfit of each resample's mean moments, by fancy-indexed copy
    lags = 2.0 ** np.arange(-6, -1)
    rng = np.random.default_rng(n)
    sq = lags**0.8 * rng.exponential(size=(n, len(lags)))
    boot = np.random.default_rng(BOOT_SEED)
    slopes = [np.polyfit(np.log(lags), np.log(
        sq[boot.integers(0, n, n)].mean(axis=0)), 1)[0] / 2
        for _ in range(BOOT_RESAMPLES)]
    est = _fit_exponent(lags, sq)
    np.testing.assert_allclose((est.ci_low, est.ci_high),
                               np.percentile(slopes, [2.5, 97.5]),
                               rtol=1e-12, atol=0)


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


def test_temporal_estimate_linear_drift():
    dt = 1e-3
    n = 257
    series = dt * np.arange(n)
    times = dt * np.arange(n)
    est = estimate_temporal(series[None], times, min_replicates=1)
    assert est.value == pytest.approx(1.0, abs=0.01)


def test_temporal_estimate_brownian_calibration():
    dt = 1e-3
    n_steps, n_rep = 1024, 200
    rng = np.random.default_rng(8)
    series = []
    for r in range(n_rep):
        incs = rng.normal(0, np.sqrt(dt), n_steps)
        series.append(np.concatenate([[0.0], np.cumsum(incs)]))
    times = dt * np.arange(n_steps + 1)
    est = estimate_temporal(np.stack(series), times, min_replicates=200)
    assert abs(est.value - 0.5) < 0.05
    assert est.ci_low < 0.5 < est.ci_high


def test_temporal_estimate_needs_scales():
    dt = 0.01
    times = np.arange(9) * dt
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(times[None], times, min_replicates=1)


def test_temporal_estimate_needs_uniform_frames():
    series = np.arange(4.0)[None]
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(series, (0.0, 0.1, 0.3, 0.35), min_replicates=1)
    times = np.arange(257) * 1e-3
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(times[None], times + 0.5, min_replicates=1)


def test_spatial_estimate_smooth_field():
    grid = Grid(1, 256, 2 * np.pi)
    x = grid.axis_coordinates()
    est = estimate_spatial(np.sin(x)[None], grid, min_replicates=1)
    assert est.value >= 0.95


def test_spatial_estimate_rough_field_calibration():
    # iid cells: increment variance is lag-independent, exponent 0
    grid = Grid(1, 512, 8.0)
    rng = np.random.default_rng(3)
    fields = np.stack([rng.normal(size=512) for _ in range(50)])
    est = estimate_spatial(fields, grid, min_replicates=1)
    assert abs(est.value) < 0.05


def test_spatial_estimate_needs_stored_time():
    # the spatial estimate reads the frames at one stored time: frame_at
    # (and the holder command before any solve) rejects any other time
    grid = Grid(1, 256, 2 * np.pi)
    x = grid.axis_coordinates()
    path = PathSolution(np.stack([np.sin(x), np.cos(x)]), grid, (0.0, 0.5),
                        0)
    frame = path.frame_at(0.5)
    assert frame is path.frames[1]
    assert np.array_equal(frame.values, np.cos(x))
    with pytest.raises(ConfigurationError):
        path.frame_at(0.25)


def test_spatial_estimate_needs_grid_resolution():
    grid = Grid(1, 16, 1.0)
    fields = (np.zeros(16) + np.arange(16))[None]
    with pytest.raises(ConstraintViolationError):
        estimate_spatial(fields, grid, min_replicates=1)


@pytest.mark.parametrize("min_lag_steps", [2.5, 2.0, 1, 0, -2, True,
                                           np.float64(3.0), "2"])
def test_temporal_lag_must_be_whole_steps_at_least_two(min_lag_steps):
    # a fractional lag would fit its slope on lags it does not measure
    times = np.arange(1025) * 1e-3
    with pytest.raises(ConstraintViolationError, match="min_lag_steps"):
        estimate_temporal(times[None], times, min_replicates=1,
                          min_lag_steps=min_lag_steps)


@pytest.mark.parametrize("min_lag_cells", [1.5, 1.0, 0, -1, True,
                                           np.float64(2.0), "1"])
def test_spatial_lag_must_be_whole_cells_at_least_one(min_lag_cells):
    # np.roll shifts by whole cells; a negative lag fails inside the fit
    grid = Grid(1, 256, 2 * np.pi)
    fields = np.sin(grid.axis_coordinates())[None]
    with pytest.raises(ConstraintViolationError, match="min_lag_cells"):
        estimate_spatial(fields, grid, min_replicates=1,
                         min_lag_cells=min_lag_cells)


def test_lag_settings_take_numpy_integers():
    times = np.arange(1025) * 1e-3
    grid = Grid(1, 256, 2 * np.pi)
    tem = estimate_temporal(times[None], times, min_replicates=1,
                            min_lag_steps=np.int64(3))
    assert tem.lags[0] == pytest.approx(3e-3)
    spa = estimate_spatial(np.sin(grid.axis_coordinates())[None], grid,
                           min_replicates=1, min_lag_cells=np.int32(2))
    assert spa.lags[0] == pytest.approx(2 * grid.spacing)


def test_replicate_floor_enforced():
    dt = 1e-3
    times = np.arange(257) * dt
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(times[None], times)


def test_empty_ensemble_rejected():
    # a floor of 0 replicates still needs one replicate to estimate from
    times = np.arange(257) * 1e-3
    grid = Grid(1, 256, 2 * np.pi)
    with pytest.raises(ConstraintViolationError):
        estimate_temporal(np.empty((0, 257)), times, min_replicates=0)
    with pytest.raises(ConstraintViolationError):
        estimate_spatial(np.empty((0, 256)), grid, min_replicates=0)


def test_estimates_reject_misshapen_arrays():
    times = np.arange(257) * 1e-3
    grid = Grid(1, 256, 2 * np.pi)
    for series in (times, np.stack([times[:-1]] * 2)):
        with pytest.raises(ConstraintViolationError):
            estimate_temporal(series, times, min_replicates=1)
    for fields in (np.zeros(256), np.zeros((2, 128))):
        with pytest.raises(ConstraintViolationError):
            estimate_spatial(fields, grid, min_replicates=1)


def test_build_report_combines():
    dt = 1e-3
    series = dt * np.arange(257)
    tem = estimate_temporal(series[None], dt * np.arange(257),
                            min_replicates=1)
    grid = Grid(1, 256, 2 * np.pi)
    spa = estimate_spatial(np.sin(grid.axis_coordinates())[None], grid,
                           min_replicates=1)
    idx = FractionalIndex([2.0], [0.0])
    rep = build_report(tem, spa, idx, 0.9, 0.51)
    assert rep.gamma1_max == pytest.approx(min(0.9 * 0.5, (1 - 0.51) / 2))
    assert rep.gamma2_max == pytest.approx(0.49)  # min(0.9, 2*0.49/2, 0.5)
    assert "gamma1" in rep.ci and "gamma2" in rep.ci
