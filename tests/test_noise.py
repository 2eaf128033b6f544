import numpy as np
import pytest

from fracspde.errors import ConfigurationError
from fracspde.fields import Grid
from fracspde.noise import (
    RngStream,
    band_limited_covariance,
    empirical_covariance,
    sample_increment,
)
from fracspde.spectral_measure import SpectralMeasure

GRID = Grid(1, 64, 8.0)
WHITE = SpectralMeasure.white(1)
DT = 0.01


def _ensemble(measure, n, seed=0, grid=GRID, dt=DT):
    return [sample_increment(grid, measure, dt, RngStream(seed, r, 0))
            for r in range(n)]


def test_white_noise_per_cell_variance():
    incs = _ensemble(WHITE, 10_000)
    stack = np.stack([i.field.values for i in incs])
    target = DT / GRID.spacing
    est = stack.var()
    se = target * np.sqrt(2 / stack.size)
    assert abs(est - target) < 5 * se


def test_white_noise_cells_uncorrelated():
    incs = _ensemble(WHITE, 2_000)
    cov = empirical_covariance(incs, [1, 3, 7])
    for lag, (est, se) in cov.items():
        assert abs(est) < 5 * se + 1e-12


def test_lag_zero_matches_per_cell_variance():
    incs = _ensemble(WHITE, 500)
    stack = np.stack([i.field.values for i in incs])
    cov = empirical_covariance(incs, [0])
    est, se = cov[0]
    assert est == pytest.approx(float(stack.var(ddof=1)), rel=0.02)


def test_bessel_lag_profile_matches_transform_oracle():
    m = SpectralMeasure.bessel(1.0, 1)
    incs = _ensemble(m, 10_000, seed=3)
    oracle = band_limited_covariance(GRID, m) * DT
    cov = empirical_covariance(incs, [0, 1, 2, 4, 8])
    for lag, (est, se) in cov.items():
        assert abs(est - oracle[lag]) < 5 * se, (lag, est, oracle[lag], se)


def test_variance_at_origin_matches_band_limited_density():
    # lag-0 oracle equals dt times the lattice sum of the density
    m = SpectralMeasure.bessel(2.0, 1)
    dens = m.density_on_lattice(GRID)
    expected = DT * dens.sum() * (2 * np.pi / GRID.box_length)
    assert band_limited_covariance(GRID, m)[0] * DT == pytest.approx(expected)


def test_time_whiteness():
    n = 10_000
    a = np.array([
        sample_increment(GRID, WHITE, DT, RngStream(0, r, 0)).field.values[7]
        for r in range(n)
    ])
    b = np.array([
        sample_increment(GRID, WHITE, DT, RngStream(0, r, 1)).field.values[7]
        for r in range(n)
    ])
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(n)


def test_gaussianity_excess_kurtosis():
    incs = _ensemble(WHITE, 10_000, seed=5, grid=Grid(1, 16, 2.0))
    stack = np.stack([i.field.values for i in incs])
    z = (stack - stack.mean(0)) / stack.std(0)
    kurt = (z**4).mean(axis=0) - 3.0
    assert np.abs(kurt).max() < 0.15


def test_reproducibility_bit_identical():
    s = RngStream(42, 3, 7)
    a = sample_increment(GRID, WHITE, DT, s)
    b = sample_increment(GRID, WHITE, DT, s)
    assert np.array_equal(a.field.values, b.field.values)


def test_distinct_streams_differ():
    base = RngStream(42, 0, 0)
    a = sample_increment(GRID, WHITE, DT, base)
    b = sample_increment(GRID, WHITE, DT, base.for_step(1))
    c = sample_increment(GRID, WHITE, DT, RngStream(42, 1, 0))
    assert not np.array_equal(a.field.values, b.field.values)
    assert not np.array_equal(a.field.values, c.field.values)


@pytest.mark.parametrize("grid,measure", [
    (GRID, SpectralMeasure.riesz(0.5, 1)),
    (Grid(1, 45, 8.0), SpectralMeasure.bessel(1.0, 1)),
    (Grid(2, 16, 4.0), SpectralMeasure.bessel(3.0, 2)),
    (Grid(2, 9, 4.0), SpectralMeasure.riesz(0.5, 2)),
    (Grid(3, 8, 4.0), SpectralMeasure.white(3)),
])
def test_increment_matches_complex_reference_formula(grid, measure):
    # the real synthesis equals the complex-FFT formula it replaced
    sqrt_m = np.sqrt(measure.density_on_lattice(grid))
    mode_norm = grid.n_per_dim ** (grid.d / 2)
    scale = np.sqrt(DT) * (2 * np.pi / grid.box_length) ** (grid.d / 2)
    for r in range(3):
        stream = RngStream(1, r, 4)
        white = stream.generator().standard_normal(grid.shape)
        ref = scale * np.real(
            np.fft.fftn(sqrt_m * np.fft.fftn(white) / mode_norm))
        inc = sample_increment(grid, measure, DT, stream)
        np.testing.assert_allclose(inc.field.values, np.fft.fftshift(ref),
                                   rtol=0, atol=1e-13)


def test_increment_mean_zero():
    incs = _ensemble(WHITE, 10_000, seed=9)
    stack = np.stack([i.field.values for i in incs])
    mean = stack.mean()
    se = stack.std() / np.sqrt(stack.size)
    assert abs(mean) < 4 * se


def test_2d_synthesis_variance():
    grid = Grid(2, 16, 4.0)
    incs = [sample_increment(grid, SpectralMeasure.white(2), DT,
                             RngStream(0, r, 0)) for r in range(2000)]
    stack = np.stack([i.field.values for i in incs])
    target = DT / grid.cell_volume
    assert abs(stack.var() - target) < 5 * target * np.sqrt(2 / stack.size)


def test_riesz_zero_mode_suppressed():
    # increments of a measure with singular origin have exactly zero mean mode
    inc = sample_increment(GRID, SpectralMeasure.riesz(0.5, 1), DT,
                           RngStream(0, 0, 0))
    assert inc.field.values.sum() == pytest.approx(0.0, abs=1e-12)


def test_tabulated_band_synthesizes_finite_increment():
    grid = Grid(1, 16, 4.0)
    m = SpectralMeasure.tabulated([0.0, 50.0], [1.0, 1.0], 1)
    inc = sample_increment(grid, m, DT, RngStream(0, 0, 0))
    assert np.all(np.isfinite(inc.field.values))


def test_mixed_ensemble_rejected():
    a = sample_increment(GRID, WHITE, DT, RngStream(0, 0, 0))
    b = sample_increment(Grid(1, 32, 8.0), WHITE, DT, RngStream(0, 1, 0))
    with pytest.raises(ConfigurationError):
        empirical_covariance([a] * 60 + [b] * 60, [0])


def test_small_ensemble_rejected():
    incs = _ensemble(WHITE, 40)
    with pytest.raises(ConfigurationError):
        empirical_covariance(incs, [0])


def test_nonpositive_dt_rejected():
    with pytest.raises(ConfigurationError):
        sample_increment(GRID, WHITE, 0.0, RngStream(0, 0, 0))
