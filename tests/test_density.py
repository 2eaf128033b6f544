import math

import numpy as np
import pytest

from fracspde.density import (
    cumulative_variance,
    kde,
    sample_law,
    silverman_bandwidth,
    variance_bound_check,
)
from fracspde.errors import (
    AccuracyWarning,
    ConfigurationError,
    DegenerateLawWarning,
    EllipticityError,
)
from fracspde.fields import FractionalIndex, Grid
from fracspde.solver import Coefficient, SolverConfig
from fracspde.spectral_measure import SpectralMeasure

GAUSS = FractionalIndex([2.0], [0.0])
WHITE = SpectralMeasure.white(1)


def _config(**kw):
    base = dict(
        idx=GAUSS, measure=WHITE, grid=Grid(1, 256, 16.0),
        b=Coefficient.constant(0.0), sigma=Coefficient.constant(1.0),
        u0=0.0, dt=2e-3, T=0.1, master_seed=17, frame_stride=10**9,
    )
    base.update(kw)
    return SolverConfig(**base)


# -- sampling -----------------------------------------------------------------

def test_sample_law_deterministic_scalar():
    cfg = _config()
    a = sample_law(cfg, 0.1, 128, 1)
    b = sample_law(cfg, 0.1, 128, 1)
    assert a.shape == (1,) and a[0] == b[0]


def test_sample_law_mean_and_variance():
    cfg = _config()
    vals = sample_law(cfg, 0.1, 128, 400)
    target_var = math.sqrt(0.1 / (2 * math.pi))
    se_mean = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se_mean
    se_var = vals.var(ddof=1) * math.sqrt(2 / (len(vals) - 1))
    assert abs(vals.var(ddof=1) - target_var) < 5 * se_var \
        + math.sqrt(cfg.dt / 0.1) * target_var


def test_sample_law_requires_elliptic_sigma():
    cfg = _config(sigma=Coefficient.linear(1.0))  # vanishes at 0
    with pytest.raises(EllipticityError):
        sample_law(cfg, 0.1, 128, 10)


def test_sample_law_time_must_hit_lattice():
    cfg = _config()
    with pytest.raises(ConfigurationError):
        sample_law(cfg, 0.0501, 128, 10)


def test_sample_law_time_must_be_stored(monkeypatch):
    # t = 0.1 is on the dt lattice but the stride stores only t = 0 and T;
    # the time is rejected before any replicate is solved
    import fracspde.density
    calls, solve = [], fracspde.density.solve
    monkeypatch.setattr(fracspde.density, "solve",
                        lambda *args: calls.append(args) or solve(*args))
    cfg = _config(u0=5.0, dt=0.01, T=0.25)
    with pytest.raises(ConfigurationError):
        sample_law(cfg, 0.1, 128, 3)
    assert calls == []


# -- kde ------------------------------------------------------------------------

def test_kde_gaussian_oracle_pointwise():
    rng = np.random.default_rng(4)
    sigma = 0.7
    samples = rng.normal(0.0, sigma, 2000)
    est = kde(samples)
    h = est.bandwidth
    grid = np.asarray(est.grid_1d)
    vals = np.asarray(est.values)
    # the estimator's mean is the bandwidth-convolved density
    smooth_sd = math.sqrt(sigma**2 + h**2)
    oracle = np.exp(-grid**2 / (2 * smooth_sd**2)) / (
        smooth_sd * math.sqrt(2 * math.pi)
    )
    # pointwise 3 standard errors of a gaussian-kernel KDE
    se = np.sqrt(np.maximum(oracle, 1e-12) / (2 * math.sqrt(math.pi)
                                              * len(samples) * h))
    central = np.abs(grid) < 2 * sigma
    assert np.all(np.abs(vals - oracle)[central] < 3 * se[central] + 1e-3)


def test_kde_normalized():
    rng = np.random.default_rng(5)
    est = kde(rng.normal(size=1000))
    integral = np.trapezoid(est.values, est.grid_1d)
    assert abs(integral - 1.0) < 1e-3
    assert min(est.values) >= 0.0


def test_kde_degenerate_point_mass():
    with pytest.warns(DegenerateLawWarning):
        est = kde(np.full(600, 2.5))
    assert est.degenerate
    assert est.bandwidth == 0.0


def test_kde_requires_samples():
    with pytest.raises(ConfigurationError):
        kde(np.zeros(10))


def test_kde_derivative_bounds_bandwidth_stable():
    rng = np.random.default_rng(6)
    samples = rng.normal(0.0, 0.5, 3000)
    h = silverman_bandwidth(samples)
    base = kde(samples, h)
    lo = kde(samples, 0.8 * h)
    hi = kde(samples, 1.2 * h)
    for est in (lo, hi):
        for a, b in zip(est.derivative_bounds, base.derivative_bounds):
            assert math.isfinite(a)
            assert abs(a - b) / b < 0.5


def test_kolmogorov_smirnov_against_gaussian_oracle():
    from scipy.stats import kstest
    cfg = _config(dt=2e-3, T=0.25, grid=Grid(1, 512, 16.0))
    vals = sample_law(cfg, 0.25, 256, 800)
    sd = (0.25 / (2 * math.pi)) ** 0.25
    stat = kstest(vals, "norm", args=(0.0, sd))
    assert stat.pvalue > 0.01


# -- variance bounds --------------------------------------------------------------

def test_cumulative_variance_white_closed_form():
    for rho in [0.01, 0.1, 0.5, 1.0]:
        got = cumulative_variance(GAUSS, WHITE, rho)
        assert got == pytest.approx(math.sqrt(rho / (2 * math.pi)), rel=1e-9)


def test_variance_bounds_white_tight_exponent():
    rho_grid = np.geomspace(1e-3, 1.0, 24)
    rep = variance_bound_check(GAUSS, WHITE, 1.0, (1.0, 0.5), rho_grid,
                               eta_star=0.5)
    assert rep.c1 > 0 and math.isfinite(rep.c2)
    # I(rho) = sqrt(rho / 2 pi): the upper ratio is exactly constant
    assert rep.c2 == pytest.approx((2 * math.pi) ** -0.5, rel=1e-6)
    assert not rep.theta2_degenerate
    # theta1 = 1: worst lower constant sits at the largest rho
    assert rep.c1 == pytest.approx(math.sqrt(1.0 / (2 * math.pi)), rel=1e-6)


def test_variance_bounds_degenerate_above_valid_range():
    rho_grid = np.geomspace(1e-3, 1.0, 24)
    with pytest.warns(AccuracyWarning):
        rep = variance_bound_check(GAUSS, WHITE, 1.0, (1.0, 0.8), rho_grid,
                                   eta_star=0.5)
    assert rep.theta2_degenerate


def test_variance_bounds_stable_under_refinement():
    rho_grid = np.geomspace(1e-3, 1.0, 24)
    a = variance_bound_check(GAUSS, WHITE, 1.0, (1.0, 0.5), rho_grid)
    fine = variance_bound_check(GAUSS, WHITE, 1.0, (1.0, 0.5),
                                np.geomspace(1e-3, 1.0, 48))
    assert abs(a.c1 - fine.c1) / fine.c1 < 0.10
    assert abs(a.c2 - fine.c2) / fine.c2 < 0.10


def test_variance_bounds_fractional_riesz():
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    eta_star = 0.5 / 1.5
    rho_grid = np.geomspace(1e-3, 1.0, 16)
    rep = variance_bound_check(idx, m, 1.0, (1.0, 1 - eta_star), rho_grid,
                               eta_star=eta_star)
    assert rep.c1 > 0 and math.isfinite(rep.c2)
    assert not rep.theta2_degenerate


def test_variance_bounds_domain_checks():
    from fracspde.errors import ConstraintViolationError
    with pytest.raises(ConstraintViolationError):
        variance_bound_check(GAUSS, WHITE, 1.0, (0.5, 0.5), [0.1])
    with pytest.raises(ConstraintViolationError):
        variance_bound_check(GAUSS, WHITE, 0.5, (1.0, 0.5), [0.9])
