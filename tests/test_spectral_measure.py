import math

import numpy as np
import pytest
from scipy.integrate import quad

from fracspde.errors import (
    ConstraintViolationError,
    DivergenceError,
    InconclusiveError,
)
from fracspde.fields import FractionalIndex, Grid
from fracspde.spectral_measure import (
    AdmissibilityReport,
    SpectralMeasure,
    admissibility,
    closed_form_critical_eta,
    critical_eta,
    cumulative_bound_check,
    frequency_weight,
    spectral_integral,
    variance_rate,
    weighted_spectral_integral,
)

GAUSS1 = FractionalIndex([2.0], [0.0])
GAUSS2 = FractionalIndex([2.0, 2.0], [0.0, 0.0])

# frozen: 30-digit closed form 2*mu_c*Gamma(gamma/alpha)/(alpha*(2cos(delta*pi/2))^(gamma/alpha))
RIESZ_RATE_ORACLE = 1.1753699734553476


# -- frequency weight ---------------------------------------------------------

def test_frequency_weight_examples():
    assert frequency_weight((1.0, 2.0), FractionalIndex([2.0, 0.5], [0, 0])) \
        == pytest.approx(1 + math.sqrt(2))
    assert frequency_weight((0.0, 0.0), GAUSS2) == 0.0
    assert frequency_weight(-3.0, FractionalIndex([1.5], [0])) \
        == pytest.approx(3.0**1.5)


def test_frequency_weight_zero_only_at_origin():
    idx = FractionalIndex([1.5, 0.5], [0, 0])
    rng = np.random.default_rng(2)
    for xi in rng.normal(0, 2, size=(30, 2)):
        if np.any(xi != 0):
            assert frequency_weight(xi, idx) > 0


# -- measure catalog ----------------------------------------------------------

def test_measure_invariants():
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.riesz(2.5, 2)  # gamma >= d
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.bessel(0.0, 1)
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.free_field(-1.0, 2)
    with pytest.raises(ConstraintViolationError):
        SpectralMeasure.tabulated([0.0, 1.0], [1.0, -0.5], 1)


def test_riesz_constant_is_exact_fourier_pair():
    # d=1, gamma=1/2: the transform of |x|^(-1/2) is sqrt(2 pi)|xi|^(-1/2)
    m = SpectralMeasure.riesz(0.5, 1)
    assert m.riesz_constant * 2 * np.pi == pytest.approx(np.sqrt(2 * np.pi))


def test_white_density_matches_parseval_normalization():
    m = SpectralMeasure.white(2)
    assert m.radial_density(3.0) == pytest.approx((2 * np.pi) ** -2)


def test_lattice_density_zero_mode_policy():
    grid = Grid(1, 16, 8.0)
    vals = SpectralMeasure.riesz(0.5, 1).density_on_lattice(grid)
    assert vals[0] == 0.0
    assert np.all(np.isfinite(vals))
    vals = SpectralMeasure.bessel(1.0, 1).density_on_lattice(grid)
    assert vals[0] == pytest.approx((2 * np.pi) ** -1)


# -- admissibility: closed forms ---------------------------------------------

def test_riesz_d2_admissible():
    rep = admissibility(SpectralMeasure.riesz(1.0, 2), GAUSS2, 0.75)
    assert rep.admissible and rep.method == "closed_form"
    assert math.isfinite(rep.integral_value)


def test_free_field_d4_never_admissible():
    idx = FractionalIndex([2.0] * 4, [0.0] * 4)
    m = SpectralMeasure.free_field(1.0, 4)
    for eta in [0.3, 0.7, 0.99, 1.0]:
        rep = admissibility(m, idx, eta)
        assert not rep.admissible
        assert rep.integral_value == math.inf


def test_free_field_low_dimensions():
    m3 = SpectralMeasure.free_field(1.0, 3)
    idx3 = FractionalIndex([2.0] * 3, [0.0] * 3)
    assert not admissibility(m3, idx3, 0.4).admissible
    assert admissibility(m3, idx3, 0.6).admissible
    m1 = SpectralMeasure.free_field(2.0, 1)
    assert admissibility(m1, GAUSS1, 0.1).admissible


def test_bessel_threshold():
    rep = admissibility(SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.6)
    assert rep.admissible  # eta > (d - beta)/2 = 0.5
    assert not admissibility(SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.4).admissible


def test_white_noise_fractional_threshold():
    idx = FractionalIndex([1.5], [0.0])
    m = SpectralMeasure.white(1)
    assert not admissibility(m, idx, 0.6).admissible  # 1/alpha = 2/3
    assert admissibility(m, idx, 0.75).admissible


def test_white_noise_d2_never_admissible_at_alpha2():
    m = SpectralMeasure.white(2)
    assert not admissibility(m, GAUSS2, 1.0).admissible


def test_eta_domain_checked():
    with pytest.raises(ConstraintViolationError):
        admissibility(SpectralMeasure.white(1), GAUSS1, 0.0)
    with pytest.raises(ConstraintViolationError):
        admissibility(SpectralMeasure.white(1), GAUSS1, 1.2)


# -- admissibility: quadrature path -------------------------------------------

@pytest.mark.parametrize("measure,idx,eta,expect", [
    (SpectralMeasure.riesz(1.0, 2), GAUSS2, 0.75, True),
    (SpectralMeasure.riesz(1.0, 2), GAUSS2, 0.3, False),
    (SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.7, True),
    (SpectralMeasure.bessel(1.0, 2), GAUSS2, 0.3, False),
    (SpectralMeasure.free_field(1.0, 3), FractionalIndex([2] * 3, [0] * 3), 0.8, True),
    (SpectralMeasure.white(1), FractionalIndex([1.5], [0.0]), 0.9, True),
    (SpectralMeasure.white(1), FractionalIndex([1.5], [0.0]), 0.4, False),
    (SpectralMeasure.riesz(0.5, 1), FractionalIndex([1.5], [0.3]), 0.6, True),
    (SpectralMeasure.riesz(0.5, 1), FractionalIndex([1.5], [0.3]), 0.15, False),
])
def test_quadrature_verdicts(measure, idx, eta, expect):
    rep = admissibility(measure, idx, eta, method="quadrature")
    assert rep.conclusive
    assert rep.admissible == expect


def test_quadrature_agrees_with_closed_form_off_critical():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(20):
        d = int(rng.integers(1, 3))
        idx = FractionalIndex([2.0] * d, [0.0] * d)
        kind = rng.choice(["riesz", "bessel", "white", "free_field"])
        if kind == "riesz":
            m = SpectralMeasure.riesz(rng.uniform(0.2, d - 0.05), d)
        elif kind == "bessel":
            m = SpectralMeasure.bessel(rng.uniform(0.3, d + 1.0), d)
        elif kind == "free_field":
            m = SpectralMeasure.free_field(rng.uniform(0.5, 2.0), d)
        else:
            m = SpectralMeasure.white(d)
        eta = float(rng.uniform(0.05, 1.0))
        crit = closed_form_critical_eta(m, idx)
        if abs(eta - crit) <= 0.02 * max(crit, 1.0):
            continue  # inside the allowed inconclusive band
        rep = admissibility(m, idx, eta, method="quadrature")
        if not rep.conclusive:
            continue
        assert rep.admissible == (eta > crit), (kind, d, eta, crit)
        checked += 1
    assert checked >= 12


def test_quadrature_value_matches_direct_1d():
    # int (2 pi)^-1 (1+xi^2)^-0.8 dxi over R, bessel beta=1.6 at eta=0
    # handled as admissibility integrand with eta=0.8 against white-ish form:
    m = SpectralMeasure.bessel(1.0, 1)
    rep = admissibility(m, GAUSS1, 0.75, method="quadrature")
    oracle = 2 * quad(
        lambda r: (2 * np.pi) ** -1 * (1 + r**2) ** -0.5 * (1 + r**2) ** -0.75,
        0, np.inf,
    )[0]
    assert rep.integral_value == pytest.approx(oracle, rel=1e-8)


def test_riesz_dyadic_self_similarity():
    # shell contributions of the riesz admissibility integrand scale by
    # 2^((gamma - 2 eta)/2) per shell in the tail
    from fracspde.spectral_measure import _dyadic_contributions, _admissibility_integrand
    gamma, eta = 1.0, 0.8
    m = SpectralMeasure.riesz(gamma, 2)
    ks, c, _ = _dyadic_contributions(m, GAUSS2,
                                     [_admissibility_integrand(GAUSS2, eta)])
    tail = c[0][-6:]
    ratios = tail[1:] / tail[:-1]
    assert np.allclose(ratios, 2 ** ((gamma - 2 * eta) / 2), rtol=0.02)


def test_tabulated_band_too_short_is_inconclusive():
    radii = np.linspace(0, 4.0, 16)
    m = SpectralMeasure.tabulated(radii, np.ones_like(radii), 1)
    with pytest.raises(InconclusiveError):
        admissibility(m, GAUSS1, 0.9, method="quadrature")


def test_critical_eta_quadrature_bisection():
    # riesz with fractional alpha: tail exponent gives eta* = gamma/alpha
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    assert critical_eta(m, idx) == pytest.approx(0.5 / 1.5, abs=0.02)


# -- variance rate ------------------------------------------------------------

def test_variance_rate_white_closed_form():
    m = SpectralMeasure.white(1)
    for t in [0.05, 0.4, 1.0, 3.0]:
        assert variance_rate(GAUSS1, m, t) == pytest.approx(
            (8 * np.pi * t) ** -0.5, rel=1e-10
        )


def test_anisotropic_quadrature_matches_separable_closed_form():
    # squared-semigroup integrand against a flat density factorizes into
    # per-axis Gamma integrals; exercises the d=2 directional machinery
    idx = FractionalIndex([1.5, 0.5], [0.4, 0.3])
    m = SpectralMeasure.white(2)
    t = 0.7
    exact = 1.0
    for a, dl in zip(idx.alpha, idx.delta):
        c = math.cos(dl * math.pi / 2)
        exact *= math.gamma(1 + 1 / a) / math.pi * (2 * t * c) ** (-1 / a)
    w = 2 * t * np.cos(np.asarray(idx.delta) * np.pi / 2)
    got = spectral_integral(m, idx, lambda s: np.exp(-s), axis_weights=w)
    assert got == pytest.approx(exact, rel=1e-9)


def test_variance_rate_riesz_fractional_oracle():
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    got = variance_rate(idx, m, 1.0)
    assert got == pytest.approx(RIESZ_RATE_ORACLE, rel=1e-8)
    # independent two-stage adaptive quadrature
    mu_c = m.riesz_constant
    ct = math.cos(0.3 * math.pi / 2)
    f = lambda r: r**-0.5 * math.exp(-2 * ct * r**1.5)
    oracle = 2 * mu_c * (quad(f, 0, 1)[0] + quad(f, 1, np.inf)[0])
    assert got == pytest.approx(oracle, rel=1e-5)


def test_variance_rate_decreasing_in_time():
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.bessel(1.0, 1)
    ts = np.geomspace(0.01, 5.0, 12)
    vals = [variance_rate(idx, m, t) for t in ts]
    assert np.all(np.diff(vals) < 0)
    assert np.all(np.asarray(vals) > 0)


def test_variance_rate_rejects_inadmissible():
    m = SpectralMeasure.white(2)
    with pytest.raises(DivergenceError):
        variance_rate(GAUSS2, m, 1.0)


# -- cumulative bounds ---------------------------------------------------------

@pytest.mark.parametrize("idx,measure,T", [
    (GAUSS1, SpectralMeasure.white(1), 1.0),
    (FractionalIndex([1.5], [0.5]), SpectralMeasure.riesz(0.5, 1), 1.0),
    (FractionalIndex([1.5, 0.5], [0.4, 0.3]), SpectralMeasure.bessel(2.0, 2), 0.5),
    (FractionalIndex([2, 2, 2], [0, 0, 0]), SpectralMeasure.free_field(1.0, 3), 1.0),
    (FractionalIndex([0.7], [-0.2]), SpectralMeasure.bessel(0.8, 1), 0.25),
])
def test_cumulative_bounds_sandwich(idx, measure, T):
    rep = cumulative_bound_check(idx, measure, T)
    assert rep.lower <= rep.integral * (1 + 1e-6)
    assert rep.integral <= rep.upper * (1 + 1e-6)
    assert rep.lower > 0


def test_cumulative_bounds_factor_two_at_zero_skew():
    # kappa = 1 when delta = 0, so the two bounds share nodes and differ
    # exactly by the factor 2
    rep = cumulative_bound_check(GAUSS1, SpectralMeasure.white(1), 1.0)
    assert rep.upper == pytest.approx(2 * rep.lower, rel=1e-12)


def test_cumulative_bounds_match_time_quadrature():
    # int_0^T of the variance rate, computed the slow way
    idx = FractionalIndex([1.5], [0.3])
    m = SpectralMeasure.riesz(0.5, 1)
    rep = cumulative_bound_check(idx, m, 0.5)
    slow = quad(lambda s: variance_rate(idx, m, s), 0, 0.5, points=[0.01],
                limit=200)[0]
    assert rep.integral == pytest.approx(slow, rel=1e-6)


# -- weighted integral ----------------------------------------------------------

def test_weighted_integral_finite_below_critical():
    rep = weighted_spectral_integral(GAUSS1, SpectralMeasure.white(1), 0.4, 1.0)
    assert rep.finite and math.isfinite(rep.value)


def test_weighted_integral_divergent_above_critical():
    rep = weighted_spectral_integral(GAUSS1, SpectralMeasure.white(1), 0.6, 1.0)
    assert not rep.finite
    assert rep.value == math.inf


def test_weighted_integral_reduces_to_cumulative_at_zero_weight():
    idx = FractionalIndex([1.5], [0.0])  # zero skew: kappa = 1
    m = SpectralMeasure.bessel(1.0, 1)
    rep = weighted_spectral_integral(idx, m, 0.0, 0.8)
    bounds = cumulative_bound_check(idx, m, 0.8)
    assert rep.value == pytest.approx(bounds.integral, rel=1e-8)


def test_report_shapes():
    rep = admissibility(SpectralMeasure.white(1), GAUSS1, 0.8)
    assert isinstance(rep, AdmissibilityReport)
    d = rep.to_dict()
    assert set(d) >= {"eta", "integral_value", "admissible", "method"}
