import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from fracspde.errors import (
    AccuracyWarning,
    ConstraintViolationError,
    TruncationError,
)
from fracspde.fields import (Field, FractionalIndex, Grid, to_frequency,
                             to_physical)
from fracspde.stable_kernel import (
    _symbol_lattice,
    apply_generator,
    apply_semigroup,
    generator_symbol,
    kernel,
    leakage_estimate,
    semigroup_symbol,
    tail_coefficients,
    write_kernel_csv,
)

GAUSS = FractionalIndex([2.0], [0.0])

# frozen from 30-digit quadrature of the Fourier inversion integral,
# alpha=1.5, delta=0.3, t=1
SKEW_KERNEL_ORACLE = {
    -3.0: 0.026777309578538218,
    -1.0: 0.14305571497484378,
    0.0: 0.27328870674392265,
    0.5: 0.30740774951556115,
    1.0: 0.28282615239542318,
    3.0: 0.028823832404253647,
}


# -- symbols ----------------------------------------------------------------

def test_generator_symbol_gaussian():
    assert generator_symbol(GAUSS, 1.0) == pytest.approx(-1.0 + 0j)


def test_generator_symbol_skewed():
    z = generator_symbol(FractionalIndex([1.5], [0.5]), 1.0)
    assert z.real == pytest.approx(-0.7071067811865476)
    assert z.imag == pytest.approx(0.7071067811865476)


def test_generator_symbol_vanishes_at_origin():
    assert generator_symbol(FractionalIndex([2, 2], [0, 0]), (0.0, 0.0)) == 0


def test_generator_symbol_real_part_nonpositive():
    idx = FractionalIndex([1.7, 0.4], [-0.25, 0.3])
    rng = np.random.default_rng(0)
    for xi in rng.normal(0, 5, size=(50, 2)):
        assert generator_symbol(idx, xi).real <= 0


def test_semigroup_symbol_gaussian():
    assert semigroup_symbol(GAUSS, 1.0, 1.0) == pytest.approx(math.exp(-1))


def test_semigroup_symbol_identity_at_zero_time():
    idx = FractionalIndex([0.7], [-0.2])
    assert semigroup_symbol(idx, 3.7, 0.0) == 1.0


def test_semigroup_symbol_skewed_polar_parts():
    z = semigroup_symbol(FractionalIndex([1.5], [0.5]), 1.0, 1.0)
    assert abs(z) == pytest.approx(math.exp(-math.cos(math.pi / 4)))
    assert math.atan2(z.imag, z.real) == pytest.approx(math.sin(math.pi / 4))
    assert z == pytest.approx(0.3748528086203823 + 0.3203156354342155j)


def test_semigroup_symbol_modulus_bounded():
    idx = FractionalIndex([1.5, 0.5], [0.4, 0.3])
    for xi in [(0.1, -2.0), (5.0, 5.0), (0.0, 0.0)]:
        assert abs(semigroup_symbol(idx, xi, 2.0)) <= 1.0 + 1e-15


def test_semigroup_symbol_rejects_negative_time():
    with pytest.raises(ConstraintViolationError):
        semigroup_symbol(GAUSS, 1.0, -0.1)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1.0],
                         ids=["nan", "inf", "negative"])
def test_non_finite_or_negative_times_are_rejected(t):
    # NaN and inf returned NaN: an all-NaN field or kernel (at inf the zero
    # mode computed exp(inf * 0)), a symbol of nan+nanj, a leakage of nan;
    # at a negative time leakage_estimate raised ValueError at alpha = 2
    from fracspde.solver import smooth_initial

    grid = Grid(1, 64, 8.0)
    field = Field.from_function(grid, lambda x: np.cos(x))
    for call in (lambda: apply_semigroup(field, GAUSS, t),
                 lambda: smooth_initial(1.0, GAUSS, t, grid),
                 lambda: kernel(GAUSS, t, grid),
                 lambda: semigroup_symbol(GAUSS, 0.0, t),
                 lambda: leakage_estimate(GAUSS, t, grid)):
        with pytest.raises(ConstraintViolationError, match="finite"):
            call()


@pytest.mark.parametrize("xi", [math.nan, math.inf, -math.inf,
                                (1.0, math.nan)],
                         ids=["nan", "inf", "-inf", "nan-axis"])
def test_non_finite_frequencies_are_rejected(xi):
    # each returned nan+nanj, at t = 0 too, where the symbol is 1
    d = np.size(xi)
    idx = FractionalIndex([1.5] * d, [0.3] * d)
    for call in (lambda: generator_symbol(idx, xi),
                 lambda: semigroup_symbol(idx, xi, 1.0),
                 lambda: semigroup_symbol(idx, xi, 0.0)):
        with pytest.raises(ConstraintViolationError, match="finite"):
            call()


def test_symbol_envelope_bound():
    # |psi(t, xi)|^2 <= exp(-2 t kappa sum |xi_i|^alpha_i) on a lattice
    idx = FractionalIndex([1.5, 0.5], [0.4, 0.3])
    grid = Grid(2, 16, 8.0)
    ax = grid.frequency_axis()
    kappa = idx.min_damping
    for x1 in ax[::3]:
        for x2 in ax[::3]:
            w = abs(x1) ** 1.5 + abs(x2) ** 0.5
            mod2 = abs(semigroup_symbol(idx, (x1, x2), 0.7)) ** 2
            assert mod2 <= math.exp(-2 * 0.7 * kappa * w) + 1e-15


# -- kernel -----------------------------------------------------------------

def test_kernel_gaussian_closed_form():
    grid = Grid(1, 4096, 32.0)
    field = kernel(GAUSS, 1.0, grid)
    x = grid.axis_coordinates()
    exact = (4 * np.pi) ** -0.5 * np.exp(-(x**2) / 4)
    assert np.abs(field.values - exact).max() < 1e-12
    assert field.values[2048] == pytest.approx((4 * np.pi) ** -0.5)


def test_kernel_mass_is_one():
    for alpha, delta in [(1.5, 0.3), (0.7, -0.2), (1.8, 0.15)]:
        grid = Grid(1, 1024, 64.0)
        f, diag = kernel(FractionalIndex([alpha], [delta]), 1.0, grid,
                         return_diagnostics=True)
        assert abs(diag.mass - 1.0) < 1e-6


def test_kernel_matches_quadrature_oracle():
    idx = FractionalIndex([1.5], [0.3])
    grid = Grid(1, 32768, 1024.0)
    field = kernel(idx, 1.0, grid)
    dx = grid.spacing
    for xv, target in SKEW_KERNEL_ORACLE.items():
        j = int(round((xv + grid.box_length / 2) / dx))
        assert field.values[j] == pytest.approx(target, rel=1e-5)


def test_kernel_nonnegative():
    grid = Grid(1, 2048, 64.0)
    f = kernel(FractionalIndex([0.7], [0.2]), 1.0, grid)
    assert f.values.min() >= 0.0


def test_kernel_asymmetric_when_skewed():
    grid = Grid(1, 2048, 64.0)
    f = kernel(FractionalIndex([1.5], [0.3]), 1.0, grid)
    v = f.values
    assert np.abs(v[1:] - v[1:][::-1]).max() > 1e-3


def test_kernel_symmetric_when_unskewed():
    grid = Grid(1, 2048, 64.0)
    f = kernel(FractionalIndex([1.5], [0.0]), 1.0, grid)
    v = f.values
    assert np.abs(v[1:] - v[1:][::-1]).max() < 1e-12


def test_kernel_scaling_identity():
    # time-t kernel equals the rescaled time-1 kernel, including wrap-around
    for alpha, delta, t in [(1.5, 0.3, 0.35), (0.7, -0.25, 2.0)]:
        idx = FractionalIndex([alpha], [delta])
        grid = Grid(1, 2048, 64.0)
        k_t = kernel(idx, t, grid).values
        s = t ** (-1 / alpha)
        k_1 = kernel(idx, 1.0, Grid(1, 2048, 64.0 * s)).values
        rel = np.abs(k_t - s * k_1).max() / k_t.max()
        assert rel < 1e-6


def test_kernel_chapman_kolmogorov():
    idx = FractionalIndex([1.5], [0.3])
    grid = Grid(1, 2048, 64.0)
    k_s = kernel(idx, 0.6, grid)
    k_t = kernel(idx, 0.7, grid)
    conv_hat = to_frequency(k_s).values * to_frequency(k_t).values
    from fracspde.fields import to_physical
    conv = to_physical(Field(grid, conv_hat, "frequency")).values.real
    k_sum = kernel(idx, 1.3, grid).values
    assert np.abs(conv - k_sum).max() < 1e-8


# Every draw of this box is resolved by its grid: over 1,500 random draws the
# worst mass error was 2e-16 and the worst Chapman-Kolmogorov gap 1.2e-12
# (2-d).  Alpha below 1, skews near the edge or times below 0.5 can need a
# finer grid, and kernel() then raises TruncationError.
_RESOLVED_GRIDS = {1: Grid(1, 1024, 32.0), 2: Grid(2, 128, 16.0)}


@settings(max_examples=25, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    alpha=st.lists(st.floats(1.1, 1.9), min_size=2, max_size=2),
    skew=st.lists(st.floats(-0.8, 0.8), min_size=2, max_size=2),
    s=st.floats(0.5, 1.5),
    t=st.floats(0.5, 1.5),
)
def test_kernel_mass_and_chapman_kolmogorov_property(d, alpha, skew, s, t):
    delta = [f * min(a, 2 - a) for a, f in zip(alpha, skew)]
    idx = FractionalIndex(alpha[:d], delta[:d])
    grid = _RESOLVED_GRIDS[d]
    k_s, diag = kernel(idx, s, grid, return_diagnostics=True)
    assert abs(diag.mass - 1.0) < 1e-6
    k_t = kernel(idx, t, grid)
    conv_hat = to_frequency(k_s).values * to_frequency(k_t).values
    conv = to_physical(Field(grid, conv_hat, "frequency")).values.real
    assert np.abs(conv - kernel(idx, s + t, grid).values).max() < 1e-8


def test_kernel_tail_bound_fit():
    # fitted c on the inner window must bound the outer window
    idx = FractionalIndex([1.5], [0.3])
    grid = Grid(1, 4096, 128.0)
    v = kernel(idx, 1.0, grid).values
    x = grid.axis_coordinates()
    alpha = 1.5
    inner = (np.abs(x) >= 1) & (np.abs(x) <= grid.box_length / 8)
    outer = (np.abs(x) >= 1) & (np.abs(x) <= grid.box_length / 4)
    c = (v[inner] * (1 + np.abs(x[inner]) ** (1 + alpha))).max()
    assert c > 0
    assert np.all(v[outer] <= 1.05 * c / (1 + np.abs(x[outer]) ** (1 + alpha)))


def test_kernel_2d_product_structure():
    idx = FractionalIndex([1.5, 0.7], [0.3, -0.2])
    grid2 = Grid(2, 256, 64.0)
    grid1 = Grid(1, 256, 64.0)
    k2 = kernel(idx, 1.0, grid2).values
    ka = kernel(FractionalIndex([1.5], [0.3]), 1.0, grid1).values
    kb = kernel(FractionalIndex([0.7], [-0.2]), 1.0, grid1).values
    assert np.abs(k2 - np.outer(ka, kb)).max() < 1e-10


def test_kernel_rejects_nonpositive_time():
    with pytest.raises(ConstraintViolationError):
        kernel(GAUSS, 0.0, Grid(1, 64, 8.0))


def test_kernel_truncation_error_on_unresolvable_band():
    # tiny time on a coarse grid: the symbol cannot decay within the band
    # and the truncation ripple goes negative beyond tolerance
    with pytest.raises(TruncationError):
        kernel(FractionalIndex([1.5], [0.0]), 1e-3, Grid(1, 64, 256.0))


def test_leakage_estimate_tracks_tail_mass():
    idx = FractionalIndex([1.2], [0.0])
    grid = Grid(1, 4096, 64.0)
    est = leakage_estimate(idx, 1.0, grid)
    # reference: quadrature of the oracle density outside the box
    cm, cp = tail_coefficients(1.2, 0.0)
    ref = (cm + cp) / 1.2 * (grid.box_length / 2) ** -1.2
    assert est == pytest.approx(ref)
    assert 0 < est < 0.05


def test_kernel_diagnostics_fields(tmp_path):
    f, diag = kernel(GAUSS, 1.0, Grid(1, 512, 32.0), return_diagnostics=True)
    assert diag.leakage_ok
    assert diag.clipped_mass >= 0.0
    assert diag.symbol_edge_modulus < 1e-10
    write_kernel_csv(tmp_path / "k.csv", f, GAUSS, 1.0, diag)
    lines = (tmp_path / "k.csv").read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "x0,value"
    assert len(lines) == 2 + 512


# -- semigroup / generator --------------------------------------------------

def test_apply_semigroup_time_zero_is_identity():
    grid = Grid(1, 64, 8.0)
    f = Field.from_function(grid, lambda x: np.sin(x))
    assert apply_semigroup(f, GAUSS, 0.0) is f


@pytest.mark.parametrize("t", [0.0, 0.1])
def test_apply_semigroup_checks_dimensions_at_every_time(t):
    # the t = 0 shortcut once returned the field whatever the index
    field = Field.constant(Grid(2, 8, 4.0), 1.0)
    with pytest.raises(ConstraintViolationError, match="dimension"):
        apply_semigroup(field, FractionalIndex([1.5]), t)


def test_apply_semigroup_composition():
    idx = FractionalIndex([1.5], [0.4])
    grid = Grid(1, 256, 16.0)
    f = Field.from_function(grid, lambda x: np.cos(x) + 0.2 * np.sin(3 * x))
    two = apply_semigroup(apply_semigroup(f, idx, 0.3), idx, 0.7)
    one = apply_semigroup(f, idx, 1.0)
    scale = np.abs(one.values).max()
    assert np.abs(two.values - one.values).max() / scale < 1e-10


def test_apply_semigroup_spike_gives_kernel():
    idx = FractionalIndex([1.5], [0.3])
    grid = Grid(1, 512, 64.0)
    out = apply_semigroup(Field.spike(grid), idx, 1.0)
    k = kernel(idx, 1.0, grid)
    assert np.abs(out.values - k.values).max() < 1e-10


def test_apply_semigroup_rejects_complex_field():
    grid = Grid(1, 64, 8.0)
    f = Field(grid, np.exp(1j * grid.axis_coordinates()))
    with pytest.raises(ConstraintViolationError):
        apply_semigroup(f, GAUSS, 0.5)


@pytest.mark.parametrize("idx,grid,t", [
    (FractionalIndex([1.5], [0.3]), Grid(1, 256, 64.0), 1.0),
    (FractionalIndex([0.8], [-0.5]), Grid(1, 255, 64.0), 1.0),
    (FractionalIndex([1.5, 1.8], [0.3, -0.1]), Grid(2, 64, 32.0), 0.6),
    (FractionalIndex([1.2, 1.7], [-0.6, 0.2]), Grid(2, 31, 16.0), 1.5),
])
def test_kernel_matches_complex_formula(idx, grid, t):
    # the half-spectrum kernel against real(to_physical(psi)), written out
    psi = _symbol_lattice(idx, grid, t)
    ref = np.real(to_physical(Field(grid, psi, "frequency")).values)
    vals = kernel(idx, t, grid).values
    err = np.abs(vals - np.maximum(ref, 0.0)).max()
    assert err <= 1e-15 * np.abs(ref).max()


def test_apply_semigroup_heat_eigenfunction():
    grid = Grid(1, 256, 2 * np.pi * 4)
    f = Field.from_function(grid, lambda x: np.cos(x))
    out = apply_semigroup(f, GAUSS, 0.5)
    assert np.abs(out.values - np.exp(-0.5) * f.values).max() < 1e-12


def test_apply_generator_laplacian_eigenfunction():
    grid = Grid(1, 256, 2 * np.pi * 4)
    xi0 = 2.0
    f = Field.from_function(grid, lambda x: np.cos(xi0 * x))
    out = apply_generator(f, GAUSS)
    assert np.abs(out.values + xi0**2 * f.values).max() < 1e-10


def test_apply_generator_fractional_multiplier():
    # cos(x) is an eigenfunction with eigenvalue -|1|^alpha = -1 when delta=0
    grid = Grid(1, 256, 2 * np.pi * 4)
    f = Field.from_function(grid, lambda x: np.cos(x))
    out = apply_generator(f, FractionalIndex([1.5], [0.0]))
    assert np.abs(out.values + f.values).max() < 1e-10


def test_apply_generator_matches_spectral_laplacian():
    grid = Grid(1, 128, 16.0)
    f = Field.from_function(grid, lambda x: np.exp(-x**2))
    out = apply_generator(f, GAUSS)
    from fracspde.fields import to_frequency, to_physical
    hat = to_frequency(f)
    ref = to_physical(Field(grid, -(grid.frequency_axis() ** 2) * hat.values,
                            "frequency")).values.real
    assert np.abs(out.values - ref).max() == 0.0


def test_apply_generator_warns_on_rough_field():
    grid = Grid(1, 64, 8.0)
    rng = np.random.default_rng(1)
    f = Field(grid, rng.normal(size=64))
    with pytest.warns(AccuracyWarning):
        apply_generator(f, GAUSS)


# -- singular-integral representation ----------------------------------------
#
# For smooth f the generator equals a jump-type integral with one-sided
# weights kappa_-, kappa_+.  No closed form for the weights is asserted;
# they are calibrated numerically by matching the Fourier multiplier at one
# frequency, and homogeneity of the multiplier validates the match
# everywhere else.


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


def _oracle_constant_integrals(alpha):
    # classical identity: int_0^inf (1 - cos u)/u^(1+a) du
    return -math.gamma(2 - alpha) * math.cos(math.pi * alpha / 2) / (
        alpha * (alpha - 1)
    )


@pytest.mark.parametrize("alpha,delta", [(1.5, 0.3), (1.5, 0.0), (0.6, -0.2)])
def test_integral_representation_matches_multiplier(alpha, delta):
    idx = FractionalIndex([alpha], [delta])
    km, kp = calibrate_integral_weights(idx)
    assert km >= -1e-12 and kp >= -1e-12 and km + kp > 0
    for xi in [1.0, 2.0, -1.7]:
        got = singular_integral_symbol(alpha, xi, km, kp)
        want = generator_symbol(idx, xi)
        assert abs(got - want) < 2e-3 * abs(want)


def test_integral_representation_homogeneity():
    # brute-force quadrature at xi=1 and xi=2 must scale by 2^alpha
    alpha = 1.5
    km, kp = calibrate_integral_weights(FractionalIndex([alpha], [0.3]))
    m1 = singular_integral_symbol(alpha, 1.0, km, kp)
    m2 = singular_integral_symbol(alpha, 2.0, km, kp)
    assert abs(m2 / m1 - 2**alpha) < 1e-4


def test_one_sided_constant_against_closed_form():
    for alpha in [1.5, 0.6]:
        a_c, _ = _one_sided_constants(alpha)
        assert a_c == pytest.approx(-_oracle_constant_integrals(alpha),
                                    rel=1e-9)


def test_symmetric_weights_for_zero_skew():
    km, kp = calibrate_integral_weights(FractionalIndex([1.5], [0.0]))
    assert km == pytest.approx(kp, rel=1e-12)
