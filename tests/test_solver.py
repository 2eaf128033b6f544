import multiprocessing
import os
import pickle
from dataclasses import replace
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspde.errors import (
    AccuracyWarning,
    BlowUpError,
    ConfigurationError,
    ConstraintViolationError,
    PicardConvergenceError,
)
from fracspde.fields import (Field, FractionalIndex, Grid, to_frequency,
                             to_physical)
from fracspde.noise import RngStream, sample_increments
from fracspde.solver import (
    BOOT_RESAMPLES,
    BOOT_SEED,
    _PRESETS,
    Coefficient,
    PathSolution,
    SolverConfig,
    _blow_ups,
    _bootstrap_interval,
    _chunks,
    _ensemble,
    _picard_rows,
    _stored_values,
    _sweep_values,
    moment_estimate,
    smooth_initial,
    solve,
    solve_picard,
)
from fracspde.spectral_measure import SpectralMeasure
from fracspde.stable_kernel import _symbol_lattice, apply_semigroup

GAUSS = FractionalIndex([2.0], [0.0])
WHITE = SpectralMeasure.white(1)
GRID = Grid(1, 256, 16.0)


def _config(**kw):
    base = dict(
        idx=GAUSS, measure=WHITE, grid=GRID,
        b=Coefficient.constant(0.0), sigma=Coefficient.constant(0.0),
        u0=lambda x: np.cos(x), dt=0.01, T=0.2, master_seed=1,
    )
    base.update(kw)
    return SolverConfig(**base)


# -- coefficients -------------------------------------------------------------

def test_coefficient_presets():
    assert Coefficient.constant(2.0)(np.zeros(3)).tolist() == [2, 2, 2]
    assert Coefficient.linear(-3.0)(2.0) == -6.0
    assert Coefficient.affine(2.0, 1.0)(3.0) == 7.0
    assert Coefficient.sine(2.0, 3.0).lipschitz == 6.0
    assert Coefficient.constant(0.0).is_zero
    assert not Coefficient.linear(1.0).is_zero


def test_coefficient_requires_finite_lipschitz():
    with pytest.raises(ConstraintViolationError):
        Coefficient(lambda u: u**2, float("inf"))


@pytest.mark.parametrize("make, params", [
    (Coefficient.constant, (2.0,)), (Coefficient.constant, (0.0,)),
    (Coefficient.linear, (-3.0,)), (Coefficient.affine, (2.0, 1.0)),
    (Coefficient.sine, (2.0, 3.0)),
], ids=["constant", "zero", "linear", "affine", "sine"])
def test_a_preset_reads_its_name_and_params_off_its_function(make, params):
    coef = make(*(int(p) for p in params))  # read as floats
    assert (coef.name, coef.params) == (make.__name__, params)
    assert all(type(p) is float for p in coef.params)
    again = getattr(Coefficient, coef.name)(*coef.params)
    u = np.linspace(-2.0, 2.0, 9)
    assert again(u).tobytes() == coef(u).tobytes()
    assert again.lipschitz == coef.lipschitz


class _Ones(partial):
    def __call__(self, u):
        return np.ones_like(u)


@pytest.mark.parametrize("fn", [
    lambda u: np.zeros_like(u),
    partial(np.multiply, 0.0),
    partial(_PRESETS["constant"]),
    partial(_PRESETS["constant"], 0.0, 1.0),
    partial(_PRESETS["constant"], 0.0, u=np.zeros(3)),
    _Ones(_PRESETS["constant"], 0.0),
    Coefficient.constant(0.0),
], ids=["lambda", "partial", "no-parameter", "extra-parameter",
        "keyword", "partial-subclass", "coefficient"])
def test_any_other_callable_reads_custom(fn):
    # only a preset function with its parameters bound reads as a preset,
    # so only it can be skipped as a zero or stepped as a constant
    coef = Coefficient(fn, 0.0)
    assert (coef.name, coef.params, coef.is_zero) == ("custom", (), False)


def test_no_label_can_stand_in_for_a_coefficient():
    # b = 1 + u labelled constant 3 was once stepped as b = 3
    with pytest.raises(TypeError):
        Coefficient(lambda u: 1.0 + u, 1.0, "constant", (3.0,))


@pytest.mark.parametrize("runner", [solve, solve_picard])
def test_a_custom_constant_sigma_drives_the_noise(runner):
    # labelled constant 0, such a sigma once ran without noise (sup 0.0)
    sigma = Coefficient(lambda u: np.ones_like(u), 0.0)
    for name, value in (("name", "constant"), ("params", (0.0,))):
        with pytest.raises(AttributeError):
            object.__setattr__(sigma, name, value)

    def run(sigma):
        return runner(_config(
            grid=Grid(1, 16, 4.0), sigma=sigma, u0=0.0, T=0.05)).values

    custom = run(sigma)
    preset = run(Coefficient.constant(1.0))
    assert np.abs(custom).max() > 0.1
    np.testing.assert_allclose(custom, preset, rtol=0, atol=1e-12)


# -- config validation ---------------------------------------------------------

def test_config_rejects_bad_steps():
    with pytest.raises(ConstraintViolationError):
        _config(dt=-0.1)
    with pytest.raises(ConstraintViolationError):
        _config(T=0.001)  # T < dt
    with pytest.raises(ConstraintViolationError):
        _config(T=0.25, dt=0.1)  # not a whole number of steps


@pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
def test_config_requires_finite_positive_picard_tol(tol):
    with pytest.raises(ConstraintViolationError):
        _config(picard_tol=tol)


def test_config_requires_admissible_measure():
    from fracspde.errors import DivergenceError
    with pytest.raises(DivergenceError):
        SolverConfig(
            idx=FractionalIndex([2, 2], [0, 0]),
            measure=SpectralMeasure.white(2),
            grid=Grid(2, 16, 4.0),
            b=Coefficient.constant(0.0), sigma=Coefficient.constant(1.0),
            u0=0.0, dt=0.01, T=0.1,
        )


def test_config_dimension_mismatch():
    with pytest.raises(ConstraintViolationError):
        _config(idx=FractionalIndex([2, 2], [0, 0]))


def test_smooth_initial_checks_dimensions_at_time_zero():
    with pytest.raises(ConstraintViolationError, match="dimension"):
        smooth_initial(1.0, FractionalIndex([1.5]), 0.0, Grid(2, 8, 4.0))


# -- smooth initial -------------------------------------------------------------

def test_smooth_initial_preserves_constants():
    idx = FractionalIndex([1.5], [0.3])
    out = smooth_initial(3.0, idx, 0.7, GRID)
    assert np.abs(out.values - 3.0).max() < 1e-12


def test_smooth_initial_heat_eigenfunction():
    grid = Grid(1, 256, 2 * np.pi * 4)
    out = smooth_initial(lambda x: np.cos(x), GAUSS, 0.5, grid)
    x = grid.axis_coordinates()
    assert np.abs(out.values - np.exp(-0.5) * np.cos(x)).max() < 1e-12


def test_smooth_initial_spike_gives_kernel_profile():
    from fracspde.stable_kernel import kernel
    idx = FractionalIndex([1.5], [0.3])
    grid = Grid(1, 512, 64.0)
    out = smooth_initial(Field.spike(grid), idx, 1.0, grid)
    assert np.abs(out.values - kernel(idx, 1.0, grid).values).max() < 1e-10


# -- deterministic solver ---------------------------------------------------------

def test_noise_free_run_equals_semigroup_flow():
    cfg = _config()
    path = solve(cfg, 0)
    for t, frame in zip(path.times, path.frames):
        ref = smooth_initial(cfg.u0, cfg.idx, t, cfg.grid)
        assert np.abs(frame.values - ref.values).max() < 1e-10


def test_scalar_ode_limit():
    # b(u) = -u with constant initial data: u_k = (1 - dt)^k exactly,
    # within O(dt) of exp(-t)
    dt = 0.01
    cfg = _config(b=Coefficient.linear(-1.0), u0=1.0, dt=dt, T=0.5)
    path = solve(cfg, 0)
    for k, (t, frame) in enumerate(zip(path.times, path.frames)):
        assert np.abs(frame.values - (1 - dt) ** k).max() < 1e-12
        assert abs(frame.values[0] - np.exp(-t)) < 2 * dt


def test_first_order_convergence_in_dt():
    # deterministic nonlinear drift: halving dt halves the error
    def run(dt):
        cfg = _config(b=Coefficient.sine(1.0), dt=dt, T=0.2,
                      frame_stride=10**9)
        return solve(cfg, 0).frames[-1].values

    ref = run(0.0005)
    errs = [np.abs(run(dt) - ref).max() for dt in (0.02, 0.01, 0.005)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(orders > 0.9)


def test_determinism_bit_exact():
    cfg = _config(sigma=Coefficient.constant(1.0), master_seed=9)
    p1, p2 = solve(cfg, 4), solve(cfg, 4)
    assert all(np.array_equal(a.values, b.values)
               for a, b in zip(p1.frames, p2.frames))


def test_replicates_differ():
    cfg = _config(sigma=Coefficient.constant(1.0))
    a, b = solve(cfg, 0), solve(cfg, 1)
    assert not np.array_equal(a.frames[-1].values, b.frames[-1].values)


def test_lipschitz_stability_of_flows():
    # two initial conditions, zero noise: gap grows at most like exp(L t)
    b = Coefficient.sine(2.0)
    cfg_u = _config(b=b, u0=lambda x: np.cos(x))
    cfg_v = _config(b=b, u0=lambda x: np.cos(x) + 0.1 * np.sin(x))
    pu, pv = solve(cfg_u, 0), solve(cfg_v, 0)
    gap0 = np.abs(pu.frames[0].values - pv.frames[0].values).max()
    gapT = np.abs(pu.frames[-1].values - pv.frames[-1].values).max()
    assert gapT <= np.exp(b.lipschitz * cfg_u.T) * gap0 * (1 + 1e-8)


def test_blow_up_reported_with_step():
    cfg = _config(b=Coefficient.linear(60.0), dt=0.25, T=10.0, u0=1.0)
    with pytest.raises(BlowUpError) as exc:
        solve(cfg, 3)
    assert exc.value.step is not None
    assert exc.value.replicate_id == 3


def test_constant_coefficient_blow_up_reported_with_step():
    cfg = SolverConfig(
        idx=FractionalIndex([1.5], [0.3]), measure=WHITE,
        grid=Grid(1, 64, 8.0), b=Coefficient.constant(3e6),
        sigma=Coefficient.constant(1.0), u0=0.0, dt=0.1, T=1.0,
    )
    with pytest.raises(BlowUpError) as exc:
        solve(cfg, 3)
    assert exc.value.step == 4
    assert exc.value.replicate_id == 3


@pytest.mark.parametrize("u0", [
    float("nan"), float("inf"), -float("inf"), 1e303, -2e302,
    lambda x: np.where(x > 0, np.inf, 0.0),
], ids=["nan", "inf", "-inf", "1e303", "-2e302", "inf-half"])
def test_config_rejects_non_finite_u0_or_ceiling(u0):
    # not a blow-up at step 1: a non-finite u0, or one whose ceiling
    # 1e6 * max(1, |u0|) overflows, is invalid input
    with pytest.raises(ConstraintViolationError, match="u0"):
        _config(u0=u0)
    assert np.isfinite(_config(u0=1e302)._ceiling)


def test_frame_check_reports_first_non_finite_row():
    # one replicate's frames after steps 5, 6, 7
    stack = np.array([[[1.0, -2.0], [np.inf, 0.0], [np.nan, 0.0]]])
    errors = _blow_ups(stack, np.inf, 5, (1,))
    assert list(errors) == [0] and isinstance(errors[0], BlowUpError)
    assert str(errors[0]) == "non-finite values at step 6"
    assert (errors[0].step, errors[0].replicate_id) == (6, 1)
    errors = _blow_ups(stack, 1.5, 5, (1,))
    assert list(errors) == [0]
    assert str(errors[0]).endswith("ceiling at step 5")
    assert _blow_ups(stack[:, :1], 2.0, 5, (1,)) == {}


@pytest.mark.parametrize("runner", [solve, solve_picard],
                         ids=["exp_euler", "picard"])
def test_transform_overflow_reported_as_blow_up(runner):
    # the frames stay finite, below the ceiling 1e308, but a step's forward
    # transform (a sum of 256 values near 1e306) overflows
    cfg = _config(b=Coefficient.linear(100.0), u0=1e302)
    with pytest.raises(BlowUpError, match="non-finite") as exc:
        runner(cfg, 2)
    assert exc.value.replicate_id == 2


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3"])
def test_config_requires_a_seed_integer_at_least_zero(seed):
    # once built, then failed inside numpy at the first solve
    with pytest.raises(ConstraintViolationError, match="master_seed"):
        _config(master_seed=seed)


def test_config_takes_seeds_past_the_key_table():
    # a seed is one 64-bit Philox key word: any in [0, 2**64) draws
    for seed in (2**32, 2**64 - 1):
        cfg = _config(sigma=Coefficient.constant(1.0), master_seed=seed,
                      T=0.02)
        assert np.isfinite(solve(cfg, 0).values).all()
    assert _config(master_seed=np.uint64(7)).master_seed == 7
    with pytest.raises(ConstraintViolationError, match="master_seed"):
        _config(master_seed=2**64)


@pytest.mark.parametrize("max_iter", [0, -1, 2.5, True])
def test_config_requires_a_picard_sweep(max_iter):
    with pytest.raises(ConstraintViolationError):
        _config(picard_max_iter=max_iter)


@pytest.mark.parametrize("stride", [0, 1.5, True])
def test_config_requires_a_frame_stride_integer_at_least_one(stride):
    # 1.5 was once built, then failed inside numpy at the first solve
    with pytest.raises(ConstraintViolationError, match="frame_stride"):
        _config(frame_stride=stride)


@pytest.mark.parametrize("runner", [solve, solve_picard])
@pytest.mark.parametrize("replicate_id", [-1, 1.5, True])
def test_solvers_require_a_replicate_id_integer_at_least_zero(
        runner, replicate_id):
    # -1 and 1.5 once failed inside numpy; True ran replicate 1
    with pytest.raises(ConstraintViolationError, match="replicate_id"):
        runner(_config(), replicate_id)


@pytest.mark.parametrize("runner", [solve, solve_picard])
def test_numpy_integer_ids_solve_as_plain_ints(runner):
    kw = dict(b=Coefficient.sine(0.5), sigma=Coefficient.affine(0.3, 1.0),
              T=0.05)
    want = runner(_config(master_seed=1, **kw), 2)
    cfg = _config(master_seed=np.uint64(1), **kw)
    assert type(cfg.master_seed) is int
    got = runner(cfg, np.int64(2))
    assert type(got.replicate_id) is int
    assert got.values.tobytes() == want.values.tobytes()


def test_frame_stride_keeps_endpoints():
    cfg = _config(frame_stride=7)
    path = solve(cfg, 0)
    assert path.times[0] == 0.0
    assert path.times[-1] == pytest.approx(cfg.T)


# -- stochastic solver -----------------------------------------------------------

def test_additive_heat_variance_oracle():
    t = 0.25
    cfg = SolverConfig(
        idx=GAUSS, measure=WHITE, grid=Grid(1, 512, 16.0),
        b=Coefficient.constant(0.0), sigma=Coefficient.constant(1.0),
        u0=0.0, dt=1e-3, T=t, master_seed=11, frame_stride=10**9,
    )
    n = 400
    vals = np.array([solve(cfg, r).frames[-1].values[256] for r in range(n)])
    est = vals.var(ddof=1)
    target = np.sqrt(t / (2 * np.pi))
    se = est * np.sqrt(2 / (n - 1))
    # 5 standard errors plus the O(sqrt(dt/t)) discretization deficit
    assert abs(est - target) < 5 * se + np.sqrt(cfg.dt / t) * target


def test_mean_zero_for_centered_additive_case():
    cfg = _config(sigma=Coefficient.constant(1.0), u0=0.0, dt=0.005,
                  frame_stride=10**9)
    vals = np.array([solve(cfg, r).frames[-1].values[128] for r in range(200)])
    se = vals.std(ddof=1) / np.sqrt(len(vals))
    assert abs(vals.mean()) < 4 * se


# -- fixed-point scheme -----------------------------------------------------------

def test_picard_noise_free_converges_immediately():
    cfg = _config()
    path, trace = solve_picard(cfg, 0, return_trace=True)
    assert len(trace) == 1
    ref = solve(cfg, 0)
    for a, b in zip(path.frames, ref.frames):
        assert np.abs(a.values - b.values).max() < 1e-12


def test_picard_matches_euler_on_shared_noise():
    cfg = _config(b=Coefficient.sine(0.5), sigma=Coefficient.affine(0.3, 1.0),
                  dt=0.005, T=0.1, master_seed=3)
    pe = solve(cfg, 0)
    pp = solve_picard(cfg, 0)
    gap = max(np.abs(a.values - b.values).max()
              for a, b in zip(pe.frames, pp.frames))
    assert gap < 1e-10


def test_picard_residuals_decay_geometrically():
    cfg = _config(b=Coefficient.sine(0.5), sigma=Coefficient.affine(0.5, 1.0),
                  dt=0.005, T=0.25, master_seed=5)
    _, trace = solve_picard(cfg, 0, return_trace=True)
    trace = np.asarray(trace)
    active = trace[trace > 1e-11]
    ratios = active[1:] / active[:-1]
    assert np.all(ratios < 1.0)
    assert np.median(ratios) < 0.5


def test_picard_nonconvergence_carries_trace():
    from fracspde.errors import PicardConvergenceError
    cfg = _config(b=Coefficient.sine(0.5), sigma=Coefficient.affine(0.3, 1.0),
                  dt=0.005, T=0.1, picard_max_iter=2, picard_tol=1e-14)
    with pytest.raises(PicardConvergenceError) as exc:
        solve_picard(cfg, 0)
    assert len(exc.value.residuals) == 2


def test_path_solution_validation():
    grid = Grid(1, 8, 1.0)
    two = np.zeros((2, 8))
    with pytest.raises(ConstraintViolationError):
        PathSolution(two, grid, (0.0, 0.0), 0)  # times not increasing
    with pytest.raises(ConstraintViolationError):
        PathSolution(two, grid, (0.0, np.nan), 0)  # NaN is not increasing
    with pytest.raises(ConstraintViolationError):
        PathSolution(two[:1], grid, (0.5,), 0)  # must start at 0
    with pytest.raises(ConstraintViolationError):
        PathSolution(two, grid, (0.0,), 0)  # rows/times mismatch
    with pytest.raises(ConstraintViolationError):
        PathSolution(np.zeros((2, 4)), grid, (0.0, 0.5), 0)  # not the grid
    with pytest.raises(ConstraintViolationError):
        PathSolution(np.zeros((0, 8)), grid, (), 0)  # no frame


def test_path_rows_are_read_only_views_and_probes_are_copies():
    grid = Grid(1, 8, 1.0)
    rows = np.arange(16.0).reshape(2, 8)
    path = PathSolution(rows, grid, (0.0, 0.5), 0)
    assert not path.values.flags.writeable
    assert np.shares_memory(path.frames[1].values, path.values)
    series = path.values_at(3)
    assert np.array_equal(series, [3.0, 11.0])
    assert not np.shares_memory(series, path.values)


def test_values_at_takes_a_point_of_the_grid():
    grid = Grid(2, 4, 1.0)
    path = PathSolution(np.arange(32.0).reshape(2, 4, 4), grid, (0.0, 0.5), 0)
    assert path.values_at((1, 2)).tolist() == [6.0, 22.0]
    assert path.values_at([np.int64(1), np.uint8(2)]).tolist() == [6.0, 22.0]
    # -1 once read the last point and 4 or 1.5 raised numpy's IndexError
    for probe in [(1, -1), (1, 4), (1, 1.5), (True, 0), 1, (1, 2, 0)]:
        with pytest.raises(ConfigurationError, match="probe"):
            path.values_at(probe)


@pytest.mark.parametrize("idx,measure,grid", [
    (FractionalIndex([1.5], [0.3]), SpectralMeasure.riesz(0.5, 1),
     Grid(1, 128, 16.0)),
    (FractionalIndex([1.5, 1.2], [0.3, 0.1]), SpectralMeasure.bessel(3.0, 2),
     Grid(2, 16, 8.0)),
])
def test_solver_first_step_is_semigroup_of_sample_increments(idx, measure,
                                                             grid):
    # one step from u0 = 0 with b = 0, sigma = 1 is S_dt applied to the
    # increment that sample_increments draws from the same stream
    dt, seed, rep = 0.01, 9, 2
    cfg = SolverConfig(idx=idx, measure=measure, grid=grid,
                       b=Coefficient.constant(0.0),
                       sigma=Coefficient.constant(1.0),
                       u0=0.0, dt=dt, T=dt, master_seed=seed)
    stepped = solve(cfg, rep).frames[-1].values
    inc = sample_increments(grid, measure, dt, seed, [rep], 0)[0]
    expected = apply_semigroup(Field(grid, inc), idx, dt).values
    np.testing.assert_allclose(stepped, expected, rtol=0, atol=1e-12)


def _complex_step_reference(config, replicate_id):
    """Frames of the exponential-Euler scheme stepped with complex FFTs:
    every step S_dt[u + dt b(u) + sigma(u) dM] in physical space."""
    grid, dt = config.grid, config.dt
    psi = _symbol_lattice(config.idx, grid, dt)
    sqrt_m = np.sqrt(config.measure.density_on_lattice(grid))
    mode_norm = grid.n_per_dim ** (grid.d / 2)
    scale = np.sqrt(dt) * (2 * np.pi / grid.box_length) ** (grid.d / 2)
    u = np.fft.ifftshift(config.u0.values)
    frames = [u]
    for k in range(config.n_steps):
        white = RngStream(config.master_seed, replicate_id, k).generator() \
            .standard_normal(grid.shape)
        dm = scale * np.real(np.fft.fftn(sqrt_m * np.fft.fftn(white)
                                         / mode_norm))
        stage = u + dt * config.b(u) + config.sigma(u) * dm
        u = np.real(np.fft.fftn(psi * np.fft.ifftn(stage)))
        frames.append(u)
    return [np.fft.fftshift(f) for f in frames]


@settings(max_examples=30, deadline=None)
@given(
    d=st.sampled_from([1, 2]),
    n=st.integers(4, 17),
    alpha=st.lists(st.floats(0.3, 1.95).filter(lambda a: abs(a - 1) > 0.05),
                   min_size=2, max_size=2),
    skew=st.lists(st.floats(0.2, 1.0), min_size=2, max_size=2),
    sign=st.sampled_from([-1.0, 1.0]),
    seed=st.integers(0, 2**16),
)
def test_real_spectrum_step_matches_complex_step(d, n, alpha, skew, sign,
                                                 seed):
    # delta != 0 makes the symbol complex on the Nyquist planes of even n:
    # the half-spectrum multiplier must be its Hermitian part there
    delta = [sign * f * min(a, 2 - a) for a, f in zip(alpha, skew)]
    idx = FractionalIndex(alpha[:d], delta[:d])
    grid = Grid(d, n, 8.0)
    multiplicative = SolverConfig(
        idx=idx, measure=SpectralMeasure.bessel(3.0, d), grid=grid,
        b=Coefficient.sine(0.5), sigma=Coefficient.affine(0.3, 1.0),
        u0=lambda *xs: np.cos(xs[0]) + 0.5 * np.sin(xs[-1]),
        dt=0.01, T=0.2, master_seed=seed)
    # apply_semigroup acts on half spectra; the complex route, written out
    f = Field(grid, np.random.default_rng(seed).standard_normal(grid.shape))
    psi = _symbol_lattice(idx, grid, 0.01)
    ref = np.real(to_physical(Field(grid, psi * to_frequency(f).values,
                                    "frequency")).values)
    np.testing.assert_allclose(apply_semigroup(f, idx, 0.01).values, ref,
                               rtol=0, atol=1e-12)
    # constant b and sigma take the frequency-space branch of the step
    additive = replace(multiplicative, b=Coefficient.constant(0.4),
                       sigma=Coefficient.constant(0.7))
    for cfg in (multiplicative, additive):
        path = solve(cfg, 1)
        assert len(path.frames) == 21
        for frame, ref in zip(path.frames, _complex_step_reference(cfg, 1)):
            np.testing.assert_allclose(frame.values, ref, rtol=0, atol=1e-12)


def test_symbol_lattice_built_once_per_config(monkeypatch):
    import fracspde.solver

    calls = []
    original = fracspde.solver._symbol_lattice

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(fracspde.solver, "_symbol_lattice", counting)
    cfg = _config(sigma=Coefficient.constant(1.0), u0=0.0, dt=0.01, T=0.05)
    paths = [solve(cfg, rep) for rep in range(3)]
    assert len(calls) == 1
    assert not np.array_equal(paths[0].frames[-1].values,
                              paths[1].frames[-1].values)


def _block_config(**kw):
    # 1024 grid points: noise blocks of 64 steps, so 150 steps span three
    kw = dict(grid=Grid(1, 1024, 16.0), b=Coefficient.constant(0.5),
              sigma=Coefficient.constant(1.0), u0=0.0, dt=1e-3, T=0.15) | kw
    cfg = _config(**kw)
    assert cfg._synthesizer.block_steps(1) == 64 and cfg.n_steps == 150
    return cfg


def test_constant_coefficient_frames_across_blocks_and_strides():
    every, sevens, last = (solve(_block_config(frame_stride=s), 2)
                           for s in (1, 7, 10**9))
    assert every.times == tuple(k * 1e-3 for k in range(151))
    assert sevens.times == tuple(k * 1e-3 for k in range(0, 151, 7)) + (0.15,)
    assert last.times == (0.0, 0.15)
    for path in (sevens, last):
        assert np.array_equal(path.frames[-1].values, every.frames[-1].values)
    for k, frame in zip(range(0, 151, 7), sevens.frames):
        assert np.array_equal(frame.values, every.frames[k].values)


@pytest.mark.parametrize("b, sigma, transforms", [
    (Coefficient.constant(0.5), Coefficient.constant(1.0), 3),  # per block
    # per step, and the noise transformed back per block
    (Coefficient.linear(-0.5), Coefficient.constant(1.0), 150 + 3),
    (Coefficient.constant(0.5), Coefficient.affine(0.3, 1.0), 150 + 3),
])
def test_frames_transformed_per_block_only_with_constant_coefficients(
        monkeypatch, b, sigma, transforms):
    import fracspde.solver

    calls = []
    original = fracspde.solver._irfft

    def counting(spectrum, grid):
        calls.append(spectrum.shape)
        return original(spectrum, grid)

    monkeypatch.setattr(fracspde.solver, "_irfft", counting)
    solve(_block_config(b=b, sigma=sigma, frame_stride=10**9), 0)
    assert len(calls) == transforms


@pytest.mark.parametrize("b, sigma", [
    (b, sigma) for b in (Coefficient.constant(0.5), Coefficient.linear(-0.5))
    for sigma in (Coefficient.constant(1.0), Coefficient.affine(0.3, 1.0),
                  Coefficient.constant(0.0))
] + [(Coefficient.constant(0.0), Coefficient.affine(0.3, 1.0))],
    ids=["additive", "multiplicative", "noise-free", "linear-b-additive",
         "linear-b-multiplicative", "linear-b-noise-free",
         "zero-b-multiplicative"])
def test_block_steps_match_complex_step(b, sigma):
    # three 64-step noise blocks: each step k draws the stream
    # (master_seed, replicate, k); both stepping paths, with and without b
    # and sigma acting on the frame, from a u0 != 0 so that no case is 0
    cfg = _block_config(b=b, sigma=sigma, u0=lambda x: np.cos(x))
    path = solve(cfg, 3)
    for frame, ref in zip(path.frames, _complex_step_reference(cfg, 3),
                          strict=True):
        np.testing.assert_allclose(frame.values, ref, rtol=0, atol=1e-12)


def _coefficients_called(monkeypatch):
    """The Coefficient of each call, in order, recorded through
    ``Coefficient.__call__``."""
    called, call = [], Coefficient.__call__

    def spy(self, u):
        called.append(self)
        return call(self, u)

    monkeypatch.setattr(Coefficient, "__call__", spy)
    return called


def test_stepping_never_calls_a_zero_drift(monkeypatch):
    # a zero b drops its term from the frame path's forcing, where
    # dt * 0 + x would add only zeros: the frames are those of a drift
    # that evaluates to zeros on every step
    called = _coefficients_called(monkeypatch)
    zero = Coefficient.constant(0.0)
    sigma, u0 = Coefficient.affine(0.3, 1.0), lambda x: np.cos(x)
    assert zero.is_zero
    path = solve(_block_config(b=zero, sigma=sigma, u0=u0), 3)
    assert not any(c is zero for c in called)
    assert sum(c is sigma for c in called) == 150  # once a step
    zeros = solve(_block_config(b=Coefficient.linear(0.0), sigma=sigma,
                                u0=u0), 3)
    assert path.values.tobytes() == zeros.values.tobytes()


def test_picard_sweeps_never_call_a_zero_drift(monkeypatch):
    # the sweeps build their forcing as the frame path does: the fixed
    # point and its residuals are those of a drift that evaluates to zeros
    called = _coefficients_called(monkeypatch)
    zero, sigma = Coefficient.constant(0.0), Coefficient.affine(0.3, 1.0)
    cfg = _block_config(b=zero, sigma=sigma, u0=lambda x: np.cos(x))
    path, trace = solve_picard(cfg, 3, return_trace=True)
    assert not any(c is zero for c in called)
    assert sum(c is sigma for c in called) == len(trace)  # once a sweep
    zeros, zeros_trace = solve_picard(replace(cfg, b=Coefficient.linear(0.0)),
                                      3, return_trace=True)
    assert path.values.tobytes() == zeros.values.tobytes()
    assert trace == zeros_trace


def _record_draws_and_checks(monkeypatch):
    """Events ``("draw", steps)`` of each ``_Synthesizer.spectra`` call and
    ``("check", steps)`` of each frame check (the steps whose frames it
    checks), in the order they happen."""
    import fracspde.solver
    from fracspde.noise import _Synthesizer

    events = []
    spectra, blow_ups = _Synthesizer.spectra, fracspde.solver._blow_ups

    def drawing(self, master_seed, replicate_ids, steps):
        events.append(("draw", list(steps)))
        return spectra(self, master_seed, replicate_ids, steps)

    def checking(stack, ceiling, first_step, replicate_ids):
        events.append(("check",
                        list(range(first_step, first_step + stack.shape[1]))))
        return blow_ups(stack, ceiling, first_step, replicate_ids)

    monkeypatch.setattr(_Synthesizer, "spectra", drawing)
    monkeypatch.setattr(fracspde.solver, "_blow_ups", checking)
    return events


@pytest.mark.parametrize("sigma", [Coefficient.constant(1.0),
                                   Coefficient.affine(0.3, 1.0)],
                         ids=["additive", "multiplicative"])
@pytest.mark.parametrize("ids", [[2], [4, 0, 7]], ids=["solve", "chunk"])
def test_step_rows_draws_each_block_by_its_steps(monkeypatch, sigma, ids):
    # the draws cover steps 0..n-1 in order, one block at a time, and each
    # block's frames are stepped and checked before the next block is drawn
    import fracspde.noise

    cfg = _block_config(sigma=sigma)
    if len(ids) > 1:  # 3 rows of 1024 points: blocks of 5 steps
        monkeypatch.setattr(fracspde.noise, "BLOCK_ELEMENTS", 2**14)
    size = cfg._synthesizer.block_steps(len(ids))
    assert size == (64 if len(ids) == 1 else 5)
    events = _record_draws_and_checks(monkeypatch)
    want = [list(range(k, min(k + size, 150))) for k in range(0, 150, size)]
    if len(ids) == 1:
        solve(cfg, ids[0])
    else:
        _stored_values(cfg, ids)
    assert [steps for kind, steps in events if kind == "draw"] == want
    checked = []
    for kind, steps in events:
        if kind == "draw":
            checked.append((steps, []))
        else:
            checked[-1][1].extend(steps)
    for drawn, frames in checked:
        assert frames == [k + 1 for k in drawn]


@pytest.mark.parametrize("ids", [[1], [4, 0, 7]], ids=["solve", "chunk"])
def test_picard_draws_a_groups_noise_in_one_call(monkeypatch, ids):
    # the stepper draws 150 one-step blocks at a budget of 2**10 values,
    # and 3 (one row) or 8 (three rows) at 2**16; a Picard group draws its
    # whole path at once, and its frames and residuals are the same at
    # either budget
    import fracspde.noise
    from fracspde.noise import _Synthesizer

    cfg = _block_config(b=Coefficient.sine(0.5),
                        sigma=Coefficient.affine(0.3, 1.0))
    draws, spectra = [], _Synthesizer.spectra

    def drawing(self, master_seed, replicate_ids, steps):
        draws.append((list(replicate_ids), list(steps)))
        return spectra(self, master_seed, replicate_ids, steps)

    monkeypatch.setattr(_Synthesizer, "spectra", drawing)
    swept = []
    for budget, blocks in ((2**10, 150), (2**16, 3 if len(ids) == 1 else 8)):
        monkeypatch.setattr(fracspde.noise, "BLOCK_ELEMENTS", budget)
        _stored_values(cfg, ids)
        assert len(draws) == blocks
        draws.clear()
        values, traces = _picard_rows(cfg, ids)
        assert draws == [(ids, list(range(150)))]
        draws.clear()
        swept.append((values.tobytes(), traces))
    assert swept[0] == swept[1]


# -- chunks of replicates stepped together ------------------------------------

_COEFFICIENTS = [Coefficient.constant(0.0), Coefficient.constant(0.5),
                 Coefficient.linear(-0.5), Coefficient.affine(0.2, 1.0),
                 Coefficient.sine(0.3, 2.0)]


@st.composite
def _chunked_runs(draw):
    """A config, replicate ids, a chunk size and a noise block budget."""
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.sampled_from([5, 6, 8, 9] if d == 2 else [7, 8, 16, 17]))
    alpha = [draw(st.floats(1.2, 2.0)) for _ in range(d)]
    delta = [draw(st.floats(-0.5, 0.5)) * min(a, 2 - a) for a in alpha]
    measure = draw(st.sampled_from(
        [SpectralMeasure.bessel(2.5, 2)] if d == 2 else
        [WHITE, SpectralMeasure.riesz(0.5, 1),
         SpectralMeasure.bessel(1.0, 1)]))
    u0 = draw(st.sampled_from([0.0, lambda *xs: np.cos(xs[0])]))
    cfg = SolverConfig(
        idx=FractionalIndex(alpha, delta), measure=measure,
        grid=Grid(d, n, 8.0), b=draw(st.sampled_from(_COEFFICIENTS)),
        sigma=draw(st.sampled_from(_COEFFICIENTS)), u0=u0, dt=0.01,
        T=0.01 * draw(st.integers(1, 40)), master_seed=draw(st.integers(0, 9)),
        frame_stride=draw(st.sampled_from([1, 2, 7, 10**9])),
    )
    ids = draw(st.lists(st.integers(0, 40), min_size=1, max_size=7,
                        unique=True))
    size = draw(st.integers(1, len(ids)))
    # a budget of n**d values is a block per step, so most runs span many
    block_elements = draw(st.sampled_from([1, 3, 2**16 // n**d])) * n**d
    return cfg, ids, size, block_elements


@settings(max_examples=60, deadline=None)
@given(_chunked_runs())
def test_chunks_equal_per_replicate_solves_byte_for_byte(run):
    import fracspde.noise

    cfg, ids, size, block_elements = run
    expected = {rep: solve(cfg, rep).values for rep in ids}
    with mock.patch.object(fracspde.noise, "BLOCK_ELEMENTS", block_elements):
        for lo in range(0, len(ids), size):
            chunk = ids[lo:lo + size]
            for rep, values in zip(chunk, _stored_values(cfg, chunk)):
                assert values.tobytes() == expected[rep].tobytes()


def _blow_up_config(sigma):
    # multiplicative or huge additive noise: replicates fail at their own
    # steps (serial first failures, replicates 0-9, in the comments below)
    return SolverConfig(
        idx=FractionalIndex([1.5], [0.3]), measure=WHITE,
        grid=Grid(1, 16, 8.0), b=Coefficient.constant(0.0), sigma=sigma,
        u0=0.0 if sigma.name == "constant" else 1.0, dt=0.01, T=2.0,
        master_seed=3, frame_stride=10**9,
    )


def _serial_blow_ups(cfg, ids):
    """{replicate: BlowUpError} of one ``solve`` per replicate."""
    errors = {}
    for rep in ids:
        try:
            solve(cfg, rep)
        except BlowUpError as exc:
            errors[rep] = exc
    return errors


@pytest.mark.parametrize("sigma, ids", [
    # checked per step: 113, 136, 101, 75, 102, 124, 80, 161, 80, 169
    (Coefficient.linear(8.0), range(2, 10)),
    (Coefficient.linear(8.0), [9, 2, 6, 0]),
    # every replicate fails: 51, 51, 53, 41, 38, 57, 33, 41, 55, 51
    (Coefficient.linear(10.0), range(10)),
    # checked per block: None, None, 42, 142, 41, 53, 84, 76, 110, None
    (Coefficient.constant(6e5), range(1, 6)),
    (Coefficient.constant(6e5), range(6, 10)),
])
@pytest.mark.parametrize("block_elements", [2**16, 2**8])
def test_chunk_raises_the_blow_up_of_the_serial_loop(sigma, ids,
                                                     block_elements):
    import fracspde.noise

    cfg = _blow_up_config(sigma)
    serial = _serial_blow_ups(cfg, ids)
    first = serial[next(rep for rep in ids if rep in serial)]
    # 2**8 values are blocks of 1 to 4 steps, so a later row's failure
    # can show in an earlier block than the raised one's
    with (mock.patch.object(fracspde.noise, "BLOCK_ELEMENTS", block_elements),
          pytest.raises(BlowUpError) as exc):
        _stored_values(cfg, list(ids))
    assert (str(exc.value), exc.value.step, exc.value.replicate_id) == (
        str(first), first.step, first.replicate_id)


def test_chunk_blow_up_cases_have_a_later_replicate_failing_sooner():
    # what makes the parity test above bite: in a chunk, a later row
    # fails at an earlier step than the row whose error is raised
    for sigma, ids in [(Coefficient.linear(8.0), range(2, 10)),
                       (Coefficient.constant(6e5), range(1, 6))]:
        serial = _serial_blow_ups(_blow_up_config(sigma), ids)
        steps = [serial[rep].step for rep in ids if rep in serial]
        assert min(steps[1:]) < steps[0]


def test_chunk_stops_once_its_first_row_has_failed():
    calls = []

    def counting(u):
        calls.append(u.shape)
        return 10.0 * u

    sigma = Coefficient(counting, 10.0)
    cfg = _blow_up_config(sigma)
    with pytest.raises(BlowUpError) as exc:
        _stored_values(cfg, list(range(10)))
    # replicate 0 fails at step 51: no later step runs
    assert (exc.value.replicate_id, exc.value.step) == (0, 51)
    assert calls == [(10, 16)] * 51


def _serial_picard(cfg, ids):
    """{replicate: (frame bytes, trace) or the error} of one
    ``solve_picard`` per replicate."""
    results = {}
    for rep in ids:
        try:
            path, trace = solve_picard(cfg, rep, return_trace=True)
            results[rep] = (path.values.tobytes(), trace)
        except (BlowUpError, PicardConvergenceError) as exc:
            results[rep] = exc
    return results


def _assert_picard_chunk_is_serial(cfg, chunk, serial):
    """``_picard_rows`` of ``chunk`` gives each row's one-row frames and
    trace, or raises the lowest failing row's one-row error."""
    failed = [rep for rep in chunk if isinstance(serial[rep], Exception)]
    if not failed:
        values, traces = _picard_rows(cfg, chunk)
        assert [(v.tobytes(), t) for v, t in zip(values, traces)] == [
            serial[rep] for rep in chunk]
        return
    want = serial[failed[0]]
    with pytest.raises(type(want)) as exc:
        _picard_rows(cfg, chunk)
    assert str(exc.value) == str(want)
    assert vars(exc.value) == vars(want)  # step, replicate or residuals


@settings(max_examples=40, deadline=None)
@given(_chunked_runs())
def test_picard_chunks_equal_per_replicate_sweeps_byte_for_byte(run):
    import fracspde.noise

    cfg, ids, size, block_elements = run
    serial = _serial_picard(cfg, ids)
    with mock.patch.object(fracspde.noise, "BLOCK_ELEMENTS", block_elements):
        for lo in range(0, len(ids), size):
            _assert_picard_chunk_is_serial(cfg, ids[lo:lo + size], serial)


def _picard_config(**kw):
    # 50 steps of 16 points; replicates 0, 1, 3 and 7 converge in 15
    # sweeps, replicate 4 in 17, the others in 16
    base = dict(
        idx=FractionalIndex([1.5], [0.3]), measure=WHITE,
        grid=Grid(1, 16, 8.0), b=Coefficient.sine(0.5),
        sigma=Coefficient.affine(0.5, 1.0), u0=0.0, dt=0.01, T=0.5,
        master_seed=2,
    )
    base.update(kw)
    return SolverConfig(**base)


@pytest.mark.parametrize("size", [1, 2, 10])
def test_picard_rows_equal_one_row_sweeps_byte_for_byte(size):
    cfg = _picard_config()
    serial = _serial_picard(cfg, range(10))
    assert [len(serial[rep][1]) for rep in range(10)] == [
        15, 15, 16, 15, 17, 16, 16, 15, 16, 16]
    for lo in range(0, 10, size):
        _assert_picard_chunk_is_serial(cfg, range(lo, min(lo + size, 10)),
                                       serial)


def _flow_plus_w_sweeps(cfg, rep):
    """The per-replicate fixed-point loop the sweeps replaced, as the
    reference: u0's flow by repeated one-step maps plus w, stepped through
    a physical-space round trip.  Its centred frames and residual trace."""
    from fracspde.fields import _centre, _irfft, _rfft

    grid, n = cfg.grid, cfg.n_steps
    dm = _irfft(cfg._synthesizer.spectra(cfg.master_seed, (rep,),
                                         range(n))[0], grid)

    def semigroup(values):
        return _irfft(cfg._psi_h * _rfft(values, grid), grid)

    flow = [cfg._u0_wrapped]
    for _ in range(n):
        flow.append(semigroup(flow[-1]))
    current, trace = flow, []
    while not trace or trace[-1] >= cfg.picard_tol:
        w, new = np.zeros(grid.shape), [flow[0]]
        for k in range(n):
            w = semigroup(w + cfg.dt * cfg.b(current[k])
                          + cfg.sigma(current[k]) * dm[k])
            new.append(flow[k + 1] + w)
        trace.append(max(np.abs(a - b).max()
                         for a, b in zip(new[1:], current[1:])))
        current = new
    return _centre(np.stack(current), grid), trace


@pytest.mark.parametrize("rep", [0, 4])
def test_picard_sweeps_equal_the_flow_plus_w_loop_to_round_off(rep):
    # the sweep sums the linear part in another order: frames and residuals
    # move by round-off (2e-15 here, with |u| up to 2.8), sweep counts not
    cfg = _picard_config()
    path, trace = solve_picard(cfg, rep, return_trace=True)
    frames, want = _flow_plus_w_sweeps(cfg, rep)
    assert len(trace) == len(want)
    assert np.abs(path.values - frames).max() < 1e-12
    assert np.abs(np.subtract(trace, want)).max() < 1e-12


@pytest.mark.parametrize("ids", [[26, 27], [27, 26], [25, 27, 26], [27],
                                 [25, 26]])
def test_picard_chunk_raises_the_lowest_failing_rows_error(ids):
    # replicates 25 and 26 do not converge within 20 sweeps; replicate 27
    # blows up at step 195 in an earlier sweep, its 18th
    cfg = replace(_blow_up_config(Coefficient.linear(4.0)),
                  picard_max_iter=20)
    serial = _serial_picard(cfg, range(25, 28))
    assert isinstance(serial[27], BlowUpError) and serial[27].step == 195
    assert all(isinstance(serial[rep], PicardConvergenceError)
               and len(serial[rep].residuals) == 20
               for rep in ids if rep != 27)
    _assert_picard_chunk_is_serial(cfg, ids, serial)


def test_picard_chunk_raises_the_lowest_of_rows_failing_in_one_sweep():
    # additive noise: the first forced sweep is the fixed point, so
    # replicates 2-6 all blow up in it, replicate 4 sooner than replicate 2
    cfg = _blow_up_config(Coefficient.constant(6e5))
    serial = _serial_picard(cfg, range(2, 7))
    assert [serial[rep].step for rep in range(2, 7)] == [42, 142, 41, 53, 84]
    _assert_picard_chunk_is_serial(cfg, range(2, 7), serial)


def test_picard_sweeps_at_most_the_group_bound(tmp_path, monkeypatch):
    # with the final frame only the stored frames allow 10 rows a chunk;
    # each row's sweep holds about seven arrays of its path, 51 frames of
    # 16 points, so a CLI Picard simulate plans chunks of 3 rows
    import json

    import fracspde.cli
    import fracspde.solver
    from fracspde.fields import read_array_binary

    cfg = _picard_config(frame_stride=10**9)
    serial = _serial_picard(cfg, range(10))
    events = multiprocessing.get_context("fork").SimpleQueue()
    picard_rows, blow_ups = fracspde.cli._picard_rows, fracspde.solver._blow_ups

    def sweeping(config, ids):
        events.put(("chunk", ids))
        return picard_rows(config, ids)

    def spying(stack, *args):
        events.put(("swept", stack.shape))
        return blow_ups(stack, *args)

    monkeypatch.setattr(fracspde.cli, "_picard_rows", sweeping)
    monkeypatch.setattr(fracspde.solver, "_blow_ups", spying)
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS",
                        7 * 4 * 51 * 16 - 1)
    assert [len(c) for c in _chunks(cfg, 10)] == [10]
    spec = tmp_path / "picard.json"
    spec.write_text(json.dumps({
        "alpha": [1.5], "delta": [0.3], "measure": {"kind": "white"},
        "grid": {"n_per_dim": 16, "box_length": 8.0},
        "b": {"preset": "sine", "amplitude": 0.5},
        "sigma": {"preset": "affine", "slope": 0.5, "value": 1.0},
        "u0": {"preset": "zero"}, "dt": 0.01, "T": 0.5, "seed": 2,
        "frame_stride": 10**9, "replicates": 10, "scheme": "picard"}))
    for threads in (1, 2):
        out = tmp_path / str(threads)
        assert fracspde.cli.main(["simulate", "--config", str(spec), "--out",
                                  str(out), "--threads", str(threads)]) == 0
        seen = []
        while not events.empty():
            seen.append(events.get())
        chunks = sorted((ids for kind, ids in seen if kind == "chunk"),
                        key=min)
        assert chunks == _chunks(cfg, 10, threads, _sweep_values(cfg))
        assert [len(c) for c in chunks] == [3, 3, 3, 1]
        swept = [shape for kind, shape in seen if kind == "swept"]
        assert max(rows for rows, *_ in swept) == 3
        assert {tuple(frames) for _, *frames in swept} == {(50, 16)}
        for rep in range(10):
            frames = read_array_binary(out / f"frames_{rep:04d}.bin")
            assert frames.tobytes() == serial[rep][0]


@pytest.mark.parametrize("threads, paths, finals", [
    (1, [15] * 4 + [4], [64, 36]),
    (2, [15] * 4 + [4], [32] * 3 + [4]),
    (3, [15] * 4 + [4], [21] * 4 + [16]),
    (5, [12] * 5 + [4], [12] * 8 + [4]),
])
def test_chunk_rows_come_from_the_stored_value_budget(threads, paths, finals):
    # 257 stored frames of 256 points: 15 rows fit 2**20 values; with the
    # final frame only, at most 64 rows run at once over all threads
    cfg = SolverConfig(
        idx=FractionalIndex([1.5], [0.3]), measure=WHITE,
        grid=Grid(1, 256, 16.0), b=Coefficient.sine(0.3),
        sigma=Coefficient.affine(0.2, 1.0), u0=0.0, dt=1e-3, T=0.256,
    )
    chunks = _chunks(cfg, 64, threads)
    assert [len(c) for c in chunks] == paths
    assert [rep for c in chunks for rep in c] == list(range(64))
    final_only = replace(cfg, frame_stride=10**9)
    assert [len(c) for c in _chunks(final_only, 100, threads)] == finals


def test_chunks_give_each_thread_a_chunk():
    # 2 frames of 128**2 points allow 32 rows, as do 64 rows over 2
    # threads: 32 replicates were one chunk, and one thread stepped them
    cfg = SolverConfig(
        idx=FractionalIndex([2.0, 2.0]), measure=SpectralMeasure.bessel(1.5, 2),
        grid=Grid(2, 128, 16.0), b=Coefficient.constant(0.0),
        sigma=Coefficient.constant(1.0), u0=0.0, dt=1e-3, T=0.128,
        frame_stride=10**9,
    )
    assert [len(c) for c in _chunks(cfg, 32, 1)] == [32]
    assert [len(c) for c in _chunks(cfg, 32, 2)] == [16, 16]
    assert [len(c) for c in _chunks(cfg, 33, 2)] == [17, 16]
    # fewer replicates than threads: one replicate a chunk
    assert [len(c) for c in _chunks(cfg, 3, 5)] == [1, 1, 1]


@pytest.mark.parametrize("threads", [1, 2, 3])
def test_ensemble_returns_chunk_results_in_replicate_order(threads):
    cfg = _config(frame_stride=10**9)
    chunks = _chunks(cfg, 7, threads)
    assert len(chunks) >= threads
    assert _ensemble(cfg, 7, list, threads) == [list(c) for c in chunks]


def test_ensemble_runs_a_chunk_in_each_worker():
    # each chunk waits for the other: run one after the other, the first
    # would time out
    cfg = _config(frame_stride=10**9)
    barrier = multiprocessing.get_context("fork").Barrier(2, timeout=30)

    def meet(ids):
        barrier.wait()
        return os.getpid()

    pids = _ensemble(cfg, 2, meet, workers=2)
    assert len(set(pids)) == 2 and os.getpid() not in pids
    assert barrier.n_waiting == 0 and not barrier.broken


def test_ensemble_returns_each_chunks_rows_at_its_ids():
    # more workers than cores: each chunk's rows come back in chunk order,
    # so placed one after another they land at their own ids
    cfg = _config(frame_stride=10**9)
    chunks = _chunks(cfg, 64, 8)
    assert len(chunks) == 8

    def rows(ids):
        return np.arange(ids.start, ids.stop)[:, None] * np.ones(1000)

    results = _ensemble(cfg, 64, rows, workers=8)
    assert [len(r) for r in results] == [len(c) for c in chunks]
    assert (np.concatenate(results) == np.arange(64)[:, None]).all()


def test_solver_errors_keep_their_attributes_through_pickle():
    # a worker's error reaches the caller pickled
    blow_up = pickle.loads(pickle.dumps(BlowUpError("sup-norm", 42, 7)))
    assert (str(blow_up), blow_up.step, blow_up.replicate_id) == (
        "sup-norm", 42, 7)
    picard = pickle.loads(pickle.dumps(
        PicardConvergenceError("no convergence", [0.5, 0.25])))
    assert (str(picard), picard.residuals) == ("no convergence", [0.5, 0.25])


# -- moments ----------------------------------------------------------------------

def test_moment_estimate_deterministic_decay():
    cfg = _config(u0=lambda x: np.cos(x), dt=0.02)
    est = moment_estimate(cfg, 2.0, 100)
    # deterministic flow: worst moment is the initial sup of cos^2 = 1
    assert est.value == pytest.approx(1.0, abs=1e-10)
    assert est.ci_low <= est.value <= est.ci_high + 1e-12


def test_moment_estimate_additive_matches_variance_ceiling():
    t = 0.1
    cfg = SolverConfig(
        idx=GAUSS, measure=WHITE, grid=Grid(1, 256, 16.0),
        b=Coefficient.constant(0.0), sigma=Coefficient.constant(1.0),
        u0=0.0, dt=1e-3, T=t, master_seed=13, frame_stride=20,
    )
    est = moment_estimate(cfg, 2.0, 300)
    target = np.sqrt(t / (2 * np.pi))
    assert est.value == pytest.approx(target, rel=0.25)


def test_moment_estimate_stable_under_doubling():
    cfg = _config(sigma=Coefficient.constant(1.0), u0=0.0, dt=0.005,
                  grid=Grid(1, 128, 16.0), frame_stride=5, master_seed=21)
    a = moment_estimate(cfg, 2.0, 500)
    b = moment_estimate(cfg, 2.0, 1000)
    assert abs(a.value - b.value) / b.value < 0.10


def _bootstrap_by_resample(per_replicate, statistic):
    # one fancy-indexed copy of the replicates per resample
    n = len(per_replicate)
    rng = np.random.default_rng(BOOT_SEED)
    boots = [statistic(per_replicate[rng.integers(0, n, n)].mean(axis=0))
             for _ in range(BOOT_RESAMPLES)]
    return np.percentile(boots, [2.5, 97.5])


@pytest.mark.parametrize("group", [1, 7, 200])
@pytest.mark.parametrize("n", [1, 7, 150, 300])
def test_bootstrap_by_counts_equals_one_copy_per_resample(monkeypatch, n,
                                                          group):
    # the resamples are averaged 1, 7 or all 200 at a time
    import fracspde.solver

    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", group * 40)
    per_replicate = np.random.default_rng(n).exponential(size=(n, 40))
    got = _bootstrap_interval(per_replicate, lambda m: m.max(axis=1))
    want = _bootstrap_by_resample(per_replicate, np.max)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


def test_moment_estimate_fills_its_stack_chunk_by_chunk(monkeypatch):
    import fracspde.solver

    cfg = _config(sigma=Coefficient.affine(0.5, 1.0), u0=0.0,
                  grid=Grid(1, 16, 8.0), T=0.05, frame_stride=2)
    per_row = len(cfg._stored_steps) * 16
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", 7 * per_row)
    assert len(_chunks(cfg, 100)) == 15
    est = moment_estimate(cfg, 3.0, 100)
    stack = np.stack([np.abs(solve(cfg, rep).values.reshape(-1)) ** 3.0
                      for rep in range(100)])
    assert est.value == stack.mean(axis=0).max()
    assert (est.ci_low, est.ci_high) == _bootstrap_interval(
        stack, lambda m: m.max(axis=1))


def test_moment_estimate_warns_when_its_interval_misses_it():
    # the max of bootstrapped means sits above the estimate here: it is
    # 0.0868 against an interval [0.0905, 0.1841]
    cfg = SolverConfig(
        idx=FractionalIndex([1.5], [0.3]), measure=WHITE,
        grid=Grid(1, 32, 8.0), b=Coefficient.constant(0.0),
        sigma=Coefficient.constant(1.0), u0=0.0, dt=0.01, T=0.08,
        master_seed=5,
    )
    with pytest.warns(AccuracyWarning, match="outside its bootstrap"):
        est = moment_estimate(cfg, 4.0, 100)
    assert not est.ci_low <= est.value <= est.ci_high
    assert (est.value, est.ci_low) == pytest.approx((0.0868, 0.0905),
                                                    abs=5e-5)


def test_moment_estimate_requires_replicates():
    with pytest.raises(ConfigurationError):
        moment_estimate(_config(), 2.0, 10)


@pytest.mark.parametrize("n", [150.5, True])
def test_moment_estimate_requires_an_integer_count_of_replicates(n):
    # 150.5 once failed with a TypeError when the chunks were built
    with pytest.raises(ConfigurationError, match="integer"):
        moment_estimate(_config(), 2.0, n)


@pytest.mark.parametrize("p", [1.5, float("nan"), float("inf")])
def test_moment_estimate_requires_a_finite_order_of_at_least_two(p):
    with pytest.raises(ConstraintViolationError, match="moment order"):
        moment_estimate(_config(), p, 100)
