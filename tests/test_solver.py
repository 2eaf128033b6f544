from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspde.errors import (
    BlowUpError,
    ConfigurationError,
    ConstraintViolationError,
)
from fracspde.fields import (Field, FractionalIndex, Grid, to_frequency,
                             to_physical)
from fracspde.noise import RngStream, sample_increment
from fracspde.solver import (
    Coefficient,
    PathSolution,
    SolverConfig,
    _check_frames,
    _chunks,
    _stored_values,
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


def test_coefficient_from_spec():
    c = Coefficient.from_spec({"preset": "sine", "amplitude": 0.5})
    assert c(0.0) == 0.0 and c.lipschitz == 0.5
    with pytest.raises(ConfigurationError):
        Coefficient.from_spec({"preset": "cubic"})


def test_coefficient_requires_finite_lipschitz():
    with pytest.raises(ConstraintViolationError):
        Coefficient(lambda u: u**2, float("inf"))


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
        _config(scheme="picard", picard_tol=tol)


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
    stack = np.array([[1.0, -2.0], [np.inf, 0.0], [np.nan, 0.0]])
    with pytest.raises(BlowUpError, match="non-finite values at step 6$") as exc:
        _check_frames(stack, np.inf, 5, 1)
    assert (exc.value.step, exc.value.replicate_id) == (6, 1)
    with pytest.raises(BlowUpError, match="ceiling at step 5$"):
        _check_frames(stack, 1.5, 5, 1)
    _check_frames(stack[:1], 2.0, 5, 1)


@pytest.mark.parametrize("scheme", ["exp_euler", "picard"])
def test_transform_overflow_reported_as_blow_up(scheme):
    # the frames stay finite, below the ceiling 1e308, but a step's forward
    # transform (a sum of 256 values near 1e306) overflows
    cfg = _config(b=Coefficient.linear(100.0), u0=1e302, scheme=scheme)
    runner = solve if scheme == "exp_euler" else solve_picard
    with pytest.raises(BlowUpError, match="non-finite") as exc:
        runner(cfg, 2)
    assert exc.value.replicate_id == 2


@pytest.mark.parametrize("max_iter", [0, -1])
def test_config_requires_a_picard_sweep(max_iter):
    with pytest.raises(ConstraintViolationError):
        _config(scheme="picard", picard_max_iter=max_iter)


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
    cfg = _config(scheme="picard")
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


@pytest.mark.parametrize("idx,measure,grid", [
    (FractionalIndex([1.5], [0.3]), SpectralMeasure.riesz(0.5, 1),
     Grid(1, 128, 16.0)),
    (FractionalIndex([1.5, 1.2], [0.3, 0.1]), SpectralMeasure.bessel(3.0, 2),
     Grid(2, 16, 8.0)),
])
def test_solver_noise_is_sample_increment(idx, measure, grid):
    # one step from u0 = 0 with b = 0, sigma = 1 is S_dt applied to the
    # increment that sample_increment draws from the same stream
    dt, seed, rep = 0.01, 9, 2
    cfg = SolverConfig(idx=idx, measure=measure, grid=grid,
                       b=Coefficient.constant(0.0),
                       sigma=Coefficient.constant(1.0),
                       u0=0.0, dt=dt, T=dt, master_seed=seed)
    stepped = solve(cfg, rep).frames[-1].values
    inc = sample_increment(grid, measure, dt, RngStream(seed, rep, 0))
    expected = apply_semigroup(inc.field, idx, dt).values
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
    (Coefficient.linear(-0.5), Coefficient.constant(1.0), 150),  # per step
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
    # checked per step: None, 70, 97, 121, 112, 142, 82, 187, 131, 93
    (Coefficient.linear(8.0), range(2, 10)),
    (Coefficient.linear(8.0), [9, 2, 6, 0]),
    # every replicate fails: 75, 45, 46, 49, 61, 54, 35, 61, 53, 47
    (Coefficient.linear(10.0), range(10)),
    # checked per block: 73, 47, 29, 70, 71, 57, None, None, None, 48
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
    # 2**8 values are blocks of 2 or 4 steps, so a later row's failure
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
    # replicate 0 fails at step 75: no later step runs
    assert (exc.value.replicate_id, exc.value.step) == (0, 75)
    assert calls == [(10, 16)] * 75


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
    picard = replace(cfg, scheme="picard")
    assert [len(c) for c in _chunks(picard, 3, threads)] == [1, 1, 1]


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


def test_moment_estimate_rejects_picard_scheme(monkeypatch):
    import fracspde.solver

    calls = []
    monkeypatch.setattr(fracspde.solver, "_step_rows",
                        lambda *args: calls.append(args))
    with pytest.raises(ConfigurationError, match="exp_euler"):
        moment_estimate(_config(scheme="picard"), 2.0, 100)
    assert calls == []


def test_moment_estimate_requires_replicates():
    with pytest.raises(ConfigurationError):
        moment_estimate(_config(), 2.0, 10)
