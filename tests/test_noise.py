import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fracspde.errors import ConfigurationError, ConstraintViolationError
from fracspde.fields import Grid
from fracspde.noise import (
    RngStream,
    band_limited_covariance,
    empirical_covariance,
    sample_increments,
)
from fracspde.spectral_measure import SpectralMeasure

GRID = Grid(1, 64, 8.0)
WHITE = SpectralMeasure.white(1)
DT = 0.01


def _ensemble(measure, n, seed=0, grid=GRID, dt=DT, step=0):
    return sample_increments(grid, measure, dt, seed, range(n), step)


def test_white_noise_per_cell_variance():
    stack = _ensemble(WHITE, 10_000)
    target = DT / GRID.spacing
    est = stack.var()
    se = target * np.sqrt(2 / stack.size)
    assert abs(est - target) < 5 * se


def test_white_noise_cells_uncorrelated():
    cov = empirical_covariance(_ensemble(WHITE, 2_000), [1, 3, 7])
    for lag, (est, se) in cov.items():
        assert abs(est) < 5 * se + 1e-12


def test_lag_zero_matches_per_cell_variance():
    stack = _ensemble(WHITE, 500)
    cov = empirical_covariance(stack, [0])
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
    a = _ensemble(WHITE, n, step=0)[:, 7]
    b = _ensemble(WHITE, n, step=1)[:, 7]
    corr = np.corrcoef(a, b)[0, 1]
    assert abs(corr) < 4 / np.sqrt(n)


def test_gaussianity_excess_kurtosis():
    stack = _ensemble(WHITE, 10_000, seed=5, grid=Grid(1, 16, 2.0))
    z = (stack - stack.mean(0)) / stack.std(0)
    kurt = (z**4).mean(axis=0) - 3.0
    assert np.abs(kurt).max() < 0.15


def test_reproducibility_bit_identical():
    a = sample_increments(GRID, WHITE, DT, 42, [3], 7)
    b = sample_increments(GRID, WHITE, DT, 42, [3], 7)
    assert a.tobytes() == b.tobytes()


def test_distinct_streams_differ():
    a, c = sample_increments(GRID, WHITE, DT, 42, [0, 1], 0)
    b = sample_increments(GRID, WHITE, DT, 42, [0], 1)[0]
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


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
    incs = sample_increments(grid, measure, DT, 1, range(3), 4)
    assert incs.shape == (3,) + grid.shape
    for r, inc in enumerate(incs):
        white = RngStream(1, r, 4).generator().standard_normal(grid.shape)
        ref = scale * np.real(
            np.fft.fftn(sqrt_m * np.fft.fftn(white) / mode_norm))
        np.testing.assert_allclose(inc, np.fft.fftshift(ref),
                                   rtol=0, atol=1e-13)


@pytest.mark.parametrize("grid,measure,step", [
    (GRID, WHITE, 0),
    (GRID, SpectralMeasure.bessel(1.0, 1), 0),
    (Grid(1, 45, 8.0), SpectralMeasure.bessel(1.0, 1), 130),
    (Grid(2, 9, 4.0), SpectralMeasure.riesz(0.5, 2), 0),
    (Grid(3, 8, 4.0), SpectralMeasure.white(3), 0),
])
def test_batch_equals_one_replicate_at_a_time(grid, measure, step):
    ids = [0, 1, 2, 5, 300]
    batch = sample_increments(grid, measure, DT, 4, ids, step)
    for row, r in zip(batch, ids):
        alone = sample_increments(grid, measure, DT, 4, [r], step)
        assert alone.shape == (1,) + grid.shape
        assert row.tobytes() == alone[0].tobytes()


def test_increment_mean_zero():
    stack = _ensemble(WHITE, 10_000, seed=9)
    mean = stack.mean()
    se = stack.std() / np.sqrt(stack.size)
    assert abs(mean) < 4 * se


def test_2d_synthesis_variance():
    grid = Grid(2, 16, 4.0)
    stack = _ensemble(SpectralMeasure.white(2), 2000, grid=grid)
    target = DT / grid.cell_volume
    assert abs(stack.var() - target) < 5 * target * np.sqrt(2 / stack.size)


def test_riesz_zero_mode_suppressed():
    # increments of a measure with singular origin have exactly zero mean mode
    inc = _ensemble(SpectralMeasure.riesz(0.5, 1), 1)[0]
    assert inc.sum() == pytest.approx(0.0, abs=1e-12)


def test_tabulated_band_synthesizes_finite_increment():
    grid = Grid(1, 16, 4.0)
    m = SpectralMeasure.tabulated([0.0, 50.0], [1.0, 1.0], 1)
    assert np.all(np.isfinite(_ensemble(m, 1, grid=grid)))


def test_malformed_ensemble_rejected():
    # one axis (no grid), no rows, or fewer than 100 rows
    for increments in (np.zeros(200), np.zeros((0, 64)), np.zeros((99, 64))):
        with pytest.raises(ConfigurationError):
            empirical_covariance(increments, [0])


def test_small_ensemble_rejected():
    with pytest.raises(ConfigurationError):
        empirical_covariance(_ensemble(WHITE, 40), [0])


@pytest.mark.parametrize("d,lag", [
    (2, 1),  # a bare int is a 1-d lag
    (2, (1, 2, 3)),
    (2, (1,)),
    (1, (1, 2)),
    (1, 1.0),
    (1, True),
    (2, (1, 0.5)),
    (2, (True, 0)),
])
def test_lag_not_one_integer_per_axis_rejected(d, lag):
    incs = np.zeros((100,) + (8,) * d)
    with pytest.raises(ConfigurationError):
        empirical_covariance(incs, [0 if d == 1 else (0,) * d, lag])


def test_lags_of_each_form_accepted():
    grid = Grid(2, 8, 4.0)
    incs = _ensemble(SpectralMeasure.white(2), 100, grid=grid)
    cov = empirical_covariance(incs, [(1, 0), (np.int64(-1), 2)])
    assert list(cov) == [(1, 0), (np.int64(-1), 2)]
    one_d = _ensemble(WHITE, 100)
    assert empirical_covariance(one_d, [3])[3] == empirical_covariance(
        one_d, [(3,)])[(3,)]
    assert empirical_covariance(one_d, [np.int32(3)])[3] == \
        empirical_covariance(one_d, [3])[3]


def test_nonpositive_dt_rejected():
    for dt in (0.0, -0.01, np.inf, np.nan):
        with pytest.raises(ConfigurationError):
            sample_increments(GRID, WHITE, dt, 0, [0], 0)


@pytest.mark.parametrize("bad", [-1, 1.5, True, 2**64])
def test_increments_require_ids_and_a_step_integer_at_least_zero(bad):
    # each once reached numpy: -1 and 1.5 raised its errors, True drew 1;
    # 2**64 fits no 64-bit Philox key or counter word
    for seed, ids, step in ((bad, [0], 0), (0, [0, bad], 0), (0, [0], bad)):
        with pytest.raises(ConstraintViolationError, match="integer >= 0"):
            sample_increments(GRID, WHITE, DT, seed, ids, step)


def test_numpy_integer_ids_draw_plain_int_streams():
    want = sample_increments(GRID, WHITE, DT, 42, [3, 5], 130)
    got = sample_increments(GRID, WHITE, DT, np.uint32(42),
                            [np.int64(3), np.uint16(5)], np.int32(130))
    assert got.tobytes() == want.tobytes()
    big = 2**64 - 1
    want = RngStream(big, 3, big).generator().standard_normal(300)
    got = RngStream(np.uint64(big), np.int8(3), np.uint64(big)).generator()
    assert got.standard_normal(300).tobytes() == want.tobytes()


def _keyed_philox(master, rep, step):
    """numpy's Philox keyed by [master, rep] at counter [0, step, 0, 0]:
    a key or counter int is read as 64-bit words, lowest first."""
    return np.random.Generator(
        np.random.Philox(key=master | rep << 64, counter=step << 64))


_IDS = st.one_of(st.integers(0, 300), st.integers(0, 2**64 - 1),
                 st.integers(2**64 - 3, 2**64 - 1))


@pytest.mark.parametrize("master,rep,step", [
    (-1, 0, 0), (0, -1, 0), (0, 0, -1),
    (0.0, 0, 0), (1, 2.0, 0), (1, 0, 3.5),
])
def test_invalid_stream_ids_raise_like_seed_sequence(master, rep, step):
    # ids SeedSequence rejects are rejected as invalid input
    with pytest.raises(Exception):
        np.random.SeedSequence(master, spawn_key=(rep, step))
    with pytest.raises(ConstraintViolationError, match="integer >= 0"):
        RngStream(master, rep, step).generator()


@pytest.mark.parametrize("master,rep,step", [
    (1.5, 0, 0), (True, 1, 0), (1, True, 0), (1, 2, np.True_),
    (np.int64(-1), 0, 0), (0, np.int8(-3), 0),
    (2**64, 0, 0), (0, 2**64, 0), (0, 0, 2**64 + 5), (0, 0, -2**64),
])
def test_ids_a_uint64_array_would_take_are_rejected(master, rep, step):
    # np.array(..., np.uint64) silently takes 1.5, True and np.int64(-1),
    # and raises OverflowError from 2**64
    with pytest.raises(ConstraintViolationError, match="integer >= 0"):
        RngStream(master, rep, step).generator()


def test_interleaved_generators_draw_as_alone():
    a, b = RngStream(3, 1, 4), RngStream(3, 2, 4)
    alone = [s.generator().standard_normal(1000) for s in (a, b)]
    ga, gb = a.generator(), b.generator()
    parts = [(ga.standard_normal(100), gb.standard_normal(100))
             for _ in range(10)]
    for i in range(2):
        together = np.concatenate([p[i] for p in parts])
        assert together.tobytes() == alone[i].tobytes()


def _state_items(state):
    """Philox state as comparable (name, value) pairs."""
    inner = state["state"]
    return [("bit_generator", state["bit_generator"]),
            ("key", inner["key"].tolist()),
            ("counter", inner["counter"].tolist()),
            ("buffer", state["buffer"].tolist()),
            *((k, state[k]) for k in ("buffer_pos", "has_uint32",
                                      "uinteger"))]


@settings(max_examples=200, deadline=None)
@given(master=_IDS, rep=_IDS, step=_IDS)
def test_stream_state_equals_keyed_philox(master, rep, step):
    # the whole bit-generator state, not only the draws, at the start of
    # the stream and after a draw that leaves a uint32 buffered
    want = _keyed_philox(master, rep, step)
    got = RngStream(master, rep, step).generator()
    assert want.bit_generator.state["state"]["key"].tolist() == [master, rep]
    for _ in range(2):
        assert (_state_items(got.bit_generator.state)
                == _state_items(want.bit_generator.state))
        got.integers(0, 2**31, 3, dtype=np.uint32)
        want.integers(0, 2**31, 3, dtype=np.uint32)
    assert (got.standard_normal(300).tobytes()
            == want.standard_normal(300).tobytes())


@settings(max_examples=200, deadline=None)
@given(master=_IDS, rep=_IDS, step=_IDS)
def test_rekeyed_generator_equals_a_new_one(master, rep, step):
    # a generator that has drawn, its Philox buffer partly used and a
    # uint32 buffered, re-keyed is at the start of the named stream
    used = RngStream(7, 8, 9).generator()
    used.bit_generator.random_raw(5)
    used.integers(0, 2**31, 1, dtype=np.uint32)
    state = used.bit_generator.state
    assert 0 < state["buffer_pos"] < 4 and state["has_uint32"] == 1
    want = RngStream(master, rep, step).generator()
    got = RngStream(master, rep, step).generator(used)
    assert got is used
    assert (_state_items(got.bit_generator.state)
            == _state_items(want.bit_generator.state))
    assert (got.standard_normal(300).tobytes()
            == want.standard_normal(300).tobytes())


def test_spectra_builds_one_philox_per_call(monkeypatch):
    from fracspde.noise import _Synthesizer

    synth, built, philox = _Synthesizer(GRID, WHITE, DT), [], np.random.Philox

    def counted(*args, **kwargs):
        built.append(args)
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    for rows, steps in ((1, 1), (1, 130), (5, 1), (3, 7)):
        built.clear()
        synth.spectra(2, tuple(range(rows)), range(steps))
        assert len(built) == 1


@pytest.mark.parametrize("ids,draws", [
    ((0, 0, 0),
     [0.15929546600623282, -1.7741885208017214, 1.3265118818830892]),
    ((2**64 - 1, 2**32, 130),
     [-0.2846319298771764, -1.5376130525807334, -1.7638288946268175]),
])
def test_first_draws_of_a_stream_are_pinned(ids, draws):
    assert RngStream(*ids).generator().standard_normal(3).tolist() == draws


def test_generators_of_one_stream_advance_independently():
    stream = RngStream(3, 1, 4)
    first, second = stream.generator(), stream.generator()
    assert first is not second
    ahead = first.standard_normal(500)
    assert second.standard_normal(500).tobytes() == ahead.tobytes()
    assert (first.standard_normal(10).tobytes()
            == second.standard_normal(10).tobytes())


def test_spectra_row_is_the_named_stream():
    # row (r, k) is drawn from RngStream(master_seed, r, k)
    from fracspde.fields import _rfft
    from fracspde.noise import _Synthesizer

    synth = _Synthesizer(GRID, SpectralMeasure.bessel(3.0, 1), DT)
    ids, steps = (4, 1), (0, 9, 127, 128, 300)
    got = synth.spectra(3, ids, steps)
    assert got.shape == (2, 5, GRID.n_per_dim // 2 + 1)
    for rows, r in zip(got, ids):
        for row, k in zip(rows, steps):
            white = RngStream(3, r, k).generator().standard_normal(GRID.shape)
            want = synth.weight * np.conj(_rfft(white, GRID))
            assert row.tobytes() == want.tobytes()
