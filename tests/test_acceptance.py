"""Acceptance suite: one test per quantitative exit criterion.

Each test prints a single PASS/FAIL line (visible with pytest -s or on
failure) and asserts at the stated tolerance.  The statistical criteria
run at frozen seeds, so the whole suite is deterministic.
"""

import json
import math
import warnings

import numpy as np
from scipy.stats import kstest

import fracspde as fs
from fracspde.fields import Field, Grid, to_frequency, to_physical
from fracspde.noise import band_limited_covariance


def _report(num, name, ok, detail=""):
    line = f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def _random_index_1d(rng):
    alpha = float(rng.uniform(1.05, 1.95))
    span = min(alpha, 2 - alpha)
    delta = float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.8) * span)
    return fs.FractionalIndex([alpha], [delta])


# -- 1. kernel identity suite --------------------------------------------------

def test_criterion_1_kernel_identities():
    rng = np.random.default_rng(2024)
    grid = Grid(1, 2048, 64.0)
    failures = []

    for trial in range(10):
        idx = _random_index_1d(rng)
        alpha, delta = idx.alpha[0], idx.delta[0]
        k1, diag = fs.kernel(idx, 1.0, grid, return_diagnostics=True)
        if abs(diag.mass - 1.0) > 1e-6:
            failures.append(f"mass {trial}")
        # Chapman-Kolmogorov: convolution of 0.6 and 0.7 kernels vs 1.3
        ks_, kt = fs.kernel(idx, 0.6, grid), fs.kernel(idx, 0.7, grid)
        hat = to_frequency(ks_).values * to_frequency(kt).values
        conv = to_physical(Field(grid, hat, "frequency")).values.real
        if np.abs(conv - fs.kernel(idx, 1.3, grid).values).max() > 1e-8:
            failures.append(f"chapman-kolmogorov {trial}")
        # scaling identity at t = 0.35
        t = 0.35
        s = t ** (-1 / alpha)
        k_t = fs.kernel(idx, t, grid).values
        k_ref = fs.kernel(idx, 1.0, Grid(1, 2048, 64.0 * s)).values
        if np.abs(k_t - s * k_ref).max() / k_t.max() > 1e-6:
            failures.append(f"scaling {trial}")
        # tail-bound fit on [1, L/4], constant fitted on [1, L/8]
        x = grid.axis_coordinates()
        v = k1.values
        inner = (np.abs(x) >= 1) & (np.abs(x) <= grid.box_length / 8)
        outer = (np.abs(x) >= 1) & (np.abs(x) <= grid.box_length / 4)
        c = (v[inner] * (1 + np.abs(x[inner]) ** (1 + alpha))).max()
        if not (c > 0 and np.all(
            v[outer] <= 1.05 * c / (1 + np.abs(x[outer]) ** (1 + alpha))
        )):
            failures.append(f"tail {trial}")
        # skewed kernels are visibly asymmetric
        if np.abs(v[1:] - v[1:][::-1]).max() <= 1e-6:
            failures.append(f"asymmetry {trial}")

    grid2 = Grid(2, 256, 64.0)
    for trial in range(3):
        a = rng.uniform(1.05, 1.95, size=2)
        d = [float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.8)
                   * min(ai, 2 - ai)) for ai in a]
        idx = fs.FractionalIndex(a, d)
        k1, diag = fs.kernel(idx, 1.0, grid2, return_diagnostics=True)
        if abs(diag.mass - 1.0) > 1e-6:
            failures.append(f"2d mass {trial}")
        ks_, kt = fs.kernel(idx, 0.6, grid2), fs.kernel(idx, 0.7, grid2)
        hat = to_frequency(ks_).values * to_frequency(kt).values
        conv = to_physical(Field(grid2, hat, "frequency")).values.real
        if np.abs(conv - fs.kernel(idx, 1.3, grid2).values).max() > 1e-8:
            failures.append(f"2d chapman-kolmogorov {trial}")
        v = k1.values
        if np.abs(v[1:, 1:] - v[1:, 1:][::-1, ::-1]).max() <= 1e-6:
            failures.append(f"2d asymmetry {trial}")

    _report(1, "kernel identities", not failures, str(failures))


# -- 2. gaussian degeneracy ------------------------------------------------------

def test_criterion_2_gaussian_degeneracy():
    grid = Grid(1, 4096, 32.0)
    t = 1.0
    field = fs.kernel(fs.FractionalIndex([2.0], [0.0]), t, grid)
    x = grid.axis_coordinates()
    exact = (4 * np.pi * t) ** -0.5 * np.exp(-(x**2) / (4 * t))
    sup = float(np.abs(field.values - exact).max())
    _report(2, "gaussian degeneracy", sup < 1e-8, f"sup={sup:.2e}")


# -- 3. admissibility matrix ------------------------------------------------------

def test_criterion_3_admissibility_matrix():
    failures = []
    g2 = fs.FractionalIndex([2.0, 2.0], [0.0, 0.0])

    # riesz: admissible iff gamma < 2 eta (gamma < d by construction)
    for gamma in (0.5, 1.0, 1.5):
        for eta in (0.3, 0.6, 0.9):
            rep = fs.admissibility(fs.SpectralMeasure.riesz(gamma, 2), g2, eta)
            if rep.admissible != (gamma < 2 * eta):
                failures.append(f"riesz {gamma} {eta}")
    # bessel: admissible iff eta > (d - beta)+/2
    for d, beta, eta, expect in [
        (2, 1.0, 0.6, True), (2, 1.0, 0.4, False),
        (1, 0.5, 0.3, True), (3, 1.0, 0.9, False), (3, 2.5, 0.3, True),
    ]:
        idx = fs.FractionalIndex([2.0] * d, [0.0] * d)
        rep = fs.admissibility(fs.SpectralMeasure.bessel(beta, d), idx, eta)
        if rep.admissible != expect:
            failures.append(f"bessel {d} {beta} {eta}")
    # free field: d <= 2 always, d = 3 above 1/2, d >= 4 never
    for d, eta, expect in [
        (1, 0.1, True), (2, 0.2, True), (3, 0.4, False), (3, 0.7, True),
        (4, 0.99, False), (4, 1.0, False),
    ]:
        idx = fs.FractionalIndex([2.0] * d, [0.0] * d)
        rep = fs.admissibility(fs.SpectralMeasure.free_field(1.0, d), idx, eta)
        if rep.admissible != expect:
            failures.append(f"free_field {d} {eta}")
    # white noise: admissible iff eta > sum 1/alpha_i
    for alpha, eta, expect in [
        ([1.5], 0.6, False), ([1.5], 0.75, True),
        ([2.0], 0.499, False), ([2.0], 0.6, True), ([2.0, 2.0], 1.0, False),
    ]:
        idx = fs.FractionalIndex(alpha, [0.0] * len(alpha))
        rep = fs.admissibility(fs.SpectralMeasure.white(len(alpha)), idx, eta)
        if rep.admissible != expect:
            failures.append(f"white {alpha} {eta}")

    # quadrature agreement outside a 2% band around the critical parameter
    from fracspde.spectral_measure import closed_form_critical_eta

    rng = np.random.default_rng(99)
    agree = checked = 0
    while checked < 20:
        d = int(rng.integers(1, 3))
        idx = fs.FractionalIndex([2.0] * d, [0.0] * d)
        kind = rng.choice(["riesz", "bessel", "white", "free_field"])
        if kind == "riesz":
            m = fs.SpectralMeasure.riesz(rng.uniform(0.2, d - 0.05), d)
        elif kind == "bessel":
            m = fs.SpectralMeasure.bessel(rng.uniform(0.3, d + 1.0), d)
        elif kind == "free_field":
            m = fs.SpectralMeasure.free_field(rng.uniform(0.5, 2.0), d)
        else:
            m = fs.SpectralMeasure.white(d)
        eta = float(rng.uniform(0.05, 1.0))
        crit = closed_form_critical_eta(m, idx)
        if abs(eta - crit) <= 0.02 * max(crit, 1.0):
            continue
        rep = fs.admissibility(m, idx, eta, method="quadrature")
        checked += 1
        if rep.conclusive and rep.admissible == (eta > crit):
            agree += 1
        else:
            failures.append(
                f"quadrature mismatch {kind} d={d} eta={eta:.3f} crit={crit:.3f}"
            )

    _report(3, "admissibility matrix", not failures,
            f"{agree}/{checked} quadrature agreements; {failures}")


# -- 4. cumulative bound sandwich ---------------------------------------------------

def test_criterion_4_cumulative_bound_sandwich():
    cases = [
        (fs.FractionalIndex([2.0], [0.0]), fs.SpectralMeasure.white(1), 1.0),
        (fs.FractionalIndex([1.5], [0.5]), fs.SpectralMeasure.riesz(0.5, 1), 1.0),
        (fs.FractionalIndex([1.5, 0.5], [0.4, 0.3]),
         fs.SpectralMeasure.bessel(2.0, 2), 0.5),
        (fs.FractionalIndex([2.0] * 3, [0.0] * 3),
         fs.SpectralMeasure.free_field(1.0, 3), 1.0),
        (fs.FractionalIndex([0.7], [-0.2]), fs.SpectralMeasure.bessel(0.8, 1),
         0.25),
    ]
    tol = 1e-6
    details = []
    ok = True
    for idx, m, T in cases:
        rep = fs.cumulative_bound_check(idx, m, T, tol=tol)
        good = (rep.lower <= rep.integral * (1 + tol)
                and rep.integral <= rep.upper * (1 + tol) and rep.lower > 0)
        ok &= good
        details.append(f"{m.kind}: {rep.lower:.4g}<={rep.integral:.4g}"
                       f"<={rep.upper:.4g}")
    _report(4, "cumulative bound sandwich", ok, "; ".join(details))


# -- 5. noise validation --------------------------------------------------------------

def test_criterion_5_noise_validation():
    grid = Grid(1, 64, 8.0)
    dt = 0.01
    n_rep = 10_000
    failures = []

    white = fs.SpectralMeasure.white(1)
    stack = fs.sample_increments(grid, white, dt, 7, range(n_rep), 0)
    target = dt / grid.spacing
    se = target * math.sqrt(2 / stack.size)
    if abs(stack.var() - target) > 5 * se:
        failures.append(f"white variance {stack.var():.5g} vs {target:.5g}")

    bessel = fs.SpectralMeasure.bessel(1.0, 1)
    incs_b = fs.sample_increments(grid, bessel, dt, 8, range(n_rep), 0)
    oracle = band_limited_covariance(grid, bessel) * dt
    cov = fs.empirical_covariance(incs_b, [0, 1, 2, 4, 8])
    for lag, (est, se_l) in cov.items():
        if abs(est - oracle[lag]) > 5 * se_l:
            failures.append(f"bessel lag {lag}")

    a = stack[:, 11]
    b = fs.sample_increments(grid, white, dt, 7, range(n_rep), 1)[:, 11]
    corr = float(np.corrcoef(a, b)[0, 1])
    if abs(corr) > 4 / math.sqrt(n_rep):
        failures.append(f"time-whiteness corr={corr:.4f}")

    _report(5, "noise validation", not failures, str(failures))


# -- 6. solver oracles -----------------------------------------------------------------

def test_criterion_6_solver_oracles():
    gauss = fs.FractionalIndex([2.0], [0.0])
    white = fs.SpectralMeasure.white(1)
    failures = []

    # (a) noise-free run reproduces the semigroup flow to 1e-10
    cfg = fs.SolverConfig(
        idx=gauss, measure=white, grid=Grid(1, 256, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(0.0),
        u0=lambda x: np.cos(x) + 0.3 * np.sin(2 * x), dt=0.01, T=0.2,
    )
    path = fs.solve(cfg, 0)
    gap = max(
        np.abs(f.values
               - fs.smooth_initial(cfg.u0, gauss, t, cfg.grid).values).max()
        for t, f in zip(path.times, path.frames)
    )
    if gap > 1e-10:
        failures.append(f"noise-free gap {gap:.2e}")

    # (b) additive-noise variance matches sqrt(t / 2 pi)
    t = 0.25
    cfg_v = fs.SolverConfig(
        idx=gauss, measure=white, grid=Grid(1, 512, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
        u0=0.0, dt=1e-3, T=t, master_seed=11, frame_stride=10**9,
    )
    n_rep = 1000
    vals = np.array([fs.solve(cfg_v, r).frames[-1].values[256]
                     for r in range(n_rep)])
    est = float(vals.var(ddof=1))
    target = math.sqrt(t / (2 * math.pi))
    se = est * math.sqrt(2 / (n_rep - 1))
    bias_allowance = math.sqrt(cfg_v.dt / t) * target
    if abs(est - target) > 5 * se + bias_allowance:
        failures.append(f"variance {est:.4f} vs {target:.4f}")

    # (c) fixed-point and stepping schemes agree on shared noise, and the
    # gap vanishes at least like dt^0.8 under refinement (exact agreement
    # counts as converged)
    gaps = []
    for dt in (4e-3, 2e-3):
        cfg_p = fs.SolverConfig(
            idx=gauss, measure=white, grid=Grid(1, 256, 16.0),
            b=fs.Coefficient.sine(0.5), sigma=fs.Coefficient.affine(0.3, 1.0),
            u0=lambda x: np.cos(x), dt=dt, T=0.2, master_seed=3,
        )
        pe, pp = fs.solve(cfg_p, 0), fs.solve_picard(cfg_p, 0)
        gaps.append(max(np.abs(a.values - b.values).max()
                        for a, b in zip(pe.frames, pp.frames)))
    floor = 1e-10
    if max(gaps) >= floor:
        order = math.log2(gaps[0] / gaps[1])
        if order < 0.8:
            failures.append(f"scheme agreement order {order:.2f}")
        detail = f"gaps {gaps[0]:.1e}/{gaps[1]:.1e} order {order:.2f}"
    else:
        detail = f"schemes agree to {max(gaps):.1e} (below {floor:.0e} floor)"

    _report(6, "solver oracles", not failures,
            f"{detail}; {failures}" if failures else detail)


# -- 7. Hölder windows --------------------------------------------------------------------

def test_criterion_7_holder_windows():
    failures = []
    n_rep = 200
    gauss = fs.FractionalIndex([2.0], [0.0])
    white = fs.SpectralMeasure.white(1)

    # temporal, stochastic heat: estimate in [0.2, 0.3]
    cfg_t = fs.SolverConfig(
        idx=gauss, measure=white, grid=Grid(1, 256, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
        u0=0.0, dt=5e-4, T=1.024, master_seed=101,
    )
    tem = fs.estimate_temporal(
        [fs.solve(cfg_t, r).values_at(128) for r in range(n_rep)],
        cfg_t._stored_times, min_lag_steps=32,
    )
    if not 0.2 <= tem.value <= 0.3:
        failures.append(f"temporal {tem.value:.3f} outside [0.2, 0.3]")

    # spatial, stochastic heat: estimate in [0.4, 0.55]
    cfg_s = fs.SolverConfig(
        idx=gauss, measure=white, grid=Grid(1, 512, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
        u0=0.0, dt=1.25e-4, T=0.125, master_seed=102, frame_stride=10**9,
    )
    spa = fs.estimate_spatial(
        [fs.solve(cfg_s, r).frame_at(cfg_s.T).values for r in range(n_rep)],
        cfg_s.grid, min_lag_cells=2,
    )
    if not 0.4 <= spa.value <= 0.55:
        failures.append(f"spatial {spa.value:.3f} outside [0.4, 0.55]")

    # consistency with the theoretical ceilings at the critical exponent
    g1_max, g2_max = fs.theoretical_exponents(gauss, 0.99, 0.5 + 1e-9)
    allow = 0.05
    if tem.value > g1_max + allow + (tem.ci_high - tem.value):
        failures.append("temporal exceeds ceiling")
    if spa.value > g2_max + allow + (spa.ci_high - spa.value):
        failures.append("spatial exceeds ceiling")

    # fractional case: alpha=1.5, delta=0.3, riesz gamma=0.5
    idx_f = fs.FractionalIndex([1.5], [0.3])
    riesz = fs.SpectralMeasure.riesz(0.5, 1)
    eta_star = fs.critical_eta(riesz, idx_f)
    f1_max, f2_max = fs.theoretical_exponents(idx_f, 0.99, eta_star)
    cfg_ft = fs.SolverConfig(
        idx=idx_f, measure=riesz, grid=Grid(1, 256, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
        u0=0.0, dt=5e-4, T=1.024, master_seed=103,
    )
    tem_f = fs.estimate_temporal(
        [fs.solve(cfg_ft, r).values_at(128) for r in range(n_rep)],
        cfg_ft._stored_times, min_lag_steps=32,
    )
    cfg_fs = fs.SolverConfig(
        idx=idx_f, measure=riesz, grid=Grid(1, 512, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
        u0=0.0, dt=1.25e-4, T=0.125, master_seed=104, frame_stride=10**9,
    )
    spa_f = fs.estimate_spatial(
        [fs.solve(cfg_fs, r).frame_at(cfg_fs.T).values for r in range(n_rep)],
        cfg_fs.grid, min_lag_cells=2,
    )
    if tem_f.value > f1_max + allow + (tem_f.ci_high - tem_f.value):
        failures.append(
            f"fractional temporal {tem_f.value:.3f} vs ceiling {f1_max:.3f}")
    if spa_f.value > f2_max + allow + (spa_f.ci_high - spa_f.value):
        failures.append(
            f"fractional spatial {spa_f.value:.3f} vs ceiling {f2_max:.3f}")

    detail = (f"heat ({tem.value:.3f}, {spa.value:.3f}) vs (1/4, 1/2); "
              f"fractional ({tem_f.value:.3f}, {spa_f.value:.3f}) vs "
              f"ceilings ({f1_max:.3f}, {f2_max:.3f})")
    _report(7, "holder windows", not failures,
            f"{detail}; {failures}" if failures else detail)


# -- 8. density diagnostics -------------------------------------------------------------------

def test_criterion_8_density_diagnostics():
    gauss = fs.FractionalIndex([2.0], [0.0])
    white = fs.SpectralMeasure.white(1)
    failures = []

    t = 0.25
    cfg = fs.SolverConfig(
        idx=gauss, measure=white, grid=Grid(1, 512, 16.0),
        b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
        u0=0.0, dt=1e-3, T=t, master_seed=17, frame_stride=10**9,
    )
    samples = fs.sample_law(cfg, t, 256, 2000)

    # exact law of the discrete scheme: centered gaussian whose variance is
    # the lattice sum of per-mode geometric series
    grid = cfg.grid
    xi = grid.frequency_axis()
    dens = white.density_on_lattice(grid)
    q = np.exp(-2 * cfg.dt * xi**2)
    n_steps = cfg.n_steps
    with np.errstate(divide="ignore", invalid="ignore"):
        per_mode = np.where(q < 1, q * (1 - q**n_steps) / (1 - q),
                            float(n_steps))
    var_exact = float((2 * np.pi / grid.box_length)
                      * (dens * cfg.dt * per_mode).sum())
    target = math.sqrt(t / (2 * math.pi))
    if abs(var_exact - target) > 0.10 * target:
        failures.append("discrete variance drifted from closed form")
    stat = kstest(samples, "norm", args=(0.0, math.sqrt(var_exact)))
    if stat.pvalue <= 0.01:
        failures.append(f"KS p={stat.pvalue:.4f}")

    # two-sided variance control, stable under quadrature refinement
    eta_star = 0.5
    rho_grid = np.geomspace(1e-3, 1.0, 24)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = fs.variance_bound_check(gauss, white, 1.0, (1.0, 1 - eta_star),
                                      rho_grid, eta_star=eta_star)
        fine = fs.variance_bound_check(gauss, white, 1.0, (1.0, 1 - eta_star),
                                       rho_grid, eta_star=eta_star,
                                       n_radial=48)
    if not (rep.c1 > 0 and math.isfinite(rep.c2)):
        failures.append("no admissible constants")
    if abs(rep.c1 - fine.c1) > 0.10 * fine.c1 or \
            abs(rep.c2 - fine.c2) > 0.10 * fine.c2:
        failures.append("constants unstable under refinement")

    _report(8, "density diagnostics", not failures,
            f"KS p={stat.pvalue:.3f}, c1={rep.c1:.4f}, c2={rep.c2:.4f}"
            + ("; " + str(failures) if failures else ""))


# -- 9. reproducibility ------------------------------------------------------------------------

def test_criterion_9_reproducibility(tmp_path):
    from fracspde.cli import main

    cfg = {
        "alpha": [1.5], "delta": [0.3],
        "grid": {"n_per_dim": 128, "box_length": 16.0},
        "measure": {"kind": "riesz", "gamma": 0.5},
        "b": {"preset": "sine", "amplitude": 0.3},
        "sigma": {"preset": "affine", "slope": 0.2, "value": 1.0},
        "u0": {"preset": "cosine"},
        "dt": 0.005, "T": 0.1, "replicates": 4, "seed": 77,
        "frame_stride": 4,
    }
    cfg_path = tmp_path / "sim.json"
    cfg_path.write_text(json.dumps(cfg))

    outs = []
    for name, threads in [("a", "1"), ("b", "1"), ("c", "4")]:
        rc = main(["simulate", "--config", str(cfg_path),
                   "--out", str(tmp_path / name), "--threads", threads])
        assert rc == 0
        outs.append(tmp_path / name)

    names = ["manifest.json", "frames_index.json"] + [
        f"frames_{r:04d}.bin" for r in range(4)
    ]
    identical = all(
        (outs[0] / f).read_bytes() == (other / f).read_bytes()
        for other in outs[1:] for f in names
    )
    _report(9, "reproducibility", identical,
            "byte-identical across reruns and thread counts")
