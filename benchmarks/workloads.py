"""The three fracspde benchmark workloads.

Each workload has three phases:

``setup(seed, smoke, workdir)``
    Builds the inputs.  Counted in ``setup_s`` (measured in fresh
    interpreters by ``run.py``).
``run(inputs, api, ops, workdir)``
    The timed phase.  Every call into fracspde goes through ``api`` (see
    ``spans.entry_points``) and is counted as one operation in ``ops``.
``check(inputs, out, ops)``
    Output checks against oracles, run after the timer stops.  A check
    that does not hold marks the operation it checks as failed.

``info(out)`` returns ungated facts (digests, estimates) for the report.
``smoke`` selects reduced sizes that keep every phase, check and traced
layer but run in seconds.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import traceback
import warnings
from dataclasses import dataclass
from time import perf_counter

import numpy as np

import fracspde as fs
from fracspde.errors import AccuracyWarning
from fracspde.fields import (Field, Grid, read_array_binary, to_frequency,
                             to_physical)
from fracspde.spectral_measure import closed_form_critical_eta

# The law-additive ensemble is exactly Gaussian, so the KS p-value is
# uniform under correct code.  A run repeats this test on every
# repetition and the benchmark is run dozens of times per seed sweep; at
# the acceptance suite's 0.01 one correct run in a hundred would be
# reported wrong.  1e-3 keeps that below a few percent per sweep while
# still rejecting any visible departure from the exact discrete law.
KS_REJECT_P = 1e-3


class Ops:
    """Attempted and failed operation counts of one repetition."""

    def __init__(self):
        self.attempted = 0
        self.failed = set()
        self.checks = []

    def call(self, key, fn, *args, ok=None, **kwargs):
        """Run one operation; return its result, or None if it failed."""
        self.attempted += 1
        try:
            result = fn(*args, **kwargs)
        except Exception:  # an operation that raises is a counted failure
            self.failed.add(key)
            print(f"operation {key} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            return None
        if ok is not None and not ok(result):
            self.failed.add(key)
            print(f"operation {key} returned {result!r}", file=sys.stderr)
            return None
        return result

    def check(self, key, ok, detail=""):
        ok = bool(ok)
        self.checks.append((key, ok, detail))
        if not ok:
            self.failed.add(key)


# -- law-additive ---------------------------------------------------------------


@dataclass(frozen=True)
class _LawSizes:
    n: int
    dt: float
    T: float
    replicates: int
    probe: int


class Workload:
    def files_written(self, out):
        """(frame files, bytes) the timed phase left in its directory."""
        return 0, 0


class LawAdditive(Workload):
    name = "law-additive"
    sizes = {False: _LawSizes(256, 2e-3, 0.25, 512, 128),
             True: _LawSizes(64, 2e-3, 0.02, 512, 32)}

    def setup(self, seed, smoke, workdir):
        s = self.sizes[smoke]
        start = perf_counter()
        config = fs.SolverConfig(
            idx=fs.FractionalIndex([2.0], [0.0]),
            measure=fs.SpectralMeasure.white(1),
            grid=Grid(1, s.n, 16.0),
            b=fs.Coefficient.constant(0.0), sigma=fs.Coefficient.constant(1.0),
            u0=0.0, dt=s.dt, T=s.T, master_seed=seed, frame_stride=10**9,
        )
        return {"config": config, "config_s": perf_counter() - start,
                "sizes": s,
                "rho_grid": np.geomspace(1e-3, min(s.T, 1.0), 24)}

    def replicate_steps(self, inputs):
        return inputs["sizes"].replicates * inputs["config"].n_steps

    def run(self, inputs, api, ops, workdir):
        cfg, s = inputs["config"], inputs["sizes"]
        out = {"samples": ops.call("sample_law", api.sample_law, cfg, s.T,
                                   s.probe, s.replicates)}
        if out["samples"] is not None:
            out["kde"] = ops.call("kde", api.kde, out["samples"])
        else:
            ops.attempted += 1
            ops.failed.add("kde")
        eta_star = 0.5  # white noise, alpha = 2: sum of 1/alpha_i
        with warnings.catch_warnings():
            # eta* sits on the smoothness gate; the warning is expected
            warnings.simplefilter("ignore", AccuracyWarning)
            out["bounds"] = ops.call(
                "variance_bound_check", api.variance_bound_check,
                cfg.idx, cfg.measure, s.T, (1.0, 1.0 - eta_star),
                inputs["rho_grid"], eta_star=eta_star)
        return out

    def check(self, inputs, out, ops):
        cfg, s = inputs["config"], inputs["sizes"]
        samples = out["samples"]
        if samples is not None:
            var_exact = self.exact_variance(cfg)
            est = float(np.var(samples, ddof=1))
            se = est * math.sqrt(2 / (len(samples) - 1))
            allowance = 5 * se + math.sqrt(cfg.dt / s.T) * var_exact
            ops.check("sample_law", abs(est - var_exact) <= allowance,
                      f"variance {est:.5f} vs exact {var_exact:.5f} "
                      f"(allowance {allowance:.5f}, SE {se:.5f})")
            from scipy.stats import kstest
            p = kstest(samples, "norm", args=(0.0, math.sqrt(var_exact))).pvalue
            ops.check("sample_law", p > KS_REJECT_P,
                      f"KS p={p:.4f} against N(0, var_exact)")
            again = fs.sample_law(cfg, s.T, s.probe, 4)
            ops.check("sample_law", again.tobytes() == samples[:4].tobytes(),
                      "first 4 values repeat byte-for-byte")
        bounds = out["bounds"]
        if bounds is not None:
            ops.check("variance_bound_check",
                      bounds.c1 > 0 and math.isfinite(bounds.c2),
                      f"c1={bounds.c1:.5g} c2={bounds.c2:.5g}")

    @staticmethod
    def exact_variance(cfg):
        """Variance of the discrete scheme: per-mode geometric series."""
        grid = cfg.grid
        xi = grid.frequency_axis()
        dens = cfg.measure.density_on_lattice(grid)
        q = np.exp(-2 * cfg.dt * xi**2)
        n = cfg.n_steps
        with np.errstate(divide="ignore", invalid="ignore"):
            per_mode = np.where(q < 1, q * (1 - q**n) / (1 - q), float(n))
        return float((2 * np.pi / grid.box_length)
                     * (dens * cfg.dt * per_mode).sum())

    def info(self, out):
        samples = out["samples"]
        return {"samples_sha256": None if samples is None
                else hashlib.sha256(samples.tobytes()).hexdigest()}


# -- paths-multiplicative -------------------------------------------------------------


@dataclass(frozen=True)
class _PathSizes:
    n: int
    T: float
    simulate_replicates: int
    holder_replicates: int


class PathsMultiplicative(Workload):
    name = "paths-multiplicative"
    sizes = {False: _PathSizes(256, 0.256, 64, 100),
             True: _PathSizes(64, 0.128, 4, 8)}
    dt = 1e-3
    holder_threads = 2

    def _config(self, s, seed):
        return {
            "alpha": [1.5], "delta": [0.3],
            "grid": {"n_per_dim": s.n, "box_length": 16.0},
            "measure": {"kind": "riesz", "gamma": 0.5},
            "b": {"preset": "sine", "amplitude": 0.3},
            "sigma": {"preset": "affine", "slope": 0.2, "value": 1.0},
            "u0": {"preset": "zero"},
            "dt": self.dt, "T": s.T, "seed": seed, "frame_stride": 1,
        }

    def setup(self, seed, smoke, workdir):
        s = self.sizes[smoke]
        base = self._config(s, seed)
        simulate = dict(base, replicates=s.simulate_replicates)
        holder = dict(base, replicates=s.holder_replicates,
                      min_replicates=s.holder_replicates,
                      min_lag_steps=2, min_lag_cells=2)
        paths = {}
        for name, cfg in (("simulate", simulate), ("holder", holder)):
            paths[name] = workdir / f"{name}.json"
            paths[name].write_text(json.dumps(cfg))
        return {"sizes": s, "seed": seed, "configs": paths}

    def replicate_steps(self, inputs):
        s = inputs["sizes"]
        steps = int(round(s.T / self.dt))
        return (s.simulate_replicates + s.holder_replicates) * steps

    def run(self, inputs, api, ops, workdir):
        out = {"simulate": workdir / "simulate", "holder": workdir / "holder"}
        cfgs = inputs["configs"]
        out["simulate_ok"] = ops.call(
            "cli.simulate", api.cli,
            ["simulate", "--config", str(cfgs["simulate"]),
             "--out", str(out["simulate"]), "--threads", "1"],
            ok=lambda rc: rc == 0) is not None
        out["holder_ok"] = ops.call(
            "cli.holder", api.cli,
            ["holder", "--config", str(cfgs["holder"]),
             "--out", str(out["holder"]),
             "--threads", str(self.holder_threads)],
            ok=lambda rc: rc == 0) is not None
        return out

    def library_config(self, inputs):
        s = inputs["sizes"]
        return fs.SolverConfig(
            idx=fs.FractionalIndex([1.5], [0.3]),
            measure=fs.SpectralMeasure.riesz(0.5, 1), grid=Grid(1, s.n, 16.0),
            b=fs.Coefficient.sine(0.3), sigma=fs.Coefficient.affine(0.2, 1.0),
            u0=0.0, dt=self.dt, T=s.T, master_seed=inputs["seed"],
            frame_stride=1,
        )

    def check(self, inputs, out, ops):
        s = inputs["sizes"]
        if out["simulate_ok"]:
            cfg = self.library_config(inputs)
            for rep in (0, s.simulate_replicates - 1):
                stored = read_array_binary(
                    out["simulate"] / f"frames_{rep:04d}.bin")
                path = fs.solve(cfg, rep)
                again = np.stack([f.values for f in path.frames])
                ops.check("cli.simulate",
                          again.astype("<f8").tobytes() == stored.tobytes(),
                          f"replicate {rep} re-solved matches its frames "
                          "byte-for-byte")
            stored = read_array_binary(out["simulate"] / "frames_0000.bin")
            picard, residuals = fs.solve_picard(cfg, 0, return_trace=True)
            gap = float(np.abs(np.stack([f.values for f in picard.frames])
                               - stored).max())
            ops.check("cli.simulate", gap <= 1e-10,
                      f"solve_picard agrees to {gap:.2e} after "
                      f"{len(residuals)} sweeps")
        if out["holder_ok"]:
            report = json.loads(
                (out["holder"] / "holder_report.json").read_text())
            lo, hi = report["ci"]["gamma2"]
            limit = report["gamma2_max"] + 0.05 + (hi - lo) / 2
            ops.check("cli.holder", report["gamma2_hat"] <= limit,
                      f"spatial estimate {report['gamma2_hat']:.4f} <= "
                      f"{limit:.4f}")
            out["holder_report"] = report

    def files_written(self, out):
        frames = sorted(out["simulate"].glob("frames_*.bin"))
        return len(frames), sum(f.stat().st_size for f in frames)

    def info(self, out):
        frames = sorted(out["simulate"].glob("frames_*.bin"))
        h = hashlib.sha256()
        for f in frames:
            h.update(f.read_bytes())
        facts = {"frames_sha256": h.hexdigest()}
        report = out.get("holder_report")
        if report:
            # reported, not gated: at this horizon lags start at 2*dt and
            # the scheme scale, not the ceiling, sets the estimate
            facts["temporal_holder"] = {
                "gamma1_hat": report["gamma1_hat"],
                "gamma1_max": report["gamma1_max"],
                "ci": report["ci"]["gamma1"],
            }
        return facts


# -- spectral-analysis -------------------------------------------------------------------


def _random_index_1d(rng):
    alpha = float(rng.uniform(1.05, 1.95))
    span = min(alpha, 2 - alpha)
    delta = float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.8) * span)
    return fs.FractionalIndex([alpha], [delta])


def _random_index_2d(rng):
    a = rng.uniform(1.05, 1.95, size=2)
    d = [float(rng.choice([-1, 1]) * rng.uniform(0.3, 0.8) * min(ai, 2 - ai))
         for ai in a]
    return fs.FractionalIndex(a, d)


def _admissibility_matrix():
    """Acceptance-3 cases: (key, measure, idx, eta, method, expected)."""
    cases = []
    g2 = fs.FractionalIndex([2.0, 2.0], [0.0, 0.0])
    for gamma in (0.5, 1.0, 1.5):
        for eta in (0.3, 0.6, 0.9):
            cases.append((f"riesz {gamma} {eta}",
                          fs.SpectralMeasure.riesz(gamma, 2), g2, eta, "auto",
                          gamma < 2 * eta))
    for d, beta, eta, expect in [
        (2, 1.0, 0.6, True), (2, 1.0, 0.4, False),
        (1, 0.5, 0.3, True), (3, 1.0, 0.9, False), (3, 2.5, 0.3, True),
    ]:
        cases.append((f"bessel {d} {beta} {eta}",
                      fs.SpectralMeasure.bessel(beta, d),
                      fs.FractionalIndex([2.0] * d, [0.0] * d), eta, "auto",
                      expect))
    for d, eta, expect in [
        (1, 0.1, True), (2, 0.2, True), (3, 0.4, False), (3, 0.7, True),
        (4, 0.99, False), (4, 1.0, False),
    ]:
        cases.append((f"free_field {d} {eta}",
                      fs.SpectralMeasure.free_field(1.0, d),
                      fs.FractionalIndex([2.0] * d, [0.0] * d), eta, "auto",
                      expect))
    for alpha, eta, expect in [
        ([1.5], 0.6, False), ([1.5], 0.75, True),
        ([2.0], 0.499, False), ([2.0], 0.6, True), ([2.0, 2.0], 1.0, False),
    ]:
        cases.append((f"white {alpha} {eta}",
                      fs.SpectralMeasure.white(len(alpha)),
                      fs.FractionalIndex(alpha, [0.0] * len(alpha)), eta,
                      "auto", expect))
    return cases


def _quadrature_cases(n):
    """Acceptance-3 quadrature agreement cases at its frozen seed, 2% band
    around the critical parameter excluded."""
    rng = np.random.default_rng(99)
    cases = []
    while len(cases) < n:
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
        cases.append((f"quadrature {kind} d={d} eta={eta:.3f}", m, idx, eta,
                      "quadrature", eta > crit))
    return cases


def _cumulative_cases():
    return [
        (fs.FractionalIndex([2.0], [0.0]), fs.SpectralMeasure.white(1), 1.0),
        (fs.FractionalIndex([1.5], [0.5]), fs.SpectralMeasure.riesz(0.5, 1),
         1.0),
        (fs.FractionalIndex([1.5, 0.5], [0.4, 0.3]),
         fs.SpectralMeasure.bessel(2.0, 2), 0.5),
        (fs.FractionalIndex([2.0] * 3, [0.0] * 3),
         fs.SpectralMeasure.free_field(1.0, 3), 1.0),
        (fs.FractionalIndex([0.7], [-0.2]), fs.SpectralMeasure.bessel(0.8, 1),
         0.25),
    ]


@dataclass(frozen=True)
class _SpectralSizes:
    kernels_1d: int
    kernels_2d: int
    quadrature_cases: int
    weighted_exponents: tuple


class SpectralAnalysis(Workload):
    name = "spectral-analysis"
    sizes = {False: _SpectralSizes(10, 3, 20, (0.1, 0.2, 0.3)),
             True: _SpectralSizes(2, 1, 3, (0.1,))}
    cumulative_tol = 1e-6

    def setup(self, seed, smoke, workdir):
        s = self.sizes[smoke]
        rng = np.random.default_rng(seed)
        riesz_idx = fs.FractionalIndex([1.5], [0.3])
        aniso_idx = fs.FractionalIndex([1.5, 1.2], [0.3, 0.1])
        return {
            "grid_1d": Grid(1, 2048, 64.0),
            # acceptance 1 uses a 64 box; there about one seed in forty
            # draws an index (alpha near 1, strong skew) whose t=0.6 kernel
            # the 256-point band cannot resolve, and kernel() rightly
            # raises TruncationError.  A 32 box resolves every draw.
            "grid_2d": Grid(2, 256, 32.0),
            "kernels_1d": [_random_index_1d(rng) for _ in range(s.kernels_1d)],
            "kernels_2d": [_random_index_2d(rng) for _ in range(s.kernels_2d)],
            "matrix": (_admissibility_matrix()
                       + _quadrature_cases(s.quadrature_cases)),
            "cumulative": _cumulative_cases(),
            "riesz": (fs.SpectralMeasure.riesz(0.5, 1), riesz_idx),
            "aniso": (fs.SpectralMeasure.bessel(1.0, 2), aniso_idx),
            "weighted_exponents": s.weighted_exponents,
        }

    def replicate_steps(self, inputs):
        return 0

    def _kernel_trial(self, api, idx, grid):
        """Mass and Chapman-Kolmogorov gap of one index (acceptance 1)."""
        k1, diag = api.kernel(idx, 1.0, grid, return_diagnostics=True)
        ks, kt = api.kernel(idx, 0.6, grid), api.kernel(idx, 0.7, grid)
        hat = to_frequency(ks).values * to_frequency(kt).values
        conv = to_physical(Field(grid, hat, "frequency")).values.real
        ck = float(np.abs(conv - api.kernel(idx, 1.3, grid).values).max())
        return diag.mass, ck

    def run(self, inputs, api, ops, workdir):
        out = {"kernels": [], "matrix": [], "cumulative": []}
        for kind in ("1d", "2d"):
            grid = inputs[f"grid_{kind}"]
            for i, idx in enumerate(inputs[f"kernels_{kind}"]):
                key = f"kernel {kind}[{i}]"
                out["kernels"].append(
                    (key, ops.call(key, self._kernel_trial, api, idx, grid)))
        for key, m, idx, eta, method, expect in inputs["matrix"]:
            rep = ops.call(key, api.admissibility, m, idx, eta, method=method)
            out["matrix"].append((key, rep, expect))
        for i, (idx, m, T) in enumerate(inputs["cumulative"]):
            key = f"cumulative[{i}]"
            rep = ops.call(key, api.cumulative_bound_check, idx, m, T,
                           tol=self.cumulative_tol)
            out["cumulative"].append((key, rep))
        for name in ("riesz", "aniso"):
            m, idx = inputs[name]
            eta = ops.call(f"critical_eta {name}", api.critical_eta, m, idx)
            out[f"eta_{name}"] = eta
            for shift in (+0.05, -0.05):
                key = f"admissibility {name} eta*{shift:+.2f}"
                out[key] = (None if eta is None else
                            ops.call(key, api.admissibility, m, idx,
                                     eta + shift))
        m, idx = inputs["aniso"]
        key = "cumulative aniso"
        out["cumulative"].append(
            (key, ops.call(key, api.cumulative_bound_check, idx, m, 1.0,
                           tol=self.cumulative_tol)))
        out["weighted"] = [
            ops.call(f"weighted {p}", api.weighted_spectral_integral, idx, m,
                     p, 1.0)
            for p in inputs["weighted_exponents"]
        ]
        return out

    def check(self, inputs, out, ops):
        for key, result in out["kernels"]:
            if result is None:
                continue
            mass, ck = result
            ops.check(key, abs(mass - 1.0) <= 1e-6 and ck <= 1e-8,
                      f"mass-1 {mass - 1.0:.1e}, Chapman-Kolmogorov {ck:.1e}")
        for key, rep, expect in out["matrix"]:
            if rep is not None:
                ok = rep.admissible == expect and rep.conclusive
                ops.check(key, ok, f"verdict {rep.admissible}")
        tol = self.cumulative_tol
        for key, rep in out["cumulative"]:
            if rep is not None:
                ok = (rep.lower <= rep.integral * (1 + tol)
                      and rep.integral <= rep.upper * (1 + tol)
                      and rep.lower > 0)
                ops.check(key, ok, f"{rep.lower:.4g} <= {rep.integral:.4g} "
                                   f"<= {rep.upper:.4g}")
        m, idx = inputs["riesz"]
        eta = out["eta_riesz"]
        if eta is not None:
            target = m.gamma / idx.alpha[0]
            ops.check("critical_eta riesz", abs(eta - target) <= 0.01,
                      f"eta*={eta:.5f} vs gamma/alpha={target:.5f}")
        if out["eta_aniso"] is not None:
            above = out["admissibility aniso eta*+0.05"]
            below = out["admissibility aniso eta*-0.05"]
            if above is not None:
                ops.check("admissibility aniso eta*+0.05", above.admissible,
                          f"eta*+0.05 admissible: {above.admissible}")
            if below is not None:
                ops.check("admissibility aniso eta*-0.05", not below.admissible,
                          f"eta*-0.05 admissible: {below.admissible}")

    def info(self, out):
        return {
            "eta_riesz": out["eta_riesz"],
            "eta_aniso": out["eta_aniso"],
            "weighted_finite": [None if w is None else w.finite
                                for w in out["weighted"]],
        }


WORKLOADS = {w.name: w for w in (LawAdditive(), PathsMultiplicative(),
                                 SpectralAnalysis())}
