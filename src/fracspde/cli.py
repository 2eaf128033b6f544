"""Batch front-end: parse a JSON experiment config, run, write artifacts.

Subcommands
-----------
kernel     dump a Green-kernel profile plus its property-check report
measure    admissibility verdicts and the two-sided cumulative bound report
simulate   trajectories (binary frame dumps) plus a reproducibility manifest
holder     Hölder-exponent report from a fresh ensemble
density    Monte-Carlo law diagnostics and the variance-bound report

Every run writes ``manifest.json`` embedding the full config, tool
version and seed; rerunning an identical manifest reproduces artifacts
byte for byte, independent of --threads.  Validation failures exit 2,
numerical-consistency failures exit 3, with a machine-readable JSON error
on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .density import (_check_bound_inputs, kde, sample_law,
                      variance_bound_check)
from .errors import DivergenceError, FracspdeError, NumericalError, ValidationError
from .fields import FractionalIndex, Grid, write_array_binary
from .regularity import (_check_window_inputs, build_report,
                         estimate_spatial, estimate_temporal)
from .solver import Coefficient, SolverConfig, solve, solve_picard
from .spectral_measure import (
    SpectralMeasure,
    admissibility,
    critical_eta,
    cumulative_bound_check,
)
from .stable_kernel import kernel, write_kernel_csv

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer, np.bool_)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _dump_json(path: Path, payload):
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=_json_default)
        + "\n"
    )


def _load_config(path):
    try:
        cfg = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ValidationError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError(f"config {path} is not a JSON object")
    return cfg


@contextmanager
def _reading(what):
    """Report a config value of the wrong type or form as invalid input."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {what}: {exc}") from exc


def _parse_seed(cfg, override=None) -> int:
    seed = override if override is not None else cfg.get("seed", 0)
    if type(seed) is not int or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    return seed


def _parse_idx(cfg) -> FractionalIndex:
    with _reading("alpha/delta"):
        return FractionalIndex(cfg["alpha"], cfg.get("delta"))


def _parse_grid(cfg, d) -> Grid:
    with _reading("grid"):
        g = cfg["grid"]
        return Grid(d, int(g["n_per_dim"]), float(g["box_length"]))


def _parse_measure(cfg, d) -> SpectralMeasure:
    with _reading("measure"):
        spec = dict(cfg["measure"])
        kind = spec.pop("kind")
        makers = {
            "white": lambda: SpectralMeasure.white(d),
            "riesz": lambda: SpectralMeasure.riesz(spec["gamma"], d),
            "bessel": lambda: SpectralMeasure.bessel(spec["beta"], d),
            "free_field": lambda: SpectralMeasure.free_field(spec["mass"], d),
            "tabulated": lambda: SpectralMeasure.tabulated(
                spec["radii"], spec["values"], d
            ),
        }
        if kind not in makers:
            raise ValidationError(f"unknown measure kind {kind!r}")
        return makers[kind]()


# presets read their parameters when called, so at parse time
_U0_PRESETS = {
    "zero": lambda p: 0.0,
    "constant": lambda p: float(p.get("value", 1.0)),
    "cosine": lambda p: (
        lambda *xs, w=float(p.get("frequency", 1.0)): np.cos(w * xs[0])
    ),
    "gaussian_bump": lambda p: (
        lambda *xs, h=float(p.get("width", 1.0)): np.exp(
            -sum(x**2 for x in xs) / (2 * h ** 2))
    ),
}


def _parse_probe(cfg, key, grid: Grid):
    """Grid point ``cfg[key]`` (default: the centre), an index per axis."""
    value = cfg.get(key, [grid.n_per_dim // 2] * grid.d)
    probe = [value] if np.isscalar(value) else list(value)
    if len(probe) != grid.d or not all(
            type(i) is int and 0 <= i < grid.n_per_dim for i in probe):
        raise ValidationError(f"{key}={value!r} is not a point of the grid")
    return probe[0] if grid.d == 1 else tuple(probe)


def _parse_count(cfg, key, default) -> int:
    """``cfg[key]`` as a count >= 1."""
    with _reading(key):
        count = int(cfg.get(key, default))
    if count < 1:
        raise ValidationError(f"{key} must be >= 1, got {count}")
    return count


def _parse_u0(cfg):
    spec = dict(cfg.get("u0", {"preset": "zero"}))
    preset = spec.pop("preset")
    if preset not in _U0_PRESETS:
        raise ValidationError(f"unknown u0 preset {preset!r}")
    return _U0_PRESETS[preset](spec)


def _parse_solver_config(cfg, seed_override=None) -> SolverConfig:
    idx = _parse_idx(cfg)
    with _reading("solver config"):
        fields = dict(
            measure=_parse_measure(cfg, idx.d),
            grid=_parse_grid(cfg, idx.d),
            b=Coefficient.from_spec(cfg.get("b", {"preset": "constant",
                                                  "value": 0.0})),
            sigma=Coefficient.from_spec(cfg.get("sigma", {"preset": "constant",
                                                          "value": 1.0})),
            u0=_parse_u0(cfg),
            dt=float(cfg["dt"]),
            T=float(cfg["T"]),
            scheme=cfg.get("scheme", "exp_euler"),
            picard_max_iter=int(cfg.get("picard_max_iter", 200)),
            picard_tol=float(cfg.get("picard_tol", 1e-12)),
            master_seed=_parse_seed(cfg, seed_override),
            frame_stride=int(cfg.get("frame_stride", 1)),
        )
    return SolverConfig(idx=idx, **fields)


def _write_manifest(outdir: Path, command, cfg, seed):
    # thread count is deliberately not recorded: outputs do not depend on it
    _dump_json(outdir / "manifest.json", {
        "command": command,
        "config": cfg,
        "seed": seed,
        "version": __version__,
    })


def _run_kernel(cfg, outdir: Path, args):
    idx = _parse_idx(cfg)
    grid = _parse_grid(cfg, idx.d)
    with _reading("t"):
        t = float(cfg["t"])
    field, diag = kernel(idx, t, grid, return_diagnostics=True)
    report = diag.to_dict()
    report["normalization"] = "PASS" if abs(diag.mass - 1) < 1e-6 else "FAIL"
    vals = field.values
    if idx.d == 1:
        flipped = vals[1:][::-1]
        report["max_asymmetry"] = float(np.abs(vals[1:] - flipped).max())
    if args.format == "csv":
        write_kernel_csv(outdir / "kernel.csv", field, idx, t, diag)
    else:
        _dump_json(outdir / "kernel.json", {
            "axis": list(grid.axis_coordinates()),
            "values": vals.tolist(),
        })
    _dump_json(outdir / "kernel_report.json", report)
    return 0 if report["normalization"] == "PASS" else EXIT_NUMERICAL


def _run_measure(cfg, outdir: Path, args):
    idx = _parse_idx(cfg)
    measure = _parse_measure(cfg, idx.d)
    with _reading("eta/T"):
        etas = [float(e) for e in
                np.atleast_1d(cfg.get("eta", [0.25, 0.5, 0.75, 1.0]))]
        T = float(cfg.get("T", 1.0))
    reports = [admissibility(measure, idx, e).to_dict() for e in etas]
    payload = {"measure": measure.to_dict(), "admissibility": reports}
    try:
        bounds = cumulative_bound_check(idx, measure, T)
        payload["cumulative_bounds"] = bounds.to_dict()
    except DivergenceError as exc:
        payload["cumulative_bounds"] = {"skipped": str(exc)}
    _dump_json(outdir / "measure_report.json", payload)
    return 0


def _per_replicate(fn, n_rep, threads):
    """``[fn(rep) for rep in range(n_rep)]``, on ``threads`` threads."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, range(n_rep)))
    return [fn(rep) for rep in range(n_rep)]


def _run_simulate(cfg, outdir: Path, args):
    config = _parse_solver_config(cfg, args.seed)
    n_rep = _parse_count(cfg, "replicates", 1)
    runner = solve_picard if config.scheme == "picard" else solve

    def one(rep):
        path = runner(config, rep)
        fname = outdir / f"frames_{rep:04d}.bin"
        write_array_binary(fname, np.stack([f.values for f in path.frames]))
        return {"replicate": rep, "file": fname.name,
                "times": list(path.times),
                "final_sup": float(np.abs(path.frames[-1].values).max())}

    entries = _per_replicate(one, n_rep, args.threads)
    _dump_json(outdir / "frames_index.json", {"replicates": entries})
    return 0


def _run_holder(cfg, outdir: Path, args):
    config = _parse_solver_config(cfg, args.seed)
    eta_star = critical_eta(config.measure, config.idx)
    n_rep = _parse_count(cfg, "replicates", 200)
    with _reading("holder settings"):
        t_probe = float(cfg.get("t_probe", config.T))
        min_rep = int(cfg.get("min_replicates", min(n_rep, 200)))
        min_lag_steps = int(cfg.get("min_lag_steps", 2))
        min_lag_cells = int(cfg.get("min_lag_cells", 1))
        rho = float(cfg.get("rho", 0.99))
        x_probe = _parse_probe(cfg, "x_probe", config.grid)
        eta = float(cfg.get("eta", eta_star))
    _check_window_inputs(rho, eta)
    paths = _per_replicate(lambda rep: solve(config, rep), n_rep,
                           args.threads)
    temporal = estimate_temporal(
        paths, x_probe, min_replicates=min_rep, min_lag_steps=min_lag_steps,
    )
    spatial = estimate_spatial(
        paths, t_probe, min_replicates=min_rep, min_lag_cells=min_lag_cells,
    )
    report = build_report(temporal, spatial, config.idx, rho, eta)
    _dump_json(outdir / "holder_report.json", report.to_dict())
    if args.format == "csv":
        with open(outdir / "variogram.csv", "w") as fh:
            fh.write("kind,lag,moment\n")
            for kind, est in (("temporal", temporal), ("spatial", spatial)):
                for lag, mom in zip(est.lags, est.moments):
                    fh.write(f"{kind},{lag!r},{mom!r}\n")
    return 0


def _run_density(cfg, outdir: Path, args):
    config = _parse_solver_config(cfg, args.seed)
    eta_star = critical_eta(config.measure, config.idx)
    n = _parse_count(cfg, "n_samples", 2000)
    with _reading("density settings"):
        t = float(cfg.get("t", config.T))
        x = _parse_probe(cfg, "x", config.grid)
        thetas = cfg.get("thetas", [1.0, max(1.0 - eta_star, 0.05)])
        theta1, theta2 = (float(v) for v in thetas)
        rho_grid = [float(r) for r in cfg.get(
            "rho_grid", np.geomspace(1e-3, min(t, 1.0), 24))]
    _check_bound_inputs(t, (theta1, theta2), rho_grid)
    samples = sample_law(config, t, x, n)
    estimate = kde(samples)
    bounds = variance_bound_check(config.idx, config.measure, t,
                                  (theta1, theta2), rho_grid,
                                  eta_star=eta_star)
    if args.format == "csv":
        with open(outdir / "density.csv", "w") as fh:
            fh.write("point,density\n")
            for p, v in zip(estimate.grid_1d, estimate.values):
                fh.write(f"{p!r},{v!r}\n")
    else:
        _dump_json(outdir / "density.json", {
            "grid": list(estimate.grid_1d), "values": list(estimate.values),
        })
    _dump_json(outdir / "density_report.json", {
        "bandwidth": estimate.bandwidth,
        "derivative_bounds": list(estimate.derivative_bounds),
        "degenerate": estimate.degenerate,
        "eta_star": eta_star,
        "variance_bounds": bounds.to_dict(),
        "sample_mean": float(np.mean(samples)),
        "sample_variance": float(np.var(samples, ddof=1)),
    })
    return 0


_COMMANDS = {
    "kernel": _run_kernel,
    "measure": _run_measure,
    "simulate": _run_simulate,
    "holder": _run_holder,
    "density": _run_density,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracspde",
        description="batch experiments for fractional SPDE simulation",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config master seed")
    parser.add_argument("--threads", type=int, default=1)
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    return parser


def _fail(name, exc, code) -> int:
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.threads < 1:
            raise ValidationError(f"--threads={args.threads} must be >= 1")
        cfg = _load_config(args.config)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        seed = _parse_seed(cfg, args.seed)
        _write_manifest(outdir, args.command, cfg, seed)
        return _COMMANDS[args.command](cfg, outdir, args)
    except KeyError as exc:
        return _fail("MissingConfigKey", exc, EXIT_VALIDATION)
    except FracspdeError as exc:
        numerical = isinstance(exc, NumericalError)
        return _fail(type(exc).__name__, exc,
                     EXIT_NUMERICAL if numerical else EXIT_VALIDATION)


if __name__ == "__main__":
    sys.exit(main())
