"""Batch front-end: parse a JSON experiment config, run, write artifacts.

Subcommands
-----------
kernel     dump a Green-kernel profile plus its property-check report
measure    admissibility verdicts and the two-sided cumulative bound report
simulate   trajectories (binary frame dumps) plus a reproducibility manifest
holder     Hölder-exponent report from a fresh ensemble
density    Monte-Carlo law diagnostics and the variance-bound report

``simulate`` and ``holder`` step their replicates in chunks; ``--threads
N`` runs the chunks on N forked worker processes (``solver._ensemble``).

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
from contextlib import ExitStack, contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .density import (_check_bound_inputs, kde, sample_law,
                      variance_bound_check)
from .errors import (ConfigurationError, ConstraintViolationError,
                     DivergenceError, FracspdeError, NumericalConsistencyError,
                     NumericalError, ValidationError)
from .fields import (FractionalIndex, Grid, _grid_point, _write_dump_entries,
                     _write_dump_header)
from .regularity import (_check_ensemble, _check_window_inputs,
                         _spatial_offsets, _temporal_window, build_report,
                         estimate_spatial, estimate_temporal)
from .solver import (MAX_CHUNK_ROWS, Coefficient, SolverConfig, _ensemble,
                     _frame_index, _picard_rows, _step_rows, _sweep_values)
# not called here since chunks are stepped together; kept as names of this
# module, which benchmarks/spans.py rebinds to trace them
from .fields import write_array_binary  # noqa: F401
from .solver import solve  # noqa: F401
from .spectral_measure import (
    _KINDS,
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


@contextmanager
def _in_float_range(what):
    """Report a float overflow or invalid operation in ``what`` as a
    numerical failure: far from 0 (u0 near 1e300) a squared spread or
    increment can overflow."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericalConsistencyError(
            f"{what} left the float range: {exc}") from exc


def _parse_seed(cfg, override=None) -> int:
    seed = override if override is not None else cfg.get("seed", 0)
    if type(seed) is not int or not 0 <= seed < 2**64:
        raise ValidationError(
            f"seed must be an integer >= 0 and < 2**64, got {seed!r}")
    return seed


def _parse_idx(cfg) -> FractionalIndex:
    delta = None if cfg.get("delta") is None else _parse_floats(cfg, "delta")
    with _reading("alpha/delta"):
        return FractionalIndex(_parse_floats(cfg, "alpha"), delta)


def _parse_grid(cfg, d) -> Grid:
    with _reading("grid"):
        g = cfg["grid"]
        return Grid(d, _parse_int(g, "n_per_dim"),
                    _parse_float(g, "box_length"))


def _gaussian_bump(h):
    if not h > 0:
        raise ValidationError(f"width must be > 0, got {h!r}")

    def bump(*xs):
        # far out on a wide box x**2 overflows to inf, and the bump is 0
        with np.errstate(over="ignore"):
            return np.exp(-sum(x**2 for x in xs) / (2 * h * h))
    return bump


# each slot's presets: a preset's builder and its parameters with their
# defaults, in argument order; a parameter whose default is None is required
_COEFFICIENT_PRESETS = {
    "constant": (Coefficient.constant, {"value": 0.0}),
    "linear": (Coefficient.linear, {"slope": 1.0}),
    "affine": (Coefficient.affine, {"slope": 1.0, "value": 0.0}),
    "sine": (Coefficient.sine, {"amplitude": 1.0, "frequency": 1.0}),
}
_U0_PRESETS = {
    "zero": (float, {}),
    "constant": (float, {"value": 1.0}),
    "cosine": (lambda w: lambda *xs: np.cos(w * xs[0]), {"frequency": 1.0}),
    "gaussian_bump": (_gaussian_bump, {"width": 1.0}),
}
# a kind's constructor takes its own parameters, then the dimension
_MEASURE_KINDS = {kind: (getattr(SpectralMeasure, kind), dict.fromkeys(names))
                  for kind, names in _KINDS.items()}


def _read_spec(spec, presets, what, key="preset", args=()):
    """``spec``, a ``{key: name, ...params}`` mapping, built by the preset
    ``name`` of ``presets`` from its parameters and then ``args``.  Every
    parameter given is read (``radii`` and ``values`` as lists of reals,
    any other as a real) before the preset is looked up, and one that the
    preset does not take is invalid; errors name the slot ``what``."""
    spec = dict(spec)
    params = {name: (_parse_floats if name in ("radii", "values")
                     else _parse_float)(spec, name)
              for name in spec if name != key}
    if key not in spec:
        raise ConfigurationError(f"{what} spec has no {key!r}")
    preset = spec[key]
    if preset not in presets:
        raise ConfigurationError(f"unknown {what} {key} {preset!r}")
    make, defaults = presets[preset]
    for name in params:
        if name not in defaults:
            raise ConfigurationError(
                f"{what} {key} {preset!r} takes no parameter {name!r}")
    return make(*(params[name] if default is None
                  else params.get(name, default)
                  for name, default in defaults.items()), *args)


def _parse_probe(cfg, key, grid: Grid):
    """Grid point ``cfg[key]`` (default: the centre), an index per axis."""
    value = cfg.get(key, [grid.n_per_dim // 2] * grid.d)
    try:
        return _grid_point(value, grid, key)
    except ConfigurationError as exc:  # reported as every malformed setting
        raise ValidationError(str(exc)) from None


def _parse_int(cfg, key, default=None, minimum=None) -> int:
    """``cfg[key]`` (required unless a ``default`` is given) as an int >=
    ``minimum``.  An integral float is read as one; a bool, a string or a
    fractional float is invalid rather than truncated."""
    value = cfg[key] if default is None else cfg.get(key, default)
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if type(value) is not int:
        raise ValidationError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{key} must be >= {minimum}, got {value}")
    return value


def _parse_float(cfg, key, default=None) -> float:
    """``cfg[key]`` (required unless a ``default`` is given) as a finite
    float.  An int is read as one; a bool, a string or a non-finite value
    is invalid rather than converted."""
    return _real(cfg[key] if default is None else cfg.get(key, default), key)


def _parse_floats(cfg, key, default=None) -> list:
    """``cfg[key]`` (required unless a ``default`` is given) as a list of
    finite floats, each read as ``_parse_float`` reads one; a single
    number is a list of one."""
    value = cfg[key] if default is None else cfg.get(key, default)
    return [_real(v, key) for v in
            (value if isinstance(value, list) else [value])]


def _real(value, key) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{key} must be a real number, got {value!r}")
    if not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{key} must be finite, got {value!r}")
    return float(value)


def _parse_solver_config(cfg, seed_override=None) -> SolverConfig:
    idx = _parse_idx(cfg)
    with _reading("solver config"):
        fields = dict(
            measure=_read_spec(cfg["measure"], _MEASURE_KINDS, "measure",
                               "kind", (idx.d,)),
            grid=_parse_grid(cfg, idx.d),
            b=_read_spec(cfg.get("b", {"preset": "constant"}),
                         _COEFFICIENT_PRESETS, "b"),
            sigma=_read_spec(cfg.get("sigma", {"preset": "constant",
                                               "value": 1.0}),
                             _COEFFICIENT_PRESETS, "sigma"),
            u0=_read_spec(cfg.get("u0", {"preset": "zero"}), _U0_PRESETS,
                          "u0"),
            dt=_parse_float(cfg, "dt"),
            T=_parse_float(cfg, "T"),
            picard_max_iter=_parse_int(cfg, "picard_max_iter", 200),
            picard_tol=_parse_float(cfg, "picard_tol", 1e-12),
            master_seed=_parse_seed(cfg, seed_override),
            frame_stride=_parse_int(cfg, "frame_stride", 1),
        )
    return SolverConfig(idx=idx, **fields)


def _parse_scheme(cfg, command) -> str:
    """``cfg["scheme"]``: "exp_euler" (the default; ``solve``'s stepper) or
    "picard" (``solve_picard``), which ``simulate`` alone runs."""
    scheme = cfg.get("scheme", "exp_euler")
    if scheme not in ("exp_euler", "picard"):
        raise ConstraintViolationError(f"unknown scheme {scheme!r}")
    if scheme == "picard" and command != "simulate":
        raise ConfigurationError(
            f"{command} runs the exp_euler scheme only, got {scheme!r}")
    return scheme


def _write_manifest(outdir: Path, command, cfg, seed):
    # the worker count (--threads) is deliberately not recorded: outputs do
    # not depend on it
    _dump_json(outdir / "manifest.json", {
        "command": command,
        "config": cfg,
        "seed": seed,
        "version": __version__,
    })


def _run_kernel(cfg, outdir: Path, args):
    idx = _parse_idx(cfg)
    grid = _parse_grid(cfg, idx.d)
    t = _parse_float(cfg, "t")
    field, diag = kernel(idx, t, grid, return_diagnostics=True)
    report = diag.to_dict()
    report["normalization"] = "PASS" if abs(diag.mass - 1) < 1e-6 else "FAIL"
    vals = field.values
    if idx.d == 1:
        flipped = vals[1:][::-1]
        report["max_asymmetry"] = float(np.abs(vals[1:] - flipped).max(
            initial=0.0))
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
    with _reading("measure"):
        measure = _read_spec(cfg["measure"], _MEASURE_KINDS, "measure",
                             "kind", (idx.d,))
    etas = _parse_floats(cfg, "eta", [0.25, 0.5, 0.75, 1.0])
    T = _parse_float(cfg, "T", 1.0)
    reports = [admissibility(measure, idx, e).to_dict() for e in etas]
    payload = {"measure": measure.to_dict(), "admissibility": reports}
    try:
        bounds = cumulative_bound_check(idx, measure, T)
        payload["cumulative_bounds"] = bounds.to_dict()
    except DivergenceError as exc:
        payload["cumulative_bounds"] = {"skipped": str(exc)}
    _dump_json(outdir / "measure_report.json", payload)
    return 0


def _run_simulate(cfg, outdir: Path, args):
    config = _parse_solver_config(cfg, args.seed)
    picard = _parse_scheme(cfg, "simulate") == "picard"
    n_rep = _parse_int(cfg, "replicates", 1, minimum=1)
    times = list(config._stored_times)
    files = [outdir / f"frames_{rep:04d}.bin" for rep in range(n_rep)]
    for f in outdir.glob("frames_*.bin"):  # an earlier run's extra replicates
        rep = f.name[len("frames_"):-len(".bin")]
        if (rep.isdecimal() and int(rep) >= n_rep
                and f.name == f"frames_{int(rep):04d}.bin"):
            f.unlink()

    def paths(ids):
        # each block's rows go straight to the replicates' frame files; a
        # Picard chunk is one block, swept to its fixed point first
        blocks = ([(0, _picard_rows(config, ids)[0])] if picard
                  else _step_rows(config, ids))
        with ExitStack() as stack:
            dumps = [stack.enter_context(open(files[r], "wb")) for r in ids]
            for fh in dumps:
                _write_dump_header(fh, (len(times),) + config.grid.shape)
            for _first, rows in blocks:
                for fh, frames in zip(dumps, rows):
                    _write_dump_entries(fh, frames)
        # the last block's last rows are the final frames
        final_sup = np.abs(rows[:, -1]).reshape(len(ids), -1).max(axis=1)
        return [{"replicate": rep, "file": files[rep].name, "times": times,
                 "final_sup": float(sup)} for rep, sup in zip(ids, final_sup)]

    try:
        chunks = _ensemble(config, n_rep, paths, args.threads,
                           _sweep_values(config) if picard else None)
    except BaseException:  # a failed run leaves no frame file or index
        for f in (*files, outdir / "frames_index.json"):
            f.unlink(missing_ok=True)
        raise
    entries = [entry for chunk in chunks for entry in chunk]
    _dump_json(outdir / "frames_index.json", {"replicates": entries})
    return 0


def _run_holder(cfg, outdir: Path, args):
    config = _parse_solver_config(cfg, args.seed)
    _parse_scheme(cfg, "holder")
    eta_star = critical_eta(config.measure, config.idx)
    n_rep = _parse_int(cfg, "replicates", 200, minimum=1)
    with _reading("holder settings"):
        t_probe = _parse_float(cfg, "t_probe", config.T)
        min_rep = _parse_int(cfg, "min_replicates", min(n_rep, 200))
        min_lag_steps = _parse_int(cfg, "min_lag_steps", 2)
        min_lag_cells = _parse_int(cfg, "min_lag_cells", 1)
        rho = _parse_float(cfg, "rho", 0.99)
        x_probe = _parse_probe(cfg, "x_probe", config.grid)
        eta = _parse_float(cfg, "eta", eta_star)
    _check_window_inputs(rho, eta)
    # what the estimators would refuse, refused before any solve
    times = config._stored_times
    row = _frame_index(times, t_probe)
    _check_ensemble(n_rep, min_rep)
    _temporal_window(times, min_lag_steps)
    _spatial_offsets(config.grid, min_lag_cells)

    at_probe = (slice(None), slice(None)) + x_probe

    def probes(ids):  # the chunk's rows of series and fields
        series = np.empty((len(ids), len(times)))
        for first, rows in _step_rows(config, ids):
            series[:, first:first + rows.shape[1]] = rows[at_probe]
            if first <= row < first + rows.shape[1]:
                fields = rows[:, row - first].copy()
        return series, fields

    series, fields = map(np.concatenate, zip(
        *_ensemble(config, n_rep, probes, args.threads)))
    with _in_float_range("the Hölder estimate"):
        temporal = estimate_temporal(
            series, times, min_replicates=min_rep,
            min_lag_steps=min_lag_steps,
        )
        spatial = estimate_spatial(
            fields, config.grid, min_replicates=min_rep,
            min_lag_cells=min_lag_cells,
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
    _parse_scheme(cfg, "density")
    eta_star = critical_eta(config.measure, config.idx)
    n = _parse_int(cfg, "n_samples", 2000, minimum=1)
    with _reading("density settings"):
        t = _parse_float(cfg, "t", config.T)
        x = _parse_probe(cfg, "x", config.grid)
        theta1, theta2 = _parse_floats(
            cfg, "thetas", [1.0, max(1.0 - eta_star, 0.05)])
        # no default grid below t = 0: the check below rejects the empty one
        default_rho = (np.geomspace(1e-3, min(t, 1.0), 24).tolist()
                       if t > 0 else [])
        rho_grid = _parse_floats(cfg, "rho_grid", default_rho)
    _check_bound_inputs(t, (theta1, theta2), rho_grid)
    samples = sample_law(config, t, x, n)
    with _in_float_range("the density estimate"):
        estimate = kde(samples)
        mean, variance = np.mean(samples), np.var(samples, ddof=1)
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
        "sample_mean": float(mean),
        "sample_variance": float(variance),
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
    parser.add_argument("--threads", type=int, default=1,
                        help="forked worker processes for the replicates")
    parser.add_argument("--format", choices=["csv", "json"], default="json")
    return parser


def _fail(name, exc, code) -> int:
    print(json.dumps({"error": name, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if not 1 <= args.threads <= MAX_CHUNK_ROWS:
            raise ValidationError(
                f"--threads={args.threads} must be in [1, {MAX_CHUNK_ROWS}]")
        if args.threads > 1:  # workers are forked (solver._ensemble)
            import multiprocessing
            if "fork" not in multiprocessing.get_all_start_methods():
                raise ValidationError(
                    f"--threads={args.threads} needs the 'fork' start "
                    "method, which this platform lacks; use --threads 1")
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
