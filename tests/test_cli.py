import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import fracspde.cli
from fracspde.cli import main
from fracspde.fields import read_array_binary


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def _solver_config(path):
    return fracspde.cli._parse_solver_config(json.loads(Path(path).read_text()))


def _kernel_cfg(tmp_path, **over):
    cfg = {
        "alpha": [1.5], "delta": [0.3], "t": 1.0,
        "grid": {"n_per_dim": 256, "box_length": 64.0},
    }
    cfg.update(over)
    return _write(tmp_path, "kernel.json", cfg)


def _sim_cfg(tmp_path, **over):
    cfg = {
        "alpha": [2.0],
        "grid": {"n_per_dim": 64, "box_length": 8.0},
        "measure": {"kind": "white"},
        "sigma": {"preset": "constant", "value": 1.0},
        "u0": {"preset": "zero"},
        "dt": 0.01, "T": 0.1, "replicates": 3, "seed": 11,
        "frame_stride": 5,
    }
    cfg.update(over)
    return _write(tmp_path, "sim.json", cfg)


# a holder config whose windows fit (4 temporal and 4 spatial scales)
_HOLDER_OK = {"frame_stride": 1, "T": 1.28}


def test_kernel_command_reports_pass(tmp_path):
    rc = main(["kernel", "--config", _kernel_cfg(tmp_path),
               "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "kernel_report.json").read_text())
    assert report["normalization"] == "PASS"
    assert report["max_asymmetry"] > 1e-3
    manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
    assert manifest["command"] == "kernel"
    assert "version" in manifest


def test_kernel_command_csv_format(tmp_path):
    rc = main(["kernel", "--config", _kernel_cfg(tmp_path),
               "--out", str(tmp_path / "o"), "--format", "csv"])
    assert rc == 0
    lines = (tmp_path / "o" / "kernel.csv").read_text().splitlines()
    assert lines[0].startswith("# {")
    meta = json.loads(lines[0][2:])
    assert meta["alpha"] == [1.5]


def test_kernel_command_validation_failure(tmp_path):
    path = _kernel_cfg(tmp_path, alpha=[1.0])
    rc = main(["kernel", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_measure_command_free_field(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "alpha": [2, 2, 2, 2],
        "measure": {"kind": "free_field", "mass": 1.0},
        "eta": [0.3, 0.7, 1.0],
        "T": 1.0,
    })
    rc = main(["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "measure_report.json").read_text())
    assert all(not r["admissible"] for r in report["admissibility"])
    assert "skipped" in report["cumulative_bounds"]


def test_measure_command_white_bounds(tmp_path):
    cfg = _write(tmp_path, "m.json", {
        "alpha": [2.0], "measure": {"kind": "white"}, "eta": [0.75, 1.0],
        "T": 1.0,
    })
    rc = main(["measure", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "measure_report.json").read_text())
    b = report["cumulative_bounds"]
    assert b["lower"] <= b["integral"] <= b["upper"]


def test_simulate_reproducible_and_thread_independent(tmp_path):
    cfg = _sim_cfg(tmp_path)
    for out, threads in [("a", "1"), ("b", "1"), ("c", "3")]:
        rc = main(["simulate", "--config", cfg, "--out",
                   str(tmp_path / out), "--threads", threads])
        assert rc == 0
    names = ["manifest.json", "frames_index.json", "frames_0000.bin",
             "frames_0002.bin"]
    for name in names:
        a = (tmp_path / "a" / name).read_bytes()
        assert a == (tmp_path / "b" / name).read_bytes()
        assert a == (tmp_path / "c" / name).read_bytes()


def _outputs(outdir):
    return {f.name: f.read_bytes() for f in sorted(outdir.iterdir())}


@pytest.mark.parametrize("command, over", [
    ("simulate", {"replicates": 8, "b": {"preset": "sine", "amplitude": 0.3},
                  "sigma": {"preset": "affine", "slope": 0.2, "value": 1.0}}),
    ("simulate", {"replicates": 8}),
    ("holder", {**_HOLDER_OK, "replicates": 8, "min_replicates": 8}),
])
def test_chunked_outputs_equal_one_replicate_at_a_time(tmp_path, monkeypatch,
                                                       command, over):
    import fracspde.solver

    cfg = _sim_cfg(tmp_path, **over)
    run = ["--config", cfg, "--format", "csv"]
    monkeypatch.setattr(fracspde.solver, "MAX_CHUNK_ROWS", 1)
    assert main([command, *run, "--out", str(tmp_path / "one")]) == 0
    monkeypatch.undo()
    # 3 rows a chunk: 8 replicates are chunks of 3, 3 and 2
    stored = 3 * (129 if command == "holder" else 3) * 64
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", stored)
    expected = _outputs(tmp_path / "one")
    assert len(expected) == (10 if command == "simulate" else 3)
    for threads in ("1", "2", "3"):
        out = tmp_path / threads
        assert main([command, *run, "--out", str(out),
                     "--threads", threads]) == 0
        assert _outputs(out) == expected


def test_chunked_simulate_reports_the_serial_blow_up(tmp_path, monkeypatch,
                                                     capsys):
    import fracspde.solver
    from fracspde.errors import BlowUpError

    # replicates 0-9 fail at steps 73, 47, 29, 70, 71, 57, -, -, -, 48
    over = {"alpha": [1.5], "delta": [0.3], "measure": {"kind": "white"},
            "grid": {"n_per_dim": 16, "box_length": 8.0},
            "sigma": {"preset": "constant", "value": 6e5}, "T": 2.0,
            "replicates": 10, "seed": 3, "frame_stride": 10**9}
    cfg = _sim_cfg(tmp_path, **over)
    config = _solver_config(cfg)
    with pytest.raises(BlowUpError) as serial:
        fracspde.solver.solve(config, 0)
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", 3 * 2 * 16)
    for threads in ("1", "2"):
        rc = main(["simulate", "--config", cfg, "--out",
                   str(tmp_path / threads), "--threads", threads])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BlowUpError", "message": str(serial.value)}
        assert not (tmp_path / threads / "frames_0000.bin").exists()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_each_replicate_key_chunk_is_built_once(tmp_path, threads):
    # 100 replicates x 200 steps span two key chunks of 128 steps; chunks
    # of at most 64 rows over all threads drawn replicate-major keep every
    # (replicate, key chunk) in the 64-entry key cache while it is drawn
    from fracspde.noise import _philox_keys

    cfg = _sim_cfg(tmp_path, grid={"n_per_dim": 12, "box_length": 8.0},
                   dt=0.01, T=2.0, replicates=100, frame_stride=10**9)
    _philox_keys.cache_clear()
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
               "--threads", threads])
    info = _philox_keys.cache_info()
    _philox_keys.cache_clear()
    assert rc == 0
    assert (info.misses, info.hits + info.misses) == (100 * 2, 100 * 200)


def test_simulate_beyond_key_table_seed_is_thread_independent(tmp_path):
    # a master seed >= 2**32 draws through SeedSequence itself
    cfg = _sim_cfg(tmp_path, seed=2**32 + 7)
    for out, threads in [("a", "1"), ("b", "2")]:
        rc = main(["simulate", "--config", cfg, "--out",
                   str(tmp_path / out), "--threads", threads])
        assert rc == 0
    for rep in range(3):
        name = f"frames_{rep:04d}.bin"
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())
    assert not np.array_equal(
        read_array_binary(tmp_path / "a" / "frames_0000.bin"),
        read_array_binary(tmp_path / "a" / "frames_0001.bin"))


def test_simulate_seed_flag_overrides(tmp_path):
    cfg = _sim_cfg(tmp_path)
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
    main(["simulate", "--config", cfg, "--out", str(tmp_path / "b"),
          "--seed", "99"])
    a = read_array_binary(tmp_path / "a" / "frames_0000.bin")
    b = read_array_binary(tmp_path / "b" / "frames_0000.bin")
    assert a.shape == b.shape
    assert not np.array_equal(a, b)


def test_simulate_picard_scheme(tmp_path):
    cfg = _sim_cfg(tmp_path, scheme="picard", replicates=1)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    euler = _sim_cfg(tmp_path, replicates=1)
    main(["simulate", "--config", euler, "--out", str(tmp_path / "e")])
    a = read_array_binary(tmp_path / "o" / "frames_0000.bin")
    b = read_array_binary(tmp_path / "e" / "frames_0000.bin")
    assert np.abs(a - b).max() < 1e-10


def test_density_command(tmp_path):
    cfg = _write(tmp_path, "d.json", {
        "alpha": [2.0],
        "grid": {"n_per_dim": 128, "box_length": 16.0},
        "measure": {"kind": "white"},
        "sigma": {"preset": "constant", "value": 1.0},
        "u0": {"preset": "zero"},
        "dt": 0.005, "T": 0.05, "n_samples": 600, "seed": 2,
        "frame_stride": 1000,
    })
    rc = main(["density", "--config", cfg, "--out", str(tmp_path / "o"),
               "--format", "csv"])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "density_report.json").read_text())
    assert report["variance_bounds"]["c1"] > 0
    assert (tmp_path / "o" / "density.csv").exists()


def test_holder_command(tmp_path):
    cfg = _write(tmp_path, "h.json", {
        "alpha": [2.0],
        "grid": {"n_per_dim": 128, "box_length": 16.0},
        "measure": {"kind": "white"},
        "sigma": {"preset": "constant", "value": 1.0},
        "u0": {"preset": "zero"},
        "dt": 0.002, "T": 0.256, "replicates": 40, "min_replicates": 40,
        "seed": 5, "rho": 0.9, "eta": 0.51,
    })
    for out, threads in [("o", "1"), ("p", "2")]:
        rc = main(["holder", "--config", cfg, "--out", str(tmp_path / out),
                   "--format", "csv", "--threads", threads])
        assert rc == 0
    report = json.loads((tmp_path / "o" / "holder_report.json").read_text())
    assert 0 < report["gamma1_hat"] < 1
    assert (tmp_path / "o" / "variogram.csv").exists()
    # each replicate is reduced to its probes, kept in replicate order
    for name in ("holder_report.json", "variogram.csv"):
        assert ((tmp_path / "o" / name).read_bytes()
                == (tmp_path / "p" / name).read_bytes())


def test_holder_keeps_copies_not_views_of_each_path(tmp_path, monkeypatch):
    # a view of a chunk's rows would keep its frames alive
    import fracspde.cli

    yielded, kept = [], {}
    step_rows = fracspde.cli._step_rows

    def stepping(config, ids):
        for first, rows in step_rows(config, ids):
            yielded.append(rows)
            yield first, rows

    def keeping(name):
        estimate = getattr(fracspde.cli, name)

        def wrapped(arrays, *args, **kwargs):
            kept[name] = list(arrays)
            return estimate(arrays, *args, **kwargs)
        return wrapped

    monkeypatch.setattr(fracspde.cli, "_step_rows", stepping)
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", 2 * 129 * 64)
    for name in ("estimate_temporal", "estimate_spatial"):
        monkeypatch.setattr(fracspde.cli, name, keeping(name))
    cfg = _sim_cfg(tmp_path, **_HOLDER_OK, replicates=3)
    assert main(["holder", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert len(kept["estimate_temporal"]) == len(kept["estimate_spatial"]) == 3
    assert {rows.shape[0] for rows in yielded} == {2, 1}  # two chunks
    config = _solver_config(cfg)
    for rep, series, field in zip(range(3), kept["estimate_temporal"],
                                  kept["estimate_spatial"]):
        path = fracspde.solver.solve(config, rep)
        assert np.array_equal(field, path.values[-1])
        assert np.array_equal(series, path.values_at(32))
        for rows in yielded:
            assert not np.shares_memory(field, rows)
            assert not np.shares_memory(series, rows)


def test_integral_float_count_is_read(tmp_path):
    cfg = _sim_cfg(tmp_path, replicates=2.0, frame_stride=5.0)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 0
    index = json.loads((tmp_path / "o" / "frames_index.json").read_text())
    assert len(index["replicates"]) == 2
    assert index["replicates"][0]["times"] == pytest.approx([0.0, 0.05, 0.1])


def test_missing_config_key_exits_2(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"alpha": [2.0]})
    rc = main(["kernel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2


def test_unreadable_config_exits_2(tmp_path):
    rc = main(["kernel", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


@pytest.mark.parametrize("command,over,argv", [
    ("simulate", {}, ["--seed", "-1"]),
    ("simulate", {"dt": "abc"}, []),
    ("simulate", {"measure": [1]}, []),
    ("density", {"x": "abc"}, []),
    ("density", {"x": 1000}, []),
    ("density", {"thetas": "ab"}, []),
    ("density", {"rho_grid": ["a"]}, []),
    ("holder", {"eta": "abc"}, []),
    ("holder", {"x_probe": "abc"}, []),
    ("measure", {"eta": "abc"}, []),
    ("measure", {"T": "abc"}, []),
    ("kernel", {"t": "abc"}, []),
    ("holder", {"replicates": 0}, []),
    ("density", {"n_samples": -5}, []),
    ("simulate", {"replicates": 0}, []),
    ("simulate", {"replicates": -3}, []),
    ("simulate", {}, ["--threads", "0"]),
    ("simulate", {}, ["--threads", "-2"]),
    ("simulate", {"replicates": 2.7}, []),
    ("simulate", {"frame_stride": 1.9}, []),
    ("simulate", {"replicates": True}, []),
    ("simulate", {"replicates": "3"}, []),
    ("simulate", {"picard_max_iter": 2.5}, []),
    ("simulate", {"grid": {"n_per_dim": 64.5, "box_length": 8.0}}, []),
    ("density", {"n_samples": 600.5}, []),
    ("holder", {"min_replicates": 3.5}, []),
    ("holder", {"min_lag_steps": 2.5}, []),
    ("holder", {"min_lag_cells": "1"}, []),
    ("simulate", {"dt": True}, []),
    ("simulate", {"dt": "0.01"}, []),
    ("simulate", {"T": float("inf")}, []),
    ("simulate", {"grid": {"n_per_dim": 64, "box_length": True}}, []),
    ("simulate", {"grid": {"n_per_dim": 64, "box_length": "inf"}}, []),
    ("simulate", {"grid": {"n_per_dim": 64, "box_length": float("inf")}},
     []),
    ("simulate", {"scheme": "picard", "picard_tol": float("nan")}, []),
    ("simulate", {"scheme": "picard", "picard_tol": "1e-12"}, []),
    ("simulate", {"u0": {"preset": "constant", "value": "nan"}}, []),
    ("simulate", {"u0": {"preset": "constant", "value": float("nan")}}, []),
    ("simulate", {"u0": {"preset": "cosine", "frequency": True}}, []),
    ("simulate", {"u0": {"preset": "gaussian_bump", "width": "1"}}, []),
    ("holder", {"t_probe": "0.1"}, []),
    ("holder", {"rho": True}, []),
    ("holder", {"eta": float("nan")}, []),
    ("holder", {"alpha": ["2.0"]}, []),
    ("simulate", {"delta": [True]}, []),
    ("simulate", {"measure": {"kind": "riesz", "gamma": "0.5"}}, []),
    ("simulate", {"measure": {"kind": "bessel", "beta": True}}, []),
    ("simulate", {"measure": {"kind": "free_field", "mass": float("inf")}},
     []),
    ("simulate", {"measure": {"kind": "tabulated", "radii": [0, "1", 2],
                              "values": [1, 1, 1]}}, []),
    ("simulate", {"measure": {"kind": "tabulated", "radii": [0, 1, 2],
                              "values": [1, 1, True]}}, []),
    ("simulate", {"sigma": {"preset": "constant", "value": "1.0"}}, []),
    ("simulate", {"sigma": {"preset": "constant", "value": True}}, []),
    ("simulate", {"b": {"preset": "linear", "slope": "1"}}, []),
    ("simulate", {"b": {"preset": "sine", "amplitude": True}}, []),
    ("simulate", {"b": {"preset": "sine", "frequency": float("nan")}}, []),
    ("measure", {"eta": "0.5"}, []),
    ("measure", {"eta": [0.5, True]}, []),
    ("density", {"thetas": ["1", True]}, []),
    ("density", {"rho_grid": [0.01, "0.02"]}, []),
])
def test_malformed_input_exits_2_with_json(tmp_path, capsys, command, over,
                                           argv):
    cfg = _sim_cfg(tmp_path, **over)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
               *argv])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


@pytest.mark.parametrize("command,over", [
    ("holder", {"rho": 1.5}),
    ("holder", {"eta": 1.5}),
    ("density", {"thetas": [0.5, 0.5]}),
    ("density", {"thetas": [1.0, 0.0]}),
    ("density", {"rho_grid": [0.05, 2.0]}),
    ("density", {"rho_grid": [0.0, 0.05]}),
    ("density", {"rho_grid": []}),
    ("simulate", {"scheme": "picard", "picard_tol": -1.0}),
    ("simulate", {"scheme": "picard", "picard_tol": 0.0}),
    ("simulate", {"scheme": "picard", "picard_max_iter": 0}),
    ("simulate", {"u0": {"preset": "constant", "value": 1e303}}),
    ("density", {"t": -1.0, "rho_grid": [0.001, 0.01]}),
    ("density", {"t": 0.0}),
])
def test_out_of_range_setting_exits_2_before_solving(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     over):
    calls = _count_solves(monkeypatch)
    cfg = _sim_cfg(tmp_path, replicates=40, n_samples=600, **over)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConstraintViolationError"
    assert calls == []


def _count_solves(monkeypatch):
    """The list each stepped chunk, ``solve`` of ``density`` and Picard
    solve of the CLI adds to, when its first step runs."""
    import fracspde.cli
    import fracspde.density
    import fracspde.solver

    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    def stepping(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            yield from fn(*args, **kwargs)
        return wrapped

    for module in (fracspde.cli, fracspde.solver):
        monkeypatch.setattr(module, "_step_rows", stepping(module._step_rows))
    monkeypatch.setattr(fracspde.density, "solve",
                        counting(fracspde.density.solve))
    monkeypatch.setattr(fracspde.cli, "solve_picard",
                        counting(fracspde.cli.solve_picard))
    return calls


def test_solve_counter_sees_every_command_that_steps(tmp_path, monkeypatch):
    # the guard of the two tests above counts what these runs do
    calls = _count_solves(monkeypatch)
    for command, over in [("simulate", {}), ("simulate", {"scheme": "picard"}),
                          ("holder", _HOLDER_OK), ("density", {})]:
        cfg = _sim_cfg(tmp_path, replicates=40, n_samples=2, **over)
        main([command, "--config", cfg, "--out", str(tmp_path / "o")])
        assert calls, command
        calls.clear()


@pytest.mark.parametrize("command,over,error,fragment", [
    ("holder", {"scheme": "picard"}, "ConfigurationError", "exp_euler"),
    ("density", {"scheme": "picard"}, "ConfigurationError", "exp_euler"),
    ("holder", {**_HOLDER_OK, "t_probe": 0.125}, "ConfigurationError",
     "no frame stored"),
    ("holder", {**_HOLDER_OK, "min_lag_steps": 16},
     "ConstraintViolationError", "dyadic scales"),
    ("holder", {**_HOLDER_OK, "min_lag_cells": 3},
     "ConstraintViolationError", "spatial scales"),
    ("holder", {**_HOLDER_OK, "min_replicates": 41},
     "ConstraintViolationError", "replicates"),
])
def test_unhonoured_input_exits_2_before_solving(tmp_path, capsys,
                                                 monkeypatch, command, over,
                                                 error, fragment):
    calls = _count_solves(monkeypatch)
    cfg = _sim_cfg(tmp_path, replicates=40, n_samples=600, **over)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error and fragment in err["message"]
    assert calls == []


_FAR_FROM_ZERO = {"u0": {"preset": "constant", "value": 1e300},
                  "grid": {"n_per_dim": 32, "box_length": 0.5}}


@pytest.mark.parametrize("command,over,rc,error", [
    ("kernel", {"t": 1.0, "grid": {"n_per_dim": 1, "box_length": 0.5}},
     0, None),
    ("kernel", {"t": 1.0, "alpha": [1.5],
                "grid": {"n_per_dim": 1, "box_length": 1e300}}, 0, None),
    ("kernel", {"t": 1.0, "alpha": [2.0, 2.0],
                "grid": {"n_per_dim": 1, "box_length": 1e300}},
     2, "ConstraintViolationError"),
    ("holder", {**_FAR_FROM_ZERO, "frame_stride": 1, "T": 1.28,
                "sigma": {"preset": "affine", "slope": 0.5, "value": 1.0}},
     3, "NumericalConsistencyError"),
    ("density", {**_FAR_FROM_ZERO, "T": 0.01, "n_samples": 500},
     3, "NumericalConsistencyError"),
])
def test_float_range_edges_keep_the_contract(tmp_path, capsys, command,
                                             over, rc, error):
    # a one-point grid, a box whose volume overflows, and increments or a
    # sample spread whose squares overflow: each once escaped as a raw
    # ValueError, OverflowError or RuntimeWarning
    cfg = _sim_cfg(tmp_path, **over)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == rc
    if error:
        assert json.loads(capsys.readouterr().err)["error"] == error


# wrong in type or range, never so large that the run itself grows
_BAD = st.sampled_from([None, True, "1", "nan", [], {}, -1, 0, 2.5,
                        float("nan"), float("inf")])


@st.composite
def _fuzzed_config(draw, command):
    """A small config for ``command`` (<= 32 points, <= 4 steps, or 256
    for ``holder``, and at most 3 replicates or 500 samples); up to two
    settings are replaced by a value of the wrong type or range and up to
    one is dropped."""
    def pick(*options):
        return draw(st.sampled_from(options))

    # holder and density reach their reports only from a valid solver
    # config, so their index and scheme are valid more often
    reports = command in ("holder", "density")
    alpha = pick([2.0], [1.5], [1.2], [0.7], [2.0, 2.0], [1.5, 1.8])
    delta = pick(0.0, 0.2, -0.3)
    n_per_dim = draw(st.integers(1, 32))
    cfg = {
        "alpha": alpha,
        "delta": [pick(delta, 0.0) if reports else delta] * len(alpha),
        # holder needs 32 points for its four spatial scales
        "grid": {"n_per_dim": pick(n_per_dim, 32) if command == "holder"
                 else n_per_dim,
                 "box_length": pick(0.5, 8.0, 1e-3, 1e300)},
    }
    nested = {"box_length": ("grid", None), "n_per_dim": ("grid", None)}
    measure = pick({"kind": "white"}, {"kind": "riesz", "gamma": 0.5},
                   {"kind": "riesz", "gamma": 1.2},
                   {"kind": "bessel", "beta": 1.0},
                   {"kind": "free_field", "mass": 1.0},
                   {"kind": "tabulated", "radii": [0.0, 4.0],
                    "values": [1.0, 1.0]})
    if command == "kernel":
        cfg["t"] = pick(1.0, 1e-3, 50.0)
    elif command == "measure":
        cfg.update(measure=measure, eta=pick(0.5, [0.25, 0.75], [1.0]),
                   T=pick(1.0, 0.1))
    else:
        dt = pick(0.01, 0.005, 0.02)
        steps = pick(4, 256) if command == "holder" else pick(1, 2, 3, 4)
        cfg.update({
            "measure": measure,
            "b": pick({"preset": "constant", "value": 0.5},
                      {"preset": "sine", "amplitude": 1.0, "frequency": 2.0},
                      {"preset": "linear", "slope": -1.0}),
            "sigma": pick({"preset": "constant", "value": 1.0},
                          {"preset": "affine", "slope": 0.5, "value": 1.0}),
            "u0": pick({"preset": "zero"},
                       {"preset": "constant", "value": 2.0},
                       {"preset": "cosine", "frequency": 3.0},
                       {"preset": "gaussian_bump", "width": 0.5},
                       {"preset": "constant", "value": 1e300}),
            "dt": dt,
            "T": dt * steps,
            "scheme": pick("exp_euler", "picard",
                           *["exp_euler"] * (2 if reports else 0)),
            "picard_tol": pick(1e-12, 1e-3),
            "picard_max_iter": pick(1, 50),
            "frame_stride": pick(1, 2),
            "seed": pick(0, 5, 2**32 + 1),
        })
        nested.update(value=("u0", "constant"), width=("u0", "gaussian_bump"))
    if command == "simulate":
        cfg["replicates"] = pick(1, 2, 2.0)
    if command == "holder":
        cfg.update(replicates=pick(1, 2, 2.0, 3),
                   min_replicates=pick(1, 2), rho=pick(0.9, 0.5),
                   eta=pick(0.5, 0.3), x_probe=[pick(0, 3)] * len(alpha),
                   t_probe=cfg["T"] / pick(1, 2),
                   min_lag_steps=pick(2, 3), min_lag_cells=pick(1, 2))
    if command == "density":
        cfg.update(n_samples=pick(1, 500), t=cfg["T"] / pick(1, 2),
                   x=[pick(0, 3)] * len(alpha),
                   thetas=pick([1.0, 0.5], [1.2, 0.2]),
                   rho_grid=pick([1e-3, 1e-2], [0.005, 0.01, 0.02]))
    keys = sorted(cfg)
    for key in draw(st.sets(st.sampled_from(keys + sorted(nested)),
                            max_size=2)):
        if key not in nested:
            cfg[key] = draw(_BAD)
            continue
        outer, preset = nested[key]
        if not isinstance(cfg[outer], dict):
            continue  # the whole section is already a bad value
        if preset:
            cfg[outer] = {"preset": preset}
        cfg[outer][key] = draw(_BAD)
    for key in draw(st.sets(st.sampled_from(keys), max_size=1)):
        del cfg[key]
    return cfg


def _exits_with_contract(command, cfg):
    """``command`` on ``cfg`` exits 0, 2 or 3, with a JSON error on stderr
    when it fails."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = main([command, "--config", str(path),
                       "--out", str(Path(tmp) / "o")])
    assert rc in (0, 2, 3)
    if rc:
        report = json.loads(err.getvalue())
        assert set(report) == {"error", "message"}


@settings(max_examples=60, deadline=None)
@given(cfg=_fuzzed_config("simulate"))
def test_simulate_fuzz_exits_with_contract(cfg):
    _exits_with_contract("simulate", cfg)


@pytest.mark.parametrize("command", ["holder", "density", "kernel",
                                     "measure"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_command_fuzz_exits_with_contract(command, data):
    _exits_with_contract(command, data.draw(_fuzzed_config(command)))
