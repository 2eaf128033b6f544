import contextlib
import io
import json
import multiprocessing
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


def _fork_queue():
    """A queue that the forked workers of ``--threads`` can put to, as the
    test's own process can; ``_drain`` reads back what was put."""
    return multiprocessing.get_context("fork").SimpleQueue()


def _drain(queue) -> list:
    items = []
    while not queue.empty():
        items.append(queue.get())
    return items


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
    ("simulate", {"replicates": 8, "scheme": "picard"}),
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
    per_row = (fracspde.solver._sweep_values(_solver_config(cfg))
               if over.get("scheme") == "picard"
               else (129 if command == "holder" else 3) * 64)
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", 3 * per_row)
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

    # replicates 0-9 fail at steps -, -, 42, 142, 41, 53, 84, 76, 110, -:
    # in chunks of 3, replicate 4 fails sooner than replicate 2
    over = {"alpha": [1.5], "delta": [0.3], "measure": {"kind": "white"},
            "grid": {"n_per_dim": 16, "box_length": 8.0},
            "sigma": {"preset": "constant", "value": 6e5}, "T": 2.0,
            "replicates": 10, "seed": 3, "frame_stride": 10**9}
    cfg = _sim_cfg(tmp_path, **over)
    config = _solver_config(cfg)
    fracspde.solver.solve(config, 1)
    with pytest.raises(BlowUpError) as serial:
        fracspde.solver.solve(config, 2)
    # in chunks of 3, chunk [9] finishes at --threads 2; at --threads 5 the
    # default budget makes chunks of 2, and chunk [0, 1] finishes: the
    # failed run removes their frame files too
    for threads, budget in (("1", 3 * 2 * 16), ("2", 3 * 2 * 16),
                            ("5", fracspde.solver.CHUNK_ELEMENTS)):
        monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS", budget)
        out = tmp_path / threads
        rc = main(["simulate", "--config", cfg, "--out", str(out),
                   "--threads", threads])
        assert rc == 3
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "BlowUpError", "message": str(serial.value)}
        assert [f.name for f in out.iterdir()] == ["manifest.json"]
        assert multiprocessing.active_children() == []  # no worker is left


def test_a_failed_simulate_removes_an_earlier_runs_index(tmp_path):
    # the directory of a finished run, rerun with a config that blows up:
    # no index is left to name frame files that the failed run removed
    over = {"alpha": [1.5], "delta": [0.3],
            "grid": {"n_per_dim": 16, "box_length": 8.0}, "T": 2.0,
            "replicates": 10, "seed": 3, "frame_stride": 10**9}
    ok = _sim_cfg(tmp_path, **over)
    bad = _write(tmp_path, "bad.json", dict(
        json.loads(Path(ok).read_text()),
        sigma={"preset": "constant", "value": 6e5}))
    for threads in ("1", "2"):
        out = str(tmp_path / threads)
        assert main(["simulate", "--config", ok, "--out", out]) == 0
        assert main(["simulate", "--config", bad, "--out", out,
                     "--threads", threads]) == 3
        assert [f.name for f in (tmp_path / threads).iterdir()] == [
            "manifest.json"]


_TWELVE = {"alpha": [1.5], "delta": [0.3],
           "grid": {"n_per_dim": 16, "box_length": 8.0}, "T": 0.5,
           "replicates": 12, "seed": 3, "frame_stride": 10**9}


def test_simulate_removes_an_earlier_runs_extra_frames(tmp_path):
    # 12 replicates, then 10 into the same directory: the directory holds
    # the frames its index lists, and files simulate does not name stay
    out = tmp_path / "o"
    assert main(["simulate", "--config", _sim_cfg(tmp_path, **_TWELVE),
                 "--out", str(out)]) == 0
    others = ["frames_00012.bin", "frames_0012.txt", "frames_x.bin"]
    for name in others:
        (out / name).write_bytes(b"")
    assert main(["simulate", "--config",
                 _sim_cfg(tmp_path, **_TWELVE | {"replicates": 10}),
                 "--out", str(out)]) == 0
    frames = [f"frames_{rep:04d}.bin" for rep in range(10)]
    assert sorted(f.name for f in out.iterdir()) == sorted(
        frames + others + ["frames_index.json", "manifest.json"])
    index = json.loads((out / "frames_index.json").read_text())
    assert [e["file"] for e in index["replicates"]] == frames


def test_a_failed_simulate_removes_an_earlier_runs_extra_frames(tmp_path):
    out = tmp_path / "o"
    assert main(["simulate", "--config", _sim_cfg(tmp_path, **_TWELVE),
                 "--out", str(out)]) == 0
    bad = _sim_cfg(tmp_path, **_TWELVE | {
        "replicates": 10, "sigma": {"preset": "constant", "value": 6e5},
        "T": 2.0})
    assert main(["simulate", "--config", bad, "--out", str(out)]) == 3
    assert [f.name for f in out.iterdir()] == ["manifest.json"]


def test_holder_on_two_workers_leaves_no_worker_running(tmp_path):
    cfg = _sim_cfg(tmp_path, **_HOLDER_OK, replicates=8, min_replicates=8)
    assert main(["holder", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "2"]) == 0
    assert multiprocessing.active_children() == []


def test_threads_without_fork_exit_2_before_any_solve(tmp_path, capsys,
                                                      monkeypatch):
    # where processes cannot be forked (Windows), only --threads 1 runs
    calls = _count_solves(monkeypatch)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                        lambda: ["spawn"])
    cfg = _sim_cfg(tmp_path, replicates=4)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
               "--threads", "2"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "fork" in err["message"]
    assert calls == [] and not (tmp_path / "o").exists()
    assert main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--threads", "1"]) == 0


def test_two_threads_step_a_2d_final_frame_simulate_in_two_chunks(
        tmp_path, monkeypatch):
    # 2 frames of 128**2 points allow 32 rows a chunk, and so do 64 rows
    # over 2 workers: the 32 replicates need a chunk per worker
    rows, step_rows = _fork_queue(), fracspde.cli._step_rows

    def stepping(config, ids):
        rows.put(len(ids))
        yield from step_rows(config, ids)

    monkeypatch.setattr(fracspde.cli, "_step_rows", stepping)
    cfg = _sim_cfg(tmp_path, alpha=[2.0, 2.0],
                   grid={"n_per_dim": 128, "box_length": 16.0},
                   measure={"kind": "bessel", "beta": 1.5}, dt=1e-3, T=4e-3,
                   replicates=32, frame_stride=10**9)
    for threads in ("1", "2"):
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / threads), "--threads", threads]) == 0
    assert _drain(rows) == [32, 16, 16]
    assert _outputs(tmp_path / "2") == _outputs(tmp_path / "1")


@pytest.mark.parametrize("threads", ["1", "2"])
def test_picard_simulate_solves_the_shared_chunks(tmp_path, monkeypatch,
                                                   threads):
    import fracspde.solver

    chunks, ensemble = _fork_queue(), fracspde.cli._ensemble
    swept, picard_rows = _fork_queue(), fracspde.cli._picard_rows

    def recording(config, n, fn, workers=1, per_row=None):
        return ensemble(config, n, lambda ids: chunks.put(ids) or fn(ids),
                        workers, per_row)

    monkeypatch.setattr(fracspde.cli, "_ensemble", recording)
    monkeypatch.setattr(fracspde.cli, "_picard_rows", lambda config, ids: (
        swept.put(ids) or picard_rows(config, ids)))
    # 3 frames, or the final frame only, of 64 points; a budget of 3 sweeps
    # of 11 steps: 3 rows a chunk, where the stored frames would allow more
    for stride in (5, 10**9):
        cfg = _sim_cfg(tmp_path, scheme="picard", replicates=7,
                       b={"preset": "sine", "amplitude": 0.3},
                       sigma={"preset": "affine", "slope": 0.2,
                              "value": 1.0}, frame_stride=stride)
        config = _solver_config(cfg)
        monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS",
                            3 * fracspde.solver._sweep_values(config))
        assert len(fracspde.solver._chunks(config, 7, int(threads))) < 3
        out = tmp_path / str(stride)
        assert main(["simulate", "--config", cfg, "--out", str(out),
                     "--threads", threads]) == 0
        ran, ids = _drain(chunks), _drain(swept)
        assert sorted(ran, key=min) == [range(0, 3), range(3, 6),
                                        range(6, 7)]
        assert sorted(ids, key=min) == sorted(ran, key=min)  # once a chunk
        for rep in range(7):
            frames = read_array_binary(out / f"frames_{rep:04d}.bin")
            assert frames.tobytes() == fracspde.solver.solve_picard(
                config, rep).values.tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_picard_simulate_reports_the_lowest_failing_replicate(
        tmp_path, monkeypatch, capsys, threads):
    import fracspde.solver
    from fracspde.errors import BlowUpError

    # replicates 0-5 fail at steps -, 88, 199, 113, 24, 47; chunks of 3
    over = {"alpha": [1.5], "delta": [0.3], "measure": {"kind": "white"},
            "grid": {"n_per_dim": 16, "box_length": 8.0},
            "sigma": {"preset": "constant", "value": 6e5}, "T": 2.0,
            "replicates": 6, "seed": 16, "frame_stride": 10**9,
            "scheme": "picard"}
    cfg = _sim_cfg(tmp_path, **over)
    config = _solver_config(cfg)
    fracspde.solver.solve_picard(config, 0)
    with pytest.raises(BlowUpError) as serial:
        fracspde.solver.solve_picard(config, 1)
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS",
                        3 * fracspde.solver._sweep_values(config))
    out = tmp_path / "o"
    rc = main(["simulate", "--config", cfg, "--out", str(out),
               "--threads", threads])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "BlowUpError", "message": str(serial.value)}
    assert "step 88" in err["message"]
    assert [f.name for f in out.iterdir()] == ["manifest.json"]


def test_simulate_beyond_key_table_seed_is_thread_independent(tmp_path):
    # a master seed past 32 bits, up to the last 64-bit key word
    cfg = _sim_cfg(tmp_path, seed=2**64 - 1)
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
    ("simulate", {}, ["--seed", str(2**64)]),
    ("simulate", {"seed": 2**64}, []),
])
def test_malformed_input_exits_2_with_json(tmp_path, capsys, command, over,
                                           argv):
    cfg = _sim_cfg(tmp_path, **over)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o"),
               *argv])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError"


@pytest.mark.parametrize("spec, built", [
    ({"preset": "sine", "amplitude": 0.5}, ("sine", (0.5, 1.0))),
    ({"preset": "constant"}, ("constant", (0.0,))),
    ({"preset": "linear"}, ("linear", (1.0,))),
    ({"preset": "affine", "value": 2}, ("affine", (1.0, 2.0))),
    ({"preset": "sine", "frequency": -3, "amplitude": 2},
     ("sine", (2.0, -3.0))),
], ids=["sine", "constant", "linear", "affine", "sine-both"])
def test_coefficient_spec_builds_its_preset(spec, built):
    coef = fracspde.cli._read_spec(spec, fracspde.cli._COEFFICIENT_PRESETS,
                                   "coefficient")
    assert (coef.name, coef.params) == built


@pytest.mark.parametrize("spec, error, message", [
    ({"preset": "cubic"}, "ConfigurationError", "unknown b preset 'cubic'"),
    ({"value": 1.0}, "ConfigurationError", "b spec has no 'preset'"),
    # every parameter is read before the preset is looked up
    ({"preset": "constant", "slope": "x"}, "ValidationError",
     "slope must be a real number, got 'x'"),
    ({"value": True}, "ValidationError",
     "value must be a real number, got True"),
    ({"preset": "cubic", "frequency": None}, "ValidationError",
     "frequency must be a real number, got None"),
    ({"preset": ["sine"]}, "ValidationError",
     "malformed solver config: unhashable type: 'list'"),
    ("sine", "ValidationError", "malformed solver config: dictionary update "
     "sequence element #0 has length 1; 2 is required"),
    ({"preset": "sine", "amplitude": 1e200, "frequency": 1e200},
     "ConstraintViolationError", "Lipschitz constant must be finite and >= 0"),
    # a parameter the preset does not take is read, then refused
    ({"preset": "constant", "value": 3, "slope": 9.0}, "ConfigurationError",
     "b preset 'constant' takes no parameter 'slope'"),
], ids=["unknown-preset", "missing-preset", "unused-parameter",
        "parameter-before-missing-preset", "parameter-before-unknown-preset",
        "unhashable-preset", "not-a-mapping", "lipschitz-overflow",
        "parameter-not-taken"])
def test_coefficient_spec_errors_exit_2(tmp_path, capsys, spec, error,
                                        message):
    rc = main(["simulate", "--config", _sim_cfg(tmp_path, b=spec),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert json.loads(capsys.readouterr().err) == {"error": error,
                                                   "message": message}


@pytest.mark.parametrize("slot, spec, message", [  # b: missing-preset above
    ("sigma", {"slope": 2.0}, "sigma spec has no 'preset'"),
    ("u0", {}, "u0 spec has no 'preset'"),
    ("measure", {"gamma": 0.5}, "measure spec has no 'kind'"),
])
def test_a_spec_without_its_preset_exits_2_naming_the_slot(
        tmp_path, capsys, slot, spec, message):
    for command in ("simulate", "measure") if slot == "measure" else (
            "simulate",):
        rc = main([command, "--config", _sim_cfg(tmp_path, **{slot: spec}),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ConfigurationError", "message": message}


# the first four ran before, as sigma = 0, affine(1, 0), u0 = 0 and white
_NOT_TAKEN = {
    "sigma-constant-slope": ("sigma", {"preset": "constant", "slope": 2.0},
                             "sigma preset 'constant' takes no parameter "
                             "'slope'"),
    "sigma-affine-slop": ("sigma", {"preset": "affine", "slop": 2.0},
                          "sigma preset 'affine' takes no parameter 'slop'"),
    "u0-zero-value": ("u0", {"preset": "zero", "value": 3.0},
                      "u0 preset 'zero' takes no parameter 'value'"),
    "measure-white-gamma": ("measure", {"kind": "white", "gamma": 0.4},
                            "measure kind 'white' takes no parameter "
                            "'gamma'"),
    "b-sine-value": ("b", {"preset": "sine", "amplitude": 0.3, "value": 1.0},
                     "b preset 'sine' takes no parameter 'value'"),
    "u0-cosine-width": ("u0", {"preset": "cosine", "width": 2.0},
                        "u0 preset 'cosine' takes no parameter 'width'"),
    "measure-riesz-d": ("measure", {"kind": "riesz", "gamma": 0.5, "d": 1},
                        "measure kind 'riesz' takes no parameter 'd'"),
}


@pytest.mark.parametrize("command, slot, spec, message", [
    pytest.param(command, *case, id=f"{command}-{name}")
    for name, case in _NOT_TAKEN.items()
    for command in ("simulate", "holder", "density", "measure")
    if command != "measure" or case[0] == "measure"])
def test_a_parameter_the_preset_does_not_take_exits_2_before_any_solve(
        tmp_path, capsys, monkeypatch, command, slot, spec, message):
    calls = _count_solves(monkeypatch)
    out = tmp_path / "o"
    cfg = _sim_cfg(tmp_path, replicates=40, n_samples=600, **{slot: spec})
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ConfigurationError", "message": message}
    assert calls == []
    assert [f.name for f in out.iterdir()] == ["manifest.json"]


def test_every_catalog_measure_reads_back_from_its_dict():
    # a measure report's measure entry, without its d, is a valid spec
    from fracspde.cli import _MEASURE_KINDS, _read_spec
    from fracspde.spectral_measure import SpectralMeasure as M

    for d in (1, 2):
        for measure in [M.white(d), M.riesz(0.5, d), M.bessel(2.5, d),
                        M.free_field(1.5, d),
                        M.tabulated([0.0, 1.0, 4.0], [2.0, 1.0, 0.5], d)]:
            spec = measure.to_dict()
            assert spec.pop("d") == d
            assert _read_spec(json.loads(json.dumps(spec)), _MEASURE_KINDS,
                              "measure", "kind", (d,)) == measure


def test_the_cli_tables_cover_the_library_presets():
    # a preset added to the library cannot be silently unreachable
    from fracspde.cli import _COEFFICIENT_PRESETS, _MEASURE_KINDS
    from fracspde.solver import _PRESETS
    from fracspde.spectral_measure import _KINDS

    assert _COEFFICIENT_PRESETS.keys() == _PRESETS.keys()
    for name, (make, defaults) in _COEFFICIENT_PRESETS.items():
        coef = make(*defaults.values())
        assert coef.name == name and len(coef.params) == len(defaults)
    assert _MEASURE_KINDS.keys() == _KINDS.keys()


def test_threads_above_max_chunk_rows_exit_2_before_any_solve(
        tmp_path, capsys, monkeypatch):
    # more threads than MAX_CHUNK_ROWS (64) would step more replicates at
    # once than the README promises; 2 replicates keep the pool small
    solved = []
    monkeypatch.setattr(fracspde.cli, "_ensemble",
                        lambda *args: solved.append(args) or [])
    cfg = _sim_cfg(tmp_path, replicates=2)
    rc = main(["simulate", "--config", cfg, "--out", str(tmp_path / "o"),
               "--threads", "65"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValidationError" and "64" in err["message"]
    assert solved == [] and not (tmp_path / "o").exists()


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


@pytest.mark.parametrize("command", ["simulate", "holder", "density"])
def test_unknown_scheme_exits_2_before_solving(tmp_path, capsys, monkeypatch,
                                               command):
    calls = _count_solves(monkeypatch)
    cfg = _sim_cfg(tmp_path, replicates=40, n_samples=600, scheme="rk4")
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "ConstraintViolationError",
                   "message": "unknown scheme 'rk4'"}
    assert calls == []


def _count_solves(monkeypatch):
    """The list each stepped chunk, ``solve`` of ``density`` and Picard
    chunk of the CLI adds to, when its first step runs."""
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
    monkeypatch.setattr(fracspde.cli, "_picard_rows",
                        counting(fracspde.cli._picard_rows))
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
    ("holder", {**_HOLDER_OK, "min_lag_cells": -1},
     "ConstraintViolationError", "min_lag_cells"),
    ("holder", {**_HOLDER_OK, "min_lag_cells": 0},
     "ConstraintViolationError", "min_lag_cells"),
    ("holder", {**_HOLDER_OK, "min_lag_steps": 1},
     "ConstraintViolationError", "min_lag_steps"),
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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cfg=_fuzzed_config("simulate"))
def test_simulate_fuzz_exits_with_contract(cfg):
    _exits_with_contract("simulate", cfg)


@pytest.mark.parametrize("command", ["holder", "density", "kernel",
                                     "measure"])
@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_command_fuzz_exits_with_contract(command, data):
    _exits_with_contract(command, data.draw(_fuzzed_config(command)))


def test_one_stream_per_replicate_step(tmp_path, monkeypatch):
    # the invariant the benchmark's noise.stream_calls reads: one
    # RngStream.generator call per (replicate, step), for the one-row
    # solve, sample_law and a CLI simulate stepped in chunks
    import fracspde.solver
    from fracspde.density import sample_law
    from fracspde.noise import RngStream

    calls, generator = _fork_queue(), RngStream.generator

    def counted(stream):
        calls.put((stream.replicate_id, stream.step_id))
        return generator(stream)

    monkeypatch.setattr(RngStream, "generator", counted)
    cfg = _sim_cfg(tmp_path, replicates=7, T=0.2)
    config = _solver_config(cfg)
    n = config.n_steps

    def each_once(replicates):
        assert sorted(_drain(calls)) == [(r, k) for r in replicates
                                         for k in range(n)]

    fracspde.solver.solve(config, 5)
    each_once([5])
    sample_law(config, config.T, 32, 4)
    each_once(range(4))
    # 3 rows a chunk: chunks of 3, 3 and 1 replicates
    monkeypatch.setattr(fracspde.solver, "CHUNK_ELEMENTS",
                        3 * len(config._stored_steps) * 64)
    assert len(fracspde.solver._chunks(config, 7, 2)) == 3
    for threads in ("1", "2"):
        assert main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / threads), "--threads", threads]) == 0
        each_once(range(7))
