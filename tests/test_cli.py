import json

import numpy as np
import pytest

from fracspde.cli import main
from fracspde.fields import read_array_binary


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


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
    rc = main(["holder", "--config", cfg, "--out", str(tmp_path / "o"),
               "--format", "csv"])
    assert rc == 0
    report = json.loads((tmp_path / "o" / "holder_report.json").read_text())
    assert 0 < report["gamma1_hat"] < 1
    assert (tmp_path / "o" / "variogram.csv").exists()


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
])
def test_out_of_range_setting_exits_2_before_solving(tmp_path, capsys,
                                                     monkeypatch, command,
                                                     over):
    import fracspde.cli
    import fracspde.density

    calls = []

    def counting(fn):
        def wrapped(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapped

    for module in (fracspde.cli, fracspde.density):
        monkeypatch.setattr(module, "solve", counting(module.solve))
    cfg = _sim_cfg(tmp_path, replicates=40, n_samples=600, **over)
    rc = main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConstraintViolationError"
    assert calls == []
