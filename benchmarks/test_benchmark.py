"""Tests of the benchmark itself: smoke runs of every workload in both
modes, the result line against BENCHMARK.json, span self times, and the
refusal to run without the package sources.

Run from the repository root with ``python -m pytest benchmarks``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd, workload, trace, *extra):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), *extra],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run(workload, trace):
    proc = _run(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert ({m["name"]: m["unit"] for m in declared}
            == {k: v["unit"] for k, v in result["metrics"].items()})
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
    elif workload == "law-additive":
        # smoke size: 512 replicates x 10 steps
        assert values["solver.replicate_steps"] == 5120
        assert values["noise.stream_calls"] == 5120
    elif workload == "paths-multiplicative":
        assert values["fields.frame_files"] == 4
        assert values["cli.holder_s"] > values["regularity.spatial_s"] > 0
    else:
        assert values["spectral_measure.aniso_s"] > 0
        assert values["stable_kernel.kernel_calls"] == 12


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_counts_overlapping_children_once():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        from spans import self_times
    finally:
        del sys.path[:2]
    spans = [
        (0, None, "cli.holder", 0.0, 10.0, None),
        (1, 0, "solver.solve", 1.0, 5.0, 256),  # two worker threads
        (2, 0, "solver.solve", 2.0, 6.0, 256),
        (3, 1, "noise.stream", 1.5, 2.5, None),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0)
    assert selfs[1] == pytest.approx(4.0 - 1.0)
    assert selfs[3] == pytest.approx(1.0)
