#!/usr/bin/env python3
"""fracspde benchmark: three workloads, end-to-end and per-layer metrics.

Run from the repository root (the package is imported from ``src/``)::

    python3 benchmarks/run.py --workload law-additive --seed 1 \
        --seconds 20 --trace 0

Workloads: ``law-additive``, ``paths-multiplicative``, ``spectral-analysis``
(see ``benchmarks/README.md`` for why each was chosen and which layer is
predicted to move which metric).

The timed phase of the workload is repeated until ``--seconds`` have
passed and at least three repetitions ran (one with ``--smoke``); every
repetition's outputs are checked against oracles after its timer stops.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median of
fresh-interpreter set-ups), ``wall_s`` (median timed phase) and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics of the traced ones, plus
``trace_overhead_s``.  ``--smoke`` runs reduced sizes of the same phases.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
non-zero, and no result is printed, when the benchmark itself cannot run
(for instance when ``src/fracspde`` is missing).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOAD_NAMES = ("law-additive", "paths-multiplicative", "spectral-analysis")
SETUP_PROBES = {False: 5, True: 2}
# a median of three damps the machine's repetition-to-repetition noise
MIN_REPS = {False: 3, True: 1}
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {
    "replicate_steps_per_s": "1/s",
    "solver.replicate_steps": "count",
    "solver.replicate_ms_p50": "ms",
    "solver.replicate_ms_p90": "ms",
    "solver.step_us": "us",
    "solver.step_self_us": "us",
    "solver.coeff_calls": "count",
    "solver.coeff_us_per_step": "us",
    "solver.config_s": "s",
    "noise.stream_calls": "count",
    "noise.stream_us_per_step": "us",
    "fields.frame_files": "count",
    "fields.bytes_written": "bytes",
    "fields.write_s": "s",
    "regularity.temporal_s": "s",
    "regularity.spatial_s": "s",
    "density.sample_law_s": "s",
    "density.kde_s": "s",
    "density.variance_bound_s": "s",
    "cli.simulate_s": "s",
    "cli.holder_s": "s",
    "cli.self_s": "s",
    "spectral_measure.calls": "count",
    "spectral_measure.aniso_s": "s",
    "spectral_measure.radial_s": "s",
    "spectral_measure.critical_eta_s": "s",
    "stable_kernel.kernel_calls": "count",
    "stable_kernel.kernel_s": "s",
    "trace_overhead_s": "s",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--smoke", action="store_true",
                   help="reduced sizes of every phase, check and layer")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_fracspde():
    """Import the package from this checkout's src/, nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import fracspde
    except ImportError as exc:
        raise SystemExit(f"benchmark: cannot import fracspde from {SRC}: "
                         f"{exc}")
    origin = Path(fracspde.__file__).resolve().parent.parent
    if origin != SRC.resolve():
        raise SystemExit(f"benchmark: fracspde imported from {origin}, "
                         f"not {SRC}")


def machine(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
    }


def measure_setup(args):
    """Median time from spawning a fresh interpreter to inputs ready.

    ``perf_counter`` is the system-wide monotonic clock on Linux, so the
    probe's ready stamp and this process's start stamp are comparable.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "1", "--trace", "0"]
    if args.smoke:
        cmd.append("--smoke")
    samples = []
    for _ in range(SETUP_PROBES[args.smoke]):
        start = perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: setup probe failed:\n{proc.stderr}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
        samples.append(ready - start)
    return statistics.median(samples), samples


def run_rep(workload, inputs, workdir, index, traced):
    """One execution of the timed phase, then its output checks."""
    import spans
    from workloads import Ops

    repdir = workdir / f"rep{index}"
    repdir.mkdir()
    tracer = spans.Tracer(workload.name) if traced else None
    api = spans.entry_points(tracer)
    ops = Ops()
    if tracer:
        tracer.install()
    try:
        start = perf_counter()
        out = workload.run(inputs, api, ops, repdir)
        wall = perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    workload.check(inputs, out, ops)
    rep = {"traced": traced, "wall_s": wall, "ops": ops,
           "info": workload.info(out)}
    if tracer:
        rep["layers"] = spans.layer_metrics(tracer.spans)
        files, size = workload.files_written(out)
        rep["layers"]["fields.frame_files"] = files
        rep["layers"]["fields.bytes_written"] = size
        rep["spans"] = tracer.records(index)
    shutil.rmtree(repdir)
    return rep


def run_reps(args, workload, inputs, workdir):
    """Timed repetitions for at least ``--seconds`` and ``MIN_REPS``.

    With tracing, repetitions alternate untraced and traced, starting
    untraced.
    """
    reps = []
    began = perf_counter()
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = run_rep(workload, inputs, workdir, len(reps), traced)
        reps.append(rep)
        ops = rep["ops"]
        print(f"rep {len(reps) - 1}: {'traced' if traced else 'untraced'} "
              f"wall_s={rep['wall_s']:.4f} attempted={ops.attempted} "
              f"failed={len(ops.failed)} {json.dumps(rep['info'])}",
              flush=True)
        have_traced = not args.trace or any(r["traced"] for r in reps)
        if (perf_counter() - began >= args.seconds and have_traced
                and len(reps) >= MIN_REPS[args.smoke]):
            return reps


def layer_report(reps, inputs, workload, wall_s):
    traced = [r for r in reps if r["traced"]]
    names = traced[0]["layers"].keys()
    layers = {k: statistics.median(r["layers"][k] for r in traced)
              for k in names}
    layers["solver.config_s"] = inputs.get("config_s", 0.0)
    layers["trace_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced) - wall_s)
    layers["replicate_steps_per_s"] = workload.replicate_steps(inputs) / wall_s
    return layers


def write_spans(workload, reps, info):
    from spans import RECORD_FIELDS

    out = WORK / "traces" / f"{workload}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    records = [s for r in reps if r["traced"] for s in r["spans"]]
    out.write_text(json.dumps({"machine": info, "fields": RECORD_FIELDS,
                               "spans": records}))
    return out


def main(argv=None):
    args = parse_args(argv)
    import_fracspde()
    import spans  # noqa: F401  (imported here so probes pay for it too)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        (workdir / "inputs").mkdir()
        inputs = workload.setup(args.seed, args.smoke, workdir / "inputs")
        if args.setup_probe:
            print(json.dumps({"ready": perf_counter()}))
            return 0
        info = machine(args.seed)
        print(f"machine {json.dumps(info)}")
        print(f"workload {args.workload} seed={args.seed} "
              f"seconds={args.seconds} trace={args.trace} "
              f"smoke={args.smoke}", flush=True)
        reps = run_reps(args, workload, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(r["ops"].attempted for r in reps)
    failed = sum(len(r["ops"].failed) for r in reps)
    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    wall_s = statistics.median(untraced)
    steps = workload.replicate_steps(inputs)

    for key, ok, detail in reps[0]["ops"].checks:
        print(f"check {key}: {'PASS' if ok else 'FAIL'} {detail}")
    for i, r in enumerate(reps[1:], 1):
        for key, ok, detail in r["ops"].checks:
            if not ok:
                print(f"check {key} (rep {i}): FAIL {detail}")

    if args.trace:
        metrics = layer_report(reps, inputs, workload, wall_s)
        units = PER_LAYER_UNITS
        path = write_spans(args.workload, reps, info)
        print(f"spans written to {path.relative_to(ROOT)}")
        kernel_share = metrics["stable_kernel.kernel_s"] / wall_s
        if kernel_share:
            print(f"note: stable_kernel.kernel_s is {kernel_share:.1%} of "
                  "wall_s, so a kernel-only gain stays below the wall_s "
                  "bound and cannot be resolved end to end")
    else:
        setup_s, samples = measure_setup(args)
        print("setup probes (s): " + " ".join(f"{s:.4f}" for s in samples))
        metrics = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"info replicate_steps_per_s {steps / wall_s if steps else 0.0}"
              f" 1/s (replicate_steps={steps}; ensemble workloads only)")
        print(f"info failed_ratio {failed / attempted} 1 "
              f"({failed}/{attempted})")
    print("info walls (s): "
          + " ".join(f"{r['wall_s']:.4f}" for r in reps))
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
