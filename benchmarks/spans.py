"""In-memory span recording for the traced benchmark run.

Spans are recorded only from the benchmark's side of the API: either
around the public entry points the workloads call (``entry_points``) or
by temporarily rebinding the names the library modules look up at call
time (``Tracer.install``).  Nothing inside ``src/`` is edited; every
patch is undone by ``Tracer.restore``.

A span is ``(id, parent, name, start, end, tag)``.  ``tag`` carries a
per-span fact read from the call arguments (steps of a ``solve``, or
whether a spectral call takes the anisotropic quadrature path).
"""

from __future__ import annotations

import functools
import itertools
import threading
from collections import defaultdict
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import fracspde
import fracspde.cli
import fracspde.density
from fracspde.fields import FractionalIndex
from fracspde.noise import RngStream
from fracspde.solver import Coefficient


RECORD_FIELDS = ("id", "parent", "name", "start", "end", "tag", "workload",
                 "rep")


class Tracer:
    """Collects spans from any thread; parents follow the call nesting.

    A worker thread with no open span of its own (the CLI thread pool)
    takes the innermost open span of the thread that created the tracer
    as its parent.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, tag=None):
        spans, ids, main_stack = self.spans, self._ids, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else None
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append((sid, parent, name, start, end,
                              tag(args) if tag else None))

        return traced

    def patch(self, owner, attr, name, tag=None):
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, tag))

    def install(self):
        """Rebind the names the solver, CLI and density modules call."""
        self.patch(Coefficient, "__call__", "solver.coeff")
        self.patch(RngStream, "generator", "noise.stream")
        self.patch(fracspde.density, "solve", "solver.solve", _steps)
        self.patch(fracspde.density, "spectral_integral",
                   "spectral_measure.spectral_integral", _aniso)
        self.patch(fracspde.cli, "solve", "solver.solve", _steps)
        self.patch(fracspde.cli, "write_array_binary", "fields.write")
        self.patch(fracspde.cli, "estimate_temporal", "regularity.temporal")
        self.patch(fracspde.cli, "estimate_spatial", "regularity.spatial")
        self.patch(fracspde.cli, "critical_eta",
                   "spectral_measure.critical_eta", _aniso)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def records(self, rep):
        """Rows of ``RECORD_FIELDS`` for writing out."""
        return [span + (self.workload, rep) for span in self.spans]


def _steps(args):
    return args[0].n_steps


def _aniso(args):
    idx = next(a for a in args if isinstance(a, FractionalIndex))
    return idx.d >= 2 and any(a != 2.0 for a in idx.alpha)


def _run_cli(argv):
    return fracspde.cli.main(argv)


_ENTRY_POINTS = {
    "sample_law": ("density.sample_law", fracspde.sample_law, None),
    "kde": ("density.kde", fracspde.kde, None),
    "variance_bound_check": ("density.variance_bound",
                             fracspde.variance_bound_check, None),
    "kernel": ("stable_kernel.kernel", fracspde.kernel, None),
    "admissibility": ("spectral_measure.admissibility",
                      fracspde.admissibility, _aniso),
    "critical_eta": ("spectral_measure.critical_eta",
                     fracspde.critical_eta, _aniso),
    "cumulative_bound_check": ("spectral_measure.cumulative_bound_check",
                               fracspde.cumulative_bound_check, _aniso),
    "weighted_spectral_integral": (
        "spectral_measure.weighted_spectral_integral",
        fracspde.weighted_spectral_integral, _aniso),
}


def entry_points(tracer: Tracer | None = None) -> SimpleNamespace:
    """Public functions the workloads call, wrapped in spans when traced.

    ``cli(argv)`` runs the fracspde CLI in-process and is recorded as the
    span ``cli.<command>``.
    """
    api = {}
    for attr, (name, fn, tag) in _ENTRY_POINTS.items():
        api[attr] = tracer.wrap(name, fn, tag) if tracer else fn
    if tracer:
        def cli(argv):
            return tracer.wrap(f"cli.{argv[0]}", _run_cli)(argv)
    else:
        cli = _run_cli
    api["cli"] = cli
    return SimpleNamespace(**api)


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Span id -> duration minus the time its child spans cover."""
    children = defaultdict(list)
    for _sid, parent, _name, start, end, _tag in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - _covered(children.get(sid, ()), start, end)
            for sid, _parent, _name, start, end, _tag in spans}


def layer_metrics(spans):
    """Per-layer metrics of one traced repetition (counts and seconds)."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    selfs = self_times(spans)

    def dur(name):
        return sum(s[4] - s[3] for s in by_name[name])

    solves = by_name["solver.solve"]
    steps = sum(s[5] for s in solves)
    per_step = (lambda x: x / steps * 1e6) if steps else (lambda x: 0.0)
    rep_ms = [1e3 * (s[4] - s[3]) for s in solves] or [0.0]

    names = {s[0]: s[2] for s in spans}
    spectral = [s for s in spans if s[2].startswith("spectral_measure.")
                and not names.get(s[1], "").startswith("spectral_measure.")]
    cli = [s for s in spans if s[2].startswith("cli.")]

    return {
        "solver.replicate_steps": steps,
        "solver.replicate_ms_p50": float(np.percentile(rep_ms, 50)),
        "solver.replicate_ms_p90": float(np.percentile(rep_ms, 90)),
        "solver.step_us": per_step(dur("solver.solve")),
        "solver.step_self_us": per_step(sum(selfs[s[0]] for s in solves)),
        "solver.coeff_calls": len(by_name["solver.coeff"]),
        "solver.coeff_us_per_step": per_step(dur("solver.coeff")),
        "noise.stream_calls": len(by_name["noise.stream"]),
        "noise.stream_us_per_step": per_step(dur("noise.stream")),
        "fields.write_s": dur("fields.write"),
        "regularity.temporal_s": dur("regularity.temporal"),
        "regularity.spatial_s": dur("regularity.spatial"),
        "density.sample_law_s": dur("density.sample_law"),
        "density.kde_s": dur("density.kde"),
        "density.variance_bound_s": dur("density.variance_bound"),
        "cli.simulate_s": dur("cli.simulate"),
        "cli.holder_s": dur("cli.holder"),
        "cli.self_s": sum(selfs[s[0]] for s in cli),
        "spectral_measure.calls": len(spectral),
        "spectral_measure.aniso_s": sum(s[4] - s[3] for s in spectral
                                        if s[5]),
        "spectral_measure.radial_s": sum(s[4] - s[3] for s in spectral
                                         if not s[5]),
        "spectral_measure.critical_eta_s": dur(
            "spectral_measure.critical_eta"),
        "stable_kernel.kernel_calls": len(by_name["stable_kernel.kernel"]),
        "stable_kernel.kernel_s": dur("stable_kernel.kernel"),
    }
