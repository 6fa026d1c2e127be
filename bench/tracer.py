"""Timing wrappers around kerrcav's layers, installed from outside the package.

``install()`` runs only in a traced benchmark child.  It replaces module and
class attributes with wrappers that record one span per call, so kerrcav
itself carries no tracing code and untraced children load none of this.
kerrcav binds names with ``from .x import y``, so each importing module's
binding is patched as well as the defining one; a binding that no longer
exists (or now names a different object) is skipped, and the layers it fed
then read zero.

A span is ``[id, parent, name, start, end, thread, iteration, size]``.  Spans
stay in memory and are written out with the child's result; ``layer_metrics``
turns one iteration's spans into the per-layer metrics in BENCHMARK.json.
"""
from __future__ import annotations

import functools
import itertools
import os
import statistics
import threading
import time

# span name -> layer; a layer's self time is the sum over its spans
LAYER_OF = {
    "hilbert.build_space": "hilbert.build_space",
    "hilbert.collective": "hilbert.collective",
    "models.build_for_spec": "models.hamiltonian",
    "models.tier_b_hamiltonian": "models.hamiltonian",
    "models.effective_hamiltonian": "models.hamiltonian",
    "numerics.eigh": "numerics.eigh",
    "evolve.propagator": "evolve.propagator",
    "evolve.compose": "evolve.compose",
    "pulses.calibrate": "pulses.calibrate",
    "pulses.u_physical": "pulses.calibrate",
    "pulses.states": "pulses.states",
    "experiments.frame_rate": "experiments.frame_rate",
    "experiments.emit": "experiments.emit",
    "experiments.sweep": "experiments.sweep",
    "experiments.run": "experiments.run",
    "cli.main": "cli.main",
}
# spans that only orchestrate; coverage counts the layer spans below them
ORCHESTRATION = {"cli.main", "experiments.run", "experiments.sweep"}

# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = (
    ("hilbert.build_space.calls", "count", "lower"),
    ("hilbert.build_space.self_s", "s", "lower"),
    ("hilbert.collective.calls", "count", "lower"),
    ("hilbert.collective.self_s", "s", "lower"),
    ("hilbert.dim_max", "count", "lower"),
    ("models.hamiltonian.calls", "count", "lower"),
    ("models.hamiltonian.self_s", "s", "lower"),
    ("numerics.eigh.calls", "count", "lower"),
    ("numerics.eigh.self_s", "s", "lower"),
    ("numerics.eigh.dim_max", "count", "lower"),
    ("numerics.eigh.dim3_sum", "count", "lower"),
    ("evolve.propagator.calls", "count", "lower"),
    ("evolve.propagator.self_s", "s", "lower"),
    ("evolve.cache.misses", "count", "lower"),
    ("evolve.cache.hit_ratio", "1", "higher"),
    ("evolve.compose.calls", "count", "lower"),
    ("evolve.compose.self_s", "s", "lower"),
    ("pulses.calibrate.calls", "count", "lower"),
    ("pulses.calibrate.self_s", "s", "lower"),
    ("pulses.calibrate.evals", "count", "lower"),
    ("pulses.states.calls", "count", "lower"),
    ("pulses.states.points", "count", "lower"),
    ("pulses.states.self_s", "s", "lower"),
    ("pulses.states.s_per_point", "s", "lower"),
    ("experiments.frame_rate.calls", "count", "lower"),
    ("experiments.frame_rate.self_s", "s", "lower"),
    ("experiments.emit.calls", "count", "lower"),
    ("experiments.emit.self_s", "s", "lower"),
    ("experiments.emit.bytes", "B", "lower"),
    ("experiments.sweep.point_s", "s", "lower"),
    ("experiments.sweep.parallel_efficiency", "1", "higher"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.coverage", "1", "higher"),
    ("trace.overhead_ratio", "1", "lower"),
)


class Tracer:
    """Span recorder shared by every wrapper of one traced iteration."""

    def __init__(self, iteration: int):
        self.iteration = iteration
        self.spans: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, size=None):
        """``fn`` recording a span per call; ``size(args, result)`` tags it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # a worker thread's first span hangs off the main thread's open one
            parent = (stack or self._main_stack or [None])[-1]
            sid = next(self._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            ok, result = False, None
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tag = size(args, result) if (ok and size) else None
                self.spans.append([sid, parent, name, t0, t1,
                                   threading.get_ident(), self.iteration, tag])

        return traced


def _patch(tracer: Tracer, name: str, owners, attr: str, size=None) -> None:
    """Wrap ``owners[0].attr`` and rebind it wherever the same object sits."""
    original = getattr(owners[0], attr, None)
    if original is None:
        return
    wrapped = tracer.wrap(name, original, size)
    for owner in owners:
        if owner.__dict__.get(attr) is original:
            setattr(owner, attr, wrapped)


def _file_bytes(_args, paths) -> int:
    return sum(os.path.getsize(p) for p in paths.values())


def install(iteration: int) -> Tracer:
    """Patch every traced kerrcav binding in this process; return the tracer."""
    from kerrcav import cli, evolve, experiments, hilbert, models, numerics, pulses

    tr = Tracer(iteration)
    _patch(tr, "hilbert.build_space", (hilbert, experiments), "build_space",
           lambda _a, space: space.dim)
    _patch(tr, "hilbert.collective", (hilbert, models, pulses, experiments),
           "collective")
    _patch(tr, "models.build_for_spec", (models,), "build_for_spec")
    _patch(tr, "models.tier_b_hamiltonian", (models, experiments),
           "tier_b_hamiltonian")
    _patch(tr, "models.effective_hamiltonian", (models,),
           "effective_hamiltonian")
    _patch(tr, "numerics.eigh", (numerics.HermitianEigensystem,), "__init__",
           lambda args, _r: args[0].dim)
    _patch(tr, "evolve.propagator", (evolve.SegmentPropagators,), "propagator")
    _patch(tr, "evolve.compose", (evolve, pulses), "compose")
    _patch(tr, "pulses.calibrate", (pulses, experiments),
           "calibrate_pulse_phase")
    _patch(tr, "pulses.u_physical", (pulses,), "u_physical")
    _patch(tr, "pulses.states", (pulses.VProtocol,), "states",
           lambda args, _r: len(args[1]))
    _patch(tr, "experiments.frame_rate", (experiments,), "_best_rate")
    _patch(tr, "experiments.emit", (experiments, cli), "write_outputs",
           _file_bytes)
    _patch(tr, "experiments.sweep", (experiments, cli), "sweep")
    for runner in ("run_fig3a", "run_fig3b"):
        original = getattr(experiments, runner, None)
        if original is None:
            continue
        _patch(tr, "experiments.run", (experiments,), runner)
        for key, value in list(experiments.SCENARIOS.items()):
            if value is original:
                experiments.SCENARIOS[key] = getattr(experiments, runner)
    _patch(tr, "cli.main", (cli,), "main")
    return tr


# ---------------------------------------------------------------------------
# aggregation (runs in the parent, which never imports kerrcav)
# ---------------------------------------------------------------------------

def _union(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_metrics(spans, t0: float, t1: float, jobs: int) -> dict:
    """Per-layer metrics of one traced iteration timed over [t0, t1]."""
    by_id = {s[0]: s for s in spans}
    children: dict = {}
    for s in spans:
        children.setdefault(s[1], []).append(s)

    def self_time(s):
        kids = [(c[3], c[4]) for c in children.get(s[0], ())]
        return (s[4] - s[3]) - _union(kids, s[3], s[4])

    def layer(s):
        return LAYER_OF[s[2]]

    def named(name):
        return [s for s in spans if s[2] == name]

    def outermost(layer_name):
        # calls into a layer, not counting its own nested calls
        return [s for s in spans if layer(s) == layer_name
                and (s[1] not in by_id or layer(by_id[s[1]]) != layer_name)]

    def self_s(layer_name):
        return sum(self_time(s) for s in spans if layer(s) == layer_name)

    m = {}
    for lay in ("hilbert.build_space", "hilbert.collective",
                "models.hamiltonian", "numerics.eigh", "evolve.propagator",
                "evolve.compose", "pulses.calibrate", "pulses.states",
                "experiments.frame_rate", "experiments.emit"):
        m[f"{lay}.calls"] = len(outermost(lay))
        m[f"{lay}.self_s"] = self_s(lay)
    m["hilbert.dim_max"] = max(
        (s[7] for s in named("hilbert.build_space") if s[7]), default=0)
    dims = [s[7] for s in named("numerics.eigh") if s[7]]
    m["numerics.eigh.dim_max"] = max(dims, default=0)
    m["numerics.eigh.dim3_sum"] = sum(d ** 3 for d in dims)
    m["evolve.cache.misses"] = len(named("models.build_for_spec"))
    props = m["evolve.propagator.calls"]
    m["evolve.cache.hit_ratio"] = (
        1.0 - m["evolve.cache.misses"] / props if props else 0.0)
    m["pulses.calibrate.calls"] = len(named("pulses.calibrate"))
    m["pulses.calibrate.evals"] = len(named("pulses.u_physical"))
    states = named("pulses.states")
    points = sum(s[7] or 0 for s in states)
    m["pulses.states.points"] = points
    m["pulses.states.s_per_point"] = (
        sum(s[4] - s[3] for s in states) / points if points else 0.0)
    m["experiments.emit.bytes"] = sum(
        s[7] or 0 for s in named("experiments.emit"))
    sweeps = named("experiments.sweep")
    sweep_ids = {s[0] for s in sweeps}
    point_s = [s[4] - s[3] for s in named("experiments.run")
               if s[1] in sweep_ids]
    m["experiments.sweep.point_s"] = statistics.median(point_s) if point_s else 0.0
    sweep_wall = sum(s[4] - s[3] for s in sweeps)
    m["experiments.sweep.parallel_efficiency"] = (
        sum(point_s) / (jobs * sweep_wall) if sweep_wall else 0.0)
    m["cli.main.self_s"] = self_s("cli.main")
    covered = [(s[3], s[4]) for s in spans if layer(s) not in ORCHESTRATION]
    m["trace.coverage"] = _union(covered, t0, t1) / (t1 - t0)
    return m
