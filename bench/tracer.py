"""Span tracing of crdiff's layers from outside the package.

``instrumented(tracer)`` swaps traced wrappers into the module attributes
through which the CLI reaches each layer, and restores them on exit.
Names imported by value are wrapped where they are looked up:
``velocity_arrays`` and ``_polar_batch`` in both ``crdiff.sde`` and
``crdiff.dirichlet``, builders and commands in ``crdiff.cli``.  Model and
domain callables are wrapped by passing the descriptor through
``dataclasses.replace``.  No file under ``src/`` changes.

A span records its name, parent, start, end and one optional count.
Spans are kept per thread, so blocks that run on pool threads nest under
the span of the thread that started the task.  A layer's self time is a
span's duration minus the union of the intervals its child spans cover.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import os
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import crdiff.cli as cli
import crdiff.dirichlet as dirichlet
import crdiff.observables as observables
import crdiff.sde as sde


def _rows(x) -> int:
    """Points in a batch of shape (..., D)."""
    return math.prod(x.shape[:-1])


class Tracer:
    """In-memory span recorder for one task at a time."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self.spans: list[tuple] = []     # (id, parent, name, t0, t1, count)
        self.counters: dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._root_stack: list[int] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_task(self) -> None:
        """Start a task on the calling thread; pool threads nest under it."""
        self.spans = []
        self.counters = defaultdict(int)
        self._root_stack = self._stack()

    def add(self, counter: str, n: int) -> None:
        """Count an outcome that has no span of its own."""
        with self._lock:
            self.counters[counter] += n

    def wrap(self, name: str, fn, count=None):
        """Traced version of fn; count(args, result) gives the span's count."""

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._root_stack[-1] if self._root_stack else 0
            sid = next(self._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            n = count(args, out) if count is not None else 0
            self.spans.append((sid, parent, name, t0, t1, n))
            return out

        return traced


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


@dataclasses.dataclass
class SpanTotals:
    """Per-name totals of one task's spans."""

    calls: dict
    total_s: dict
    self_s: dict
    count: dict
    field_evals: int


def summarize(spans) -> SpanTotals:
    children = defaultdict(list)
    by_id = {}
    for sid, parent, name, t0, t1, _n in spans:
        children[parent].append((t0, t1))
        by_id[sid] = (parent, name)
    calls, total_s, self_s, count = (defaultdict(float) for _ in range(4))
    field_evals = 0
    for sid, _parent, name, t0, t1, n in spans:
        calls[name] += 1
        total_s[name] += t1 - t0
        self_s[name] += (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
        count[name] += n
        if name in ("models.frame", "models.jacobian"):
            field_evals += _under_brackets(by_id, sid)
    return SpanTotals(calls, total_s, self_s, count, field_evals)


def _under_brackets(by_id, sid) -> bool:
    parent = by_id[sid][0]
    while parent in by_id:
        parent, name = by_id[parent]
        if name.startswith("brackets."):
            return True
    return False


class _TracedGenerator:
    """A numpy Generator whose standard_normal draws are spans."""

    def __init__(self, tracer: Tracer, rng):
        self._rng = rng
        self.standard_normal = tracer.wrap(
            "sde.draw", rng.standard_normal, lambda a, out: out.shape[0]
        )

    def __getattr__(self, attr):
        return getattr(self._rng, attr)


@contextmanager
def instrumented(tracer: Tracer):
    """Route every layer call the CLI makes through the tracer."""
    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    wrap = tracer.wrap
    koranyi_ball = cli.koranyi_ball
    draw_fn = sde._seeded_draw_fn
    block_rng = dirichlet._block_rng

    def rows(i):
        """Count: points in the batch passed as argument i."""
        return lambda args, out: _rows(args[i])

    def traced_model(build):
        build = wrap("models.build", build)

        def make(*args, **kwargs):
            m = build(*args, **kwargs)
            jac = m.frame_jacobian
            return dataclasses.replace(
                m,
                frame=wrap("models.frame", m.frame, rows(0)),
                christoffel=wrap("models.christoffel", m.christoffel, rows(0)),
                frame_jacobian=None if jac is None
                else wrap("models.jacobian", jac, rows(0)),
            )

        return make

    def traced_domain(*args, **kwargs):
        d = koranyi_ball(*args, **kwargs)
        return dataclasses.replace(d, phi=wrap("dirichlet.phi", d.phi, rows(0)))

    def traced_draw_fn(*args, **kwargs):
        # each draw generates a whole block, whatever the active width
        return wrap("sde.draw", draw_fn(*args, **kwargs),
                    lambda a, out: sde.BLOCK)

    def traced_block_rng(*args, **kwargs):
        return _TracedGenerator(tracer, block_rng(*args, **kwargs))

    velocity = wrap("frame_bundle.velocity", sde.velocity_arrays, rows(1))
    polar = wrap("sde.polar", sde._polar_batch,
                 lambda a, out: math.prod(a[0].shape[:-2]))
    ensemble = wrap("sde.ensemble", sde.simulate_ensemble)
    sample_exits = wrap("dirichlet.sample_exits", dirichlet.sample_exits)
    refine = wrap("dirichlet.refine", dirichlet._refine_events,
                  lambda a, out: a[2].shape[0])

    def traced_refine(*args, **kwargs):
        out = refine(*args, **kwargs)
        tracer.add("dirichlet.resumed_events",
                   int((out[0] == dirichlet.REFINE_RESUME).sum()))
        return out

    base_observer = observables.LineIntegralObserver
    traced_observer = type(
        base_observer.__name__, (base_observer,),
        {"__call__": wrap("observables.observer", base_observer.__call__)},
    )

    try:
        patch(cli, "heisenberg_model", traced_model(cli.heisenberg_model))
        patch(cli, "phase_rotated_heisenberg",
              traced_model(cli.phase_rotated_heisenberg))
        patch(cli, "validate_model", wrap("models.validate", cli.validate_model))
        patch(sde, "velocity_arrays", velocity)
        patch(dirichlet, "velocity_arrays", velocity)
        patch(sde, "_polar_batch", polar)
        patch(dirichlet, "_polar_batch", polar)
        patch(sde, "_seeded_draw_fn", traced_draw_fn)
        patch(dirichlet, "_block_rng", traced_block_rng)
        patch(cli, "simulate_ensemble", ensemble)
        patch(observables, "simulate_ensemble", ensemble)
        patch(sde, "_run_block", wrap("sde.block", sde._run_block))
        patch(cli, "koranyi_ball", traced_domain)
        patch(cli, "solve_dirichlet", wrap("dirichlet.solve", cli.solve_dirichlet))
        patch(cli, "sample_exits", sample_exits)
        patch(dirichlet, "sample_exits", sample_exits)
        patch(dirichlet, "_exit_block",
              wrap("dirichlet.exit_block", dirichlet._exit_block))
        patch(dirichlet, "_refine_events", traced_refine)
        patch(dirichlet, "_event_zdraws",
              wrap("dirichlet.zdraws", dirichlet._event_zdraws))
        patch(observables, "LineIntegralObserver", traced_observer)
        patch(cli, "estimate_density", wrap(
            "observables.kde", cli.estimate_density,
            lambda a, out: out.values.size * out.n_samples))
        patch(cli, "span_rank", wrap("brackets.span_rank", cli.span_rank))
        patch(cli, "smoothness_condition",
              wrap("brackets.smoothness", cli.smoothness_condition))
        patch(cli, "_write_csv", wrap("cli.csv", cli._write_csv,
                                      lambda a, out: os.path.getsize(a[0])))
        yield wrap("cli.main", cli.main)
    finally:
        for module, attr, old in reversed(saved):
            setattr(module, attr, old)
