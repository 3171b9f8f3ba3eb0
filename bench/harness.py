"""Closed-loop measurement of crdiff's CLI, untraced and traced.

One client issues tasks back to back in this process; each task is one or
more in-process calls of ``crdiff.cli.main(argv)``, so argument parsing,
model construction, the library layers and the CSV writer are all on the
timed path.  Import this module only after BLAS threads are pinned and
crdiff is importable (see run.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

import crdiff.cli as cli
from tracer import Tracer, instrumented, summarize
from workloads import WORKLOADS, TaskFailure

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_DIR = os.path.join(ROOT, ".bench_run")
SETUP_PROBES = 9       # set-up is timed this many times per run; median kept
TAIL_BEYOND = 10       # the tail percentile keeps this many samples above it
COUNT_TASKS = 3        # traced tasks whose counts are reported (exactly repeatable)
# Time of the MachineSpeed kernel at the faster of the two speeds seen on
# the 2-CPU Xeon the benchmark was written on (median 0.017 s, 0.012 s to
# 0.029 s over 300 timings); end-to-end times are scaled to that speed.
REF_NOMINAL_S = 0.013


@dataclass
class TaskResult:
    index: int
    wall_s: float
    useful: float = 0.0
    error: str | None = None
    digests: list = field(default_factory=list)
    spans: object = None          # SpanTotals of a traced task
    counters: dict = field(default_factory=dict)
    speed: float = 1.0            # machine-speed scale, see MachineSpeed

    @property
    def scaled_s(self) -> float:
        return self.wall_s * self.speed


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_task(workload, seed: int, index: int, outdir: str,
             tracer: Tracer | None = None, argv_edit=None) -> TaskResult:
    """Issue one task and check its outputs; never raises for a task fault.

    argv_edit, if given, rewrites each argv before it is issued (the
    self-test uses it to change the worker count).
    """
    task = workload.make_task(seed, index, outdir)
    argvs = [argv_edit(a) for a in task.argvs] if argv_edit else task.argvs
    sink = io.StringIO()
    error = None
    with contextlib.ExitStack() as stack:
        main = cli.main
        if tracer is not None:
            main = stack.enter_context(instrumented(tracer))
            tracer.begin_task()
        stack.enter_context(contextlib.redirect_stdout(sink))
        stack.enter_context(contextlib.redirect_stderr(sink))
        t0 = perf_counter()
        try:
            codes = [main(argv) for argv in argvs]
        except Exception:  # a crashing command is a failed task, not a crash here
            codes = None
            error = traceback.format_exc(limit=3)
        wall = perf_counter() - t0
    result = TaskResult(index, wall)
    if tracer is not None:
        result.spans = summarize(tracer.spans)
        result.counters = dict(tracer.counters)
    if error is None and any(codes):
        error = f"exit codes {codes}: {sink.getvalue()[-300:]}"
    if error is None:
        try:
            result.useful = task.check()
        except (TaskFailure, OSError, ValueError, KeyError, IndexError) as exc:
            error = f"{type(exc).__name__}: {exc}"
    result.error = error
    for path in task.outputs:
        if os.path.exists(path):
            result.digests.append(_sha256(path))
            os.remove(path)
    return result


# ---------------------------------------------------------------------------
# set-up time and provenance


def setup_seconds(workload_name: str) -> float:
    """Wall time from spawning a fresh interpreter until it is ready.

    The child imports crdiff and builds the workload's model and domain,
    which is what a task needs before it can be issued.
    """
    probe = os.path.join(BENCH_DIR, "setup_probe.py")
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, probe, workload_name],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0 or proc.stdout.strip() != "ready":
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-300:]}")
    return perf_counter() - t0


def _git_sha() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "crdiff")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            h.update(name.encode())
            h.update(open(os.path.join(src, name), "rb").read())
    return h.hexdigest()


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def provenance(workload, seed: int) -> dict:
    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    cache_dir = "/sys/devices/system/cpu/cpu0/cache"
    if os.path.isdir(cache_dir):
        for idx in sorted(os.listdir(cache_dir)):
            d = os.path.join(cache_dir, idx)
            if idx.startswith("index"):
                key = f"L{_read(d + '/level')}_{_read(d + '/type').lower()}"
                caches[key] = _read(d + "/size")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "workers": workload.workers,
        "workload": workload.name,
        "workload_seed": seed,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it: (value, percentile).

    Nearest-rank: the value is the (TAIL_BEYOND + 1)-th largest sample.  With
    too few samples the maximum is reported as the 100th percentile.
    """
    s = sorted(times)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    return s[-TAIL_BEYOND - 1], 100.0 * (len(s) - TAIL_BEYOND) / len(s)


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


class MachineSpeed:
    """Scale factors that cancel the host's speed drift.

    On a shared host the CPU's speed drifts by tens of percent over
    seconds to minutes, and every timing drifts with it.  A fixed kernel
    of plain numpy and Python work (no crdiff code) is timed before the
    first measurement and after each one; a measurement is scaled by
    REF_NOMINAL_S over the mean of the kernel times around it, so it reads
    as seconds at a fixed machine speed.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((4096, 5))
        self._z = rng.standard_normal((4096, 5, 2)) + 1j * rng.standard_normal((4096, 5, 2))
        self._e = rng.standard_normal((1024, 2, 2)) + 1j * rng.standard_normal((1024, 2, 2))
        self._p = rng.standard_normal((256, 3))
        self._s = rng.standard_normal((1024, 3))
        self.kernel_s = []
        self._time_kernel()

    def _time_kernel(self) -> float:
        t0 = perf_counter()
        for _ in range(2):
            np.einsum("pk,pka->pa", self._x, self._z)
            np.linalg.svd(self._e)
            d2 = self._p @ self._s.T           # one 2 MB buffer, reused
            d2 *= -2.0
            d2 += (self._p ** 2).sum(axis=1)[:, None]
            d2 += (self._s ** 2).sum(axis=1)[None, :]
            d2 *= -0.5
            np.exp(d2, out=d2).sum(axis=1)
            acc = 0.0
            for i in range(300):
                acc += 0.5 * i
        self.kernel_s.append(perf_counter() - t0)
        return self.kernel_s[-1]

    def after_measurement(self) -> float:
        """Scale for the measurement that just ended."""
        before = self.kernel_s[-1]
        return REF_NOMINAL_S / (0.5 * (before + self._time_kernel()))


def end_to_end(workload, seed: int, seconds: float, outdir: str):
    """Tasks back to back for `seconds`, with set-up probes spread evenly
    through the run so their median sees the same machine as the tasks."""
    workload.setup()
    speed = MachineSpeed()
    results, setups = [], []
    start = perf_counter()
    while not results or perf_counter() < start + seconds:
        due = start + len(setups) * seconds / SETUP_PROBES
        if len(setups) < SETUP_PROBES and perf_counter() >= due:
            raw = setup_seconds(workload.name)
            setups.append((raw, raw * speed.after_measurement()))
        else:
            results.append(run_task(workload, seed, len(results), outdir))
            results[-1].speed = speed.after_measurement()
    while len(setups) < SETUP_PROBES:
        raw = setup_seconds(workload.name)
        setups.append((raw, raw * speed.after_measurement()))
    ok = [r for r in results if r.error is None]

    def summary(wall, setup):
        walls = [wall(r) for r in results]
        ok_wall = sum(wall(r) for r in ok)
        return {
            "task_s_p50": statistics.median(walls),
            "task_s_tail": tail(walls)[0],
            "throughput_per_s":
                sum(r.useful for r in ok) / ok_wall if ok_wall else 0.0,
            "setup_s": statistics.median(s[setup] for s in setups),
        }

    scaled = summary(lambda r: r.scaled_s, 1)
    units = {"task_s_p50": "s", "task_s_tail": "s", "throughput_per_s": "1/s"}
    metrics = {k: _metric(scaled[k], units[k]) for k in units}
    metrics["peak_rss_mb"] = _metric(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    metrics["setup_s"] = _metric(scaled["setup_s"], "s")
    details = {"samples": len(results),
               "tail_percentile": tail([r.wall_s for r in results])[1],
               "setup_probes": SETUP_PROBES,
               "kernel_s_median": statistics.median(speed.kernel_s),
               "unscaled": summary(lambda r: r.wall_s, 0)}
    return results, metrics, details


# per-layer metric -> (span name, kind); kinds: self = self time per task,
# count = the spans' counts per task, calls = span calls per task
LAYER_SPANS = {
    "models.christoffel_s": ("models.christoffel", "self"),
    "models.christoffel_rows": ("models.christoffel", "count"),
    "models.frame_s": ("models.frame", "self"),
    "models.frame_rows": ("models.frame", "count"),
    "models.jacobian_s": ("models.jacobian", "self"),
    "models.jacobian_rows": ("models.jacobian", "count"),
    "models.build_s": ("models.build", "self"),
    "models.validate_s": ("models.validate", "self"),
    "frame_bundle.velocity_s": ("frame_bundle.velocity", "self"),
    "frame_bundle.velocity_rows": ("frame_bundle.velocity", "count"),
    "sde.polar_s": ("sde.polar", "self"),
    "sde.polar_rows": ("sde.polar", "count"),
    "sde.draw_s": ("sde.draw", "self"),
    "sde.draw_rows": ("sde.draw", "count"),
    "sde.ensemble_self_s": ("sde.ensemble", "self"),
    "sde.blocks": ("sde.block", "calls"),
    "sde.block_s": ("sde.block", "self"),
    "dirichlet.refine_s": ("dirichlet.refine", "self"),
    "dirichlet.refine_calls": ("dirichlet.refine", "calls"),
    "dirichlet.refine_events": ("dirichlet.refine", "count"),
    "dirichlet.zdraws_s": ("dirichlet.zdraws", "self"),
    "dirichlet.phi_s": ("dirichlet.phi", "self"),
    "dirichlet.phi_rows": ("dirichlet.phi", "count"),
    "dirichlet.sample_exits_calls": ("dirichlet.sample_exits", "calls"),
    "observables.observer_s": ("observables.observer", "self"),
    "observables.observer_calls": ("observables.observer", "calls"),
    "observables.kde_s": ("observables.kde", "self"),
    "observables.kde_pairs": ("observables.kde", "count"),
    "brackets.span_rank_s": ("brackets.span_rank", "self"),
    "brackets.span_rank_calls": ("brackets.span_rank", "calls"),
    "brackets.smoothness_s": ("brackets.smoothness", "self"),
    "cli.self_s": ("cli.main", "self"),
    "cli.csv_s": ("cli.csv", "self"),
    "cli.csv_bytes": ("cli.csv", "count"),
}
EXIT_SPANS = ("dirichlet.solve", "dirichlet.sample_exits", "dirichlet.exit_block")


def _mean(values) -> float:
    return float(sum(values) / len(values)) if values else 0.0


def layer_counts(traced: list[TaskResult]) -> dict:
    """Count-type per-layer metrics per task; exactly repeatable for a seed."""
    out = {}
    for name, (span, kind) in LAYER_SPANS.items():
        if kind == "count":
            out[name] = _mean([t.spans.count.get(span, 0.0) for t in traced])
        elif kind == "calls":
            out[name] = _mean([t.spans.calls.get(span, 0.0) for t in traced])
    out["dirichlet.resumed_events"] = _mean(
        [t.counters.get("dirichlet.resumed_events", 0) for t in traced])
    out["brackets.field_evals"] = _mean([t.spans.field_evals for t in traced])
    allocated = sum(t.spans.count.get("frame_bundle.velocity", 0.0)
                    for t in traced) / 2
    out["sde.step_efficiency"] = (
        sum(t.useful for t in traced) / allocated if allocated else 0.0)
    return out


def layer_times(traced: list[TaskResult], workers: int) -> dict:
    """Self-time per-layer metrics, mean seconds per traced task."""
    out = {name: _mean([t.spans.self_s.get(span, 0.0) for t in traced])
           for name, (span, kind) in LAYER_SPANS.items() if kind == "self"}
    out["dirichlet.exit_self_s"] = _mean(
        [sum(t.spans.self_s.get(s, 0.0) for s in EXIT_SPANS) for t in traced])
    busy = sum(t.spans.total_s.get("sde.block", 0.0) for t in traced)
    wall = sum(t.spans.total_s.get("sde.ensemble", 0.0) for t in traced)
    out["sde.parallel_eff"] = busy / (workers * wall) if wall else 0.0
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_eff", "_efficiency", "_frac")):
        return "ratio"
    return "count"


def traced_run(workload, seed: int, seconds: float, outdir: str):
    """Pairs of one untraced and one traced issue of the same task.

    The order within a pair alternates, so neither side always runs on
    warm caches; the per-pair difference is the tracing overhead.
    """
    workload.setup()
    tracer = Tracer()
    plain, traced = [], []
    deadline = perf_counter() + seconds
    while len(traced) < COUNT_TASKS or perf_counter() < deadline:
        i = len(traced)
        if i % 2:
            traced.append(run_task(workload, seed, i, outdir, tracer))
            plain.append(run_task(workload, seed, i, outdir))
        else:
            plain.append(run_task(workload, seed, i, outdir))
            traced.append(run_task(workload, seed, i, outdir, tracer))
        if traced[-1].error is None and traced[-1].digests != plain[-1].digests:
            traced[-1].error = "tracing changed the outputs"
    metrics = layer_counts(traced[:COUNT_TASKS])
    metrics.update(layer_times(traced, workload.workers))
    overhead = statistics.median(t.wall_s - p.wall_s for t, p in zip(traced, plain))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(
        p.wall_s for p in plain)
    metrics = {k: _metric(v, _unit(k)) for k, v in sorted(metrics.items())}
    details = {"pairs": len(traced), "count_tasks": COUNT_TASKS}
    return plain + traced, metrics, details


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one benchmark invocation; returns the result line as a dict."""
    workload = WORKLOADS[workload_name]
    outdir = os.path.join(RUN_DIR, f"out-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    try:
        run = traced_run if trace else end_to_end
        results, metrics, details = run(workload, seed, seconds, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    failures = [r for r in results if r.error is not None]
    report = {
        "provenance": provenance(workload, seed),
        "trace": int(trace),
        "details": details,
        "failures": [{"task": r.index, "error": r.error} for r in failures[:5]],
        "tasks": [[r.index, r.wall_s, r.speed, r.useful, r.digests]
                  for r in results],
        "metrics": metrics,
    }
    os.makedirs(os.path.join(RUN_DIR, "reports"), exist_ok=True)
    name = f"{workload_name}-seed{seed}-trace{int(trace)}-{os.getpid()}.json"
    with open(os.path.join(RUN_DIR, "reports", name), "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps({"provenance": report["provenance"], "details": details}))
    for f in report["failures"]:
        print(f"failed task {f['task']}: {f['error']}")
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }
