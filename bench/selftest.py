"""Self-tests of the benchmark, kept out of the timed runs and of set-up.

    python3 bench/selftest.py [--seed N]

1. Digests: issuing the same tasks twice gives byte-identical outputs,
   on every workload.
2. Seed rule: one lineint_flat_n2 task gives the same output digests with
   --workers 1 as with --workers 2.
3. Traced counts: two traced runs give identical count-type per-layer
   metrics, tracing leaves every output unchanged, and each count is
   non-zero on the workloads whose layers it measures (and zero where
   that layer cannot run).

Prints one line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from run import prepare

SIMS = {"heat_density_gauge_n1", "lineint_flat_n2", "dirichlet_ball_n1"}
ENSEMBLES = {"heat_density_gauge_n1", "lineint_flat_n2"}
ALL = SIMS | {"diagnostics_gauge_n2"}

# count metric -> (workloads where it must be non-zero, zero everywhere else?)
EXPECTED_COUNTS = {
    "models.christoffel_rows": ({"heat_density_gauge_n1"}, False),
    "models.frame_rows": (ALL, False),
    "models.jacobian_rows": ({"diagnostics_gauge_n2"}, True),
    "frame_bundle.velocity_rows": (SIMS, True),
    "sde.polar_rows": (SIMS, True),
    "sde.draw_rows": (SIMS, True),
    "sde.blocks": (ENSEMBLES, True),
    "sde.step_efficiency": (SIMS, True),
    "dirichlet.refine_calls": ({"dirichlet_ball_n1"}, True),
    "dirichlet.refine_events": ({"dirichlet_ball_n1"}, True),
    "dirichlet.resumed_events": ({"dirichlet_ball_n1"}, True),
    "dirichlet.phi_rows": ({"dirichlet_ball_n1"}, True),
    "dirichlet.sample_exits_calls": ({"dirichlet_ball_n1"}, True),
    "observables.observer_calls": ({"lineint_flat_n2"}, True),
    "observables.kde_pairs": ({"heat_density_gauge_n1"}, True),
    "brackets.span_rank_calls": ({"diagnostics_gauge_n2"}, True),
    "brackets.field_evals": ({"diagnostics_gauge_n2"}, True),
    "cli.csv_bytes": (ALL, False),
}


def with_workers(argv: list[str], workers: int) -> list[str]:
    i = argv.index("--workers")
    return argv[: i + 1] + [str(workers)] + argv[i + 2 :]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    prepare()
    import harness
    from workloads import WORKLOADS

    outdir = os.path.join(harness.RUN_DIR, f"selftest-{os.getpid()}")
    os.makedirs(outdir, exist_ok=True)
    failures = []

    def report(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    try:
        for name, workload in WORKLOADS.items():
            runs = [[harness.run_task(workload, args.seed, i, outdir)
                     for i in range(2)] for _ in range(2)]
            errors = [r.error for run in runs for r in run if r.error]
            report(not errors, f"{name}: tasks pass {errors[:1]}")
            report([r.digests for r in runs[0]] == [r.digests for r in runs[1]],
                   f"{name}: identical digests on a second run")

        lineint = WORKLOADS["lineint_flat_n2"]
        one = harness.run_task(
            lineint, args.seed, 0, outdir,
            argv_edit=lambda a: with_workers(a, 1))
        two = harness.run_task(lineint, args.seed, 0, outdir)
        report(one.error is None and one.digests == two.digests,
               "lineint_flat_n2: same digests with --workers 1 and 2")

        for name, workload in WORKLOADS.items():
            counts = []
            for _ in range(2):
                results, metrics, _details = harness.traced_run(
                    workload, args.seed, 0.0, outdir)
                errors = [r.error for r in results if r.error]
                report(not errors, f"{name}: traced tasks pass {errors[:1]}")
                counts.append({k: v["value"] for k, v in metrics.items()
                               if v["unit"] == "count"
                               or k == "sde.step_efficiency"})
            report(counts[0] == counts[1], f"{name}: counts repeat exactly")
            for metric, (nonzero, only) in EXPECTED_COUNTS.items():
                value = counts[0][metric]
                if name in nonzero:
                    report(value > 0, f"{name}: {metric} = {value:g} > 0")
                elif only:
                    report(value == 0, f"{name}: {metric} = {value:g} == 0")
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
