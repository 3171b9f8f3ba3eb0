"""Paired before/after benchmark runs, summarized as one BENCH_<pr>.json.

    python3 tools/bench_pairs.py --before DIR --after DIR \\
        --before-commit SHA --out BENCH_<pr>.json

Each DIR is a clean copy of one commit (``git archive`` or ``git clone``)
holding ``BENCHMARK.json`` and ``bench/run.py``.  Every workload listed
in the before copy's BENCHMARK.json gets ten pairs, each run lasting that
file's ``run_seconds``.  A pair runs ``bench/run.py --trace 0`` once in
each copy with the same seed (the pair index plus one); which side runs
first alternates from pair to pair, so slow drift of the host falls on
both sides alike.  Runs are sequential, one process at a time.

A run that exits non-zero (or times out) does not stop the tool: its
side, seed, exit code and last stderr lines are recorded under its
workload, and the next run goes on.  For every workload the output holds
each side's per-run end-to-end metrics and their medians and quartiles,
the after/before ratio of the medians, and how many pairs the after side
won on each metric, all taken over the pairs where both sides succeeded;
it also counts the pairs used and the runs that failed.  The end-to-end
metrics are scaled by the harness's machine-speed calibration; the same
summary of the unscaled wall-clock metrics sits beside them under
``unscaled``, with each side's calibration kernel times
(``kernel_s_median``), so a scaled result that the calibration moved
shows.  The file records the before commit, both sides' source hashes,
the CPU count and model, the run length and the pair count.  The file is committed with the
change it measures, so it cannot name that commit: the after commit is
null, and the after side's ``source_sha256`` identifies its source.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

PAIRS = 10
STDERR_LINES = 5  # lines of a failed run's stderr kept in the report


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    """One untraced benchmark run; its result line plus provenance."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=4 * seconds + 300, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    head = next(json.loads(line) for line in reversed(lines[:-1])
                if line.startswith('{"provenance"'))
    result["provenance"] = head["provenance"]
    result["unscaled"] = head["details"]["unscaled"]
    result["kernel_s_median"] = head["details"]["kernel_s_median"]
    return result


def _failure(side: str, seed: int, exc: subprocess.SubprocessError) -> dict:
    """What is kept of a failed run: where it ran and how it ended."""
    err = exc.stderr or ""
    if isinstance(err, bytes):
        err = err.decode(errors="replace")
    return {"side": side, "seed": seed,
            "exit_code": getattr(exc, "returncode", None),
            "stderr_tail": err.strip().splitlines()[-STDERR_LINES:]}


def quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4, method="inclusive")


def _spread(vals: list) -> dict:
    q1, med, q3 = quartiles(vals)
    return {"median": med, "q1": q1, "q3": q3, "runs": vals}


def summarize(runs: list, metrics: list) -> dict:
    out = {m["name"]: _spread([r["metrics"][m["name"]]["value"] for r in runs])
           for m in metrics}
    # the harness reports no unscaled peak_rss_mb: memory is not scaled
    out["unscaled"] = {m["name"]: _spread([r["unscaled"][m["name"]] for r in runs])
                       for m in metrics if m["name"] in runs[0]["unscaled"]}
    out["kernel_s_median"] = _spread([r["kernel_s_median"] for r in runs])
    out["failed_frac"] = statistics.median(
        r["failed"] / r["attempted"] if r["attempted"] else 1.0 for r in runs)
    return out


def _compare(after: dict, before: dict, lower: bool) -> None:
    """Add the after/before ratio of the medians and the pairs won to after."""
    wins = sum((x < y) if lower else (x > y)
               for x, y in zip(after["runs"], before["runs"]))
    after["ratio_to_before"] = (after["median"] / before["median"]
                                if before["median"] else None)
    after["pairs_won"] = wins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--before", required=True)
    parser.add_argument("--after", required=True)
    parser.add_argument("--before-commit", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.before, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    seconds = spec["run_seconds"]
    sides = {"before": args.before, "after": args.after}

    report = {
        "commits": {"before": args.before_commit, "after": None},
        "run_seconds": seconds,
        "pairs": PAIRS,
        "order": "alternating, before first in even pairs; seed = pair + 1",
        "workloads": {},
    }
    for name in (w["name"] for w in spec["workloads"]):
        runs = {"before": [], "after": []}
        failed = []
        for k in range(PAIRS):
            order = ("before", "after") if k % 2 == 0 else ("after", "before")
            pair = {}
            for side in order:
                try:
                    pair[side] = run_once(sides[side], name, k + 1, seconds)
                except subprocess.SubprocessError as exc:
                    failed.append(_failure(side, k + 1, exc))
                    print(name, k, side, "failed", json.dumps(failed[-1]),
                          file=sys.stderr, flush=True)
                    continue
                print(name, k, side, json.dumps(pair[side]["metrics"]),
                      file=sys.stderr, flush=True)
            if len(pair) == 2:
                for side in sides:
                    runs[side].append(pair[side])
        entry = {"pairs_used": len(runs["after"]), "failed_runs": len(failed),
                 "failures": failed}
        report["workloads"][name] = entry
        if not runs["after"]:
            continue
        entry.update((side, summarize(runs[side], metrics)) for side in sides)
        before, after = entry["before"], entry["after"]
        for m in metrics:
            key, lower = m["name"], m["better"] == "lower"
            _compare(after[key], before[key], lower)
            if key in after["unscaled"]:
                _compare(after["unscaled"][key], before["unscaled"][key], lower)
        report.setdefault("provenance", {
            side: {k: runs[side][0]["provenance"][k]
                   for k in ("source_sha256", "nproc", "cpu_model", "numpy",
                             "blas", "blas_threads")}
            for side in sides})
    report["failed_runs"] = sum(w["failed_runs"] for w in report["workloads"].values())
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
