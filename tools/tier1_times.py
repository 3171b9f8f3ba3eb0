"""Tier-1 test wall time, summarized as one JSON file.

    python3 tools/tier1_times.py --out BENCH_<pr>_tier1.json

Runs the tier-1 command of ROADMAP.md from the repository root (pytest's
``--durations=10`` comes from ``addopts`` in pyproject.toml) and writes
the total seconds pytest reports, the passed, failed and error counts,
the ten slowest test phases and the host it ran on.  The tests' own exit
status does not stop the tool: a failing suite is recorded, not hidden.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), os.pardir))
COMMAND = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]

# "0.77s call     tests/test_x.py::test_y[a]"
_DURATION = re.compile(r"^(\d+(?:\.\d+)?)s\s+(setup|call|teardown)\s+(\S.*?)\s*$")
# "3 failed, 454 passed, 2 warnings in 116.31s (0:01:56)"
_SUMMARY = re.compile(r"^=*\s*(.*?)\s+in\s+(\d+(?:\.\d+)?)s\b")
_COUNT = re.compile(r"(\d+)\s+(passed|failed|errors?|skipped|xfailed|xpassed|deselected)")


def parse_summary(text: str) -> dict:
    """Counts, total seconds and slowest phases from pytest's output.

    Raises ValueError when the output has no final summary line.
    """
    total, counts = None, {}
    slowest = []
    in_durations = False
    for line in text.splitlines():
        if "slowest" in line and "durations" in line:
            in_durations = True
            continue
        hit = _DURATION.match(line.strip()) if in_durations else None
        if hit:
            slowest.append({"test": hit.group(3), "phase": hit.group(2),
                            "seconds": float(hit.group(1))})
            continue
        summary = _SUMMARY.match(line.strip())
        if summary and _COUNT.search(summary.group(1)):
            total = float(summary.group(2))
            counts = {}
            for num, kind in _COUNT.findall(summary.group(1)):
                kind = "errors" if kind.startswith("error") else kind
                counts[kind] = counts.get(kind, 0) + int(num)
    if total is None:
        raise ValueError("no pytest summary line found")
    return {
        "total_s": total,
        "passed": counts.get("passed", 0),
        "failed": counts.get("failed", 0),
        "errors": counts.get("errors", 0),
        "skipped": counts.get("skipped", 0),
        "slowest": slowest,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH")) if p)
    proc = subprocess.run(COMMAND, cwd=ROOT, env=env, capture_output=True, text=True)
    report = parse_summary(proc.stdout)
    report.update(
        command="PYTHONPATH=src python -m pytest -q --continue-on-collection-errors",
        exit_code=proc.returncode,
        host={"nproc": os.cpu_count(), "machine": platform.machine(),
              "python": platform.python_version()},
    )
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
