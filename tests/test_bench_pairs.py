"""tools/bench_pairs.py: pairing, summary and failed runs, with no subprocess."""

import importlib.util
import json
import os
import subprocess

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "throughput_per_s", "better": "higher"},
           {"name": "task_s_p50", "better": "lower"},
           {"name": "peak_rss_mb", "better": "lower"}]


def _fake_run_once(fail, timeouts=()):
    """A run_once whose throughput is 100 + seed (before) or 110 + seed
    (after), except the (side, seed) runs in ``fail``, which exit 3, and
    those in ``timeouts``, which time out with bytes on stderr.  Unscaled,
    the throughput is 90 + seed on both sides, except that the after side
    wins pairs 1 and 3 by one; the calibration kernel took 0.01 s before
    and 0.01 + seed / 1000 s after."""
    def run_once(checkout, workload, seed, seconds):
        side = os.path.basename(checkout)
        if (side, seed) in fail:
            raise subprocess.CalledProcessError(
                3, ["bench/run.py"], output="", stderr="line 1\nline 2\nboom\n")
        if (side, seed) in timeouts:
            raise subprocess.TimeoutExpired(["bench/run.py"], 1, output=b"",
                                            stderr=b"line 1\nslow\n")
        base = 100.0 if side == "before" else 110.0
        # the after side loses pair 2 on throughput
        thr = base + seed - (20.0 if (side, seed) == ("after", 2) else 0.0)
        raw = 90.0 + seed + (1.0 if side == "after" and seed in (1, 3) else 0.0)
        return {"correct": True, "attempted": 10, "failed": 0,
                "metrics": {"throughput_per_s": {"value": thr},
                            "task_s_p50": {"value": 1.0 / thr},
                            "peak_rss_mb": {"value": 50.0}},
                "unscaled": {"throughput_per_s": raw, "task_s_p50": 1.0 / raw,
                             "setup_s": 0.2},
                "kernel_s_median": 0.01 + (seed / 1000 if side == "after" else 0.0),
                "provenance": {"source_sha256": side, "nproc": 2, "cpu_model": "x",
                               "numpy": "n", "blas": "b", "blas_threads": "1"}}
    return run_once


def test_failed_runs_are_recorded_and_left_out_of_pairs(tmp_path, monkeypatch):
    for side in ("before", "after"):
        os.mkdir(tmp_path / side)
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}
    (tmp_path / "before" / "BENCHMARK.json").write_text(json.dumps(spec))
    fail = {("before", 4), ("after", 7)}
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once(fail, {("after", 9)}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--before", str(tmp_path / "before"),
                             "--after", str(tmp_path / "after"),
                             "--before-commit", "abc", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["failed_runs"] == 3
    entry = report["workloads"]["w"]
    assert entry["failed_runs"] == 3 and entry["pairs_used"] == 7
    ends = {(f["side"], f["seed"]): (f["exit_code"], f["stderr_tail"][-1])
            for f in entry["failures"]}
    assert ends == {("before", 4): (3, "boom"), ("after", 7): (3, "boom"),
                    ("after", 9): (None, "slow")}
    seeds = [1, 2, 3, 5, 6, 8, 10]  # both sides succeeded
    before, after = entry["before"]["throughput_per_s"], entry["after"]["throughput_per_s"]
    assert before["runs"] == [100.0 + s for s in seeds]
    assert after["runs"] == [110.0 + s - (20.0 if s == 2 else 0.0) for s in seeds]
    assert before["median"] == 105.0 and after["median"] == 115.0
    assert (before["q1"], before["q3"]) == (102.5, 107.0)
    assert after["ratio_to_before"] == pytest.approx(115.0 / 105.0)
    assert after["pairs_won"] == 6
    assert entry["after"]["task_s_p50"]["pairs_won"] == 6
    assert report["provenance"]["after"]["source_sha256"] == "after"
    # unscaled metrics beside the scaled ones; memory has no unscaled value
    raw_before = entry["before"]["unscaled"]["throughput_per_s"]
    raw_after = entry["after"]["unscaled"]["throughput_per_s"]
    assert raw_before["runs"] == [90.0 + s for s in seeds]
    assert raw_after["runs"] == [90.0 + s + (s in (1, 3)) for s in seeds]
    assert raw_before["median"] == 95.0 and raw_after["median"] == 95.0
    assert raw_after["ratio_to_before"] == 1.0 and raw_after["pairs_won"] == 2
    assert entry["after"]["unscaled"]["task_s_p50"]["pairs_won"] == 2
    assert set(entry["after"]["unscaled"]) == {"throughput_per_s", "task_s_p50"}
    assert entry["after"]["peak_rss_mb"]["pairs_won"] == 0
    assert "pairs_won" not in entry["before"]["unscaled"]["throughput_per_s"]
    assert entry["before"]["kernel_s_median"]["runs"] == [0.01] * len(seeds)
    assert entry["after"]["kernel_s_median"]["median"] == pytest.approx(0.015)


def test_run_once_keeps_unscaled_details(monkeypatch):
    """run_once takes the unscaled metrics and the calibration kernel's
    median from the provenance line it already reads for provenance."""
    head = {"provenance": {"source_sha256": "s"},
            "details": {"samples": 3, "kernel_s_median": 0.012,
                        "unscaled": {"throughput_per_s": 7.0, "setup_s": 0.2}}}
    result = {"correct": True, "attempted": 3, "failed": 0, "metrics": {}}
    stdout = "\n".join(["noise", json.dumps(head), json.dumps(result)]) + "\n"

    def fake_run(argv, **kwargs):
        return subprocess.CompletedProcess(argv, 0, stdout=stdout, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    out = bench_pairs.run_once("/nowhere", "w", 1, 1.0)
    assert out["provenance"] == {"source_sha256": "s"}
    assert out["unscaled"] == {"throughput_per_s": 7.0, "setup_s": 0.2}
    assert out["kernel_s_median"] == 0.012


def test_workload_with_no_complete_pair_keeps_only_failures(tmp_path, monkeypatch):
    for side in ("before", "after"):
        os.mkdir(tmp_path / side)
    spec = {"run_seconds": 1, "workloads": [{"name": "w"}], "end_to_end": METRICS}
    (tmp_path / "before" / "BENCHMARK.json").write_text(json.dumps(spec))
    fail = {("after", s) for s in range(1, bench_pairs.PAIRS + 1)}
    monkeypatch.setattr(bench_pairs, "run_once", _fake_run_once(fail))
    out = tmp_path / "bench.json"
    bench_pairs.main(["--before", str(tmp_path / "before"), "--after",
                      str(tmp_path / "after"), "--before-commit", "abc", "--out", str(out)])
    entry = json.loads(out.read_text())["workloads"]["w"]
    assert entry["pairs_used"] == 0 and entry["failed_runs"] == bench_pairs.PAIRS
    assert "before" not in entry and "after" not in entry
