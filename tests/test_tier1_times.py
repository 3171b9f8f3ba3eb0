"""tools/tier1_times.py: parsing pytest's summary, with no subprocess."""

import importlib.util
import os

import pytest

_TOOL = os.path.join(os.path.dirname(__file__), os.pardir, "tools", "tier1_times.py")
_spec = importlib.util.spec_from_file_location("tier1_times", _TOOL)
tier1_times = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tier1_times)

CANNED = """\
........................................................................ [ 15%]
.....F.................................................................. [ 31%]
FAILED tests/test_cli.py::test_density_in_2s - assert 1 in 2.0s
============================= slowest 10 durations =============================
61.10s call     tests/test_dirichlet.py::test_markov_consistency_nested
3.52s call     tests/test_sde.py::test_law[heis1-0.5]
0.91s setup    tests/test_golden.py::test_pins
0.40s call     tests/test_dirichlet.py::test_flat_exits_match_framed_heun[2]

(6 durations < 0.005s hidden.  Use -vv to show these durations.)
=========================== short test summary info ============================
FAILED tests/test_cli.py::test_density_in_2s - assert 1 in 2.0s
1 failed, 455 passed, 1 skipped, 2 errors, 3 warnings in 116.31s (0:01:56)
"""


def test_parse_canned_summary():
    got = tier1_times.parse_summary(CANNED)
    assert got["total_s"] == 116.31
    assert (got["passed"], got["failed"], got["errors"], got["skipped"]) == (455, 1, 2, 1)
    assert [s["seconds"] for s in got["slowest"]] == [61.10, 3.52, 0.91, 0.40]
    assert got["slowest"][0] == {
        "test": "tests/test_dirichlet.py::test_markov_consistency_nested",
        "phase": "call", "seconds": 61.10}
    assert got["slowest"][1]["test"] == "tests/test_sde.py::test_law[heis1-0.5]"
    assert got["slowest"][2]["phase"] == "setup"


def test_parse_passing_summary_with_bars():
    got = tier1_times.parse_summary("..\n======== 2 passed in 0.50s ========\n")
    assert (got["total_s"], got["passed"], got["failed"], got["slowest"]) == (0.5, 2, 0, [])


def test_parse_without_summary_raises():
    with pytest.raises(ValueError, match="summary"):
        tier1_times.parse_summary("ERROR: usage\n")
