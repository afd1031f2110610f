"""scripts/bench_pairs.py: seed lists and the BENCH_<n>.json summary."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _result(setup, wall, rss, failed=0):
    values = {"setup_s": setup, "wall_s": wall, "peak_rss_mb": rss}
    return {"attempted": 20, "failed": failed,
            "metrics": {k: {"value": v, "unit": "x"} for k, v in values.items()}}


def test_parse_seeds_ranges_and_lists():
    assert bench_pairs.parse_seeds("1501-1503,1510") == [1501, 1502, 1503, 1510]
    assert bench_pairs.parse_seeds("7") == [7]


def test_summary_layout_and_wins():
    results = {
        "parent": [_result(0.3, 1.0, 69.0), _result(0.3, 1.2, 70.0), _result(0.3, 1.1, 69.5)],
        "change": [_result(0.3, 1.1, 48.0), _result(0.2, 1.0, 71.0), _result(0.4, 1.1, 47.0, failed=1)],
    }
    entry = bench_pairs.summarise([1, 2, 3], results)
    assert entry["pairs"] == 3 and entry["seeds"] == [1, 2, 3]
    rss = entry["metrics"]["peak_rss_mb"]
    assert rss["parent"] == {"median": 69.5, "q1": 69.25, "q3": 69.75, "runs": [69.0, 70.0, 69.5]}
    assert rss["change"]["median"] == 48.0
    assert rss["change_wins"] == 2  # the second pair reads higher
    assert rss["median_change_pct"] == pytest.approx(-30.94, abs=1e-9)
    assert rss["parent_iqr"] == 0.5
    assert entry["metrics"]["wall_s"]["change_wins"] == 1  # a tie is not a win
    assert entry["ops_failed"] == {"parent": 0, "change": 1}
    assert entry["ops_attempted"] == {"parent": 60, "change": 60}
