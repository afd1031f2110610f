"""scripts/bench_pairs.py: seed lists and the BENCH_<n>.json summary."""

import importlib.util
import json
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


def test_summary_with_an_aa_copy():
    results = {
        "parent": [_result(0.3, 1.0, 69.0), _result(0.3, 1.2, 70.0), _result(0.3, 1.1, 69.5)],
        "parent2": [_result(0.3, 0.9, 69.0), _result(0.3, 1.3, 69.0), _result(0.3, 1.0, 69.0)],
        "change": [_result(0.3, 0.8, 69.0), _result(0.3, 0.9, 69.0), _result(0.3, 0.7, 69.0)],
    }
    wall = bench_pairs.summarise([1, 2, 3], results)["metrics"]["wall_s"]
    assert wall["parent2"] == {"median": 1.0, "q1": 0.95, "q3": 1.15, "runs": [0.9, 1.3, 1.0]}
    assert wall["aa_wins"] == 2 and wall["change_wins"] == 3
    assert wall["aa_median_change_pct"] == pytest.approx(-9.09, abs=1e-9)
    assert wall["median_change_pct"] == pytest.approx(-27.27, abs=1e-9)
    assert "aa_wins" not in bench_pairs.summarise([1, 2, 3], {k: results[k] for k in ("parent", "change")})[
        "metrics"]["wall_s"]


def test_three_sides_rotate_with_the_pair_index(tmp_path, monkeypatch):
    calls = []

    def fake_run(checkout, workload, seed):
        calls.append((checkout.name, seed))
        result = _result(0.3, {"p": 1.0, "q": 1.01, "c": 0.9}[checkout.name], 69.0)
        result["env"] = 'env {"nproc": 2, "python": "3", "numpy": "2", "blas": "x"}'
        return result

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(tmp_path / "p"), "--parent2", str(tmp_path / "q"), "--change", str(tmp_path / "c"),
            "--workload", "bulk-fuzz", "--seeds", "5-8", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert calls == [("p", 5), ("q", 5), ("c", 5), ("q", 6), ("c", 6), ("p", 6),
                     ("c", 7), ("p", 7), ("q", 7), ("p", 8), ("q", 8), ("c", 8)]
    entry = json.loads(out.read_text())["workloads"]["bulk-fuzz"]
    wall = entry["metrics"]["wall_s"]
    assert (wall["change_wins"], wall["aa_wins"], wall["aa_median_change_pct"]) == (4, 0, 1.0)
    assert entry["ops_failed"] == {"parent": 0, "parent2": 0, "change": 0}

    calls.clear()  # without --parent2 the two sides alternate as before
    assert bench_pairs.main([a for a in argv if a not in ("--parent2", str(tmp_path / "q"))]) == 0
    assert calls == [("p", 5), ("c", 5), ("c", 6), ("p", 6), ("p", 7), ("c", 7), ("c", 8), ("p", 8)]
