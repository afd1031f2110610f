"""scripts/report_diff.py: the per-workload comparison of two report sets."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_PATH = ROOT / "scripts" / "report_diff.py"
_SPEC = importlib.util.spec_from_file_location("report_diff", _PATH)
report_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(report_diff)


def _rep(checksum, **margins):
    return {"checksum": checksum, "margins": margins}


def test_counts_identical_checksums_and_worst_drift():
    parent = {
        "est": {"a": _rep("x", m=1.0), "b": _rep("y", m=4.0, n="p"), "c": _rep("z", m=0.5)},
        "bulk": {"d": _rep("w", m=2.0)},
    }
    change = {
        "est": {"a": _rep("x", m=1.0), "b": _rep("y2", m=4.0 + 4e-15, n="p"), "c": _rep("z2", m=0.5)},
        "bulk": {"d": _rep("w", m=2.0)},
    }
    rows = report_diff.compare(parent, change)
    assert rows["est"]["reports"] == 3 and rows["est"]["same_checksum"] == 1
    # the replay measure: |difference| / max(1, |values|)
    assert rows["est"]["changed"]["b"] == pytest.approx(1e-15, rel=1e-3)
    assert rows["est"]["changed"]["c"] == 0.0  # a changed checksum with equal margins
    assert rows["est"]["worst_drift"] == rows["est"]["changed"]["b"]
    assert rows["bulk"] == {"reports": 1, "same_checksum": 1, "worst_drift": 0.0, "changed": {}}


def test_missing_reports_and_margin_keys_drift_by_inf():
    parent = {"est": {"a": _rep("x", m=1.0), "b": _rep("y", m=1.0), "c": None}}
    change = {"est": {"a": _rep("x2", k=1.0), "c": _rep("z", m=1.0)}, "new": {"d": _rep("w", m=1.0)}}
    rows = report_diff.compare(parent, change)
    assert rows["est"]["changed"] == {"a": math.inf, "b": math.inf, "c": math.inf}
    assert rows["est"]["same_checksum"] == 0
    assert rows["new"]["worst_drift"] == math.inf


def test_seeds_take_ranges_and_lists():
    assert report_diff.parse_seeds("1-3,7") == [1, 2, 3, 7]
    assert report_diff.parse_seeds("2") == [2]


def test_collect_keeps_only_the_named_workloads(monkeypatch):
    # no seeds: only the warm-ups run, which keeps this quick
    monkeypatch.setattr(sys, "path", list(sys.path))  # collect prepends the checkout
    reports = report_diff.collect(ROOT, [], ["bulk-fuzz"])
    assert list(reports) == ["bulk-fuzz"]
    suites = ("ftvn", "holder", "gen-holder", "clarkson", "cp-table")
    assert list(reports["bulk-fuzz"]) == [f"warmup:{s}" for s in suites]
    assert all(rep is not None and rep["checksum"] for rep in reports["bulk-fuzz"].values())


def test_collect_rejects_unknown_workload(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    with pytest.raises(SystemExit, match="unknown workload"):
        report_diff.collect(ROOT, [1], ["nope"])
