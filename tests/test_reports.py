"""Campaign configuration and suite report serialization: strict schema,
checksums, canonical JSON."""

import json
import math

import numpy as np
import pytest

from jspec import CampaignConfig, ReportError, SuiteReport, load_report, run_suite
from jspec.reports import (
    DEFAULT_GRID,
    SCHEMA_VERSION,
    exponent_to_json,
    margins_match,
)
from jspec.suites import SUITE_IDS


@pytest.fixture(scope="module")
def small_report():
    return run_suite(CampaignConfig(suite="ftvn", algebra="sym:2", trials=20, seed=3))


class TestCampaignConfig:
    def test_defaults(self):
        cfg = CampaignConfig(suite="holder")
        assert cfg.algebra == "sym:3"
        assert cfg.trials == 100
        assert tuple(cfg.grid) == DEFAULT_GRID

    def test_grid_coercion(self):
        cfg = CampaignConfig(suite="ftvn", grid=("4/3", 2, "inf"))
        vals = [e.value for e in cfg.exponents]
        assert vals[0] == pytest.approx(4.0 / 3.0)
        assert vals[1] == 2.0
        assert math.isinf(vals[2])

    @pytest.mark.parametrize(
        "kw",
        [
            {"suite": "nope"},
            {"suite": "ftvn", "trials": 0},
            {"suite": "cp-table", "n": 1},
            {"suite": "ftvn", "grid": (0.5,)},
        ],
    )
    def test_validation(self, kw):
        with pytest.raises((ReportError, ValueError)):
            CampaignConfig(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            {"trials": "3"},
            {"seed": 1.0},
            {"restarts": True},
            {"max_iters": None},
            {"starts": "200"},
            {"n": 2.0},
            {"tol": "1e-10"},
            {"tol": False},
            {"algebra": 3},
            {"suite": ["ftvn"]},
            {"grid": "12"},
            {"grid": [{}]},
            {"grid": [True]},
            {"grid": ["inf", np.True_]},
        ],
    )
    def test_field_types(self, kw):
        with pytest.raises(ReportError):
            CampaignConfig(**{"suite": "ftvn", **kw})

    def test_json_round_trip(self):
        cfg = CampaignConfig(suite="theorem2", algebra="spin:4", trials=7, seed=9, grid=(1, "inf"))
        again = CampaignConfig.from_json(cfg.to_json())
        assert again == cfg

    def test_from_json_rejects_unknown(self):
        d = CampaignConfig(suite="ftvn").to_json()
        d["bogus"] = 1
        with pytest.raises(ReportError):
            CampaignConfig.from_json(d)

    def test_all_suite_ids_constructible(self):
        for sid in SUITE_IDS:
            CampaignConfig(suite=sid)

    def test_unknown_suite_rejected(self):
        with pytest.raises(ReportError, match="unknown suite 'nope'"):
            CampaignConfig(suite="nope")


class TestExponentJson:
    def test_round_trip(self):
        assert exponent_to_json(math.inf) == "inf"
        assert exponent_to_json(1.5) == 1.5


class TestSuiteReport:
    def test_round_trip_preserves_checksum(self, small_report):
        blob = json.dumps(small_report.to_json())
        again = SuiteReport.from_json(json.loads(blob))
        assert again.checksum == small_report.checksum
        assert again.passed == small_report.passed
        assert again.margins == small_report.margins

    def test_checksum_excludes_wall_time(self, small_report):
        d = small_report.to_json()
        d["wall_time"] = d["wall_time"] + 123.0
        again = SuiteReport.from_json(d)  # must not raise
        assert again.checksum == small_report.checksum

    def test_tampered_payload_rejected(self, small_report):
        d = small_report.to_json()
        d["passed"] = not d["passed"]
        with pytest.raises(ReportError, match="checksum"):
            SuiteReport.from_json(d)

    def test_unknown_field_rejected(self, small_report):
        d = small_report.to_json()
        d["surprise"] = {}
        with pytest.raises(ReportError, match="unknown"):
            SuiteReport.from_json(d)

    def test_missing_field_rejected(self, small_report):
        d = small_report.to_json()
        del d["margins"]
        with pytest.raises(ReportError, match="missing"):
            SuiteReport.from_json(d)

    def test_schema_mismatch_rejected(self, small_report):
        d = small_report.to_json()
        d["schema"] = "0"
        with pytest.raises(ReportError, match="schema"):
            SuiteReport.from_json(d)
        assert small_report.schema == SCHEMA_VERSION

    def test_save_and_load(self, small_report, tmp_path):
        path = tmp_path / "report.json"
        small_report.save(path)
        again = load_report(path)
        assert again.checksum == small_report.checksum
        # file is valid, human-readable JSON
        raw = json.loads(path.read_text())
        assert raw["suite"] == "ftvn"

    def test_load_rejects_corrupt_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises((ReportError, json.JSONDecodeError)):
            load_report(path)

    def test_determinism_across_runs(self):
        cfg = CampaignConfig(suite="holder", algebra="spin:3", trials=10, seed=5)
        a, b = run_suite(cfg), run_suite(cfg)
        assert a.checksum == b.checksum
        assert a.margins == b.margins


class TestMarginsMatch:
    def test_exact_and_none(self):
        ok, worst = margins_match({"a": 1.0, "b": None}, {"a": 1.0, "b": None})
        assert ok and worst == 0.0

    def test_tiny_drift_tolerated(self):
        ok, _ = margins_match({"a": 1.0}, {"a": 1.0 + 1e-15})
        assert ok

    def test_real_difference_flagged(self):
        ok, worst = margins_match({"a": 1.0}, {"a": 1.1})
        assert not ok and worst > 0.05

    def test_key_mismatch_flagged(self):
        ok, _ = margins_match({"a": 1.0}, {"b": 1.0})
        assert not ok

    def test_none_vs_value_flagged(self):
        ok, _ = margins_match({"a": None}, {"a": 1.0})
        assert not ok
