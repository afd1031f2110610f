"""Verification suites: margin schemas, determinism, replay."""

import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from jspec import (
    CampaignConfig,
    ReportError,
    SuiteReport,
    closed_form_norm,
    cp_oracle,
    cp_table_csv,
    replay,
    run_suite,
)
from jspec.suites import SUITE_IDS, derive_seed

SMOKE = {
    "ftvn": dict(trials=8),
    "holder": dict(trials=8),
    "gen-holder": dict(trials=8),
    "lyapunov-norms": dict(trials=2, restarts=8, algebra="sym:2"),
    "quadrep-norms": dict(trials=2, restarts=8, algebra="sym:2"),
    "positive-norms": dict(trials=2, restarts=8, algebra="sym:2"),
    "theorem1": dict(trials=5, restarts=8, algebra="spin:4"),
    "theorem2": dict(trials=5, restarts=8, algebra="spin:4"),
    "corollary4": dict(trials=5, restarts=8, algebra="spin:4"),
    "three-lines": dict(trials=4, restarts=8),
    "cp-table": dict(n=2, starts=30, grid=(1, 2, "inf")),
    "clarkson": dict(trials=2000, grid=(1, 1.5, 2, 3)),
}

MARGIN_KEYS = {
    "ftvn": {"max_violation"},
    "holder": {"max_inner_violation", "max_product_violation", "max_attainment_error"},
    "gen-holder": {"max_violation", "max_ratio"},
    "lyapunov-norms": {"max_exact_delta", "max_upper_overshoot", "min_lower_slack"},
    "quadrep-norms": {"max_exact_delta", "max_upper_overshoot", "min_lower_slack"},
    "positive-norms": {"max_identity_delta", "max_cap_overshoot"},
    "theorem1": {"max_lhs_over_rhs", "violations", "reruns", "max_ds_overshoot"},
    "theorem2": {"max_lhs_over_rhs", "violations", "reruns"},
    "corollary4": {"max_lhs_over_rhs", "violations", "reruns"},
    "three-lines": {"max_pairing_error", "max_geo_overshoot", "max_cap_overshoot"},
    "cp-table": {"max_delta"},
    "clarkson": {
        "max_two_point_violation",
        "max_refined_violation",
        "max_aggregate_violation",
    },
}


def _smoke_cfg(suite, **overrides):
    kw = dict(SMOKE[suite])
    kw.update(overrides)
    return CampaignConfig(suite=suite, seed=kw.pop("seed", 2), **kw)


class TestSeedsAndThreads:
    def test_derive_seed_deterministic_and_distinct(self):
        assert derive_seed(3, 7, 0) == derive_seed(3, 7, 0)
        seen = {derive_seed(3, salt, trial) for salt in range(4) for trial in range(10)}
        assert len(seen) == 40
        assert all(0 <= s < 2**64 for s in seen)

    def test_derive_seed_depends_on_base(self):
        assert derive_seed(1, 5, 0) != derive_seed(2, 5, 0)


class TestAllSuitesSmoke:
    @pytest.mark.parametrize("suite", SUITE_IDS)
    def test_passes_and_margin_schema(self, suite):
        rep = run_suite(_smoke_cfg(suite))
        assert rep.suite == suite
        assert rep.passed, rep.margins
        assert set(rep.margins) == MARGIN_KEYS[suite]
        assert CampaignConfig.from_json(rep.config) == _smoke_cfg(suite)

    def test_seed_changes_results(self):
        a = run_suite(_smoke_cfg("ftvn", seed=1))
        b = run_suite(_smoke_cfg("ftvn", seed=2))
        assert a.checksum != b.checksum

    def test_theorem_suite_witnesses_always_present(self):
        rep = run_suite(_smoke_cfg("theorem1"))
        assert rep.witnesses  # worst instance is recorded even on a pass
        w = rep.witnesses[0]
        assert {"theorem", "lhs_lower", "rhs", "margin", "violated"} <= set(w)

    def test_clarkson_witnesses_carry_worst_pair(self):
        rep = run_suite(_smoke_cfg("clarkson"))
        assert len(rep.witnesses) == 9  # p = 1, 1.5 and 3: two checks each; p = 2: all three
        for row in rep.witnesses:
            assert row["worst"]["violation"] == row["max_violation"]
            assert set(row["worst"]) == ({"x", "y", "violation"} if row["kind"] == "aggregate split"
                                         else {"z", "w", "violation"})
        assert SuiteReport.from_json(rep.to_json()).witnesses == rep.witnesses

    def test_cp_table_rows_say_how_each_search_ended(self):
        rep = run_suite(_smoke_cfg("cp-table"))
        for row in rep.witnesses:
            assert set(row) == {"p", "max_found", "closed_form", "delta", "sweeps", "stop"}
            assert row["sweeps"] >= 1 and row["stop"] in ("spent", "patience", "max_sweeps")
        assert SuiteReport.from_json(rep.to_json()).witnesses == rep.witnesses

    def test_corollary4_needs_two_distinct_exponents(self):
        with pytest.raises(ReportError):
            run_suite(_smoke_cfg("corollary4", grid=(2,)))

    def test_mixed_algebra_smoke(self):
        rep = run_suite(_smoke_cfg("holder", algebra="sym:2,spin:3"))
        assert rep.passed

    def test_three_lines_passes_where_a_conjugated_pairing_failed(self):
        # a family paired with conj(b_z) is not analytic, and on this
        # campaign its phi(theta) exceeded the sampled geometric mean by 1.7e-3
        rep = run_suite(CampaignConfig(suite="three-lines", algebra="spin:5", trials=12, seed=4,
                                       restarts=16, max_iters=30))
        assert rep.passed, rep.margins


ESTIMATOR_SUITES = ("lyapunov-norms", "quadrep-norms", "positive-norms", "theorem1", "theorem2", "corollary4",
                    "three-lines")


def _spy(monkeypatch, module, calls: list) -> None:
    """Record the problems of each estimate_many call made from module."""
    real = module.estimate_many

    def spy(problems):
        calls.append(problems)
        return real(problems)

    monkeypatch.setattr(module, "estimate_many", spy)


class TestTrialChunks:
    """The estimator suites estimate consecutive trials' first passes in
    one estimate_many call while it fits suites._EST_FLOATS floats."""

    # a weak estimator makes one trial rerun; a problem is 8 floats, so 48
    # floats hold two trials and 1 float holds none
    RERUN = dict(suite="theorem1", algebra="spin:4", trials=10, seed=2, restarts=2, max_iters=2)

    @pytest.mark.parametrize("floats,sizes", [(None, [30]), (48, [6] * 5), (1, [3] * 10)],
                             ids=["default", "two-trials", "one-trial"])
    def test_theorem1_estimates_each_first_pass_once(self, monkeypatch, floats, sizes):
        from jspec import interpolation, suites

        if floats is not None:
            monkeypatch.setattr(suites, "_EST_FLOATS", floats)
        chunks, reruns = [], []
        _spy(monkeypatch, suites, chunks)
        _spy(monkeypatch, interpolation, reruns)
        cfg = CampaignConfig(**self.RERUN)
        rep = run_suite(cfg)
        assert "max_ds_overshoot" in rep.margins  # trials 4 and 9 are doubly stochastic probes
        assert rep.margins["reruns"] == 1
        assert [len(problems) for problems in chunks] == sizes
        # each trial's three first-pass problems, once each and in trial order
        first = [(id(t), c.seed) for problems in chunks for t, _, _, c in problems]
        assert len(set(first)) == cfg.trials
        seeds = [derive_seed(cfg.seed, 7, k, 0) for k in range(cfg.trials)]
        assert [seed for _, seed in first] == [seed for seed in seeds for _ in range(3)]
        assert [len(problems) for problems in reruns] == [3]
        assert all(c.restarts == 4 * cfg.restarts for *_, c in reruns[0])
        # no call passes the budget unless one trial alone does
        per_problem = cfg.restarts * 4
        assert all(len(p) * per_problem <= suites._EST_FLOATS or len(p) == 3 for p in chunks)

    @pytest.mark.parametrize("suite", ESTIMATOR_SUITES)
    def test_reports_do_not_depend_on_the_budget(self, monkeypatch, suite):
        from jspec import suites

        cfg = _smoke_cfg(suite)
        calls = []
        _spy(monkeypatch, suites, calls)
        want = run_suite(cfg)
        assert len(calls) == 1  # every trial in one call
        monkeypatch.setattr(suites, "_EST_FLOATS", 1)  # one trial per call
        got = run_suite(cfg)
        assert len(calls) == 1 + cfg.trials
        assert got.margins == want.margins
        assert got.witnesses == want.witnesses
        assert got.checksum == want.checksum

    @pytest.mark.parametrize("suite,problems", [("lyapunov-norms", 9), ("positive-norms", 15),
                                                ("theorem1", 3), ("corollary4", 3)])
    def test_peak_memory_does_not_grow_with_trials(self, monkeypatch, suite, problems):
        from jspec import suites

        def peak(trials):
            cfg = CampaignConfig(suite=suite, algebra="sym:4", trials=trials, grid=(1.5, 3, "inf"),
                                 restarts=8, max_iters=5, seed=1)
            tracemalloc.start()
            try:
                run_suite(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # four trials per call (sym:4 has dim 10), so 8 and 32 trials span
        # 2 and 8 calls; a first run keeps one-time allocations out
        monkeypatch.setattr(suites, "_EST_FLOATS", 4 * problems * 8 * 10)
        peak(1)
        assert peak(4 * 8) <= 1.2 * peak(8)

    @pytest.mark.parametrize("suite,problems", [("lyapunov-norms", 9), ("positive-norms", 15),
                                                ("three-lines", 2)])
    def test_per_trial_rows_are_not_kept(self, monkeypatch, suite, problems):
        # these suites fold each trial's row into running margins and a
        # running top 3; keeping every row costs about 250-450 B per trial.
        # A first run at the full trial count fills the interpreter's free
        # lists (a bounded cost per object size that is not per-trial data)
        from jspec import suites

        def peak(trials):
            cfg = CampaignConfig(suite=suite, algebra="sym:4", trials=trials, grid=(1.5, 3, "inf"),
                                 restarts=8, max_iters=5, seed=1)
            tracemalloc.start()
            try:
                run_suite(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(suites, "_EST_FLOATS", 4 * problems * 8 * 10)
        peak(128)
        assert peak(128) - peak(8) < 24 * 1024


class TestNormFamilyJudge:
    """The judges of lyapunov-norms and quadrep-norms read every pair's
    closed form off one spectrum of a per trial, and the positive-norms
    judge off the spectra of P(e) and P*(e)."""

    # totals over 3 trials: the judged spectra, and the maps' own Jordan
    # products (L_a takes one, P_a three: L_a, a o a and L_{a o a}); the
    # positive-norms trials draw P_a, a congruence and P_a again. Each id
    # names the suite and its Jordan products per trial (on average)
    @pytest.mark.parametrize(
        "suite,eigenvalues,jordan",
        [("lyapunov-norms", 3, 3), ("quadrep-norms", 3, 9), ("positive-norms", 6, 6)],
        ids=["lyapunov-norms-1", "quadrep-norms-3", "positive-norms-2"],
    )
    def test_one_spectrum_per_trial(self, monkeypatch, kernel_calls, suite, eigenvalues, jordan):
        from jspec import suites

        zero = SimpleNamespace(lower_bound=0.0)
        monkeypatch.setattr(suites, "estimate_many", lambda problems: [zero] * len(problems))
        run_suite(CampaignConfig(suite=suite, algebra="sym:3", trials=3, seed=1))
        assert kernel_calls == {"eigenvalues": eigenvalues, "decomp": 0, "jordan": jordan}


class TestPositiveJudge:
    """The positive-norms judge reads closed_form_norm('positive')'s table:
    an estimator that answers each problem with that table's upper end
    meets every identity and every cap exactly."""

    @pytest.mark.parametrize("algebra", ["sym:3", "herm:3", "spin:5", "rn:6", "sym:2,spin:3"])
    def test_table_bounds_give_zero_margins(self, monkeypatch, algebra):
        from jspec import suites

        def table(problems):
            return [SimpleNamespace(lower_bound=closed_form_norm("positive", r, s, pmap=t).upper)
                    for t, r, s, _ in problems]

        monkeypatch.setattr(suites, "estimate_many", table)
        rep = run_suite(CampaignConfig(suite="positive-norms", algebra=algebra, trials=6, seed=3))
        assert rep.margins["max_identity_delta"] == 0.0
        assert rep.margins["max_cap_overshoot"] == 0.0


BULK = "sym:2,spin:3,herm:2"  # dim 10
BLOCKED = {
    "ftvn": dict(algebra=BULK, trials=300),
    "holder": dict(algebra=BULK, trials=300, grid=(1, 3, "inf")),
    "gen-holder": dict(algebra=BULK, trials=300, grid=(2, 3)),
    "clarkson": dict(trials=400, grid=(4 / 3, 2, 3), n=3),
}


class TestRowBlocks:
    """The bulk suites draw and check their trials in row blocks of at
    most cp_oracle._BLOCK_FLOATS floats."""

    # 1 float: one row per block; 77 floats: 7 rows of the algebra suites
    # (19 pairs, 12 aggregation rows), so the last block is short
    @pytest.mark.parametrize("floats", [1, 77])
    @pytest.mark.parametrize("suite", sorted(BLOCKED))
    def test_reports_do_not_depend_on_block_size(self, monkeypatch, suite, floats):
        cfg = CampaignConfig(suite=suite, seed=4, **BLOCKED[suite])
        want = run_suite(cfg)
        monkeypatch.setattr(cp_oracle, "_BLOCK_FLOATS", floats)
        got = run_suite(cfg)
        assert got.margins == want.margins
        assert got.witnesses == want.witnesses
        assert got.checksum == want.checksum

    @pytest.mark.parametrize("floats", [1, 77])
    def test_scalar_witnesses_do_not_depend_on_block_size(self, monkeypatch, floats):
        # the checks' worst pairs, compared directly (p = 2 aggregation
        # ties at its maximum)
        def run():
            return [
                cp_oracle.clarkson_check(3, trials=400, seed=4),
                cp_oracle.refined_clarkson_check(1.5, trials=400, seed=4),
                cp_oracle.aggregate_split_check(2, 3, trials=400, seed=4),
            ]

        want = run()
        monkeypatch.setattr(cp_oracle, "_BLOCK_FLOATS", floats)
        for got, ref in zip(run(), want):
            assert got.worst == ref.worst

    @pytest.mark.parametrize("suite", ["ftvn", "holder", "gen-holder"])
    def test_peak_memory_does_not_grow_with_trials(self, suite):
        # 8000 trials span more than one default block at dim 10
        def peak(trials):
            cfg = CampaignConfig(suite=suite, algebra=BULK, trials=trials, grid=(3,), seed=1)
            tracemalloc.start()
            try:
                run_suite(cfg)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4 * 8000) <= 1.2 * peak(8000)


class TestHonestFailure:
    """A deliberately under-resourced search stalls below the closed form,
    giving a deterministic failing report to exercise the failure paths."""

    CFG = dict(suite="cp-table", grid=(math.inf,), n=4, starts=1, seed=1)

    def test_fails_deterministically(self):
        rep = run_suite(CampaignConfig(**self.CFG))
        assert not rep.passed
        assert rep.margins["max_delta"] > 1e-4
        assert rep.witnesses  # failing rows recorded
        row = rep.witnesses[0]
        assert row["max_found"] < row["closed_form"]

    def test_replay_reproduces_failure(self, tmp_path):
        rep = run_suite(CampaignConfig(**self.CFG))
        path = tmp_path / "fail.json"
        rep.save(path)
        again = replay(path)
        assert not again.passed
        assert again.margins == rep.margins


class TestReplay:
    def test_round_trip(self, tmp_path):
        rep = run_suite(_smoke_cfg("gen-holder"))
        path = tmp_path / "report.json"
        rep.save(path)
        fresh = replay(path)
        assert fresh.margins == rep.margins
        assert fresh.passed == rep.passed

    def test_forged_margins_detected(self, tmp_path):
        rep = run_suite(_smoke_cfg("ftvn"))
        forged = SuiteReport(
            suite=rep.suite,
            config=rep.config,
            passed=rep.passed,
            margins={"max_violation": -0.5},
            witnesses=rep.witnesses,
            wall_time=rep.wall_time,
        )
        path = tmp_path / "forged.json"
        forged.save(path)
        with pytest.raises(ReportError, match="replay mismatch"):
            replay(path)

    def test_forged_pass_flag_detected(self, tmp_path):
        failing = run_suite(CampaignConfig(**TestHonestFailure.CFG))
        forged = SuiteReport(
            suite=failing.suite,
            config=failing.config,
            passed=True,
            margins=failing.margins,
            witnesses=failing.witnesses,
            wall_time=failing.wall_time,
        )
        path = tmp_path / "flipped.json"
        forged.save(path)
        with pytest.raises(ReportError, match="pass/fail"):
            replay(path)


class TestCpTableCsv:
    def test_csv_layout(self):
        rep = run_suite(_smoke_cfg("cp-table"))
        csv = cp_table_csv(rep)
        lines = csv.strip().splitlines()
        assert lines[0] == "p,max_found,closed_form,delta"
        assert len(lines) == 1 + 3  # header + one row per grid exponent
        assert lines[-1].startswith("inf,")

    def test_csv_rejects_other_suites(self):
        rep = run_suite(_smoke_cfg("ftvn"))
        with pytest.raises(ReportError):
            cp_table_csv(rep)
