"""Self-tests of the benchmark harness.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import run
from calibrate import REFERENCE_S, Calibrated
from layers import PER_LAYER, PROBES
from tracer import NAME, PARENT, SID, THREAD, Tracer, instrument, self_times, union_length
from workloads import Campaign, WORKLOADS, campaigns

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _span(sid, parent, t0, t1, thread=1, name="x"):
    return (sid, parent, name, None, 0, thread, t0, t1)


# -- self-time arithmetic -------------------------------------------------


def test_self_time_two_threads():
    # root(1) [0,10] -> pmap(2) [1,9] -> workers on two threads:
    # w1(3) [2,6] on thread 1 with child g(5) [3,4]; w2(4) [4,8] on thread 2.
    spans = [
        _span(1, 0, 0.0, 10.0),
        _span(2, 1, 1.0, 9.0),
        _span(3, 2, 2.0, 6.0, thread=1),
        _span(4, 2, 4.0, 8.0, thread=2),
        _span(5, 3, 3.0, 4.0, thread=1),
    ]
    st = self_times(spans)
    assert st[1] == pytest.approx(2.0)
    assert st[2] == pytest.approx(8.0 - 6.0)  # overlap of w1 and w2 counted once
    assert st[3] == pytest.approx(3.0)
    assert st[4] == pytest.approx(4.0)
    assert st[5] == pytest.approx(1.0)


def test_union_length_clips_to_parent():
    assert union_length([(0.0, 2.0), (1.0, 3.0), (5.0, 7.0)], 1.0, 6.0) == pytest.approx(3.0)
    assert union_length([], 0.0, 1.0) == 0.0


def test_worker_spans_nest_under_pmap():
    tr = Tracer()
    barrier = threading.Barrier(2, timeout=10)

    def pmap(fn, items):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, items))

    def leaf(x):
        barrier.wait()  # both workers run at the same time
        return x * 2

    traced_leaf = tr.wrap(leaf, "leaf")
    out = tr.wrap(lambda: tr.wrap_pmap(pmap)(traced_leaf, [1, 2]), "root")()
    assert out == [2, 4]
    by_name = {}
    for s in tr.spans:
        by_name.setdefault(s[NAME], []).append(s)
    (root,), (pm,) = by_name["root"], by_name["suites.pmap"]
    leaves = by_name["leaf"]
    assert pm[PARENT] == root[SID]
    assert [s[PARENT] for s in leaves] == [pm[SID], pm[SID]]
    assert len({s[THREAD] for s in leaves}) == 2


def test_instrument_restores_every_call_site():
    jspec = run.import_jspec()
    before = (jspec.suites.op_norm_estimate, jspec.linmaps.op_norm_estimate, jspec.algebra.Algebra.decomp)
    tr = Tracer()
    with instrument(tr, PROBES):
        assert jspec.suites.op_norm_estimate is not before[0]
        assert jspec.interpolation.op_norm_estimate is jspec.suites.op_norm_estimate
        assert jspec.algebra.Algebra.decomp is not before[2]
    after = (jspec.suites.op_norm_estimate, jspec.linmaps.op_norm_estimate, jspec.algebra.Algebra.decomp)
    assert after == before


# -- calibration ----------------------------------------------------------


def test_calibration_divides_by_the_kernel_around_each_sample():
    times = iter([1.0, 3.0, 3.0, 3.0])  # the machine slows down 3x after the first kernel
    cal = Calibrated(kernel=lambda: next(times) * REFERENCE_S)
    cal.add("a", 4.0)  # kernel 1x before, 3x after: 4 s / 2x
    cal.add("a", 6.0)  # 3x on both sides
    cal.add("b", 3.0)
    assert cal.ratios["a"] == pytest.approx([2.0 / REFERENCE_S] * 2)
    assert cal.seconds("a") == pytest.approx(2.0)
    assert cal.total_seconds() == pytest.approx(3.0)


# -- campaign outcomes ----------------------------------------------------


def test_invalid_campaign_counts_as_failed(tmp_path):
    jspec = run.import_jspec()
    harness = run.Harness(jspec, tmp_path)
    bad = harness.run(Campaign("bad", "ftvn", "bogus:3", 0, ("--trials", "4")))
    good = harness.run(Campaign("good", "ftvn", "rn:3", 0, ("--trials", "4")))
    assert not bad.ok and bad.error.startswith("exit 2")
    assert good.ok
    result = run.summarize([bad, good], {}, {})
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 2, 1)


def test_tampered_report_counts_as_failed(tmp_path):
    jspec = run.import_jspec()
    harness = run.Harness(jspec, tmp_path)
    camp = Campaign("ok", "ftvn", "rn:3", 0, ("--trials", "4"))
    real_load = jspec.reports.load_report

    def tamper(path):
        d = json.loads(Path(path).read_text())
        d["margins"]["max_violation"] = 0.0
        Path(path).write_text(json.dumps(d))
        return real_load(path)

    jspec.reports.load_report = tamper
    try:
        out = harness.run(camp)
    finally:
        jspec.reports.load_report = real_load
    assert not out.ok and "checksum" in out.error


def test_campaign_seeds_follow_the_workload_seed():
    for name in WORKLOADS:
        a, b = campaigns(name, 1), campaigns(name, 1)
        assert a == b
        assert [c.seed for c in campaigns(name, 2)] != [c.seed for c in a]
        assert len({c.label for c in a}) == len(a)


# -- printed metrics match BENCHMARK.json ---------------------------------


def test_spec_lists_the_harness_metrics():
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(trace, key):
    cmd = [sys.executable, "bench/run.py", "--workload", "bulk-fuzz", "--seed", "3",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = [(k, v["unit"]) for k, v in result["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in SPEC[key]]
    env = json.loads(lines[-2].removeprefix("env "))
    assert {"nproc", "python", "numpy", "blas", "thread_cap", "seed"} <= set(env)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    cmd = [sys.executable, "bench/run.py", "--workload", "est-small", "--seed", "0",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
