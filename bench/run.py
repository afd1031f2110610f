#!/usr/bin/env python3
"""Campaign benchmark for jspec.

Runs one workload's fixed campaign list the way users run campaigns: in
process through ``jspec.cli.main(["run", ..., "--out", report])``, then
reloads every report with ``jspec.reports.load_report`` (which verifies
its checksum). One client, closed loop: each campaign starts when the
previous one ends. The harness starts no threads; jspec's own pool runs
at its default cap (JSPEC_THREADS is cleared). The list repeats while
time remains, at least three times.

Times (setup_s, wall_s) are calibrated: each timed piece of work is
divided by the time of a fixed NumPy/Python kernel run just before and
just after it, and reported as that ratio times the kernel's time on a
quiet machine (see calibrate.py). This keeps a run steady when the shared
machine slows down for a whole run.

    python3 bench/run.py --workload est-small --seed 1 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics (setup_s, wall_s, peak_rss_mb);
--trace 1 prints the per-layer metrics from a separate traced pass, plus
an untraced pass (trace.overhead_s) and a JSPEC_THREADS=1 pass
(suites.single_thread_wall_s). The last stdout line is the JSON result;
the line before it records the environment. A full record (per-campaign
margins and walls, and for --trace 1 the spans) goes to .bench_out/.

    python3 bench/run.py --record-reference   # rewrite reference_margins.json

Run from the root of a jspec checkout: the package is imported from src/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from calibrate import Calibrated
from layers import LAYER_MAP, NO_CHANGE, PER_LAYER, PROBES, SUITE_NAMES, layer_metrics
from tracer import Tracer, instrument
from workloads import IDENTITY_MARGINS, WORKLOADS, campaigns, warmups

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference_margins.json"
SETUP_PROBES = 9
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, failed set-up)."""


# -- set-up ----------------------------------------------------------------


def import_jspec():
    """Import jspec from this checkout's src/, never from elsewhere."""
    if not (SRC / "jspec" / "__init__.py").is_file():
        raise BenchError(f"no jspec sources under {SRC}; run from a jspec checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jspec
    import jspec.cli
    import jspec.reports

    if not Path(jspec.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported jspec from {jspec.__file__}, not from {SRC}")
    return jspec


@dataclass
class Outcome:
    label: str
    ok: bool
    wall_s: float
    error: str = ""
    margins: dict = field(default_factory=dict)
    report_bytes: int = 0


class Harness:
    """Runs campaigns through the CLI and checks their reports."""

    def __init__(self, jspec, workdir: Path):
        self.jspec = jspec
        self.workdir = workdir
        self.tracer = None  # set while a traced pass runs
        workdir.mkdir(parents=True, exist_ok=True)

    def run(self, camp, index: int = 0) -> Outcome:
        out = self.workdir / f"report-{index}.json"
        out.unlink(missing_ok=True)
        if self.tracer is not None:
            self.tracer.trace_id = index
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
                code = self.jspec.cli.main(camp.argv(out))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        except Exception as exc:  # a campaign that raises is a failed op, not a crash
            return Outcome(camp.label, False, time.perf_counter() - t0, f"raised {type(exc).__name__}: {exc}")
        if code != 0:
            msg = buf.getvalue().strip().splitlines()
            return Outcome(camp.label, False, time.perf_counter() - t0,
                           f"exit {code}: {msg[-1] if msg else ''}")
        try:
            rep = self.jspec.reports.load_report(out)
        except self.jspec.errors.JspecError as exc:
            return Outcome(camp.label, False, time.perf_counter() - t0, f"report: {exc}")
        wall = time.perf_counter() - t0
        if rep.suite != camp.suite or rep.config.get("seed") != camp.seed or not rep.passed:
            return Outcome(camp.label, False, wall, "report does not match its campaign")
        return Outcome(camp.label, True, wall, margins=rep.margins, report_bytes=out.stat().st_size)

    def run_pass(self, camps) -> tuple[float, list]:
        t0 = time.perf_counter()
        outs = [self.run(c, i) for i, c in enumerate(camps)]
        return time.perf_counter() - t0, outs


def setup(workload: str, seed: int, workdir: Path):
    """Everything before the timed loop: import jspec, parse the algebras,
    build and validate the campaign command lines, and run one tiny
    warm-up campaign per suite so NumPy/LAPACK first-call set-up is done."""
    jspec = import_jspec()
    for desc in WORKLOADS[workload].algebras:
        jspec.parse_algebra(desc)
    camps = campaigns(workload, seed)
    parser = jspec.cli.build_parser()
    for c in camps:
        parser.parse_args(c.argv("report.json"))
    harness = Harness(jspec, workdir)
    warm = [harness.run(c, i) for i, c in enumerate(warmups(workload))]
    return harness, camps, warm


def probe_setup(workload: str, seed: int) -> float:
    """Time one fresh process from spawn to ready (set-up done)."""
    env = dict(os.environ)
    env.pop("JSPEC_THREADS", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe-setup",
           "--workload", workload, "--seed", str(seed)]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                          cwd=ROOT, env=env) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        try:
            _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError("set-up probe did not exit") from None
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError(f"set-up probe failed (exit {proc.returncode}): {err.strip()[-500:]}")
    return ready


# -- measurements ----------------------------------------------------------


def environment(jspec, seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    cap = jspec.suites.thread_cap() if hasattr(jspec.suites, "thread_cap") else 1
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_cap": cap,
        "seed": seed,
    }


def identity_err_max(outcomes) -> float:
    vals = [o.margins[k] for o in outcomes for k in IDENTITY_MARGINS if k in o.margins]
    return float(max(vals)) if vals else 0.0


def margin_drift(workload: str, warm) -> float:
    """Largest relative change of a warm-up margin from the committed
    reference (1.0 when a margin appeared or disappeared)."""
    ref = json.loads(REFERENCE.read_text()).get(workload, {}) if REFERENCE.is_file() else {}
    drift = 0.0
    for o in warm:
        want = ref.get(o.label)
        if want is None:
            continue
        for k in set(want) | set(o.margins):
            a, b = want.get(k), o.margins.get(k)
            if isinstance(a, (int, float)) and isinstance(b, (int, float)):
                drift = max(drift, abs(a - b) / max(1.0, abs(a), abs(b)))
            elif a != b:
                drift = max(drift, 1.0)
    return drift


def calibrated_setup(workload: str, seed: int) -> tuple[float, list]:
    """Median set-up time over fresh processes, calibrated; and the raw times."""
    cal, raw = Calibrated(), []
    for _ in range(SETUP_PROBES):
        raw.append(probe_setup(workload, seed))
        cal.add("setup", raw[-1])
    return cal.seconds("setup"), raw


def timed_passes(harness, camps, seconds: float, minimum: int = MIN_PASSES):
    """Repeat the list while the next pass is expected to end in time.
    Returns the pass walls, the outcomes and the calibrated samples, keyed
    by the campaign's index in the list."""
    walls, outs, cal = [], [], Calibrated()
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i, c in enumerate(camps):
            outs.append(harness.run(c, i))
            cal.add(i, outs[-1].wall_s)
        walls.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if len(walls) >= minimum and elapsed + statistics.median(walls) > seconds:
            return walls, outs, cal


def _suite_walls(camps, outs) -> dict:
    walls: dict = {}
    for c, o in zip(camps, outs):
        walls[c.suite] = walls.get(c.suite, 0.0) + o.wall_s
    return walls


def traced_run(harness, camps, seconds: float) -> tuple[dict, list, list]:
    """Untraced, traced and single-thread passes, alternated while time
    lasts (at least one of each); per-layer metrics are medians over passes."""
    untraced, single, tracers, per_pass, outs = [], [], [], [], []
    suite_walls = []
    start = time.perf_counter()
    while True:
        wall, o = harness.run_pass(camps)
        untraced.append(wall)
        suite_walls.append(_suite_walls(camps, o))
        outs.extend(o)

        tr = Tracer()
        harness.tracer = tr
        with instrument(tr, PROBES):
            wall_t, o = harness.run_pass(camps)
        harness.tracer = None
        tracers.append((tr, wall_t))
        per_pass.append(layer_metrics(tr))
        per_pass[-1]["reports.bytes"] = sum(x.report_bytes for x in o)
        outs.extend(o)

        os.environ["JSPEC_THREADS"] = "1"
        try:
            wall_1, o = harness.run_pass(camps)
        finally:
            os.environ.pop("JSPEC_THREADS", None)
        single.append(wall_1)
        outs.extend(o)

        cycle = time.perf_counter() - start
        if cycle * (len(untraced) + 1) / len(untraced) > seconds:
            break

    med = statistics.median
    m = {name: med(p[name] for p in per_pass) for name, _ in PER_LAYER if name in per_pass[0]}
    for s in SUITE_NAMES:
        m[f"suites.{s}.wall_s"] = med(w.get(s, 0.0) for w in suite_walls)
    m["suites.single_thread_wall_s"] = med(single)
    m["trace.overhead_s"] = med(w for _, w in tracers) - med(untraced)
    return m, outs, tracers


# -- entry point -----------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true",
                    help="run every workload's warm-ups and rewrite reference_margins.json")
    args = ap.parse_args(argv)
    if args.workload is None and not args.record_reference:
        ap.error("--workload is required")
    return args


def _number(v):
    return int(v) if isinstance(v, float) and v.is_integer() and abs(v) < 2**53 else v


def summarize(outcomes, metrics: dict, units: dict) -> dict:
    """The result line: every campaign run (warm-ups included) is an op."""
    failed = sum(not o.ok for o in outcomes)
    return {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {k: {"value": _number(metrics[k]), "unit": u} for k, u in units.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.pop("JSPEC_THREADS", None)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.probe_setup:
            _, _, warm = setup(args.workload, args.seed, workdir)
            if not all(o.ok for o in warm):
                print(f"warm-up failed: {[o.error for o in warm if not o.ok]}", file=sys.stderr)
                return 1
            print("ready", flush=True)
            return 0
        if args.record_reference:
            ref = {}
            for name in WORKLOADS:
                _, _, warm = setup(name, 0, workdir)
                ref[name] = {o.label: o.margins for o in warm if o.ok}
            REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
            print(f"wrote {REFERENCE}")
            return 0
        return _bench(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _bench(args, workdir: Path) -> int:
    import_jspec()  # fail fast, before the set-up probes, outside a checkout
    setup_s, setup_samples = calibrated_setup(args.workload, args.seed)
    harness, camps, warm = setup(args.workload, args.seed, workdir)
    env = environment(harness.jspec, args.seed)
    drift = margin_drift(args.workload, warm)

    if args.trace:
        metrics, outs, tracers = traced_run(harness, camps, args.seconds)
        metrics["suites.threads"] = env["thread_cap"]
        metrics["suites.margin_drift_max"] = drift
        metrics["suites.identity_err_max"] = identity_err_max(outs)
        units = dict(PER_LAYER)
        extra = {"layer_map": LAYER_MAP, "no_change": NO_CHANGE}
    else:
        walls, outs, cal = timed_passes(harness, camps, args.seconds)
        metrics = {
            "setup_s": setup_s,
            "wall_s": cal.total_seconds(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        extra = {"pass_walls_s": walls, "kernel_s": cal.kernel,
                 "identity_err_max": identity_err_max(outs)}

    every = warm + outs
    failed = [o for o in every if not o.ok]
    result = summarize(every, metrics, units)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seconds": args.seconds, "env": env,
        "setup_samples_s": setup_samples, "margin_drift_max": drift, **extra,
        "failures": [(o.label, o.error) for o in failed],
        "campaigns": [{"label": c.label, "seed": c.seed, "argv": c.argv("report.json")} for c in camps],
        "margins": {o.label: o.margins for o in every[: len(warm) + len(camps)]},
        "campaign_walls_s": {c.label: [o.wall_s for o in outs[i::len(camps)]] for i, c in enumerate(camps)},
        "result": result,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        for i, (tr, _) in enumerate(tracers):
            tr.dump(OUT / f"{stem}-spans{i}.csv.gz")
    for o in failed:
        print(f"FAILED {o.label}: {o.error}")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']} {m['unit']}")
    print(f"ops {result['attempted']} count")
    print(f"ops_failed {result['failed']} count")
    if not args.trace:
        err = extra["identity_err_max"]
        print(f"identity_err_max {err} rel" if err else "identity_err_max n/a (no identity campaigns)")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
