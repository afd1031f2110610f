"""Per-layer instrumentation: which jspec callables get spans, what each
observer counts, and how one traced pass turns into per-layer metrics.

Spans sit at module boundaries. Per-factor methods are not traced:
``algebra.factor_calls`` is derived from ``len(alg.factors)`` at each
algebra call, so the rn loop costs one span per call, not one per factor.
"""

from __future__ import annotations

import math
from collections import defaultdict

import numpy as np

from tracer import KEY, NAME, SID, T0, T1, Probe, percentile, self_times
from workloads import WORKLOADS


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(shape) -> int:
    return int(math.prod(shape[:-1])) if len(shape) > 1 else 1


def metric_safe(descriptor: str) -> str:
    """Metric-safe algebra name: 'rn:64,spin:8' -> 'rn64_spin8'."""
    return descriptor.replace(":", "").replace(",", "_")


def alg_key(alg) -> str:
    return metric_safe(alg.descriptor)


def _algebra_observer(op: str, data_arg: int, data_name: str):
    def observe(tr, args, kwargs, result):
        alg = args[0]
        if op == "jordan":
            shape = np.broadcast_shapes(np.shape(args[1]), np.shape(_arg(args, kwargs, 2, "v")))
        else:
            shape = np.shape(_arg(args, kwargs, data_arg, data_name))
        key = tr.key_of(alg, alg_key)
        rows = _rows(shape)
        tr.count(f"algebra.{op}.rows", rows)
        tr.count(f"algebra.{op}.rows.{key}", rows)
        tr.count("algebra.factor_calls", len(alg.factors))
        if op == "decomp":
            tr.count("algebra.decomp.bytes_in", 8 * rows * shape[-1])
        return key

    return observe


def _peak_observer(tr, args, kwargs, result):
    p = _arg(args, kwargs, 2, "p")
    key = "p1" if p.value == 1.0 else "pinf" if p.is_inf else "pfin"
    rows = _rows(np.shape(_arg(args, kwargs, 1, "coords")))
    tr.count("linmaps.peak.rows", rows)
    tr.count(f"linmaps.peak.rows.{key}", rows)
    return key


def _estimate_observer(tr, args, kwargs, est):
    """Estimator behaviour read from the returned NormEstimate."""
    cfg = args[3] if len(args) > 3 else kwargs.get("cfg")
    if cfg is None:
        from jspec.linmaps import EstimatorConfig

        cfg = EstimatorConfig()
    tr.count("linmaps.half_steps", 2 * est.iterations)
    tr.count("linmaps.max_iters_hits", est.iterations >= max(1, cfg.max_iters))
    tr.count("linmaps.nonconverged_best", not est.converged)
    traces = getattr(est, "objective_traces", None)
    tr.count("linmaps.trace_floats", 0 if traces is None else traces.size)
    return None


def _check_observer(tr, args, kwargs, rep):
    tr.count("interpolation.checks")
    tr.count("interpolation.reruns", rep.seeds.get("rerun") is not None)
    return None


def _suite_observer(tr, args, kwargs, rep):
    return rep.suite


PROBES = (
    Probe("jspec.cli", "main", "cli"),
    Probe("jspec.suites", "run_suite", "suites.run", _suite_observer),
    Probe("jspec.suites", "_pmap", "suites.pmap"),
    Probe("jspec.reports", "load_report", "reports.load"),
    Probe("jspec.reports", "save", "reports.save", owner="SuiteReport"),
    Probe("jspec.interpolation", "check_theorem1", "interpolation.check", _check_observer),
    Probe("jspec.interpolation", "check_theorem2", "interpolation.check", _check_observer),
    Probe("jspec.interpolation", "check_corollary4", "interpolation.check", _check_observer),
    Probe("jspec.linmaps", "op_norm_estimate", "linmaps.estimate", _estimate_observer),
    Probe("jspec.linmaps", "_peak_batch", "linmaps.peak", _peak_observer),
    Probe("jspec.linmaps", "closed_form_norm", "linmaps.closed_form"),
    *(Probe("jspec.linmaps", f, "linmaps.build") for f in (
        "lyapunov", "quadratic_rep", "congruence", "reflection_mixture",
        "random_doubly_stochastic", "random_map",
    )),
    Probe("jspec.algebra", "decomp", "algebra.decomp", _algebra_observer("decomp", 1, "coords"), "Algebra"),
    Probe("jspec.algebra", "rebuild", "algebra.rebuild", _algebra_observer("rebuild", 2, "lam"), "Algebra"),
    Probe("jspec.algebra", "jordan", "algebra.jordan", _algebra_observer("jordan", 1, "u"), "Algebra"),
    Probe("jspec.elements", "p_norm", "elements.p_norm"),
    Probe("jspec.exponents", "vector_pnorm", "exponents.vector_pnorm"),
    Probe("jspec.cp_oracle", "cp_bruteforce", "cp_oracle.search"),
    *(Probe("jspec.cp_oracle", f, "cp_oracle.fuzz") for f in (
        "clarkson_check", "refined_clarkson_check", "aggregate_split_check",
    )),
)

ALGEBRA_KEYS = tuple(dict.fromkeys(metric_safe(a) for w in WORKLOADS.values() for a in w.algebras))
SUITE_NAMES = tuple(dict.fromkeys(s for w in WORKLOADS.values() for s in w.suites))
PEAK_KEYS = ("p1", "pfin", "pinf")
ALGEBRA_OPS = ("decomp", "rebuild", "jordan")

# (name, unit) of every per-layer metric, in output order
PER_LAYER = (
    [("linmaps.estimate.calls", "count"), ("linmaps.estimate.self_s", "s"),
     ("linmaps.estimate.ms_p50", "ms"), ("linmaps.estimate.ms_p90", "ms"),
     ("linmaps.half_steps", "count"), ("linmaps.max_iters_hits", "count"),
     ("linmaps.nonconverged_best", "count"), ("linmaps.trace_floats", "count"),
     ("linmaps.peak.calls", "count"), ("linmaps.peak.rows", "count"),
     *((f"linmaps.peak.us_per_row.{k}", "us") for k in PEAK_KEYS),
     ("linmaps.peak.self_s", "s"),
     ("linmaps.build.self_s", "s"), ("linmaps.closed_form.self_s", "s")]
    + [(f"algebra.{op}.{m}", u) for op in ALGEBRA_OPS
       for m, u in (("calls", "count"), ("rows", "count"), ("self_s", "s"))]
    + [(f"algebra.{op}.us_per_row.{k}", "us") for op in ALGEBRA_OPS for k in ALGEBRA_KEYS]
    + [("algebra.factor_calls", "count"), ("algebra.decomp.bytes_in", "bytes"),
       ("interpolation.checks", "count"), ("interpolation.reruns", "count"),
       ("interpolation.rerun_share", "ratio"), ("interpolation.self_s", "s"),
       ("elements.p_norm.self_s", "s"),
       ("exponents.vector_pnorm.calls", "count"), ("exponents.vector_pnorm.self_s", "s"),
       ("cp_oracle.search.self_s", "s"), ("cp_oracle.fuzz.self_s", "s")]
    + [(f"suites.{s}.wall_s", "s") for s in SUITE_NAMES]
    + [("suites.threads", "count"), ("suites.single_thread_wall_s", "s"),
       ("suites.margin_drift_max", "rel"), ("suites.identity_err_max", "rel"),
       ("reports.save.self_s", "s"), ("reports.load.self_s", "s"),
       ("reports.bytes", "bytes"), ("cli.self_s", "s"),
       ("trace.overhead_s", "s")]
)

# which end-to-end metric each layer should move, and on which workload
LAYER_MAP = {
    "linmaps.estimate": "wall_s on est-small (most), interp-wide (some), bulk-fuzz (none); "
                        "trace_floats moves peak_rss_mb on interp-wide",
    "linmaps.peak": "wall_s on est-small and interp-wide",
    "linmaps.build / linmaps.closed_form": "wall_s on est-small",
    "algebra": "wall_s on interp-wide (the rn-heavy algebra) and bulk-fuzz",
    "interpolation": "wall_s on interp-wide",
    "elements / exponents": "wall_s on bulk-fuzz",
    "cp_oracle": "wall_s on bulk-fuzz",
    "suites": "wall_s on est-small and interp-wide",
    "reports / cli": "wall_s on all workloads (small), and setup_s",
}
# the workload on which each planned change should show no change
NO_CHANGE = {
    "batched estimator, thread pool removed": "bulk-fuzz",
    "one RealLines factor per block of real lines": "est-small",
}


def layer_metrics(tr) -> dict:
    """Per-layer metrics of one traced pass (spans and counters of ``tr``)."""
    self_t = self_times(tr.spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    dur = defaultdict(float)  # inclusive time by (name, key)
    est_ms = []
    for s in tr.spans:
        name = s[NAME]
        calls[name] += 1
        self_s[name] += self_t[s[SID]]
        dur[name, s[KEY]] += s[T1] - s[T0]
        if name == "linmaps.estimate":
            est_ms.append(1e3 * (s[T1] - s[T0]))
    c = tr.counters

    def per_row(name, key, rows):
        return 1e6 * dur[name, key] / rows if rows else 0.0

    m = {
        "linmaps.estimate.calls": calls["linmaps.estimate"],
        "linmaps.estimate.self_s": self_s["linmaps.estimate"],
        "linmaps.estimate.ms_p50": percentile(est_ms, 50),
        "linmaps.estimate.ms_p90": percentile(est_ms, 90),
        "linmaps.peak.calls": calls["linmaps.peak"],
        "linmaps.peak.self_s": self_s["linmaps.peak"],
        "linmaps.build.self_s": self_s["linmaps.build"],
        "linmaps.closed_form.self_s": self_s["linmaps.closed_form"],
        "interpolation.self_s": self_s["interpolation.check"],
        "elements.p_norm.self_s": self_s["elements.p_norm"],
        "exponents.vector_pnorm.calls": calls["exponents.vector_pnorm"],
        "exponents.vector_pnorm.self_s": self_s["exponents.vector_pnorm"],
        "cp_oracle.search.self_s": self_s["cp_oracle.search"],
        "cp_oracle.fuzz.self_s": self_s["cp_oracle.fuzz"],
        "reports.save.self_s": self_s["reports.save"],
        "reports.load.self_s": self_s["reports.load"],
        "cli.self_s": self_s["cli"],
    }
    for name in ("linmaps.half_steps", "linmaps.max_iters_hits", "linmaps.nonconverged_best",
                 "linmaps.trace_floats", "linmaps.peak.rows", "algebra.factor_calls",
                 "algebra.decomp.bytes_in", "interpolation.checks", "interpolation.reruns"):
        m[name] = c[name]
    for k in PEAK_KEYS:
        m[f"linmaps.peak.us_per_row.{k}"] = per_row("linmaps.peak", k, c[f"linmaps.peak.rows.{k}"])
    for op in ALGEBRA_OPS:
        name = f"algebra.{op}"
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.rows"] = c[f"{name}.rows"]
        m[f"{name}.self_s"] = self_s[name]
        for k in ALGEBRA_KEYS:
            m[f"{name}.us_per_row.{k}"] = per_row(name, k, c[f"{name}.rows.{k}"])
    checks = c["interpolation.checks"]
    m["interpolation.rerun_share"] = c["interpolation.reruns"] / checks if checks else 0.0
    return m
