#!/usr/bin/env python3
"""Alternating parent/change benchmark pairs, summarised as BENCH_<n>.json.

Runs ``bench/run.py --workload W --seed S --trace 0`` once in each
checkout per seed. With --parent2, a second copy of the parent (P′) runs
in every pair as an A/A control, so a layout or machine shift that
moves two identical trees apart shows next to the change's shift. Pairs
are numbered from 0 in seed order, and the order of the sides rotates
with the pair index: P, C; C, P; ... or P, P′, C; P′, C, P; C, P, P′; ...
Each run uses its own checkout's harness and sources, and the harness's
default run length.

    python3 scripts/bench_pairs.py --parent ../jspec-parent --change . \\
        --parent2 ../jspec-parent2 --workload bulk-fuzz --seeds 1501-1510 \\
        --out BENCH_8.json --title "..." --parent-rev 66eb2b2

The output keeps one entry per workload under "workloads"; running the
script again with another workload and the same --out adds that entry
and keeps the others. For each end-to-end metric it records the runs of
each side, their median and quartiles (numpy percentile, linear), the
number of pairs in which the change reads lower ("change_wins"), the
median change in percent and the parent's interquartile range; with
--parent2 also the pairs in which P′ reads lower than P ("aa_wins") and
P′'s median change in percent ("aa_median_change_pct").
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

METRICS = ("setup_s", "wall_s", "peak_rss_mb")
SIDES = ("parent", "parent2", "change")


def parse_seeds(text: str) -> list[int]:
    """'1501-1505,1510' -> [1501, 1502, 1503, 1504, 1505, 1510]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    if not seeds:
        raise ValueError("no seeds given")
    return seeds


def run_once(checkout: Path, workload: str, seed: int) -> dict:
    """One harness run; returns its result line plus its env line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[-2].startswith("env "):
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    result["env"] = lines[-2]
    return result


def quartiles(runs: list[float]) -> dict:
    q1, med, q3 = np.percentile(runs, [25, 50, 75])
    return {"median": round(float(med), 4), "q1": round(float(q1), 4), "q3": round(float(q3), 4),
            "runs": [round(v, 4) for v in runs]}


def run_order(sides: list[str], i: int) -> list[str]:
    """The order of pair i: the sides rotated left by i."""
    k = i % len(sides)
    return sides[k:] + sides[:k]


def summarise(seeds: list[int], results: dict) -> dict:
    """results[side] is the list of run results, one per seed; the
    "parent2" side is optional."""
    sides = [side for side in SIDES if side in results]
    entry = {"pairs": len(seeds), "seeds": seeds, "metrics": {}}
    for name in METRICS:
        vals = {side: [r["metrics"][name]["value"] for r in results[side]] for side in sides}
        m = {side: quartiles(vals[side]) for side in sides}
        base = m["parent"]["median"]
        for other, wins, shift in (("change", "change_wins", "median_change_pct"),
                                   ("parent2", "aa_wins", "aa_median_change_pct")):
            if other in m:
                m[wins] = sum(o < p for p, o in zip(vals["parent"], vals[other]))
                m[shift] = round(100.0 * (m[other]["median"] - base) / base, 2)
        m["parent_iqr"] = round(m["parent"]["q3"] - m["parent"]["q1"], 4)
        entry["metrics"][name] = m
    for key, field in (("ops_failed", "failed"), ("ops_attempted", "attempted")):
        entry[key] = {side: sum(r[field] for r in results[side]) for side in sides}
    return entry


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--parent2", type=Path, help="a second checkout of the parent, the A/A control (optional)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="e.g. 1501-1510 or 1501,1503")
    ap.add_argument("--out", type=Path, required=True, help="BENCH_<n>.json to write or extend")
    ap.add_argument("--title", default="")
    ap.add_argument("--parent-rev", default="", help="the parent's commit id, for the record")
    args = ap.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    checkouts = {"parent": args.parent, "parent2": args.parent2, "change": args.change}
    sides = [side for side in SIDES if checkouts[side] is not None]
    checkouts = {side: checkouts[side].resolve() for side in sides}
    results = {side: [] for side in sides}
    for i, seed in enumerate(seeds):
        for side in run_order(sides, i):
            results[side].append(run_once(checkouts[side], args.workload, seed))
            r = results[side][-1]
            print(f"pair {i} seed {seed} {side}: "
                  + " ".join(f"{k}={r['metrics'][k]['value']:.4f}" for k in METRICS), flush=True)

    doc = json.loads(args.out.read_text()) if args.out.is_file() else {}
    env = json.loads(results["change"][0]["env"][len("env "):])
    doc.update({k: v for k, v in (("title", args.title), ("parent", args.parent_rev)) if v})
    doc.setdefault("command", "python3 bench/run.py --workload W --seed N --trace 0")
    doc["method"] = (
        "Alternating parent/change pairs, each run in its own checkout; pairs are numbered from 0 "
        "in seed order, and pair i runs the sides (parent, parent2, change), or (parent, change) "
        "without the A/A copy parent2, rotated left by i. Medians and quartiles (numpy percentile, "
        "linear) over the runs of each side. 'change_wins' counts pairs where the change reads "
        "lower than the parent, 'aa_wins' pairs where parent2 does. Times are the harness's "
        "calibrated seconds, at its default run length. Written by scripts/bench_pairs.py."
    )
    doc["machine"] = (f"{env['nproc']} vCPU, {sys.platform}; Python {env['python']}, "
                      f"NumPy {env['numpy']}, {env['blas']}")
    doc.setdefault("workloads", {})[args.workload] = summarise(seeds, results)
    doc["env"] = results["change"][0]["env"]
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
