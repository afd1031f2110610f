#!/usr/bin/env python3
"""Compare the workload reports of two checkouts: checksums and margin drift.

Runs every campaign of ``bench/workloads.py`` (each workload's warm-ups,
plus its timed list at each seed) through the ``jspec`` CLI of both
checkouts, one subprocess per checkout, and compares the reports side by
side:

    python3 scripts/report_diff.py --parent ../jspec-parent --change . --seeds 1,2
    python3 scripts/report_diff.py --parent ../jspec-parent --change . \
        --seeds 1-20 --workload est-small

--seeds takes lists and ranges, as in ``scripts/bench_pairs.py``;
--workload (repeatable) keeps only the named workloads. For each workload
it prints how many reports keep the parent's checksum
and the worst margin drift, on the measure of ``reports.margins_match``
(the replay measure); then one line per report whose checksum changed.
It exits 1 when any drift exceeds the replay tolerance
(``reports.REPLAY_TOL``), or when a report is missing on either side.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "scripts"))
from bench_pairs import parse_seeds  # noqa: E402  the one seed parser of scripts/

SIDES = ("parent", "change")


def collect(checkout: Path, seeds: list[int], workloads: list[str] | None = None) -> dict:
    """Run every campaign of the given workloads (all when None) in this
    process through the checkout's own CLI.
    Returns {workload: {label: {"checksum", "margins"} or None}}."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "bench")]
    import jspec.cli
    from workloads import WORKLOADS, campaigns, warmups

    unknown = sorted(set(workloads or ()) - set(WORKLOADS))
    if unknown:
        raise SystemExit(f"unknown workload(s) {', '.join(unknown)}; expected {', '.join(WORKLOADS)}")
    out: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        for name in workloads or WORKLOADS:
            camps = [(c.label, c) for c in warmups(name)]
            camps += [(f"{c.label} seed {s}", c) for s in seeds for c in campaigns(name, s)]
            for label, camp in camps:
                path.unlink(missing_ok=True)
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    jspec.cli.main(camp.argv(path))
                rep = json.loads(path.read_text()) if path.is_file() else None
                keep = {"checksum": rep["checksum"], "margins": rep["margins"]} if rep else None
                out.setdefault(name, {})[label] = keep
    return out


def compare(parent: dict, change: dict) -> dict:
    """Per workload: the number of reports, how many keep the parent's
    checksum, the worst margin drift and each changed report's drift. A
    report missing on either side, or with other margin keys, drifts by inf."""
    from jspec.reports import margins_match

    rows = {}
    for name in dict.fromkeys([*parent, *change]):
        old, new = parent.get(name, {}), change.get(name, {})
        changed = {}
        for label in dict.fromkeys([*old, *new]):
            a, b = old.get(label), new.get(label)
            if a is None or b is None:
                changed[label] = math.inf
            elif a["checksum"] != b["checksum"]:
                changed[label] = margins_match(a["margins"], b["margins"])[1]
        labels = set(old) | set(new)
        rows[name] = {
            "reports": len(labels),
            "same_checksum": len(labels) - len(changed),
            "worst_drift": max(changed.values(), default=0.0),
            "changed": changed,
        }
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, help="checkout of the change")
    ap.add_argument("--seeds", default="1,2", help="workload seeds, e.g. 1,2 or 1-20")
    ap.add_argument("--workload", action="append", help="compare only this workload (repeatable)")
    ap.add_argument("--collect", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    if args.collect:
        print(json.dumps(collect(args.collect.resolve(), seeds, args.workload)))
        return 0
    if args.parent is None or args.change is None:
        ap.error("--parent and --change are required")

    only = [opt for name in args.workload or () for opt in ("--workload", name)]
    procs = {
        side: subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--collect", str(checkout.resolve()),
             "--seeds", args.seeds, *only],
            stdout=subprocess.PIPE, text=True,
        )
        for side, checkout in zip(SIDES, (args.parent, args.change))
    }
    reports = {}
    for side, proc in procs.items():
        stdout, _ = proc.communicate()
        if proc.returncode != 0:
            raise SystemExit(f"{side}: collecting reports exited {proc.returncode}")
        reports[side] = json.loads(stdout)

    sys.path.insert(0, str(ROOT / "src"))
    from jspec.reports import REPLAY_TOL

    rows = compare(reports["parent"], reports["change"])
    for name, row in rows.items():
        print(f"{name}: {row['same_checksum']} of {row['reports']} reports keep the parent's checksum; "
              f"worst margin drift {row['worst_drift']:.3e}")
        for label, drift in row["changed"].items():
            print(f"  {label}: drift {drift:.3e}")
    return 1 if any(row["worst_drift"] > REPLAY_TOL for row in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
