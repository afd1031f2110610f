#!/usr/bin/env python3
"""Per-row times of the dual-norm peak's layers, and per-problem times of
one estimator call, in one or two checkouts.

On one ``_peak_stack`` block of random rows (``_PEAK_FLOATS // dim`` rows,
the most that ``_peak_stack`` decomposes at once) of each algebra, it
times, in microseconds per row:

    decomp      Algebra.decomp of the block
    rebuild     Algebra.rebuild of the block's frames at its eigenvalues
    peak.p1     _peak_stack of the block at p = 1
    peak.p4/3   the same at p = 4/3
    peak.pinf   the same at p = inf
    norm.eig    vector_pnorm(Algebra.eigenvalues(block), 4)
    norm.p4     elements.row_pnorms(alg, block, 4), which reads the 4-norm
                off the chart norm of x∘x; norm.eig's call on a checkout
                without row_pnorms

and, in microseconds per problem:

    estimate    one estimate_many call on the 36 default-grid problems
                (r, s) of one random map, restarts 32, max_iters 15, seed 0

    python3 scripts/kernel_times.py --parent ../jspec-parent --change . --reps 5
    python3 scripts/kernel_times.py --change . --reps 1 --algebras sym:3

Each checkout's ``src/jspec`` is imported into this one process under its
own package name, so both sides run on the same data in the same machine
state. Each kernel is timed over a loop of at least 20 ms, --reps times per
side, the sides alternating which goes first; the best loop is kept. It
prints one JSON line: each kernel's unit, then per algebra the block's row
count and, per side, the time of each kernel.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import sys
import time
from pathlib import Path

import numpy as np

ALGEBRAS = ("sym:3", "herm:3", "spin:5", "rn:6", "herm:6", "sym:10", "rn:64,spin:8",
            "rn:16,spin:16,sym:8,herm:4")
PEAKS = {"peak.p1": "1", "peak.p4/3": "4/3", "peak.pinf": "inf"}
UNITS = {**dict.fromkeys(("decomp", "rebuild", *PEAKS, "norm.eig", "norm.p4"), "us per row"),
         "estimate": "us per problem"}
SIDES = ("parent", "change")


def load(checkout: Path, name: str):
    """The checkout's src/jspec, imported as the package `name`."""
    init = checkout / "src" / "jspec" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg  # the package's relative imports find it here
    spec.loader.exec_module(pkg)
    return pkg


def kernels(pkg, desc: str) -> tuple[int, dict]:
    """The block's row count and, per kernel, one zero-argument call and
    the count (rows or problems) its time is divided by."""
    linmaps = importlib.import_module(pkg.__name__ + ".linmaps")
    exponents = importlib.import_module(pkg.__name__ + ".exponents")
    elements = importlib.import_module(pkg.__name__ + ".elements")
    reports = importlib.import_module(pkg.__name__ + ".reports")
    alg = pkg.parse_algebra(desc)
    rows = max(1, linmaps._PEAK_FLOATS // alg.dim)
    x = np.random.default_rng(0).standard_normal((rows, alg.dim))
    lam, bases = alg.decomp(x)
    which = np.zeros(rows, dtype=int)
    fns = {"decomp": (lambda: alg.decomp(x), rows), "rebuild": (lambda: alg.rebuild(bases, lam), rows)}
    for key, p in PEAKS.items():
        exps = [exponents.ExtExponent.coerce(p)]
        fns[key] = (lambda exps=exps: linmaps._peak_stack(alg, x, exps, which)), rows
    fns["norm.eig"] = (lambda: exponents.vector_pnorm(alg.eigenvalues(x), 4)), rows
    helper = getattr(elements, "row_pnorms", None)
    fns["norm.p4"] = ((lambda: helper(alg, x, 4)) if helper else fns["norm.eig"][0]), rows
    t, cfg = linmaps.random_map(alg, 0), linmaps.EstimatorConfig(restarts=32, max_iters=15, seed=0)
    problems = [(t, r, s, cfg) for r in reports.DEFAULT_GRID for s in reports.DEFAULT_GRID]
    fns["estimate"] = (lambda: linmaps.estimate_many(problems)), len(problems)
    return rows, fns


def loop_seconds(fn, n: int) -> float:
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, help="checkout of the parent commit (optional)")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--reps", type=int, default=5, help="timed loops per kernel and side; the best is kept")
    ap.add_argument("--algebras", default=";".join(ALGEBRAS),
                    help="';'-separated descriptors (default: %(default)s)")
    args = ap.parse_args(argv)
    if args.reps < 1:
        ap.error("--reps must be >= 1")
    algebras = [a.strip() for a in args.algebras.split(";") if a.strip()]
    checkouts = {"parent": args.parent, "change": args.change}
    sides = [s for s in SIDES if checkouts[s] is not None]
    pkgs = {s: load(checkouts[s].resolve(), f"jspec_{s}") for s in sides}

    result = {"unit": UNITS, "reps": args.reps, "algebras": {}}
    for desc in algebras:
        built = {s: kernels(pkgs[s], desc) for s in sides}
        rows = built["change"][0]
        entry = {"rows": rows, **{s: {} for s in sides}}
        for k in UNITS:
            fns, count = {s: built[s][1][k][0] for s in sides}, built["change"][1][k][1]
            n = 1  # loop length: at least 20 ms on the change side
            while loop_seconds(fns["change"], n) < 0.02:
                n *= 2
            best = dict.fromkeys(sides, float("inf"))
            for rep in range(args.reps):
                for s in sides if rep % 2 == 0 else sides[::-1]:
                    best[s] = min(best[s], loop_seconds(fns[s], n))
            for s in sides:
                entry[s][k] = round(1e6 * best[s] / n / count, 4)
        result["algebras"][desc] = entry
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
