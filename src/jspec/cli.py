"""Command-line harness: run campaign suites, replay report artifacts,
and print the c_p recovery table.

Exit codes: 0 pass, 1 suite failure, 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import JspecError
from .reports import DEFAULT_GRID, CampaignConfig
from .suites import SUITE_IDS, cp_table_csv, replay, run_suite


def _parse_grid(text: str) -> tuple:
    values = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not values:
        raise JspecError("empty exponent grid")
    return tuple(values)  # CampaignConfig coerces and validates each exponent


def _add_grid(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grid",
        metavar="p1,p2,...",
        help="comma-separated exponents in [1, inf]; accepts 'inf' and fractions like 4/3 "
        "(default 1,4/3,2,3,4,inf)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jspec",
        description="Spectral-norm inequality harness for Euclidean Jordan algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one suite and optionally write a report")
    runp.add_argument("--suite", required=True, choices=SUITE_IDS)
    runp.add_argument("--algebra", default="sym:3", help="descriptor like sym:3, spin:4, rn:5, herm:3, sym:2,spin:3")
    runp.add_argument("--trials", type=int, default=100)
    runp.add_argument("--seed", type=int, default=0)
    runp.add_argument("--restarts", type=int, default=32, help="norm-estimator restarts")
    _add_grid(runp)
    runp.add_argument("--max-iters", type=int, default=200, help="estimator ascent iterations")
    runp.add_argument("--tol", type=float, default=1e-10, help="estimator convergence tolerance")
    runp.add_argument("--starts", type=int, default=200, help="coordinate-ascent multistarts (cp-table)")
    runp.add_argument("--n", type=int, default=2, help="vector dimension (cp-table, clarkson aggregation)")
    runp.add_argument("--out", metavar="report.json", help="write the report artifact here")

    repp = sub.add_parser("replay", help="re-run a report's campaign and verify its margins")
    repp.add_argument("report", metavar="report.json")

    cpp = sub.add_parser("cp-table", help="print the c_p recovery table as CSV")
    cpp.add_argument("--n", type=int, default=2)
    _add_grid(cpp)
    cpp.add_argument("--starts", type=int, default=200)
    cpp.add_argument("--seed", type=int, default=0)
    cpp.add_argument("--out", metavar="report.json", help="also write the JSON report")
    cpp.add_argument("--csv", metavar="table.csv", help="also write the CSV to a file")
    return parser


def _print_report(rep) -> None:
    print(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'}")
    for key, value in rep.margins.items():
        print(f"  {key}: {value}")


def _cmd_run(args) -> int:
    cfg = CampaignConfig(
        suite=args.suite,
        algebra=args.algebra,
        trials=args.trials,
        seed=args.seed,
        grid=_parse_grid(args.grid) if args.grid else DEFAULT_GRID,
        restarts=args.restarts,
        max_iters=args.max_iters,
        tol=args.tol,
        starts=args.starts,
        n=args.n,
    )
    rep = run_suite(cfg)
    _print_report(rep)
    if rep.suite == "cp-table":
        sys.stdout.write(cp_table_csv(rep))
    if args.out:
        rep.save(args.out)
        print(f"wrote {args.out}")
    return 0 if rep.passed else 1


def _cmd_replay(args) -> int:
    fresh = replay(args.report)
    print(f"replayed {args.report}: margins reproduced")
    _print_report(fresh)
    return 0 if fresh.passed else 1


def _cmd_cp_table(args) -> int:
    cfg = CampaignConfig(
        suite="cp-table",
        grid=_parse_grid(args.grid) if args.grid else DEFAULT_GRID,
        seed=args.seed,
        starts=args.starts,
        n=args.n,
    )
    rep = run_suite(cfg)
    table = cp_table_csv(rep)
    sys.stdout.write(table)
    if args.csv:
        Path(args.csv).write_text(table)
    if args.out:
        rep.save(args.out)
    return 0 if rep.passed else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "replay":
            return _cmd_replay(args)
        return _cmd_cp_table(args)
    except JspecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
