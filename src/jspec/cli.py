"""Command-line harness: run campaign suites, replay report artifacts,
and print the c_p recovery table.

Exit codes: 0 pass, 1 suite failure, 2 usage or data errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import MISSING, fields

from .errors import JspecError
from .exponents import ExtExponent
from .reports import CampaignConfig, type_hints, write_file
from .suites import SUITE_IDS, cp_table_csv, replay, run_suite


def _split_grid(text: str) -> tuple:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _add_config_flags(parser: argparse.ArgumentParser, only: tuple | None = None) -> None:
    """One flag per CampaignConfig field with a default (those in only,
    when given). The dest is the field name and there is no argparse
    default, so an absent flag leaves the field's own default in force."""
    for f in fields(CampaignConfig):
        if f.default is MISSING or (only and f.name not in only):
            continue
        kind, shown = type_hints(CampaignConfig)[f.name], f.default
        if f.name == "grid":
            kind, shown = _split_grid, ",".join(str(ExtExponent(p)) for p in f.default)
        parser.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=kind,
                            help=f"{f.metadata['help']} (default {shown})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jspec",
        description="Spectral-norm inequality harness for Euclidean Jordan algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runp = sub.add_parser("run", help="run one suite and optionally write a report")
    runp.add_argument("--suite", required=True, choices=SUITE_IDS)
    _add_config_flags(runp)
    runp.add_argument("--out", metavar="report.json", help="write the report artifact here")

    repp = sub.add_parser("replay", help="re-run a report's campaign and verify its margins")
    repp.add_argument("report", metavar="report.json")

    cpp = sub.add_parser("cp-table", help="print the c_p recovery table as CSV")
    _add_config_flags(cpp, only=("seed", "grid", "starts", "n"))
    cpp.add_argument("--out", metavar="report.json", help="also write the JSON report")
    cpp.add_argument("--csv", metavar="table.csv", help="also write the CSV to a file")
    return parser


def _config(args, **fixed) -> CampaignConfig:
    """The config of the given flags, the fixed fields and defaults for the rest."""
    given = {f.name: getattr(args, f.name, None) for f in fields(CampaignConfig)}
    return CampaignConfig(**{k: v for k, v in given.items() if v is not None}, **fixed)


def _print_report(rep) -> None:
    print(f"suite {rep.suite}: {'PASS' if rep.passed else 'FAIL'}")
    for key, value in rep.margins.items():
        print(f"  {key}: {value}")


def _cmd_run(args) -> int:
    rep = run_suite(_config(args))
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
    rep = run_suite(_config(args, suite="cp-table"))
    table = cp_table_csv(rep)
    sys.stdout.write(table)
    if args.csv:
        write_file(args.csv, table)
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
