"""Campaign configuration and the integrity-checked report container.

Reports are canonical JSON artifacts: a run is reproducible from the
embedded config, the checksum covers everything except wall time, and
loading rejects unknown fields so schema drift is caught instead of
silently ignored.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ReportError
from .exponents import ExtExponent

SCHEMA_VERSION = "2"
REPLAY_TOL = 1e-12  # a replayed margin may differ by this much, relative to max(1, |margin|)

DEFAULT_GRID = (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf)

type_hints = functools.cache(get_type_hints)  # a dataclass's field types, evaluated once


def exponent_to_json(value: float):
    return "inf" if math.isinf(value) else value


def _setting(default, help: str):
    """A CampaignConfig field with its default and the help of its CLI flag."""
    return field(default=default, metadata={"help": help})


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one suite run. The CLI has one flag
    per field with a default, so each default is defined here alone."""

    suite: str
    algebra: str = _setting("sym:3", "descriptor like sym:3, spin:4, rn:5, herm:3, sym:2,spin:3")
    trials: int = _setting(100, "trials per campaign")
    seed: int = _setting(0, "base seed of every draw")
    grid: tuple | list = _setting(
        DEFAULT_GRID, "comma-separated exponents in [1, inf]; accepts 'inf' and fractions like 4/3")
    restarts: int = _setting(32, "norm-estimator restarts")
    max_iters: int = _setting(200, "estimator ascent iterations")
    tol: float = _setting(1e-10, "estimator convergence tolerance")
    starts: int = _setting(200, "coordinate-ascent multistarts (cp-table)")
    n: int = _setting(2, "vector dimension (cp-table, clarkson aggregation)")

    def __post_init__(self):
        _check_types(type(self), vars(self), "config")
        from .suites import SUITE_IDS  # the suite registry; suites.py imports this module

        if self.suite not in SUITE_IDS:
            raise ReportError(f"unknown suite {self.suite!r}; expected one of {', '.join(SUITE_IDS)}")
        for name in ("trials", "restarts", "max_iters", "starts"):
            if getattr(self, name) < 1:
                raise ReportError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n < 2:
            raise ReportError(f"n must be >= 2, got {self.n}")
        if self.seed < 0:
            raise ReportError(f"seed must be >= 0, got {self.seed}")
        if not (math.isfinite(self.tol) and self.tol >= 0.0):
            raise ReportError(f"tol must be finite and >= 0, got {self.tol}")
        try:
            grid = tuple(ExtExponent.coerce(p).value for p in self.grid)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise ReportError(f"bad grid exponent: {exc}") from None
        if not grid:
            raise ReportError("grid must be nonempty")
        object.__setattr__(self, "grid", grid)

    @property
    def exponents(self) -> tuple:
        return tuple(ExtExponent(p) for p in self.grid)

    def to_json(self) -> dict:
        return {**asdict(self), "grid": [exponent_to_json(p) for p in self.grid]}

    @classmethod
    def from_json(cls, d: dict) -> "CampaignConfig":
        _check_fields(cls, d, "config")
        return cls(**d)


def _check_fields(cls, d: dict, what: str) -> None:
    """Reject a JSON object whose keys are not exactly cls's fields."""
    keys = {f.name for f in fields(cls)}
    unknown = set(d) - keys
    if unknown:
        raise ReportError(f"unknown {what} fields: {sorted(unknown)}")
    missing = keys - set(d)
    if missing:
        raise ReportError(f"missing {what} fields: {sorted(missing)}")


def _check_types(cls, d: dict, what: str) -> None:
    """Reject a JSON object whose values do not have cls's field types
    (a float field also takes an int, and no field takes a bool it does
    not declare)."""
    for name, typ in type_hints(cls).items():
        value = d[name]
        want = (int, float) if typ is float else typ
        if not isinstance(value, want) or (isinstance(value, bool) and typ is not bool):
            shown = getattr(typ, "__name__", typ)  # a union such as tuple | list has no name
            raise ReportError(f"{what} field {name!r} must be of type {shown}, got {value!r}")


def _canonical(payload: dict) -> bytes:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()


@dataclass(frozen=True)
class SuiteReport:
    """Result of one suite run. margins holds the suite's worst-case
    numbers; witnesses holds replayable counterexample payloads (always
    nonempty when passed is False)."""

    suite: str
    config: dict
    passed: bool
    margins: dict
    witnesses: list
    wall_time: float
    schema: str = SCHEMA_VERSION
    checksum: str = field(default="")

    def __post_init__(self):
        if not self.checksum:
            object.__setattr__(self, "checksum", self.compute_checksum())

    def payload(self) -> dict:
        """The checksummed content: everything except wall_time and the
        checksum itself."""
        return {
            "schema": self.schema,
            "suite": self.suite,
            "config": self.config,
            "passed": self.passed,
            "margins": self.margins,
            "witnesses": self.witnesses,
        }

    def compute_checksum(self) -> str:
        return hashlib.sha256(_canonical(self.payload())).hexdigest()

    def to_json(self) -> dict:
        d = self.payload()
        d["wall_time"] = self.wall_time
        d["checksum"] = self.checksum
        return d

    def save(self, path) -> None:
        write_file(path, json.dumps(self.to_json(), indent=2, sort_keys=True, allow_nan=False) + "\n")

    @classmethod
    def from_json(cls, d: dict) -> "SuiteReport":
        _check_fields(cls, d, "report")
        _check_types(cls, d, "report")
        if d["schema"] != SCHEMA_VERSION:
            raise ReportError(
                f"schema mismatch: report has {d['schema']!r}, expected {SCHEMA_VERSION!r}; "
                "it was written by an older estimator, so re-run its campaign"
            )
        rep = cls(**d)
        if rep.compute_checksum() != d["checksum"]:
            raise ReportError("checksum mismatch: report content was altered")
        return rep


def write_file(path, text: str) -> None:
    """Write an output file; an unwritable path is a data error."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ReportError(f"cannot write output file: {exc}") from None


def check_writable(path) -> None:
    """Raise write_file's error now, creating nothing, if path is a
    directory or its parent is not a writable directory."""
    p = Path(path)
    parent = p.parent
    if p.is_dir():
        reason = "is a directory"
    elif not parent.is_dir():
        reason = f"no directory {str(parent)!r}"
    elif not os.access(parent, os.W_OK):
        reason = f"directory {str(parent)!r} is not writable"
    else:
        return
    raise ReportError(f"cannot write output file: {str(path)!r}: {reason}")


def _reject_constant(name: str):
    raise ReportError(f"not a report file: non-finite number {name}")


def load_report(path) -> SuiteReport:
    try:
        raw = json.loads(Path(path).read_text(), parse_constant=_reject_constant)
    except OSError as exc:
        raise ReportError(f"cannot read report file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ReportError(f"not a report file: {exc}") from None
    if not isinstance(raw, dict):
        raise ReportError("not a report file: top level must be an object")
    return SuiteReport.from_json(raw)


def margins_match(a: dict, b: dict) -> tuple[bool, float]:
    """Compare two margin dicts key by key. Returns (match within
    REPLAY_TOL, worst absolute difference relative to max(1, magnitude))."""
    if set(a) != set(b):
        return False, math.inf
    worst = 0.0
    for k, va in a.items():
        vb = b[k]
        if isinstance(va, (int, float)) and isinstance(vb, (int, float)):
            scale = max(1.0, abs(va), abs(vb))
            worst = max(worst, abs(va - vb) / scale)
        elif va != vb:
            return False, math.inf
    return worst <= REPLAY_TOL, worst
