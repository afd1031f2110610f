"""Campaign configuration and the integrity-checked report container.

Reports are canonical JSON artifacts: a run is reproducible from the
embedded config, the checksum covers everything except wall time, and
loading rejects unknown fields so schema drift is caught instead of
silently ignored.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import get_type_hints

from .errors import ReportError
from .exponents import ExtExponent

SCHEMA_VERSION = "2"

DEFAULT_GRID = (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf)


def exponent_to_json(value: float):
    return "inf" if math.isinf(value) else value


@dataclass(frozen=True)
class CampaignConfig:
    """Everything needed to reproduce one suite run."""

    suite: str
    algebra: str = "sym:3"
    trials: int = 100
    seed: int = 0
    grid: tuple = DEFAULT_GRID
    restarts: int = 32  # estimator restarts
    max_iters: int = 200
    tol: float = 1e-10
    starts: int = 200  # coordinate-ascent multistarts (cp-table)
    n: int = 2  # vector dimension (cp-table, clarkson aggregation)

    def __post_init__(self):
        for name in ("suite", "algebra"):
            if not isinstance(getattr(self, name), str):
                raise ReportError(f"{name} must be a string, got {getattr(self, name)!r}")
        for name in ("trials", "seed", "restarts", "max_iters", "starts", "n"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReportError(f"{name} must be an integer, got {value!r}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, (int, float)):
            raise ReportError(f"tol must be a real number, got {self.tol!r}")
        if not isinstance(self.grid, (list, tuple)):
            raise ReportError(f"grid must be a list of exponents, got {self.grid!r}")
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
    for name, typ in get_type_hints(cls).items():
        value = d[name]
        want = (int, float) if typ is float else typ
        if not isinstance(value, want) or (isinstance(value, bool) and typ is not bool):
            raise ReportError(f"{what} field {name!r} must be of type {typ.__name__}, got {value!r}")


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
        Path(path).write_text(json.dumps(self.to_json(), indent=2, sort_keys=True, allow_nan=False) + "\n")

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


def load_report(path) -> SuiteReport:
    try:
        raw = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ReportError(f"cannot read report file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ReportError(f"not a report file: {exc}") from None
    if not isinstance(raw, dict):
        raise ReportError("not a report file: top level must be an object")
    return SuiteReport.from_json(raw)


def margins_match(a: dict, b: dict, tol: float = 1e-12) -> tuple[bool, float]:
    """Compare two margin dicts key by key. Returns (match, worst
    absolute difference relative to max(1, magnitude))."""
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
    return worst <= tol, worst
