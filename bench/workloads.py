"""Benchmark workloads: fixed campaign lists whose seeds derive from the
workload seed, plus the tiny fixed-seed warm-up campaign per suite.

Each campaign is a ``jspec run`` command line. The workload seed is the
only source of randomness: every campaign seed is a hash of (workload,
workload seed, campaign label), so the same seed gives the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

# Estimator campaigns run 32 restarts on the default grid with the ascent
# capped at 15 iterations (the CLI default is 200). Under the default cap a
# few calls per trial run on to 200 iterations, so one trial costs up to
# 10x another and a list's time to solution swings with the seed; under
# this cap a list of a few dozen trials takes a steady time. The identity
# campaigns still match their closed forms to about 1e-15, no interpolation
# check fails, and on the wide algebras most calls exit at max_iters.
CAPPED = ("--restarts", "32", "--max-iters", "15")

# The tiny warm-up per suite touches every code path once (p = 1, finite
# p and p = inf peaks, a bracketed closed form), with the thread pool off.
_BULK_WARM = ("--trials", "64", "--grid", "1,4/3,3,inf")
_ESTIMATOR_WARM = ("--trials", "1", "--restarts", "2", "--max-iters", "3", "--grid", "1,4/3,3,inf")
_WARM_OPTS = {  # suites without an estimator; all others use _ESTIMATOR_WARM
    "ftvn": _BULK_WARM,
    "holder": _BULK_WARM,
    "gen-holder": _BULK_WARM,
    "clarkson": ("--trials", "64", "--grid", "4/3,3"),
    "cp-table": ("--starts", "2", "--grid", "4/3,3"),
}

# margins that measure the gap between a computed value and a closed form
IDENTITY_MARGINS = ("max_exact_delta", "max_identity_delta", "max_attainment_error")


@dataclass(frozen=True)
class Campaign:
    label: str  # unique within its workload, e.g. "lyapunov-norms@sym:3"
    suite: str
    algebra: str | None
    seed: int
    options: tuple = ()

    def argv(self, out) -> list:
        alg = ["--algebra", self.algebra] if self.algebra else []
        return ["run", "--suite", self.suite, *alg, "--seed", str(self.seed),
                *self.options, "--out", str(out)]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: tuple  # (suite, algebra or None, options)

    @property
    def algebras(self) -> tuple:
        return tuple(dict.fromkeys(a for _, a, _ in self.specs if a))

    @property
    def suites(self) -> tuple:
        return tuple(dict.fromkeys(s for s, _, _ in self.specs))


WIDE = ("herm:6", "sym:10", "rn:64,spin:8")


def _grid(suites, algebras, options):
    return tuple((s, a, options) for s in suites for a in algebras)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "est-small",
            "Estimator-bound traffic of gate tests 02/03: ~36 estimator calls per trial on dim <= 9, "
            "where per-call overhead dominates; the batched estimator must show its gain here.",
            _grid(
                ("lyapunov-norms", "quadrep-norms", "positive-norms"),
                ("sym:3", "herm:3", "spin:5", "rn:6"),
                ("--trials", "3") + CAPPED,
            ),
        ),
        Workload(
            "interp-wide",
            "Interpolation checks on wide algebras: eigh and the per-RealLine loop dominate each "
            "half-step and most calls exit at max_iters; batching should barely move it, RealLines should.",
            _grid(("theorem1",), WIDE, ("--trials", "16") + CAPPED)
            + _grid(("theorem2", "corollary4"), WIDE, ("--trials", "8") + CAPPED),
        ),
        Workload(
            "bulk-fuzz",
            "Few calls on batches of 10^4 rows: algebra kernels, _peak_batch and cp_oracle at large "
            "batch with no estimator or pool; a change tuned for 32-row batches must not cost here.",
            _grid(("ftvn", "holder", "gen-holder"), ("rn:16,spin:16,sym:8,herm:4",), ("--trials", "10000"))
            # cp-table stays on p <= 2: for p > 2 a start now and then runs to
            # the 2000-sweep limit, 30x its usual time, for some seeds only
            + (("clarkson", None, ("--trials", "100000", "--n", "4")),
               ("cp-table", None, ("--starts", "24", "--grid", "4/3,3/2,2"))),
        ),
    )
}


def derive_seed(workload: str, seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{workload}/{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def campaigns(workload: str, seed: int) -> list[Campaign]:
    """The workload's timed campaign list for this seed."""
    out = []
    for suite, alg, opts in WORKLOADS[workload].specs:
        label = f"{suite}@{alg}" if alg else suite
        out.append(Campaign(label, suite, alg, derive_seed(workload, seed, label), opts))
    return out


def warmups(workload: str) -> list[Campaign]:
    """One tiny campaign per suite of the workload, on the first algebra
    that suite uses. Seeds are fixed, so their margins can be compared with
    the committed reference margins whatever the workload seed."""
    out = []
    for suite in WORKLOADS[workload].suites:
        alg = next(a for s, a, _ in WORKLOADS[workload].specs if s == suite)
        opts = _WARM_OPTS.get(suite, _ESTIMATOR_WARM)
        out.append(Campaign(f"warmup:{suite}", suite, alg, 0, opts))
    return out
