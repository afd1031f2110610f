"""Campaign suites: seed-deterministic falsification and validation
runs, assembled into integrity-checked reports.

Every suite derives per-trial randomness from (seed, salt, trial) and
judges its trials in order. The estimator suites run their trials
through _estimated, which draws each trial's plan from its generator,
hands consecutive trials' norm problems to one estimate_many call while
it fits _EST_FLOATS floats, then each trial's bounds to the judge its
plan returned; a check that reruns its estimates does so alone. Each
problem keeps its trial's seed and estimate_many's results do not depend
on the batch, so neither do the reports.

The bulk suites (ftvn, holder, gen-holder) run through one driver,
_bulk: it deals the trials round-robin to the suite's groups (one, or
one per exponent or exponent triple), draws each group's rows from its
own pair of generators, and checks them in row blocks of at most
cp_oracle._BLOCK_FLOATS floats, so their memory does not grow with the
trial count. Consecutive draws continue one stream, every check is row
by row, and the witness is the first worst row across blocks, also when
its margin is 0, so reports do not depend on the block size.
"""

from __future__ import annotations

import math
import time
from functools import partial
from itertools import islice

import numpy as np

from .algebra import Algebra, SymMatrix, parse_algebra
from .cp_oracle import (
    CpProblem,
    _row_blocks,
    aggregate_split_check,
    clarkson_check,
    cp_bruteforce,
    refined_clarkson_check,
)
from .elements import random_element, row_pnorms
from .errors import DegenerateInputError, ReportError
from .exponents import ExtExponent, cp_constant, vector_pnorm
from .interpolation import (
    ExponentPair,
    check_corollary4,
    check_theorem1,
    check_theorem2,
    corollary4_case,
    theorem1_case,
    theorem2_case,
    three_lines_demo,
)
from .linmaps import (
    EstimatorConfig,
    LinearMap,
    _peak_spectrum,
    _positive_form,
    _spectral_form,
    congruence,
    estimate_many,
    lyapunov,
    op_norm_estimate,  # noqa: F401  re-exported: bench/test_harness.py looks it up here
    quadratic_rep,
    random_doubly_stochastic,
    random_map,
)
from .reports import REPLAY_TOL, CampaignConfig, SuiteReport, exponent_to_json, load_report, margins_match

INEQ_SLACK = 1e-9  # criterion slack for exact inequalities
EST_RTOL = 1e-5  # estimator-vs-identity relative tolerance
LINE_SLACK = 1e-6  # sampled three-lines bounds
# floats of problems x restarts x dim in one estimate_many call of an
# estimator suite
_EST_FLOATS = 2**15


def derive_seed(base: int, *path: int) -> int:
    """Stable child seed for (base, path); scheduling-independent."""
    ss = np.random.SeedSequence(entropy=base, spawn_key=tuple(path))
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(base: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(derive_seed(base, *path))


def _fold(rows, worst: str, **margins) -> tuple[dict, list]:
    """Fold trial rows, one at a time, into margins and the 3 rows with
    the largest row[worst] (the earlier of equal ones first), so memory
    does not grow with the trial count. Each margin is name=(max or min,
    row key)."""
    out = {name: -math.inf if pick is max else math.inf for name, (pick, _) in margins.items()}
    top = []
    for row in rows:
        for name, (pick, key) in margins.items():
            out[name] = pick(out[name], float(row[key]))
        top = sorted(top + [row], key=lambda w: -w[worst])[:3]
    return out, top


def _estimated(cfg: CampaignConfig, alg: Algebra, salt: int, plan):
    """judge(bounds) of each trial, in trial order.

    plan(trial, rng, ecfg) draws the trial from rng, the generator of
    (cfg.seed, salt, trial), and returns (judge, t, norms): the judge of
    the lower bounds of the norms (r, s) of map t, estimated with ecfg,
    the campaign's estimator settings seeded for the trial. Consecutive
    trials share one estimate_many call while it holds at most
    _EST_FLOATS floats of problems x restarts x dim; a trial past that
    alone gets a call of its own. A chunk's trials are planned, estimated
    and judged before the next chunk is planned, so memory does not grow
    with cfg.trials.
    """
    per_problem = cfg.restarts * alg.dim
    chunk, problems = [], []
    for trial in range(cfg.trials):
        ecfg = EstimatorConfig(restarts=cfg.restarts, max_iters=cfg.max_iters, tol=cfg.tol,
                               seed=derive_seed(cfg.seed, 7, trial, 0))
        judge, t, norms = plan(trial, _rng(cfg.seed, salt, trial), ecfg)
        if chunk and (len(problems) + len(norms)) * per_problem > _EST_FLOATS:
            yield from _chunk_bounds(chunk, problems)
            chunk, problems = [], []
        chunk.append((judge, len(norms)))
        problems += [(t, r, s, ecfg) for r, s in norms]
    yield from _chunk_bounds(chunk, problems)


def _chunk_bounds(chunk: list, problems: list):
    """One estimate_many call for a chunk; each (judge, n problems) of
    the chunk judges its n lower bounds, in order."""
    bounds = iter([est.lower_bound for est in estimate_many(problems)])
    for judge, n in chunk:
        yield judge([next(bounds) for _ in range(n)])


# -- inequality suites ---------------------------------------------------


def _bulk(cfg: CampaignConfig, alg: Algebra, groups: list, check, worst: str, **margins) -> tuple[dict, dict]:
    """Margins and witness of a bulk suite, in row blocks.

    Trial i goes to group i mod len(groups); each (group, path_a, path_b)
    draws its Gaussian rows a and b from _rng(cfg.seed, *path_a) and
    _rng(cfg.seed, *path_b), one stream each across its row blocks.
    check(group, lo, a, b) returns the block's per-row arrays by name and
    witness_of(k), the witness of the block's row k (group row lo + k).
    Each margin is name=key, the maximum of arrays[key] over all rows; the
    witness is that of the first row with the largest arrays[worst]. A
    block's arrays are dropped before the next block is drawn, so memory
    does not grow with cfg.trials.
    """
    out = dict.fromkeys(margins, -math.inf)
    top, witness = -math.inf, None
    for gi, (group, path_a, path_b) in enumerate(groups):
        rng_a, rng_b = _rng(cfg.seed, *path_a), _rng(cfg.seed, *path_b)
        for lo, hi in _row_blocks(len(range(gi, cfg.trials, len(groups))), alg.dim):
            shape = (hi - lo, alg.dim)
            rows, witness_of = check(group, lo, rng_a.standard_normal(shape), rng_b.standard_normal(shape))
            for name, key in margins.items():
                out[name] = max(out[name], float(rows[key].max()))
            k = int(np.argmax(rows[worst]))
            if witness is None or rows[worst][k] > top:
                top, witness = rows[worst][k], witness_of(k)
            del rows, witness_of
    return out, witness


def _suite_ftvn(cfg: CampaignConfig, alg: Algebra):
    """<a, b> <= lambda(a) . lambda(b) (eigenvalues sorted decreasing)."""

    def check(_, lo: int, a: np.ndarray, b: np.ndarray):
        ip = np.einsum("ij,ij->i", a, b)
        la = np.sort(alg.eigenvalues(a), axis=-1)[:, ::-1]
        lb = np.sort(alg.eigenvalues(b), axis=-1)[:, ::-1]
        rhs = np.einsum("ij,ij->i", la, lb)
        viol = (ip - rhs) / np.maximum(vector_pnorm(la, 2) * vector_pnorm(lb, 2), 1e-30)
        return {"violation": viol}, lambda k: {
            "trial": lo + k, "violation": float(viol[k]), "inner": float(ip[k]), "rhs": float(rhs[k])}

    margins, worst = _bulk(cfg, alg, [(None, (0,), (1,))], check, "violation", max_violation="violation")
    return margins["max_violation"] <= INEQ_SLACK, margins, [worst]


def _suite_holder(cfg: CampaignConfig, alg: Algebra):
    """|<a,b>| <= ||a o b||_1 <= ||a||_p ||b||_q, and attainment of
    sup_b <a,b>/||b||_q = ||a||_p at the dual-norm peak."""

    def check(p: ExtExponent, lo: int, a: np.ndarray, b: np.ndarray):
        q = p.conjugate
        ip = np.abs(np.einsum("ij,ij->i", a, b))
        ab1 = vector_pnorm(alg.eigenvalues(alg.jordan(a, b)), 1)
        lam_a, bases = alg.decomp(a)  # one decomposition for ||a||_p and the peak
        na = vector_pnorm(lam_a, p)
        nb = row_pnorms(alg, b, q)
        scale = np.maximum(na * nb, 1e-30)
        lam_peak, ok = _peak_spectrum(lam_a, q)
        pairing = np.einsum("ij,ij->i", a, alg.rebuild(bases, lam_peak))
        attain = np.where(ok, np.abs(pairing - na) / np.maximum(na, 1e-30), 0.0)
        rows = {"inner": (ip - ab1) / scale, "product": (ab1 - na * nb) / scale, "attain": attain}
        return rows, lambda k: {
            "p": exponent_to_json(p.value), "trial_in_group": lo + k, "attain_error": float(attain[k])}

    groups = [(p, (2, gi), (3, gi)) for gi, p in enumerate(cfg.exponents)]
    margins, worst = _bulk(cfg, alg, groups, check, "attain", max_inner_violation="inner",
                           max_product_violation="product", max_attainment_error="attain")
    return all(v <= INEQ_SLACK for v in margins.values()), margins, [worst]


def _suite_gen_holder(cfg: CampaignConfig, alg: Algebra):
    """||a o b||_s <= 2 c_q ||a||_p ||b||_r with 1/s = 1/p + 1/r
    (q conjugate to p, s != r)."""
    pairs = []
    for p in cfg.exponents:
        for r in cfg.exponents:
            try:
                s = ExtExponent.from_inverse(p.inv + r.inv)
            except ValueError:  # 1/p + 1/r > 1: no exponent s
                continue
            if s != r:
                pairs.append((p, r, s))
    if not pairs:
        raise ReportError("grid admits no exponent pair with 1/p + 1/r <= 1 and s != r")

    def check(prs: tuple, lo: int, a: np.ndarray, b: np.ndarray):
        p, r, s = prs
        denom = np.maximum(row_pnorms(alg, a, p) * row_pnorms(alg, b, r), 1e-30)
        ratio = row_pnorms(alg, alg.jordan(a, b), s) / denom
        bound = 2.0 * cp_constant(p.conjugate)
        return {"ratio": ratio, "violation": (ratio - bound) / bound}, lambda k: {
            "p": exponent_to_json(p.value), "r": exponent_to_json(r.value), "s": exponent_to_json(s.value),
            "ratio": float(ratio[k]), "bound": bound, "trial_in_group": lo + k}

    groups = [(prs, (4, gi), (5, gi)) for gi, prs in enumerate(pairs)]
    margins, worst = _bulk(cfg, alg, groups, check, "violation", max_violation="violation", max_ratio="ratio")
    return margins["max_violation"] <= INEQ_SLACK, margins, [worst]


# -- estimator-vs-closed-form suites ------------------------------------


def _norm_family_suite(cfg: CampaignConfig, alg: Algebra, kind: str):
    pairs = [(r, s) for r in cfg.exponents for s in cfg.exponents]

    def plan(trial: int, rng: np.random.Generator, ecfg: EstimatorConfig):
        a = random_element(alg, rng)

        def judge(ests: list) -> dict:
            out = {"trial": trial, "exact_delta": 0.0, "upper_overshoot": -math.inf,
                   "lower_slack": math.inf, "case": None}
            lam = alg.eigenvalues(a.coords)  # one spectrum serves every pair's closed form
            for (r, s), est in zip(pairs, ests):
                cf = _spectral_form(kind, lam, r, s)
                if cf.is_exact:
                    delta = abs(est - cf.exact) / max(1.0, cf.exact)
                    if delta > out["exact_delta"]:
                        out["exact_delta"] = delta
                        out["case"] = [exponent_to_json(r.value), exponent_to_json(s.value)]
                else:
                    over = (est - cf.upper) / max(1.0, cf.upper)
                    slack = (est - cf.lower) / max(1.0, cf.lower)
                    out["upper_overshoot"] = max(out["upper_overshoot"], over)
                    out["lower_slack"] = min(out["lower_slack"], slack)
            # a grid whose pairs all have closed forms leaves both bracket
            # fields infinite, which JSON cannot hold; report 0.0 for them
            for key in ("upper_overshoot", "lower_slack"):
                if not math.isfinite(out[key]):
                    out[key] = 0.0
            return out

        return judge, lyapunov(a) if kind == "lyapunov" else quadratic_rep(a), pairs

    margins, top = _fold(_estimated(cfg, alg, 6, plan), "exact_delta", max_exact_delta=(max, "exact_delta"),
                         max_upper_overshoot=(max, "upper_overshoot"), min_lower_slack=(min, "lower_slack"))
    passed = (margins["max_exact_delta"] <= EST_RTOL and margins["max_upper_overshoot"] <= INEQ_SLACK
              and margins["min_lower_slack"] >= -EST_RTOL)
    return passed, margins, top


def _positive_map(rng: np.random.Generator, alg: Algebra, trial: int) -> tuple[str, LinearMap]:
    single_sym = len(alg.factors) == 1 and isinstance(alg.factors[0], SymMatrix)
    if trial % 2 == 0:
        return "quadratic", quadratic_rep(random_element(alg, rng))
    if single_sym:
        k = alg.factors[0].size
        return "congruence", congruence(rng.standard_normal((k, k)), alg)
    return "doubly-stochastic", random_doubly_stochastic(alg, rng)


def _suite_positive(cfg: CampaignConfig, alg: Algebra):
    """Positive maps: exact corner identities and one-sided caps.

    Exact: ||P||_{inf->p} = ||P(e)||_p and ||P||_{p->1} = ||P*(e)||_q.
    Caps (never exceeded by the estimator's sampled sup): the upper ends
    for p->inf, 1->p and p->p. Both come from one _positive_form per
    trial, the table closed_form_norm('positive') reads."""
    exps = cfg.exponents
    inf = ExtExponent(math.inf)
    one_exp = ExtExponent(1.0)
    # per exponent: the two identity problems, then the three capped ones
    pairs = [rs for p in exps for rs in ((inf, p), (p, one_exp), (p, inf), (one_exp, p), (p, p))]

    def plan(trial: int, rng: np.random.Generator, ecfg: EstimatorConfig):
        family, pm = _positive_map(rng, alg, trial)

        def judge(bounds: list) -> dict:
            form = _positive_form(pm)  # P(e) and P*(e) decomposed once, for every pair
            judged = iter(zip(bounds, (form(r, s) for r, s in pairs)))
            out = {"trial": trial, "family": family, "identity_delta": 0.0,
                   "cap_overshoot": -math.inf, "case": None}
            for p in exps:
                d = max(abs(est - cf.exact) / max(1.0, cf.exact) for est, cf in islice(judged, 2))
                if d > out["identity_delta"]:
                    out["identity_delta"] = d
                    out["case"] = exponent_to_json(p.value)
                for est, cf in islice(judged, 3):
                    out["cap_overshoot"] = max(out["cap_overshoot"], (est - cf.upper) / max(1.0, cf.upper))
            return out

        return judge, pm, pairs

    margins, top = _fold(_estimated(cfg, alg, 8, plan), "identity_delta",
                         max_identity_delta=(max, "identity_delta"), max_cap_overshoot=(max, "cap_overshoot"))
    passed = margins["max_identity_delta"] <= EST_RTOL and margins["max_cap_overshoot"] <= INEQ_SLACK
    return passed, margins, top


# -- interpolation falsification campaigns ------------------------------


def _pick(rng: np.random.Generator, exps: tuple) -> ExtExponent:
    return exps[int(rng.integers(len(exps)))]


def _interp_suite(cfg: CampaignConfig, alg: Algebra, salt: int, plan) -> tuple[bool, dict, list]:
    """An interpolation campaign through _estimated(cfg, alg, salt,
    plan): each plan's judge takes the first-pass bounds of its trial's
    norms and returns (BoundReport, extra margins, each a maximum over
    trials). Only the reports that can become witnesses are kept, so
    memory does not grow with cfg.trials."""
    top, violated, margins = None, [], {"max_lhs_over_rhs": -math.inf, "violations": 0, "reruns": 0}
    for rep, extra in _estimated(cfg, alg, salt, plan):
        ratio = float(rep.lhs_lower / max(rep.rhs, 1e-30))
        if ratio > margins["max_lhs_over_rhs"]:
            margins["max_lhs_over_rhs"], top = ratio, rep
        if rep.violated and len(violated) < 8:
            violated.append(rep.to_json())
        margins["violations"] += rep.violated
        margins["reruns"] += rep.seeds.get("rerun") is not None
        for key, value in extra.items():
            margins[key] = max(margins.get(key, -math.inf), value)
    ds_over = margins.get("max_ds_overshoot", -math.inf)
    passed = not margins["violations"] and ds_over <= INEQ_SLACK
    return passed, margins, violated or [top.to_json()]


def _suite_theorem1(cfg: CampaignConfig, alg: Algebra):
    """Diagonal interpolation (constant 1), with doubly stochastic
    probes whose diagonal norms must stay at most 1."""
    exps = cfg.exponents

    def plan(trial: int, rng: np.random.Generator, ecfg: EstimatorConfig):
        theta = float(rng.uniform())
        p0, p1 = _pick(rng, exps), _pick(rng, exps)
        probe = trial % 5 == 4
        t = random_doubly_stochastic(alg, rng) if probe else random_map(alg, rng)

        def judge(first):
            # the probe's diagonal norms are the check's first-pass endpoint norms
            extra = {"max_ds_overshoot": float(max(m - 1.0 for m in first[1:]))} if probe else {}
            return check_theorem1(t, p0, p1, theta, ecfg, first=first), extra

        return judge, t, theorem1_case(p0, p1, theta).norms

    return _interp_suite(cfg, alg, 9, plan)


def _suite_theorem2(cfg: CampaignConfig, alg: Algebra):
    """Two-exponent interpolation; alternates the theta-free and
    theta-dependent constants."""
    exps = cfg.exponents

    def plan(trial: int, rng: np.random.Generator, ecfg: EstimatorConfig):
        t = random_map(alg, rng)
        pair = ExponentPair(_pick(rng, exps), _pick(rng, exps), _pick(rng, exps), _pick(rng, exps))
        theta = float(rng.uniform())
        sharp = bool(trial % 2)

        def judge(first):
            return check_theorem2(t, pair, theta, ecfg, theta_constant=sharp, first=first), {}

        return judge, t, theorem2_case(pair, theta, sharp).norms

    return _interp_suite(cfg, alg, 10, plan)


def _suite_corollary4(cfg: CampaignConfig, alg: Algebra):
    """Corner interpolation bounds for r != s; alternates the 2 sqrt(2)
    constant and its sharpened power."""
    exps = cfg.exponents
    if len({e.value for e in exps}) < 2:
        raise ReportError("corollary4 suite needs at least two distinct grid exponents")

    def plan(trial: int, rng: np.random.Generator, ecfg: EstimatorConfig):
        t = random_map(alg, rng)
        r = _pick(rng, exps)
        s = _pick(rng, exps)
        while s == r:
            s = _pick(rng, exps)
        improved = bool(trial % 2)

        def judge(first):
            return check_corollary4(t, r, s, ecfg, improved=improved, first=first), {}

        return judge, t, corollary4_case(r, s, improved).norms

    return _interp_suite(cfg, alg, 11, plan)


def _suite_three_lines(cfg: CampaignConfig, alg: Algebra):
    """Analytic-family walk-through: the pairing must match phi(theta)
    and the sampled geometric-mean and line-cap bounds must hold. Line j's
    cap is c_{r_j} c_{s_j'} ||T||_{r_j -> s_j}, with the estimated norm."""
    exps = cfg.exponents

    def plan(trial: int, rng: np.random.Generator, ecfg: EstimatorConfig):
        t = random_map(alg, rng)
        pair = ExponentPair(_pick(rng, exps), _pick(rng, exps), _pick(rng, exps), _pick(rng, exps))
        theta = float(rng.uniform(0.05, 0.95))
        for _ in range(50):
            a = random_element(alg, rng)
            b = random_element(alg, rng)
            try:
                rep = three_lines_demo(t, a, b, pair, theta)
                break
            except DegenerateInputError:
                continue
        else:
            raise DegenerateInputError("could not draw invertible elements")
        # the judge keeps only scalars while the chunk is estimated, not the grid arrays
        geo_over = float((abs(rep.phi_theta) - rep.geometric_bound) / max(rep.geometric_bound, 1e-30))
        pairing_error, sup0, sup1 = rep.pairing_error, rep.sup_line0, rep.sup_line1

        def judge(bounds: list) -> dict:
            cap0, cap1 = (pair.endpoint_factor(j) * bounds[j] for j in (0, 1))
            cap_over = max((sup0 - cap0) / max(cap0, 1e-30), (sup1 - cap1) / max(cap1, 1e-30))
            return {
                "trial": trial,
                "pairing_error": pairing_error,
                "geo_overshoot": geo_over,
                "cap_overshoot": float(cap_over),
                "theta": theta,
            }

        return judge, t, ((pair.r0, pair.s0), (pair.r1, pair.s1))

    margins, top = _fold(_estimated(cfg, alg, 12, plan), "pairing_error",
                         max_pairing_error=(max, "pairing_error"), max_geo_overshoot=(max, "geo_overshoot"),
                         max_cap_overshoot=(max, "cap_overshoot"))
    passed = (
        margins["max_pairing_error"] <= INEQ_SLACK
        and margins["max_geo_overshoot"] <= LINE_SLACK
        and margins["max_cap_overshoot"] <= LINE_SLACK
    )
    return passed, margins, top


# -- scalar-oracle suites ------------------------------------------------


def _suite_cp_table(cfg: CampaignConfig, alg: Algebra):
    """Brute-force recovery of c_p on the grid (table suite); each row
    says how many sweeps its search took and why it stopped."""
    rows = []
    for i, p in enumerate(cfg.exponents):
        res = cp_bruteforce(CpProblem(cfg.n, p), starts=cfg.starts, seed=derive_seed(cfg.seed, 13, i))
        closed = cp_constant(p)
        rows.append({
            "p": exponent_to_json(p.value),
            "max_found": res.value,
            "closed_form": closed,
            "delta": abs(res.value - closed),
            "sweeps": res.sweeps,
            "stop": res.stop,
        })
    max_delta = max(r["delta"] for r in rows)
    margins = {"max_delta": float(max_delta)}
    return max_delta <= 1e-4, margins, rows


def _suite_clarkson(cfg: CampaignConfig, alg: Algebra):
    """Scalar inequality fuzzing across the grid (finite p only); each
    witness row keeps its check's worst pair."""
    results = []
    for i, p in enumerate(cfg.exponents):
        if p.is_inf:
            continue
        if p.value >= 2.0:
            results.append(clarkson_check(p, trials=cfg.trials, seed=derive_seed(cfg.seed, 14, i)))
        if p.value <= 2.0:
            results.append(refined_clarkson_check(p, trials=cfg.trials, seed=derive_seed(cfg.seed, 15, i)))
        agg_trials = min(cfg.trials, 10**4)
        results.append(aggregate_split_check(p, cfg.n, trials=agg_trials, seed=derive_seed(cfg.seed, 16, i)))
    if not results:
        raise ReportError("clarkson suite needs at least one finite grid exponent")
    margins = {
        key: max((res.max_violation for res in results if res.name == name), default=None)
        for key, name in (
            ("max_two_point_violation", "two-point"),
            ("max_refined_violation", "refined two-point"),
            ("max_aggregate_violation", "aggregate split"),
        )
    }
    rows = [
        {"p": res.p, "kind": res.name, "max_violation": res.max_violation, "worst": res.worst}
        for res in results
    ]
    return all(res.holds for res in results), margins, rows


_SUITES = {
    "ftvn": _suite_ftvn,
    "holder": _suite_holder,
    "gen-holder": _suite_gen_holder,
    "lyapunov-norms": partial(_norm_family_suite, kind="lyapunov"),
    "quadrep-norms": partial(_norm_family_suite, kind="quadratic"),
    "positive-norms": _suite_positive,
    "theorem1": _suite_theorem1,
    "theorem2": _suite_theorem2,
    "corollary4": _suite_corollary4,
    "three-lines": _suite_three_lines,
    "cp-table": _suite_cp_table,
    "clarkson": _suite_clarkson,
}
SUITE_IDS = tuple(_SUITES)


def run_suite(cfg: CampaignConfig) -> SuiteReport:
    """Execute one campaign, its algebra parsed once; deterministic given the config."""
    t0 = time.perf_counter()
    passed, margins, witnesses = _SUITES[cfg.suite](cfg, parse_algebra(cfg.algebra))
    wall = time.perf_counter() - t0
    return SuiteReport(
        suite=cfg.suite,
        config=cfg.to_json(),
        passed=bool(passed),
        margins=margins,
        witnesses=witnesses,
        wall_time=wall,
    )


def replay(path) -> SuiteReport:
    """Re-run the campaign recorded in a report and confirm the margins
    reproduce (to REPLAY_TOL; bit-for-bit in the same environment)."""
    original = load_report(path)
    cfg = CampaignConfig.from_json(original.config)
    fresh = run_suite(cfg)
    ok, worst = margins_match(original.margins, fresh.margins)
    if not ok:
        raise ReportError(f"replay mismatch: margins differ by {worst:.3e} (tolerance {REPLAY_TOL:g})")
    if original.passed != fresh.passed:
        raise ReportError("replay mismatch: pass/fail flipped")
    return fresh


def cp_table_csv(report: SuiteReport) -> str:
    """CSV rendering of a cp-table report."""
    if report.suite != "cp-table":
        raise ReportError("CSV table rendering is only defined for cp-table reports")
    lines = ["p,max_found,closed_form,delta"]
    for row in report.witnesses:
        lines.append(f"{row['p']},{row['max_found']:.12g},{row['closed_form']:.12g},{row['delta']:.3e}")
    return "\n".join(lines) + "\n"
