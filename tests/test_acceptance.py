"""End-to-end acceptance gate.

Eight numbered checks, one test each, run at fixed tolerances against the
full acceptance algebra set.  Every test prints a one-line summary with the
observed extremal margin so the log records how much headroom each check
passed with.  Budgeted checks also assert their wall-clock ceiling.
"""

import math
import time
from dataclasses import replace

import numpy as np

from conftest import ACCEPTANCE_DESCRIPTORS, P_GRID
from jspec import (
    CampaignConfig,
    EstimatorConfig,
    closed_form_norm,
    congruence,
    estimate_many,
    lyapunov,
    parse_algebra,
    quadratic_rep,
    run_suite,
)
from jspec.cp_oracle import CpProblem, cp_bruteforce
from jspec.elements import (
    inner_product,
    jordan_product,
    p_norm,
    random_element,
    spectral_decomposition,
    unit,
)
from jspec.exponents import ExtExponent, cp_constant, vector_pnorm
from jspec.linmaps import adjoint, random_map
from jspec.suites import derive_seed

EST32 = EstimatorConfig(restarts=32, max_iters=200, tol=1e-10)


def _rel(found: float, want: float) -> float:
    return abs(found - want) / max(abs(want), 1e-30)


def _report(line: str) -> None:
    print(f"[gate] {line}")


# -- 1: the norm-splitting constant is recovered by direct search ----------


def test_01_splitting_constant_recovered_by_search():
    """Compass search over ||x||_p + ||y||_p on the complex unit
    sphere reproduces the closed-form constant to 1e-4 for every grid
    exponent and dimension 2..4, within a two-minute budget."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = None
    for p in P_GRID:
        want = cp_constant(p)
        for n in (2, 3, 4):
            res = cp_bruteforce(CpProblem(n, ExtExponent.coerce(p)),
                                starts=200, seed=derive_seed(101, n))
            delta = abs(res.value - want)
            if delta > worst:
                worst, worst_case = delta, (p, n)
    elapsed = time.perf_counter() - t0
    _report(f"01 splitting-constant recovery: max |found - closed form| = "
            f"{worst:.3e} at (p, n) = {worst_case} in {elapsed:.1f}s (limit 1e-4)")
    assert worst <= 1e-4, f"worst recovery gap {worst:.3e} at {worst_case}"
    assert elapsed <= 120.0, f"recovery sweep took {elapsed:.1f}s (budget 120s)"


# -- 2: closed-form operator norms match the estimator ---------------------


def test_02_structured_operator_norm_identities():
    """For 50 random elements on each acceptance algebra, the multistart
    estimator reproduces every known closed-form value of ||T||_{r->s} for
    multiplication and quadratic maps to 1e-5 relative, within ten minutes:
    r <= s exactness, the s = 1 dual identity, and the unit-evaluation
    identity at r = infinity. Each element's cases go to one estimate_many
    call; every case keeps its own seed."""
    t0 = time.perf_counter()
    worst = 0.0
    worst_case = None
    runs = 0
    for ai, desc in enumerate(ACCEPTANCE_DESCRIPTORS):
        alg = parse_algebra(desc)
        rng = np.random.default_rng(derive_seed(202, ai))
        for ei in range(50):
            a = random_element(alg, rng)
            lmap = lyapunov(a)
            qmap = quadratic_rep(a)
            top = p_norm(a, "inf")
            asq = jordan_product(a, a)
            cases = []
            for p in P_GRID:
                q = ExtExponent.coerce(p).conjugate
                cases.append((lmap, p, p, top))
                cases.append((lmap, p, 1, p_norm(a, q)))
                cases.append((qmap, p, p, top * top))
                cases.append((qmap, math.inf, p, p_norm(asq, p)))
            for i, r in enumerate(P_GRID):
                for s in P_GRID[i + 1:]:
                    cases.append((lmap, r, s, top))
                    cases.append((qmap, r, s, top * top))
            ests = estimate_many([
                (tmap, r, s, replace(EST32, seed=derive_seed(202, ai, ei, ci)))
                for ci, (tmap, r, s, _) in enumerate(cases)
            ])
            for (tmap, r, s, want), est in zip(cases, ests):
                runs += 1
                delta = _rel(est.lower_bound, want)
                if delta > worst:
                    worst, worst_case = delta, (desc, ei, float(r), float(s))
    elapsed = time.perf_counter() - t0
    _report(f"02 closed-form norm identities: {runs} estimator runs, max rel "
            f"error = {worst:.3e} at {worst_case} in {elapsed:.0f}s (limit 1e-5)")
    assert worst <= 1e-5, f"worst identity mismatch {worst:.3e} at {worst_case}"
    assert elapsed <= 600.0, f"identity sweep took {elapsed:.1f}s (budget 600s)"


# -- 3: positive maps: unit-evaluation identities and bracket caps ---------


def _positive_maps():
    """50 cone-preserving maps: 25 congruences on sym:4 plus quadratic
    maps on sym:4 (13) and herm:3 (12)."""
    sym4 = parse_algebra("sym:4")
    herm3 = parse_algebra("herm:3")
    rng = np.random.default_rng(derive_seed(303))
    maps = []
    for _ in range(25):
        maps.append(congruence(rng.standard_normal((4, 4)), sym4))
    for _ in range(13):
        maps.append(quadratic_rep(random_element(sym4, rng)))
    for _ in range(12):
        maps.append(quadratic_rep(random_element(herm3, rng)))
    return maps


CAP_PAIRS = ((1, 2), (2, 4), (1, math.inf), (2, 2), (4, 4), (2, 1), (4, 2), (math.inf, 1))


def test_03_positive_map_identities_and_caps():
    """Every cone-preserving map satisfies ||P||_{inf->p} = ||P(e)||_p and
    ||P||_{p->1} = ||P*(e)||_{p'} to 1e-5 relative, and the estimator never
    exceeds the closed-form upper caps nor undershoots the lower bounds.
    Each map's problems go to one estimate_many call; every problem keeps
    its own seed."""
    worst_id = 0.0
    worst_cap = -math.inf
    worst_lower = math.inf
    for mi, pmap in enumerate(_positive_maps()):
        alg = pmap.algebra
        e = unit(alg)
        pe = pmap(e)
        pse = adjoint(pmap)(e)
        probs, wants = [], []  # identity problems first, then the caps
        for pi, p in enumerate(P_GRID):
            q = ExtExponent.coerce(p).conjugate
            seed = derive_seed(303, mi, pi)
            probs += [(math.inf, p, seed), (p, 1, seed)]
            wants += [p_norm(pe, p), p_norm(pse, q)]
        probs += [(r, s, derive_seed(303, mi, 99, ci)) for ci, (r, s) in enumerate(CAP_PAIRS)]
        ests = [est.lower_bound for est in estimate_many(
            [(pmap, r, s, replace(EST32, seed=seed)) for r, s, seed in probs])]
        for got, want in zip(ests, wants):
            worst_id = max(worst_id, _rel(got, want))
        for (r, s), est in zip(CAP_PAIRS, ests[len(wants):]):
            cf = closed_form_norm("positive", r, s, pmap=pmap)
            worst_cap = max(worst_cap, (est - cf.upper) / cf.upper)
            worst_lower = min(worst_lower, (est - cf.lower) / max(cf.lower, 1e-30))
    _report(f"03 positive-map identities: max rel identity error = {worst_id:.3e} "
            f"(limit 1e-5); max cap overshoot = {worst_cap:.3e} (limit 1e-9); "
            f"min lower-bound slack = {worst_lower:.3e} (limit -1e-5)")
    assert worst_id <= 1e-5
    assert worst_cap <= 1e-9
    assert worst_lower >= -1e-5


# -- 4: interpolation bounds hold on bulk random instances -----------------


def test_04_interpolation_bounds_bulk():
    """>= 500 random instances per interpolation bound (diagonal, two-line,
    and corner variants, both constants each) across sym:3 and spin:4: zero
    violations after the 4x-restart rerun escalation."""
    ratios = {}
    for suite in ("theorem1", "theorem2", "corollary4"):
        worst = -math.inf
        for si, desc in enumerate(("sym:3", "spin:4")):
            cfg = CampaignConfig(suite=suite, algebra=desc, trials=250,
                                 seed=derive_seed(404, si), restarts=24)
            rep = run_suite(cfg)
            assert rep.passed, f"{suite} on {desc}: {rep.margins}"
            assert rep.margins["violations"] == 0
            worst = max(worst, rep.margins["max_lhs_over_rhs"])
        ratios[suite] = worst
    _report("04 interpolation bounds: 500 instances per bound, 0 violations; "
            + "; ".join(f"{k} max lhs/rhs = {v:.6f}" for k, v in ratios.items()))
    assert all(v <= 1.0 + 1e-8 for v in ratios.values())


# -- 5: trace-form and Hoelder inequalities at bulk scale ------------------


def test_05_trace_and_hoelder_inequalities_bulk():
    """10^4-trial runs of the eigenvalue-rearrangement and Hoelder suites
    stay within 1e-9 violation on sym:3 and spin:4, and the complexified
    Hoelder pairing |<u, v>| <= ||u||_p ||v||_p' holds on 10^4 direct draws."""
    violation_keys = {
        "ftvn": ("max_violation",),
        "holder": ("max_inner_violation", "max_product_violation", "max_attainment_error"),
        "gen-holder": ("max_violation",),  # max_ratio is a sharpness gauge, not a violation
    }
    worst = -math.inf
    for suite, keys in violation_keys.items():
        for si, desc in enumerate(("sym:3", "spin:4")):
            cfg = CampaignConfig(suite=suite, algebra=desc, trials=10_000,
                                 seed=derive_seed(505, si))
            rep = run_suite(cfg)
            assert rep.passed, f"{suite} on {desc}: {rep.margins}"
            worst = max(worst, *(rep.margins[k] for k in keys))

    alg = parse_algebra("sym:3")
    rng = np.random.default_rng(derive_seed(505, 7))
    n = 10_000
    re_u, im_u, re_v, im_v = (rng.standard_normal((n, alg.dim)) for _ in range(4))
    ip = np.abs(np.einsum("ij,ij->i", re_u + 1j * im_u, re_v - 1j * im_v))
    lam = [alg.eigenvalues(c) for c in (re_u, im_u, re_v, im_v)]
    worst_cx = -math.inf
    for p in P_GRID:
        q = ExtExponent.coerce(p).conjugate
        nu = vector_pnorm(lam[0], p) + vector_pnorm(lam[1], p)
        nv = vector_pnorm(lam[2], q) + vector_pnorm(lam[3], q)
        viol = (ip - nu * nv) / np.maximum(nu * nv, 1e-30)
        worst_cx = max(worst_cx, float(viol.max()))
    _report(f"05 trace/Hoelder bulk: max suite margin = {worst:.3e}, max "
            f"complexified pairing violation = {worst_cx:.3e} (limit 1e-9)")
    assert worst <= 1e-9
    assert worst_cx <= 1e-9


# -- 6: analytic-family walkthrough ----------------------------------------


def test_06_analytic_family_walkthrough():
    """20 random analytic families: the boundary pairing matches phi(theta)
    to 1e-9 and the sampled geometric-mean and line caps hold to 1e-6."""
    cfg = CampaignConfig(suite="three-lines", algebra="sym:3", trials=20,
                         seed=derive_seed(606), restarts=24)
    rep = run_suite(cfg)
    m = rep.margins
    _report(f"06 analytic families: max pairing error = {m['max_pairing_error']:.3e} "
            f"(limit 1e-9); max geometric overshoot = {m['max_geo_overshoot']:.3e}, "
            f"max line-cap overshoot = {m['max_cap_overshoot']:.3e} (limit 1e-6)")
    assert rep.passed, m
    assert m["max_pairing_error"] <= 1e-9
    assert m["max_geo_overshoot"] <= 1e-6
    assert m["max_cap_overshoot"] <= 1e-6


# -- 7: scalar two-point inequalities at fuzz scale ------------------------


def test_07_scalar_split_inequalities_fuzz():
    """10^5-trial scalar fuzz of the two-point, refined two-point, and
    aggregate splitting inequalities stays within 1e-12 scaled violation."""
    cfg = CampaignConfig(suite="clarkson", algebra="rn:2", trials=100_000,
                         seed=derive_seed(707), grid=(1, 1.25, 1.5, 2, 3, 4, 8), n=4)
    rep = run_suite(cfg)
    m = rep.margins
    worst = max(m.values())
    _report(f"07 scalar split inequalities: 10^5 trials x 7 exponents, max "
            f"scaled violation = {worst:.3e} (limit 1e-12)")
    assert rep.passed, m
    assert worst <= 1e-12


# -- 8: structural invariants and estimator duality ------------------------


def test_08_structural_invariants_and_duality():
    """Per acceptance algebra: 10^3 spectral decompositions reconstruct to
    1e-10 and their frames satisfy the frame identities to 1e-9; adjoint
    pairing error stays below 1e-10; and 20 random maps per algebra satisfy
    ||T*||_{s'->r'} = ||T||_{r->s} to 1e-5 with matched estimator seeds.
    Each algebra's forward/adjoint pairs go to one estimate_many call."""
    worst_resid = 0.0
    worst_frame = 0.0
    worst_adj = 0.0
    worst_dual = 0.0
    for ai, desc in enumerate(ACCEPTANCE_DESCRIPTORS):
        alg = parse_algebra(desc)
        rng = np.random.default_rng(derive_seed(808, ai))
        eye = np.eye(alg.rank)
        e = unit(alg)
        for _ in range(1000):
            a = random_element(alg, rng)
            dec = spectral_decomposition(a)
            resid = (dec.reconstruct() - a).norm2() / max(a.norm2(), 1e-30)
            worst_resid = max(worst_resid, resid)
            frame = np.stack([c.coords for c in dec.frame])
            worst_frame = max(
                worst_frame,
                float(np.abs(frame.sum(axis=0) - e.coords).max()),
                float(np.abs(frame @ frame.T - eye).max()),
                float(np.abs(alg.jordan(frame, frame) - frame).max()),
            )
        duals = []
        for mi in range(20):
            tmap = random_map(alg, rng)
            tstar = adjoint(tmap)
            for _ in range(50):
                a = random_element(alg, rng)
                b = random_element(alg, rng)
                scale = max(a.norm2() * b.norm2(), 1e-30)
                gap = abs(inner_product(tmap(a), b) - inner_product(a, tstar(b)))
                worst_adj = max(worst_adj, gap / scale)
            r, s = rng.choice(len(P_GRID), size=2)
            r, s = ExtExponent.coerce(P_GRID[r]), ExtExponent.coerce(P_GRID[s])
            cfg = replace(EST32, seed=derive_seed(808, ai, mi))
            duals += [(tmap, r, s, cfg), (tstar, s.conjugate, r.conjugate, cfg)]
        ests = estimate_many(duals)
        for fwd, rev in zip(ests[::2], ests[1::2]):
            worst_dual = max(worst_dual, _rel(rev.lower_bound, fwd.lower_bound))
    _report(f"08 structural invariants: max reconstruction residual = "
            f"{worst_resid:.3e} (limit 1e-10); max frame defect = {worst_frame:.3e} "
            f"(limit 1e-9); max adjoint pairing gap = {worst_adj:.3e} (limit 1e-10); "
            f"max duality mismatch = {worst_dual:.3e} (limit 1e-5)")
    assert worst_resid <= 1e-10
    assert worst_frame <= 1e-9
    assert worst_adj <= 1e-10
    assert worst_dual <= 1e-5
