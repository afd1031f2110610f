"""Linear maps: structured families, dual-norm peaks, the ascent estimator,
and the closed-form norm table."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from jspec import (
    Algebra,
    AlgebraMismatchError,
    DegenerateInputError,
    Element,
    EstimatorConfig,
    ExtExponent,
    LinearMap,
    NonFiniteInputError,
    UnsupportedCaseError,
    closed_form_norm,
    congruence,
    conjugate,
    estimate_many,
    identity_map,
    inner_product,
    interpolate,
    jordan_product,
    lyapunov,
    op_norm_estimate,
    p_norm,
    parse_algebra,
    peak,
    quadratic_rep,
    random_doubly_stochastic,
    random_element,
    random_map,
    reflection_mixture,
    spectral_decomposition,
    unit,
    zero,
)
from jspec import linmaps
from jspec.linmaps import _PATIENCE, _peak_spectrum, _starts
from jspec.reports import DEFAULT_GRID
from oracles import sym_chart_to_dense, sym_dense_to_chart

FAST = EstimatorConfig(restarts=16, max_iters=120, tol=1e-12, seed=0)


@pytest.fixture()
def decomp_rows(monkeypatch):
    """Counts the rows handed to Algebra.decomp."""
    counted = []
    real = Algebra.decomp

    def counting(self, coords):
        counted.append(int(np.prod(np.shape(coords)[:-1])))
        return real(self, coords)

    monkeypatch.setattr(Algebra, "decomp", counting)
    return counted


class TestLinearMapBasics:
    def test_identity(self, algebra):
        t = identity_map(algebra)
        a = random_element(algebra, 1)
        assert np.allclose(t(a).coords, a.coords)
        assert np.allclose(t.matrix, np.eye(algebra.dim))

    def test_compose_add_scale(self, algebra):
        t = random_map(algebra, 2)
        u = random_map(algebra, 3)
        a = random_element(algebra, 4)
        # composition is the product of the chart matrices
        tu = LinearMap(algebra, t.matrix @ u.matrix)
        assert np.allclose(tu(a).coords, t(u(a)).coords, atol=1e-12)

    def test_adjoint_pairing(self, algebra):
        t = random_map(algebra, 5)
        a = random_element(algebra, 6)
        b = random_element(algebra, 7)
        lhs = inner_product(t(a), b)
        rhs = inner_product(a, t.adjoint(b))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
        assert np.allclose(t.adjoint.matrix, t.matrix.T)

    def test_matrix_is_immutable_copy(self, algebra):
        m = np.eye(algebra.dim)
        from jspec import LinearMap

        t = LinearMap(algebra, m)
        m[0, 0] = 99.0
        assert t.matrix[0, 0] == 1.0
        with pytest.raises(ValueError):
            t.matrix[0, 0] = 5.0

    def test_rejects_wrong_algebra_input(self):
        t = random_map(parse_algebra("sym:2"), 0)
        a = random_element(parse_algebra("spin:3"), 0)
        with pytest.raises(AlgebraMismatchError):
            t(a)

    def test_random_map_deterministic(self, algebra):
        assert np.array_equal(random_map(algebra, 9).matrix, random_map(algebra, 9).matrix)


class TestStructuredFamilies:
    def test_lyapunov_acts_by_jordan_product(self, algebra):
        a = random_element(algebra, 11)
        v = random_element(algebra, 12)
        want = jordan_product(a, v).coords
        assert np.allclose(lyapunov(a)(v).coords, want, atol=1e-12)

    def test_lyapunov_symmetric_and_unital_action(self, algebra):
        a = random_element(algebra, 13)
        la = lyapunov(a)
        assert np.allclose(la.matrix, la.matrix.T, atol=1e-12)
        assert np.allclose(la(unit(algebra)).coords, a.coords, atol=1e-12)

    def test_quadratic_rep_formula_and_unit(self, algebra):
        a = random_element(algebra, 14)
        pa = quadratic_rep(a)
        la = lyapunov(a)
        lsq = lyapunov(jordan_product(a, a))
        want = 2.0 * (la.matrix @ la.matrix) - lsq.matrix
        assert np.allclose(pa.matrix, want, atol=1e-12)
        assert np.allclose(pa(unit(algebra)).coords, jordan_product(a, a).coords, atol=1e-11)

    def test_quadratic_rep_is_dense_sandwich_on_sym(self, rng):
        # on symmetric matrices, the quadratic representation is X -> A X A
        alg = parse_algebra("sym:3")
        a = random_element(alg, 15)
        v = random_element(alg, 16)
        a_d = sym_chart_to_dense(a.coords, 3)
        v_d = sym_chart_to_dense(v.coords, 3)
        want = sym_dense_to_chart(a_d @ v_d @ a_d, 3)
        assert np.allclose(quadratic_rep(a)(v).coords, want, atol=1e-11)

    def test_congruence_matches_dense_oracle(self, rng):
        alg = parse_algebra("sym:4")
        a_mat = rng.standard_normal((4, 4))
        t = congruence(a_mat, alg)
        v = random_element(alg, 17)
        v_d = sym_chart_to_dense(v.coords, 4)
        want = sym_dense_to_chart(a_mat @ v_d @ a_mat.T, 4)
        assert np.allclose(t(v).coords, want, atol=1e-11)

    def test_congruence_positivity(self, rng):
        alg = parse_algebra("sym:3")
        t = congruence(rng.standard_normal((3, 3)), alg)
        for seed in range(5):
            v = random_element(alg, seed)
            sq = jordan_product(v, v)
            lam = np.asarray(spectral_decomposition(t(sq)).eigenvalues)
            assert lam.min() >= -1e-10 * max(1.0, lam.max())

    def test_congruence_needs_single_sym_factor(self, rng):
        for desc in ("spin:3", "herm:2", "sym:2,spin:3", "rn:4"):
            with pytest.raises(UnsupportedCaseError):
                congruence(np.eye(2), parse_algebra(desc))
        with pytest.raises(ValueError):
            congruence(np.eye(3), parse_algebra("sym:2"))  # shape mismatch

    def test_reflection_mixture_doubly_stochastic(self, algebra):
        rng = np.random.default_rng(18)
        frame = algebra.random_frame(rng)
        signs = rng.choice([-1.0, 1.0], size=algebra.rank)
        u = Element(algebra, (signs[:, None] * frame).sum(axis=0))
        t = reflection_mixture([u], [1.0])
        e = unit(algebra)
        assert np.allclose(t(e).coords, e.coords, atol=1e-10)
        assert np.allclose(t.adjoint(e).coords, e.coords, atol=1e-10)

    def test_reflection_mixture_rejects_non_reflection(self, algebra):
        bad = random_element(algebra, 19)  # u o u != e almost surely
        with pytest.raises(ValueError):
            reflection_mixture([bad])

    @pytest.mark.parametrize("weights,error", [
        ([0.0], ValueError), ([0.0, 0.0], ValueError), ([math.nan], NonFiniteInputError),
        ([math.inf], NonFiniteInputError), ([1.0, -math.inf], NonFiniteInputError),
    ])
    def test_reflection_mixture_rejects_bad_weights(self, weights, error):
        # checked before the weights are normalized, so no 0/0 or inf/inf
        e = unit(parse_algebra("sym:3"))  # e o e = e
        with pytest.raises(error, match="weight"):
            reflection_mixture([e] * len(weights), weights)

    def test_random_doubly_stochastic_invariants(self, algebra):
        t = random_doubly_stochastic(algebra, 20)
        e = unit(algebra)
        assert np.allclose(t(e).coords, e.coords, atol=1e-10)
        assert np.allclose(t.adjoint(e).coords, e.coords, atol=1e-10)
        # positivity on a few squares
        for seed in range(3):
            v = random_element(algebra, 30 + seed)
            lam = np.asarray(spectral_decomposition(t(jordan_product(v, v))).eigenvalues)
            assert lam.min() >= -1e-9 * max(1.0, lam.max())

    def test_doubly_stochastic_norm_at_most_one(self, algebra):
        t = random_doubly_stochastic(algebra, 21)
        for p in (1, 2, math.inf):
            est = op_norm_estimate(t, p, p, FAST)
            assert est.lower_bound <= 1.0 + 1e-8


class TestPeak:
    @pytest.mark.parametrize("p", [1.0, 1.25, 2.0, 3.0, math.inf])
    def test_dual_feasibility_and_pairing(self, algebra, p):
        # peak(c, p) is the norming functional for the conjugate norm: it has
        # unit p-norm and pairs with c to <c, d> = ||c||_{p'}
        c = random_element(algebra, 23)
        d = peak(c, p)
        assert p_norm(d, p) == pytest.approx(1.0, rel=1e-10)
        assert inner_product(c, d) == pytest.approx(p_norm(c, conjugate(p)), rel=1e-10)

    def test_p2_is_normalized_element(self, algebra):
        # the chart is orthonormal, so the p = 2 peak is c / ||c||_2 in
        # coordinates; it must agree with the route through the Jordan frame
        c = random_element(algebra, 29)
        d = peak(c, 2)
        assert np.allclose(d.coords, c.coords / np.linalg.norm(c.coords), rtol=0.0, atol=1e-15)
        lam, decs = algebra.decomp(c.coords[None, :])
        lam_new, ok = _peak_spectrum(lam, ExtExponent(2.0))
        assert ok[0]
        assert np.allclose(d.coords, algebra.rebuild(decs, lam_new)[0], rtol=0.0, atol=1e-15)

    def test_p1_tie_breaks_to_first_in_descending_order(self):
        alg = parse_algebra("rn:2")
        assert np.allclose(peak(Element(alg, np.array([-3.0, 3.0])), 1).coords, [0.0, 1.0])
        assert np.allclose(peak(Element(alg, np.array([3.0, -3.0])), 1).coords, [1.0, 0.0])
        assert np.allclose(peak(Element(alg, np.array([1.0, -5.0])), 1).coords, [0.0, -1.0])
        assert np.allclose(peak(Element(alg, np.array([3.0, 3.0])), 1).coords, [1.0, 0.0])
        assert np.allclose(peak(Element(alg, np.array([-3.0, -3.0])), 1).coords, [-1.0, 0.0])

    def test_p1_pick_matches_sorted_rule_on_ties(self):
        # reference rule: order the eigenvalues decreasing (stable), then
        # take the first index attaining max |lambda|
        rng = np.random.default_rng(43)
        lam = rng.integers(-3, 4, size=(1000, 5)).astype(float)
        lam[::97] = 0.0
        alam, amax = np.abs(lam), np.abs(lam).max(axis=-1)
        order = np.argsort(-lam, axis=-1, kind="stable")
        first = np.argmax(np.take_along_axis(alam, order, axis=-1) >= amax[:, None], axis=-1)
        k = np.take_along_axis(order, first[:, None], axis=-1)[:, 0]
        rows = np.arange(len(lam))
        want = np.zeros_like(lam)
        want[rows, k] = np.where(lam[rows, k] >= 0, 1.0, -1.0) * (amax > 0)
        got, ok = _peak_spectrum(lam, ExtExponent(1.0))
        assert np.array_equal(ok, amax > 0)
        assert np.array_equal(got, want)

    def test_pinf_uses_positive_sign_for_zero(self):
        alg = parse_algebra("rn:3")
        d = peak(Element(alg, np.array([5.0, 0.0, -2.0])), "inf")
        assert np.allclose(d.coords, [1.0, 1.0, -1.0])

    def test_scale_invariance(self, algebra):
        c = random_element(algebra, 31)
        big = Element(algebra, c.coords * 1e8)
        for p in (1.25, 3.0):
            assert np.allclose(peak(c, p).coords, peak(big, p).coords, atol=1e-9)

    def test_extreme_conjugate_exponent_no_overflow(self, algebra):
        p = interpolate(1, 1.25, 0.03)  # conjugate ~ 167
        spec = np.linspace(80.0, 1.0, algebra.rank)
        c = random_element(algebra, 37, spectrum=spec)
        with np.errstate(over="raise"):
            d = peak(c, p)
        assert inner_product(c, d) == pytest.approx(p_norm(c, conjugate(p)), rel=1e-9)

    def test_zero_element_rejected(self, algebra):
        with pytest.raises(DegenerateInputError):
            peak(zero(algebra), 2)


class TestEstimator:
    def test_zero_map(self, algebra):
        from jspec import LinearMap

        t = LinearMap(algebra, np.zeros((algebra.dim, algebra.dim)))
        est = op_norm_estimate(t, 2, 3, FAST)
        assert est.lower_bound == 0.0
        assert est.converged

    def test_deterministic(self, algebra):
        t = random_map(algebra, 41)
        e1 = op_norm_estimate(t, 1.5, 3, FAST)
        e2 = op_norm_estimate(t, 1.5, 3, FAST)
        assert e1.lower_bound == e2.lower_bound
        assert np.array_equal(e1.witness_a.coords, e2.witness_a.coords)

    def test_lower_bound_nondecreasing_in_max_iters(self, algebra):
        # a longer ascent from the same starts never ends lower
        t = random_map(algebra, 43)
        bounds = [op_norm_estimate(t, 1, math.inf, replace(FAST, max_iters=k)).lower_bound
                  for k in range(1, 9)]
        assert all(b1 >= b0 for b0, b1 in zip(bounds, bounds[1:]))

    def test_witness_consistency(self, algebra):
        t = random_map(algebra, 47)
        r, s = 1.25, 4.0
        est = op_norm_estimate(t, r, s, FAST)
        assert p_norm(est.witness_a, r) == pytest.approx(1.0, rel=1e-9)
        assert p_norm(t(est.witness_a), s) == pytest.approx(est.lower_bound, rel=1e-9)

    def test_matches_svd_at_two_two(self, algebra):
        # independent oracle: ||T||_{2->2} is the top singular value in an
        # orthonormal chart
        for seed in (51, 52, 53):
            t = random_map(algebra, seed)
            want = float(np.linalg.svd(t.matrix, compute_uv=False)[0])
            est = op_norm_estimate(t, 2, 2, FAST)
            assert est.lower_bound == pytest.approx(want, rel=1e-9)
            assert est.lower_bound <= want * (1.0 + 1e-12)

    def test_duality_matched_seeds(self, algebra):
        t = random_map(algebra, 57)
        for r, s in ((1.0, 2.0), (1.5, 4.0), (2.0, math.inf)):
            direct = op_norm_estimate(t.adjoint, r, s, FAST).lower_bound
            dual = op_norm_estimate(t, conjugate(s), conjugate(r), FAST).lower_bound
            assert direct == pytest.approx(dual, rel=1e-5)

    @pytest.mark.parametrize("r", [1, 2, 3, math.inf])
    def test_first_half_step_is_not_a_stall(self, r):
        # the identity is optimal from every start, so each restart stalls
        # on the two half-steps after the first; the rise from -inf counts
        # as progress, not as a stall
        t = identity_map(parse_algebra("sym:3"))
        est = op_norm_estimate(t, r, r, EstimatorConfig(restarts=4, max_iters=50, seed=0))
        assert est.lower_bound == pytest.approx(1.0, rel=1e-12)
        if r == 2:
            # ||I||_{2->2} = sigma_max(I) certifies the first iteration; had
            # its first half-step counted as a stall, it would stop "stalled"
            assert (est.stop, est.iterations, est.converged) == ("certified", 1, False)
        else:
            assert (est.stop, est.iterations) == ("stalled", 2)
            assert est.converged


class TestEstimatorConfig:
    @pytest.mark.parametrize("field,value,error", [
        ("restarts", 0, ValueError),
        ("restarts", -3, ValueError),
        ("max_iters", 0, ValueError),
        ("seed", -1, ValueError),
        ("seed", 1.5, TypeError),
        ("seed", True, TypeError),
        ("restarts", 4.0, TypeError),
        ("max_iters", True, TypeError),
        ("max_iters", "10", TypeError),
        ("tol", -1e-9, ValueError),
        ("tol", math.nan, NonFiniteInputError),
        ("tol", math.inf, NonFiniteInputError),
    ])
    def test_rejects_bad_limits(self, field, value, error):
        with pytest.raises(error, match=field):
            EstimatorConfig(**{field: value})

    def test_numpy_integers_accepted(self):
        cfg = EstimatorConfig(restarts=np.int64(2), max_iters=np.int32(3), seed=np.int64(7))
        assert op_norm_estimate(random_map(parse_algebra("sym:2"), 5), 2, 3, cfg).lower_bound > 0.0

    def test_smallest_limits_run(self):
        alg = parse_algebra("sym:2")
        est = op_norm_estimate(random_map(alg, 5), 2, 3, EstimatorConfig(restarts=1, max_iters=1, tol=0.0))
        assert est.iterations == 1 and est.lower_bound > 0.0

    def test_zero_tol_runs_without_warnings(self, algebra):
        # a -inf starting value must never meet a zero tolerance in 0 * inf
        cfg = replace(FAST, restarts=4, max_iters=30, tol=0.0)
        t = random_map(algebra, 17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ests = estimate_many([(t, r, s, cfg) for r in (1, 2, "inf") for s in (1, 3)])
        assert all(est.lower_bound > 0.0 for est in ests)


class TestEstimateMany:
    def test_batch_matches_solo(self, algebra):
        # p = 1, finite p, p = 2 and p = inf on both half-steps, a zero map, two
        # seeds, two maps and two problems sharing a map and a seed in one
        # batch; each problem must come out as it does alone
        t = random_map(algebra, 71)
        lyap = lyapunov(random_element(algebra, 72))
        zero_map = LinearMap(algebra, np.zeros((algebra.dim, algebra.dim)))
        cfg0, cfg1 = replace(FAST, seed=5), replace(FAST, seed=6)
        problems = [
            (t, 1, 2.5, cfg0),
            (t, 2.5, math.inf, cfg1),
            (t, math.inf, 4, cfg1),
            (zero_map, 2, 3, cfg0),
            (lyap, math.inf, 1, cfg1),
            (lyap, 3, 1.25, cfg0),
            (t, 2, 1.5, cfg1),
            (lyap, 4, 2, cfg0),
        ]
        batch = estimate_many(problems)
        assert len(batch) == len(problems)
        for prob, got in zip(problems, batch):
            want = op_norm_estimate(*prob)
            assert got.iterations == want.iterations
            assert got.converged == want.converged
            assert got.stop == want.stop
            assert got.lower_bound == pytest.approx(want.lower_bound, rel=1e-12, abs=1e-12)
            for w_got, w_want in ((got.witness_a, want.witness_a), (got.witness_b, want.witness_b)):
                assert np.allclose(w_got.coords, w_want.coords, rtol=0.0, atol=1e-12)
        assert batch[3].lower_bound == 0.0 and batch[3].iterations == 0
        assert any(0 < est.iterations < FAST.max_iters for est in batch)  # early exits happen

    def test_p2_problems_need_no_decomposition(self, algebra, decomp_rows):
        t = random_map(algebra, 76)
        problems = [(t, 2, 2, FAST), (lyapunov(random_element(algebra, 77)), 2, 2, FAST)]
        ests = estimate_many(problems)
        assert sum(decomp_rows) == 0
        for est, prob in zip(ests, problems):
            assert est.lower_bound == pytest.approx(op_norm_estimate(*prob).lower_bound, rel=1e-12)

    def test_stalled_restarts_are_not_decomposed(self, decomp_rows):
        # restarts of one problem stall at different half-steps; once a
        # restart has stalled its rows stay out of the decomposition
        alg = parse_algebra("sym:3")
        problems = [(random_map(alg, 78), 1.5, 3, FAST), (random_map(alg, 79), 3, 1.25, FAST)]
        ests = estimate_many(problems)
        stack_rows = sum(2 * FAST.restarts * est.iterations for est in ests)
        assert 0 < sum(decomp_rows) < stack_rows

    def test_first_iteration_shares_rows(self, decomp_rows):
        # the 36 default-grid problems on one map with one seed: a -> b
        # decomposes the R start rows once (not once per s' != 2 problem),
        # b -> a the R rows of each of the 6 s' once (not once per r != 2
        # problem); one problem at a time takes 30R + 30R. On herm:6,
        # sym:10 and rn:64,spin:8 some row's outputs reach past a
        # _PEAK_FLOATS block bound
        r_count = 32
        cfg = EstimatorConfig(restarts=r_count, max_iters=1, seed=5)
        for descriptor in ("sym:3", "herm:6", "sym:10", "rn:64,spin:8"):
            t = random_map(parse_algebra(descriptor), 95)
            decomp_rows.clear()
            estimate_many([(t, r, s, cfg) for r in DEFAULT_GRID for s in DEFAULT_GRID])
            assert sum(decomp_rows) == r_count + 6 * r_count, descriptor

    @pytest.mark.parametrize("floats", [1, 50])
    def test_results_do_not_depend_on_peak_blocks(self, monkeypatch, floats):
        # 1 float: one output per block, each extended to the end of its
        # row's outputs; 50 floats: 8 outputs per block on sym:3, extended
        # where shared rows straddle the bound
        alg = parse_algebra("sym:3")
        cfgs = [replace(FAST, restarts=6, max_iters=8, seed=seed) for seed in (0, 1)]
        maps = [random_map(alg, 96), lyapunov(random_element(alg, 97))]
        problems = [(t, r, s, c) for t in maps for c in cfgs for r in (1, 2, 3) for s in (1.5, 2, "inf")]
        want = estimate_many(problems)
        monkeypatch.setattr(linmaps, "_PEAK_FLOATS", floats)
        for got, ref in zip(estimate_many(problems), want):
            assert (got.lower_bound, got.iterations, got.stop) == (ref.lower_bound, ref.iterations, ref.stop)
            assert np.array_equal(got.witness_a.coords, ref.witness_a.coords)
            assert np.array_equal(got.witness_b.coords, ref.witness_b.coords)

    @pytest.mark.parametrize("field,value", [("restarts", 8), ("max_iters", 7), ("tol", 1e-6)])
    def test_mismatched_settings_rejected(self, field, value):
        t = random_map(parse_algebra("sym:2"), 73)
        with pytest.raises(ValueError, match="restarts, max_iters and tol"):
            estimate_many([(t, 2, 2, FAST), (t, 2, 3, replace(FAST, **{field: value}))])

    def test_empty_and_mixed_algebras(self):
        assert estimate_many([]) == []
        t2 = random_map(parse_algebra("sym:2"), 74)
        t3 = random_map(parse_algebra("spin:3"), 75)
        with pytest.raises(AlgebraMismatchError):
            estimate_many([(t2, 2, 2, FAST), (t3, 2, 2, FAST)])


class TestStarts:
    def test_start_invariants(self, algebra):
        t = random_map(algebra, 98)
        cfg = replace(FAST, restarts=32, seed=3)
        rows, sigma = _starts(algebra, t.matrix, cfg)
        _, sv, vt = np.linalg.svd(t.matrix)
        n_sparse = 2 + cfg.restarts // 4
        assert rows.shape == (cfg.restarts, algebra.dim)
        assert np.array_equal(rows[0], algebra.unit_coords())
        assert np.array_equal(rows[1], vt[0]) and sigma == sv[0]
        frames = rows[2:n_sparse]
        assert np.allclose(algebra.jordan(frames, frames), frames, atol=1e-12)
        assert np.allclose(algebra.trace(frames), 1.0, atol=1e-12)
        assert np.isfinite(rows[n_sparse:]).all()

    @pytest.mark.parametrize("restarts", [1, 2, 3])
    def test_few_restarts(self, restarts):
        alg = parse_algebra("herm:2")
        t = random_map(alg, 99)
        rows, _ = _starts(alg, t.matrix, replace(FAST, restarts=restarts))
        assert rows.shape == (restarts, alg.dim)
        assert np.array_equal(rows[0], alg.unit_coords())

    def test_starts_depend_on_map_and_seed_alone(self, monkeypatch, algebra):
        # the rows a problem starts from are the same alone and in a batch
        # of other maps, seeds and exponents
        drawn = []

        def spy(alg, mat, cfg):
            rows, sigma = _starts(alg, mat, cfg)
            drawn.append(((mat.tobytes(), cfg.seed), rows, sigma))
            return rows, sigma

        monkeypatch.setattr(linmaps, "_starts", spy)
        t, u = random_map(algebra, 100), random_map(algebra, 101)
        cfg = replace(FAST, restarts=12, max_iters=2)
        problems = [(t, 1, 3, cfg), (u, 2, "inf", cfg), (t, 3, 1.5, replace(cfg, seed=4)), (u, 1, 1, cfg)]
        estimate_many(problems)
        batch = {key: (rows, sigma) for key, rows, sigma in drawn}
        assert len(drawn) == len(batch) == 3  # one draw per map and seed
        for prob in problems:
            drawn.clear()
            op_norm_estimate(*prob)
            (key, rows, sigma), = drawn
            assert np.array_equal(rows, batch[key][0]) and sigma == batch[key][1]


STOPS = ["zero-map", "stalled", "patience", "max_iters", "certified"]


def _stop_batch(max_iters):
    """On sym:3, one problem per stop reason, in STOPS order: a zero map,
    the identity at 3 -> 3 (every restart stalls at once), a 3 -> 3 map
    that scales the diagonal matrix units E11, E22, E33 (chart
    coordinates 0, 3, 5) by 1, 0.99, 0.98 and the off-diagonal
    coordinates by 0.5, whose norm 1 is attained at its top singular
    vector (restart 1) while the other restarts creep up, a random
    1 -> 1 map that still climbs, and a chart-diagonal 2 -> 2 map whose
    first iteration reaches its top singular value. Only the last has
    r <= 2 <= s, where the certificate is tight."""
    alg = parse_algebra("sym:3")
    cfg = EstimatorConfig(restarts=4, max_iters=max_iters, tol=1e-12, seed=0)
    plateau = LinearMap(alg, np.diag([1.0, 0.5, 0.5, 0.99, 0.5, 0.98]))
    creep = LinearMap(alg, np.diag([1.0, 0.999, 0.5, 0.5, 0.5, 0.5]))
    return [
        (LinearMap(alg, np.zeros((alg.dim, alg.dim))), 2, 3, cfg),
        (identity_map(alg), 3, 3, cfg),
        (plateau, 3, 3, cfg),
        (random_map(alg, 80), 1, 1, cfg),
        (creep, 2, 2, cfg),
    ]


def _reference_restarts(t, r, s, cfg, iterations):
    """Objective and stall count of each restart after the given number
    of full iterations, one restart at a time through peak()."""
    alg, m = t.algebra, t.matrix
    rex, sp = ExtExponent.coerce(r), ExtExponent.coerce(s).conjugate
    e = unit(alg)
    out = []
    for row in _starts(alg, m, cfg)[0]:
        a = row / p_norm(Element(alg, row), rex)
        b = e.coords / p_norm(e, sp)
        value, stall = -math.inf, 0
        for _ in range(iterations):
            for half in (0, 1):
                if stall >= 2:
                    continue
                if half == 0:
                    ta = m @ a
                    cand = peak(Element(alg, ta), sp).coords
                    val = float(ta @ cand)
                else:
                    cand = peak(Element(alg, m.T @ b), rex).coords
                    val = float((m @ cand) @ b)
                small = math.isfinite(value) and val - value <= cfg.tol * max(1.0, abs(value))
                if val > value:
                    value = val
                    if half == 0:
                        b = cand
                    else:
                        a = cand
                stall = stall + 1 if small else 0
        out.append((value, stall))
    return out


class TestPatience:
    def test_stop_reasons(self):
        ests = estimate_many(_stop_batch(10))
        assert [est.stop for est in ests] == STOPS
        assert [est.iterations for est in ests] == [0, 2, 1 + _PATIENCE, 10, 1]

    def test_plateaued_best_leaves_before_max_iters(self, monkeypatch):
        # the best restart is optimal from its start while the others
        # keep creeping up, so only the patience rule ends the ascent
        prob = _stop_batch(200)[2]
        est = op_norm_estimate(*prob)
        assert est.stop == "patience"
        assert est.iterations == 1 + _PATIENCE < 200
        assert est.converged
        monkeypatch.setattr(linmaps, "_PATIENCE", 10**9)
        full = op_norm_estimate(*prob)
        assert (full.stop, full.iterations) == ("max_iters", 200)
        assert full.lower_bound == est.lower_bound == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("case", ["rising-best", "patience", "max_iters", "random"])
    def test_converged_means_best_restart_stalled(self, case):
        if case == "rising-best":
            # a still-rising restart reaches the plateau value in the last
            # iteration; it comes first among the restarts attaining the
            # best, so the best restart has not stalled (1.2 -> 1.8 keeps
            # the ascent out of r <= 2 <= s, where it would certify)
            alg = parse_algebra("rn:3")
            prob = (LinearMap(alg, np.diag([1.0, 0.99, 0.98])), 1.2, 1.8,
                    EstimatorConfig(restarts=4, max_iters=30, tol=1e-12, seed=0))
        elif case == "random":
            prob = (random_map(parse_algebra("sym:2,spin:3"), 83), 3, 1.25, FAST)
        else:
            prob = _stop_batch(10)[2 if case == "patience" else 3]
        est = op_norm_estimate(*prob)
        value, stall = max(_reference_restarts(*prob, est.iterations), key=lambda vs: vs[0])
        assert est.lower_bound == pytest.approx(value, rel=1e-12)
        assert est.converged == (stall >= 2)
        if case == "rising-best":
            assert est.stop == "patience" and not est.converged

    def test_batch_matches_solo_across_stop_reasons(self):
        problems = _stop_batch(10)
        alg, cfg = problems[0][0].algebra, problems[0][3]
        problems += [
            (random_map(alg, 81), 1.5, 3, replace(cfg, seed=1)),
            (lyapunov(random_element(alg, 82)), math.inf, 1.25, cfg),
            (problems[2][0], 2, 2, replace(cfg, seed=2)),
        ]
        batch = estimate_many(problems)
        assert {est.stop for est in batch} == set(STOPS)
        for prob, got in zip(problems, batch):
            want = op_norm_estimate(*prob)
            assert (got.stop, got.iterations, got.converged) == (want.stop, want.iterations, want.converged)
            assert got.lower_bound == want.lower_bound
            assert np.array_equal(got.witness_a.coords, want.witness_a.coords)
            assert np.array_equal(got.witness_b.coords, want.witness_b.coords)


def _upper(t, r, s):
    """sigma_max(T) n^max(0, 1/2 - 1/r) n^max(0, 1/s - 1/2), n the rank:
    ||T||_{r->s} never exceeds it."""
    rex, sex = ExtExponent.coerce(r), ExtExponent.coerce(s)
    n = t.algebra.rank
    sigma = float(np.linalg.svd(t.matrix, compute_uv=False)[0])
    return sigma * n ** max(0.0, 0.5 - rex.inv) * n ** max(0.0, sex.inv - 0.5)


TIGHT = [(1, 2), (2, 2), (4 / 3, 3), (2, math.inf), (1, math.inf)]  # r <= 2 <= s


class TestCertified:
    @pytest.mark.parametrize("r,s", TIGHT)
    def test_identity_and_lyapunov_certify(self, algebra, r, s):
        # both attain their 2 -> 2 norm sigma_max at r <= 2 <= s
        for t in (identity_map(algebra), lyapunov(random_element(algebra, 91))):
            est = op_norm_estimate(t, r, s, FAST)
            assert (est.stop, est.iterations) == ("certified", 1)
            assert est.lower_bound >= _upper(t, r, s) - FAST.tol * max(1.0, _upper(t, r, s))

    @pytest.mark.parametrize("tol", [1e-12, 1e-3])
    @pytest.mark.parametrize("kind", ["lyapunov", "quadratic"])
    def test_certified_bound_is_within_tol_of_closed_form(self, algebra, kind, tol):
        a = random_element(algebra, 92)
        t = lyapunov(a) if kind == "lyapunov" else quadratic_rep(a)
        cfg = replace(FAST, restarts=4, tol=tol)
        for (r, s), est in zip(TIGHT, estimate_many([(t, r, s, cfg) for r, s in TIGHT])):
            exact = closed_form_norm(kind, r, s, a=a).exact
            slack = tol * max(1.0, _upper(t, r, s))
            assert est.stop == "certified"
            assert est.lower_bound <= exact * (1.0 + 1e-12)
            assert exact - est.lower_bound <= slack + 1e-12 * max(1.0, exact)

    def test_random_map_at_three_three_never_certifies(self, algebra):
        # ||T||_{3->3} < sigma_max n^(1/6) for a generic map
        for seed in range(5):
            t = random_map(algebra, 93 + seed)
            est = op_norm_estimate(t, 3, 3, replace(FAST, seed=seed))
            assert est.stop != "certified"
            assert est.lower_bound < _upper(t, 3, 3) * (1.0 - 1e-3)

    def test_upper_bound_holds_for_every_pair(self, algebra):
        # the certificate is sound only if no estimate exceeds the bound
        grid = [1, 4 / 3, 2, 3, math.inf]
        t = random_map(algebra, 94)
        pairs = [(r, s) for r in grid for s in grid]
        for (r, s), est in zip(pairs, estimate_many([(t, r, s, FAST) for r, s in pairs])):
            assert est.lower_bound <= _upper(t, r, s) * (1.0 + 1e-12)

    def test_repeated_problems_are_solved_once(self, decomp_rows):
        # every stop reason, each problem twice: once as in _stop_batch and
        # once on a copied map with exponents spelled differently; the two
        # share one estimate, equal bit for bit to the problem alone, and
        # the batch decomposes no more rows than the distinct problems do
        problems = _stop_batch(10)
        copies = [(LinearMap(t.algebra, t.matrix.copy()), str(r), float(s), replace(c))
                  for t, r, s, c in problems]
        estimate_many(problems)
        distinct_rows = sum(decomp_rows)
        decomp_rows.clear()
        batch = estimate_many([p for pair in zip(problems, copies) for p in pair])
        assert sum(decomp_rows) == distinct_rows
        assert [est.stop for est in batch[::2]] == STOPS
        for prob, got, twin in zip(problems, batch[::2], batch[1::2]):
            assert twin is got
            want = op_norm_estimate(*prob)
            assert (got.stop, got.iterations, got.converged) == (want.stop, want.iterations, want.converged)
            assert got.lower_bound == want.lower_bound
            assert np.array_equal(got.witness_a.coords, want.witness_a.coords)
            assert np.array_equal(got.witness_b.coords, want.witness_b.coords)


class TestClosedForms:
    @pytest.mark.parametrize("r,s", [(1, 2), (2, 2), (1.5, 4), (1, math.inf), (3, 3)])
    def test_lyapunov_r_le_s_is_sup_norm(self, algebra, r, s):
        a = random_element(algebra, 61)
        cf = closed_form_norm("lyapunov", r, s, a=a)
        assert cf.is_exact and cf.exact == pytest.approx(p_norm(a, "inf"), rel=1e-14)

    def test_lyapunov_from_inf_and_to_one(self, algebra):
        a = random_element(algebra, 62)
        cf = closed_form_norm("lyapunov", math.inf, 2, a=a)
        assert cf.exact == pytest.approx(p_norm(a, 2), rel=1e-14)
        cf = closed_form_norm("lyapunov", 3, 1, a=a)
        assert cf.exact == pytest.approx(p_norm(a, conjugate(3)), rel=1e-14)

    def test_lyapunov_bracket_for_r_gt_s(self, algebra):
        a = random_element(algebra, 63)
        cf = closed_form_norm("lyapunov", 4, 2, a=a)
        assert not cf.is_exact
        assert cf.lower == pytest.approx(p_norm(a, "inf"), rel=1e-14)
        assert cf.lower <= cf.upper

    def test_quadratic_exact_values(self, algebra):
        a = random_element(algebra, 64)
        sq = jordan_product(a, a)
        cf = closed_form_norm("quadratic", 2, 3, a=a)
        assert cf.exact == pytest.approx(p_norm(a, "inf") ** 2, rel=1e-13)
        cf = closed_form_norm("quadratic", math.inf, 1.5, a=a)
        assert cf.exact == pytest.approx(p_norm(sq, 1.5), rel=1e-13)

    def test_positive_exact_rows(self, algebra):
        t = random_doubly_stochastic(algebra, 65)
        e = unit(algebra)
        cf = closed_form_norm("positive", math.inf, 2.5, pmap=t)
        assert cf.exact == pytest.approx(p_norm(t(e), 2.5), rel=1e-13)
        cf = closed_form_norm("positive", 1.5, 1, pmap=t)
        assert cf.exact == pytest.approx(p_norm(t.adjoint(e), conjugate(1.5)), rel=1e-13)

    def test_positive_bracket_sound(self, algebra):
        t = random_doubly_stochastic(algebra, 66)
        for r, s in ((2, 2), (1.5, 3), (4, 2)):
            cf = closed_form_norm("positive", r, s, pmap=t)
            est = op_norm_estimate(t, r, s, FAST)
            assert cf.lower <= est.lower_bound * (1.0 + 1e-9)
            assert est.lower_bound <= cf.upper * (1.0 + 1e-9)

    def test_estimator_sharp_on_exact_rows(self, algebra):
        a = random_element(algebra, 67)
        for r, s in ((1.25, 2.0), (math.inf, 3.0), (2.0, 1.0)):
            cf = closed_form_norm("lyapunov", r, s, a=a)
            est = op_norm_estimate(lyapunov(a), r, s, FAST)
            assert est.lower_bound == pytest.approx(cf.exact, rel=1e-5)
            assert est.lower_bound <= cf.exact * (1.0 + 1e-9)

    def test_error_paths(self, algebra):
        a = random_element(algebra, 68)
        with pytest.raises(UnsupportedCaseError):
            closed_form_norm("lyapunov", 2, 2)
        with pytest.raises(UnsupportedCaseError):
            closed_form_norm("positive", 2, 2)
        with pytest.raises(UnsupportedCaseError):
            closed_form_norm("hadamard", 2, 2, a=a)
