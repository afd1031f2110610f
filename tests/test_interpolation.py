"""Interpolation bounds, the complexified algebra on chart arrays, and
the three-lines walk-through."""

import math

import numpy as np
import pytest

from jspec import (
    AlgebraMismatchError,
    BoundReport,
    DegenerateInputError,
    Element,
    EstimatorConfig,
    ExponentPair,
    ExtExponent,
    ReportError,
    UnsupportedCaseError,
    check_corollary4,
    check_theorem1,
    check_theorem2,
    conjugate,
    cp_constant,
    eigenvalues,
    elements,
    estimate_many,
    inner_product,
    interpolate,
    interpolation,
    jordan_product,
    lyapunov,
    p_norm,
    parse_algebra,
    random_element,
    random_map,
    spectral_decomposition,
    theorem2_constant,
    theorem2_constant_theta,
    three_lines_demo,
    unit,
    vector_pnorm,
)

CFG = EstimatorConfig(restarts=16, max_iters=120, tol=1e-11, seed=0)
SYM3 = parse_algebra("sym:3")


def _parts(algebra, u):
    return Element(algebra, u.real), Element(algebra, u.imag)


def _complex_norm(algebra, u, p):
    re, im = _parts(algebra, u)
    return p_norm(re, p) + p_norm(im, p)


def _pairing(u, v):
    # the inner product of the complexification; three_lines_demo pairs its
    # families bilinearly, sum u v = _pairing(u, conj(v)), and conj keeps
    # ||v||_p, so the Hoelder bounds below hold for that pairing too
    return complex(np.einsum("k,k->", u, np.conj(v)))


class TestComplexLayer:
    """The complexified algebra as three_lines_demo holds it: complex chart
    rows u = a + ib with Elements a and b as parts, the norm
    ||a||_p + ||b||_p, and the inner product <u, v> = sum u conj(v), the
    sesquilinear extension of the trace inner product."""

    @staticmethod
    def _frame_row(algebra, seed):
        # a complex row over one Jordan frame, as the family builds it
        a = random_element(algebra, seed)
        lam, frame = elements._sorted_spectrum(a)
        assert np.allclose(lam @ frame, a.coords, atol=1e-12)
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(algebra.rank) + 1j * rng.standard_normal(algebra.rank)
        return w, w @ frame

    def test_combine_and_parts(self, algebra):
        w, u = self._frame_row(algebra, 1)
        re, im = _parts(algebra, u)
        assert np.allclose(eigenvalues(re), np.sort(w.real)[::-1], atol=1e-10)
        assert np.allclose(eigenvalues(im), np.sort(w.imag)[::-1], atol=1e-10)

    def test_norm_is_sum_of_part_norms(self, algebra):
        w, u = self._frame_row(algebra, 3)
        for p in (1, 2, math.inf):
            want = np.linalg.norm(w.real, p) + np.linalg.norm(w.imag, p)
            assert _complex_norm(algebra, u, p) == pytest.approx(want, rel=1e-10)

    def test_norm_invariant_under_i(self, algebra):
        # multiplying by i swaps the parts up to sign, so the norm cannot change
        u = random_element(algebra, 5).coords + 1j * random_element(algebra, 6).coords
        assert _complex_norm(algebra, 1j * u, 2) == pytest.approx(_complex_norm(algebra, u, 2), rel=1e-13)

    def test_inner_matches_hand_formula(self, algebra):
        a, b = random_element(algebra, 7), random_element(algebra, 8)
        c, d = random_element(algebra, 9), random_element(algebra, 10)
        u, v = a.coords + 1j * b.coords, c.coords + 1j * d.coords
        want = complex(
            inner_product(a, c) + inner_product(b, d),
            inner_product(b, c) - inner_product(a, d),
        )
        assert _pairing(u, v) == pytest.approx(want, rel=1e-12)
        # conjugate symmetry and reduction to the real inner product
        assert _pairing(v, u) == pytest.approx(want.conjugate(), rel=1e-12)
        assert _pairing(a.coords, c.coords) == pytest.approx(inner_product(a, c), rel=1e-12)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0, math.inf])
    def test_holder_pairing_complexified(self, algebra, p):
        # |<u, v>| <= ||u||_p ||v||_q over random draws
        q = conjugate(p)
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            v = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
            lhs = abs(_pairing(u, v))
            rhs = _complex_norm(algebra, u, p) * _complex_norm(algebra, v, q)
            assert lhs <= rhs * (1.0 + 1e-9)


class TestFamilyWeights:
    """The transport the three-lines family applies to a and b:
    sum_j eps_j |lam_j|^z e_j over a's sorted Jordan frame, with
    |lam_j|^z from _family_weights. At a real exponent it is a spectral
    power of a; on the lines Re z = 0 and Re z = 1 its weights have the
    moduli 1 and |lam_j|."""

    @staticmethod
    def _power(a, expo):
        lam, frame = elements._sorted_spectrum(a)
        w = interpolation._family_weights(lam, np.asarray(expo, dtype=complex).reshape(-1))
        return lam, frame, w

    def test_exponent_two_is_jordan_square(self, algebra):
        a = random_element(algebra, 31)
        _, frame, w = self._power(a, 2.0)
        u = w[0] @ frame
        assert np.allclose(u.imag, 0.0, atol=1e-12)
        assert np.allclose(u.real, jordan_product(a, a).coords, atol=1e-9)

    def test_exponent_one_gives_abs_and_signs_give_back_a(self, algebra):
        a = random_element(algebra, 37)
        lam, frame, w = self._power(a, 1.0)
        got = eigenvalues(Element(algebra, (w[0] @ frame).real))
        assert np.allclose(got, np.sort(np.abs(lam))[::-1], atol=1e-10)
        eps = np.where(lam >= 0, 1.0, -1.0)
        assert np.allclose((eps * w[0]) @ frame, a.coords, atol=1e-10)

    def test_boundary_line_moduli(self, algebra):
        a = random_element(algebra, 41)
        im = np.linspace(-10.0, 10.0, 9)
        lam, _, w0 = self._power(a, 1j * im)
        _, _, w1 = self._power(a, 1.0 + 1j * im)
        assert w0.shape == w1.shape == (im.size, algebra.rank)
        assert np.allclose(np.abs(w0), 1.0, rtol=1e-12)
        assert np.allclose(np.abs(w1), np.abs(lam)[None, :], rtol=1e-12)


class TestConstants:
    def test_endpoint_factor(self):
        pair = ExponentPair.of(2, 4, 2, 4)
        assert pair.endpoint_factor(0) == pytest.approx(2.0, rel=1e-12)
        want = cp_constant(4) * cp_constant(conjugate(4))
        assert pair.endpoint_factor(1) == pytest.approx(want, rel=1e-12)

    def test_theorem2_constant_all_twos(self):
        assert theorem2_constant(ExponentPair.of(2, 2, 2, 2)) == pytest.approx(2.0, rel=1e-12)

    def test_theorem2_constant_corner(self):
        # endpoints (inf, inf) and (1, 2): max{c_inf c_1, c_1 c_2} = 2 sqrt(2)
        pair = ExponentPair.of("inf", 1, "inf", 2)
        assert theorem2_constant(pair) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)

    def test_theorem2_constant_range(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            vals = 1.0 / rng.uniform(0.0, 1.0, size=4)
            pair = ExponentPair.of(*vals)
            c = theorem2_constant(pair)
            assert 2.0 - 1e-12 <= c <= 4.0 + 1e-12
            ct = theorem2_constant_theta(pair, rng.uniform(0, 1))
            assert 1.0 - 1e-12 <= ct <= c + 1e-12

    def test_theta_constant_at_endpoints(self):
        pair = ExponentPair.of(1, 3, 2, 4)
        assert theorem2_constant_theta(pair, 0.0) == pytest.approx(
            pair.endpoint_factor(0), rel=1e-12
        )

    def test_interpolated_pair(self):
        pair = ExponentPair.of(1, "inf", 2, 4)
        rt, st = pair.at(0.5)
        assert rt.value == pytest.approx(2.0)
        assert st.value == pytest.approx(8.0 / 3.0)


class TestBoundReports:
    def test_json_round_trip(self):
        rep = check_theorem1(random_map(SYM3, 18), 1.5, 3, 0.4, CFG)
        again = BoundReport.from_json(rep.to_json())
        assert again == rep

    def test_from_json_rejects_missing_keys(self):
        rep = check_theorem1(random_map(SYM3, 18), 1.5, 3, 0.4, CFG).to_json()
        rep.pop("margin")
        with pytest.raises(ReportError, match="missing bound report fields: \\['margin'\\]"):
            BoundReport.from_json(rep)

    def test_from_json_rejects_unknown_keys(self):
        rep = check_theorem1(random_map(SYM3, 18), 1.5, 3, 0.4, CFG).to_json()
        rep["margn"] = rep["margin"]
        with pytest.raises(ReportError, match="unknown bound report fields: \\['margn'\\]"):
            BoundReport.from_json(rep)

    def test_report_fields(self):
        t = random_map(SYM3, 19)
        rep = check_theorem1(t, 1, 4, 0.25, CFG)
        assert rep.theorem == "theorem1"
        assert rep.algebra == "sym:3"
        assert rep.constant == 1.0
        assert rep.margin == pytest.approx(rep.rhs - rep.lhs_lower, abs=1e-15)
        assert rep.exponents["r_theta"] == rep.exponents["s_theta"]
        assert rep.seeds["estimator"] == CFG.seed


class TestTheoremChecks:
    def test_theorem1_no_violations_random_maps(self):
        for seed in range(5):
            t = random_map(SYM3, 20 + seed)
            rep = check_theorem1(t, 1.25, 4, 0.3, CFG)
            assert not rep.violated
            assert rep.margin >= -1e-8 * rep.rhs

    def test_theorem1_degenerate_theta_exact(self):
        t = random_map(SYM3, 26)
        for theta in (0.0, 1.0):
            rep = check_theorem1(t, 1.5, 3, theta, CFG)
            assert rep.margin == 0.0
            assert rep.seeds["rerun"] is None

    def test_violation_triggers_one_wider_rerun(self, monkeypatch):
        # at theta = 0 the left side and the one endpoint norm are the same
        # estimate, so constant 0.5 fails by half the norm on both passes
        calls = []

        def spy(problems):
            ests = estimate_many(problems)
            calls.append(([cfg for *_, cfg in problems], [est.lower_bound for est in ests]))
            return ests

        monkeypatch.setattr(interpolation, "estimate_many", spy)
        a, b = ExtExponent(1.5), ExtExponent(3.0)
        t = random_map(SYM3, 29)
        case = interpolation.BoundCase("theorem1", (a, a), (a, a), (b, b), 0.0, 0.5)
        rep = interpolation._interp_report(t, case, CFG)
        assert rep.seeds == {"estimator": CFG.seed, "rerun": CFG.seed + 101}
        assert len(calls) == 2
        assert all(cfg == CFG for cfg in calls[0][0])
        assert all(cfg.restarts == 4 * CFG.restarts and cfg.seed == CFG.seed + 101 for cfg in calls[1][0])
        assert rep.lhs_lower == max(calls[0][1][0], calls[1][1][0])
        assert rep.violated

    def test_theorem1_takes_first_pass_from_caller(self, monkeypatch):
        t = random_map(SYM3, 31)
        p0, p1, theta = ExtExponent(1.5), ExtExponent(4.0), 0.3
        pt = interpolate(p0, p1, theta)
        first = [est.lower_bound for est in estimate_many([(t, p, p, CFG) for p in (pt, p0, p1)])]
        want = check_theorem1(t, p0, p1, theta, CFG)
        calls = []
        monkeypatch.setattr(interpolation, "estimate_many", lambda problems: calls.append(problems))
        assert check_theorem1(t, p0, p1, theta, CFG, first=first) == want
        assert calls == [] and not want.seeds["rerun"]

    @pytest.mark.parametrize("check,case,x,y", [
        (check_theorem2, interpolation.theorem2_case, ExponentPair.of(1, 3, 2, "inf"), 0.45),
        (check_corollary4, interpolation.corollary4_case, 4, 2),
    ], ids=["theorem2", "corollary4"])
    @pytest.mark.parametrize("flag", [False, True])
    def test_checks_take_first_pass_from_caller(self, monkeypatch, check, case, x, y, flag):
        # the first pass estimates the case's norms, in BoundCase.norms order
        t = random_map(SYM3, 32)
        first = [est.lower_bound for est in estimate_many([(t, r, s, CFG) for r, s in case(x, y, flag).norms])]
        want = check(t, x, y, CFG, flag)
        calls = []
        monkeypatch.setattr(interpolation, "estimate_many", lambda problems: calls.append(problems))
        assert check(t, x, y, CFG, flag, first=first) == want
        assert calls == [] and not want.seeds["rerun"]

    def test_theorem1_equal_exponents_exact(self):
        rep = check_theorem1(random_map(SYM3, 27), 2.5, 2.5, 0.37, CFG)
        assert rep.margin == 0.0

    def test_theorem1_equal_exponents_exact_over_seeds(self):
        # m^(1-theta) m^theta rounds away from m for about a quarter of
        # these maps; equal endpoint norms must still cancel exactly
        for seed in range(40):
            rep = check_theorem1(random_map(SYM3, seed), 2.5, 2.5, 0.37, CFG)
            assert rep.margin == 0.0, seed

    def test_theorem2_no_violations(self):
        pair = ExponentPair.of(1, 3, 2, "inf")
        for seed in range(5):
            rep = check_theorem2(random_map(SYM3, 28 + seed), pair, 0.45, CFG)
            assert not rep.violated
            assert rep.constant == pytest.approx(theorem2_constant(pair), rel=1e-14)
            assert math.isfinite(rep.rhs) and rep.rhs > 0.0

    def test_theorem2_theta_variant_name_and_constant(self):
        pair = ExponentPair.of(1, 3, 2, "inf")
        rep = check_theorem2(random_map(SYM3, 33), pair, 0.45, CFG, theta_constant=True)
        assert rep.theorem == "theorem2-theta"
        assert rep.constant == pytest.approx(theorem2_constant_theta(pair, 0.45), rel=1e-14)
        assert rep.constant <= theorem2_constant(pair) + 1e-12

    def test_theorem2_degenerate_pair_nonnegative_margin(self):
        pair = ExponentPair.of(2, 2, 3, 3)
        rep = check_theorem2(random_map(SYM3, 34), pair, 0.5, CFG)
        # constant >= 1 with both endpoints equal: rhs = C * lhs, margin >= 0
        assert rep.margin >= 0.0

    def test_corollary4_exponent_wiring(self):
        t = random_map(SYM3, 35)
        rep = check_corollary4(t, 1.5, 3, CFG)
        assert rep.theorem == "corollary4"
        assert rep.theta == pytest.approx(1.0 / 1.5)
        assert rep.exponents["r0"] == "inf" and rep.exponents["s0"] == "inf"
        assert rep.exponents["r1"] == 1.0
        assert rep.exponents["s1"] == pytest.approx(2.0)
        assert rep.constant == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
        assert not rep.violated

    def test_corollary4_r_greater_than_s(self):
        rep = check_corollary4(random_map(SYM3, 36), 4, 2, CFG)
        assert rep.theta == pytest.approx(0.5)
        assert rep.exponents["r1"] == pytest.approx(2.0)
        assert rep.exponents["s1"] == 1.0
        assert not rep.violated

    def test_corollary4_improved_constant(self):
        rep = check_corollary4(random_map(SYM3, 37), 1.5, 3, CFG, improved=True)
        assert rep.theorem == "corollary4-improved"
        theta = 1.0 / 1.5
        want = (2.0 * math.sqrt(2.0)) ** max(theta, 1.0 - theta)
        assert rep.constant == pytest.approx(want, rel=1e-14)

    def test_corollary4_rejects_equal_exponents(self):
        with pytest.raises(UnsupportedCaseError):
            check_corollary4(random_map(SYM3, 38), 2, 2, CFG)

    def test_structured_map_checks(self):
        # lyapunov maps have known norms; the bounds must still hold
        a = random_element(SYM3, 39)
        t = lyapunov(a)
        assert not check_theorem1(t, 1, "inf", 0.5, CFG).violated
        assert not check_theorem2(t, ExponentPair.of(2, 4, 2, 4), 0.25, CFG).violated
        assert not check_corollary4(t, 2, 4, CFG).violated


class TestThreeLines:
    def _instance(self, seed=40):
        spec_a = np.linspace(1.0, 2.0, SYM3.rank)
        spec_b = np.linspace(-2.0, -0.5, SYM3.rank)
        a = random_element(SYM3, seed, spectrum=spec_a)
        b = random_element(SYM3, seed + 1, spectrum=spec_b)
        t = random_map(SYM3, seed + 2)
        return t, a, b

    def test_pairing_identity_exact(self):
        t, a, b = self._instance()
        rep = three_lines_demo(t, a, b, ExponentPair.of(1, 4, 2, 4), 0.5, grid_points=101)
        assert rep.pairing_error <= 1e-12 * max(1.0, abs(rep.pairing))
        assert abs(rep.phi_theta.imag) <= 1e-12

    def test_geometric_bound_holds(self):
        t, a, b = self._instance(43)
        for theta in (0.25, 0.5, 0.75):
            rep = three_lines_demo(t, a, b, ExponentPair.of(1, 3, 1.5, "inf"), theta)
            assert rep.geometric_slack >= -1e-6 * max(rep.geometric_bound, 1e-30)

    def test_normalization_applied(self):
        t, a, b = self._instance(46)
        big_a = Element(SYM3, a.coords * 50.0)
        rep1 = three_lines_demo(t, a, b, ExponentPair.of(1, 4, 2, 4), 0.5, grid_points=51)
        rep2 = three_lines_demo(t, big_a, b, ExponentPair.of(1, 4, 2, 4), 0.5, grid_points=51)
        assert rep1.pairing == pytest.approx(rep2.pairing, rel=1e-12)

    def test_grid_shapes(self):
        t, a, b = self._instance(49)
        rep = three_lines_demo(t, a, b, ExponentPair.of(1, 4, 2, 4), 0.5, grid_points=75)
        assert rep.grid_im.shape == (75,)
        assert rep.abs_line0.shape == (75,)
        assert rep.abs_line1.shape == (75,)

    def test_degenerate_constant_r_family(self):
        # r0 = r1 = inf: the a-side family is constant
        t, a, b = self._instance(52)
        rep = three_lines_demo(t, a, b, ExponentPair.of("inf", "inf", 2, 4), 0.5)
        assert rep.pairing_error <= 1e-12 * max(1.0, abs(rep.pairing))
        assert rep.geometric_slack >= -1e-6 * max(rep.geometric_bound, 1e-30)

    def test_degenerate_constant_s_family(self):
        # s0 = s1 = 1: the b-side family is constant
        t, a, b = self._instance(55)
        rep = three_lines_demo(t, a, b, ExponentPair.of(1, 4, 1, 1), 0.5)
        assert rep.pairing_error <= 1e-12 * max(1.0, abs(rep.pairing))
        assert rep.geometric_slack >= -1e-6 * max(rep.geometric_bound, 1e-30)

    def test_line_caps_hold(self):
        # the suite's caps: c_{r_j} c_{s_j'} times the estimated ||T||_{r_j -> s_j}
        t, a, b = self._instance(58)
        pair = ExponentPair.of(1, 4, 2, 4)
        rep = three_lines_demo(t, a, b, pair, 0.5)
        est0, est1 = estimate_many([(t, pair.r0, pair.s0, CFG), (t, pair.r1, pair.s1, CFG)])
        assert rep.sup_line0 <= pair.endpoint_factor(0) * est0.lower_bound * (1.0 + 1e-6)
        assert rep.sup_line1 <= pair.endpoint_factor(1) * est1.lower_bound * (1.0 + 1e-6)

    @pytest.mark.parametrize(
        "pair,theta",
        [((1, 4, 2, 4), 0.5), ((1, 3, 1.5, "inf"), 0.3), (("inf", "inf", 2, 4), 0.6), ((1, 4, 1, 1), 0.45)],
    )
    def test_frames_as_arrays_match_decomposition_frames(self, algebra, pair, theta):
        # reference: each family built from spectral_decomposition's frame
        # Elements of the operand, its eigenvalues divided by their p-norm,
        # the b side at the conjugate exponents, paired bilinearly; the demo
        # must match it bit for bit
        pair = ExponentPair.of(*pair)
        rt, st = pair.at(theta)
        grid_points = 41
        im = np.linspace(-10.0, 10.0, grid_points)
        z = np.concatenate([1j * im, 1.0 + 1j * im, [complex(theta)]])

        def family(v, p0, p1, p):
            d = spectral_decomposition(v)
            lam, frame = np.asarray(d.eigenvalues), np.stack([f.coords for f in d.frame])
            lam = lam / vector_pnorm(lam, p)
            if p.is_inf:  # constant family
                w = np.tile(np.abs(lam), (z.size, 1))
            else:
                expo = ((1 - z) * p0.inv + z * p1.inv) / p.inv
                w = np.exp(np.log(np.abs(lam))[None, :] * expo[:, None])
            return (np.where(lam >= 0, 1.0, -1.0) * w) @ frame

        t = random_map(algebra, 70)
        spectrum = np.linspace(0.5, 2.0, algebra.rank) * np.resize([1.0, -1.0], algebra.rank)
        # the unit has one eigenvalue, so the frame order rests on the stable sort
        for a, b in ((random_element(algebra, 71, spectrum), random_element(algebra, 72)),
                     (unit(algebra), random_element(algebra, 73, spectrum))):
            rep = three_lines_demo(t, a, b, pair, theta, grid_points=grid_points)
            fa = family(a, pair.r0, pair.r1, rt)
            fb = family(b, pair.s0.conjugate, pair.s1.conjugate, st.conjugate)
            phi = np.einsum("gk,gk->g", fa @ t.matrix.T, fb)
            assert rep.phi_theta == complex(phi[-1])
            line0, line1 = np.abs(phi[:grid_points]), np.abs(phi[grid_points:-1])
            assert np.array_equal(rep.abs_line0, line0) and np.array_equal(rep.abs_line1, line1)
            assert (rep.sup_line0, rep.sup_line1) == (line0.max(), line1.max())

    def test_one_decomposition_per_operand(self, algebra, kernel_calls):
        # the family, the norms and the invertibility test all read one
        # decomposition of a and one of b
        t = random_map(algebra, 74)
        a, b = (random_element(algebra, seed, np.linspace(1.0, 2.0, algebra.rank)) for seed in (75, 76))
        three_lines_demo(t, a, b, ExponentPair.of(1, 4, 2, 4), 0.5, grid_points=11)
        assert (kernel_calls["decomp"], kernel_calls["eigenvalues"]) == (2, 0)

    def test_hirschman_inequality_on_the_lines(self):
        # log|phi(theta)| <= int P0 log|phi(it)| + int P1 log|phi(1+it)|
        # with the Poisson kernels of the strip: the sharp three-lines
        # theorem, which holds only when phi is analytic
        rng = np.random.default_rng(1)
        t, a, b = random_map(SYM3, rng), random_element(SYM3, rng), random_element(SYM3, rng)
        exps = (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf)
        pair = ExponentPair.of(*(exps[int(rng.integers(len(exps)))] for _ in range(4)))
        theta = float(rng.uniform(0.05, 0.95))
        rep = three_lines_demo(t, a, b, pair, theta, grid_points=4001)
        sin, cos, cosh = math.sin(math.pi * theta), math.cos(math.pi * theta), np.cosh(math.pi * rep.grid_im)
        mean = (np.trapezoid(sin / (2 * (cosh - cos)) * np.log(rep.abs_line0), rep.grid_im)
                + np.trapezoid(sin / (2 * (cosh + cos)) * np.log(rep.abs_line1), rep.grid_im))
        assert math.log(abs(rep.phi_theta)) <= mean + 1e-6

    def test_rejects_noninvertible(self):
        t, a, b = self._instance(61)
        singular = random_element(SYM3, 62, spectrum=[1.0, 0.5, 0.0])
        with pytest.raises(DegenerateInputError):
            three_lines_demo(t, singular, b, ExponentPair.of(1, 4, 2, 4), 0.5)

    def test_rejects_zero_element(self):
        from jspec import zero

        t, a, b = self._instance(63)
        with pytest.raises(DegenerateInputError):
            three_lines_demo(t, zero(SYM3), b, ExponentPair.of(1, 4, 2, 4), 0.5)

    def test_rejects_operands_of_another_algebra(self):
        # sym:2 and spin:3 both have dim 3, so the chart arrays would pair
        spin3 = parse_algebra("spin:3")
        t = random_map(parse_algebra("sym:2"), 65)
        a, b = random_element(spin3, 66, [2.0, 1.0]), random_element(spin3, 67, [-1.0, -2.0])
        with pytest.raises(AlgebraMismatchError):
            three_lines_demo(t, a, b, ExponentPair.of(1, 4, 2, 4), 0.5)

    def test_rejects_bad_theta(self):
        t, a, b = self._instance(64)
        with pytest.raises(ValueError):
            three_lines_demo(t, a, b, ExponentPair.of(1, 4, 2, 4), 1.5)
