"""Extended exponents, Hoelder conjugation, interpolation, p-norm kernel."""

import math

import numpy as np
import pytest

from jspec import ExtExponent, conjugate, cp_constant, interpolate, vector_pnorm


class TestCoerce:
    def test_from_int_float_str(self):
        assert ExtExponent.coerce(2).value == 2.0
        assert ExtExponent.coerce(1.5).value == 1.5
        assert ExtExponent.coerce("inf").is_inf
        assert ExtExponent.coerce("4/3").value == pytest.approx(4.0 / 3.0, abs=0)
        assert ExtExponent.coerce("2").value == 2.0

    def test_idempotent_on_instances(self):
        p = ExtExponent.coerce(3)
        assert ExtExponent.coerce(p) is p

    def test_infinity_spellings(self):
        for s in ("inf", "Inf", "INF", "infinity", "oo"):
            assert ExtExponent.coerce(s).is_inf
        assert ExtExponent.coerce(math.inf).is_inf

    @pytest.mark.parametrize("bad", [0, 0.5, -1, "garbage", "0/3", "1/0", "3/0", float("nan")])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            ExtExponent.coerce(bad)

    @pytest.mark.parametrize("bad", [True, False, np.True_, np.False_])
    def test_rejects_bools(self, bad):
        with pytest.raises(TypeError):
            ExtExponent.coerce(bad)
        with pytest.raises(TypeError):
            ExtExponent(bad)

    def test_ordering(self):
        grid = [ExtExponent.coerce(v) for v in (1, 1.5, 2, 4, "inf")]
        assert grid == sorted(grid)
        assert ExtExponent.coerce(2) == ExtExponent.coerce(2.0)


class TestConjugate:
    @pytest.mark.parametrize(
        "p,q",
        [(1.0, math.inf), (math.inf, 1.0), (2.0, 2.0), (4.0, 4.0 / 3.0), (1.25, 5.0)],
    )
    def test_known_pairs(self, p, q):
        got = conjugate(p)
        if math.isinf(q):
            assert got.is_inf
        else:
            assert got.value == pytest.approx(q, rel=1e-15)

    @pytest.mark.parametrize("p", [1, 2, math.inf])
    def test_involution_exact_on_special_values(self, p):
        p = ExtExponent.coerce(p)
        assert p.conjugate.conjugate == p

    @pytest.mark.parametrize("p", [1.1, 4 / 3, 3, 7.5])
    def test_involution_to_rounding(self, p):
        p = ExtExponent.coerce(p)
        assert p.conjugate.conjugate.value == pytest.approx(p.value, rel=1e-14)

    @pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
    def test_inverse_sum_is_one(self, p):
        p = ExtExponent.coerce(p)
        assert p.inv + p.conjugate.inv == pytest.approx(1.0, abs=1e-15)


class TestInterpolate:
    def test_endpoints_exact_objects(self):
        p0, p1 = ExtExponent.coerce(1.37), ExtExponent.coerce(5.2)
        assert interpolate(p0, p1, 0.0) is p0
        assert interpolate(p0, p1, 1.0) is p1

    def test_equal_endpoints_exact(self):
        p = ExtExponent.coerce(2.7)
        assert interpolate(p, p, 0.4321) is p

    def test_harmonic_rule(self):
        # 1/p_theta = (1 - theta)/p0 + theta/p1
        p = interpolate(2, 4, 0.5)
        assert p.value == pytest.approx(1.0 / (0.5 / 2 + 0.5 / 4), rel=1e-15)

    def test_with_infinite_endpoint(self):
        p = interpolate(2, "inf", 0.5)
        assert p.value == pytest.approx(4.0, rel=1e-15)
        assert interpolate("inf", "inf", 0.3).is_inf

    def test_near_one_stays_in_range(self):
        p = interpolate(1, 1.25, 0.03)
        assert 1.0 < p.value < 1.25

    @pytest.mark.parametrize("theta", [-0.1, 1.1])
    def test_rejects_theta_outside_unit_interval(self, theta):
        with pytest.raises(ValueError):
            interpolate(1, 2, theta)


class TestVectorPnorm:
    @pytest.mark.parametrize("p", [1.0, 2.0, 3.7, math.inf])
    def test_matches_numpy_reference(self, p, rng):
        x = rng.standard_normal((40, 7)) * 10.0
        got = vector_pnorm(x, p)
        want = np.linalg.norm(x, ord=(np.inf if math.isinf(p) else p), axis=-1)
        assert np.allclose(got, want, rtol=1e-13)

    def test_scale_invariance_huge_entries(self):
        # powers are taken on ratios <= 1, so big inputs cannot overflow
        x = np.array([[1e300, 5e299, 0.0]])
        with np.errstate(over="raise"):
            got = vector_pnorm(x, 8.0)
        want = 1e300 * (1.0 + 0.5**8) ** (1.0 / 8.0)
        assert got[0] == pytest.approx(want, rel=1e-13)

    def test_extreme_conjugate_exponent(self):
        q = conjugate(interpolate(1, 1.25, 0.03))
        assert q.value > 100.0
        x = np.array([[3.0, 70.0, 1.0]])
        with np.errstate(over="raise"):
            got = vector_pnorm(x, q)
        assert 70.0 <= got[0] <= 70.0 * 3.0 ** (1.0 / q.value) * 1.0001

    def test_zero_vector(self):
        assert vector_pnorm(np.zeros((2, 3)), 2.0).tolist() == [0.0, 0.0]

    def test_single_row_vector(self):
        assert vector_pnorm(np.array([3.0, -4.0]), 2.0) == pytest.approx(5.0)


class TestCpConstant:
    @pytest.mark.parametrize(
        "p,want",
        [
            (1.0, math.sqrt(2.0)),
            (1.5, math.sqrt(2.0)),
            (2.0, math.sqrt(2.0)),
            (4.0, 2.0 ** (3.0 / 4.0)),
            (8.0, 2.0 ** (7.0 / 8.0)),
            (math.inf, 2.0),
        ],
    )
    def test_values(self, p, want):
        assert cp_constant(p) == pytest.approx(want, rel=1e-15)

    def test_continuity_at_two(self):
        # both branches meet at sqrt(2)
        assert cp_constant(2.0 - 1e-12) == pytest.approx(cp_constant(2.0 + 1e-12), rel=1e-9)

    def test_range(self):
        for p in (1, 1.2, 2, 3, 10, math.inf):
            assert math.sqrt(2.0) <= cp_constant(p) <= 2.0
