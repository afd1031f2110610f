"""Extremal split constants: the coordinate-ascent search and the
two-point / aggregate inequality fuzzers."""

import math
import tracemalloc

import numpy as np
import pytest

from jspec import (
    CpProblem,
    InequalityResult,
    aggregate_split_check,
    clarkson_check,
    cp_bruteforce,
    cp_constant,
    refined_clarkson_check,
)


class TestProblem:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpProblem(1, 2)
        with pytest.raises(ValueError):
            CpProblem(2, 0.5)

    def test_axis_witness_for_large_p(self):
        # x = 2^(-1/p) e1, y = 2^(-1/p) e2 is feasible and attains 2^(1/q)
        p = 4.0
        prob = CpProblem(2, p)
        c = 2.0 ** (-1.0 / p)
        x, y = np.array([c, 0.0]), np.array([0.0, c])
        assert prob.constraint(x, y) == pytest.approx(1.0, abs=1e-12)
        assert prob.objective(x, y) == pytest.approx(cp_constant(p), rel=1e-12)

    def test_diagonal_witness_for_small_p(self):
        # x = y = n^(-1/p) 2^(-1/2) (1, ..., 1) is feasible and attains sqrt(2)
        p, n = 1.5, 3
        prob = CpProblem(n, p)
        c = n ** (-1.0 / p) * 2.0 ** (-0.5)
        x = np.full(n, c)
        assert prob.constraint(x, x) == pytest.approx(1.0, abs=1e-12)
        assert prob.objective(x, x) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_axis_witness_at_infinity(self):
        prob = CpProblem(2, "inf")
        x, y = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        assert prob.constraint(x, y) == pytest.approx(1.0, abs=1e-15)
        assert prob.objective(x, y) == pytest.approx(2.0, abs=1e-15)


class TestSearch:
    @pytest.mark.parametrize("p,n", [(1.0, 2), (2.0, 3), (4.0, 2), (math.inf, 2)])
    def test_recovers_closed_form(self, p, n):
        res = cp_bruteforce(CpProblem(n, p), starts=40, seed=0)
        assert res.value == pytest.approx(cp_constant(p), rel=1e-6)

    def test_never_exceeds_closed_form(self):
        for p in (1.0, 1.5, 2.0, 3.0, math.inf):
            res = cp_bruteforce(CpProblem(3, p), starts=25, seed=1)
            assert res.value <= cp_constant(p) * (1.0 + 1e-9)

    def test_witness_feasible(self):
        prob = CpProblem(2, 3)
        res = cp_bruteforce(prob, starts=25, seed=2)
        assert prob.constraint(res.x, res.y) == pytest.approx(1.0, abs=1e-12)
        assert prob.objective(res.x, res.y) == pytest.approx(res.value, rel=1e-12)

    def test_deterministic(self):
        a = cp_bruteforce(CpProblem(2, 1.5), starts=10, seed=3)
        b = cp_bruteforce(CpProblem(2, 1.5), starts=10, seed=3)
        assert a.value == b.value
        assert np.array_equal(a.x, b.x)

    @pytest.mark.parametrize("starts", [0, -1])
    def test_rejects_fewer_than_one_start(self, starts):
        with pytest.raises(ValueError, match="need starts >= 1"):
            cp_bruteforce(CpProblem(2, 1.5), starts=starts)

    def test_single_start_can_stall_below_optimum(self):
        # the deterministic honest-failure fixture used by the report tests
        from jspec.suites import derive_seed

        res = cp_bruteforce(CpProblem(4, "inf"), starts=1, seed=derive_seed(1, 13, 0))
        assert res.value < 2.0 - 1e-3


class TestTwoPointInequalities:
    @staticmethod
    def _plain_violation(z, w, p):
        lhs = 2.0 * (abs(z) ** p + abs(w) ** p)
        rhs = abs(z + w) ** p + abs(z - w) ** p
        return lhs - rhs

    @staticmethod
    def _refined_violation(z, w, p):
        lhs = 2.0 ** (p - 1.0) * (abs(z) ** p + abs(w) ** p)
        lhs += (2.0 - 2.0 ** (p / 2.0)) * min(abs(z + w) ** p, abs(z - w) ** p)
        rhs = abs(z + w) ** p + abs(z - w) ** p
        return lhs - rhs

    def test_plain_hand_values(self):
        # p = 2 is the parallelogram identity
        for z, w in ((1.0, 1.0), (2.0 + 1j, -0.5j), (3.0, 0.0)):
            assert abs(self._plain_violation(z, w, 2.0)) <= 1e-12 * max(1.0, abs(z) + abs(w)) ** 2
        # p = 4, z = 1, w = i: 4 <= 8 with slack
        assert self._plain_violation(1.0, 1.0j, 4.0) == pytest.approx(-4.0)

    def test_refined_hand_equality(self):
        # p = 1, z = 1, w = i: both sides equal 2 sqrt(2)
        assert abs(self._refined_violation(1.0, 1.0j, 1.0)) <= 1e-12

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 8.0])
    def test_plain_fuzz(self, p):
        res = clarkson_check(p, trials=3000, seed=0)
        assert res.holds
        assert res.trials == 3000

    @pytest.mark.parametrize("p", [1.0, 1.25, 1.5, 2.0])
    def test_refined_fuzz(self, p):
        assert refined_clarkson_check(p, trials=3000, seed=0).holds

    def test_worst_pair_recorded(self):
        res = clarkson_check(3, trials=500, seed=4)
        assert set(res.worst) >= {"z", "w"}

    @pytest.mark.parametrize("check,p", [(clarkson_check, 3), (refined_clarkson_check, 1.5)])
    def test_peak_memory_does_not_grow_with_trials(self, check, p):
        # 2^14 and 2^17 trials span 4 and 32 default row blocks; a sample
        # kept whole would add about 40 B per trial (4.5 MB here)
        def peak(trials):
            tracemalloc.start()
            try:
                check(p, trials=trials, seed=1)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2**14)
        assert peak(2**17) - peak(2**14) < 64 * 1024

    def test_range_validation(self):
        with pytest.raises(ValueError):
            clarkson_check(1.5)
        with pytest.raises(ValueError):
            clarkson_check(math.inf)
        with pytest.raises(ValueError):
            refined_clarkson_check(3)


class TestAggregate:
    @pytest.mark.parametrize("p,n", [(1.0, 2), (1.5, 3), (2.0, 2), (3.0, 4)])
    def test_fuzz_holds(self, p, n):
        assert aggregate_split_check(p, n, trials=2000, seed=0).holds

    def test_bound_tight_at_small_p_diagonal(self):
        # x = y hits the 2^(1-p/2) bound exactly for p <= 2
        p, n = 1.5, 2
        res = aggregate_split_check(p, n, trials=2000, seed=1)
        # violation is relative to the bound; diagonal rows are included in
        # the structured quarter, so the max should sit near 0 but not above
        assert -1e-3 <= res.max_violation <= 1e-12

    def test_rejects_infinite_p(self):
        with pytest.raises(ValueError):
            aggregate_split_check(math.inf, 2)


class TestResultRecord:
    def test_holds_threshold(self):
        good = InequalityResult("x", 2.0, 10, 5e-13, {})
        bad = InequalityResult("x", 2.0, 10, 2e-12, {})
        assert good.holds and not bad.holds
