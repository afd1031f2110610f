"""The three input rules, real_array, check_count and check_tol, at every
entry point that applies them."""

import math

import numpy as np
import pytest

from jspec import (
    CampaignConfig,
    CpProblem,
    Element,
    EstimatorConfig,
    ExponentPair,
    LinearMap,
    NonFiniteInputError,
    ReportError,
    aggregate_split_check,
    clarkson_check,
    congruence,
    cp_bruteforce,
    is_invertible,
    lyapunov,
    parse_algebra,
    random_element,
    reflection_mixture,
    refined_clarkson_check,
    three_lines_demo,
    unit,
)

SYM2 = parse_algebra("sym:2")  # dim 3, rank 2

# entry point taking one array argument, and a valid value of it
ARRAY_ENTRY_POINTS = {
    "Element.coords": (lambda x: Element(SYM2, x), np.arange(3.0)),
    "LinearMap.matrix": (lambda x: LinearMap(SYM2, x), np.eye(3)),
    "congruence": (lambda x: congruence(x, SYM2), np.eye(2)),
    "random_element.spectrum": (lambda x: random_element(SYM2, 1, spectrum=x), np.array([1.0, 2.0])),
    "reflection_mixture.weights": (lambda x: reflection_mixture([unit(SYM2)] * 2, x), np.ones(2)),
}


@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRY_POINTS))
class TestRealArray:
    def test_accepts_valid(self, entry):
        build, good = ARRAY_ENTRY_POINTS[entry]
        build(good)
        build(good.tolist())

    def test_rejects_complex(self, entry):
        # a float cast would drop the imaginary parts without a word
        build, good = ARRAY_ENTRY_POINTS[entry]
        with pytest.raises(TypeError, match="must be real"):
            build(good * (1 + 2j))

    def test_rejects_wrong_shape(self, entry):
        build, good = ARRAY_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match="must have shape"):
            build(good[:-1])

    def test_rejects_nan(self, entry):
        build, good = ARRAY_ENTRY_POINTS[entry]
        bad = good.copy()
        bad.flat[-1] = math.nan
        with pytest.raises(NonFiniteInputError, match="must be finite"):
            build(bad)


def test_stored_arrays_are_c_ordered_read_only_copies():
    a = random_element(SYM2, 3)
    # lyapunov builds its map from a transposed (Fortran-ordered) array;
    # the C-ordered copy keeps its later matmuls on one BLAS path
    m = lyapunov(a).matrix
    assert m.flags.c_contiguous and not m.flags.writeable
    src = np.asfortranarray(np.arange(9.0).reshape(3, 3))
    t = LinearMap(SYM2, src)
    src[0, 0] = 99.0
    assert t.matrix.flags.c_contiguous and t.matrix[0, 0] == 0.0


# entry point taking one count, the count's name and its minimum
COUNT_ENTRY_POINTS = {
    "EstimatorConfig.restarts": (lambda v: EstimatorConfig(restarts=v), "restarts", 1),
    "EstimatorConfig.max_iters": (lambda v: EstimatorConfig(max_iters=v), "max_iters", 1),
    "EstimatorConfig.seed": (lambda v: EstimatorConfig(seed=v), "seed", 0),
    "CpProblem.n": (lambda v: CpProblem(v, 2), "n", 2),
    "cp_bruteforce.starts": (lambda v: cp_bruteforce(CpProblem(2, 2), starts=v), "starts", 1),
    "clarkson_check.trials": (lambda v: clarkson_check(3, trials=v), "trials", 1),
    "refined_clarkson_check.trials": (lambda v: refined_clarkson_check(1.5, trials=v), "trials", 1),
    "aggregate_split_check.trials": (lambda v: aggregate_split_check(2, 2, trials=v), "trials", 1),
    "aggregate_split_check.n": (lambda v: aggregate_split_check(2, v, trials=10), "n", 1),
    "three_lines_demo.grid_points": (lambda v: three_lines_demo(
        LinearMap(SYM2, np.eye(3)), unit(SYM2), unit(SYM2), ExponentPair.of(1, 4, 2, 4), 0.5, grid_points=v),
        "grid_points", 1),
}


@pytest.mark.parametrize("entry", sorted(COUNT_ENTRY_POINTS))
class TestCheckCount:
    def test_rejects_non_integers(self, entry):
        call, name, low = COUNT_ENTRY_POINTS[entry]
        for value in (True, float(low + 1), str(low + 1)):
            with pytest.raises(TypeError, match=f"{name} must be an integer"):
                call(value)

    def test_rejects_below_minimum(self, entry):
        call, name, low = COUNT_ENTRY_POINTS[entry]
        with pytest.raises(ValueError, match=f"^{name} must be >= {low}, got {low - 1}$"):
            call(low - 1)

    def test_accepts_numpy_integer_at_minimum(self, entry):
        call, _, low = COUNT_ENTRY_POINTS[entry]
        call(np.int64(max(low, 2)))


# the entry points whose count sizes an array: at most NumPy's largest dimension
SIZE_ENTRY_POINTS = ("EstimatorConfig.restarts", "CpProblem.n", "cp_bruteforce.starts",
                     "aggregate_split_check.n", "three_lines_demo.grid_points")


@pytest.mark.parametrize("entry", SIZE_ENTRY_POINTS)
def test_array_sizes_reject_past_numpy_dimension(entry):
    call, name, _ = COUNT_ENTRY_POINTS[entry]
    high = np.iinfo(np.intp).max
    with pytest.raises(ValueError, match=f"^{name} must be <= {high}, got {high + 1}$"):
        call(high + 1)


# entry point taking one tolerance
TOL_ENTRY_POINTS = {
    "EstimatorConfig.tol": lambda v: EstimatorConfig(tol=v),
    "is_invertible.tol": lambda v: is_invertible(unit(SYM2), tol=v),
}


@pytest.mark.parametrize("entry", sorted(TOL_ENTRY_POINTS))
class TestCheckTol:
    def test_rejects_bools(self, entry):
        for value in (True, np.False_):  # not the numbers 1.0 and 0.0
            with pytest.raises(TypeError, match="tol must be a real number"):
                TOL_ENTRY_POINTS[entry](value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, entry, value):
        # an infinite tol once made is_invertible return False without a word
        with pytest.raises(NonFiniteInputError, match="tol must be finite"):
            TOL_ENTRY_POINTS[entry](value)

    def test_rejects_negative(self, entry):
        with pytest.raises(ValueError, match="^tol must be >= 0, got -1e-09$"):
            TOL_ENTRY_POINTS[entry](-1e-9)

    def test_accepts_zero_and_numpy_floats(self, entry):
        TOL_ENTRY_POINTS[entry](0)
        TOL_ENTRY_POINTS[entry](np.float64(1e-12))


@pytest.mark.parametrize("field,low", [("trials", 1), ("starts", 1), ("n", 2)])
def test_campaign_counts_raise_report_errors(field, low):
    with pytest.raises(ReportError, match=f"^{field} must be >= {low}, got {low - 1}$"):
        CampaignConfig(suite="cp-table", **{field: low - 1})


@pytest.mark.parametrize("field", ["starts", "n", "restarts"])
def test_campaign_sizes_raise_report_errors(field):
    high = np.iinfo(np.intp).max
    with pytest.raises(ReportError, match=f"^{field} must be <= {high}, got {high + 1}$"):
        CampaignConfig(suite="cp-table", **{field: high + 1})
    # the counts that size no array keep no upper limit
    CampaignConfig(suite="cp-table", trials=10**20, max_iters=10**20, seed=10**20)


U = unit(SYM2)  # u o u = e


@pytest.mark.parametrize("call", [
    lambda: congruence(np.array([[1 + 2j, 0], [0, 1]]), SYM2),
    lambda: random_element(SYM2, 1, spectrum=np.array([1 + 5j, 2])),
    lambda: reflection_mixture([U, U], np.array([1 + 3j, 1])),
    lambda: CpProblem(2.5, 2),
    lambda: cp_bruteforce(CpProblem(2, 2), starts=2.0),
    lambda: clarkson_check(3, trials=True),
    lambda: aggregate_split_check(2, n=True),
], ids=["congruence", "spectrum", "weights", "CpProblem.n", "starts", "clarkson-trials", "aggregate-n"])
def test_inputs_once_truncated_or_miscounted_raise_type_error(call):
    # the message tells the rule from a TypeError raised inside NumPy
    with pytest.raises(TypeError, match="must be (real|an integer)"):
        call()
