"""Property-based tests (hypothesis): algebraic laws, norm axioms, and
duality identities on randomly generated elements."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from jspec import (
    Element,
    LinearMap,
    NonFiniteInputError,
    conjugate,
    cp_constant,
    eigenvalues,
    inner_product,
    interpolate,
    jordan_product,
    p_norm,
    parse_algebra,
    peak,
    spectral_decomposition,
    trace,
    unit,
)

SMALL_ALGEBRAS = {
    d: parse_algebra(d) for d in ("rn:3", "spin:3", "sym:2", "herm:2", "sym:2,spin:3")
}

settings.register_profile("suite", max_examples=30, deadline=None, derandomize=True)
settings.load_profile("suite")


@st.composite
def elements(draw, nonzero=False):
    alg = SMALL_ALGEBRAS[draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))]
    coords = draw(
        st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
            min_size=alg.dim,
            max_size=alg.dim,
        )
    )
    a = Element(alg, np.array(coords))
    if nonzero:
        assume(p_norm(a, 2) > 1e-6)
    return a


@st.composite
def element_pairs(draw):
    a = draw(elements())
    coords = draw(
        st.lists(
            st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False),
            min_size=a.algebra.dim,
            max_size=a.algebra.dim,
        )
    )
    return a, Element(a.algebra, np.array(coords))


@st.composite
def non_finite_arrays(draw, shape_of):
    """(algebra, array) where the array, of shape shape_of(alg), holds at
    least one NaN or infinite entry among finite ones."""
    alg = SMALL_ALGEBRAS[draw(st.sampled_from(sorted(SMALL_ALGEBRAS)))]
    shape = shape_of(alg)
    size = int(np.prod(shape))
    vals = draw(st.lists(st.floats(-50.0, 50.0), min_size=size, max_size=size))
    bad = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=3))
    for i in bad:
        vals[i] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return alg, np.array(vals).reshape(shape)


finite_p = st.floats(1.0, 20.0, allow_nan=False)
any_p = st.one_of(finite_p, st.just(math.inf))


class TestJordanLaws:
    @given(element_pairs())
    def test_commutative(self, pair):
        a, b = pair
        assert np.array_equal(jordan_product(a, b).coords, jordan_product(b, a).coords)

    @given(element_pairs(), st.floats(-3.0, 3.0, allow_nan=False))
    def test_bilinear(self, pair, t):
        a, b = pair
        c = Element(a.algebra, b.coords * t)
        lhs = jordan_product(a, c).coords
        rhs = t * jordan_product(a, b).coords
        scale = max(1.0, np.abs(rhs).max())
        assert np.allclose(lhs, rhs, atol=1e-10 * scale)

    @given(elements())
    def test_unit_neutral(self, a):
        e = unit(a.algebra)
        scale = max(1.0, np.abs(a.coords).max())
        assert np.allclose(jordan_product(e, a).coords, a.coords, atol=1e-12 * scale)

    @given(element_pairs())
    def test_trace_form_associative(self, pair):
        a, b = pair
        c = unit(a.algebra)
        lhs = inner_product(jordan_product(a, b), c)
        rhs = inner_product(b, jordan_product(a, c))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


class TestSpectralLaws:
    @given(elements())
    def test_eigenvalue_count_and_trace(self, a):
        lam = eigenvalues(a)
        assert lam.shape == (a.algebra.rank,)
        scale = max(1.0, np.abs(lam).sum())
        assert abs(lam.sum() - trace(a)) <= 1e-9 * scale

    @given(elements())
    def test_reconstruction(self, a):
        dec = spectral_decomposition(a)
        scale = max(1.0, np.abs(a.coords).max())
        assert np.allclose(dec.reconstruct().coords, a.coords, atol=1e-8 * scale)

    @given(elements())
    def test_square_eigenvalues(self, a):
        lam_sq = eigenvalues(jordan_product(a, a))
        want = np.sort(eigenvalues(a) ** 2)[::-1]
        scale = max(1.0, want.max())
        assert np.allclose(lam_sq, want, atol=1e-8 * scale)


class TestNormAxioms:
    @given(elements(), finite_p, st.floats(-5.0, 5.0, allow_nan=False))
    def test_homogeneity(self, a, p, t):
        lhs = p_norm(Element(a.algebra, a.coords * t), p)
        rhs = abs(t) * p_norm(a, p)
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    @given(element_pairs(), any_p)
    def test_triangle(self, pair, p):
        a, b = pair
        s = Element(a.algebra, a.coords + b.coords)
        assert p_norm(s, p) <= p_norm(a, p) + p_norm(b, p) + 1e-9

    @given(elements())
    def test_monotone_in_p(self, a):
        vals = [p_norm(a, p) for p in (1.0, 1.5, 2.0, 4.0, 16.0, math.inf)]
        for big, small in zip(vals, vals[1:]):
            assert big >= small - 1e-10 * max(1.0, big)

    @given(elements(nonzero=True), any_p)
    def test_peak_attains_dual_norm(self, a, p):
        d = peak(a, p)
        assert p_norm(d, p) == pytest.approx(1.0, rel=1e-8)
        want = p_norm(a, conjugate(p))
        assert inner_product(a, d) == pytest.approx(want, rel=1e-8)

    @given(element_pairs(), any_p)
    def test_holder_pairing(self, pair, p):
        a, b = pair
        bound = p_norm(a, p) * p_norm(b, conjugate(p))
        assert abs(inner_product(a, b)) <= bound * (1.0 + 1e-9) + 1e-12

    @given(element_pairs())
    def test_trace_inequality(self, pair):
        # |<a, b>| <= sum_i lambda_i(a) lambda_i(b), both sorted decreasing
        a, b = pair
        lam_a, lam_b = eigenvalues(a), eigenvalues(b)
        bound = float(np.sort(lam_a) @ np.sort(lam_b))
        assert inner_product(a, b) <= bound * (1.0 + 1e-9) + 1e-9


class TestNonFiniteRejected:
    @given(non_finite_arrays(lambda alg: (alg.dim,)))
    def test_element(self, case):
        alg, coords = case
        with pytest.raises(NonFiniteInputError):
            Element(alg, coords)

    @given(non_finite_arrays(lambda alg: (alg.dim, alg.dim)))
    def test_linear_map(self, case):
        alg, matrix = case
        with pytest.raises(NonFiniteInputError):
            LinearMap(alg, matrix)


class TestExponentLaws:
    @given(
        st.one_of(st.floats(1.0, 50.0), st.just(math.inf)),
        st.one_of(st.floats(1.0, 50.0), st.just(math.inf)),
        st.floats(0.0, 1.0),
    )
    def test_interpolation_inverse_is_affine(self, p0, p1, theta):
        pt = interpolate(p0, p1, theta)
        inv0 = 0.0 if math.isinf(p0) else 1.0 / p0
        inv1 = 0.0 if math.isinf(p1) else 1.0 / p1
        assert pt.inv == pytest.approx((1.0 - theta) * inv0 + theta * inv1, abs=1e-12)

    @given(st.floats(1.0, 100.0), st.floats(1.0, 100.0))
    def test_cp_constant_monotone(self, p, q):
        lo, hi = sorted((p, q))
        assert cp_constant(lo) <= cp_constant(hi) + 1e-12
