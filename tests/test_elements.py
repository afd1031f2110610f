"""Element layer: spectra, frames, norms, sampling."""

import math

import numpy as np
import pytest

from jspec import (
    AlgebraMismatchError,
    Element,
    NonFiniteInputError,
    eigenvalues,
    inner_product,
    is_invertible,
    jordan_product,
    p_norm,
    parse_algebra,
    random_element,
    spectral_decomposition,
    trace,
    unit,
    zero,
)
from oracles import oracle_eigenvalues, oracle_inner, oracle_jordan

_SQRT2 = math.sqrt(2.0)


class TestBasics:
    def test_unit_and_zero(self, algebra):
        e, z = unit(algebra), zero(algebra)
        assert trace(e) == pytest.approx(algebra.rank)
        assert p_norm(z, 2) == 0.0
        assert np.allclose(eigenvalues(e), 1.0)
        got = jordan_product(e, e)
        assert np.allclose(got.coords, e.coords, atol=1e-14)

    def test_algebra_mismatch_raises(self):
        a = random_element(parse_algebra("sym:2"), 0)
        b = random_element(parse_algebra("spin:3"), 0)
        with pytest.raises(AlgebraMismatchError):
            jordan_product(a, b)
        with pytest.raises(AlgebraMismatchError):
            inner_product(a, b)

    def test_complex_coords_rejected(self):
        # the float cast would drop the imaginary parts without a word
        with pytest.raises(TypeError, match="must be real"):
            Element(parse_algebra("rn:3"), [1 + 2j, 0, 3])
        with pytest.raises(TypeError, match="must be real"):
            Element(parse_algebra("rn:3"), np.zeros(3, dtype=complex))

    def test_jordan_matches_oracle(self, algebra, rng):
        for seed in range(5):
            a = random_element(algebra, seed)
            b = random_element(algebra, 100 + seed)
            got = jordan_product(a, b).coords
            assert np.allclose(got, oracle_jordan(algebra, a.coords, b.coords), atol=1e-12)

    def test_inner_matches_oracle(self, algebra):
        a = random_element(algebra, 1)
        b = random_element(algebra, 2)
        want = oracle_inner(algebra, a.coords, b.coords)
        assert inner_product(a, b) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_trace_form_associativity(self, algebra):
        # <a o b, c> == <b, a o c>, the defining property of the trace form
        a = random_element(algebra, 3)
        b = random_element(algebra, 4)
        c = random_element(algebra, 5)
        lhs = inner_product(jordan_product(a, b), c)
        rhs = inner_product(b, jordan_product(a, c))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


class TestSpectral:
    def test_eigenvalues_sorted_descending(self, algebra):
        lam = eigenvalues(random_element(algebra, 7))
        assert np.all(np.diff(lam) <= 1e-12)

    def test_eigenvalues_match_oracle(self, algebra):
        for seed in range(5):
            a = random_element(algebra, seed)
            want = np.sort(oracle_eigenvalues(algebra, a.coords))[::-1]
            assert np.allclose(eigenvalues(a), want, atol=1e-9)

    def test_decomposition_reconstructs(self, algebra):
        a = random_element(algebra, 11)
        dec = spectral_decomposition(a)
        assert np.all(np.diff(dec.eigenvalues) <= 0.0)
        back = sum((lam * c.coords for lam, c in zip(dec.eigenvalues, dec.frame)), np.zeros(algebra.dim))
        assert np.allclose(back, a.coords, atol=1e-10)
        assert np.allclose(dec.reconstruct().coords, a.coords, atol=1e-10)

    def test_frame_elements_are_primitive_idempotents(self, algebra):
        dec = spectral_decomposition(random_element(algebra, 13))
        for c in dec.frame:
            assert trace(c) == pytest.approx(1.0, abs=1e-9)
            assert np.allclose(jordan_product(c, c).coords, c.coords, atol=1e-9)
        for i, ci in enumerate(dec.frame):
            for cj in dec.frame[i + 1 :]:
                assert inner_product(ci, cj) == pytest.approx(0.0, abs=1e-9)

    def test_spin_hand_case(self):
        from jspec import Element

        alg = parse_algebra("spin:3")
        a = Element(alg, _SQRT2 * np.array([1.0, 3.0, 4.0]))
        assert np.allclose(eigenvalues(a), [6.0, -4.0], atol=1e-13)
        assert p_norm(a, "inf") == pytest.approx(6.0)
        assert p_norm(a, 1) == pytest.approx(10.0)
        assert p_norm(a, 2) == pytest.approx(math.sqrt(52.0))


class TestNorms:
    @pytest.mark.parametrize("p", [1.0, 1.25, 2.0, 3.0, math.inf])
    def test_matches_eigenvalue_pnorm(self, algebra, p):
        a = random_element(algebra, 17)
        lam = eigenvalues(a)
        want = np.abs(lam).max() if math.isinf(p) else (np.abs(lam) ** p).sum() ** (1 / p)
        assert p_norm(a, p) == pytest.approx(want, rel=1e-12)

    def test_monotone_decreasing_in_p(self, algebra):
        a = random_element(algebra, 19)
        vals = [p_norm(a, p) for p in (1, 1.5, 2, 4, 16, math.inf)]
        assert all(x >= y - 1e-12 for x, y in zip(vals, vals[1:]))

    def test_triangle_inequality(self, algebra):
        a = random_element(algebra, 23)
        b = random_element(algebra, 29)
        from jspec import Element

        s = Element(algebra, a.coords + b.coords)
        for p in (1, 2, 3.5, math.inf):
            assert p_norm(s, p) <= p_norm(a, p) + p_norm(b, p) + 1e-10

    def test_unit_norms(self, algebra):
        e = unit(algebra)
        n = algebra.rank
        assert p_norm(e, 1) == pytest.approx(n)
        assert p_norm(e, 3) == pytest.approx(n ** (1 / 3))
        assert p_norm(e, "inf") == pytest.approx(1.0)


class TestSampling:
    def test_random_element_deterministic(self, algebra):
        a = random_element(algebra, 41)
        b = random_element(algebra, 41)
        assert np.array_equal(a.coords, b.coords)

    def test_prescribed_spectrum(self, algebra):
        spec = np.linspace(2.0, -1.0, algebra.rank)
        a = random_element(algebra, 43, spectrum=spec)
        assert np.allclose(eigenvalues(a), np.sort(spec)[::-1], atol=1e-10)

    def test_spectrum_length_validated(self, algebra):
        with pytest.raises(ValueError):
            random_element(algebra, 1, spectrum=[1.0] * (algebra.rank + 1))

    def test_is_invertible(self, algebra):
        assert is_invertible(unit(algebra))
        assert not is_invertible(zero(algebra))
        spec = np.arange(algebra.rank, dtype=float)  # one zero eigenvalue
        assert not is_invertible(random_element(algebra, 47, spectrum=spec))
        with pytest.raises(NonFiniteInputError, match="tol"):  # nan < 0 is false, so nan needs its own check
            is_invertible(unit(algebra), tol=math.nan)
        for tol in (True, np.True_):  # not the number 1.0
            with pytest.raises(TypeError, match="tol"):
                is_invertible(unit(algebra), tol=tol)
