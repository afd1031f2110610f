"""Factor and direct-sum kernels cross-checked against the loop/Jacobi oracles."""

import math

import numpy as np
import pytest

from jspec import (
    Algebra,
    DescriptorError,
    HermMatrix,
    RealLines,
    Spin,
    SymMatrix,
    parse_algebra,
)
from conftest import ACCEPTANCE_DESCRIPTORS
from oracles import oracle_eigenvalues, oracle_inner, oracle_jordan

_SQRT2 = math.sqrt(2.0)


class TestParsing:
    @pytest.mark.parametrize(
        "desc,dim,rank",
        [
            ("rn:5", 5, 5),
            ("spin:4", 4, 2),
            ("sym:3", 6, 3),
            ("herm:3", 9, 3),
            ("sym:2,spin:3", 6, 4),
            ("rn:1", 1, 1),
            ("sym:1", 1, 1),
            ("herm:1", 1, 1),
        ],
    )
    def test_dims_and_ranks(self, desc, dim, rank):
        alg = parse_algebra(desc)
        assert (alg.dim, alg.rank) == (dim, rank)

    def test_descriptor_round_trip(self):
        for desc in ACCEPTANCE_DESCRIPTORS:
            assert parse_algebra(desc).descriptor == desc

    def test_real_lines_merge_in_descriptor(self):
        assert parse_algebra("rn:2,rn:3").descriptor == "rn:5"
        assert parse_algebra("rn:2,rn:3").factors == (RealLines(5),)
        assert len(parse_algebra("rn:1000").factors) == 1

    def test_separated_real_lines_stay_apart(self):
        alg = parse_algebra("rn:2,spin:3,rn:1")
        assert alg.factors == (RealLines(2), Spin(3), RealLines(1))
        assert parse_algebra(alg.descriptor) == alg
        assert alg.descriptor == "rn:2,spin:3,rn:1"

    def test_whitespace_and_case_tolerated(self):
        assert parse_algebra(" SYM:2 , spin:3 ").descriptor == "sym:2,spin:3"

    @pytest.mark.parametrize(
        "bad",
        ["", "  ", "sym", "sym:x", "sym:0", "sym:-2", "quat:3", "spin:1", "sym:2;spin:3",
         "sym:1_0", "spin:\u0663", "rn:+3", "rn:2,rn:0"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(DescriptorError):
            parse_algebra(bad)

    # sizes no factor or algebra can hold, each failing before any allocation
    @pytest.mark.parametrize(
        "bad",
        ["rn:99999999999999999999999", "spin:99999999999999999999999", "sym:99999999999999999999999",
         "rn:" + "9" * 5000, "herm:10000000000000000000", "sym:2,rn:10000000000000000000",
         "rn:5,rn:99999999999999999999999"],
        ids=lambda d: d if len(d) < 40 else f"{d[:3]}{len(d) - 3}-digits",
    )
    def test_rejects_sizes_too_large_to_build(self, bad):
        with pytest.raises(DescriptorError, match="too large") as exc:
            parse_algebra(bad)
        assert bad.split(",")[-1] in str(exc.value)

    def test_empty_factor_tuple_rejected(self):
        with pytest.raises(DescriptorError):
            Algebra(())

    def test_factor_equality_and_hash(self):
        assert Spin(4) == Spin(4) and hash(Spin(4)) == hash(Spin(4))
        assert Spin(4) != Spin(5)
        assert SymMatrix(2) != HermMatrix(2)
        assert RealLines(3) == RealLines(3) != RealLines(2)
        assert hash(RealLines(3)) == hash(RealLines(3))
        assert Spin(3) != RealLines(3)
        assert repr(HermMatrix(2)) == "HermMatrix(2)"
        assert SymMatrix(3).size == 3
        assert parse_algebra("sym:3") == parse_algebra("sym:3")

    @pytest.mark.parametrize(
        "factor,size", [(RealLines, 0), (SymMatrix, 0), (HermMatrix, 0), (Spin, 1)]
    )
    def test_direct_construction_checks_size(self, factor, size):
        with pytest.raises(DescriptorError):
            factor(size)


class TestChart:
    def test_unit_is_identity_and_trace_vector_pairs(self, algebra):
        e = algebra.unit_coords()
        assert algebra.trace(e) == pytest.approx(algebra.rank, rel=1e-14)
        lam = algebra.eigenvalues(e)
        assert np.allclose(lam, 1.0, atol=1e-14)

    def test_inner_product_matches_dense_trace_oracle(self, algebra, rng):
        for _ in range(10):
            u = rng.standard_normal(algebra.dim) * 3.0
            v = rng.standard_normal(algebra.dim) * 3.0
            want = oracle_inner(algebra, u, v)
            assert float(u @ v) == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_trace_is_inner_with_unit(self, algebra, rng):
        u = rng.standard_normal(algebra.dim)
        assert algebra.trace(u) == float(u @ algebra.unit_coords())


class TestJordanKernel:
    def test_matches_loop_oracle(self, algebra, rng):
        for _ in range(10):
            u = rng.standard_normal(algebra.dim) * 2.0
            v = rng.standard_normal(algebra.dim) * 2.0
            got = algebra.jordan(u, v)
            assert np.allclose(got, oracle_jordan(algebra, u, v), atol=1e-12)

    def test_batched_broadcasting(self, algebra, rng):
        u = rng.standard_normal((3, 4, algebra.dim))
        v = rng.standard_normal((4, algebra.dim))
        got = algebra.jordan(u, v)
        assert got.shape == (3, 4, algebra.dim)
        assert np.allclose(got[1, 2], algebra.jordan(u[1, 2], v[2]))

    def test_unit_is_neutral(self, algebra, rng):
        u = rng.standard_normal(algebra.dim)
        assert np.allclose(algebra.jordan(u, algebra.unit_coords()), u, atol=1e-14)


class TestSpectral:
    def test_eigenvalues_match_jacobi_oracle(self, algebra, rng):
        for _ in range(10):
            u = rng.standard_normal(algebra.dim) * rng.uniform(0.5, 20.0)
            got = algebra.eigenvalues(u)
            want = oracle_eigenvalues(algebra, u)
            assert np.allclose(got, want, atol=1e-9 * max(1.0, np.abs(want).max()))

    def test_rebuild_reconstructs(self, algebra, rng):
        u = rng.standard_normal((50, algebra.dim))
        lam, bases = algebra.decomp(u)
        back = algebra.rebuild(bases, lam)
        assert np.allclose(back, u, atol=1e-10)

    def test_frames_are_orthonormal_idempotent_complete(self, algebra, rng):
        u = rng.standard_normal((20, algebra.dim))
        _, bases = algebra.decomp(u)
        frames = np.stack([  # (20, rank, dim): row i's frame is rebuild(bases_i, I)
            algebra.rebuild([None if q is None else q[i] for q in bases], np.eye(algebra.rank))
            for i in range(len(u))
        ])
        # completeness
        assert np.allclose(frames.sum(axis=1), algebra.unit_coords(), atol=1e-9)
        # pairwise trace-orthogonality (orthonormal chart: plain dot)
        gram = np.einsum("bid,bjd->bij", frames, frames)
        assert np.allclose(gram, np.eye(algebra.rank), atol=1e-9)
        # idempotency under the Jordan product
        for i in range(algebra.rank):
            ci = frames[:, i, :]
            assert np.allclose(algebra.jordan(ci, ci), ci, atol=1e-9)

    def test_random_frame_invariants(self, algebra, rng):
        frame = algebra.random_frame(rng)
        assert frame.shape == (algebra.rank, algebra.dim)
        assert np.allclose(frame.sum(axis=0), algebra.unit_coords(), atol=1e-12)
        assert np.allclose(frame @ frame.T, np.eye(algebra.rank), atol=1e-12)
        for c in frame:
            assert np.allclose(algebra.jordan(c, c), c, atol=1e-12)

    def test_random_idempotents_are_primitive(self, algebra, rng):
        rows = algebra.random_idempotents(rng, 40)
        assert rows.shape == (40, algebra.dim)
        assert np.allclose(algebra.jordan(rows, rows), rows, atol=1e-12)
        assert np.allclose(algebra.trace(rows), 1.0, atol=1e-12)
        # each lives in one factor: its eigenvalues are one 1 and zeros
        lam = np.sort(algebra.eigenvalues(rows), axis=-1)
        want = np.zeros(algebra.rank)
        want[-1] = 1.0
        assert np.allclose(lam, want, atol=1e-12)
        assert algebra.random_idempotents(rng, 0).shape == (0, algebra.dim)

    @pytest.mark.parametrize("desc", ["sym:3", "rn:6", "rn:2,sym:3,sym:2"])
    def test_random_frames_match_the_outer_product_formula(self, desc):
        """On real factors, random_frame and random_idempotents are bit for
        bit the q_j q_j^T outer products of the same random_basis draws, and the
        frame comes back C-ordered."""
        alg = parse_algebra(desc)

        def outer(f, q):  # from_dense(q_j q_j^T) for each column j of q: (..., k, dim)
            v = q.swapaxes(-1, -2)
            return f.from_dense(v[..., :, None] * v[..., None, :])

        want = np.zeros((alg.rank, alg.dim))
        ref = np.random.default_rng(7)
        for f, sl, rsl in zip(alg.factors, alg.slices, alg.rank_slices):
            want[rsl, sl] = np.eye(f.rank) if f.kind == "rn" else outer(f, f.random_basis(ref, ()))
        got = alg.random_frame(np.random.default_rng(7))
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

        picks = ref.integers(alg.rank, size=40)
        want = np.zeros((40, alg.dim))
        for f, sl, rsl in zip(alg.factors, alg.slices, alg.rank_slices):
            at = np.flatnonzero((picks >= rsl.start) & (picks < rsl.stop))
            cols = picks[at] - rsl.start
            if f.kind == "rn":
                want[at, sl] = np.eye(f.rank)[cols]
            elif at.size:
                want[at, sl] = outer(f, f.random_basis(ref, (at.size,)))[np.arange(at.size), cols]
        rng = np.random.default_rng(7)
        alg.random_frame(rng)
        assert alg.random_idempotents(rng, 40).tobytes() == want.tobytes()

    def test_spin_eigenvalues_analytic(self):
        alg = parse_algebra("spin:3")
        # natural (x0, xbar) = (1, (3, 4)), chart = sqrt(2) * natural
        u = _SQRT2 * np.array([1.0, 3.0, 4.0])
        assert np.allclose(alg.eigenvalues(u), [6.0, -4.0], atol=1e-14)

    def test_spin_zero_vector_part_frame(self):
        alg = parse_algebra("spin:4")
        _, bases = alg.decomp(alg.unit_coords())
        frames = alg.rebuild(bases, np.eye(alg.rank))
        assert np.allclose(frames.sum(axis=0), alg.unit_coords(), atol=1e-14)


class TestEigenvalueKernel:
    """Algebra.eigenvalues (eigenvalue-only) against the full decomposition."""

    @staticmethod
    def _batch(algebra, rng):
        """Shape (2, 3, dim): random rows, a zero row, the unit and a
        multiple of it (both with repeated eigenvalues)."""
        e = algebra.unit_coords()
        rows = [rng.standard_normal(algebra.dim), np.zeros(algebra.dim), e,
                -2.5 * e, rng.standard_normal(algebra.dim) * 30.0, rng.standard_normal(algebra.dim)]
        return np.stack(rows).reshape(2, 3, algebra.dim)

    def test_matches_decomposition(self, algebra, rng):
        x = self._batch(algebra, rng)
        for u in (x, x[0], x[1, 2]):  # leading shapes (2, 3), (3,) and none
            got = algebra.eigenvalues(u)
            want = algebra.decomp(u)[0]
            assert got.shape == u.shape[:-1] + (algebra.rank,)
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))

    def test_blocks_descending(self, algebra, rng):
        """An rn block is its chart coordinates in chart order; every other
        block is descending."""
        x = self._batch(algebra, rng)
        lam = algebra.eigenvalues(x)
        for f, sl, rsl in zip(algebra.factors, algebra.slices, algebra.rank_slices):
            if isinstance(f, RealLines):
                assert np.array_equal(lam[..., rsl], x[..., sl])
            else:
                assert np.all(np.diff(lam[..., rsl], axis=-1) <= 0.0)

    def test_decomp_leads_with_eigenvalues(self, algebra, rng):
        """No factor has trace_vector or eigenvalues(dec): decomp(u)[0] is
        what Algebra.decomp concatenates into its eigenvalues."""
        for factor in (RealLines, Spin, SymMatrix, HermMatrix):
            assert not hasattr(factor, "trace_vector") and not hasattr(factor, "eigenvalues")
        u = rng.standard_normal((4, algebra.dim))
        want = [f.decomp(u[:, sl])[0] for f, sl in zip(algebra.factors, algebra.slices)]
        assert np.array_equal(algebra.decomp(u)[0], np.concatenate(want, axis=-1))

    @pytest.mark.parametrize("desc", ["rn:6", "spin:5", "spin:2", "rn:2,spin:3,rn:1"])
    def test_spin_and_rn_bitwise(self, desc, rng):
        alg = parse_algebra(desc)
        x = self._batch(alg, rng)
        assert np.array_equal(alg.eigenvalues(x), alg.decomp(x)[0])


class TestDenseCodecs:
    """The codecs equal the loop oracles bit for bit (the oracles divide and
    multiply by sqrt(2) as the codecs do), on stacked (2, 3, dim) inputs."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 8, 10])
    def test_sym_round_trip_against_oracle(self, k, rng):
        from oracles import sym_chart_to_dense, sym_dense_to_chart

        fac = SymMatrix(k)
        u = rng.standard_normal((2, 3, fac.dim))
        dense = np.array([[sym_chart_to_dense(b, k) for b in row] for row in u])
        assert np.array_equal(fac.to_dense(u), dense)
        back = np.array([[sym_dense_to_chart(x, k) for x in row] for row in dense])
        assert np.array_equal(fac.from_dense(fac.to_dense(u)), back)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 6])
    def test_herm_round_trip_against_oracle(self, k, rng):
        from oracles import herm_chart_to_dense, herm_dense_to_chart

        fac = HermMatrix(k)
        u = rng.standard_normal((2, 3, fac.dim))
        dense = np.array([[herm_chart_to_dense(b, k) for b in row] for row in u])
        assert np.array_equal(fac.to_dense(u), dense)
        back = np.array([[herm_dense_to_chart(x, k) for x in row] for row in dense])
        assert np.array_equal(fac.from_dense(fac.to_dense(u)), back)

    @pytest.mark.parametrize("cls", [SymMatrix, HermMatrix])
    @pytest.mark.parametrize("k", [1, 4])
    def test_strided_input(self, cls, k, rng):
        """A column-strided chart view decodes as the loop oracle; strided
        views of a dense stack (batch step, transpose, every other column
        of a wider matrix) encode as their contiguous copies."""
        from oracles import herm_chart_to_dense, sym_chart_to_dense

        fac = cls(k)
        oracle = sym_chart_to_dense if cls is SymMatrix else herm_chart_to_dense
        u = rng.standard_normal((2, 3, 2 * fac.dim))[..., ::2]
        assert not u.flags.c_contiguous
        assert np.array_equal(fac.to_dense(u), [[oracle(b, k) for b in row] for row in u])
        stack = fac.to_dense(rng.standard_normal((4, 3, fac.dim)))
        wide = np.zeros((4, 3, k, 2 * k), dtype=stack.dtype)
        wide[..., ::2] = stack
        for x in (stack[::2], stack.swapaxes(-1, -2), wide[..., ::2]):
            assert np.array_equal(fac.from_dense(x), fac.from_dense(np.ascontiguousarray(x)))


class TestRebuild:
    @pytest.mark.parametrize("desc", ["rn:3,spin:4,sym:3,herm:3", "sym:10", "herm:6"])
    def test_matches_the_spectral_sum(self, desc, rng):
        """rebuild(bases, f(lam)) is sum_j f(lam_j) c_j: for a matrix factor
        the three-operand einsum q diag(f(lam)) q^H, for a spin factor
        f(lam_0) c_+ + f(lam_1) c_- with c_+- = (1, +-w) / 2, for real lines
        f(lam) itself."""
        alg = parse_algebra(desc)
        u = rng.standard_normal((2, 5, alg.dim))
        lam, bases = alg.decomp(u)
        flam = np.sign(lam) * np.abs(lam) ** 0.7
        want = []
        for f, basis, rsl in zip(alg.factors, bases, alg.rank_slices):
            fl = flam[..., rsl]
            if f.kind == "rn":
                want.append(fl)
            elif f.kind == "spin":
                x0 = (fl[..., 0] + fl[..., 1]) / 2.0
                xb = basis * ((fl[..., 0] - fl[..., 1]) / 2.0)[..., None]
                want.append(_SQRT2 * np.concatenate([x0[..., None], xb], axis=-1))
            else:
                q = basis
                want.append(f.from_dense(np.einsum("...ik,...k,...jk->...ij", q, fl, q.conj())))
        want = np.concatenate(want, axis=-1)
        got = alg.rebuild(bases, flam)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
