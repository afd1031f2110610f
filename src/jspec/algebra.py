"""Euclidean Jordan algebras as direct sums of simple factors.

Supported factors: blocks of real lines, spin factors, real symmetric
matrices, and complex Hermitian matrices. Every factor exposes an orthonormal
coordinate chart for the trace inner product, so <a, b> is the plain
Euclidean dot product of chart coordinates and adjoints of linear maps
are transposes.

Chart conventions (the sqrt(2) scalings make the chart orthonormal):

* RealLines(k)   -- k coordinates, the element itself.
* Spin(m)        -- natural element (x0, xbar) in R x R^{m-1} stored as
                    sqrt(2) * (x0, xbar).
* SymMatrix(k)   -- upper triangle in row-major order, off-diagonal
                    entries scaled by sqrt(2).
* HermMatrix(k)  -- k real diagonal entries, then for each i<j the pair
                    (sqrt(2)*Re A_ij, sqrt(2)*Im A_ij) in row-major order.

Factor protocol: every factor has a kind, a descriptor size, dim and
rank, and the kernels unit_coords(), jordan(u, v), decomp(u) ->
(eigenvalues, basis), eigvals(u), rebuild(dec, lam), frame(dec) and
random_frame(rng). eigvals(u) is decomp(u)[0] computed without the Jordan
frame; norms and trace inequalities need only eigenvalues, so they never
pay for eigenvectors. A RealLines block gives its eigenvalues in chart
order (they are its coordinates, and its basis is None); every other
factor gives them descending. The trace is tr(a) = <a, e>, so no factor
carries a separate trace vector. Real symmetric and complex Hermitian
matrices are one family, Herm_k(F), and share _MatrixFactor; only the
scalar field and the chart differ.

All kernels are batched: coordinate arrays have shape (..., dim) and the
leading axes broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DescriptorError

_SQRT2 = math.sqrt(2.0)


class _Factor:
    """What every factor shares: its kind, its descriptor size (checked
    against min_size), and equality, hashing and repr by type and size."""

    kind: str
    min_size = 1

    def __init__(self, size: int):
        if size < self.min_size:
            raise DescriptorError(f"{self.kind} factor needs size >= {self.min_size}, got {size}")
        self.size = size

    def __repr__(self):
        return f"{type(self).__name__}({self.size})"

    def __eq__(self, other):
        return type(other) is type(self) and other.size == self.size

    def __hash__(self):
        return hash((self.kind, self.size))


class RealLines(_Factor):
    """R^k with coordinatewise multiplication: k real lines in one factor.
    The Jordan frame is the standard basis, so the eigenvalues are the
    coordinates themselves, in chart order."""

    kind = "rn"

    def __init__(self, k: int):
        super().__init__(k)
        self.dim = self.rank = k

    def unit_coords(self) -> np.ndarray:
        return np.ones(self.size)

    def jordan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        return u * v

    def decomp(self, u: np.ndarray):
        return u, None

    def eigvals(self, u: np.ndarray) -> np.ndarray:
        return u

    def rebuild(self, dec, lam: np.ndarray) -> np.ndarray:
        return lam

    def frame(self, dec) -> np.ndarray:
        k = self.size
        return np.broadcast_to(np.eye(k), dec[0].shape[:-1] + (k, k))

    def random_frame(self, rng: np.random.Generator) -> np.ndarray:
        return np.eye(self.size)


class Spin(_Factor):
    """Spin factor on R^m: (x0, xbar) o (y0, ybar) = (x0 y0 + xbar.ybar,
    x0 ybar + y0 xbar). Rank 2, eigenvalues x0 +/- |xbar|."""

    kind = "spin"
    min_size = 2
    rank = 2

    def __init__(self, m: int):
        super().__init__(m)
        self.dim = m

    def unit_coords(self) -> np.ndarray:
        e = np.zeros(self.dim)
        e[0] = _SQRT2
        return e

    def jordan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u0, ub = u[..., :1], u[..., 1:]
        v0, vb = v[..., :1], v[..., 1:]
        w0 = (u0 * v0 + (ub * vb).sum(axis=-1, keepdims=True)) / _SQRT2
        wb = (u0 * vb + v0 * ub) / _SQRT2
        return np.concatenate([w0, wb], axis=-1)

    @staticmethod
    def _center_radius(u: np.ndarray):
        x0 = u[..., 0] / _SQRT2
        xb = u[..., 1:] / _SQRT2
        return x0, xb, np.sqrt((xb * xb).sum(axis=-1))

    def decomp(self, u: np.ndarray):
        x0, xb, rho = self._center_radius(u)
        # canonical direction for xbar = 0: first coordinate axis
        w = np.zeros_like(xb)
        safe = rho > 0.0
        w[..., 0] = 1.0
        if np.any(safe):
            w = np.where(safe[..., None], np.divide(xb, np.where(safe, rho, 1.0)[..., None]), w)
        return np.stack([x0 + rho, x0 - rho], axis=-1), w

    def eigvals(self, u: np.ndarray) -> np.ndarray:
        x0, _, rho = self._center_radius(u)
        return np.stack([x0 + rho, x0 - rho], axis=-1)

    def rebuild(self, dec, lam: np.ndarray) -> np.ndarray:
        w = dec[1]
        x0 = (lam[..., 0] + lam[..., 1]) / 2.0
        xb = w * ((lam[..., 0] - lam[..., 1]) / 2.0)[..., None]
        return np.concatenate([x0[..., None], xb], axis=-1) * _SQRT2

    def frame(self, dec) -> np.ndarray:
        """Both primitive idempotents, shape (..., 2, dim)."""
        w = dec[1]
        ones = np.ones(w.shape[:-1] + (1,))
        c_plus = np.concatenate([ones, w], axis=-1) / _SQRT2
        c_minus = np.concatenate([ones, -w], axis=-1) / _SQRT2
        return np.stack([c_plus, c_minus], axis=-2)

    def random_frame(self, rng: np.random.Generator) -> np.ndarray:
        w = rng.standard_normal(self.dim - 1)
        w /= np.linalg.norm(w)
        ones = np.ones(1)
        return np.stack([np.concatenate([ones, w]), np.concatenate([ones, -w])]) / _SQRT2


class _MatrixFactor(_Factor):
    """Self-adjoint k x k matrices over the scalar field `field` (float or
    complex) with the symmetrized product (XY+YX)/2. Subclasses give the
    chart: dim, to_dense and from_dense."""

    field: type

    def __init__(self, k: int):
        super().__init__(k)
        self.rank = k

    def unit_coords(self) -> np.ndarray:
        return self.from_dense(np.eye(self.size, dtype=self.field))

    def jordan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        x, y = self.to_dense(u), self.to_dense(v)
        return self.from_dense((x @ y + y @ x) / 2.0)

    def decomp(self, u: np.ndarray):
        lam, q = np.linalg.eigh(self.to_dense(u))
        return lam[..., ::-1], q[..., :, ::-1]  # descending

    def eigvals(self, u: np.ndarray) -> np.ndarray:
        return np.linalg.eigvalsh(self.to_dense(u))[..., ::-1]

    def rebuild(self, dec, lam: np.ndarray) -> np.ndarray:
        q = dec[1]
        return self.from_dense(np.einsum("...ik,...k,...jk->...ij", q, lam, q.conj()))

    def frame(self, dec) -> np.ndarray:
        q = dec[1]
        return self.from_dense(np.einsum("...ij,...kj->...jik", q, q.conj()))  # (..., rank, k, k)

    def random_frame(self, rng: np.random.Generator) -> np.ndarray:
        k = self.size
        g = rng.standard_normal((k, k))
        if self.field is complex:
            g = g + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(g)
        d = np.diagonal(r)
        return self.frame((None, q * (d / np.abs(d))))


class SymMatrix(_MatrixFactor):
    """Real symmetric k x k matrices."""

    kind = "sym"
    field = float

    def __init__(self, k: int):
        super().__init__(k)
        self.dim = k * (k + 1) // 2
        self._iu = np.triu_indices(k)
        self._scale = np.where(self._iu[0] == self._iu[1], 1.0, _SQRT2)

    def to_dense(self, u: np.ndarray) -> np.ndarray:
        x = np.zeros(u.shape[:-1] + (self.size, self.size))
        vals = u / self._scale
        x[..., self._iu[0], self._iu[1]] = vals
        x[..., self._iu[1], self._iu[0]] = vals
        return x

    def from_dense(self, x: np.ndarray) -> np.ndarray:
        out = x[..., self._iu[0], self._iu[1]]  # a new array: scaled in place
        out *= self._scale
        return out


class HermMatrix(_MatrixFactor):
    """Complex Hermitian k x k matrices."""

    kind = "herm"
    field = complex

    def __init__(self, k: int):
        super().__init__(k)
        self.dim = k * k
        self._iu = np.triu_indices(k, 1)
        self._n_off = self._iu[0].size

    def to_dense(self, u: np.ndarray) -> np.ndarray:
        k = self.size
        a = np.zeros(u.shape[:-1] + (k, k), dtype=complex)
        diag = u[..., :k]
        re = u[..., k : k + self._n_off] / _SQRT2
        im = u[..., k + self._n_off :] / _SQRT2
        a[..., np.arange(k), np.arange(k)] = diag
        a[..., self._iu[0], self._iu[1]] = re + 1j * im
        a[..., self._iu[1], self._iu[0]] = re - 1j * im
        return a

    def from_dense(self, a: np.ndarray) -> np.ndarray:
        k = self.size
        diag = a[..., np.arange(k), np.arange(k)].real
        off = a[..., self._iu[0], self._iu[1]]
        return np.concatenate(
            [diag, off.real * _SQRT2, off.imag * _SQRT2], axis=-1
        )


@dataclass(frozen=True, eq=False)
class Algebra:
    """A direct sum of simple factors with precomputed chart layout."""

    factors: tuple

    def __post_init__(self):
        if not self.factors:
            raise DescriptorError("algebra needs at least one factor")
        dims = [f.dim for f in self.factors]
        ranks = [f.rank for f in self.factors]
        offs = np.concatenate([[0], np.cumsum(dims)])
        roffs = np.concatenate([[0], np.cumsum(ranks)])
        object.__setattr__(self, "dim", int(offs[-1]))
        object.__setattr__(self, "rank", int(roffs[-1]))
        object.__setattr__(
            self, "slices", tuple(slice(int(a), int(b)) for a, b in zip(offs[:-1], offs[1:]))
        )
        object.__setattr__(
            self,
            "rank_slices",
            tuple(slice(int(a), int(b)) for a, b in zip(roffs[:-1], roffs[1:])),
        )
        unit = self.unit_coords()
        unit.flags.writeable = False
        object.__setattr__(self, "_unit", unit)

    def __eq__(self, other):
        return isinstance(other, Algebra) and self.factors == other.factors

    def __hash__(self):
        return hash(self.factors)

    def __repr__(self):
        return f"Algebra({self.descriptor!r})"

    @property
    def descriptor(self) -> str:
        """Canonical descriptor string, one kind:size token per factor."""
        return ",".join(f"{f.kind}:{f.size}" for f in self.factors)

    # -- batched kernels ------------------------------------------------

    def unit_coords(self) -> np.ndarray:
        return np.concatenate([f.unit_coords() for f in self.factors])

    def trace(self, coords: np.ndarray) -> np.ndarray:
        """tr(a) = <a, e>."""
        return coords @ self._unit

    def jordan(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u, v = np.broadcast_arrays(u, v)
        out = np.empty_like(u, dtype=float)
        for f, sl in zip(self.factors, self.slices):
            out[..., sl] = f.jordan(u[..., sl], v[..., sl])
        return out

    def decomp(self, coords: np.ndarray) -> list:
        return [f.decomp(coords[..., sl]) for f, sl in zip(self.factors, self.slices)]

    def eigenvalues_from(self, decs: list) -> np.ndarray:
        return np.concatenate([d[0] for d in decs], axis=-1)

    def eigenvalues(self, coords: np.ndarray) -> np.ndarray:
        """Eigenvalue vector per batch entry, factor-concatenated: an rn
        block in chart order, every other block descending; not globally
        sorted. Computes no Jordan frame."""
        return np.concatenate(
            [f.eigvals(coords[..., sl]) for f, sl in zip(self.factors, self.slices)], axis=-1
        )

    def rebuild(self, decs: list, lam: np.ndarray) -> np.ndarray:
        parts = [
            f.rebuild(d, lam[..., rsl])
            for f, d, rsl in zip(self.factors, decs, self.rank_slices)
        ]
        return np.concatenate(parts, axis=-1)

    def frame_coords(self, decs: list) -> np.ndarray:
        """All primitive idempotents, shape (..., rank, dim); block j holds
        zeros outside its own factor."""
        lead = np.broadcast_shapes(*[d[0].shape[:-1] for d in decs])
        out = np.zeros(lead + (self.rank, self.dim))
        for f, d, sl, rsl in zip(self.factors, decs, self.slices, self.rank_slices):
            out[..., rsl, sl] = f.frame(d)
        return out

    def random_frame(self, rng: np.random.Generator) -> np.ndarray:
        """A random Jordan frame, shape (rank, dim)."""
        out = np.zeros((self.rank, self.dim))
        for f, sl, rsl in zip(self.factors, self.slices, self.rank_slices):
            out[rsl, sl] = f.random_frame(rng)
        return out


def parse_algebra(descriptor: str) -> Algebra:
    """Parse the descriptor grammar, e.g. 'rn:5', 'spin:4', 'sym:2,spin:3'."""
    factors: list = []
    if not descriptor or not descriptor.strip():
        raise DescriptorError("empty algebra descriptor")
    for tok in descriptor.split(","):
        tok = tok.strip()
        if ":" not in tok:
            raise DescriptorError(f"malformed factor {tok!r} (expected kind:size)")
        kind, _, num = tok.partition(":")
        kind = kind.strip().lower()
        try:
            size = int(num)
        except ValueError:
            raise DescriptorError(f"malformed factor size in {tok!r}") from None
        if size < 1:
            raise DescriptorError(f"factor size must be positive in {tok!r}")
        if kind == "rn":
            if factors and isinstance(factors[-1], RealLines):
                size += factors.pop().size
            factors.append(RealLines(size))
        elif kind == "spin":
            factors.append(Spin(size))
        elif kind == "sym":
            factors.append(SymMatrix(size))
        elif kind == "herm":
            factors.append(HermMatrix(size))
        else:
            raise DescriptorError(f"unknown factor kind {kind!r}")
    return Algebra(tuple(factors))
