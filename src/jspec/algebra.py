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
* HermMatrix(k)  -- k real diagonal entries, then sqrt(2)*Re A_ij for
                    each i<j in row-major order, then sqrt(2)*Im A_ij in
                    the same order.

Factor protocol: every factor has a kind, a descriptor size, dim and
rank, and six kernels: unit_coords(), jordan(u, v), decomp(u) ->
(eigenvalues, basis), eigvals(u), rebuild(basis, lam) and
random_basis(rng, shape), the basis of a random Jordan frame per index
of shape. eigvals(u) is decomp(u)[0] computed without the Jordan frame;
norms and trace inequalities need only eigenvalues, so they never pay
for eigenvectors. A RealLines block gives its eigenvalues in chart order
(they are its coordinates, and its basis is None); every other factor
gives them descending. Algebra.decomp(u) returns (eigenvalues, bases):
the factors' eigenvalues concatenated, as Algebra.eigenvalues gives
them, and the list of factor bases that Algebra.rebuild takes. A frame
is rebuild(bases, I): its primitive idempotent c_j is the element with
eigenvalue vector e_j. The trace is tr(a) = <a, e>, so no factor
carries a separate trace vector. Real symmetric and complex Hermitian
matrices are one family, Herm_k(F), and share _MatrixFactor; only the
scalar field and the chart differ. Each matrix kind's chart is one
_chart(k) table, which one to_dense and one from_dense read for both
fields. parse_algebra reads descriptors such as 'sym:2,spin:3':
kind:size tokens, each size in ASCII digits.

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

    def rebuild(self, basis, lam: np.ndarray) -> np.ndarray:
        return lam

    def random_basis(self, rng: np.random.Generator, shape: tuple):
        return None


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

    def rebuild(self, w: np.ndarray, lam: np.ndarray) -> np.ndarray:
        x0 = (lam[..., 0] + lam[..., 1]) / 2.0
        xb = w * ((lam[..., 0] - lam[..., 1]) / 2.0)[..., None]
        return np.concatenate([x0[..., None], xb], axis=-1) * _SQRT2

    def random_basis(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        w = rng.standard_normal(shape + (self.dim - 1,))
        return w / np.linalg.norm(w, axis=-1, keepdims=True)


class _MatrixFactor(_Factor):
    """Self-adjoint k x k matrices over the scalar field `field` (float or
    complex) with the symmetrized product (XY+YX)/2. A subclass gives the
    chart as one table, _chart(k) -> (i, j, part): chart entry c holds
    part part[c] (0 real, 1 imaginary) of dense entry (i[c], j[c]), i <= j,
    scaled by sqrt(2) off the diagonal. Both codecs read that table."""

    field: type

    def __init__(self, k: int):
        super().__init__(k)
        self.rank = k
        i, j, part = self._chart(k)
        self.dim = i.size
        self._scale = np.where(i == j, 1.0, _SQRT2)
        # float slots of the dense matrix's real view: 2 per entry for the complex field
        width = 2 if self.field is complex else 1
        upper, lower = (i * k + j) * width + part, (j * k + i) * width + part
        at = np.zeros(k * k * width, dtype=np.intp)
        at[upper] = at[lower] = np.arange(self.dim)
        # every index is in range, so the gathers take mode="clip": faster than the default "raise"
        self._dense_at, self._chart_at = upper, at
        if self.field is complex:  # conjugate the lower triangle; zero the imaginary diagonal
            self._sign = np.ones(at.size)
            self._sign[lower[part == 1]] = -1.0
            self._sign[1 :: 2 * (k + 1)] = 0.0

    def to_dense(self, u: np.ndarray) -> np.ndarray:
        x = np.take(u / self._scale, self._chart_at, axis=-1, mode="clip")
        if self.field is complex:
            x *= self._sign
            x = x.view(complex)
        return x.reshape(u.shape[:-1] + (self.size, self.size))

    def from_dense(self, x: np.ndarray) -> np.ndarray:
        if self.field is complex:
            x = np.ascontiguousarray(x, dtype=complex).view(float)
        flat = x.reshape(x.shape[:-2] + (self._chart_at.size,))  # a matrix of the wrong size raises
        out = np.take(flat, self._dense_at, axis=-1, mode="clip")
        out *= self._scale
        return out

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

    def rebuild(self, q: np.ndarray, lam: np.ndarray) -> np.ndarray:
        # q.conj() is q itself on a real array: a copy for the complex field only
        return self.from_dense((q * lam[..., None, :]) @ q.conj().swapaxes(-1, -2))

    def random_basis(self, rng: np.random.Generator, shape: tuple) -> np.ndarray:
        """Haar-random unitaries of the field, shape shape + (k, k): QR of
        a Gaussian matrix with the phases of R's diagonal moved into Q
        (Mezzadri 2007); batched or not, each matrix is drawn the same way."""
        shape = shape + (self.size, self.size)
        g = rng.standard_normal(shape)
        if self.field is complex:
            g = g + 1j * rng.standard_normal(shape)
        q, r = np.linalg.qr(g)
        d = np.diagonal(r, axis1=-2, axis2=-1)
        return q * (d / np.abs(d))[..., None, :]


class SymMatrix(_MatrixFactor):
    """Real symmetric k x k matrices. Chart: the upper triangle in
    row-major order."""

    kind = "sym"
    field = float

    @staticmethod
    def _chart(k: int):
        i, j = np.triu_indices(k)
        return i, j, np.zeros_like(i)


class HermMatrix(_MatrixFactor):
    """Complex Hermitian k x k matrices. Chart: the k diagonal entries,
    then the real parts of the upper off-diagonal entries in row-major
    order, then their imaginary parts in the same order."""

    kind = "herm"
    field = complex

    @staticmethod
    def _chart(k: int):
        d = np.arange(k)
        i, j = np.triu_indices(k, 1)
        part = np.repeat([0, 0, 1], [k, i.size, i.size])
        return np.concatenate([d, i, i]), np.concatenate([d, j, j]), part


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

    def decomp(self, coords: np.ndarray) -> tuple[np.ndarray, list]:
        """(eigenvalues, bases): the eigenvalue vector as eigenvalues(coords)
        lays it out, and each factor's basis for rebuild."""
        lams, bases = zip(*(f.decomp(coords[..., sl]) for f, sl in zip(self.factors, self.slices)))
        return np.concatenate(lams, axis=-1), list(bases)

    def eigenvalues(self, coords: np.ndarray) -> np.ndarray:
        """Eigenvalue vector per batch entry, factor-concatenated: an rn
        block in chart order, every other block descending; not globally
        sorted. Computes no Jordan frame."""
        return np.concatenate(
            [f.eigvals(coords[..., sl]) for f, sl in zip(self.factors, self.slices)], axis=-1
        )

    def rebuild(self, bases: list, lam: np.ndarray) -> np.ndarray:
        parts = [f.rebuild(b, lam[..., rsl]) for f, b, rsl in zip(self.factors, bases, self.rank_slices)]
        return np.concatenate(parts, axis=-1)

    def random_frame(self, rng: np.random.Generator) -> np.ndarray:
        """A random Jordan frame, shape (rank, dim), row j rebuilt at e_j;
        C-ordered, so products with it take one BLAS path on every algebra."""
        bases = [f.random_basis(rng, ()) for f in self.factors]
        return np.ascontiguousarray(self.rebuild(bases, np.eye(self.rank)))

    def random_idempotents(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """count primitive idempotents, shape (count, dim): each is row j of
        its own random Jordan frame, j uniform over the rank, with only
        that row rebuilt. Draw order: the count j's, then each factor's
        random_basis for the rows that fall in it, factor by factor."""
        picks = rng.integers(self.rank, size=count)
        out = np.zeros((count, self.dim))
        for f, sl, rsl in zip(self.factors, self.slices, self.rank_slices):
            at = np.flatnonzero((picks >= rsl.start) & (picks < rsl.stop))
            if at.size:
                lam = np.eye(f.rank)[picks[at] - rsl.start]
                out[at, sl] = f.rebuild(f.random_basis(rng, (at.size,)), lam)
        return out


def parse_algebra(descriptor: str) -> Algebra:
    """Parse the descriptor grammar, e.g. 'rn:5', 'spin:4', 'sym:2,spin:3':
    comma-separated kind:size tokens, each size in ASCII digits. Every
    malformed, unknown, too small or too large token raises DescriptorError."""
    kinds = {cls.kind: cls for cls in (RealLines, Spin, SymMatrix, HermMatrix)}
    if not descriptor or not descriptor.strip():
        raise DescriptorError("empty algebra descriptor")
    factors: list = []
    for tok in descriptor.split(","):
        tok = tok.strip()
        kind, colon, num = tok.partition(":")
        kind, num = kind.strip().lower(), num.strip()
        if not colon:
            raise DescriptorError(f"malformed factor {tok!r} (expected kind:size)")
        if not (num.isascii() and num.isdigit()):
            raise DescriptorError(f"malformed factor size in {tok!r} (expected ASCII digits)")
        if kind not in kinds:
            raise DescriptorError(f"unknown factor kind {kind!r}")
        try:  # a size no factor can hold is a bad descriptor too, not an int or NumPy error
            fac = kinds[kind](int(num))  # checks the size against the kind's min_size
            if isinstance(fac, RealLines) and factors and isinstance(factors[-1], RealLines):
                fac = RealLines(factors.pop().size + fac.size)
            fac.unit_coords()  # the one array of a factor that its constructor may not build
        except (ValueError, MemoryError):
            raise DescriptorError(f"factor {tok!r} is too large to build") from None
        factors.append(fac)
    return Algebra(tuple(factors))
