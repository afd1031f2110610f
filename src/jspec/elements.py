"""Elements of a Jordan algebra: arithmetic, spectral decomposition,
spectral p-norms, spectral functions, and random sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import Algebra
from .errors import AlgebraMismatchError, check_tol, real_array
from .exponents import ExponentLike, ExtExponent, vector_pnorm


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra in orthonormal chart coordinates."""

    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coords", real_array(self.coords, (self.algebra.dim,), "element coords"))

    def __add__(self, other: "Element") -> "Element":
        _check_same(self, other)
        return Element(self.algebra, self.coords + other.coords)

    def __sub__(self, other: "Element") -> "Element":
        _check_same(self, other)
        return Element(self.algebra, self.coords - other.coords)

    def __neg__(self) -> "Element":
        return Element(self.algebra, -self.coords)

    def __mul__(self, t: float) -> "Element":
        return Element(self.algebra, self.coords * float(t))

    __rmul__ = __mul__

    def __truediv__(self, t: float) -> "Element":
        return Element(self.algebra, self.coords / float(t))

    def norm2(self) -> float:
        """Euclidean chart norm, equal to the spectral 2-norm; scaled, so
        it neither overflows nor flushes to 0 at extreme magnitudes."""
        return float(vector_pnorm(self.coords, 2))

    def __repr__(self):
        return f"Element({self.algebra.descriptor!r}, {np.array2string(self.coords, precision=4)})"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues sorted decreasing plus a matching Jordan frame."""

    eigenvalues: np.ndarray
    frame: tuple

    def reconstruct(self) -> Element:
        alg = self.frame[0].algebra
        coords = sum(
            lam * f.coords for lam, f in zip(self.eigenvalues, self.frame)
        )
        return Element(alg, coords)


def _check_same(a: Element, b: Element) -> None:
    if a.algebra != b.algebra:
        raise AlgebraMismatchError(
            f"operands live on {a.algebra.descriptor!r} and {b.algebra.descriptor!r}"
        )


def unit(alg: Algebra) -> Element:
    """The unit element e."""
    return Element(alg, alg.unit_coords())


def zero(alg: Algebra) -> Element:
    return Element(alg, np.zeros(alg.dim))


def jordan_product(a: Element, b: Element) -> Element:
    """The Jordan product a o b (commutative, bilinear, e o a = a)."""
    _check_same(a, b)
    return Element(a.algebra, a.algebra.jordan(a.coords, b.coords))


def inner_product(a: Element, b: Element) -> float:
    """Trace inner product <a, b> = tr(a o b) = dot of chart coordinates."""
    _check_same(a, b)
    return float(a.coords @ b.coords)


def trace(a: Element) -> float:
    return float(a.algebra.trace(a.coords))


def eigenvalues(a: Element) -> np.ndarray:
    """Eigenvalue vector lambda(a), sorted decreasing."""
    lam = a.algebra.eigenvalues(a.coords)
    order = np.argsort(-lam, kind="stable")
    return lam[order]


def _sorted_spectrum(a: Element) -> tuple[np.ndarray, np.ndarray]:
    """a's eigenvalues and its Jordan frame as chart rows, shape (rank,)
    and (rank, dim), in stable decreasing order of the eigenvalues."""
    lam, bases = a.algebra.decomp(a.coords)
    order = np.argsort(-lam, kind="stable")
    return lam[order], a.algebra.rebuild(bases, np.eye(a.algebra.rank))[order]


def spectral_decomposition(a: Element) -> SpectralDecomposition:
    """Eigenvalues (decreasing) with a Jordan frame of primitive idempotents."""
    lam, frames = _sorted_spectrum(a)
    return SpectralDecomposition(eigenvalues=lam, frame=tuple(Element(a.algebra, f) for f in frames))


def p_norm(a: Element, p: ExponentLike) -> float:
    """Spectral p-norm ||a||_p = ||lambda(a)||_p."""
    return float(vector_pnorm(a.algebra.eigenvalues(a.coords), p))


def row_pnorms(alg: Algebra, x: np.ndarray, p: ExponentLike) -> np.ndarray:
    """||x_i||_p of each chart row x_i, along the last axis.

    The chart is orthonormal for the trace inner product, so ||x||_2 is
    the rows' Euclidean norm, and since λ(x∘x) = λ(x)², ||x||_4² is the
    Euclidean norm of x∘x. Neither needs a decomposition; every other p
    reads vector_pnorm(alg.eigenvalues(x), p), as p_norm does."""
    p = ExtExponent.coerce(p)
    if p.value == 2.0:
        return vector_pnorm(x, 2)
    if p.value == 4.0:
        # a power of two per row keeps x∘x finite and is exact, so the
        # result for 2^j·x is 2^j times the result for x, bit for bit
        k = np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1]
        y = np.ldexp(x, -k)
        return np.ldexp(np.sqrt(vector_pnorm(alg.jordan(y, y), 2)), k[..., 0])
    return vector_pnorm(alg.eigenvalues(x), p)


def is_invertible(a: Element, tol: float = 1e-12) -> bool:
    """True iff every eigenvalue exceeds tol in absolute value."""
    check_tol("tol", tol)
    lam = a.algebra.eigenvalues(a.coords)
    return bool(np.abs(lam).min() > tol)


def random_element(
    alg: Algebra,
    seed: int | np.random.Generator,
    spectrum: Sequence[float] | None = None,
) -> Element:
    """Random element: i.i.d. standard normal chart coordinates, or, when a
    spectrum is given, sum lam_i e_i over a random Jordan frame."""
    rng = np.random.default_rng(seed)
    if spectrum is None:
        return Element(alg, rng.standard_normal(alg.dim))
    lam = real_array(spectrum, (alg.rank,), "spectrum")
    return Element(alg, lam @ alg.random_frame(rng))
