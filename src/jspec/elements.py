"""Elements of a Jordan algebra: arithmetic, spectral decomposition,
spectral p-norms, spectral functions, and random sampling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .algebra import Algebra
from .errors import AlgebraMismatchError, NonFiniteInputError
from .exponents import ExponentLike, vector_pnorm


@dataclass(frozen=True, eq=False)
class Element:
    """A point of the algebra in orthonormal chart coordinates."""

    algebra: Algebra
    coords: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coords, dtype=float)
        if c.shape != (self.algebra.dim,):
            raise ValueError(
                f"coords must have shape ({self.algebra.dim},), got {c.shape}"
            )
        if not np.isfinite(c).all():
            raise NonFiniteInputError("element coords must be finite")
        c = c.copy()
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

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
        """Euclidean chart norm, equal to the spectral 2-norm."""
        return float(np.linalg.norm(self.coords))

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
    lam, decs = a.algebra.decomp(a.coords)
    order = np.argsort(-lam, kind="stable")
    return lam[order], a.algebra.frame_coords(decs)[order]


def spectral_decomposition(a: Element) -> SpectralDecomposition:
    """Eigenvalues (decreasing) with a Jordan frame of primitive idempotents."""
    lam, frames = _sorted_spectrum(a)
    return SpectralDecomposition(eigenvalues=lam, frame=tuple(Element(a.algebra, f) for f in frames))


def p_norm(a: Element, p: ExponentLike) -> float:
    """Spectral p-norm ||a||_p = ||lambda(a)||_p."""
    return float(vector_pnorm(a.algebra.eigenvalues(a.coords), p))


def is_invertible(a: Element, tol: float = 1e-12) -> bool:
    """True iff every eigenvalue exceeds tol in absolute value."""
    if tol < 0.0:
        raise ValueError("tol must be nonnegative")
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
    lam = np.asarray(spectrum, dtype=float)
    if lam.shape != (alg.rank,):
        raise ValueError(
            f"spectrum must have length rank={alg.rank}, got {lam.shape}"
        )
    frame = alg.random_frame(rng)
    return Element(alg, lam @ frame)
