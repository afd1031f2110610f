"""Extended exponents p in [1, inf] and vector p-norms.

Infinity is carried exactly (math.inf), conjugation follows 1/p + 1/q = 1
with the conventions 1' = inf and inf' = 1, and harmonic interpolation
1/p_theta = (1-theta)/p0 + theta/p1 reproduces the endpoints exactly at
theta in {0, 1}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

ExponentLike = Union["ExtExponent", int, float, str]

INF = math.inf


@dataclass(frozen=True, order=True)
class ExtExponent:
    """An exponent p in [1, inf], with inf stored as math.inf."""

    value: float

    def __post_init__(self):
        if isinstance(self.value, (bool, np.bool_)):
            raise TypeError(f"exponent must be a number, not {self.value!r}")
        v = float(self.value)
        if math.isnan(v) or v < 1.0:
            raise ValueError(f"exponent must lie in [1, inf], got {self.value!r}")
        object.__setattr__(self, "value", v)

    @classmethod
    def coerce(cls, p: ExponentLike) -> "ExtExponent":
        """Accept ExtExponent, number, or string ('inf', '3', '4/3')."""
        if isinstance(p, ExtExponent):
            return p
        if isinstance(p, str):
            tok = p.strip().lower()
            if tok in ("inf", "infinity", "oo", "∞"):
                return cls(INF)
            if "/" in tok:
                try:
                    return cls(float(Fraction(tok)))
                except ZeroDivisionError:  # one error type for every bad string
                    raise ValueError(f"exponent {p!r} has a zero denominator") from None
            return cls(float(tok))
        return cls(p)

    @classmethod
    def from_inverse(cls, t: float) -> "ExtExponent":
        """Build p from 1/p; t = 0 maps to inf."""
        if t < -1e-15 or t > 1.0 + 1e-15:
            raise ValueError(f"1/p must lie in [0, 1], got {t!r}")
        if t <= 0.0:
            return cls(INF)
        return cls(1.0 / min(t, 1.0))

    @property
    def is_inf(self) -> bool:
        return math.isinf(self.value)

    @property
    def inv(self) -> float:
        """1/p with 1/inf = 0."""
        return 0.0 if self.is_inf else 1.0 / self.value

    @property
    def conjugate(self) -> "ExtExponent":
        """q with 1/p + 1/q = 1; conjugate(1) = inf, conjugate(inf) = 1."""
        if self.is_inf:
            return ExtExponent(1.0)
        if self.value == 1.0:
            return ExtExponent(INF)
        return ExtExponent(self.value / (self.value - 1.0))

    def __float__(self) -> float:
        return self.value

    def __str__(self) -> str:
        if self.is_inf:
            return "inf"
        if self.value == int(self.value):
            return str(int(self.value))
        return repr(self.value)


def conjugate(p: ExponentLike) -> ExtExponent:
    return ExtExponent.coerce(p).conjugate


def interpolate(p0: ExponentLike, p1: ExponentLike, theta: float) -> ExtExponent:
    """Harmonic interpolation 1/p_theta = (1-theta)/p0 + theta/p1."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    a, b = ExtExponent.coerce(p0), ExtExponent.coerce(p1)
    # endpoints and equal exponents return exactly, not through float division
    if theta == 0.0 or a == b:
        return a
    if theta == 1.0:
        return b
    return ExtExponent.from_inverse((1.0 - theta) * a.inv + theta * b.inv)


def vector_pnorm(x: np.ndarray, p: ExponentLike) -> np.ndarray:
    """p-norm of x along the last axis; returns a scalar for 1-d input."""
    p = ExtExponent.coerce(p)
    ax = np.abs(np.asarray(x, dtype=float))
    if p.is_inf:
        return ax.max(axis=-1)
    if p.value == 1.0:
        return ax.sum(axis=-1)
    if p.value == 2.0:
        # a power of two per row keeps every square finite and normal; the
        # scaling is exact, so results equal the unscaled sum wherever its
        # squares were normal numbers
        k = np.frexp(ax.max(axis=-1, keepdims=True))[1]
        y = np.ldexp(ax, -k)
        return np.ldexp(np.sqrt((y * y).sum(axis=-1)), k[..., 0])
    # factor out the max so large p never overflows the power
    m = ax.max(axis=-1)
    safe = np.where(m > 0.0, m, 1.0)
    scaled = ax / safe[..., None]
    return m * (scaled ** p.value).sum(axis=-1) ** (1.0 / p.value)


def cp_constant(p: ExponentLike) -> float:
    """Largest value of ||x||_p + ||y||_p over x + iy in the complex unit
    p-ball: sqrt(2) for p in [1, 2] and 2^(1/q) for p in [2, inf] with q
    conjugate to p (so the value 2 at p = inf)."""
    p = ExtExponent.coerce(p)
    if p.value <= 2.0:
        return math.sqrt(2.0)
    return 2.0 ** p.conjugate.inv if not p.is_inf else 2.0
