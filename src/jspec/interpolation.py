"""Interpolation bounds for mixed operator norms, their falsification
checks, and a numerical walk-through of the underlying three-lines
argument.

The walk-through works on chart arrays: the analytic family's values
are complex chart-coordinate rows, built from each operand's
eigenvalues and Jordan frame rows.

Claim catalog (project numbering, used across reports and the CLI):
  claim 1   ||T||_{p->p} <= ||T||_{p0->p0}^(1-theta) ||T||_{p1->p1}^theta
            with 1/p = (1-theta)/p0 + theta/p1 (constant 1).
  claim 2   ||T||_{r_theta->s_theta} <= C M0^(1-theta) M1^theta with
            C = max{c_{r0} c_{s0'}, c_{r1} c_{s1'}} and harmonic
            interpolation of both exponent pairs; a theta-dependent
            variant uses max{(c_{r0} c_{s0'})^(1-theta),
            (c_{r1} c_{s1'})^theta}.
  claim 4   off-diagonal specialization of claim 2 through the corner
            exponents, constant 2 sqrt(2), with a sharpened
            theta-dependent constant.
Here c_p is the complex-splitting constant (cp_constant).

A check never proves the bound: the estimator returns lower bounds for
every norm in sight. A reported violation means the certified lower
bound for the left side exceeded the plug-in right side even after
re-estimating everything with more restarts.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .elements import Element, _sorted_spectrum, inner_product, is_invertible, p_norm
from .errors import DegenerateInputError, UnsupportedCaseError
from .exponents import ExponentLike, ExtExponent, cp_constant, interpolate
from .linmaps import (
    _SQRT8,
    EstimatorConfig,
    LinearMap,
    estimate_many,
    op_norm_estimate,  # noqa: F401  re-exported: bench/test_harness.py looks it up here
)
from .reports import exponent_to_json

# relative slack separating numerical noise from a real counterexample
VIOLATION_RTOL = 1e-8


# -- exponent pairs and constants ---------------------------------------


@dataclass(frozen=True)
class ExponentPair:
    """Endpoint exponents (r0, s0) and (r1, s1) for interpolation."""

    r0: ExtExponent
    r1: ExtExponent
    s0: ExtExponent
    s1: ExtExponent

    @classmethod
    def of(cls, r0: ExponentLike, r1: ExponentLike, s0: ExponentLike, s1: ExponentLike) -> "ExponentPair":
        return cls(*(ExtExponent.coerce(p) for p in (r0, r1, s0, s1)))

    def at(self, theta: float) -> tuple[ExtExponent, ExtExponent]:
        return interpolate(self.r0, self.r1, theta), interpolate(self.s0, self.s1, theta)

    def endpoint_factor(self, j: int) -> float:
        r, s = (self.r0, self.s0) if j == 0 else (self.r1, self.s1)
        return cp_constant(r) * cp_constant(s.conjugate)


def theorem2_constant(pair: ExponentPair) -> float:
    """max of the two endpoint factors c_r c_{s'}; lies in [1, 4]."""
    return max(pair.endpoint_factor(0), pair.endpoint_factor(1))


def theorem2_constant_theta(pair: ExponentPair, theta: float) -> float:
    """Sharper theta-dependent constant max{k0^(1-theta), k1^theta}."""
    return max(pair.endpoint_factor(0) ** (1.0 - theta), pair.endpoint_factor(1) ** theta)


# -- bound reports -------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    """One falsification instance: certified lower bound for the left
    side against the plug-in right side. margin = rhs - lhs_lower;
    violated means the margin stayed below -VIOLATION_RTOL * rhs after
    the re-run protocol."""

    theorem: str
    algebra: str
    exponents: dict
    theta: float
    lhs_lower: float
    rhs: float
    constant: float
    margin: float
    violated: bool
    seeds: dict

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, d: dict) -> "BoundReport":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _estimates(t: LinearMap, pairs: tuple, cfg: EstimatorConfig) -> list[float]:
    """Lower bounds for ||T||_{r->s} at each (r, s), from one estimate_many call."""
    return [est.lower_bound for est in estimate_many([(t, r, s, cfg) for r, s in pairs])]


class BoundCase(NamedTuple):
    """The bound one check tests: ||T||_{lhs} <= constant M0^(1-theta)
    M1^theta with Mj = ||T||_{endj}, each norm given by its (r, s)."""

    theorem: str
    lhs: tuple[ExtExponent, ExtExponent]
    end0: tuple[ExtExponent, ExtExponent]
    end1: tuple[ExtExponent, ExtExponent]
    theta: float
    constant: float

    @property
    def norms(self) -> tuple:
        """The (r, s) of the three norms the check estimates, in the order
        of its first= bounds: lhs, end0, end1."""
        return self.lhs, self.end0, self.end1


def _interp_report(
    t: LinearMap,
    case: BoundCase,
    cfg: EstimatorConfig,
    first: Sequence[float] | None = None,
) -> BoundReport:
    """Shared check core: tests case on t. Estimates the three norms of
    case.norms with matched seeds, so degenerate instances (equal
    exponent pairs, theta at an endpoint) cancel exactly: equal endpoint
    norms give the right side constant * M0 with no powers, and at theta 0
    or 1 the powers are exact; near-violations
    trigger one re-estimation pass at 4x restarts with a shifted seed,
    keeping the max (still a valid lower bound for each norm). first
    holds the first pass's lower bounds for case.norms, estimated with
    cfg, when the caller already has them: the campaign suites estimate
    many trials' first passes in one estimate_many call. The
    re-estimation pass is always made here, one call per check."""
    lhs, m0, m1 = _estimates(t, case.norms, cfg) if first is None else first
    seeds = {"estimator": cfg.seed, "rerun": None}

    def rhs_of(m0v, m1v):
        # equal endpoint norms give constant * m0 exactly; the powers
        # m0^(1-theta) m0^theta can round away from m0
        if m0v == m1v:
            return case.constant * m0v
        return case.constant * m0v ** (1.0 - case.theta) * m1v ** case.theta

    rhs = rhs_of(m0, m1)
    margin = rhs - lhs
    if margin < -VIOLATION_RTOL * max(rhs, 1e-30):
        wide = replace(cfg, restarts=4 * cfg.restarts, seed=cfg.seed + 101)
        lhs_w, m0_w, m1_w = _estimates(t, case.norms, wide)
        lhs, m0, m1 = max(lhs, lhs_w), max(m0, m0_w), max(m1, m1_w)
        rhs = rhs_of(m0, m1)
        margin = rhs - lhs
        seeds["rerun"] = wide.seed
    violated = bool(margin < -VIOLATION_RTOL * max(rhs, 1e-30))
    exps = {
        "r0": exponent_to_json(case.end0[0].value), "s0": exponent_to_json(case.end0[1].value),
        "r1": exponent_to_json(case.end1[0].value), "s1": exponent_to_json(case.end1[1].value),
        "r_theta": exponent_to_json(case.lhs[0].value), "s_theta": exponent_to_json(case.lhs[1].value),
    }
    return BoundReport(
        theorem=case.theorem,
        algebra=t.algebra.descriptor,
        exponents=exps,
        theta=float(case.theta),
        lhs_lower=float(lhs),
        rhs=float(rhs),
        constant=float(case.constant),
        margin=float(margin),
        violated=violated,
        seeds=seeds,
    )


def theorem1_case(p0: ExponentLike, p1: ExponentLike, theta: float) -> BoundCase:
    """Diagonal interpolation with constant 1: ||T||_{p->p} at p = p_theta,
    against the endpoints p0 and p1."""
    a, b = ExtExponent.coerce(p0), ExtExponent.coerce(p1)
    pt = interpolate(a, b, theta)
    return BoundCase("theorem1", (pt, pt), (a, a), (b, b), theta, 1.0)


def theorem2_case(pair: ExponentPair, theta: float, theta_constant: bool = False) -> BoundCase:
    """Full two-exponent interpolation with constant C (or its
    theta-dependent sharpening)."""
    if theta_constant:
        name, c = "theorem2-theta", theorem2_constant_theta(pair, theta)
    else:
        name, c = "theorem2", theorem2_constant(pair)
    return BoundCase(name, pair.at(theta), (pair.r0, pair.s0), (pair.r1, pair.s1), theta, c)


def corollary4_case(r: ExponentLike, s: ExponentLike, improved: bool = False) -> BoundCase:
    """Off-diagonal corner specialization: for r < s interpolate between
    (inf, inf) and (1, s/r) at theta = 1/r; for r > s between (inf, inf)
    and (r/s, 1) at theta = 1/s. Constant 2 sqrt(2), or its
    theta-sharpened power when improved=True."""
    rex, sex = ExtExponent.coerce(r), ExtExponent.coerce(s)
    if rex == sex:
        raise UnsupportedCaseError("corner interpolation needs r != s")
    inf = ExtExponent(math.inf)
    if rex.value < sex.value:
        theta = rex.inv
        end1 = (ExtExponent(1.0), ExtExponent(sex.value / rex.value))
    else:
        theta = sex.inv
        end1 = (ExtExponent(rex.value / sex.value), ExtExponent(1.0))
    constant = _SQRT8 ** max(1.0 - theta, theta) if improved else _SQRT8
    name = "corollary4-improved" if improved else "corollary4"
    return BoundCase(name, (rex, sex), (inf, inf), end1, theta, constant)


def check_theorem1(
    t: LinearMap,
    p0: ExponentLike,
    p1: ExponentLike,
    theta: float,
    cfg: EstimatorConfig | None = None,
    first: Sequence[float] | None = None,
) -> BoundReport:
    """Check theorem1_case(p0, p1, theta) on t. first optionally holds the
    lower bounds of its norms (BoundCase.norms) that estimate_many
    already returned for cfg, so the first pass is not estimated again."""
    return _interp_report(t, theorem1_case(p0, p1, theta), cfg or EstimatorConfig(), first)


def check_theorem2(
    t: LinearMap,
    pair: ExponentPair,
    theta: float,
    cfg: EstimatorConfig | None = None,
    theta_constant: bool = False,
    first: Sequence[float] | None = None,
) -> BoundReport:
    """Check theorem2_case(pair, theta, theta_constant) on t; first as in
    check_theorem1."""
    return _interp_report(t, theorem2_case(pair, theta, theta_constant), cfg or EstimatorConfig(), first)


def check_corollary4(
    t: LinearMap,
    r: ExponentLike,
    s: ExponentLike,
    cfg: EstimatorConfig | None = None,
    improved: bool = False,
    first: Sequence[float] | None = None,
) -> BoundReport:
    """Check corollary4_case(r, s, improved) on t; first as in
    check_theorem1."""
    return _interp_report(t, corollary4_case(r, s, improved), cfg or EstimatorConfig(), first)


# -- three lines walk-through -------------------------------------------


@dataclass(frozen=True, eq=False)
class ThreeLinesReport:
    """Sampled data for one run of the analytic-family argument.

    phi(z) = <T~(a_z), b_z> on the unit strip, where a_z deforms a
    through its own frame (exponent alpha(z)/alpha on |eigenvalue|) and
    b_z deforms b with exponent (1-beta(z))/(1-beta). At z = theta the
    family returns the original pairing. Sups are over the sampled grid
    on the two boundary lines, so they are lower bounds for the true
    line sups; geometric_bound is their interpolated product."""

    theta: float
    phi_theta: complex
    pairing: float
    pairing_error: float
    sup_line0: float
    sup_line1: float
    geometric_bound: float
    grid_im: np.ndarray
    abs_line0: np.ndarray
    abs_line1: np.ndarray

    @property
    def geometric_slack(self) -> float:
        """geometric_bound - |phi(theta)| (>= -eps when the bound holds)."""
        return self.geometric_bound - abs(self.phi_theta)


def _family_weights(lam: np.ndarray, expo: np.ndarray) -> np.ndarray:
    """|lam_j| ** expo for a complex grid of exponents, principal branch.

    lam has no zero entries (invertibility is checked by the caller).
    Returns shape (grid, n)."""
    return np.exp(np.log(np.abs(lam))[None, :] * expo[:, None])


def three_lines_demo(
    t: LinearMap,
    a: Element,
    b: Element,
    pair: ExponentPair,
    theta: float,
    grid_points: int = 401,
    grid_span: float = 10.0,
) -> ThreeLinesReport:
    """Evaluate the analytic family behind the interpolation bound.

    a and b are normalized to ||a||_{r_theta} = ||b||_{s_theta'} = 1 and
    must be invertible (all eigenvalues away from zero); the family
    needs |eigenvalue|^z. Exponent degeneracies (r_theta = inf on the a
    side, s_theta = 1 on the b side) force both endpoints to the same
    value, and the family is constant there by convention.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta!r}")
    rt, st = pair.at(theta)
    na, nb = p_norm(a, rt), p_norm(b, st.conjugate)
    if na <= 0 or nb <= 0:
        raise DegenerateInputError("three-lines family needs nonzero a and b")
    a = Element(a.algebra, a.coords / na)
    b = Element(b.algebra, b.coords / nb)
    for label, v in (("a", a), ("b", b)):
        if not is_invertible(v, tol=1e-8 * max(1.0, p_norm(v, "inf"))):
            raise DegenerateInputError(f"three-lines family needs invertible {label}")

    # the stable decreasing order fixes the summation order of the coordinates
    (lam_a, frame_a), (lam_b, frame_b) = _sorted_spectrum(a), _sorted_spectrum(b)
    eps_a = np.where(lam_a >= 0, 1.0, -1.0)
    eps_b = np.where(lam_b >= 0, 1.0, -1.0)

    alpha0, alpha1, alpha = pair.r0.inv, pair.r1.inv, rt.inv
    beta0, beta1, beta = pair.s0.inv, pair.s1.inv, st.inv

    im = np.linspace(-grid_span, grid_span, grid_points)
    z0, z1 = 1j * im, 1.0 + 1j * im
    z_all = np.concatenate([z0, z1, [complex(theta)]])

    if alpha == 0.0:
        # r_theta = inf forces r0 = r1 = inf: constant family
        wa = np.tile(np.abs(lam_a), (z_all.size, 1)).astype(complex)
    else:
        wa = _family_weights(lam_a, ((1 - z_all) * alpha0 + z_all * alpha1) / alpha)
    if beta == 1.0:
        # s_theta = 1 forces s0 = s1 = 1: constant family
        wb = np.tile(np.abs(lam_b), (z_all.size, 1)).astype(complex)
    else:
        wb = _family_weights(lam_b, (1 - ((1 - z_all) * beta0 + z_all * beta1)) / (1 - beta))

    a_coords = (eps_a * wa) @ frame_a
    b_coords = (eps_b * wb) @ frame_b
    ta = a_coords @ t.matrix.T
    phi = np.einsum("gk,gk->g", ta, np.conj(b_coords))

    m = grid_points
    abs0, abs1 = np.abs(phi[:m]), np.abs(phi[m:2 * m])
    phi_theta = complex(phi[-1])
    sup0, sup1 = float(abs0.max()), float(abs1.max())
    pairing = inner_product(t(a), b)

    return ThreeLinesReport(
        theta=float(theta),
        phi_theta=phi_theta,
        pairing=float(pairing),
        pairing_error=abs(phi_theta - pairing),
        sup_line0=sup0,
        sup_line1=sup1,
        geometric_bound=sup0 ** (1.0 - theta) * sup1 ** theta,
        grid_im=im,
        abs_line0=abs0,
        abs_line1=abs1,
    )
