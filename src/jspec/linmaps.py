"""Linear transformations on the algebra: constructors, adjoints,
closed-form operator norms, and a multistart lower-bound estimator for
||T||_{r->s} = sup ||T(a)||_s / ||a||_r.

The estimator alternates two exact half-steps on the bilinear form
<T(a), b>: with a fixed, the maximizing unit-||.||_{s'} element b is the
dual-norm peak of T(a); with b fixed, the maximizing unit-||.||_r element
a is the peak of T*(b). Each half-step is closed-form, so the objective
never decreases; the result is a certified lower bound with witnesses,
not a claim of global optimality.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .algebra import Algebra, SymMatrix
from .elements import Element, jordan_product, p_norm, unit, _check_same
from .errors import (
    AlgebraMismatchError,
    DegenerateInputError,
    NonFiniteInputError,
    UnsupportedCaseError,
)
from .exponents import ExponentLike, ExtExponent, cp_constant, vector_pnorm

_SQRT8 = 2.0 * math.sqrt(2.0)
_ZERO_EIG = 1e-14
# full iterations without a rise of a problem's best value before it
# leaves the stack
_PATIENCE = 5
# rows x dim floats that _peak_stack decomposes in one block
_PEAK_FLOATS = 2**13


@dataclass(frozen=True, eq=False)
class LinearMap:
    """A linear transformation stored as a dense matrix over the chart.

    The chart is orthonormal, so the adjoint is the transpose.
    """

    algebra: Algebra
    matrix: np.ndarray

    def __post_init__(self):
        d = self.algebra.dim
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (d, d):
            raise ValueError(f"matrix must have shape ({d}, {d}), got {m.shape}")
        if not np.isfinite(m).all():
            raise NonFiniteInputError("map matrix must be finite")
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def __call__(self, v: Element) -> Element:
        if v.algebra != self.algebra:
            raise AlgebraMismatchError("element lives on a different algebra")
        return Element(self.algebra, self.matrix @ v.coords)

    @property
    def adjoint(self) -> "LinearMap":
        return LinearMap(self.algebra, self.matrix.T)


def identity_map(alg: Algebra) -> LinearMap:
    return LinearMap(alg, np.eye(alg.dim))


def adjoint(t: LinearMap) -> LinearMap:
    return t.adjoint


def lyapunov(a: Element) -> LinearMap:
    """Multiplication operator v -> a o v (self-adjoint)."""
    alg = a.algebra
    rows = alg.jordan(a.coords[None, :], np.eye(alg.dim))
    return LinearMap(alg, rows.T)


def quadratic_rep(a: Element) -> LinearMap:
    """Quadratic representation v -> 2 a o (a o v) - a^2 o v."""
    la = lyapunov(a).matrix
    lasq = lyapunov(jordan_product(a, a)).matrix
    return LinearMap(a.algebra, 2.0 * la @ la - lasq)


def congruence(a_mat: np.ndarray, alg: Algebra) -> LinearMap:
    """X -> A X A^T on a single real-symmetric factor; adjoint is the
    congruence by A^T. Preserves positive semidefiniteness."""
    if len(alg.factors) != 1 or not isinstance(alg.factors[0], SymMatrix):
        raise UnsupportedCaseError("congruence needs an algebra with a single sym:k factor")
    fac = alg.factors[0]
    a_mat = np.asarray(a_mat, dtype=float)
    if a_mat.shape != (fac.size, fac.size):
        raise ValueError(f"matrix must be {fac.size} x {fac.size}")
    basis = fac.to_dense(np.eye(alg.dim))
    out = a_mat @ basis @ a_mat.T
    return LinearMap(alg, fac.from_dense(out).T)


def reflection_mixture(units: Sequence[Element], weights: Sequence[float] | None = None) -> LinearMap:
    """Convex combination of quadratic representations of square roots of
    the unit (u o u = e). Each term is a positive map fixing e, so the
    mixture is doubly stochastic."""
    if not units:
        raise ValueError("need at least one mixing element")
    alg = units[0].algebra
    e = unit(alg)
    for u in units:
        _check_same(u, e)
        resid = np.linalg.norm(jordan_product(u, u).coords - e.coords)
        if resid > 1e-8:
            raise ValueError(f"mixing element is not a unit square root (residual {resid:.2e})")
    if weights is None:
        w = np.full(len(units), 1.0 / len(units))
    else:
        w = np.asarray(weights, dtype=float)
        if w.shape != (len(units),):
            raise ValueError("need one weight per element")
        if not np.isfinite(w).all():
            raise NonFiniteInputError("weights must be finite")
        if np.any(w < 0) or w.sum() <= 0:
            raise ValueError("weights must be nonnegative with a positive sum")
        w = w / w.sum()
    m = sum(wi * quadratic_rep(u).matrix for wi, u in zip(w, units))
    return LinearMap(alg, m)


def random_doubly_stochastic(alg: Algebra, seed: int | np.random.Generator, terms: int = 4) -> LinearMap:
    """Random doubly stochastic map: mixture of quadratic representations
    P_u with u = sum +/- e_i over random Jordan frames."""
    rng = np.random.default_rng(seed)
    units = []
    for _ in range(terms):
        frame = alg.random_frame(rng)
        signs = rng.integers(0, 2, alg.rank) * 2.0 - 1.0
        units.append(Element(alg, signs @ frame))
    weights = rng.dirichlet(np.ones(terms))
    return reflection_mixture(units, weights)


def random_map(alg: Algebra, seed: int | np.random.Generator) -> LinearMap:
    """Gaussian random map on the chart (campaign fodder)."""
    rng = np.random.default_rng(seed)
    return LinearMap(alg, rng.standard_normal((alg.dim, alg.dim)))


# -- dual-norm peaks ----------------------------------------------------


def _peak_spectrum(lam: np.ndarray, p: ExtExponent):
    """Eigenvalues of the batched dual-norm maximizer.

    lam holds one eigenvalue vector per row, shape (rows, rank). The new
    eigenvalues depend on p alone, so one decomposition serves every
    exponent. Second return value flags rows with a nonzero spectrum;
    zero rows map to zero.
    """
    alam = np.abs(lam)
    amax = alam.max(axis=-1)
    ok = amax > _ZERO_EIG
    if p.value == 1.0:
        # single idempotent: among the indices attaining max |lambda_j|,
        # the one with the largest lambda_j, the first of equal ones
        k = np.argmax(np.where(alam >= amax[..., None], lam, -np.inf), axis=-1)
        lam_new = np.zeros_like(lam)
        rows = np.arange(lam.shape[0])
        picked = lam[rows, k]
        lam_new[rows, k] = np.where(ok, np.where(picked >= 0, 1.0, -1.0), 0.0)
    elif p.is_inf:
        lam_new = np.where(lam >= 0.0, 1.0, -1.0) * ok[..., None]
    else:
        # work with |lambda| / max so q near the endpoints cannot overflow
        q = p.conjugate.value
        scaled = alam / np.where(ok, amax, 1.0)[..., None]
        qnorm = np.where(ok, vector_pnorm(scaled, q), 1.0)
        lam_new = np.sign(lam) * (scaled / qnorm[..., None]) ** (q - 1.0)
        lam_new *= ok[..., None]
    return lam_new, ok


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D integer array. np.unique does
    the same, but its first call maps about 1.3 MB more of NumPy into the
    process (ru_maxrss, NumPy 2.4)."""
    s = np.sort(keys)
    return s[np.concatenate(([True], s[1:] != s[:-1]))]


def _peak_stack(alg: Algebra, x: np.ndarray, exps: list, which: np.ndarray, src: np.ndarray | None = None):
    """Batched dual-norm maximizer: output i peaks the row c = x[src[i]]
    of x (shape (rows, dim)) at p = exps[which[i]]; src None means
    src[i] = i.

    For each output returns d with ||d||_p = 1 and <c, d> = ||c||_q (q
    conjugate to p), built in c's Jordan frame. Second return value flags
    nonzero rows; zero rows yield zero output. The chart is orthonormal
    for the trace form, so ||c||_2 is the Euclidean norm of c's
    coordinates and the p = 2 peak is c / ||c||_2; those outputs need no
    decomposition, and a row with ||c||_2 <= _ZERO_EIG is zero. All other
    outputs are taken in blocks of _PEAK_FLOATS floats of outputs x dim,
    each extended to the end of the run of neighbouring outputs that share
    its last source row; this bounds the decomposition's temporaries (each
    output does not depend on its block). In a block, each distinct source
    row is decomposed once, the spectral map runs once per distinct
    exponent, and every output is rebuilt; so a row whose outputs are
    neighbours, as when src is in row order, is decomposed once per call.
    estimate_many's ascent calls it once per half-step, after that
    half-step's one matmul, with src in row order: in the first iteration
    several problems' outputs share a row, later each row is its own
    source.
    """
    src = np.arange(len(which)) if src is None else src
    d, ok = np.empty((len(src), alg.dim)), np.empty(len(src), dtype=bool)
    two = np.array([p.value == 2.0 for p in exps])[which]
    if two.any():
        c = x[src[two]]
        nrm = np.linalg.norm(c, axis=-1)
        ok[two] = nrm > _ZERO_EIG
        d[two] = c / np.where(ok[two], nrm, np.inf)[:, None]
    rest = np.flatnonzero(~two)
    step = max(1, _PEAK_FLOATS // alg.dim)
    lo = 0
    while lo < len(rest):
        hi = lo + step  # extended to the end of its last source row's outputs
        while hi < len(rest) and src[rest[hi]] == src[rest[hi - 1]]:
            hi += 1
        sel, lo = rest[lo:hi], hi
        s, w = src[sel], which[sel]
        rows = _distinct(s)
        lam, decs = alg.decomp(x[rows])
        if len(rows) < len(s):
            at = np.searchsorted(rows, s)
            lam, decs = lam[at], [(dec[0][at], None if dec[1] is None else dec[1][at]) for dec in decs]
        lam_new, ok_sel = np.empty_like(lam), np.empty(len(sel), dtype=bool)
        for k, p in enumerate(exps):
            hit = w == k
            if hit.any():
                lam_new[hit], ok_sel[hit] = _peak_spectrum(lam[hit], p)
        d[sel], ok[sel] = alg.rebuild(decs, lam_new), ok_sel
        del decs, lam, lam_new  # not held through the next block
    return d, ok


def peak(c: Element, p: ExponentLike) -> Element:
    """The unit-||.||_p element d maximizing <c, d>; the maximum is
    ||c||_q with q conjugate to p."""
    pex = ExtExponent.coerce(p)
    d, ok = _peak_stack(c.algebra, c.coords[None], [pex], np.zeros(1, dtype=int))
    if not ok[0]:
        raise DegenerateInputError("peak of a (numerically) zero element")
    return Element(c.algebra, d[0])


# -- operator norm estimation ------------------------------------------


@dataclass(frozen=True)
class EstimatorConfig:
    """restarts, max_iters and seed are integers (TypeError otherwise, a
    bool included); restarts and max_iters >= 1, seed >= 0 and tol >= 0
    (ValueError otherwise); a nan or infinite tol raises
    NonFiniteInputError."""

    restarts: int = 64
    max_iters: int = 200
    tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        for name, low in (("restarts", 1), ("max_iters", 1), ("seed", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < low:
                raise ValueError(f"{name} must be >= {low}, got {value}")
        if not math.isfinite(self.tol):
            raise NonFiniteInputError(f"tol must be finite, got {self.tol}")
        if self.tol < 0.0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


@dataclass(frozen=True, eq=False)
class NormEstimate:
    """Certified lower bound for ||T||_{r->s} with attaining witnesses.

    stop says why the ascent ended: "zero-map", "stalled" (every restart
    stalled), "certified" (the bound is within tol * max(1, upper) of the
    upper bound sigma_max(T) n^max(0, 1/2 - 1/r) n^max(0, 1/s - 1/2), so
    within that distance of the true norm), "patience" (the best value
    stopped rising) or "max_iters".
    """

    lower_bound: float
    witness_a: Element
    witness_b: Element
    iterations: int
    converged: bool
    stop: str


def _starts(alg: Algebra, mat: np.ndarray, cfg: EstimatorConfig) -> tuple[np.ndarray, float]:
    """Start rows before normalization: the unit, the top right singular
    vector, primitive idempotents of random frames, then Gaussians; all
    draws come from one generator default_rng(cfg.seed), the frames in one
    Algebra.random_idempotents call (one batched QR per matrix factor)
    and the Gaussian rows in one call after them. The rows depend only on
    the algebra, mat, cfg.seed and cfg.restarts. Also returns
    sigma_max(mat), from the same SVD."""
    rng = np.random.default_rng(cfg.seed)
    n_sparse = min(cfg.restarts, 2 + cfg.restarts // 4)
    _, sv, vt = np.linalg.svd(mat)
    rows = np.concatenate([
        alg.unit_coords()[None],
        vt[:1],
        alg.random_idempotents(rng, max(0, n_sparse - 2)),
        rng.standard_normal((cfg.restarts - n_sparse, alg.dim)),
    ])
    return rows[:cfg.restarts], float(sv[0])


def estimate_many(problems: Sequence[tuple]) -> list[NormEstimate]:
    """Multistart alternating-duality ascent for many ||T||_{r->s} at once.

    Each problem is a tuple (t, r, s, cfg) with its own map, exponents
    and seed (cfg None means EstimatorConfig()). All maps live on one
    algebra, and cfg.restarts, cfg.max_iters and cfg.tol agree across
    problems (ValueError otherwise). Problems with the same map bytes,
    exponents and cfg are solved once and share one estimate; the call
    keeps one matrix per distinct map. The restarts of all distinct
    problems form one (problems, restarts, dim) stack. Since
    ||T*||_{s'->r'} = ||T||_{r->s}, both half-steps are one step: a -> b
    peaks T a in the s' ball, b -> a peaks T* b in the r ball, and each
    reads its objective off the rows it mapped. A half-step costs one
    matmul over the whole stack, then decompositions and rebuilds (in
    _peak_stack's row blocks) that cover only the restarts that have not
    stalled and whose exponent is not 2 (the p = 2 peak is c / ||c||_2).
    The first iteration is shared. Problems on one map with one seed have
    the same start rows up to each row's ||.||_r, and a peak does not
    depend on its row's scale, so the first a -> b half-step maps and
    decomposes their unnormalized start rows once, rebuilds once per s',
    and each problem reads its value as <T row, peak> / ||row||_r. That
    leaves equal b rows to the problems with one map, seed and s', so the
    b -> a half-step maps and decomposes T* b once for them and rebuilds
    per r. Later half-steps map each problem's own rows. A restart stalls
    after two half-steps in a row that raise its objective by at most
    tol * max(1, |objective|); the first half-step, which rises from
    -inf, never counts. With n = alg.rank,
    ||a||_2 <= n^max(0, 1/2 - 1/r) ||a||_r and ||b||_s <=
    n^max(0, 1/s - 1/2) ||b||_2, so ||T||_{r->s} <= upper = sigma_max(T)
    n^max(0, 1/2 - 1/r) n^max(0, 1/s - 1/2), which is tight for r <= 2
    <= s when T attains its 2 -> 2 norm there. A problem leaves the
    stack once all its restarts have stalled, once its best value
    reaches upper - tol * max(1, upper) (certified), once its best value
    has risen by at most tol * max(1, |best|) in each of _PATIENCE full
    iterations in a row, or at max_iters; the first rule that holds
    names the stop. A problem's start rows (see _starts) depend only on
    its map, cfg.seed and cfg.restarts, every value it reads comes from
    those rows by the same arithmetic whoever shares them, and every stop
    rule reads only the problem's own map, exponents and rows, so each
    result equals the one the problem gets alone. Returns one estimate
    per problem, in order; each is a valid lower bound, converged means
    its best restart stalled, and stop names the rule that ended it.
    """
    probs = [
        (t, ExtExponent.coerce(r), ExtExponent.coerce(s), cfg or EstimatorConfig())
        for t, r, s, cfg in problems
    ]
    if not probs:
        return []
    alg, cfg = probs[0][0].algebra, probs[0][3]
    for t, _, _, c in probs:
        if t.algebra != alg:
            raise AlgebraMismatchError("estimate_many needs every map on one algebra")
        if (c.restarts, c.max_iters, c.tol) != (cfg.restarts, cfg.max_iters, cfg.tol):
            raise ValueError("estimate_many needs one restarts, max_iters and tol for every problem")
    # a problem's key names its map by index: one byte copy per map object
    # finds the maps with equal bytes, and is dropped before the ascent
    maps: list = []
    index: dict = {}  # id(t) -> map index
    by_bytes: dict = {}
    keys = []
    for t, r, s, c in probs:
        if id(t) not in index:
            index[id(t)] = by_bytes.setdefault(t.matrix.tobytes(), len(by_bytes))
            if index[id(t)] == len(maps):
                maps.append(t.matrix)
        keys.append((index[id(t)], r, s, c))
    del by_bytes
    distinct = list(dict.fromkeys(keys))
    solved = dict(zip(distinct, _ascent(alg, cfg, np.stack(maps), distinct)))
    return [solved[key] for key in keys]


def _rise_tol(tol: float, v: np.ndarray):
    """tol * max(1, |v|), the largest rise from v that counts as none; 0 at
    tol = 0, where a -inf v (no value yet) would make 0 * inf."""
    return tol * np.maximum(1.0, np.abs(v)) if tol else 0.0


def _ascent(alg: Algebra, cfg: EstimatorConfig, maps: np.ndarray, probs: list) -> list[NormEstimate]:
    """estimate_many's ascent over distinct, coerced problems (m, r, s,
    cfg), each on the map matrix maps[m]."""
    e = alg.unit_coords()
    lam_e = alg.eigenvalues(e)

    def unit_at(p: ExtExponent) -> np.ndarray:  # the unit scaled to ||.||_p = 1
        return e / float(vector_pnorm(lam_e, p))

    out: list = [None] * len(probs)
    live = []
    for i, (m, rex, sex, _) in enumerate(probs):
        if np.any(maps[m]):
            live.append(i)
        else:
            wa, wb = Element(alg, unit_at(rex)), Element(alg, unit_at(sex.conjugate))
            out[i] = NormEstimate(0.0, wa, wb, 0, True, "zero-map")
    if not live:
        return out

    # one leading entry per problem still in the stack; the r and s'
    # exponents of both sides index one table of distinct exponents and
    # their units
    ids = np.array(live)
    exps = list(dict.fromkeys(p for i in live for p in (probs[i][1], probs[i][2].conjugate)))
    units = np.stack([unit_at(p) for p in exps])
    r_k = np.array([exps.index(probs[i][1]) for i in live])
    sp_k = np.array([exps.index(probs[i][2].conjugate) for i in live])
    mk = np.array([probs[i][0] for i in live])  # each problem's map
    # problems on one map with one seed share their start rows: groups maps
    # (seed, map) to a start group, member each problem to its group
    groups: dict = {}
    member = np.array([groups.setdefault((probs[i][3].seed, probs[i][0]), len(groups)) for i in live])
    drawn = [_starts(alg, maps[m], replace(cfg, seed=seed)) for seed, m in groups]
    starts = np.stack([rows for rows, _ in drawn])
    lam = alg.eigenvalues(starts)
    norm = np.empty((len(live), cfg.restarts))  # each start row's ||.||_r
    cert = np.empty(len(live))  # a best value at or above this is certified
    for j, i in enumerate(live):
        _, rex, sex, _ = probs[i]
        norm[j] = vector_pnorm(lam[member[j]], rex)
        sigma = drawn[member[j]][1]
        upper = sigma * alg.rank ** max(0.0, 0.5 - rex.inv) * alg.rank ** max(0.0, sex.inv - 0.5)
        cert[j] = upper - cfg.tol * max(1.0, upper)
    a_rows = starts[member] / norm[..., None]
    del lam, drawn
    b_rows = np.repeat(units[sp_k][:, None, :], cfg.restarts, axis=1)
    values = np.full((len(live), cfg.restarts), -np.inf)
    stall = np.zeros(values.shape, dtype=int)
    best = np.full(len(live), -np.inf)
    flat = np.zeros(len(live), dtype=int)  # full iterations without a rise of best
    # what the next half-step maps: (row sets, their maps, each problem's
    # row set, each row's divisor or None). The first maps each group's
    # unnormalized starts once, and a problem's value is <T row, peak> /
    # ||row||_r, since the peak does not depend on the row's scale; after
    # it, the problems of one group and one s' hold equal b rows, so the
    # next maps those once too; from then on each problem maps its own rows
    shared = (starts, np.array([m for _, m in groups]), member, norm)
    del starts

    for it in range(cfg.max_iters):
        # a -> b peaks T a in the s' ball; b -> a peaks T* b in the r ball
        for src, adj, dst, which in ((a_rows, True, b_rows, sp_k), (b_rows, False, a_rows, r_k)):
            rows, rmap, member, scale = shared or (src, mk, None, None)
            # only restarts that have not stalled take the step; a zero
            # peak falls back to the unit. The row sets' matrices are
            # gathered for the matmul alone, so the stack holds one per map
            idx = np.nonzero(stall < 2)
            mats = maps[rmap]
            tx = np.matmul(rows, mats.transpose(0, 2, 1) if adj else mats).reshape(-1, alg.dim)
            del mats
            # one peak per distinct (row, exponent) among the live restarts,
            # in row order; at maps each restart to its peak
            if member is None:
                out_row, w, at = idx[0] * cfg.restarts + idx[1], which[idx[0]], slice(None)
            else:
                key = (member[idx[0]] * cfg.restarts + idx[1]) * len(exps) + which[idx[0]]
                outs = _distinct(key)
                at = np.searchsorted(outs, key)
                out_row, w = np.divmod(outs, len(exps))
            cand, ok = _peak_stack(alg, tx, exps, w, out_row)
            cand[~ok] = units[w[~ok]]
            vals = np.einsum("ij,ij->i", tx[out_row], cand)[at]
            if scale is not None:
                vals /= scale[idx]
            cand = cand[at]
            old = values[idx]
            up = vals > old
            # the first half-step rises from -inf and is never small
            small = np.isfinite(old) & (vals - old <= _rise_tol(cfg.tol, old))
            dst[idx[0][up], idx[1][up]] = cand[up]
            values[idx] = np.where(up, vals, old)
            stall[idx] = np.where(small, stall[idx] + 1, 0)
            del tx, cand, vals, old  # not held through the next half-step
            shared = None
            if member is not None and up.all() and up.size == values.size:
                # every restart rose, so the problems of one row set and one
                # exponent now hold equal dst rows, and any of them (rep)
                # stands for all
                key = member * len(exps) + which
                pairs = _distinct(key)
                if len(pairs) < len(key):
                    member, rep = np.searchsorted(pairs, key), np.empty(len(pairs), dtype=int)
                    rep[member] = np.arange(len(key))
                    shared = (dst[rep], mk[rep], member, None)
        new_best = values.max(axis=1)
        risen = new_best - best > _rise_tol(cfg.tol, best)
        flat = np.where(np.isfinite(best) & ~risen, flat + 1, 0)
        best = new_best
        stalled = np.all(stall >= 2, axis=1)
        certified = best >= cert
        patient = flat >= _PATIENCE
        finished = stalled | certified | patient | (it + 1 == cfg.max_iters)
        for j in np.flatnonzero(finished):
            k = int(np.argmax(values[j]))
            out[ids[j]] = NormEstimate(
                lower_bound=float(values[j, k]),
                witness_a=Element(alg, a_rows[j, k]),
                witness_b=Element(alg, b_rows[j, k]),
                iterations=it + 1,
                converged=bool(stall[j, k] >= 2),
                stop=("stalled" if stalled[j] else "certified" if certified[j]
                      else "patience" if patient[j] else "max_iters"),
            )
        if finished.all():
            break
        keep = ~finished
        ids, mk, a_rows, b_rows = ids[keep], mk[keep], a_rows[keep], b_rows[keep]
        values, stall, best, flat = values[keep], stall[keep], best[keep], flat[keep]
        r_k, sp_k, cert = r_k[keep], sp_k[keep], cert[keep]
    return out


def op_norm_estimate(
    t: LinearMap,
    r: ExponentLike,
    s: ExponentLike,
    cfg: EstimatorConfig | None = None,
) -> NormEstimate:
    """Multistart alternating-duality ascent for ||T||_{r->s}: the
    one-problem case of estimate_many. Returns the best objective over
    all restarts; always a valid lower bound."""
    return estimate_many([(t, r, s, cfg)])[0]


# -- closed forms -------------------------------------------------------


@dataclass(frozen=True)
class ClosedForm:
    """Exact value, or a [lower, upper] bracket when only bounds are known."""

    lower: float
    upper: float
    exact: float | None = None

    @classmethod
    def of_exact(cls, v: float) -> "ClosedForm":
        return cls(v, v, v)

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def closed_form_norm(
    kind: str,
    r: ExponentLike,
    s: ExponentLike,
    *,
    a: Element | None = None,
    pmap: LinearMap | None = None,
) -> ClosedForm:
    """Known values of ||T||_{r->s} for the structured families.

    kind 'lyapunov' / 'quadratic' need the defining element a; kind
    'positive' needs the map itself (caller asserts positivity). Exact
    where an identity is known, otherwise a bracket.
    """
    rex, sex = ExtExponent.coerce(r), ExtExponent.coerce(s)
    if kind in ("lyapunov", "quadratic"):
        if a is None:
            raise UnsupportedCaseError(f"kind {kind!r} needs the defining element a")
        sq = kind == "quadratic"
        base = jordan_product(a, a) if sq else a
        top = p_norm(a, "inf") ** (2 if sq else 1)
        if rex.value <= sex.value:
            return ClosedForm.of_exact(top)
        if rex.is_inf:
            return ClosedForm.of_exact(p_norm(base, sex))
        if sex.value == 1.0:
            return ClosedForm.of_exact(p_norm(base, rex.conjugate))
        ratio = ExtExponent(rex.value / sex.value)
        p_est = ExtExponent.from_inverse(sex.inv - rex.inv)
        upper = min(
            _SQRT8 * p_norm(base, ratio.conjugate),
            2.0 * cp_constant(p_est.conjugate) * p_norm(base, p_est),
        )
        return ClosedForm(lower=top, upper=upper)
    if kind == "positive":
        if pmap is None:
            raise UnsupportedCaseError("kind 'positive' needs the map itself")
        alg = pmap.algebra
        e = unit(alg)
        pe, pse = pmap(e), pmap.adjoint(e)
        n = alg.rank
        if rex.is_inf:
            return ClosedForm.of_exact(p_norm(pe, sex))
        if sex.value == 1.0:
            return ClosedForm.of_exact(p_norm(pse, rex.conjugate))
        uppers = []
        pe_inf, pse_inf = p_norm(pe, "inf"), p_norm(pse, "inf")
        if sex.is_inf:
            uppers.append(pe_inf)
        if rex.value == 1.0:
            uppers.append(pse_inf)
        if rex.value == sex.value:
            uppers.append(pe_inf ** (1.0 - rex.inv) * pse_inf ** rex.inv)
        elif rex.value < sex.value:
            uppers.append(_SQRT8 * pe_inf ** (1.0 - rex.inv) * pse_inf ** rex.inv)
        else:
            ratio = ExtExponent(rex.value / sex.value)
            uppers.append(
                _SQRT8 * pe_inf ** (1.0 - sex.inv) * p_norm(pse, ratio.conjugate) ** sex.inv
            )
            sym_resid = np.abs(pmap.matrix - pmap.matrix.T).max()
            if sym_resid <= 1e-12 * max(1.0, np.abs(pmap.matrix).max()):
                p_est = ExtExponent.from_inverse(sex.inv - rex.inv)
                uppers.append(2.0 * cp_constant(p_est.conjugate) * p_norm(pe, p_est))
        lower = max(
            p_norm(pe, sex) * n ** (-rex.inv),
            p_norm(pse, rex.conjugate) * n ** (-sex.conjugate.inv),
        )
        return ClosedForm(lower=lower, upper=min(uppers))
    raise UnsupportedCaseError(f"unknown closed-form kind {kind!r}")
