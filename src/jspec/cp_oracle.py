"""Independent numerical recovery of the complex-splitting constant and
fuzz checks for the scalar inequalities behind it.

c_p is the maximum of f(x, y) = ||x||_p + ||y||_p over real vector pairs
with ||x + iy||_p = 1. The closed form (cp_constant) is sqrt(2) on
[1, 2] and 2^(1/q) on [2, inf]. cp_bruteforce recovers it by multistart
coordinate ascent and never consults the closed form, so the two routes
stay independent.

The fuzz checks work in row blocks of at most _BLOCK_FLOATS floats, so
their temporaries do not grow with the trial count: the two-point checks
draw each block's pairs from streams that continue across blocks, and
aggregate_split_check draws its whole sample first, in a fixed order.
suites.py draws and checks its bulk trials in the same blocks. Every
check is row by row and the worst case is the first maximum, as
np.argmax over all rows would pick, so results do not depend on the
block size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exponents import ExponentLike, ExtExponent, vector_pnorm

# floats per row block of a bulk check, 128 KB per float array. Larger
# blocks cost page faults: at 2^16 the allocator unmapped the bulk
# suites' 512 KB block temporaries between blocks, about 25,000 more
# minor faults per bulk-fuzz pass (glibc, NumPy 2.4)
_BLOCK_FLOATS = 1 << 14
# cp_bruteforce's first step, the step below which a start is spent, and its sweep cap
_STEP_INIT, _STEP_MIN, _MAX_SWEEPS = 0.5, 1e-9, 2000


def _row_blocks(n: int, width: int):
    """Consecutive (lo, hi) ranges covering rows 0..n, each holding at
    most _BLOCK_FLOATS floats at `width` floats per row (at least one row)."""
    step = max(1, _BLOCK_FLOATS // width)
    for lo in range(0, n, step):
        yield lo, min(lo + step, n)


def _mod_pnorm(x: np.ndarray, y: np.ndarray, p: ExtExponent) -> np.ndarray:
    """||x + iy||_p along the last axis (modulus, then vector p-norm)."""
    return vector_pnorm(np.abs(x + 1j * y), p)


@dataclass(frozen=True)
class CpProblem:
    """Maximize ||x||_p + ||y||_p on the complex unit p-sphere in C^n."""

    n: int
    p: ExtExponent

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need n >= 2")
        object.__setattr__(self, "p", ExtExponent.coerce(self.p))

    def objective(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return vector_pnorm(x, self.p) + vector_pnorm(y, self.p)

    def constraint(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return _mod_pnorm(x, y, self.p)


@dataclass(frozen=True, eq=False)
class CpSearchResult:
    value: float
    x: np.ndarray
    y: np.ndarray
    sweeps: int


def cp_bruteforce(problem: CpProblem, starts: int = 200, seed: int = 0) -> CpSearchResult:
    """Multistart coordinate ascent with exact feasibility restoration.

    Each proposal bumps one coordinate of (x, y) and rescales the pair
    back onto the constraint sphere (the constraint is positively
    homogeneous, so rescaling is exact). Steps halve when a full sweep
    over coordinates and signs yields no improvement anywhere; the search
    ends once every start's step is below _STEP_MIN, or at _MAX_SWEEPS.
    """
    if starts < 1:
        raise ValueError("need starts >= 1")
    n, p = problem.n, problem.p
    rng = np.random.default_rng(seed)
    xy = rng.standard_normal((starts, 2 * n))
    norms = _mod_pnorm(xy[:, :n], xy[:, n:], p)
    xy /= norms[:, None]
    best = problem.objective(xy[:, :n], xy[:, n:])

    step = np.full(starts, _STEP_INIT)
    sweeps = 0
    while np.any(step >= _STEP_MIN) and sweeps < _MAX_SWEEPS:
        sweeps += 1
        improved = np.zeros(starts, dtype=bool)
        for j in range(2 * n):
            for sign in (1.0, -1.0):
                cand = xy.copy()
                cand[:, j] += sign * step
                t = _mod_pnorm(cand[:, :n], cand[:, n:], p)
                ok = t > 0
                cand[ok] /= t[ok, None]
                val = problem.objective(cand[:, :n], cand[:, n:])
                take = ok & (val > best)
                xy[take] = cand[take]
                best = np.where(take, val, best)
                improved |= take
        step = np.where(improved, step, step / 2.0)

    k = int(np.argmax(best))
    return CpSearchResult(float(best[k]), xy[k, :n].copy(), xy[k, n:].copy(), sweeps)


# -- scalar inequality fuzzing ------------------------------------------


@dataclass(frozen=True, eq=False)
class InequalityResult:
    name: str
    p: float
    trials: int
    max_violation: float  # max over trials of (lhs - rhs) / scale
    worst: dict

    @property
    def holds(self) -> bool:
        return self.max_violation <= 1e-12


def _pair_blocks(seed: int, trials: int):
    """Complex pairs with heavy-tailed scales plus structured corners
    (equal, opposite, real, imaginary pairs in rows [0, m), [m, 2m),
    [2m, 3m) and [3m, 4m), m = trials // 5), yielded one row block at a
    time as (z, w). Six streams spawned from the seed give the scales of
    z and w and the real and imaginary parts of z and w; each block takes
    its rows from every stream, so the pairs do not depend on the block
    size and nothing of length trials is kept."""
    m = trials // 5
    scale_z, scale_w, z_re, z_im, w_re, w_im = np.random.default_rng(seed).spawn(6)
    for lo, hi in _row_blocks(trials, 4):
        n = hi - lo
        z, w = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        for v, scale, re, im in ((z, scale_z, z_re, z_im), (w, scale_w, w_re, w_im)):
            v.real, v.imag = re.standard_normal(n), im.standard_normal(n)
            v *= np.exp(scale.normal(0.0, 2.0, n))
        equal, opposite, real, imag = (slice(min(max(k * m - lo, 0), n), min(max((k + 1) * m - lo, 0), n))
                                       for k in range(4))
        w[equal] = z[equal]
        w[opposite] = -z[opposite]
        z[real] = z[real].real
        w[real] = w[real].real
        z[imag] = 1j * z[imag].imag
        yield z, w
        del z, w  # not held while the next block is drawn


def _fuzz_pairs(name: str, p: float, trials: int, seed: int, violation) -> InequalityResult:
    """Evaluate violation(z, w) on each row block of pairs and keep the
    first worst pair."""
    if trials < 1:
        raise ValueError("need trials >= 1")
    worst = None
    for zb, wb in _pair_blocks(seed, trials):
        viol = violation(zb, wb)
        k = int(np.argmax(viol))
        if worst is None or viol[k] > worst["violation"]:
            worst = {"z": [zb[k].real, zb[k].imag], "w": [wb[k].real, wb[k].imag], "violation": float(viol[k])}
        del zb, wb, viol  # not held while the next block is drawn
    return InequalityResult(name, p, trials, worst["violation"], worst)


def clarkson_check(p: ExponentLike, trials: int = 10**5, seed: int = 0) -> InequalityResult:
    """2(|z|^p + |w|^p) <= |z+w|^p + |z-w|^p for p >= 2."""
    pex = ExtExponent.coerce(p)
    if pex.is_inf or pex.value < 2.0:
        raise ValueError("the plain two-point inequality needs 2 <= p < inf")
    pv = pex.value

    def violation(z, w):
        lhs = 2.0 * (np.abs(z) ** pv + np.abs(w) ** pv)
        rhs = np.abs(z + w) ** pv + np.abs(z - w) ** pv
        return (lhs - rhs) / np.maximum(np.maximum(lhs, rhs), 1e-300)

    return _fuzz_pairs("two-point", pv, trials, seed, violation)


def refined_clarkson_check(p: ExponentLike, trials: int = 10**5, seed: int = 0) -> InequalityResult:
    """2^(p-1)(|z|^p + |w|^p) + (2 - 2^(p/2)) min{|z+w|^p, |z-w|^p}
    <= |z+w|^p + |z-w|^p for 1 <= p <= 2."""
    pex = ExtExponent.coerce(p)
    if pex.value > 2.0:
        raise ValueError("the refined two-point inequality needs 1 <= p <= 2")
    pv = pex.value

    def violation(z, w):
        plus = np.abs(z + w) ** pv
        minus = np.abs(z - w) ** pv
        lhs = 2.0 ** (pv - 1.0) * (np.abs(z) ** pv + np.abs(w) ** pv)
        lhs += (2.0 - 2.0 ** (pv / 2.0)) * np.minimum(plus, minus)
        rhs = plus + minus
        return (lhs - rhs) / np.maximum(np.maximum(np.abs(lhs), rhs), 1e-300)

    return _fuzz_pairs("refined two-point", pv, trials, seed, violation)


def aggregate_split_check(
    p: ExponentLike, n: int, trials: int = 10**4, seed: int = 0
) -> InequalityResult:
    """sum_j |x_j|^p + |y_j|^p <= 2^(1-p/2) (p <= 2) or 1 (p >= 2) on
    the constraint ||x + iy||_p = 1; the coordinatewise aggregation step
    of the two-point inequalities."""
    pex = ExtExponent.coerce(p)
    if pex.is_inf:
        raise ValueError("aggregation needs finite p")
    if trials < 1:
        raise ValueError("need trials >= 1")
    pv = pex.value
    bound = 2.0 ** (1.0 - pv / 2.0) if pv <= 2.0 else 1.0
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((trials, n))
    x *= np.exp(rng.normal(0.0, 1.0, (trials, 1)))
    y = rng.standard_normal((trials, n))
    m = trials // 4
    y[:m] = x[:m]
    y[m:2 * m] = 0.0
    worst = None
    for lo, hi in _row_blocks(trials, 2 * n):
        g = _mod_pnorm(x[lo:hi], y[lo:hi], pex)
        xb, yb = x[lo:hi] / g[:, None], y[lo:hi] / g[:, None]
        lhs = (np.abs(xb) ** pv + np.abs(yb) ** pv).sum(axis=1)
        viol = (lhs - bound) / bound
        k = int(np.argmax(viol))
        if worst is None or viol[k] > worst["violation"]:
            worst = {"x": xb[k].tolist(), "y": yb[k].tolist(), "violation": float(viol[k])}
    return InequalityResult("aggregate split", pv, trials, worst["violation"], worst)
