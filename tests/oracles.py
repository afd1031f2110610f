"""Independent numerical oracles for the test suite.

Everything here is deliberately written from scratch with a different
algorithmic route than the production code so the two can cross-check
each other:

* ``jacobi_eigh_real`` is a hand-rolled cyclic Jacobi eigensolver (the
  production code uses LAPACK via ``np.linalg.eigh``).
* ``jacobi_eigvals_herm`` reduces the complex Hermitian problem to a real
  symmetric one through the standard 2k x 2k embedding.
* The chart codecs use explicit index loops (the production codecs are
  vectorized fancy-indexing kernels).
* ``closed_form_reference`` evaluates the closed-form norm table on
  elements: it forms a o a, P(e) and P*(e) and takes each p-norm
  through ``p_norm`` (the production table reads every value off one
  eigenvalue vector per element, squared for a o a).

The oracles themselves are validated only against structural invariants
(residuals, orthogonality, trace sums), never against the production
implementations they are meant to check.
"""

from __future__ import annotations

import math

import numpy as np

from jspec import ExtExponent, cp_constant, jordan_product, p_norm, unit

_SQRT2 = math.sqrt(2.0)


def jacobi_eigh_real(a, tol=1e-14, max_sweeps=60):
    """Cyclic Jacobi diagonalization of a real symmetric matrix.

    Returns ``(w, v)`` with eigenvalues ``w`` ascending and orthogonal
    ``v`` such that ``a @ v ~= v @ diag(w)``.
    """
    a = np.array(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("need a square matrix")
    n = a.shape[0]
    v = np.eye(n)
    if n == 1:
        return a[0, :1].copy(), v
    scale = math.sqrt((a * a).sum()) or 1.0
    for _ in range(max_sweeps):
        off = a - np.diag(np.diagonal(a))
        if math.sqrt((off * off).sum()) <= tol * scale:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                if apq == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(1.0, theta))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                # similarity by G = I except G[[p,q]][:,[p,q]] = [[c, s], [-s, c]]
                col_p, col_q = a[:, p].copy(), a[:, q].copy()
                a[:, p] = c * col_p - s * col_q
                a[:, q] = s * col_p + c * col_q
                row_p, row_q = a[p, :].copy(), a[q, :].copy()
                a[p, :] = c * row_p - s * row_q
                a[q, :] = s * row_p + c * row_q
                a[p, q] = a[q, p] = 0.0
                vp, vq = v[:, p].copy(), v[:, q].copy()
                v[:, p] = c * vp - s * vq
                v[:, q] = s * vp + c * vq
    else:
        raise RuntimeError("jacobi sweep budget exhausted")
    w = np.diagonal(a).copy()
    order = np.argsort(w)
    return w[order], v[:, order]


def jacobi_eigvals_herm(a, **kw):
    """Eigenvalues (ascending) of a complex Hermitian matrix.

    Uses the real embedding [[Re, -Im], [Im, Re]], whose spectrum is that
    of ``a`` with every eigenvalue doubled; adjacent sorted pairs are
    averaged back into single copies.
    """
    a = np.asarray(a, dtype=complex)
    re, im = a.real, a.imag
    big = np.block([[re, -im], [im, re]])
    w, _ = jacobi_eigh_real(big, **kw)
    return (w[::2] + w[1::2]) / 2.0


# -- chart codecs (explicit loops) --------------------------------------


def sym_chart_to_dense(block, k):
    x = np.zeros((k, k))
    idx = 0
    for i in range(k):
        for j in range(i, k):
            val = block[idx]
            idx += 1
            if i == j:
                x[i, i] = val
            else:
                x[i, j] = x[j, i] = val / _SQRT2
    return x


def sym_dense_to_chart(x, k):
    out = np.empty(k * (k + 1) // 2)
    idx = 0
    for i in range(k):
        for j in range(i, k):
            out[idx] = x[i, i] if i == j else x[i, j] * _SQRT2
            idx += 1
    return out


def herm_chart_to_dense(block, k):
    a = np.zeros((k, k), dtype=complex)
    for i in range(k):
        a[i, i] = block[i]
    n_off = k * (k - 1) // 2
    pos = 0
    for i in range(k):
        for j in range(i + 1, k):
            re = block[k + pos] / _SQRT2
            im = block[k + n_off + pos] / _SQRT2
            a[i, j] = re + 1j * im
            a[j, i] = re - 1j * im
            pos += 1
    return a


def herm_dense_to_chart(a, k):
    n_off = k * (k - 1) // 2
    out = np.empty(k * k)
    for i in range(k):
        out[i] = a[i, i].real
    pos = 0
    for i in range(k):
        for j in range(i + 1, k):
            out[k + pos] = a[i, j].real * _SQRT2
            out[k + n_off + pos] = a[i, j].imag * _SQRT2
            pos += 1
    return out


# -- per-factor oracles ---------------------------------------------------


def factor_eigenvalues(kind, size, block):
    """Eigenvalues of one factor block of chart coordinates: an rn block
    in chart order, every other block descending."""
    block = np.asarray(block, dtype=float)
    if kind == "rn":
        return block.copy()
    if kind == "spin":
        x0 = block[0] / _SQRT2
        rho = math.sqrt(float((block[1:] ** 2).sum())) / _SQRT2
        return np.array([x0 + rho, x0 - rho])
    if kind == "sym":
        w, _ = jacobi_eigh_real(sym_chart_to_dense(block, size))
        return w[::-1].copy()
    if kind == "herm":
        w = jacobi_eigvals_herm(herm_chart_to_dense(block, size))
        return w[::-1].copy()
    raise ValueError(f"unknown factor kind {kind!r}")


def oracle_eigenvalues(alg, coords):
    """Factor-concatenated eigenvalues (rn blocks in chart order, every
    other block descending), matching
    the production layout, computed entirely through the oracle route."""
    coords = np.asarray(coords, dtype=float)
    out = []
    for f, sl in zip(alg.factors, alg.slices):
        out.append(factor_eigenvalues(f.kind, f.size, coords[sl]))
    return np.concatenate(out)


def factor_jordan(kind, size, u, v):
    """Jordan product of two factor blocks, chart in / chart out."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if kind == "rn":
        return u * v
    if kind == "spin":
        x0, xb = u[0] / _SQRT2, u[1:] / _SQRT2
        y0, yb = v[0] / _SQRT2, v[1:] / _SQRT2
        w0 = x0 * y0 + float(xb @ yb)
        wb = x0 * yb + y0 * xb
        return np.concatenate([[w0], wb]) * _SQRT2
    if kind == "sym":
        x = sym_chart_to_dense(u, size)
        y = sym_chart_to_dense(v, size)
        return sym_dense_to_chart((x @ y + y @ x) / 2.0, size)
    if kind == "herm":
        x = herm_chart_to_dense(u, size)
        y = herm_chart_to_dense(v, size)
        return herm_dense_to_chart((x @ y + y @ x) / 2.0, size)
    raise ValueError(f"unknown factor kind {kind!r}")


def oracle_jordan(alg, u, v):
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    out = np.empty(alg.dim)
    for f, sl in zip(alg.factors, alg.slices):
        out[sl] = factor_jordan(f.kind, f.size, u[sl], v[sl])
    return out


def oracle_inner(alg, u, v):
    """Trace inner product computed from dense representatives."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    total = 0.0
    for f, sl in zip(alg.factors, alg.slices):
        ub, vb = u[sl], v[sl]
        if f.kind == "rn":
            total += float(ub @ vb)
        elif f.kind == "spin":
            # tr(x o y) = 2 (x0 y0 + xbar . ybar) in natural coordinates
            x0, xb = ub[0] / _SQRT2, ub[1:] / _SQRT2
            y0, yb = vb[0] / _SQRT2, vb[1:] / _SQRT2
            total += 2.0 * float(x0 * y0 + xb @ yb)
        elif f.kind == "sym":
            x = sym_chart_to_dense(ub, f.size)
            y = sym_chart_to_dense(vb, f.size)
            total += float(np.trace(x @ y))
        else:
            x = herm_chart_to_dense(ub, f.size)
            y = herm_chart_to_dense(vb, f.size)
            total += float(np.trace(x @ y).real)
    return total


# -- closed-form norm table -----------------------------------------------


def closed_form_reference(kind, r, s, *, a=None, pmap=None):
    """(lower, upper, exact) of the closed-form value of ||T||_{r->s}, exact
    None for a bracket, from p-norms of elements: a and a o a for kind
    'lyapunov' and 'quadratic', P(e) and P*(e) for kind 'positive'."""
    r, s = ExtExponent.coerce(r), ExtExponent.coerce(s)
    sqrt8 = 2.0 * math.sqrt(2.0)
    if kind in ("lyapunov", "quadratic"):
        base = jordan_product(a, a) if kind == "quadratic" else a
        top = p_norm(a, "inf") ** (2 if kind == "quadratic" else 1)
        if r.value <= s.value:
            return top, top, top
        if r.is_inf or s.value == 1.0:
            v = p_norm(base, s if r.is_inf else r.conjugate)
            return v, v, v
        p = ExtExponent.from_inverse(s.inv - r.inv)
        upper = min(sqrt8 * p_norm(base, ExtExponent(r.value / s.value).conjugate),
                    2.0 * cp_constant(p.conjugate) * p_norm(base, p))
        return top, upper, None
    e = unit(pmap.algebra)
    pe, pse = pmap(e), pmap.adjoint(e)
    if r.is_inf:
        v = p_norm(pe, s)
        return v, v, v
    if s.value == 1.0:
        v = p_norm(pse, r.conjugate)
        return v, v, v
    m_e, m_se = p_norm(pe, "inf"), p_norm(pse, "inf")
    uppers = [m_e] if s.is_inf else []
    if r.value == 1.0:
        uppers.append(m_se)
    if r.value <= s.value:
        uppers.append((1.0 if r == s else sqrt8) * m_e ** (1.0 - r.inv) * m_se ** r.inv)
    else:
        ratio = ExtExponent(r.value / s.value)
        uppers.append(sqrt8 * m_e ** (1.0 - s.inv) * p_norm(pse, ratio.conjugate) ** s.inv)
        if np.abs(pmap.matrix - pmap.matrix.T).max() <= 1e-12 * max(1.0, np.abs(pmap.matrix).max()):
            p = ExtExponent.from_inverse(s.inv - r.inv)
            uppers.append(2.0 * cp_constant(p.conjugate) * p_norm(pe, p))
    n = pmap.algebra.rank
    lower = max(p_norm(pe, s) * n ** (-r.inv), p_norm(pse, r.conjugate) * n ** (-s.conjugate.inv))
    return lower, min(uppers), None
