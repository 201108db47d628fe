"""Reference values for the hyperplane Casorati extrema inf C(L) and sup C(L).

C(L) for the hyperplane with unit normal u is
    F(u) / (n - 1),  F(u) = ||h||^2 - 2 u^T (sum_r h_r^2) u + sum_r (u^T h_r u)^2.

With at most one nonzero slice h_1 = V diag(lam) V^T the problem is exact:
in w_i = (V^T u)_i^2, which ranges over the simplex, F is a convex function
of the two linear forms s = sum lam_i^2 w_i and t = sum lam_i w_i.  Its
maximum is at a vertex, so sup F = ||h||^2 - min lam_i^2.  The convex
function -2 s + t^2 has no stationary point, so its minimum over the polygon
spanned by the points (lam_i^2, lam_i) lies on an edge, and inf F is the
minimum over eigenvalue pairs of a one-variable quadratic.

With two or more nonzero slices the reference is a dense layout, independent
of the program's, followed by multistart Riemannian gradient refinement.
Every value it returns is attained at a concrete unit vector, so a program
extremum on the wrong side of it is a witnessed shortfall.

None of this code calls the program; it runs outside every timed region.
"""

from __future__ import annotations

import numpy as np

MISS_REL = 1e-6
_LAYOUT_SEED = 0x0AC1E
_LAYOUT_COUNT = 8_000
_STARTS = 16
_ITERATIONS = 400


def _exact(h1: np.ndarray, n: int) -> tuple[float, float]:
    lam = np.linalg.eigvalsh(h1)
    sq = lam * lam
    total = float(sq.sum())
    li, lj = lam[:, None], lam[None, :]
    diff = li - lj
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(diff != 0.0, li / diff, 0.0)
    # t is the weight on eigenvalue i along the edge (i, j); the endpoints
    # t = 0 and t = 1 cover the vertices.
    cands = []
    for tt in (np.clip(t, 0.0, 1.0), np.zeros_like(t), np.ones_like(t)):
        s = lj * lj + tt * (li * li - lj * lj)
        m = lj + tt * diff
        cands.append(total - 2.0 * s + m * m)
    inf_f = float(np.min(cands))
    sup_f = total - float(sq.min())
    return inf_f / (n - 1), sup_f / (n - 1)


def _values(h, h2sum, U):
    quad = np.sum((U @ h) * U, axis=2)
    return np.sum(h * h) - 2.0 * np.sum((U @ h2sum) * U, axis=1) + np.sum(quad * quad, axis=0)


def _refine(h, h2sum, U, sign: np.ndarray) -> np.ndarray:
    """Batched Riemannian gradient descent on sign * F, one adaptive step per row."""
    U = U.copy()
    f = sign * _values(h, h2sum, U)
    lip = 4.0 * np.linalg.norm(h2sum, 2) + 12.0 * sum(np.linalg.norm(s, 2) ** 2 for s in h)
    step = np.full(U.shape[0], 1.0 / max(lip, 1e-300))
    for _ in range(_ITERATIONS):
        hu = U @ h
        quad = np.sum(hu * U, axis=2)
        grad = sign[:, None] * (-4.0 * U @ h2sum + 4.0 * np.sum(quad[:, :, None] * hu, axis=0))
        grad -= np.sum(grad * U, axis=1, keepdims=True) * U
        cand = U - step[:, None] * grad
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        fc = sign * _values(h, h2sum, cand)
        better = fc < f
        U[better], f[better] = cand[better], fc[better]
        step = np.where(better, step * 1.5, step * 0.5)
        if np.all(step * lip < 1e-9):
            break
    return sign * f


def _dense(h: np.ndarray, n: int) -> tuple[float, float]:
    rng = np.random.default_rng(_LAYOUT_SEED + n)
    U = rng.standard_normal((_LAYOUT_COUNT, n))
    U = np.concatenate([U / np.linalg.norm(U, axis=1, keepdims=True), np.eye(n), -np.eye(n)])
    h2sum = np.einsum("rab,rbc->ac", h, h)
    vals = _values(h, h2sum, U)
    order = np.argsort(vals)
    starts = np.concatenate([U[order[:_STARTS]], U[order[-_STARTS:]]])
    sign = np.repeat([1.0, -1.0], _STARTS)
    refined = _refine(h, h2sum, starts, sign)
    lo = min(float(vals[order[0]]), float(refined[:_STARTS].min()))
    hi = max(float(vals[order[-1]]), float(refined[_STARTS:].max()))
    return lo / (n - 1), hi / (n - 1)


def reference_extrema(h: np.ndarray) -> tuple[float, float]:
    """(inf C(L), sup C(L)) for the induced second fundamental form h."""
    h = np.asarray(h, dtype=float)
    n = h.shape[1]
    live = [s for s in h if np.any(s != 0.0)]
    if len(live) <= 1:
        return _exact(live[0] if live else np.zeros((n, n)), n)
    return _dense(np.stack(live), n)


def permissive_gaps(h: np.ndarray, inf_cl: float, sup_cl: float) -> tuple[float, float]:
    """Relative shortfall of the program's inf (too high) and sup (too low)."""
    ref_inf, ref_sup = reference_extrema(h)
    scale = lambda ref: max(abs(ref), 1e-300)
    return (inf_cl - ref_inf) / scale(ref_inf), (ref_sup - sup_cl) / scale(ref_sup)
