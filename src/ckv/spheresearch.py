"""The k-Ricci search: deterministic dense sampling and local refinement
on unit spheres.

The k-Ricci infimum Theta_k (k < n on n >= 4) is an optimization problem
over a low-dimensional sphere: at each direction x the plane infimum is an
exact eigenvalue sum, and the infimum over x is searched.  Desk scale
suffices: a deterministic layout (``LAYOUT_SIZE`` directions) locates the
basin, then a local method polishes it far below the 1e-6 target.  The
layout is one rule at every dimension (``sphere_samples``, seeded Gaussian
directions); it and the index pairs of ``triu_pairs`` are cached once per
dimension and read-only.  The search hands ``extremize_on_sphere`` one
evaluator of the exact plane infima of every k < n, one column per k; it
evaluates them on the layout and polishes the ``REFINE_STARTS`` least
values of each column in one ``refine_on_sphere`` call, a batched
Riemannian Newton loop that takes its derivatives from finite differences
of the same evaluator, in one row-wise call per stage for every column.
The refine evaluates its starts and every step exactly, so each value it
returns is attained at a concrete direction.  The search is deterministic,
and the layout and search together are versioned (``LAYOUT_VERSION``).
"""

from __future__ import annotations

import functools

import numpy as np

LAYOUT_VERSION = "sphere-layout-v6"
LAYOUT_SIZE = 512   # layout directions, each evaluated exactly by the k-Ricci search
_LAYOUT_SEED = 0x5EED_1AE0


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.cache
def sphere_samples(dim: int) -> np.ndarray:
    """Deterministic unit-vector layout in R^dim, shape (LAYOUT_SIZE, dim).

    The same rule at every dimension: fixed-seed Gaussian directions
    (normalized), reproducible across runs.  Layouts are cached per dimension
    (they are read-only and reused by every Theta_k search of that dimension).
    """
    pts = np.random.default_rng(_LAYOUT_SEED + dim).standard_normal((LAYOUT_SIZE, dim))
    return _frozen(pts / np.linalg.norm(pts, axis=1, keepdims=True))


@functools.cache
def triu_pairs(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """``np.triu_indices(dim, 1)``, the pairs i < j, cached per dimension and read-only."""
    return tuple(_frozen(a) for a in np.triu_indices(dim, 1))


def complements(U: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the complements of the unit rows u of U, shape
    (k, dim, dim - 1): the last dim - 1 columns of the Householder reflection
    H = I - v v^T / w with v = u + s e_0, s = copysign(1, u_0) and
    w = 1 + |u_0| = |v|^2 / 2, which maps e_0 to -s u."""
    w = 1.0 + np.abs(U[:, 0])
    v = U.copy()
    v[:, 0] = np.copysign(w, U[:, 0])
    C = (v / -w[:, None])[:, :, None] * U[:, None, 1:]
    C[:, 1:] += np.eye(U.shape[1] - 1)
    return C


_HALVINGS = 8        # step lengths tried per row in each trial call
_EIG_FLOOR = 1e-12   # |Hessian eigenvalues| floored at this share of the largest
_MAX_ITER = 50       # passes of the Newton loop
_STENCIL_H = 1e-4    # finite-difference spacing in the chart of refine_on_sphere
_TINY = np.finfo(float).tiny


def _retire(keep, U, f, live, u, fu, *state):
    """Write the rows that stop back into U and f; return the others' state."""
    U[live[~keep]], f[live[~keep]] = u[~keep], fu[~keep]
    return tuple(a[keep] for a in (live, u, fu, *state))


def refine_on_sphere(f_batch, u0: np.ndarray):
    """Batched Riemannian Newton (P.-A. Absil, R. Mahony and R. Sepulchre,
    Optimization Algorithms on Matrix Manifolds, 2008) minimizing K
    objectives from starts ``u0`` (K, s, dim), u0[j] the s starts of
    objective j; returns each objective's (arg, value), shapes (K, dim) and
    (K,), at its row of least finite value (its first row if none is finite).

    ``f_batch`` maps unit vectors (N, dim) to values (N, K), column j the
    objective j; it must be row-wise, no row's value depending on the others
    in the call, so a column returns, bit for bit, what a refine of it alone
    returns.  A row moves in the chart y -> normalize(u + C y), C its
    tangent basis (``complements``).  Each pass makes one call for the
    gradient and full Hessian of every descending row, central differences
    on the stencil 0, +/- h e_i, h (e_i + e_j) (i < j, h = 1e-4); floors the
    Hessian's |eigenvalues| at ``_EIG_FLOOR`` of the largest and caps the
    step's length at 1; and makes one more call for the steps times 1, 1/2,
    ..., 1/128, taking the least only if it strictly lowers the row's value.
    A row stops when -grad . step (the Newton decrement, if the step is not
    capped) falls below 1e-15 (1 + |f|), when no trial lowers f by as much,
    or when its derivatives are not finite (so a non-finite start stays as
    it is); the loop ends after 50 passes.  Each value returned is
    ``f_batch`` at the direction returned, never above its column's least
    start value; gradient noise of about eps |f| / h costs only about its
    square in the value.
    """
    U0 = np.array(u0, dtype=float)
    _, s, dim = U0.shape
    d = dim - 1
    eye = np.eye(d)
    i, j = triu_pairs(d)
    stencil = _STENCIL_H * np.concatenate([np.zeros((1, d)), eye, -eye, eye[i] + eye[j]])
    entry = np.diag(np.arange(d))   # the column of [diagonal | pairs] holding each entry
    entry[i, j] = entry[j, i] = d + np.arange(len(i))
    U = (U0 / np.linalg.norm(U0, axis=-1, keepdims=True)).reshape(-1, dim)
    f = np.empty(len(U))
    live, u = np.arange(len(U)), U.copy()   # the rows still descending
    halvings = 0.5 ** np.arange(_HALVINGS)
    for it in range(_MAX_ITER):
        C = complements(u)
        pts = u[:, None, :] + stencil @ C.transpose(0, 2, 1)
        pts /= np.sqrt((pts * pts).sum(axis=2, keepdims=True))
        vals = np.asarray(f_batch(pts.reshape(-1, dim)), dtype=float)
        vals = vals[np.arange(len(vals)), np.repeat(live // s, len(stencil))].reshape(len(u), -1)
        center, plus = vals[:, :1], vals[:, 1:d + 1]
        minus, mixed = vals[:, d + 1:2 * d + 1], vals[:, 2 * d + 1:]
        if it == 0:
            fu = center[:, 0].copy()
        entries = np.concatenate([plus + minus - 2.0 * center,
                                  mixed - plus[:, i] - plus[:, j] + center], axis=1)
        hess = entries[:, entry.ravel()].reshape(-1, d, d) / _STENCIL_H ** 2
        grad = (plus - minus) / (2.0 * _STENCIL_H)
        bad = ~(np.isfinite(grad).all(axis=1) & np.isfinite(hess).all(axis=(1, 2)))
        grad[bad], hess[bad] = 0.0, 0.0   # a zero step, which stops the row
        w, Q = np.linalg.eigh(hess)
        w = np.abs(w)
        w = np.maximum(w, np.maximum(_EIG_FLOOR * w.max(axis=1, keepdims=True), _TINY))
        step = -(Q @ (Q.transpose(0, 2, 1) @ grad[:, :, None] / w[:, :, None]))[:, :, 0]
        step /= np.maximum(1.0, np.sqrt((step * step).sum(axis=1, keepdims=True)))
        basis, floor = C.transpose(0, 2, 1), 1e-15 * (1.0 + np.abs(fu))
        go_on = -(grad * step).sum(axis=1) >= floor
        if not go_on.all():
            live, u, fu, step, basis, floor = _retire(go_on, U, f, live, u, fu, step, basis, floor)
            if live.size == 0:
                break
        cand = u[:, None, :] + (halvings[:, None] * step[:, None, :]) @ basis
        cand /= np.sqrt((cand * cand).sum(axis=2, keepdims=True))
        fc = np.asarray(f_batch(cand.reshape(-1, dim)), dtype=float)
        fc = fc[np.arange(len(fc)), np.repeat(live // s, _HALVINGS)].reshape(len(live), _HALVINGS)
        fc[np.isnan(fc)] = np.inf
        best, fb = fc.argmin(axis=1), fc.min(axis=1)
        go_on = fu - fb >= floor
        better = fb < fu
        u[better], fu[better] = cand[better, best[better]], fb[better]
        if not go_on.all():
            live, u, fu = _retire(go_on, U, f, live, u, fu)
            if live.size == 0:
                break
    U[live], f[live] = u, fu
    finite = np.where(np.isfinite(f), f, np.inf).reshape(-1, s)
    best = np.argmin(finite, axis=1) + s * np.arange(len(finite))
    return U[best], f[best]


REFINE_STARTS = 4   # least layout values refined by extremize_on_sphere


def extremize_on_sphere(f_batch, dim: int):
    """Minima of K objectives over the rows of ``sphere_samples(dim)``,
    refined; returns each objective's (arg, value), of shapes (K, dim) and
    (K,).

    ``f_batch`` maps unit vectors (N, dim) to values (N, K), one column per
    objective, as in ``refine_on_sphere``.  One call evaluates it on the
    layout; each column's ``REFINE_STARTS`` least values (ties by
    layout order) pick its starts, and one ``refine_on_sphere`` call
    refines them all.
    """
    U = sphere_samples(dim)
    starts = np.argsort(f_batch(U), axis=0, kind="stable")[:REFINE_STARTS].T
    return refine_on_sphere(f_batch, U[starts])
