"""Deterministic dense sampling and local refinement on unit spheres.

The hyperplane Casorati extrema and the k-Ricci infimum are optimization
problems over low-dimensional spheres (degree-4 polynomials or eigenvalue
sums).  Desk scale suffices: a dense deterministic layout of ``LAYOUT_SIZE``
directions locates the basin, then a local method polishes it far below the
1e-6 target.  The layout and the arrays derived from it are cached once per
dimension and read-only.  The Casorati search evaluates its quartic on the
layout through the layout's quadratic monomials (``layout_monomials``) and
polishes with Riemannian Newton (``ckv.submanifold``).  The k-Ricci search is
needed only for k < n on n >= 4 (on n = 3, Theta_2 is an eigenvalue): its
caller evaluates, once per point, the spectra of S_x on x^perp in a
Householder basis (``complements``; cached for the layout by
``layout_complements``) at every layout direction x, every k sums its own
share of them, and ``extremize_on_sphere`` polishes the least value with
the Riemannian Newton of ``refine_on_sphere``, which takes its derivatives
from finite differences of the values alone, so it serves any caller.  The
layout values serve only that choice of start, so on n = 4 the caller takes
them from closed-form 3x3 spectra; the refine evaluates its start and every
step exactly, so each value it returns is attained at a concrete direction.
Both searches are deterministic, and the layout and search together are
versioned (``LAYOUT_VERSION``) so reports can record their provenance.
"""

from __future__ import annotations

import functools

import numpy as np

LAYOUT_VERSION = "sphere-layout-v3"
LAYOUT_SIZE = 10_000   # directions in every layout, for both searches
_LAYOUT_SEED = 0x5EED_1AE0


def fibonacci_sphere(count: int) -> np.ndarray:
    """Golden-angle spiral layout on S^2, shape (count, 3)."""
    i = np.arange(count, dtype=float)
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.column_stack([r * np.cos(theta), r * np.sin(theta), z])


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.cache
def sphere_samples(dim: int) -> np.ndarray:
    """Deterministic unit-vector layout in R^dim, shape (LAYOUT_SIZE, dim).

    dim = 3 uses the Fibonacci spiral; other dimensions use a fixed-seed
    Gaussian layout (normalized), which is reproducible across runs.  Layouts
    are cached per dimension (they are read-only and reused heavily by fuzz
    campaigns).
    """
    if dim == 3:
        return _frozen(fibonacci_sphere(LAYOUT_SIZE))
    pts = np.random.default_rng(_LAYOUT_SEED + dim).standard_normal((LAYOUT_SIZE, dim))
    return _frozen(pts / np.linalg.norm(pts, axis=1, keepdims=True))


def quadratic_monomials(U: np.ndarray) -> np.ndarray:
    """Products u_a u_b, a <= b, in the order of ``np.triu_indices``, for each
    row of U, shape (k, dim (dim + 1) / 2).  A quadratic form u^T A u is
    their dot product with the upper triangle of A, off-diagonal entries
    doubled."""
    k, dim = U.shape
    out = np.empty((dim * (dim + 1) // 2, k))   # filled row by row, returned transposed
    col = 0
    for a in range(dim):
        np.multiply(U.T[a], U.T[a:], out=out[col:col + dim - a])
        col += dim - a
    return out.T


@functools.cache
def layout_monomials(dim: int) -> np.ndarray:
    """``quadratic_monomials`` of ``sphere_samples(dim)``, cached and read-only."""
    return _frozen(quadratic_monomials(sphere_samples(dim)))


def complements(U: np.ndarray) -> np.ndarray:
    """Orthonormal bases of the complements of the unit rows u of U, shape
    (k, dim, dim - 1): the last dim - 1 columns of the Householder reflection
    H = I - v v^T / (1 + |u_0|), v = u + s e_0 with s = copysign(1, u_0),
    which maps e_0 to -s u."""
    w = 1.0 + np.abs(U[:, 0])
    v = U.copy()
    v[:, 0] = np.copysign(w, U[:, 0])
    C = (v / -w[:, None])[:, :, None] * U[:, None, 1:]
    C[:, 1:] += np.eye(U.shape[1] - 1)
    return C


@functools.cache
def layout_complements(dim: int) -> np.ndarray:
    """``complements`` of ``sphere_samples(dim)``, cached and read-only."""
    return _frozen(complements(sphere_samples(dim)))


_STENCIL_H = 1e-4    # finite-difference spacing in the chart
_HALVINGS = 8        # step lengths tried per line-search batch
_EIG_FLOOR = 1e-8    # |Hessian eigenvalues| floored at this share of the largest
_MAX_ITER = 50


def _chart(u: np.ndarray, C: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The unit vectors normalize(u + C y) for the rows y of Y."""
    X = u + Y @ C.T
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def refine_on_sphere(f_batch, u0: np.ndarray) -> tuple[np.ndarray, float]:
    """Riemannian Newton minimizing ``f_batch`` from ``u0``; returns (arg, value).

    ``f_batch`` maps an array of unit vectors (k, dim) to values (k,); it is
    only evaluated, never differentiated.  Each iteration works in the chart
    y -> normalize(u + C y), C = ``complements`` of u, and makes one call on
    u and the stencil +/- h e_i, h (e_i + e_j) (i < j, h = 1e-4), which gives
    the central-difference gradient and the full Hessian.  As in the Casorati
    Newton of ``ckv.submanifold``, the Hessian's eigenvalues have their
    magnitudes floored, so the step descends; its length is capped at 1.  One
    more call tries the step and its next seven halvings, and the least value
    is taken only if it strictly lowers f; if none does, the eight halvings
    after those follow, for as long as the decrease the gradient predicts for
    them is at least 1e-15 (1 + |f|).  The refine stops when the full step's
    predicted decrease (the Newton decrement, if the step is not capped)
    falls below that, when no halving lowers f, when the step it takes lowers
    f by less, when the stencil is not finite, or after 50 iterations.

    Every value it returns is ``f_batch`` at the direction it returns and is
    never above f(u0).  Gradient noise of about eps |f| / h moves the point it
    stops at, but costs only about its square in the value.  Deterministic.
    """
    u = np.asarray(u0, dtype=float)
    u = u / np.linalg.norm(u)
    d = u.shape[0] - 1
    eye = np.eye(d)
    i, j = np.triu_indices(d, 1)
    stencil = _STENCIL_H * np.concatenate([np.zeros((1, d)), eye, -eye, eye[i] + eye[j]])
    halvings = 0.5 ** np.arange(_HALVINGS)
    f = None
    for _ in range(_MAX_ITER):
        C = complements(u[None, :])[0]
        vals = np.asarray(f_batch(_chart(u, C, stencil)), dtype=float)
        center, plus, minus, mixed = vals[0], vals[1:d + 1], vals[d + 1:2 * d + 1], vals[2 * d + 1:]
        f = float(center) if f is None else f
        if not np.all(np.isfinite(vals)):
            break
        hess = np.diag(plus + minus - 2.0 * center)
        hess[i, j] = hess[j, i] = mixed - plus[i] - plus[j] + center
        w, Q = np.linalg.eigh(hess / _STENCIL_H ** 2)
        w = np.abs(w)
        w = np.maximum(w, max(_EIG_FLOOR * w.max(), np.finfo(float).tiny))
        grad = (plus - minus) / (2.0 * _STENCIL_H)
        step = -(Q @ (Q.T @ grad / w))
        step /= max(1.0, float(np.linalg.norm(step)))
        drop = -float(grad @ step)   # to first order, t * step lowers f by t * drop
        floor = 1e-15 * (1.0 + abs(f))
        t = halvings
        while t[0] * drop >= floor:
            cand = _chart(u, C, t[:, None] * step)
            fc = np.asarray(f_batch(cand), dtype=float)
            best = int(np.argmin(np.where(np.isnan(fc), np.inf, fc)))
            if fc[best] < f:
                break
            t = t * 0.5 ** _HALVINGS
        else:
            break
        u, f, gain = cand[best], float(fc[best]), f - float(fc[best])
        if gain < floor:
            break
    return u, f


def extremize_on_sphere(f_batch, dim: int, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum over the dense layout, refined; returns (arg, value).

    ``values`` are ``f_batch`` on ``sphere_samples(dim)``, passed in so that a
    caller can share one layout evaluation between searches.
    """
    U = sphere_samples(dim)
    return refine_on_sphere(f_batch, U[int(np.argmin(values))])
