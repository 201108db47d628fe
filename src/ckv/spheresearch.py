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
share of them, and ``extremize_on_sphere`` polishes the least value with the
projected coordinate descent of ``refine_on_sphere``.  The layout values
serve only that choice of start, so on n = 4 the caller screens them with
closed-form 3x3 spectra and evaluates exactly only the directions that can
hold the least value; the start, and so the result, is that of exact
values.  Both searches are deterministic, and the layout and search together
are versioned (``LAYOUT_VERSION``) so reports can record their provenance.
"""

from __future__ import annotations

import functools

import numpy as np

LAYOUT_VERSION = "sphere-layout-v2"
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


def refine_on_sphere(f_batch, u0: np.ndarray) -> tuple[np.ndarray, float]:
    """Projected coordinate descent minimizing ``f_batch`` from ``u0``.

    ``f_batch`` maps an array of unit vectors (k, dim) to values (k,).  At each
    iteration all +/- coordinate moves of the current step size (0.1 at the
    start) are evaluated in one batch; the best improving move is taken,
    otherwise the step halves, until 200 iterations or a step below 1e-13.
    Deterministic, and convergent to ~machine precision inside a smooth basin.
    """
    u = np.asarray(u0, dtype=float)
    u = u / np.linalg.norm(u)
    best = float(f_batch(u[None, :])[0])
    eye = np.eye(u.shape[0])
    step = 0.1
    for _ in range(200):
        if step < 1e-13:
            break
        cand = np.concatenate([u + step * eye, u - step * eye])
        cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        vals = np.asarray(f_batch(cand))
        k = int(np.argmin(vals))
        if vals[k] < best - 1e-17 * (1.0 + abs(best)):
            best = float(vals[k])
            u = cand[k]
        else:
            step *= 0.5
    return u, best


def extremize_on_sphere(f_batch, dim: int, values: np.ndarray) -> tuple[np.ndarray, float]:
    """Minimum over the dense layout, refined; returns (arg, value).

    ``values`` are ``f_batch`` on ``sphere_samples(dim)``, passed in so that a
    caller can share one layout evaluation between searches.
    """
    U = sphere_samples(dim)
    return refine_on_sphere(f_batch, U[int(np.argmin(values))])
