"""Reference evaluations that only the tests use.

Each one recomputes a quantity along a path independent of the one ``ckv``
takes, so a test can compare the two: Chen's algebraic lemma on shape
operators (the bounds each proof applies to the Gauss part), the induced
curvature from the ambient connection plus the Gauss-equation corrections on
raw vectors, the non-Gauss pair curvature term by term on each pair instead
of through its tensor, K, tau and the Ricci curvatures read off the raw
tensor ``riem`` instead of its antisymmetrized form, the Ricci bound and the
equality pattern of the tau - K bound in a completed frame, in-plane changes
of a plane's basis, a structure residual looked up by name, and Thorpe's
lower bound on the least sectional curvature at n = 4.  ``refine_one`` runs
one objective through the batched sphere refine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ckv.connections import KIND_FIRST, ambient_curvature
from ckv.contact import ValidationReport
from ckv.frames import Plane, complete_frame
from ckv.spheresearch import refine_on_sphere
from ckv.submanifold import SubmanifoldPoint, _bivector_form
from ckv.verifier import _SHAPE_TOL, _pair_forms, _pair_nongauss


# --- Chen's algebraic lemma ---------------------------------------------------

@dataclass(frozen=True)
class BoundsCheck:
    lhs: float
    rhs: float
    holds: bool


def algebraic_bounds_check(h_matrices, which: str) -> BoundsCheck:
    """The two quadratic shape-operator bounds used by the inequality proofs.

    'chen':  sum_r [ sum_{i<j} h_ii h_jj - h_11 h_22 - sum_{i<j} h_ij^2 + h_12^2 ]
             <= n^2 (n-2) / (2(n-1)) ||H||^2          (n >= 3)
    'ricci': sum_r sum_{j>=2} h_11 h_jj <= n^2/4 ||H||^2   (n >= 2)

    with ||H||^2 = (1/n^2) sum_r (tr h^r)^2.  ``holds`` lets lhs exceed rhs
    by 1e-9 (1 + |lhs| + |rhs|).
    """
    h = np.asarray(h_matrices, dtype=float)
    if h.ndim == 2:
        h = h[None, :, :]
    if np.abs(h - np.transpose(h, (0, 2, 1))).max() > 1e-12:
        raise ValueError("algebraic bounds need symmetric matrices")
    least_n = {"chen": 3, "ricci": 2}.get(which)
    if least_n is None:
        raise ValueError(f"unknown bound {which!r}")
    if h.shape[1] < least_n:
        raise ValueError(f"the {which} bound needs n >= {least_n}")
    lhs, rhs = (float(side[0]) for side in _bound_sides(h[None], which))
    return BoundsCheck(lhs, rhs, bool(lhs <= rhs + 1e-9 * (1.0 + abs(lhs) + abs(rhs))))


def _bound_sides(h: np.ndarray, which: str) -> tuple[np.ndarray, np.ndarray]:
    """(lhs, rhs) of the 'chen' or 'ricci' bound for a batch (B, p, n, n)."""
    n = h.shape[-1]
    traces = np.einsum("brii->br", h)
    H_sq = np.einsum("br,br->b", traces, traces) / n ** 2
    h11 = h[:, :, 0, 0]
    if which == "ricci":
        return np.sum(h11 * (traces - h11), axis=1), n ** 2 / 4.0 * H_sq
    diag = np.einsum("brii->bri", h)
    diag_sq = np.einsum("bri,bri->br", diag, diag)
    pair_sum = (traces ** 2 - diag_sq) / 2.0
    off_sum = (np.einsum("brij,brij->br", h, h) - diag_sq) / 2.0
    lhs = np.sum(pair_sum - h11 * h[:, :, 1, 1] - off_sum + h[:, :, 0, 1] ** 2, axis=1)
    return lhs, n ** 2 * (n - 2) / (2.0 * (n - 1)) * H_sq


def chen_bound_batch(h: np.ndarray) -> np.ndarray:
    """Vectorized rhs - lhs of the 'chen' bound for a batch (B, p, n, n)."""
    lhs, rhs = _bound_sides(h, "chen")
    return rhs - lhs


def ricci_bound_batch(h: np.ndarray) -> np.ndarray:
    """Vectorized rhs - lhs of the 'ricci' bound for a batch (B, p, n, n)."""
    lhs, rhs = _bound_sides(h, "ricci")
    return rhs - lhs


# --- induced curvature on raw vectors -----------------------------------------

def _h_vector(sub: SubmanifoldPoint, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """h(X, Y) as an ambient (normal) vector, from tangent coordinates."""
    comps = np.einsum("rij,i,j->r", sub.h, x, y)
    return comps @ sub.normal


def induced_curvature_direct(sub: SubmanifoldPoint, X, Y, Z, W) -> float:
    """Reference evaluation bypassing the cached tensor: the paper's printed
    route, the ambient curvature of the connection plus the Gauss-equation
    corrections, all computed on the raw vectors.  ``attach`` builds ``riem``
    from the connection's difference tensor instead, so the two routes are
    independent.
    """
    x, y = sub.tangent_coords(X), sub.tangent_coords(Y)
    z, w = sub.tangent_coords(Z), sub.tangent_coords(W)
    val = ambient_curvature(sub.model, sub.spec, X, Y, Z, W)
    hxw, hyz = _h_vector(sub, x, w), _h_vector(sub, y, z)
    hyw, hxz = _h_vector(sub, y, w), _h_vector(sub, x, z)
    val += float(hxw @ hyz - hyw @ hxz)
    coeff = (
        sub.spec.lambda1 - sub.spec.lambda2
        if sub.spec.kind == KIND_FIRST
        else sub.spec.b
    )
    val -= coeff * (
        float(sub.spec.P @ hyz) * float(np.dot(X, W))
        - float(sub.spec.P @ hxz) * float(np.dot(Y, W))
    )
    return val


# --- the non-Gauss pair curvature, term by term --------------------------------

def pair_nongauss_elementwise(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Non-Gauss part of R(x, y, y, x) on rows of unit tangent pairs (k, n),
    evaluated term by term on the values of the forms of ``_pair_forms`` at
    each pair, with the ambient terms of the contact space form (h' = A,
    phi h' = B, eta = u on the frame) and the connection terms folded into
    A - C_x (in x) and A - C_y (in y)."""
    model = sub.model
    c, mu, u = model.c, model.mu_contact, sub.eta_t
    left, right = np.stack([X, X, Y])[:, None], np.stack([Y, X, Y])[:, None]
    xy, xx, yy = ((left @ _pair_forms(sub)) * right).sum(axis=-1)
    ux, uy = X @ u, Y @ u
    return (
        (c + 3.0) / 4.0
        - (c + 3.0 - 4.0 * model.kappa) / 4.0 * (ux ** 2 + uy ** 2)
        + 3.0 * (c - 1.0) / 4.0 * xy[0] ** 2
        + 0.5 * (xy[2] ** 2 - xy[1] ** 2 + xx[1] * yy[1] - xx[2] * yy[2])
        + xx[3] + yy[4]
        + (1.0 - mu) * (2.0 * ux * uy * xy[1] - xx[1] * uy ** 2 - yy[1] * ux ** 2)
    )


# --- intrinsic invariants on the raw tensor -----------------------------------

def sectional_by_riem(riem: np.ndarray, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """K = (R(v1,v2,v2,v1) - R(v1,v2,v1,v2)) / 2 for orthonormal coordinate
    rows of V1 and V2, shapes (k, n)."""
    r1221 = np.einsum("abcd,ka,kb,kc,kd->k", riem, V1, V2, V2, V1)
    r1212 = np.einsum("abcd,ka,kb,kc,kd->k", riem, V1, V2, V1, V2)
    return (r1221 - r1212) / 2.0


def tau_by_loop(riem: np.ndarray) -> float:
    """Scalar curvature: K of the coordinate planes i < j, added one by one."""
    n = riem.shape[0]
    total = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            total += (riem[i, j, j, i] - riem[i, j, i, j]) / 2.0
    return float(total)


def ricci_form_by_traces(riem: np.ndarray) -> np.ndarray:
    """The symmetric part of (M1 - M2) / 2, M1[a,d] = sum_b R[a,b,b,d] and
    M2[a,c] = sum_b R[a,b,c,b]: the symmetrized Ricci quadratic form."""
    Q = (np.einsum("abbd->ad", riem) - np.einsum("abcb->ac", riem)) / 2.0
    return (Q + Q.T) / 2.0


def ricci_by_frame(riem: np.ndarray, x: np.ndarray) -> float:
    """Raw Ricci curvature sum_j R(x, e_j, e_j, x) over the coordinate frame."""
    basis = np.eye(len(x))
    return float(np.einsum("abcd,a,kb,kc,d->", riem, x, basis, basis, x))


# --- the 3.1/4.1 and 3.3/4.2 checks in a completed frame ------------------------

def ricci_nongauss_by_frame(sub: SubmanifoldPoint, x: np.ndarray) -> float:
    """Non-Gauss part of the Ricci sum at the unit frame coordinates x: the
    pair form summed over a ``complete_frame`` basis of x^perp."""
    frame = complete_frame(x[None, :])
    return float(np.sum(_pair_nongauss(sub, np.broadcast_to(x, frame.shape), frame)))


def adapted_block_match_by_frame(sub: SubmanifoldPoint, v1: np.ndarray, v2: np.ndarray) -> bool:
    """The tau - K equality pattern read in the frame (v1, v2, completion):
    the first operator diag(h11, h22, s, ..., s) with s = h11 + h22, the
    others trace-free 2x2 blocks in the plane and zero elsewhere, to a
    tolerance scaled by the largest adapted entry."""
    basis = np.vstack([v1, v2, complete_frame(np.vstack([v1, v2]))])
    h_adapted = np.einsum("ia,rab,jb->rij", basis, sub.h, basis)
    tol = _SHAPE_TOL * (1.0 + np.abs(h_adapted).max())
    first = h_adapted[0]
    if np.abs(first - np.diag(np.diag(first))).max() > tol:
        return False
    if np.abs(np.diag(first)[2:] - (first[0, 0] + first[1, 1])).max() > tol:
        return False
    for other in h_adapted[1:]:
        if abs(other[0, 0] + other[1, 1]) > tol:
            return False
        masked = other.copy()
        masked[:2, :2] = 0.0
        if np.abs(masked).max() > tol:
            return False
    return True


# --- plane bases and structure reports ----------------------------------------

def rotated(plane: Plane, angle: float) -> Plane:
    """Same plane, basis rotated in-plane by ``angle``."""
    c, s = np.cos(angle), np.sin(angle)
    return Plane(c * plane.e1 + s * plane.e2, -s * plane.e1 + c * plane.e2)


def reflected(plane: Plane) -> Plane:
    """Same plane with the second basis vector flipped."""
    return Plane(plane.e1, -plane.e2)


def residual(report: ValidationReport, name: str) -> float:
    """The residual of the structure check called ``name``."""
    for c in report.checks:
        if c.name == name:
            return c.max_residual
    raise KeyError(name)


# --- Thorpe's bound on the least sectional curvature at n = 4 -----------------

# The Pluecker form on Lambda^2 R^4, in the pair order a < b of
# ``np.triu_indices(4, 1)``: W(w) = w01 w23 - w02 w13 + w03 w12, which
# vanishes exactly on the decomposable 2-vectors.
PLUECKER = np.zeros((6, 6))
PLUECKER[[0, 5], [5, 0]] = PLUECKER[[2, 3], [3, 2]] = 0.5
PLUECKER[[1, 4], [4, 1]] = -0.5


def thorpe_lower_bound(sub: SubmanifoldPoint) -> float:
    """max_t lambda_min(B + t W) for ``_bivector_form`` B on n = 4.

    Every unit decomposable w has W(w) = 0, so each lambda_min(B + t W) is a
    lower bound on the least sectional curvature, and in dimension 4 the
    maximum over t equals it (Thorpe, J. Differential Geom. 6, 1972).  The
    function of t is concave and below lambda_max(B) - |t| / 2, so its
    maximum lies in |t| <= 2 (lambda_max(B) - lambda_min(B)); golden-section
    search finds it, and the largest value seen is returned.
    """
    if sub.n != 4:
        raise ValueError("Thorpe's bound is for n = 4")
    B = _bivector_form(sub)
    g = lambda t: float(np.linalg.eigvalsh(B + t * PLUECKER)[0])
    spread = np.linalg.eigvalsh(B)
    lo, hi = -2.0 * (spread[-1] - spread[0]), 2.0 * (spread[-1] - spread[0])
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    ga, gb = g(a), g(b)
    best = max(g(0.0), ga, gb)
    for _ in range(200):
        if ga >= gb:
            hi, b, gb = b, a, ga
            a = hi - ratio * (hi - lo)
            ga = g(a)
        else:
            lo, a, ga = a, b, gb
            b = lo + ratio * (hi - lo)
            gb = g(b)
        best = max(best, ga, gb)
        if hi - lo <= 1e-15 * (1.0 + abs(lo) + abs(hi)):
            break
    return best


# --- one objective through the batched refine ----------------------------------

def refine_one(f, u0):
    """``refine_on_sphere`` on the one objective ``f`` (N, dim) -> (N,) from
    one start (dim,) or a stack (s, dim), as a one-column call; returns
    (arg, value) of shapes (dim,) and ()."""
    U, F = refine_on_sphere(lambda X: f(X)[:, None], np.array(u0, dtype=float, ndmin=2)[None])
    return U[0], float(F[0])
