"""Submanifold germ: decompositions, induced curvature, and intrinsic scalars.

``attach`` fixes an n-dimensional tangent frame inside the ambient space,
derives the orthonormal normal frame, decomposes xi, P, phi and h' into
tangential/normal parts, forms the induced second fundamental form of the
chosen connection, and precomputes the full induced curvature tensor
R[a,b,c,d] = R(e_a, e_b, e_c, e_d) on the tangent frame.  Every intrinsic
quantity (sectional curvature, scalar curvature, Ricci curvatures, the
k-Ricci invariant, Casorati curvatures) is then a cheap contraction or a
small eigenvalue problem.  The hyperplane extrema of the Casorati curvature
are enclosed by the certified bounds of ``casorati_bounds`` and estimated
from inside by the values attained at the same decomposition's directions
(``casorati``), exact when h has at most one nonzero normal slice.

The tensor is built from first principles: the connection enters only as
its difference tensor Delta (``connections.difference_tensor``), and R is
the Gauss equation of hhat plus the curvature terms of Delta (S. Kobayashi
and K. Nomizu, Foundations of Differential Geometry I, 1963; see
``_induced_tensor``).  The tests compare it with the paper's printed route,
the ambient curvature of the connection plus the Gauss-equation corrections
on raw vectors.

Since the connections are not metric, R(X,Y,Z,W) != -R(X,Y,W,Z) in general,
and every symmetrized invariant (K, tau, the symmetrized Ricci form, Theta_k)
reads one form, R antisymmetrized in its last pair (``_theta_form``): e.g.
K = (R(e1,e2,e2,e1) - R(e1,e2,e1,e2)) / 2, which is basis-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connections import ConnectionSpec, difference_tensor
from .contact import ContactPointModel
from .errors import DimensionMismatch, NonSymmetricH
from .frames import Plane, as_array, as_integer, complete_frame, orthonormalize
from .spheresearch import (
    LAYOUT_SIZE,
    complements,
    extremize_on_sphere,
    triu_pairs,
    _frozen,
)

__all__ = [
    "SubmanifoldPoint",
    "attach",
    "induced_curvature",
    "sectional",
    "scalar_tau",
    "scalar_tau_pair",
    "ricci",
    "ricci_form",
    "theta_k",
    "ThetaEstimate",
    "casorati",
    "casorati_bounds",
    "CasoratiCurvatures",
    "delta_casorati",
]

_TANGENCY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class SubmanifoldPoint:
    """Immutable bundle of a submanifold germ and its derived data.

    tangent/normal are row-stacked orthonormal frames; hhat and h are the
    (p, n, n) component arrays of the Levi-Civita and induced second
    fundamental forms.  The ``*_top`` matrices are tangent-frame restrictions
    (e.g. phat[a,b] = <e_a, phi e_b>).  Every array is read-only; ``cache``
    holds the values computed from them once per point (``memo``).
    """

    model: ContactPointModel
    spec: ConnectionSpec
    n: int
    p: int
    tangent: np.ndarray
    normal: np.ndarray
    hhat: np.ndarray
    h: np.ndarray
    # decomposition fields
    phat: np.ndarray          # tangential phi, n x n
    hprime_top: np.ndarray    # tangential h', n x n
    phi_hprime_top: np.ndarray  # tangential phi h', n x n
    eta_t: np.ndarray         # eta on the tangent frame, length n
    pi_nor: np.ndarray        # pi on the normal frame, length p
    riem: np.ndarray          # induced curvature tensor, n^4
    cache: dict = field(default_factory=dict, repr=False)

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def mean_curvature(self) -> np.ndarray:
        """Mean curvature vector of the induced connection, as an ambient vector."""
        traces = np.einsum("rii->r", self.h) / self.n
        return traces @ self.normal

    @property
    def mean_curvature_sq(self) -> float:
        def make():
            traces = np.einsum("rii->r", self.h) / self.n
            return float(traces @ traces)
        return self.memo("H_sq", make)

    @property
    def h_norm_sq(self) -> float:
        return self.memo("h_sq", lambda: float((self.h * self.h).sum()))

    def memo(self, key: str, make):
        """``make()``, computed on the first call for this point and kept in
        ``cache`` under ``key``."""
        if key not in self.cache:
            self.cache[key] = make()
        return self.cache[key]

    def tangent_coords(self, X) -> np.ndarray:
        """Coordinates of a tangent vector in the tangent frame (checked)."""
        X = as_array(X, "tangent vector", (self.dim,))
        x = self.tangent @ X
        r = X - x @ self.tangent
        residual = np.sqrt(r @ r)
        if residual > _TANGENCY_TOL * max(1.0, np.sqrt(X @ X)):
            raise DimensionMismatch(
                f"vector is not tangent (normal residual {residual:.3e})"
            )
        return x

    def plane_coords(self, plane: Plane) -> tuple[np.ndarray, np.ndarray]:
        """Frame coordinates of a ``frames.Plane``'s basis (checked); any
        other type raises ValueError."""
        if not isinstance(plane, Plane):
            raise ValueError(f"plane must be a frames.Plane, got {type(plane).__name__}")
        return self.tangent_coords(plane.e1), self.tangent_coords(plane.e2)


def _stack_products(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_k P_k[i,j] Q_k[l,m] over stacks (K, n, n), as [i,j,l,m]: one GEMM."""
    K, n = P.shape[:2]
    return (P.reshape(K, n * n).T @ Q.reshape(K, n * n)).reshape(n, n, n, n)


def _induced_tensor(model, u, Phi, A, B, sigma, h, delta, nabla_delta):
    """R[a,b,c,d] = <R(e_a,e_b)e_c, e_d> from first principles: T - T^(ab).

    The induced connection is nabla' + Delta_T, nabla' the induced
    Levi-Civita one and Delta_T the tangential part of Delta (``delta`` on
    [tangent; normal], ``nabla_delta`` its derivative on the tangent frame).
    By Kobayashi-Nomizu and the Gauss-Weingarten formulas, with sigma = hhat
    and h = sigma + nor Delta, T(X,Y,Z,W) = Rbar(X,Y,Z,W) - h(X,Z).sigma(Y,W)
    + [(nabla_X Delta)(Y,Z) + Delta(Y, sigma(X,Z)) + Delta_T(X, Delta_T(Y,Z))].W,
    where h.sigma holds the Gauss pairs of sigma and <sigma(X,W), nor
    Delta(Y,Z)>.  Rbar, the (kappa,mu)-space form (T. Koufogiorgos, Tokyo J.
    Math. 20, 1997; ``contact._curvature_lc_groups``), is with g = I,
    U = eta (x) eta, A = h', B = phi h', V = (1 - mu) U - g and
    e = (c+3-4 kappa)/4 the pairs P_k[a,c] Q_k[b,d] (-(c+3)/4 g, g); (e U, g),
    (e g, U); ((c-1)/4 Phi, Phi^T); (-A/2, A), (B/2, B); (V, A), (A, V), plus
    (c-1)/4 Phi_ab Phi_dc.
    """
    n = len(u)
    c, kappa, mu = model.c, model.kappa, model.mu_contact
    e = (c + 3.0 - 4.0 * kappa) / 4.0
    I, U = np.eye(n), u[:, None] * u
    V = (1.0 - mu) * U - I
    P = np.concatenate([[-(c + 3.0) / 4.0 * I, e * U, e * I, (c - 1.0) / 4.0 * Phi,
                         -0.5 * A, 0.5 * B, V, A], -h, sigma])
    Q = np.concatenate([[I, I, U, Phi.T, A, B, A, V], sigma,
                        delta[:n, n:, :n].transpose(1, 0, 2)])
    delta_T = delta[:n, :n, :n]
    T = (_stack_products(P, Q).transpose(0, 2, 1, 3) + nabla_delta
         + _stack_products(delta_T.transpose(2, 0, 1), delta_T.transpose(1, 0, 2)).transpose(2, 0, 1, 3)
         + (c - 1.0) / 4.0 * np.multiply.outer(Phi, Phi.T))
    return T - T.transpose(1, 0, 2, 3)


def attach(
    model: ContactPointModel,
    spec: ConnectionSpec,
    tangent_basis,
    hhat,
) -> SubmanifoldPoint:
    """Build a submanifold germ from a tangent basis and its Levi-Civita form.

    The basis is orthonormalized (order- and direction-preserving); hhat is
    interpreted in the resulting frame.  The normal frame is the deterministic
    completion by standard basis vectors, so coordinate-aligned tangent frames
    get the remaining coordinate vectors, in index order, as normals.

    The connection enters only as its difference tensor Delta
    (``connections.difference_tensor``): h = hhat + nor Delta, and ``riem``
    is ``_induced_tensor``.
    """
    d = model.dim
    if spec.dim != d:
        raise DimensionMismatch(f"connection dimension {spec.dim} != ambient {d}")
    E = orthonormalize(tangent_basis)  # may raise RankDeficient
    return _attach_frame(model, spec, E, hhat)


def _attach_frame(model: ContactPointModel, spec: ConnectionSpec, E: np.ndarray,
                  hhat) -> SubmanifoldPoint:
    """``attach`` after its ``orthonormalize``: E, the orthonormal frame of
    the tangent basis, becomes ``tangent`` and is frozen in place.  A fuzz
    campaign passes the frame it generated its instance with."""
    d = model.dim
    n = E.shape[0]
    if E.shape[1] != d:
        raise DimensionMismatch(f"tangent vectors have length {E.shape[1]}, ambient is {d}")
    if not 3 <= n < d:
        raise DimensionMismatch(f"need 3 <= n < {d}, got n = {n}")
    N = complete_frame(E)
    p = d - n

    hhat = as_array(hhat, "hhat", (p, n, n))
    asym = np.abs(hhat - np.transpose(hhat, (0, 2, 1))).max()
    if asym > 1e-12:
        raise NonSymmetricH(f"hhat slices must be symmetric (max asymmetry {asym:.3e})")

    pi = np.concatenate([E, N]) @ spec.P
    delta = difference_tensor(spec, pi)
    h = hhat + delta[:n, :n, n:].transpose(2, 0, 1)

    phat, hp_top, php_top = E @ np.array([model.phi, model.hprime, model.phi @ model.hprime]) @ E.T
    eta_t = E @ model.xi

    riem = _induced_tensor(model, eta_t, phat, hp_top, php_top, hhat, h, delta,
                           difference_tensor(spec, E @ spec.D @ E.T))

    sub = SubmanifoldPoint(
        model=model, spec=spec, n=n, p=p, tangent=E, normal=N,
        hhat=hhat, h=h,
        phat=phat, hprime_top=hp_top, phi_hprime_top=php_top,
        eta_t=eta_t, pi_nor=pi[n:], riem=riem,
    )
    for value in vars(sub).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return sub


def induced_curvature(sub: SubmanifoldPoint, X, Y, Z, W) -> float:
    """R(X,Y,Z,W) of the induced connection for tangent vectors (cached tensor)."""
    return float(_form_rows(sub.riem, *(sub.tangent_coords(V)[None] for V in (X, Y, Z, W)))[0])


def sectional(sub: SubmanifoldPoint, plane: Plane) -> float:
    """Symmetrized sectional curvature K of a tangent 2-plane (``_sectional_batch``)."""
    v1, v2 = sub.plane_coords(plane)
    return float(_sectional_batch(sub, v1[None], v2[None])[0])


def _sectional_batch(sub: SubmanifoldPoint, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """K = anti(v1, v2, v2, v1) for orthonormal coordinate pairs, shapes (k, n):
    (v1 (x) v1) ``_theta_form`` (v2 (x) v2), one GEMM (``_form_rows``)."""
    return _form_rows(_theta_form(sub), V1, V1, V2, V2)


def _form_rows(T: np.ndarray, X, Y, Z, W) -> np.ndarray:
    """(x (x) y) T (z (x) w) on coordinate rows, shapes (k, n), with the n^4
    array T read as an (n*n, n*n) matrix: one GEMM of outer-product rows."""
    k, n = X.shape
    left = (X[:, :, None] * Y[:, None, :]).reshape(k, n * n)
    right = (Z[:, :, None] * W[:, None, :]).reshape(k, n * n)
    return ((left @ T.reshape(n * n, n * n)) * right).sum(axis=1)


def scalar_tau_pair(sub: SubmanifoldPoint) -> tuple[float, float]:
    """Scalar curvature through both defining formulas.

    First value: sum of K over coordinate 2-planes of the tangent frame,
    anti[i, j, j, i] (``_anti``) summed over i < j.  Second: half the double
    sum of R(e_i, e_j, e_j, e_i), einsum("ijji") on raw ``riem``.  They must
    agree.  Memoized on the point.
    """
    def make():
        i, j = triu_pairs(sub.n)
        return float(_anti(sub)[i, j, j, i].sum()), float(np.einsum("ijji->", sub.riem)) / 2.0
    return sub.memo("tau_pair", make)


def scalar_tau(sub: SubmanifoldPoint) -> float:
    """Scalar curvature (sum of sectional curvatures over coordinate planes)."""
    return scalar_tau_pair(sub)[0]


def ricci(sub: SubmanifoldPoint, X) -> float:
    """Raw Ricci curvature of a unit tangent vector: the sum of
    R(X, e_j, e_j, X) over the tangent frame, x^T M x with the trace
    M[a, d] = sum_b R[a, b, b, d], einsum("abbd->ad") on raw ``riem``.

    The X-term of the full-frame trace vanishes by the antisymmetry of R in
    its first two slots, so this is the sum over any orthonormal completion
    of X.  The symmetrized Ricci curvature is ``ricci_form``'s quadratic form.
    """
    return _ricci_at(sub, sub.tangent_coords(X), "ricci")


def _ricci_at(sub: SubmanifoldPoint, x: np.ndarray, who: str) -> float:
    """``ricci`` of the direction with tangent-frame coordinates x; a
    non-unit x raises ValueError with ``who`` (the caller) and its norm."""
    if abs((norm := float(np.sqrt(x @ x))) - 1.0) > 1e-10:
        raise ValueError(f"{who}: X must be a unit vector, got norm {norm}")
    return float(x @ np.einsum("abbd->ad", sub.riem) @ x)


def ricci_form(sub: SubmanifoldPoint) -> np.ndarray:
    """Symmetric matrix Q with x^T Q x = symmetrized Ricci of the direction x.

    The symmetrized trace einsum("abbd->ad") of ``_anti``, the symmetric
    part of sum_b (R[a,b,b,d] - R[a,b,d,b]) / 2.  Its smallest eigenvalue over
    unit vectors is the exact k = n Ricci infimum, and tr Q = 2 tau.
    """
    Q = np.einsum("abbd->ad", _anti(sub))
    return (Q + Q.T) / 2.0


@dataclass(frozen=True)
class ThetaEstimate:
    """k-Ricci invariant estimate: value, how it was obtained, sample count.

    mode 'exact_eigen' (k = n) and 'grid' (k = 2 on n = 3) are eigenvalues:
    on n = 3 every bivector is decomposable, so Theta_2 is the least
    eigenvalue of the sectional-curvature form on 2-vectors (``samples`` 0).
    'multistart' (k < n, n >= 4) comes from a sphere search over the
    direction x: the least exact values on the ``LAYOUT_SIZE`` layout
    directions (``samples``) pick the starts, and a Riemannian Newton refine
    on the exact function returns a value attained at a concrete direction,
    an upper bound on the true infimum.  Every mode is an upper bound on
    Theta_k, and so is Theta_n, which is what ``verify`` relies on.
    """

    value: float
    mode: str
    samples: int


def _finite(form: np.ndarray) -> np.ndarray:
    if not np.isfinite(form).all():
        raise ValueError("Theta_k: the curvature data overflows (non-finite curvature form)")
    return form


def _theta_form(sub: SubmanifoldPoint) -> np.ndarray:
    """anti = (R[a,b,c,d] - R[a,b,d,c]) / 2 as the (n*n, n*n) matrix
    form[(a, d), (b, c)] = anti[a, b, c, d]; memoized and read-only.  The one
    place ``riem`` is antisymmetrized: every symmetrized invariant reads this
    form, S_x and K as products and the rest through its view ``_anti``."""
    def make():
        n = sub.n
        anti = (sub.riem - sub.riem.transpose(0, 1, 3, 2)) / 2.0
        return _frozen(anti.transpose(0, 3, 1, 2).reshape(n * n, n * n))
    return sub.memo("theta_form", make)


def _anti(sub: SubmanifoldPoint) -> np.ndarray:
    """``_theta_form`` as the 4-index array anti[a, b, c, d], a view (no copy)."""
    n = sub.n
    return _theta_form(sub).reshape(n, n, n, n).transpose(0, 2, 3, 1)


def _direction_matrices(sub: SubmanifoldPoint, X: np.ndarray) -> np.ndarray:
    """S_x on x^perp in a Householder basis, one symmetric (n-1) x (n-1)
    matrix per unit row x of X, shape (len(X), n - 1, n - 1).

    S_x(v, v) = (R(x,v,v,x) - R(x,v,x,v)) / 2 is x (x) x times
    ``_theta_form``; with C the bases of x^perp (``complements`` of X), the
    matrix is the symmetrized C^T S_x C.  Its one caller is
    ``_partial_ricci_min``, so the layout rows and every refine stage of the
    Theta_k search build their matrices here.  Every product is stacked, one
    per x: a GEMM over the batch would round a row by how many rows share
    it, and the search needs each row's bits to be its own.
    """
    n, C = sub.n, complements(X)
    xx = (X[:, :, None] * X[:, None, :]).reshape(len(X), n * n)
    M = C.transpose(0, 2, 1) @ (xx[:, None, :] @ _theta_form(sub)).reshape(len(X), n, n) @ C
    return _finite((M + M.transpose(0, 2, 1)) / 2.0)


def _partial_ricci_min(sub: SubmanifoldPoint, X: np.ndarray, k: int | np.ndarray) -> np.ndarray:
    """inf over k-planes containing x of the k-Ricci sum at x, per unit row x of X.

    For fixed x the infimum over the remaining k-1 directions is exact: the
    sum of the k-1 smallest eigenvalues of S_x on the orthogonal complement
    of x (``_direction_matrices``), read from their cumulative sums.  An
    integer k gives shape (len(X),); an integer array of ks gives one column
    per k, shape (len(X), len(k)), from one eigenvalue problem per row.
    """
    spectra = np.linalg.eigvalsh(_direction_matrices(sub, X))
    return np.cumsum(spectra, axis=1)[:, np.asarray(k) - 2]


def _bivector_form(sub: SubmanifoldPoint) -> np.ndarray:
    """Symmetric form B on 2-vectors with K(x ^ y) = B(x ^ y, x ^ y) for
    orthonormal x, y: B[(a,b),(c,d)] = anti[a,b,d,c] (``_anti``) over pairs
    a < b, c < d."""
    anti = _anti(sub)
    a, b = triu_pairs(sub.n)
    B = anti[a[:, None], b[:, None], b[None, :], a[None, :]]
    return (B + B.T) / 2.0


def _checked_k(sub: SubmanifoldPoint, k) -> int:
    """k checked for ``theta_k``: a Python int in [2, n]
    (``frames.as_integer``: numpy's integers pass, a bool does not)."""
    if (k := as_integer(k, "k", 2)) > sub.n:
        raise ValueError(f"k must be <= n = {sub.n}, got {k}")
    return k


def theta_k(sub: SubmanifoldPoint, k: int) -> ThetaEstimate:
    """The normalized k-Ricci infimum Theta_k over k-planes and unit directions.

    k = n is an eigenvalue problem of ``ricci_form``, and so is k = 2 on
    n = 3: every 2-vector in R^3 is decomposable, so Theta_2 is the least
    eigenvalue of ``_bivector_form`` (mode 'grid').  Both are exact.  For
    k < n on n >= 4 the plane infimum at each direction x is exact
    (``_partial_ricci_min``: the k-1 least eigenvalues of S_x on x^perp in
    a Householder basis), and one search serves every k < n at once:
    ``extremize_on_sphere`` evaluates ``_partial_ricci_min`` of every k < n,
    one column per k, on the ``LAYOUT_SIZE`` layout directions, each
    column picks its ``REFINE_STARTS`` least, and one ``refine_on_sphere``
    loop refines all of them by Riemannian Newton, one ``_partial_ricci_min``
    call per stage on every k's rows; the evaluator is batch-invariant, so
    each value is the one-k search's, attained at a concrete direction.
    Raises ValueError for a k that is not an integer in [2, n]
    (``_checked_k``) and when the curvature data overflows.  The n - 2
    searched values are memoized on the point together, so a second k < n
    at the same point is a memo read; k = n and the n = 3 grid rerun their
    eigenvalue problem.
    """
    n, k = sub.n, _checked_k(sub, k)
    if k == n:
        w = np.linalg.eigvalsh(_finite(ricci_form(sub)))
        return ThetaEstimate(float(w[0]) / (n - 1), "exact_eigen", 0)
    if n == 3:
        w = np.linalg.eigvalsh(_finite(_bivector_form(sub)))
        return ThetaEstimate(float(w[0]), "grid", 0)

    def search():
        ks = np.arange(2, n)
        _, vals = extremize_on_sphere(lambda X: _partial_ricci_min(sub, X, ks), n)
        return _frozen(vals / (ks - 1))
    value = sub.memo("theta_multistart", search)[k - 2]
    return ThetaEstimate(float(value), "multistart", LAYOUT_SIZE)


@dataclass(frozen=True, eq=False)
class CasoratiCurvatures:
    """Casorati curvature, its hyperplane extrema, and the delta invariants.

    C(L) for a hyperplane L with unit normal u is the normalized squared
    Frobenius norm of the h-slices compressed by the projector off u; as a
    function of u it is a degree-4 polynomial on the sphere (see
    ``casorati``).  ``inf_CL``/``sup_CL`` are values attained at the unit
    normals ``argmin_u``/``argmax_u``: the extrema with at most one nonzero
    slice, an inner estimate of them otherwise, and ``delta_c``/
    ``delta_c_hat`` are read at them.
    """

    C: float
    inf_CL: float
    sup_CL: float
    delta_c: float
    delta_c_hat: float
    argmin_u: np.ndarray
    argmax_u: np.ndarray

    def as_dict(self) -> dict:
        return {
            "C": self.C,
            "inf_CL": self.inf_CL,
            "sup_CL": self.sup_CL,
            "delta_c": self.delta_c,
            "delta_c_hat": self.delta_c_hat,
        }


@dataclass(frozen=True, eq=False)
class _Quartic:
    """F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2 with S = sum_r h_r^2,
    over the nonzero slices h_r; C(L) = F(u) / (n - 1) for the hyperplane
    with unit normal u.  ``lam``, ``inf_r`` and ``U``: the point's one
    ``_slice_directions``; ``F``: F at the rows of U, read directly as the
    quadratic forms u^T S u and u^T h_r u of every row."""

    h_sq: float
    lam: np.ndarray
    inf_r: np.ndarray
    U: np.ndarray
    F: np.ndarray

    @classmethod
    def of(cls, sub: SubmanifoldPoint) -> "_Quartic":
        """The quartic of ``sub.h``; memoized on the point, arrays read-only."""
        def make():
            h = sub.h[(sub.h != 0.0).any(axis=(1, 2))]
            S = np.einsum("rab,rbc->ac", h, h)
            h_sq = float((h * h).sum())
            lam, inf_r, U = map(_frozen, _slice_directions(S, h))
            q = ((U @ h) * U).sum(axis=2)
            F = h_sq - 2.0 * ((U @ S) * U).sum(axis=1) + (q * q).sum(axis=0)
            return cls(h_sq=h_sq, lam=lam, inf_r=inf_r, U=U, F=_frozen(F))
        return sub.memo("quartic", make)


def _slice_edges(lam: np.ndarray):
    """F_r on the edges of the simplex for each slice h_r = V diag(lam_r) V^T,
    with lam of shape (p, n): (edge, t), both (p, n, n).

    With w_i = (V^T u)_i^2 on the simplex, F_r is ||h_r||^2 - 2 sum lam_i^2
    w_i + (sum lam_i w_i)^2, a convex function of w.  -2 s + t^2 has no
    stationary point, so its minimum lies on an edge w = t e_i + (1 - t) e_j,
    where F_r is a convex quadratic in t that is least at t = lam_i /
    (lam_i - lam_j), clipped to [0, 1]; the pairs i = j cover the vertices.
    ``edge[r, i, j]`` is that least value and ``t[r, i, j]`` its weight.
    """
    sq = lam * lam
    li, lj, si, sj = lam[:, :, None], lam[:, None, :], sq[:, :, None], sq[:, None, :]
    diff = li - lj
    t = np.divide(li, diff, out=np.zeros_like(diff), where=diff != 0.0)
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    mean = lj + t * diff
    return sq.sum(axis=1)[:, None, None] - 2.0 * (sj + t * (si - sj)) + mean * mean, t


def _slice_directions(S: np.ndarray, h: np.ndarray):
    """One ``eigh`` of the stack [S; h_1 ... h_p], each form V diag(lam) V^T:
    lam (p + 1, n), inf F_r (p,) from one ``_slice_edges``, and unit rows U,
    every eigenvector, then per slice the edge minimizer sqrt(t) v_i +
    sqrt(1 - t) v_j attaining inf F_r.  Non-finite S gives NaN, not an error."""
    forms = np.concatenate([S[None], h])
    lam, V = (np.linalg.eigh(forms) if np.isfinite(S).all()
              else (np.full(forms.shape[:2], np.nan), np.full(forms.shape, np.nan)))
    p, n = len(h), len(S)
    edge, t = _slice_edges(lam[1:])
    r = np.arange(p)
    i, j = np.divmod(edge.reshape(p, n * n).argmin(axis=1), n)
    t = t[r, i, j][:, None]
    mins = np.sqrt(t) * V[r + 1, :, i] + np.sqrt(1.0 - t) * V[r + 1, :, j]
    return lam, edge[r, i, j], np.concatenate([V.transpose(0, 2, 1).reshape(-1, n), mins])


def casorati_bounds(sub: SubmanifoldPoint) -> tuple[float, float]:
    """Certified (lower, upper) bounds on (inf C(L), sup C(L)), i.e. on the
    extrema of F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2, over n - 1.

    inf F >= ||h||^2 - 2 lambda_max(S), dropping the squares, and inf F >=
    sum_r inf F_r, since F = sum_r F_r with F_r the quartic of slice h_r
    alone, whose infimum is exact (``_slice_edges``).  sup F <= ||h||^2 -
    lambda_min(S), since (u^T h_r u)^2 <= |h_r u|^2.  Any orthonormal normal
    frame gives valid slices.  On one slice both bounds are the exact
    extrema.  They read the point's one ``eigh`` of [S; h_1 ... h_p]
    (``_Quartic``).  Non-finite data gives NaN bounds, not an exception.

    The bounds are complete for the 3.5/4.4 verdicts: at every r != n(n-1)
    the certified slack delta_C(r; n-1) - 2G (E cancels) is at least the sum
    of the one-slice slacks, each >= 0.  C and G are sums over the slices,
    and delta_C (``delta_casorati``) is linear in C(L), rising with inf C(L)
    below r = n(n-1) and falling with sup C(L) above it.  The certified inf
    F is >= sum_r inf F_r, and by Weyl's inequality lambda_min(S) >=
    sum_r lambda_min(h_r^2), so the certified sup F = ||h||^2 -
    lambda_min(S) is <= sum_r (||h_r||^2 - lambda_min(h_r^2)) = sum_r sup F_r.
    Both bounds are exact on one slice, so each one-slice term is that
    slice's true slack, which the theorem for h_r alone makes >= 0.  A
    negative certified slack can come only from rounding or from a fault
    in these bounds.
    """
    quartic = _Quartic.of(sub)
    inf_f = max(quartic.h_sq - 2.0 * float(quartic.lam[0, -1]), float(quartic.inf_r.sum()))
    return inf_f / (sub.n - 1), (quartic.h_sq - float(quartic.lam[0, 0])) / (sub.n - 1)


def delta_casorati(n: int, r: float, C, inf_CL, sup_CL):
    """delta_C(r; n-1) = r C + a(r) C(L), a(r) = (n-1)(n+r)(n^2-n-r)/(r n),
    with C(L) = ``inf_CL`` for r < n(n-1) and ``sup_CL`` above (Decu, Haesen
    and Verstraelen, 2008)."""
    CL = inf_CL if r < n * (n - 1) else sup_CL
    return r * C + (n - 1) * (n + r) * (n * n - n - r) / (r * n) * CL


def casorati(sub: SubmanifoldPoint) -> CasoratiCurvatures:
    """Casorati curvature C, hyperplane inf/sup of C(L) as attained values,
    and the normalized delta invariants at them, delta_c(n-1) = C/2 +
    (n+1)/(2n) inf C(L) and delta_c_hat(n-1) = 2C - (2n-1)/(2n) sup C(L):
    ``delta_casorati`` / n(n-1).

    C(L) = F(u) / (n - 1) with F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2
    and S = sum_r h_r^2.  One rule at every number of nonzero slices:
    ``inf_CL``/``sup_CL`` are the least and greatest F/(n-1) over the rows of
    ``_Quartic.U`` (every eigenvector of S and of each h_r, then each slice's
    edge minimizer; ties go to the first row), attained at ``argmin_u``/
    ``argmax_u``.  Being attained, both lie inside the certified bounds of
    ``casorati_bounds`` (``cross_check``'s ``casorati_bracket``).  With at
    most one nonzero slice U holds the exact minimizer (h_1's edge
    minimizer) and maximizer (its eigenvector at least lam^2), so the values
    are the extrema up to rounding.  With more they are an inner estimate:
    inf_CL may lie above the true infimum and sup_CL below the true
    supremum, and delta_c/delta_c_hat at them are estimates, not the
    invariants.  The 3.5/4.4 verdicts therefore rest on ``casorati_bounds``,
    and these values only report beside them.

    Deterministic; memoized on the point.  The argument arrays are read-only.
    """
    def make():
        n, quartic = sub.n, _Quartic.of(sub)
        C = sub.h_norm_sq / n
        lo, hi = int(np.argmin(quartic.F)), int(np.argmax(quartic.F))
        inf_val, sup_val = float(quartic.F[lo]) / (n - 1), float(quartic.F[hi]) / (n - 1)
        nn = n * (n - 1)
        return CasoratiCurvatures(
            C=C, inf_CL=inf_val, sup_CL=sup_val,
            delta_c=float(delta_casorati(n, 0.5 * nn, C, inf_val, sup_val) / nn),
            delta_c_hat=float(delta_casorati(n, 2.0 * nn, C, inf_val, sup_val) / nn),
            argmin_u=quartic.U[lo], argmax_u=quartic.U[hi],
        )
    return sub.memo("casorati", make)
