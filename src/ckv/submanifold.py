"""Submanifold germ: decompositions, induced curvature, and intrinsic scalars.

``attach`` fixes an n-dimensional tangent frame inside the ambient space,
derives the orthonormal normal frame, decomposes xi, P, phi and h' into
tangential/normal parts, forms the induced second fundamental form of the
chosen connection, and precomputes the full induced curvature tensor
R[a,b,c,d] = R(e_a, e_b, e_c, e_d) on the tangent frame.  Every intrinsic
quantity (sectional curvature, scalar curvature, Ricci curvatures, the
k-Ricci invariant, Casorati curvatures) is then a cheap contraction, except
the hyperplane extrema of the Casorati curvature: closed forms when h has at
most one nonzero normal slice, a sphere layout polished by batched Riemannian
Newton otherwise (see ``casorati``).

The tensor is assembled from outer products of the restricted structure data;
the tests compare it with an independent evaluation on raw vectors, the
ambient curvature of the connection plus the Gauss-equation corrections.

Since the connections are not metric, R(X,Y,Z,W) != -R(X,Y,W,Z) in general
and the sectional curvature is the symmetrized combination
K = (R(e1,e2,e2,e1) - R(e1,e2,e1,e2)) / 2, which is basis-independent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connections import KIND_FIRST, ConnectionSpec, correction_tensors
from .contact import ContactPointModel
from .errors import DimensionMismatch, NonSymmetricH
from .frames import Plane, as_vector, complete_frame, orthonormalize
from .spheresearch import (
    LAYOUT_SIZE,
    complements,
    extremize_on_sphere,
    layout_complements,
    layout_monomials,
    quadratic_monomials,
    sphere_samples,
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
    "CasoratiCurvatures",
]

_TANGENCY_TOL = 1e-10


@dataclass(frozen=True)
class SubmanifoldPoint:
    """Immutable bundle of a submanifold germ and its derived data.

    tangent/normal are row-stacked orthonormal frames; hhat and h are the
    (p, n, n) component arrays of the Levi-Civita and induced second
    fundamental forms.  The ``*_top`` matrices are tangent-frame restrictions
    (e.g. phat[a,b] = <e_a, phi e_b>).  Every array is read-only; ``cache``
    holds values memoized from them.
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
    # restricted auxiliary data
    eta_t: np.ndarray         # eta on the tangent frame, length n
    pi_t: np.ndarray          # pi on the tangent frame, length n
    pi_nor: np.ndarray        # pi on the normal frame, length p
    alpha_t: np.ndarray       # alpha restricted, n x n
    beta_t: np.ndarray        # beta restricted, n x n
    alpha_prime_t: np.ndarray  # alpha' restricted, n x n
    riem: np.ndarray          # induced curvature tensor, n^4
    cache: dict = field(default_factory=dict, repr=False, compare=False)

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
        traces = np.einsum("rii->r", self.h) / self.n
        return float(traces @ traces)

    @property
    def h_norm_sq(self) -> float:
        return float(np.sum(self.h * self.h))

    def tangent_coords(self, X) -> np.ndarray:
        """Coordinates of a tangent vector in the tangent frame (checked)."""
        X = as_vector(X, self.dim, "tangent vector")
        x = self.tangent @ X
        residual = np.linalg.norm(X - x @ self.tangent)
        if residual > _TANGENCY_TOL * max(1.0, np.linalg.norm(X)):
            raise DimensionMismatch(
                f"vector is not tangent (normal residual {residual:.3e})"
            )
        return x

    def plane_coords(self, plane: Plane) -> tuple[np.ndarray, np.ndarray]:
        return self.tangent_coords(plane.e1), self.tangent_coords(plane.e2)


def _lc_tensor(I, u, Phi, A, B, c, kappa, mu):
    """Tangent-frame restriction of the Levi-Civita curvature, by term group."""
    es = np.einsum
    t = (c + 3.0) / 4.0 * (es("bc,ad->abcd", I, I) - es("ac,bd->abcd", I, I))
    t += (c + 3.0 - 4.0 * kappa) / 4.0 * (
        es("a,c,bd->abcd", u, u, I) - es("b,c,ad->abcd", u, u, I)
        + es("ac,b,d->abcd", I, u, u) - es("bc,a,d->abcd", I, u, u)
    )
    t += (c - 1.0) / 4.0 * (
        2.0 * es("ab,dc->abcd", Phi, Phi)
        + es("ac,db->abcd", Phi, Phi)
        - es("bc,da->abcd", Phi, Phi)
    )
    t += 0.5 * (
        es("bc,ad->abcd", A, A) - es("ac,bd->abcd", A, A)
        + es("ac,bd->abcd", B, B) - es("bc,ad->abcd", B, B)
    )
    t += (
        -es("ac,bd->abcd", I, A) + es("bc,ad->abcd", I, A)
        + es("a,c,bd->abcd", u, u, A) - es("b,c,ad->abcd", u, u, A)
        - es("ac,bd->abcd", A, I) + es("bc,ad->abcd", A, I)
        - es("bc,a,d->abcd", A, u, u) + es("ac,b,d->abcd", A, u, u)
    )
    t += mu * (
        es("b,c,ad->abcd", u, u, A) - es("a,c,bd->abcd", u, u, A)
        + es("bc,a,d->abcd", A, u, u) - es("ac,b,d->abcd", A, u, u)
    )
    return t


def _induced_tensor(model, spec, I, u, Phi, A, B, alpha_t, beta_t, ap_t, pi_t, pi_nor, h):
    """Full induced curvature tensor: ambient restriction + Gauss corrections."""
    es = np.einsum
    t = _lc_tensor(I, u, Phi, A, B, model.c, model.kappa, model.mu_contact)
    if spec.kind == KIND_FIRST:
        l1, l2 = spec.lambda1, spec.lambda2
        t += l1 * (es("ac,bd->abcd", alpha_t, I) - es("bc,ad->abcd", alpha_t, I))
        t += l2 * (es("ac,bd->abcd", I, alpha_t) - es("bc,ad->abcd", I, alpha_t))
        t += l2 * (l1 - l2) * (es("ac,bd->abcd", I, beta_t) - es("bc,ad->abcd", I, beta_t))
        gauss_coeff = l1 - l2
    else:
        a, b = spec.a, spec.b
        t += a * es("ab,cd->abcd", ap_t - ap_t.T, I)
        t += b * (es("ac,bd->abcd", ap_t, I) - es("bc,ad->abcd", ap_t, I))
        t += b * b * (
            es("b,c,ad->abcd", pi_t, pi_t, I) - es("a,c,bd->abcd", pi_t, pi_t, I)
        )
        gauss_coeff = b
    # Gauss equation solved for the induced curvature.
    t += es("rad,rbc->abcd", h, h) - es("rbd,rac->abcd", h, h)
    t -= gauss_coeff * (
        es("rbc,r,ad->abcd", h, pi_nor, I) - es("rac,r,bd->abcd", h, pi_nor, I)
    )
    return t


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

    Induced second fundamental form: kind 1 subtracts lambda2 <P, e_r> off the
    diagonal of every slice (h = hhat - lambda2 g(.,.) P^perp, with P^perp the
    normal part of P); kind 2 leaves
    it unchanged.
    """
    d = model.dim
    if spec.dim != d:
        raise DimensionMismatch(f"connection dimension {spec.dim} != ambient {d}")
    E = orthonormalize(tangent_basis)  # may raise RankDeficient
    n = E.shape[0]
    if E.shape[1] != d:
        raise DimensionMismatch(f"tangent vectors have length {E.shape[1]}, ambient is {d}")
    if not 3 <= n < d:
        raise DimensionMismatch(f"need 3 <= n < {d}, got n = {n}")
    N = complete_frame(E)
    p = d - n

    hhat = np.array(hhat, dtype=float)
    if hhat.shape != (p, n, n):
        raise DimensionMismatch(f"hhat must have shape {(p, n, n)}, got {hhat.shape}")
    asym = np.abs(hhat - np.transpose(hhat, (0, 2, 1))).max()
    if asym > 1e-12:
        raise NonSymmetricH(f"hhat slices must be symmetric (max asymmetry {asym:.3e})")

    pi_nor = N @ spec.P
    h = hhat.copy()
    if spec.kind == KIND_FIRST:
        h -= spec.lambda2 * pi_nor[:, None, None] * np.eye(n)[None, :, :]

    phat = E @ model.phi @ E.T
    hp_top = E @ model.hprime @ E.T
    php_top = E @ (model.phi @ model.hprime) @ E.T

    ct = correction_tensors(spec)
    alpha_t = E @ ct.alpha @ E.T
    beta_t = E @ ct.beta @ E.T
    ap_t = E @ spec.D @ E.T
    eta_t = E @ model.xi
    pi_t = E @ spec.P

    riem = _induced_tensor(
        model, spec, np.eye(n), eta_t, phat, hp_top, php_top,
        alpha_t, beta_t, ap_t, pi_t, pi_nor, h,
    )

    sub = SubmanifoldPoint(
        model=model, spec=spec, n=n, p=p, tangent=E, normal=N,
        hhat=hhat, h=h,
        phat=phat, hprime_top=hp_top, phi_hprime_top=php_top,
        eta_t=eta_t, pi_t=pi_t, pi_nor=pi_nor,
        alpha_t=alpha_t, beta_t=beta_t, alpha_prime_t=ap_t,
        riem=riem,
    )
    for value in vars(sub).values():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return sub


def induced_curvature(sub: SubmanifoldPoint, X, Y, Z, W) -> float:
    """R(X,Y,Z,W) of the induced connection for tangent vectors (cached tensor)."""
    x, y = sub.tangent_coords(X), sub.tangent_coords(Y)
    z, w = sub.tangent_coords(Z), sub.tangent_coords(W)
    return float(np.einsum("abcd,a,b,c,d->", sub.riem, x, y, z, w))


def _sectional_from_coords(sub: SubmanifoldPoint, v1: np.ndarray, v2: np.ndarray) -> float:
    r1221 = np.einsum("abcd,a,b,c,d->", sub.riem, v1, v2, v2, v1)
    r1212 = np.einsum("abcd,a,b,c,d->", sub.riem, v1, v2, v1, v2)
    return float(r1221 - r1212) / 2.0


def sectional(sub: SubmanifoldPoint, plane: Plane) -> float:
    """Symmetrized sectional curvature K of a tangent 2-plane."""
    v1, v2 = sub.plane_coords(plane)
    return _sectional_from_coords(sub, v1, v2)


def _sectional_batch(sub: SubmanifoldPoint, V1: np.ndarray, V2: np.ndarray) -> np.ndarray:
    """K for a batch of orthonormal coordinate pairs, shapes (k, n)."""
    r1221 = np.einsum("abcd,ka,kb,kc,kd->k", sub.riem, V1, V2, V2, V1)
    r1212 = np.einsum("abcd,ka,kb,kc,kd->k", sub.riem, V1, V2, V1, V2)
    return (r1221 - r1212) / 2.0


def scalar_tau_pair(sub: SubmanifoldPoint) -> tuple[float, float]:
    """Scalar curvature through both defining formulas.

    First value: sum of K over coordinate 2-planes of the tangent frame.
    Second: half the double sum of R(e_i, e_j, e_j, e_i).  They must agree.
    """
    R = sub.riem
    n = sub.n
    k_sum = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            k_sum += (R[i, j, j, i] - R[i, j, i, j]) / 2.0
    double = float(np.einsum("ijji->", R)) / 2.0
    return float(k_sum), double


def scalar_tau(sub: SubmanifoldPoint) -> float:
    """Scalar curvature (sum of sectional curvatures over coordinate planes)."""
    return scalar_tau_pair(sub)[0]


def ricci(sub: SubmanifoldPoint, X) -> float:
    """Raw Ricci curvature of a unit tangent vector: the sum of
    R(X, e_j, e_j, X) over the tangent frame.

    The X-term of the full-frame trace vanishes by the antisymmetry of R in
    its first two slots, so this is the sum over any orthonormal completion
    of X.  The symmetrized Ricci curvature is ``ricci_form``'s quadratic form.
    """
    x = sub.tangent_coords(X)
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise ValueError("ricci requires a unit vector")
    basis = np.eye(sub.n)
    return float(np.einsum("abcd,a,kb,kc,d->", sub.riem, x, basis, basis, x))


def ricci_form(sub: SubmanifoldPoint) -> np.ndarray:
    """Symmetric matrix Q with x^T Q x = symmetrized Ricci of the direction x.

    Built from the bilinear traces M1[a,d] = sum_b R[a,b,b,d] and
    M2[a,c] = sum_b R[a,b,c,b]; only the symmetric part matters for the
    quadratic form.  Its smallest eigenvalue over unit vectors is the exact
    k = n Ricci infimum, and tr Q = 2 tau.
    """
    M1 = np.einsum("abbd->ad", sub.riem)
    M2 = np.einsum("abcb->ac", sub.riem)
    Q = (M1 - M2) / 2.0
    return (Q + Q.T) / 2.0


@dataclass(frozen=True)
class ThetaEstimate:
    """k-Ricci invariant estimate: value, how it was obtained, sample count.

    mode 'exact_eigen' (k = n) and 'grid' (k = 2 on n = 3) are eigenvalues:
    on n = 3 every bivector is decomposable, so Theta_2 is the least
    eigenvalue of the sectional-curvature form on 2-vectors (``samples`` 0).
    'multistart' (k < n, n >= 4) comes from a sphere search over the
    direction x of the ``LAYOUT_SIZE`` layout (``samples``, the directions
    screened; on n = 4 most of them by closed-form 3x3 spectra, which pick
    the refine's start that exact spectra pick); its values are sampled
    upper bounds on the true infimum.  Every mode is an upper bound on
    Theta_k, and so is Theta_n, which is what ``verify`` relies on.
    """

    value: float
    mode: str
    samples: int


_THETA_CHUNK = 1024   # rows per stacked matrix build or screen; bounds the batch's memory
# Error bound of ``_eigvalsh3`` on each eigenvalue, relative to ||M||_F.  The
# trigonometric formula loses about sqrt(eps) * ||M|| at near-double
# eigenvalues (about 1e-8 * ||M||_F at worst); the tests pin a factor of 50
# between that error and this bound.
_SCREEN_MARGIN = 1e-6


def _finite(form: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(form)):
        raise ValueError("Theta_k: the curvature data overflows (non-finite curvature form)")
    return form


def _theta_form(sub: SubmanifoldPoint) -> np.ndarray:
    """riem antisymmetrized in its last pair, as the (n*n, n*n) matrix
    form[(a, d), (b, c)] = anti[a, b, c, d]; memoized and read-only."""
    form = sub.cache.get("theta_form")
    if form is None:
        n = sub.n
        anti = (sub.riem - sub.riem.transpose(0, 1, 3, 2)) / 2.0
        form = anti.transpose(0, 3, 1, 2).reshape(n * n, n * n)
        form.setflags(write=False)
        sub.cache["theta_form"] = form
    return form


def _direction_matrices(sub: SubmanifoldPoint, X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """S_x on x^perp in a Householder basis, one symmetric (n-1) x (n-1)
    matrix per unit row x of X, shape (len(X), n - 1, n - 1).

    S_x(v, v) = (R(x,v,v,x) - R(x,v,x,v)) / 2 is one matmul of x (x) x with
    ``_theta_form``; ``C`` holds the bases of x^perp (``complements`` of X),
    and the matrix is the symmetrized C^T S_x C, built in ``_THETA_CHUNK``
    row chunks.
    """
    n = sub.n
    form = _theta_form(sub)
    out = np.empty((len(X), n - 1, n - 1))
    for lo in range(0, len(X), _THETA_CHUNK):
        x, c = X[lo:lo + _THETA_CHUNK], C[lo:lo + _THETA_CHUNK]
        S = ((x[:, :, None] * x[:, None, :]).reshape(len(x), n * n) @ form).reshape(len(x), n, n)
        M = c.transpose(0, 2, 1) @ S @ c
        out[lo:lo + len(x)] = (M + M.transpose(0, 2, 1)) / 2.0
    return _finite(out)


def _partial_ricci_min(sub: SubmanifoldPoint, X: np.ndarray, k: int) -> np.ndarray:
    """inf over k-planes containing x of the k-Ricci sum at x, per unit row x of X.

    For fixed x the infimum over the remaining k-1 directions is exact: the
    sum of the k-1 smallest eigenvalues of S_x on the orthogonal complement
    of x (``_direction_matrices``).
    """
    spectra = np.linalg.eigvalsh(_direction_matrices(sub, X, complements(X)))
    return np.sum(spectra[:, : k - 1], axis=1)


def _eigvalsh3(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues of a stack of symmetric 3x3 matrices in closed
    form, and a bound on the error of each, ``_SCREEN_MARGIN * ||M||_F``.

    The trigonometric formula (O. K. Smith, Comm. ACM 4, 1961; J. Kopp,
    arXiv:physics/0610206): with q = tr M / 3, B = M - q I and
    p^2 = tr B^2 / 6, the eigenvalues are q + 2p cos(phi + 2 pi j / 3),
    phi = arccos(det(B / p) / 2) / 3.  Each matrix is first scaled by the
    power of two of its largest entry, exactly, so that squares and cubes
    neither overflow nor underflow on any finite input.
    """
    u = M.reshape(len(M), 9).T[[0, 4, 8, 1, 2, 5]]   # rows m00 m11 m22 m01 m02 m12
    _, e = np.frexp(np.max(np.abs(u), axis=0))
    m00, m11, m22, m01, m02, m12 = np.ldexp(u, -e)
    q = (m00 + m11 + m22) / 3.0
    d0, d1, d2 = m00 - q, m11 - q, m22 - q
    off = m01 * m01 + m02 * m02 + m12 * m12
    p = np.sqrt((d0 * d0 + d1 * d1 + d2 * d2 + 2.0 * off) / 6.0)
    scale = np.where(p > 0.0, p, 1.0)
    b0, b1, b2, b01, b02, b12 = (v / scale for v in (d0, d1, d2, m01, m02, m12))
    r = (b0 * (b1 * b2 - b12 * b12) - b01 * (b01 * b2 - b12 * b02)
         + b02 * (b01 * b12 - b1 * b02)) / 2.0
    phi = np.arccos(np.clip(r, -1.0, 1.0)) / 3.0
    hi = q + 2.0 * p * np.cos(phi)
    lo = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    norm = np.sqrt(m00 * m00 + m11 * m11 + m22 * m22 + 2.0 * off)
    w = np.stack([np.ldexp(v, e) for v in (lo, 3.0 * q - lo - hi, hi)], axis=1)
    return w, np.ldexp(_SCREEN_MARGIN * norm, e)


def _screened_spectra(M: np.ndarray) -> np.ndarray:
    """Ascending spectra of a stack of symmetric 3x3 matrices that are
    ``eigvalsh``'s, bit for bit, on every row that can hold the least sum of
    its k - 1 smallest values for k = 2 or 3, and ``_eigvalsh3``'s elsewhere.

    A row's screened sum s carries an error of at most m = (k - 1) times the
    row's bound, so U = min(s + m) bounds the exact minimum from above.  A
    row with s - m > U has an exact sum above U, strictly above the minimum;
    every other row is recomputed exactly.  ``argmin`` of the sums therefore
    picks the row that it picks on exact spectra, ties to the first index
    included.  A row with a non-finite screened sum is exact, and a NaN
    anywhere makes every row exact.
    """
    spectra, bound = np.empty((len(M), 3)), np.empty(len(M))
    for lo in range(0, len(M), _THETA_CHUNK):
        rows = slice(lo, lo + _THETA_CHUNK)
        spectra[rows], bound[rows] = _eigvalsh3(M[rows])
    exact = np.zeros(len(M), dtype=bool)
    for j in (1, 2):
        s, m = np.sum(spectra[:, :j], axis=1), j * bound
        exact |= ~(s - m > np.min(s + m)) | ~np.isfinite(s)
    spectra[exact] = np.linalg.eigvalsh(M[exact])
    return spectra


def _layout_spectra(sub: SubmanifoldPoint) -> np.ndarray:
    """Spectra of S_x on x^perp at every layout direction, shape
    (LAYOUT_SIZE, n - 1), for ``theta_k``'s choice of the refine's start.
    They do not depend on k, so every k < n shares them; memoized and
    read-only.  On n = 4 they are screened (``_screened_spectra``): exact
    wherever the least k-sum can lie, closed-form elsewhere; on n >= 5
    exact throughout.
    """
    spectra = sub.cache.get("theta_spectra")
    if spectra is None:
        n = sub.n
        M = _direction_matrices(sub, sphere_samples(n), layout_complements(n))
        spectra = _screened_spectra(M) if n == 4 else np.linalg.eigvalsh(M)
        spectra.setflags(write=False)
        sub.cache["theta_spectra"] = spectra
    return spectra


def _bivector_form(sub: SubmanifoldPoint) -> np.ndarray:
    """Symmetric form B on 2-vectors with K(x ^ y) = B(x ^ y, x ^ y) for
    orthonormal x, y: B[(a,b),(c,d)] = anti[a,b,d,c] over pairs a < b, c < d."""
    n = sub.n
    anti = _theta_form(sub).reshape(n, n, n, n).transpose(0, 2, 3, 1)
    a, b = np.triu_indices(n, 1)
    B = anti[a[:, None], b[:, None], b[None, :], a[None, :]]
    return (B + B.T) / 2.0


def theta_k(sub: SubmanifoldPoint, k: int) -> ThetaEstimate:
    """The normalized k-Ricci infimum Theta_k over k-planes and unit directions.

    k = n is an eigenvalue problem of ``ricci_form``, and so is k = 2 on
    n = 3: every 2-vector in R^3 is decomposable, so Theta_2 is the least
    eigenvalue of ``_bivector_form`` (mode 'grid').  Both are exact.  For
    k < n on n >= 4 the plane infimum at each direction x is exact
    (``_partial_ricci_min``: the k-1 least eigenvalues of S_x on x^perp in
    a Householder basis) and ``extremize_on_sphere`` minimizes it over the
    ``LAYOUT_SIZE`` layout directions, refining from the least layout
    value; the layout spectra are computed once per point and shared by
    every k.  On n = 4 they are screened (``_layout_spectra``): closed-form
    3x3 eigenvalues with a certified error bound rule out every row whose
    sum cannot be the least, and only the rest go through ``eigvalsh``, so
    the least layout value, its first index and every value returned are
    those of exact spectra.  Raises ValueError when the curvature data
    overflows.
    """
    n = sub.n
    if not 2 <= k <= n:
        raise ValueError(f"k must satisfy 2 <= k <= n = {n}, got {k}")
    if k == n:
        w = np.linalg.eigvalsh(_finite(ricci_form(sub)))
        return ThetaEstimate(float(w[0]) / (n - 1), "exact_eigen", 0)
    if n == 3:
        w = np.linalg.eigvalsh(_finite(_bivector_form(sub)))
        return ThetaEstimate(float(w[0]), "grid", 0)
    values = np.sum(_layout_spectra(sub)[:, : k - 1], axis=1)
    _, val = extremize_on_sphere(lambda X: _partial_ricci_min(sub, X, k), n, values)
    return ThetaEstimate(val / (k - 1), "multistart", LAYOUT_SIZE)


@dataclass(frozen=True)
class CasoratiCurvatures:
    """Casorati curvature, its hyperplane extrema, and the delta invariants.

    C(L) for a hyperplane L with unit normal u is the normalized squared
    Frobenius norm of the h-slices compressed by the projector off u; as a
    function of u it is a degree-4 polynomial on the sphere (see
    ``casorati``).  ``argmin_u``/``argmax_u`` are unit normals attaining
    ``inf_CL``/``sup_CL``.
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


# Newton starts per extremum; a single start misses separated basins.
CASORATI_STARTS = 8
_NEWTON_MAX_ITER = 60
_NEWTON_STEP_FLOOR = 2.0 ** -30   # a row stops after 30 failed halvings in a row
_NEWTON_EIG_FLOOR = 1e-8          # |Hessian eigenvalues| floored at this share of the largest


@dataclass(frozen=True)
class _Quartic:
    """F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2 with S = sum_r h_r^2,
    over the nonzero slices h_r; C(L) = F(u) / (n - 1) for the hyperplane
    with unit normal u.  ``coeffs`` turns the quadratic monomials of u into
    the forms (u^T S u, u^T h_1 u, ...)."""

    h: np.ndarray
    S: np.ndarray
    h_sq: float
    coeffs: np.ndarray

    @classmethod
    def of(cls, h: np.ndarray) -> "_Quartic":
        h = h[np.any(h != 0.0, axis=(1, 2))]
        S = np.einsum("rab,rbc->ac", h, h)
        forms = np.concatenate([S[None], h])
        iu, ju = np.triu_indices(S.shape[0])
        coeffs = forms[:, iu, ju].T * np.where(iu == ju, 1.0, 2.0)[:, None]
        return cls(h=h, S=S, h_sq=float(np.sum(h * h)), coeffs=coeffs)

    def values(self, monomials: np.ndarray) -> np.ndarray:
        """F at the rows whose quadratic monomials are given (see
        ``quadratic_monomials``)."""
        forms = monomials @ self.coeffs
        q = forms[:, 1:]
        return self.h_sq - 2.0 * forms[:, 0] + np.einsum("kr,kr->k", q, q)

    def at(self, U: np.ndarray) -> np.ndarray:
        return self.values(quadratic_monomials(U))


def _hyperplane_values(sub: SubmanifoldPoint, U: np.ndarray) -> np.ndarray:
    """C(L) for hyperplanes with unit normals U (batch), via
    ||Q h Q||_F^2 = ||h||_F^2 - 2 u^T h^2 u + (u^T h u)^2 per slice."""
    return _Quartic.of(sub.h).at(U) / (sub.n - 1)


def _one_slice_extrema(h1: np.ndarray):
    """Exact (inf F, argmin, sup F, argmax) for a single slice h1.

    With h1 = V diag(lam) V^T and w_i = (V^T u)_i^2 on the simplex, F is
    ||h||^2 - 2 sum lam_i^2 w_i + (sum lam_i w_i)^2, a convex function of w.
    Its maximum is at a vertex: sup F = ||h||^2 - min lam_i^2 at an
    eigenvector.  -2 s + t^2 has no stationary point, so the minimum lies on
    an edge w = t e_i + (1 - t) e_j, where F is a convex quadratic in t that
    is least at t = lam_i / (lam_i - lam_j), clipped to [0, 1]; the pairs
    i = j cover the vertices.
    """
    lam, V = np.linalg.eigh(h1)
    sq = lam * lam
    total = float(sq.sum())
    li, lj = lam[:, None], lam[None, :]
    diff = li - lj
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.clip(np.where(diff != 0.0, li / diff, 0.0), 0.0, 1.0)
    mean = lj + t * diff
    edge = total - 2.0 * (lj * lj + t * (li * li - lj * lj)) + mean * mean
    i, j = np.unravel_index(int(np.argmin(edge)), edge.shape)
    umin = np.sqrt(t[i, j]) * V[:, i] + np.sqrt(1.0 - t[i, j]) * V[:, j]
    k = int(np.argmin(sq))
    return float(edge[i, j]), umin, total - float(sq[k]), V[:, k].copy()


def _newton_on_sphere(quartic: _Quartic, U: np.ndarray, sign: np.ndarray):
    """Batched Riemannian Newton on sign * F from the rows of U.

    Closed-form derivatives: gradient 4 A u and Hessian 4 (A + 2 sum_r h_r u
    (h_r u)^T) with A = sum_r q_r h_r - S and q_r = u^T h_r u.  The
    Riemannian Hessian P (Hess - <u, grad> I) P (P = I - u u^T) has its
    eigenvalues' magnitudes floored, so every step descends; the step is
    retracted by normalising and kept only if it strictly lowers sign * F,
    otherwise that row's step halves.  A row stops when its Newton decrement
    falls below 1e-15 (1 + |F|) or its step below ``_NEWTON_STEP_FLOOR``;
    rows where F is not finite are left as they are.  Returns the final rows
    and their values of F.
    """
    h, S = quartic.h, quartic.S
    n = U.shape[1]
    h_flat = h.reshape(len(h), n * n)
    eye = np.eye(n)
    U = U.copy()
    f = sign * quartic.at(U)
    step = np.ones(len(U))
    active = np.flatnonzero(np.isfinite(f))
    for _ in range(_NEWTON_MAX_ITER):
        if active.size == 0:
            break
        u, s = U[active], 4.0 * sign[active]
        hu = np.einsum("rab,kb->kra", h, u)
        q = np.einsum("kra,ka->kr", hu, u)
        A = (q @ h_flat).reshape(-1, n, n) - S
        grad = s[:, None] * np.einsum("kab,kb->ka", A, u)
        radial = np.einsum("ka,ka->k", u, grad)
        grad -= radial[:, None] * u
        hess = s[:, None, None] * (A + 2.0 * (hu.transpose(0, 2, 1) @ hu))
        proj = eye - u[:, :, None] * u[:, None, :]
        w, Q = np.linalg.eigh(proj @ (hess - radial[:, None, None] * eye) @ proj)
        w = np.abs(w)
        w = np.maximum(w, np.maximum(_NEWTON_EIG_FLOOR * w.max(axis=1, keepdims=True),
                                     np.finfo(float).tiny))
        c = np.einsum("kab,ka->kb", Q, grad) / w
        decrement = np.einsum("kb,kb->k", c, c * w)
        live = decrement >= 1e-15 * (1.0 + np.abs(f[active]))
        d = -np.einsum("kab,kb->ka", Q, c)
        d -= np.einsum("ka,ka->k", d, u)[:, None] * u
        length = np.sqrt(np.einsum("ka,ka->k", d, d))
        cand = u + (step[active] / np.maximum(length, 1.0))[:, None] * d
        cand /= np.sqrt(np.einsum("ka,ka->k", cand, cand))[:, None]
        fc = sign[active] * quartic.at(cand)
        better = live & (fc < f[active])
        rows = active[better]
        U[rows], f[rows], step[rows] = cand[better], fc[better], 1.0
        step[active[live & ~better]] *= 0.5
        active = active[live & (step[active] >= _NEWTON_STEP_FLOOR)]
    return U, sign * f


def casorati(sub: SubmanifoldPoint) -> CasoratiCurvatures:
    """Casorati curvature C, hyperplane inf/sup of C(L), and the normalized
    delta invariants delta_c(n-1) = C/2 + (n+1)/(2n) inf C(L) and
    delta_c_hat(n-1) = 2C - (2n-1)/(2n) sup C(L).

    C(L) = F(u) / (n - 1) with F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2
    and S = sum_r h_r^2.  With at most one nonzero slice of h the extrema are
    closed forms (``_one_slice_extrema``).  Otherwise F is evaluated on the
    deterministic sphere layout of ``LAYOUT_SIZE`` directions, and batched
    Riemannian Newton (``_newton_on_sphere``) polishes the
    ``CASORATI_STARTS`` lowest and highest layout points; each extremum is
    the best polished value, which is never worse than the layout's.

    Deterministic; memoized on the point (the search is the dominant cost and
    several inequality checks share it).  The argument arrays are read-only.
    """
    hit = sub.cache.get("casorati")
    if hit is not None:
        return hit
    n = sub.n
    C = sub.h_norm_sq / n
    quartic = _Quartic.of(sub.h)
    if len(quartic.h) <= 1:
        h1 = quartic.h[0] if len(quartic.h) else np.zeros((n, n))
        inf_f, umin, sup_f, umax = _one_slice_extrema(h1)
    else:
        U0 = sphere_samples(n)
        vals = quartic.values(layout_monomials(n))
        K = CASORATI_STARTS
        lows = np.argpartition(vals, K - 1)[:K]
        highs = np.argpartition(vals, -K)[-K:]
        starts = np.concatenate([U0[lows], U0[highs]])
        U, F = _newton_on_sphere(quartic, starts, np.repeat([1.0, -1.0], K))
        lo, hi = int(np.argmin(F[:K])), K + int(np.argmax(F[K:]))
        inf_f, umin, sup_f, umax = float(F[lo]), U[lo], float(F[hi]), U[hi]
    umin.setflags(write=False)
    umax.setflags(write=False)
    inf_val, sup_val = inf_f / (n - 1), sup_f / (n - 1)
    delta_c = 0.5 * C + (n + 1) / (2.0 * n) * inf_val
    delta_hat = 2.0 * C - (2.0 * n - 1) / (2.0 * n) * sup_val
    result = CasoratiCurvatures(
        C=C, inf_CL=inf_val, sup_CL=sup_val,
        delta_c=float(delta_c), delta_c_hat=float(delta_hat),
        argmin_u=umin, argmax_u=umax,
    )
    sub.cache["casorati"] = result
    return result
