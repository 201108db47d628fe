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
Newton otherwise (see ``casorati``), enclosed at every number of slices by the
certified bounds of ``casorati_bounds``.

The tensor is one wedge sum (``_wedge``) over a list of pairs of restricted
bilinear forms, one pair per bracket g(Y,Z)g(X,W) - g(X,Z)g(Y,W) of the
paper's curvature formulas, plus two outer products; the tests compare it
with an independent evaluation on raw vectors, the ambient curvature of the
connection plus the Gauss-equation corrections.

Since the connections are not metric, R(X,Y,Z,W) != -R(X,Y,W,Z) in general,
and every symmetrized invariant (K, tau, the symmetrized Ricci form, Theta_k)
reads one form, R antisymmetrized in its last pair (``_theta_form``): e.g.
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
    complements,
    extremize_on_sphere,
    layout_monomials,
    newton_on_sphere,
    quadratic_monomials,
    sphere_samples,
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


@dataclass(frozen=True)
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
        X = as_vector(X, "tangent vector", self.dim)
        x = self.tangent @ X
        r = X - x @ self.tangent
        residual = np.sqrt(r @ r)
        if residual > _TANGENCY_TOL * max(1.0, np.sqrt(X @ X)):
            raise DimensionMismatch(
                f"vector is not tangent (normal residual {residual:.3e})"
            )
        return x

    def plane_coords(self, plane: Plane) -> tuple[np.ndarray, np.ndarray]:
        return self.tangent_coords(plane.e1), self.tangent_coords(plane.e2)


def _wedge(P: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """sum_k (P_k[a,c] Q_k[b,d] - P_k[b,c] Q_k[a,d]) over stacks (K, n, n): in
    the slots (X, Y, Z, W) of ``riem``, minus the paper's bracket
    P(Y,Z) Q(X,W) - P(X,Z) Q(Y,W) of each pair."""
    t = np.einsum("kac,kbd->abcd", P, Q)
    return t - t.transpose(1, 0, 2, 3)


def _induced_tensor(model, spec, I, u, Phi, A, B, alpha_t, beta_t, ap_t, pi_t, pi_nor, h):
    """Full induced curvature tensor: the ambient curvature of the connection
    on the tangent frame plus the Gauss-equation corrections, as ``_wedge``
    of one pair (P, Q) per bracket of the paper and two outer products.

    With g = I, U = eta (x) eta, A = h', B = phi h' and V = (1 - mu) U - g:
    - space form (T. Koufogiorgos, Tokyo J. Math. 20, 1997; the groups of
      ``contact._curvature_lc_groups``): (-(c+3)/4 g, g); (e U, g), (e g, U)
      with e = (c+3-4 kappa)/4; ((c-1)/4 Phi, Phi^T) and the outer product
      (c-1)/2 Phi_ab Phi_dc; (-A/2, A), (B/2, B); (V, A), (A, V);
    - kind 1: (lambda1 alpha, g), (lambda2 g, alpha),
      (lambda2 (lambda1 - lambda2) g, beta);
    - kind 2: (b alpha', g), (-b^2 pi (x) pi, g) and the outer product
      a (alpha' - alpha'^T)_ab g_cd;
    - Gauss: (-h_r, h_r) for each normal slice r and (gamma h_P, g), with
      h_P = sum_r pi_r h_r and gamma = lambda1 - lambda2 (kind 1) or b (kind 2).
    """
    c, kappa, mu = model.c, model.kappa, model.mu_contact
    e = (c + 3.0 - 4.0 * kappa) / 4.0
    U = u[:, None] * u
    V = (1.0 - mu) * U - I
    terms = [
        (-(c + 3.0) / 4.0 * I, I),
        (e * U, I), (e * I, U),
        ((c - 1.0) / 4.0 * Phi, Phi.T),
        (-0.5 * A, A), (0.5 * B, B),
        (V, A), (A, V),
    ]
    outer = [(c - 1.0) / 2.0 * np.einsum("ab,dc->abcd", Phi, Phi)]
    if spec.kind == KIND_FIRST:
        l1, l2 = spec.lambda1, spec.lambda2
        terms += [(l1 * alpha_t, I), (l2 * I, alpha_t), (l2 * (l1 - l2) * I, beta_t)]
        gauss_coeff = l1 - l2
    else:
        a, b = spec.a, spec.b
        terms += [(b * ap_t, I), (-b * b * pi_t[:, None] * pi_t, I)]
        outer.append(a * np.einsum("ab,cd->abcd", ap_t - ap_t.T, I))
        gauss_coeff = b
    terms += [(-h_r, h_r) for h_r in h]
    terms.append((gauss_coeff * np.einsum("r,rab->ab", pi_nor, h), I))
    pairs = np.array(terms)
    return _wedge(pairs[:, 0], pairs[:, 1]) + sum(outer)


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
    if not np.isfinite(hhat).all():
        raise ValueError("hhat: entries must be finite")
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
        i, j = triu_pairs(sub.n, 1)
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
    return _ricci_at(sub, sub.tangent_coords(X))


def _ricci_at(sub: SubmanifoldPoint, x: np.ndarray) -> float:
    """``ricci`` of the direction with tangent-frame coordinates x."""
    if abs(np.sqrt(x @ x) - 1.0) > 1e-10:
        raise ValueError("ricci requires a unit vector")
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
    direction x: the least exact values on the first ``THETA_LAYOUT`` layout
    directions (``samples``) pick the starts, and a Riemannian Newton refine
    on the exact function returns a value attained at a concrete direction,
    an upper bound on the true infimum.  Every mode is an upper bound on
    Theta_k, and so is Theta_n, which is what ``verify`` relies on.
    """

    value: float
    mode: str
    samples: int


# Layout directions (a prefix of ``sphere_samples``) evaluated exactly to
# pick the starts of the k-Ricci refine.
THETA_LAYOUT = 512


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
    matrix is the symmetrized C^T S_x C.  Every product is stacked, one per
    x: a GEMM over the batch would round a row by how many rows share it,
    and ``refine_on_sphere`` needs each row's bits to be its own.
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


def _layout_spectra(sub: SubmanifoldPoint) -> np.ndarray:
    """Spectra of S_x on x^perp at the first ``THETA_LAYOUT`` layout
    directions, shape (THETA_LAYOUT, n - 1): ``eigvalsh`` of one batch of
    ``_direction_matrices``, the evaluator of ``_partial_ricci_min``.  Their
    cumulative sums are the start values of every k < n at once.
    """
    return np.linalg.eigvalsh(_direction_matrices(sub, sphere_samples(sub.n)[:THETA_LAYOUT]))


def _bivector_form(sub: SubmanifoldPoint) -> np.ndarray:
    """Symmetric form B on 2-vectors with K(x ^ y) = B(x ^ y, x ^ y) for
    orthonormal x, y: B[(a,b),(c,d)] = anti[a,b,d,c] (``_anti``) over pairs
    a < b, c < d."""
    anti = _anti(sub)
    a, b = triu_pairs(sub.n, 1)
    B = anti[a[:, None], b[:, None], b[None, :], a[None, :]]
    return (B + B.T) / 2.0


def theta_k(sub: SubmanifoldPoint, k: int) -> ThetaEstimate:
    """The normalized k-Ricci infimum Theta_k over k-planes and unit directions.

    k = n is an eigenvalue problem of ``ricci_form``, and so is k = 2 on
    n = 3: every 2-vector in R^3 is decomposable, so Theta_2 is the least
    eigenvalue of ``_bivector_form`` (mode 'grid').  Both are exact.  For
    k < n on n >= 4 the plane infimum at each direction x is exact
    (``_partial_ricci_min``: the k-1 least eigenvalues of S_x on x^perp in
    a Householder basis), and one search serves every k < n at once: the
    cumulative sums of the spectra on the first ``THETA_LAYOUT`` layout
    directions (``_layout_spectra``) are n - 2 columns of start values, one
    per k, each column picks its ``REFINE_STARTS`` least, and
    ``extremize_on_sphere`` refines all of them by Riemannian Newton in one
    ``refine_on_sphere`` loop, one ``_partial_ricci_min`` call per stage on
    every k's rows; the evaluator is batch-invariant, so each value is the
    one-k search's, attained at a concrete direction.  Raises ValueError for
    a k that is not an integer in [2, n] (bool included) and when the
    curvature data overflows.  The n - 2 searched values are memoized on the
    point together, so a second k < n at the same point is a memo read;
    k = n and the n = 3 grid rerun their eigenvalue problem.
    """
    n = sub.n
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)) or not 2 <= k <= n:
        raise ValueError(f"k must be an integer with 2 <= k <= n = {n}, got {k!r}")
    if k == n:
        w = np.linalg.eigvalsh(_finite(ricci_form(sub)))
        return ThetaEstimate(float(w[0]) / (n - 1), "exact_eigen", 0)
    if n == 3:
        w = np.linalg.eigvalsh(_finite(_bivector_form(sub)))
        return ThetaEstimate(float(w[0]), "grid", 0)

    def search():
        ks = np.arange(2, n)
        values = np.cumsum(_layout_spectra(sub), axis=1)[:, ks - 2]
        _, vals = extremize_on_sphere(lambda X: _partial_ricci_min(sub, X, ks), n, values)
        return _frozen(vals / (ks - 1))
    value = sub.memo("theta_multistart", search)[k - 2]
    return ThetaEstimate(float(value), "multistart", THETA_LAYOUT)


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


@dataclass(frozen=True)
class _Quartic:
    """F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2 with S = sum_r h_r^2,
    over the nonzero slices h_r; C(L) = F(u) / (n - 1) for the hyperplane
    with unit normal u.  ``coeffs`` turns the quadratic monomials of u into
    the forms (u^T S u, u^T h_1 u, ...), one form per row.  ``lam``,
    ``inf_r`` and ``U``: the point's one ``_slice_directions``."""

    h: np.ndarray
    S: np.ndarray
    h_sq: float
    coeffs: np.ndarray
    lam: np.ndarray
    inf_r: np.ndarray
    U: np.ndarray

    @classmethod
    def of(cls, sub: SubmanifoldPoint) -> "_Quartic":
        """The quartic of ``sub.h``; memoized on the point, arrays read-only."""
        def make():
            h = sub.h[(sub.h != 0.0).any(axis=(1, 2))]
            S = np.einsum("rab,rbc->ac", h, h)
            iu, ju = triu_pairs(S.shape[0], 0)
            coeffs = np.concatenate([S[None], h])[:, iu, ju] * np.where(iu == ju, 1.0, 2.0)
            lam, inf_r, U = map(_frozen, _slice_directions(S, h))
            return cls(h=_frozen(h), S=_frozen(S), h_sq=float((h * h).sum()),
                       coeffs=_frozen(coeffs), lam=lam, inf_r=inf_r, U=U)
        return sub.memo("quartic", make)

    def values(self, monomials: np.ndarray) -> np.ndarray:
        """F at the rows whose ``quadratic_monomials`` are given."""
        forms = self.coeffs @ monomials.T
        q = forms[1:]
        return self.h_sq - 2.0 * forms[0] + np.einsum("rk,rk->k", q, q)

    def derivatives(self, U: np.ndarray, C: np.ndarray, sign: np.ndarray):
        """sign * F at the unit rows u of U with its Riemannian gradient and
        Hessian in the bases C: with q_r = u^T h_r u and A = sum_r q_r h_r - S,
        F = ||h||^2 - |q|^2 + 2 u^T A u, grad F = 4 A u and the Hessian is
        C^T (4 (A + 2 sum_r h_r u (h_r u)^T) - <u, grad F> I) C."""
        k, n = U.shape
        hu = (U @ self.h.transpose(1, 0, 2).reshape(n, -1)).reshape(k, -1, n)
        q = np.einsum("kra,ka->kr", hu, U)
        A = (q @ self.h.reshape(len(self.h), n * n)).reshape(-1, n, n) - self.S
        Au = np.einsum("kab,kb->ka", A, U)
        uAu = np.einsum("ka,ka->k", U, Au)
        F = self.h_sq - np.einsum("kr,kr->k", q, q) + 2.0 * uAu
        A += 2.0 * (hu.transpose(0, 2, 1) @ hu) - uAu[:, None, None] * np.eye(n)
        s = 4.0 * sign
        return (sign * F, s[:, None] * np.einsum("kab,ka->kb", C, Au),
                s[:, None, None] * (C.transpose(0, 2, 1) @ A @ C))


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
    extrema, so ``casorati`` reads them there.  They read the point's one
    ``eigh`` of [S; h_1 ... h_p] (``_Quartic``).  Non-finite data gives NaN
    bounds, not an exception.

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
    """Casorati curvature C, hyperplane inf/sup of C(L), and the normalized
    delta invariants delta_c(n-1) = C/2 + (n+1)/(2n) inf C(L) and
    delta_c_hat(n-1) = 2C - (2n-1)/(2n) sup C(L): ``delta_casorati`` / n(n-1).

    C(L) = F(u) / (n - 1) with F(u) = ||h||^2 - 2 u^T S u + sum_r (u^T h_r u)^2
    and S = sum_r h_r^2.  With at most one nonzero slice of h the extrema are
    closed forms (``casorati_bounds``, exact there).  Otherwise F is evaluated
    on the seeded sphere layout (``sphere_samples``, one rule at every n), and
    ``newton_on_sphere`` polishes the ``CASORATI_STARTS`` lowest and highest
    layout points (the highest on -F) with ``_Quartic.derivatives``; each
    extremum is the best polished value, never worse than the layout's.
    Every value is attained at its argument, so it is an estimate from the
    inside: a missed optimum leaves inf_CL too high or sup_CL too low.  The
    3.5/4.4 verdicts therefore rest on ``casorati_bounds``, and this search
    only reports beside them.

    Deterministic; memoized on the point.  The argument arrays are read-only.
    """
    return sub.memo("casorati", lambda: _casorati_search(sub))


def _casorati_search(sub: SubmanifoldPoint) -> CasoratiCurvatures:
    n = sub.n
    C = sub.h_norm_sq / n
    quartic = _Quartic.of(sub)
    if len(quartic.h) <= 1:
        # exact: the values are ``casorati_bounds``, the argmin h_1's edge
        # minimizer (U's last row), the argmax its eigenvector at least lam^2
        p = len(quartic.h)
        umin, umax = quartic.U[-1], quartic.U[p * n + int(np.argmin(quartic.lam[-1] ** 2))]
        inf_val, sup_val = casorati_bounds(sub)
    else:
        U0 = sphere_samples(n)
        vals = quartic.values(layout_monomials(n))
        K = CASORATI_STARTS
        lows = np.argpartition(vals, K - 1)[:K]
        highs = np.argpartition(vals, -K)[-K:]
        starts = np.concatenate([U0[lows], U0[highs]])
        sign = np.repeat([1.0, -1.0], K)   # the highs descend on -F
        U, F = newton_on_sphere(lambda rows, X: sign[rows] * quartic.values(quadratic_monomials(X)),
                                lambda rows, X, C: quartic.derivatives(X, C, sign[rows]), starts)
        F *= sign
        lo, hi = int(np.argmin(F[:K])), K + int(np.argmax(F[K:]))
        inf_val, sup_val, umin, umax = float(F[lo]) / (n - 1), float(F[hi]) / (n - 1), U[lo], U[hi]
    nn = n * (n - 1)
    return CasoratiCurvatures(
        C=C, inf_CL=inf_val, sup_CL=sup_val,
        delta_c=float(delta_casorati(n, 0.5 * nn, C, inf_val, sup_val) / nn),
        delta_c_hat=float(delta_casorati(n, 2.0 * nn, C, inf_val, sup_val) / nn),
        argmin_u=_frozen(umin), argmax_u=_frozen(umax),
    )
