"""Evaluation of both sides of every implemented curvature inequality.

Catalog (ids follow the internal numbering; family 3.x is the first
connection, 4.x the second):

  3.1 / 4.1   tau - K(plane) bounded by plane and global invariants
  3.3 / 4.2   Ricci of a unit direction bounded with the n^2/4 mean term
  3.4 / 4.3   mean-curvature lower bound through the k-Ricci invariant
  3.5i / 4.4i, 3.5ii / 4.4ii   Casorati delta-invariant bounds on 2 tau

Every proof puts the Gauss equation into a scalar, sectional or Ricci
curvature, so every right-hand side is a trace of one closed form, the
non-Gauss part of R(x, y, y, x) on orthonormal tangent pairs
(``_pair_nongauss``), plus the algebraic bound on h that the proof applies to
the Gauss part.  ``cross_check`` compares that form (pairwise curvature,
scalar curvature, plane curvatures, the trace identity, and the quasi-convex
hyperplane polynomial Q) against the raw tensor pipeline, reporting the worst
residual: any disagreement beyond rounding is a transcription bug by
definition.

Convention: all correction-tensor traces entering right-hand sides (lambda =
tr alpha, tr beta, lambda' = tr alpha') are restrictions to the submanifold
frame, i.e. sums over the n tangent directions, not ambient traces.  The
Ricci bounds use the raw (non-symmetrized) Ricci sum; the k-Ricci invariant
uses the symmetrized sectional curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .connections import KIND_FIRST, KIND_SECOND, first_connection
from .contact import standard_point
from .errors import DimensionMismatch, MissingArgument, WrongConnectionKind
from .frames import Plane, complete_frame, orthonormalize
from .submanifold import (
    SubmanifoldPoint,
    attach,
    casorati,
    ricci,
    scalar_tau,
    scalar_tau_pair,
    sectional,
    theta_k,
    _hyperplane_values,
)

__all__ = [
    "THEOREMS_FIRST",
    "THEOREMS_SECOND",
    "applicable_theorems",
    "PlaneInvariants",
    "plane_invariants",
    "VerdictReport",
    "verify",
    "BoundsCheck",
    "algebraic_bounds_check",
    "chen_bound_batch",
    "ricci_bound_batch",
    "CrossCheckReport",
    "cross_check",
    "equality_instance",
]

THEOREMS_FIRST = ("3.1", "3.3", "3.4", "3.5i", "3.5ii")
THEOREMS_SECOND = ("4.1", "4.2", "4.3", "4.4i", "4.4ii")
_NEEDS_PLANE = {"3.1", "4.1"}
_NEEDS_X = {"3.3", "4.2"}


def applicable_theorems(kind: int) -> tuple[str, ...]:
    return THEOREMS_FIRST if kind == KIND_FIRST else THEOREMS_SECOND


def _require_kind(sub: SubmanifoldPoint, theorem_id: str):
    if theorem_id not in THEOREMS_FIRST + THEOREMS_SECOND:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    family_first = theorem_id.startswith("3")
    if family_first and sub.spec.kind != KIND_FIRST:
        raise WrongConnectionKind(f"{theorem_id} needs a kind-1 connection")
    if not family_first and sub.spec.kind != KIND_SECOND:
        raise WrongConnectionKind(f"{theorem_id} needs a kind-2 connection")


# ---------------------------------------------------------------------------
# plane invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlaneInvariants:
    """Scalar invariants of a tangent 2-plane entering the right-hand sides.

    gamma = eta(e1)^2 + eta(e2)^2
    theta = eta(e1)^2 h'_22 + eta(e2)^2 h'_11 - 2 eta(e1) eta(e2) h'_12
    phi_plane = <phat e1, e2>^2 (the squared phi-angle of the plane)
    the det/tr fields are restrictions of h', phi h', alpha, beta, alpha'
    P_plane_sq = pi(e1)^2 + pi(e2)^2
    g_tr_h_P = <P, h(e1,e1) + h(e2,e2)> for the active h
    """

    gamma: float
    theta: float
    phi_plane: float
    det_hprime: float
    det_phi_hprime: float
    tr_hprime: float
    tr_alpha: float
    tr_beta: float
    tr_alpha_prime: float
    P_plane_sq: float
    g_tr_h_P: float


def plane_invariants(sub: SubmanifoldPoint, plane: Plane) -> PlaneInvariants:
    v1, v2 = sub.plane_coords(plane)
    V = np.stack([v1, v2])
    eta1, eta2 = float(sub.eta_t @ v1), float(sub.eta_t @ v2)
    A2 = V @ sub.hprime_top @ V.T
    B2 = V @ sub.phi_hprime_top @ V.T
    phi12 = float(v2 @ sub.phat @ v1)  # <e2, phi e1> = <phat e1, e2>
    al2 = V @ sub.alpha_t @ V.T
    be2 = V @ sub.beta_t @ V.T
    ap2 = V @ sub.alpha_prime_t @ V.T
    h_res = np.einsum("ia,rab,jb->rij", V, sub.h, V)
    tr_h_vec = np.einsum("rii->r", h_res) @ sub.normal
    g_tr_h_P = float(sub.spec.P @ tr_h_vec)
    return PlaneInvariants(
        gamma=eta1 ** 2 + eta2 ** 2,
        theta=eta1 ** 2 * A2[1, 1] + eta2 ** 2 * A2[0, 0] - 2.0 * eta1 * eta2 * A2[0, 1],
        phi_plane=phi12 ** 2,
        det_hprime=float(np.linalg.det(A2)),
        det_phi_hprime=float(np.linalg.det(B2)),
        tr_hprime=float(np.trace(A2)),
        tr_alpha=float(np.trace(al2)),
        tr_beta=float(np.trace(be2)),
        tr_alpha_prime=float(np.trace(ap2)),
        P_plane_sq=float((sub.pi_t @ v1) ** 2 + (sub.pi_t @ v2) ** 2),
        g_tr_h_P=g_tr_h_P,
    )


# ---------------------------------------------------------------------------
# the non-Gauss curvature form
# ---------------------------------------------------------------------------

def _on_pairs(M: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Stacked bilinear forms M (f, n, n) on the rows of X and Y (k, n).

    Returns shape (3, f, k): the values on (x, y), on (x, x) and on (y, y).
    """
    left, right = np.stack([X, X, Y])[:, None], np.stack([Y, X, Y])[:, None]
    return np.sum((left @ M) * right, axis=-1)


def _pair_nongauss(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Non-Gauss part of R(x, y, y, x) for rows of orthonormal tangent pairs.

    X and Y hold tangent-frame coordinates, shape (k, n), with each (x, y)
    orthonormal.  The full value adds sum_r h_r(x,x) h_r(y,y) - h_r(x,y)^2
    (``_pair_gauss``).  The ambient terms are those of the contact space form
    with h' = A, phi h' = B and eta = u on the frame; the connection terms are
    folded into the quadratic forms A - C_x (in x) and A - C_y (in y).
    """
    model, spec = sub.model, sub.spec
    c, mu, u, A = model.c, model.mu_contact, sub.eta_t, sub.hprime_top
    h_P = np.einsum("r,rab->ab", sub.pi_nor, sub.h)  # <h(., .), P>
    if spec.kind == KIND_FIRST:
        l1, l2 = spec.lambda1, spec.lambda2
        c_x = l2 * sub.alpha_t + l2 * (l1 - l2) * sub.beta_t
        c_y = l1 * sub.alpha_t + (l1 - l2) * h_P
    else:
        b = spec.b
        c_x = np.zeros_like(A)
        c_y = b * sub.alpha_prime_t - b ** 2 * np.outer(sub.pi_t, sub.pi_t) + b * h_P
    forms = np.stack([sub.phat, A, sub.phi_hprime_top, A - c_x, A - c_y])
    xy, xx, yy = _on_pairs(forms, X, Y)
    ux, uy = X @ u, Y @ u
    return (
        (c + 3.0) / 4.0
        - (c + 3.0 - 4.0 * model.kappa) / 4.0 * (ux ** 2 + uy ** 2)
        + 3.0 * (c - 1.0) / 4.0 * xy[0] ** 2
        + 0.5 * (xy[2] ** 2 - xy[1] ** 2 + xx[1] * yy[1] - xx[2] * yy[2])
        + xx[3] + yy[4]
        + (1.0 - mu) * (2.0 * ux * uy * xy[1] - xx[1] * uy ** 2 - yy[1] * ux ** 2)
    )


def _pair_gauss(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gauss part of R(x, y, y, x): sum_r h_r(x,x) h_r(y,y) - h_r(x,y)^2."""
    xy, xx, yy = _on_pairs(sub.h, X, Y)
    return np.sum(xx * yy - xy ** 2, axis=0)


def _frame_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index arrays I, J of the ordered frame pairs i != j and their coordinate rows."""
    I, J = np.nonzero(~np.eye(n, dtype=bool))
    return I, J, np.eye(n)[I], np.eye(n)[J]


def _tau_nongauss(sub: SubmanifoldPoint) -> float:
    """Scalar curvature minus its Gauss sum: half the pair form over frame pairs.

    Memoized on ``sub.cache``; E = 2 tau_ng is the invariant aggregate with
    2 tau - E = n^2 ||H||^2 - ||h||^2.
    """
    if "tau_nongauss" not in sub.cache:
        _, _, X, Y = _frame_pairs(sub.n)
        sub.cache["tau_nongauss"] = 0.5 * float(np.sum(_pair_nongauss(sub, X, Y)))
    return sub.cache["tau_nongauss"]


def _gauss_sum(sub: SubmanifoldPoint) -> float:
    """sum_r sum_{i<j} (h_ii h_jj - h_ij^2) = sum_r ((tr h^r)^2 - ||h^r||^2)/2."""
    traces = np.einsum("rii->r", sub.h)
    return float(traces @ traces - np.sum(sub.h * sub.h)) / 2.0


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerdictReport:
    """Outcome of one inequality check: lhs <= rhs with slack = rhs - lhs.

    ``holds`` uses the tolerance scaled by (1 + |lhs| + |rhs|) since the
    right-hand sides span orders of magnitude under fuzzing.
    """

    theorem_id: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    tol: float
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem_id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "holds": self.holds,
            "tol": self.tol,
            "diagnostics": self.diagnostics,
        }


def _verdict(theorem_id: str, lhs: float, rhs: float, tol: float, diagnostics: dict) -> VerdictReport:
    lhs, rhs = float(lhs), float(rhs)
    # A NaN slack is no violation and an infinite one is no pass: overflowed
    # input data has no verdict.
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise ValueError(f"{theorem_id}: non-finite side (lhs {lhs}, rhs {rhs})")
    slack = rhs - lhs
    eff = tol * (1.0 + abs(lhs) + abs(rhs))
    return VerdictReport(theorem_id, lhs, rhs, slack, bool(slack >= -eff), tol, diagnostics)


def verify(
    sub: SubmanifoldPoint,
    theorem_id: str,
    plane: Plane | None = None,
    X=None,
    k: int | None = None,
    tol: float = 1e-8,
) -> VerdictReport:
    """Evaluate one inequality of the catalog and report its verdict.

    3.1/4.1 need ``plane``; 3.3/4.2 need a unit tangent ``X``; 3.4/4.3 take
    ``k`` (default n).  For 3.4/4.3 the k-Ricci invariant enters through its
    exact modes (k = n eigenvalue, or the k = 2 search on n = 3); a sampled k is
    reported as advisory in the diagnostics and the verdict is computed
    through the exact k = n chain instead.  ``tol`` must be finite and >= 0,
    and a non-finite side raises ``ValueError`` rather than give a verdict.
    """
    _require_kind(sub, theorem_id)
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")
    n = sub.n
    H_sq, h_sq = sub.mean_curvature_sq, sub.h_norm_sq

    if theorem_id in _NEEDS_PLANE:
        if plane is None:
            raise MissingArgument(f"{theorem_id} needs a plane")
        v1, v2 = sub.plane_coords(plane)
        k_ng = 0.5 * float(np.sum(_pair_nongauss(sub, np.stack([v1, v2]), np.stack([v2, v1]))))
        lhs = scalar_tau(sub) - sectional(sub, plane)
        rhs = _tau_nongauss(sub) - k_ng + n ** 2 * (n - 2) / (2.0 * (n - 1)) * H_sq
        diag = {
            "plane_invariants": plane_invariants(sub, plane).__dict__.copy(),
            "shape_match": _adapted_block_match(sub, plane),
        }
        return _verdict(theorem_id, lhs, rhs, tol, diag)

    if theorem_id in _NEEDS_X:
        if X is None:
            raise MissingArgument(f"{theorem_id} needs a unit tangent direction X")
        lhs = ricci(sub, X, symmetrized=False)  # rejects a non-unit X
        x = sub.tangent_coords(X)
        frame = complete_frame(x[None, :])
        ric_ng = float(np.sum(_pair_nongauss(sub, np.broadcast_to(x, frame.shape), frame)))
        rhs = ric_ng + n ** 2 / 4.0 * H_sq
        diag = {
            "H_zero": bool(H_sq < 1e-20),
            "X_in_kernel": bool(_kernel_residual(sub, x) < 1e-10),
            "h_zero": bool(np.abs(sub.h).max() < 1e-12 if sub.h.size else True),
        }
        return _verdict(theorem_id, lhs, rhs, tol, diag)

    E = 2.0 * _tau_nongauss(sub)
    if theorem_id in ("3.4", "4.3"):
        if k is None:
            k = n
        est = theta_k(sub, k)
        diag: dict = {"theta_mode": est.mode, "theta_value": est.value, "k": k,
                      "theta_samples": est.samples}
        if est.exact:
            lhs = n * (n - 1) * est.value - E
        else:
            # Sampled estimates only upper-bound the invariant, so the verdict
            # must come from the exact chain: the trace identity, the
            # Cauchy-Schwarz step, and the exact k = n invariant.
            exact = theta_k(sub, n)
            two_tau = 2.0 * scalar_tau(sub)
            diag["identity_residual"] = abs(two_tau - E - (n ** 2 * H_sq - h_sq))
            diag["cauchy_schwarz_slack"] = h_sq - n * H_sq
            diag["theta_exact_k_n"] = exact.value
            diag["theta_advisory"] = est.value
            lhs = n * (n - 1) * exact.value - E
        rhs = n * (n - 1) * H_sq
        return _verdict(theorem_id, lhs, rhs, tol, diag)

    cas = casorati(sub)
    delta = cas.delta_c_hat if theorem_id.endswith("ii") else cas.delta_c
    lhs = 2.0 * scalar_tau(sub)
    rhs = n * (n - 1) * delta + E
    diag = cas.as_dict()
    diag["shape_match"] = _quasi_umbilical_match(sub, theorem_id)
    return _verdict(theorem_id, lhs, rhs, tol, diag)


def _kernel_residual(sub: SubmanifoldPoint, x: np.ndarray) -> float:
    """max_j ||h(X, e_j)|| over the tangent frame."""
    if sub.h.size == 0:
        return 0.0
    vals = np.einsum("rij,i->rj", sub.h, x)
    return float(np.linalg.norm(vals, axis=0).max())


def _adapted_block_match(sub: SubmanifoldPoint, plane: Plane, tol: float = 1e-8) -> bool:
    """Diagnostic: shape operators in the plane-adapted frame match the
    equality pattern of the tau - K bound.

    In a frame starting with the plane basis: the first operator is
    diag(h11, h22, s, ..., s) with s = h11 + h22, the remaining ones are
    trace-free 2x2 blocks in the plane and zero elsewhere.  Heuristic (a
    suitable frame might exist elsewhere); used for reporting only.
    """
    v1, v2 = sub.plane_coords(plane)
    basis = np.vstack([v1, v2, complete_frame(np.vstack([v1, v2]))])
    h_adapted = np.einsum("ia,rab,jb->rij", basis, sub.h, basis)
    scale = 1.0 + (np.abs(h_adapted).max() if h_adapted.size else 0.0)
    first = h_adapted[0]
    off = first - np.diag(np.diag(first))
    if np.abs(off).max() > tol * scale:
        return False
    s = first[0, 0] + first[1, 1]
    if np.abs(np.diag(first)[2:] - s).max() > tol * scale:
        return False
    for other in h_adapted[1:]:
        if abs(other[0, 0] + other[1, 1]) > tol * scale:
            return False
        masked = other.copy()
        masked[:2, :2] = 0.0
        if np.abs(masked).max() > tol * scale:
            return False
    return True


def _quasi_umbilical_match(sub: SubmanifoldPoint, theorem_id: str, tol: float = 1e-8) -> bool:
    """Diagnostic: do the shape operators match the printed equality pattern?

    Checked in the eigenbasis of the first shape operator: diag(a,...,a,2a)
    for the 'i' bounds, diag(2a,...,2a,a) for 'ii', remaining operators zero.
    Heuristic (a suitable frame may exist elsewhere); used for reporting only.
    """
    h = sub.h
    if h.size == 0:
        return True
    rest = float(np.abs(h[1:]).max()) if h.shape[0] > 1 else 0.0
    if rest > tol:
        return False
    w = np.sort(np.linalg.eigvalsh(h[0]))
    if np.abs(w).max() < tol:
        return True
    double = theorem_id.endswith("ii")
    for pos in range(len(w)):
        a = np.delete(w, pos)
        lone = w[pos]
        if np.abs(a - a[0]).max() < tol * (1 + np.abs(w).max()):
            target = a[0] / 2.0 if double else 2.0 * a[0]
            if abs(lone - target) < tol * (1 + np.abs(w).max()):
                return True
    return False


# ---------------------------------------------------------------------------
# standalone algebraic bounds
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundsCheck:
    lhs: float
    rhs: float
    holds: bool


def algebraic_bounds_check(h_matrices, which: str, tol: float = 1e-9) -> BoundsCheck:
    """The two quadratic shape-operator bounds used by the inequality proofs.

    'chen':  sum_r [ sum_{i<j} h_ii h_jj - h_11 h_22 - sum_{i<j} h_ij^2 + h_12^2 ]
             <= n^2 (n-2) / (2(n-1)) ||H||^2          (n >= 3)
    'ricci': sum_r sum_{j>=2} h_11 h_jj <= n^2/4 ||H||^2   (n >= 2)

    with ||H||^2 = (1/n^2) sum_r (tr h^r)^2.
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
    return BoundsCheck(lhs, rhs, bool(lhs <= rhs + tol * (1.0 + abs(lhs) + abs(rhs))))


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


# ---------------------------------------------------------------------------
# cross checks: closed expansions vs the raw tensor pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckReport:
    """Residuals between the raw pipeline and the closed expansions."""

    residuals: dict
    q_min: float
    cauchy_schwarz_slack: float

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def ok(self, tol: float = 1e-9, q_tol: float = 1e-8) -> bool:
        return self.max_residual < tol and self.q_min > -q_tol and self.cauchy_schwarz_slack > -q_tol


def cross_check(sub: SubmanifoldPoint, plane_seed: int = 0) -> CrossCheckReport:
    """Recompute every expansion two ways and report the worst residuals.

    Pairwise curvature on all frame index pairs, scalar curvature (both
    defining formulas and the closed form), the three plane expansions on the
    coordinate plane plus two seeded random tangent planes, the trace identity
    2 tau - E = n^2 ||H||^2 - ||h||^2, and the hyperplane polynomial
    Q(L) = n(n-1)/2 C + (n-1)(n+1)/2 C(L) - 2 tau + E, whose minimum over the
    sampled hyperplanes must be nonnegative.
    """
    n = sub.n
    R = sub.riem
    res: dict[str, float] = {}

    I, J, X, Y = _frame_pairs(n)
    closed = _pair_nongauss(sub, X, Y) + _pair_gauss(sub, X, Y)
    res["R_pair"] = float(np.abs(closed - R[I, J, J, I]).max())

    tau_k, tau_double = scalar_tau_pair(sub)
    E = 2.0 * _tau_nongauss(sub)
    res["tau_formulas"] = abs(tau_k - tau_double)
    res["tau_closed"] = abs(tau_k - (0.5 * E + _gauss_sum(sub)))

    # the coordinate plane and two seeded random planes, in frame coordinates
    rng = np.random.default_rng(plane_seed)
    bases = [np.eye(n)[:2]] + [orthonormalize(rng.standard_normal((2, n))) for _ in range(2)]
    V1, V2 = np.array([b[0] for b in bases]), np.array([b[1] for b in bases])
    Xp, Yp = np.concatenate([V1, V2]), np.concatenate([V2, V1])
    r12, r21 = np.split(_pair_nongauss(sub, Xp, Yp) + _pair_gauss(sub, Xp, Yp), 2)
    t1221 = np.einsum("abcd,ka,kb,kc,kd->k", R, V1, V2, V2, V1)
    t1212 = np.einsum("abcd,ka,kb,kc,kd->k", R, V1, V2, V1, V2)
    res["R_1221"] = float(np.abs(r12 - t1221).max())
    res["R_1212"] = float(np.abs(-r21 - t1212).max())
    res["K_plane"] = float(np.abs((r12 + r21) / 2.0 - (t1221 - t1212) / 2.0).max())

    H_sq, h_sq = sub.mean_curvature_sq, sub.h_norm_sq
    res["trace_identity"] = abs(2.0 * tau_k - E - (n ** 2 * H_sq - h_sq))

    # Q over a deterministic hyperplane sample: coordinate normals plus a
    # seeded batch; must stay nonnegative for every hyperplane.
    U = np.concatenate([np.eye(n), rng.standard_normal((64, n))])
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    CL = _hyperplane_values(sub, U)
    cas = casorati(sub)
    CL = np.append(CL, cas.inf_CL)
    C = h_sq / n
    q_vals = n * (n - 1) / 2.0 * C + (n - 1) * (n + 1) / 2.0 * CL - 2.0 * tau_k + E
    return CrossCheckReport(
        residuals=res,
        q_min=float(q_vals.min()),
        cauchy_schwarz_slack=h_sq - n * H_sq,
    )


# ---------------------------------------------------------------------------
# equality witnesses
# ---------------------------------------------------------------------------

def equality_instance(
    case: str,
    n: int = 3,
    params: dict | None = None,
    seed: int = 0,
    m: int | None = None,
) -> SubmanifoldPoint:
    """Construct a submanifold point attaining equality in one inequality.

    case 'cor32':    first shape operator diag(h11, h22, h11+h22, ...),
                     optional trace-free (b1, b2) block in the second normal
                     direction; equality in 3.1 on the span of the first two
                     frame vectors.
    case 'thm35_i':  diag(a, ..., a, 2a); equality in 3.5i.
    case 'thm35_ii': diag(2a, ..., 2a, a); equality in 3.5ii.

    The ambient is the c = 1, kappa = 1, h' = 0 reduction with a zero kind-1
    connection (P tangent trivially).  ``seed`` != 0 rotates the submanifold
    placement inside the ambient by a random orthogonal map, which must not
    change any verdict.
    """
    params = dict(params or {})
    if case not in ("cor32", "thm35_i", "thm35_ii"):
        raise ValueError(f"unknown equality case {case!r}")
    if m is None:
        m = max(2, (n + 2) // 2)
    d = 2 * m + 1
    if d < n + 2:
        raise DimensionMismatch(f"ambient dim {d} too small for n = {n} plus two normals")
    p = d - n
    hhat = np.zeros((p, n, n))
    if case == "cor32":
        h11 = float(params.pop("h11", 1.0))
        h22 = float(params.pop("h22", 1.0))
        b1 = float(params.pop("b1", 0.0))
        b2 = float(params.pop("b2", 0.0))
        diag = np.full(n, h11 + h22)
        diag[0], diag[1] = h11, h22
        hhat[0] = np.diag(diag)
        if p > 1:
            hhat[1, 0, 0], hhat[1, 1, 1] = b1, -b1
            hhat[1, 0, 1] = hhat[1, 1, 0] = b2
    else:
        a = float(params.pop("a", 1.0))
        diag = np.full(n, a if case == "thm35_i" else 2.0 * a)
        diag[-1] = 2.0 * a if case == "thm35_i" else a
        hhat[0] = np.diag(diag)
    if params:
        raise ValueError(f"unknown parameters for {case}: {sorted(params)}")

    basis = np.eye(d)[:n]
    if seed:
        rot = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))[0]
        basis = basis @ rot.T
    model = standard_point(m)
    spec = first_connection(0.0, 0.0, np.zeros(d), np.zeros((d, d)))
    return attach(model, spec, basis, hhat)


EQUALITY_THEOREM = {"cor32": "3.1", "thm35_i": "3.5i", "thm35_ii": "3.5ii"}
