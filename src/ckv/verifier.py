"""Evaluation of both sides of every implemented curvature inequality.

Catalog (ids follow the internal numbering; family 3.x is the first
connection, 4.x the second):

  3.1 / 4.1   tau - K(plane) bounded by plane and global invariants
  3.3 / 4.2   Ricci of a unit direction bounded with the n^2/4 mean term
  3.4 / 4.3   mean-curvature lower bound through the k-Ricci invariant
  3.5i / 4.4i, 3.5ii / 4.4ii   2 tau <= delta_C(r; n-1) + E (``delta_casorati``)
              at r = n(n-1)/2 resp. 2n(n-1) (``_CASORATI_R``)

Every proof puts the Gauss equation into a scalar, sectional or Ricci
curvature, so every right-hand side is a trace of one closed form, the
non-Gauss part of R(x, y, y, x) on orthonormal tangent pairs, plus the
algebraic bound on h that the proof applies to the Gauss part.  That form is
one memoized (n^2, n^2) tensor per point (``_pair_tensor``), the one owner of
the ambient and connection terms: a plane, a direction or a cross-check row
reads it by one GEMM (``_pair_nongauss``), and E = 2 tau_ng reads its
frame entries.  ``cross_check`` compares that form with the raw tensor
pipeline (``R_pair``, ``tau_formulas``, ``trace_identity``) and checks the
Casorati certificate (``casorati_floor``, ``casorati_bracket``): a residual
beyond rounding is a bug.  Beside them it reports Q, the certified
3.5i/4.4i slack, and the Cauchy-Schwarz slack ||h||^2 - n ||H||^2.

The Casorati verdicts (``casorati_verdict``) rest on the certified bounds of
``submanifold.casorati_bounds`` alone, not on the sampled search: they hold
when the certified slack does and are violations otherwise.

Convention: all correction-tensor traces entering right-hand sides (lambda =
tr alpha, tr beta, lambda' = tr alpha') are restrictions to the submanifold
frame, i.e. sums over the n tangent directions, not ambient traces.  The
Ricci bounds use the raw (non-symmetrized) Ricci sum; the k-Ricci invariant
uses the symmetrized sectional curvature.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .connections import KIND_FIRST, KIND_SECOND, first_connection
from .contact import standard_point
from .errors import MissingArgument, WrongConnectionKind
from .frames import Plane, orthonormalize
from .spheresearch import _frozen, quadratic_monomials
from .submanifold import (
    SubmanifoldPoint,
    attach,
    casorati,
    casorati_bounds,
    delta_casorati,
    scalar_tau,
    scalar_tau_pair,
    theta_k,
    _Quartic,
    _form_rows,
    _ricci_at,
    _sectional_batch,
)

__all__ = [
    "THEOREMS_FIRST",
    "THEOREMS_SECOND",
    "TAKES_PLANE",
    "TAKES_X",
    "TAKES_K",
    "DEFAULT_TOL",
    "CROSS_TOL",
    "EQUALITY_THEOREM",
    "applicable_theorems",
    "theorem_ids_problem",
    "VerdictReport",
    "verify",
    "casorati_verdict",
    "CrossCheckReport",
    "cross_check",
    "equality_instance",
]

THEOREMS_FIRST = ("3.1", "3.3", "3.4", "3.5i", "3.5ii")
THEOREMS_SECOND = ("4.1", "4.2", "4.3", "4.4i", "4.4ii")
# the theorems that take a plane, a direction X, or k; the rest take none
TAKES_PLANE = frozenset({"3.1", "4.1"})
TAKES_X = frozenset({"3.3", "4.2"})
TAKES_K = frozenset({"3.4", "4.3"})
# r / (n (n - 1)) of each Casorati bound 2 tau <= delta_C(r; n - 1) + E
_CASORATI_R = {"3.5i": 0.5, "4.4i": 0.5, "3.5ii": 2.0, "4.4ii": 2.0}
DEFAULT_TOL = 1e-8   # relative verdict tolerance, scaled by 1 + |lhs| + |rhs|
CROSS_TOL = 1e-9     # largest accepted cross-check residual
_Q_TOL = 1e-8        # how far below zero q_min and Cauchy-Schwarz may dip
_SHAPE_TOL = 1e-8    # equality-pattern diagnostics


def applicable_theorems(kind: int) -> tuple[str, ...]:
    return THEOREMS_FIRST if kind == KIND_FIRST else THEOREMS_SECOND


def theorem_ids_problem(ids) -> str | None:
    """Why a list of theorem ids is unusable (an unknown or repeated id), or None."""
    for pos, tid in enumerate(ids):
        if tid not in THEOREMS_FIRST + THEOREMS_SECOND:
            return f"unknown theorem id {tid!r}"
        if tid in ids[:pos]:
            return f"theorem {tid!r} is named twice"
    return None


def _check_request(sub: SubmanifoldPoint, theorem_id: str, tol: float):
    if theorem_id not in THEOREMS_FIRST + THEOREMS_SECOND:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    family_first = theorem_id.startswith("3")
    if family_first and sub.spec.kind != KIND_FIRST:
        raise WrongConnectionKind(f"{theorem_id} needs a kind-1 connection")
    if not family_first and sub.spec.kind != KIND_SECOND:
        raise WrongConnectionKind(f"{theorem_id} needs a kind-2 connection")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol!r}")


# ---------------------------------------------------------------------------
# plane invariants
# ---------------------------------------------------------------------------

def _plane_invariants(sub: SubmanifoldPoint, v1: np.ndarray, v2: np.ndarray) -> dict:
    """Scalar invariants of the tangent 2-plane with orthonormal frame
    coordinates v1, v2 (e1, e2) entering the right-hand sides:

    gamma = eta(e1)^2 + eta(e2)^2
    theta = eta(e1)^2 h'_22 + eta(e2)^2 h'_11 - 2 eta(e1) eta(e2) h'_12
    phi_plane = <phat e1, e2>^2 (the squared phi-angle of the plane)
    the det/tr fields are restrictions of h', phi h', alpha, beta, alpha'
    P_plane_sq = pi(e1)^2 + pi(e2)^2
    g_tr_h_P = <P, h(e1,e1) + h(e2,e2)> = sum_r tr(h_r on the plane) pi_r for
    the active h, with pi_r = <P, normal r>

    Every field is a Python float read off one restriction to the plane rows
    V = (v1; v2) of the point's memo ``plane_forms``: the forms (h', phi h',
    alpha, beta, alpha', phat, h_1, ..., h_p) and the covectors (eta; pi).
    """
    forms, covectors = sub.memo("plane_forms", lambda: (
        _frozen(np.concatenate([np.stack([sub.hprime_top, sub.phi_hprime_top, sub.alpha_t,
                                          sub.beta_t, sub.alpha_prime_t, sub.phat]), sub.h])),
        _frozen(np.stack([sub.eta_t, sub.pi_t]))))
    V = np.stack([v1, v2])
    A, B, al, be, ap, ph, *h_plane = (V @ forms @ V.T).tolist()
    (eta1, eta2), (pi1, pi2) = (covectors @ V.T).tolist()
    return {
        "gamma": eta1 ** 2 + eta2 ** 2,
        "theta": eta1 ** 2 * A[1][1] + eta2 ** 2 * A[0][0] - 2.0 * eta1 * eta2 * A[0][1],
        "phi_plane": ph[1][0] ** 2,   # <e2, phi e1> = <phat e1, e2>
        "det_hprime": A[0][0] * A[1][1] - A[0][1] * A[1][0],
        "det_phi_hprime": B[0][0] * B[1][1] - B[0][1] * B[1][0],
        "tr_hprime": A[0][0] + A[1][1],
        "tr_alpha": al[0][0] + al[1][1],
        "tr_beta": be[0][0] + be[1][1],
        "tr_alpha_prime": ap[0][0] + ap[1][1],
        "P_plane_sq": pi1 ** 2 + pi2 ** 2,
        "g_tr_h_P": sum((hr[0][0] + hr[1][1]) * pr for hr, pr in zip(h_plane, sub.pi_nor.tolist())),
    }


# ---------------------------------------------------------------------------
# the non-Gauss curvature form
# ---------------------------------------------------------------------------

def _pair_nongauss(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Non-Gauss part of R(x, y, y, x) for rows of unit tangent pairs.

    X and Y hold tangent-frame coordinates, shape (k, n), each row a unit
    vector (3.3/4.2 also read it on the non-orthogonal rows of their trace
    identity, see ``verify``).  One ``_form_rows`` GEMM of (x (x) y) and
    (y (x) x) with the tensor of ``_pair_tensor``, the one owner of the
    ambient and connection terms.  The full value adds sum_r h_r(x,x)
    h_r(y,y) - h_r(x,y)^2 (``_pair_gauss``).
    """
    return _form_rows(_pair_tensor(sub), X, Y, Y, X)


def _pair_tensor(sub: SubmanifoldPoint) -> np.ndarray:
    """The (n*n, n*n) matrix T with sum T[a,b,c,d] x_a y_b y_c x_d the
    non-Gauss part of R(x, y, y, x) on unit x, y; memoized and read-only.

    With the forms of ``_pair_forms`` (phat, A = h', B = phi h', A - C_x,
    A - C_y), u = eta on the frame, U = u (x) u, e = (c + 3 - 4 kappa) / 4
    and M(x, y) = x^T M y, that part is

      (c+3)/4 - e (u_x^2 + u_y^2) + 3(c-1)/4 phat(x,y)^2
      + (B(x,y)^2 - A(x,y)^2 + A(x,x) A(y,y) - B(x,x) B(y,y)) / 2
      + (A - C_x)(x,x) + (A - C_y)(y,y)
      + (1 - mu) (2 u_x u_y A(x,y) - A(x,x) u_y^2 - A(y,y) u_x^2):

    the terms of the contact space form, the connection's folded into
    A - C_x and A - C_y.  Each term is one pair (P, Q): P(x,x) Q(y,y) of the
    stack read as P[a,d] Q[b,c], P(x,y) Q(x,y) of the one read as
    P[a,b] Q[d,c], with Q = I for a y-free term and P = I for an x-free
    one (|x| = |y| = 1).  T is built from the model and the restricted
    forms, never from ``riem``, so ``cross_check`` compares two independent
    transcriptions.
    """
    def make():
        model, n = sub.model, sub.n
        c, f = model.c, 1.0 - model.mu_contact
        e = (c + 3.0 - 4.0 * model.kappa) / 4.0
        phat, A, B, A_x, A_y = _pair_forms(sub)
        I, U = np.eye(n), np.outer(sub.eta_t, sub.eta_t)
        ad_bc = np.array([((c + 3.0) / 4.0 * I, I), (-e * U, I), (-e * I, U),
                          (0.5 * A, A), (-0.5 * B, B), (A_x, I), (I, A_y),
                          (-f * A, U), (-f * U, A)])
        ab_dc = np.array([(3.0 * (c - 1.0) / 4.0 * phat, phat), (0.5 * B, B),
                          (-0.5 * A, A), (2.0 * f * A, U)])
        T = (np.einsum("kad,kbc->abcd", ad_bc[:, 0], ad_bc[:, 1])
             + np.einsum("kab,kdc->abcd", ab_dc[:, 0], ab_dc[:, 1]))
        return _frozen(T.reshape(n * n, n * n))
    return sub.memo("pair_tensor", make)


def _pair_forms(sub: SubmanifoldPoint) -> np.ndarray:
    """The forms of ``_pair_tensor``, stacked (5, n, n): phat, A, B,
    A - C_x and A - C_y."""
    spec, A = sub.spec, sub.hprime_top
    h_P = np.einsum("r,rab->ab", sub.pi_nor, sub.h)  # <h(., .), P>
    if spec.kind == KIND_FIRST:
        l1, l2 = spec.lambda1, spec.lambda2
        c_x = l2 * sub.alpha_t + l2 * (l1 - l2) * sub.beta_t
        c_y = l1 * sub.alpha_t + (l1 - l2) * h_P
    else:
        b = spec.b
        c_x = np.zeros_like(A)
        c_y = b * sub.alpha_prime_t - b ** 2 * np.outer(sub.pi_t, sub.pi_t) + b * h_P
    return np.stack([sub.phat, A, sub.phi_hprime_top, A - c_x, A - c_y])


def _pair_gauss(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gauss part of R(x, y, y, x): sum_r h_r(x,x) h_r(y,y) - h_r(x,y)^2."""
    left, right = np.stack([X, X, Y])[:, None], np.stack([Y, X, Y])[:, None]
    xy, xx, yy = ((left @ sub.h) * right).sum(axis=-1)
    return (xx * yy - xy ** 2).sum(axis=0)


def _tau_nongauss(sub: SubmanifoldPoint) -> float:
    """Scalar curvature minus its Gauss sum: half the pair form over the
    ordered frame pairs (e_i, e_j), i != j, read as the entries
    T[i, j, j, i] of ``_pair_tensor`` (no GEMM).

    Memoized on the point; E = 2 tau_ng is the invariant aggregate with
    2 tau - E = n^2 ||H||^2 - ||h||^2.
    """
    def make():
        n = sub.n
        frame = np.einsum("ijji->ij", _pair_tensor(sub).reshape(n, n, n, n))
        return 0.5 * float(frame.sum() - np.trace(frame))
    return sub.memo("tau_nongauss", make)


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
    diagnostics: dict

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
    tol: float = DEFAULT_TOL,
) -> VerdictReport:
    """Evaluate one inequality of the catalog and report its verdict.

    3.1/4.1 need ``plane``; 3.3/4.2 need a unit tangent ``X``; 3.4/4.3 take
    ``k`` (default n).  Arguments a theorem does not take are ignored.  The
    3.3/4.2 rhs sums the pair form over an orthonormal basis of x^perp: for
    fixed x it is a quadratic form in y (its y-free terms count once per unit
    y), so that sum is its trace over e_1..e_n minus its value at y = x.  For
    3.4/4.3 the k-Ricci invariant enters as min(Theta_k estimate, Theta_n):
    Theta_k <= Theta_{k+1}, so both are upper bounds on Theta_k in every mode
    and the smaller one is the sharpest sound value; a sampled ('multistart')
    verdict also reports the exact chain (trace identity, Cauchy-Schwarz step,
    Theta_n) in its diagnostics.  3.5/4.4 return ``casorati_verdict``: lhs,
    rhs and slack are certified, and the diagnostics add the search's
    estimate (``inf_CL``, ``sup_CL``, ``delta_c``, ``delta_c_hat`` and
    ``estimate_slack``, the slack at the searched extrema) and a
    ``certificate`` block (the bounds of ``casorati_bounds`` and each
    bound's gap to the estimate, >= 0).  ``tol`` must be finite and >= 0,
    and a non-finite side raises ``ValueError`` rather than give a verdict.
    """
    _check_request(sub, theorem_id, tol)
    n = sub.n
    H_sq, h_sq = sub.mean_curvature_sq, sub.h_norm_sq

    if theorem_id in TAKES_PLANE:
        if plane is None:
            raise MissingArgument(f"{theorem_id} needs a plane")
        v1, v2 = sub.plane_coords(plane)
        k_ng = 0.5 * float(_pair_nongauss(sub, np.stack([v1, v2]), np.stack([v2, v1])).sum())
        lhs = scalar_tau(sub) - float(_sectional_batch(sub, v1[None], v2[None])[0])
        rhs = _tau_nongauss(sub) - k_ng + n ** 2 * (n - 2) / (2.0 * (n - 1)) * H_sq
        diag = {
            "plane_invariants": _plane_invariants(sub, v1, v2),
            "shape_match": _adapted_block_match(sub, v1, v2),
        }
        return _verdict(theorem_id, lhs, rhs, tol, diag)

    if theorem_id in TAKES_X:
        if X is None:
            raise MissingArgument(f"{theorem_id} needs a unit tangent direction X")
        x = sub.tangent_coords(X)
        lhs = _ricci_at(sub, x)  # rejects a non-unit X
        # the trace identity of the docstring: no basis of x^perp is built
        vals = _pair_nongauss(sub, np.broadcast_to(x, (n + 1, n)), np.vstack([np.eye(n), x]))
        rhs = float(vals[:n].sum() - vals[n]) + n ** 2 / 4.0 * H_sq
        diag = {
            "H_zero": bool(H_sq < 1e-20),
            "X_in_kernel": bool(_kernel_residual(sub, x) < 1e-10),
            "h_zero": bool(np.abs(sub.h).max() < 1e-12),
        }
        return _verdict(theorem_id, lhs, rhs, tol, diag)

    E = 2.0 * _tau_nongauss(sub)
    if theorem_id in TAKES_K:
        if k is None:
            k = n
        est = theta_k(sub, k)
        exact = est if k == n else theta_k(sub, n)
        diag: dict = {"theta_mode": est.mode, "theta_value": est.value, "k": int(k),
                      "theta_samples": est.samples}
        if est.mode == "multistart":
            # a sampled value is only an upper bound: report the exact chain
            # (trace identity, Cauchy-Schwarz step, Theta_n) beside it
            two_tau = 2.0 * scalar_tau(sub)
            diag["identity_residual"] = abs(two_tau - E - (n ** 2 * H_sq - h_sq))
            diag["cauchy_schwarz_slack"] = h_sq - n * H_sq
            diag["theta_exact_k_n"] = exact.value
            diag["theta_advisory"] = est.value
        lhs = n * (n - 1) * min(est.value, exact.value) - E
        rhs = n * (n - 1) * H_sq
        return _verdict(theorem_id, lhs, rhs, tol, diag)

    verdict = casorati_verdict(sub, theorem_id, tol)
    cas, (lo, hi) = casorati(sub), casorati_bounds(sub)
    diag = {
        **cas.as_dict(),
        "estimate_slack": _casorati_rhs(sub, theorem_id, cas.inf_CL, cas.sup_CL) - verdict.lhs,
        "certificate": {"inf_CL": lo, "sup_CL": hi,
                        "inf_gap": cas.inf_CL - lo, "sup_gap": hi - cas.sup_CL},
        "shape_match": _quasi_umbilical_match(sub, _CASORATI_R[theorem_id] * n * (n - 1)),
    }
    return dataclasses.replace(verdict, diagnostics=diag)


def _casorati_rhs(sub: SubmanifoldPoint, theorem_id: str, inf_CL: float, sup_CL: float) -> float:
    """delta_C(r; n-1) + E at the theorem's r, with the given C(L) extrema."""
    n = sub.n
    r = _CASORATI_R[theorem_id] * n * (n - 1)
    return delta_casorati(n, r, sub.h_norm_sq / n, inf_CL, sup_CL) + 2.0 * _tau_nongauss(sub)


def casorati_verdict(sub: SubmanifoldPoint, theorem_id: str, tol: float) -> VerdictReport:
    """The 3.5/4.4 verdict 2 tau <= delta_C(r; n-1) + E on the certificate.

    Its rhs, and so its slack, is certified: it reads the bounds of
    ``casorati_bounds``, which lie outside the true C(L) extrema, and
    delta_C(r; n-1) grows with inf C(L) below r = n(n-1) and falls with
    sup C(L) above, so the certified slack is never above the true one.
    It ``holds`` when that slack is >= -``tol`` (1 + |lhs| + |rhs|) and is
    a violation otherwise, which by the proof in ``casorati_bounds`` only
    rounding or a fault in the bounds can cause (``cross_check`` checks
    them).  No search runs, and the diagnostics are empty.
    """
    _check_request(sub, theorem_id, tol)
    if theorem_id not in _CASORATI_R:
        raise ValueError(f"{theorem_id} is not a Casorati bound")
    rhs = _casorati_rhs(sub, theorem_id, *casorati_bounds(sub))
    return _verdict(theorem_id, 2.0 * scalar_tau(sub), rhs, tol, {})


def _kernel_residual(sub: SubmanifoldPoint, x: np.ndarray) -> float:
    """max_j ||h(X, e_j)|| over the tangent frame."""
    vals = np.einsum("rij,i->rj", sub.h, x)
    return float(np.linalg.norm(vals, axis=0).max())


def _adapted_block_match(sub: SubmanifoldPoint, v1: np.ndarray, v2: np.ndarray) -> bool:
    """Diagnostic: do the shape operators match the equality pattern of the
    tau - K bound on the plane with frame coordinates v1, v2?

    In a frame starting with the plane basis the pattern is: the first
    operator is diag(h11, h22, s, ..., s) with s = h11 + h22, the remaining
    ones are trace-free 2x2 blocks in the plane and zero elsewhere.  With
    P = v1 v1^T + v2 v2^T that reads, basis-free, h_1 = h11 v1 v1^T +
    h22 v2 v2^T + s (I - P) = s I - h22 v1 v1^T - h11 v2 v2^T and, for r > 1,
    h_r = P h_r P with h_r(v1, v1) + h_r(v2, v2) = 0; both are compared
    entrywise in frame coordinates, to a tolerance scaled by max |h|.
    Heuristic (a suitable frame might exist elsewhere); used for reporting only.
    """
    h, V = sub.h, np.stack([v1, v2])
    h_plane = V @ h @ V.T
    pattern = V.T @ h_plane @ V
    (h11, _), (_, h22) = h_plane[0].tolist()
    pattern[0] = (h11 + h22) * np.eye(sub.n) - (V.T * [h22, h11]) @ V
    tol = _SHAPE_TOL * (1.0 + np.abs(h).max())
    traces = h_plane[1:, 0, 0] + h_plane[1:, 1, 1]
    return bool(np.abs(h - pattern).max() <= tol and np.abs(traces).max(initial=0.0) <= tol)


def _casorati_equality(n: int, r: float, a: float) -> np.ndarray:
    """Diagonal diag(a, ..., a, n(n-1)/r a) of the one-slice equality shape
    of delta_C(r; n-1): the last entry is 2a for 'i' and a/2 for 'ii'."""
    return np.append(np.full(n - 1, a), n * (n - 1) / r * a)


def _quasi_umbilical_match(sub: SubmanifoldPoint, r: float) -> bool:
    """Diagnostic: do the shape operators match the equality pattern at r?

    Checked in the eigenbasis of the first shape operator: the eigenvalues
    are ``_casorati_equality`` up to order, the remaining operators zero.
    Heuristic (a suitable frame may exist elsewhere); used for reporting only.
    """
    h = sub.h
    rest = float(np.abs(h[1:]).max()) if h.shape[0] > 1 else 0.0
    if rest > _SHAPE_TOL:
        return False
    w = np.sort(np.linalg.eigvalsh(h[0]))
    if np.abs(w).max() < _SHAPE_TOL:
        return True
    for pos in range(len(w)):
        a = np.delete(w, pos)
        lone = w[pos]
        if np.abs(a - a[0]).max() < _SHAPE_TOL * (1 + np.abs(w).max()):
            target = _casorati_equality(len(w), r, a[0])[-1]
            if abs(lone - target) < _SHAPE_TOL * (1 + np.abs(w).max()):
                return True
    return False


# ---------------------------------------------------------------------------
# cross checks: closed expansions vs the raw tensor pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CrossCheckReport:
    """Residuals between the raw pipeline and the closed expansions and of
    the Casorati certificate, with ``q_min``, the certified 3.5i/4.4i
    slack, and ``cauchy_schwarz_slack``, ||h||^2 - n ||H||^2."""

    residuals: dict
    q_min: float
    cauchy_schwarz_slack: float

    @property
    def max_residual(self) -> float:
        return float(np.max(list(self.residuals.values())))   # a NaN comes out

    def ok(self) -> bool:
        """Every residual below ``CROSS_TOL``, Q and Cauchy-Schwarz above -1e-8."""
        return (self.max_residual < CROSS_TOL and self.q_min > -_Q_TOL
                and self.cauchy_schwarz_slack > -_Q_TOL)


@functools.cache
def _cross_sample(n: int) -> tuple[np.ndarray, np.ndarray]:
    """``cross_check``'s ordered pair rows X, Y: the n(n-1) ordered frame
    pairs (e_i, e_j), i != j, then two seeded random planes (v1, v2) in both
    orders.  Cached per dimension and read-only."""
    rng = np.random.default_rng(0)
    V1, V2 = np.stack([orthonormalize(rng.standard_normal((2, n))) for _ in range(2)], axis=1)
    I, J = np.nonzero(~np.eye(n, dtype=bool))
    return (_frozen(np.concatenate([np.eye(n)[I], V1, V2])),
            _frozen(np.concatenate([np.eye(n)[J], V2, V1])))


def cross_check(sub: SubmanifoldPoint) -> CrossCheckReport:
    """Compare the closed forms with the raw tensor pipeline, and check the
    Casorati certificate.

    Residuals: ``R_pair``, the closed R(x, y, y, x) (``_pair_nongauss`` plus
    ``_pair_gauss``) against raw ``riem`` on every pair row of
    ``_cross_sample``, read by one GEMM of outer-product rows; both orders
    count, since R(x, y, y, x) != R(y, x, x, y) for a non-metric connection.
    ``tau_formulas``, the two defining formulas of tau (``scalar_tau_pair``).
    ``trace_identity``, 2 tau - E = n^2 ||H||^2 - ||h||^2.  In F = (n-1) C(L)
    over 1 + ||h||^2, from the point's one ``eigh`` of [S; h_1 ... h_p]
    (``_Quartic``): ``casorati_floor``, how far the certified inf F
    (``casorati_bounds``) lies below sum_r inf F_r or its sup F above sum_r
    ||h_r||^2 - min lam_r^2, F_r the quartic of h_r alone;
    ``casorati_bracket``, how far they lie inside [min F(U), max F(U)] over
    that decomposition's directions U.
    ``q_min`` (the certified 3.5i/4.4i slack, bit for bit) and ||h||^2 -
    n ||H||^2 must both be nonnegative.  The planes are fixed per
    dimension: every point of a given n is checked on the same ones.
    """
    n = sub.n
    X, Y = _cross_sample(n)
    closed = _pair_nongauss(sub, X, Y) + _pair_gauss(sub, X, Y)
    res = {"R_pair": float(np.abs(closed - _form_rows(sub.riem, X, Y, Y, X)).max())}

    tau_k, tau_double = scalar_tau_pair(sub)
    E = 2.0 * _tau_nongauss(sub)
    H_sq, h_sq = sub.mean_curvature_sq, sub.h_norm_sq
    res["tau_formulas"] = abs(tau_k - tau_double)
    res["trace_identity"] = abs(2.0 * tau_k - E - (n ** 2 * H_sq - h_sq))

    quartic, (lo, hi) = _Quartic.of(sub), casorati_bounds(sub)
    lo, hi = (n - 1) * lo, (n - 1) * hi   # the certified inf F and sup F
    F = quartic.values(quadratic_monomials(quartic.U))
    sup_sum = quartic.h_sq - float((quartic.lam[1:] ** 2).min(axis=1).sum())
    # each max starts with a term in a bound, so that a NaN bound comes out
    res["casorati_floor"] = max(float(quartic.inf_r.sum()) - lo, hi - sup_sum, 0.0) / (1.0 + h_sq)
    res["casorati_bracket"] = max(lo - float(F.min()), float(F.max()) - hi, 0.0) / (1.0 + h_sq)

    return CrossCheckReport(
        residuals=res,
        q_min=_casorati_rhs(sub, "3.5i", *casorati_bounds(sub)) - 2.0 * tau_k,
        cauchy_schwarz_slack=h_sq - n * H_sq,
    )


# ---------------------------------------------------------------------------
# equality witnesses
# ---------------------------------------------------------------------------

def equality_instance(
    case: str,
    n: int,
    params: dict,
    seed: int = 0,
) -> SubmanifoldPoint:
    """Construct a submanifold point attaining equality in one inequality.

    case 'cor32':    first shape operator diag(h11, h22, h11+h22, ...),
                     optional trace-free (b1, b2) block in the second normal
                     direction; equality in 3.1 on the span of the first two
                     frame vectors.
    case 'thm35_i':  diag(a, ..., a, 2a); equality in 3.5i.
    case 'thm35_ii': diag(2a, ..., 2a, a); equality in 3.5ii.
    (``_casorati_equality`` at the theorem's r, a the lesser entry if a > 0.)

    The ambient is the c = 1, kappa = 1, h' = 0 reduction of dimension
    2m + 1 with m = max(2, (n + 2) // 2), which leaves at least two normal
    directions, with a zero kind-1 connection (P tangent trivially).
    ``seed`` != 0 rotates the submanifold placement inside the ambient by a
    random orthogonal map, which must not change any verdict.
    """
    params = dict(params)
    if case not in ("cor32", "thm35_i", "thm35_ii"):
        raise ValueError(f"unknown equality case {case!r}")
    if n < 3:
        raise ValueError(f"{case} needs n >= 3, got n = {n}")
    m = max(2, (n + 2) // 2)
    d = 2 * m + 1
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
        r = _CASORATI_R[EQUALITY_THEOREM[case]] * n * (n - 1)
        a = float(params.pop("a", 1.0)) * max(1.0, r / (n * (n - 1)))
        hhat[0] = np.diag(_casorati_equality(n, r, a))
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
