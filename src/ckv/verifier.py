"""Evaluation of both sides of every implemented curvature inequality.

Catalog (ids follow the internal numbering; family 3.x is the first
connection, 4.x the second):

  3.1 / 4.1   tau - K(plane) bounded by plane and global invariants
  3.3 / 4.2   Ricci of a unit direction bounded with the n^2/4 mean term
  3.4 / 4.3   mean-curvature lower bound through the k-Ricci invariant
  3.5i / 4.4i, 3.5ii / 4.4ii   2 tau <= delta_C(r; n-1) + E (``delta_casorati``)
              at r = n(n-1)/2 resp. 2n(n-1) (each id's row of ``THEOREMS``)

Every proof puts the Gauss equation into a scalar, sectional or Ricci
curvature, so every right-hand side is a trace of one closed form, the
non-Gauss part of R(x, y, y, x) on orthonormal tangent pairs, plus the
algebraic bound on h that the proof applies to the Gauss part.  That form is
one list of products of forms (``_pair_terms``, built once per point by
``_pair_entry``), the one owner of the paper's ambient and connection terms,
read two ways: as a memoized (n^2, n^2) tensor that a plane, a direction or
a cross-check row reads by one GEMM (``_pair_tensor``, ``_pair_nongauss``),
and on the frame pairs alone for E = 2 tau_ng (``_tau_nongauss``).
``cross_check`` compares the paper against geometry, that form against the
tensor built from the connection's definition (``R_pair``, ``tau_formulas``,
``trace_identity``), and checks the Casorati certificate
(``casorati_floor``, ``casorati_bracket``): a residual beyond rounding is a
bug.  Beside them it reports Q, the certified
3.5i/4.4i slack, and the Cauchy-Schwarz slack ||h||^2 - n ||H||^2.

Each row of ``THEOREMS`` is written once, as one branch of ``_sides`` on
the argument it takes: its lhs, its rhs and its report, a builder of the
diagnostics from the values the sides read.  ``decide`` is the verdict
alone (lhs, rhs, slack and holds), which is all a fuzz campaign reads;
``verify`` is that verdict with the report built.  The Casorati verdicts
rest on the certified bounds of ``submanifold.casorati_bounds`` alone, not
on the attained values of ``submanifold.casorati``: they hold when the
certified slack does and are violations otherwise.

Convention: all correction-tensor traces entering right-hand sides (lambda =
tr alpha, tr beta, lambda' = tr alpha') are restrictions to the submanifold
frame, i.e. sums over the n tangent directions, not ambient traces.  The
Ricci bounds use the raw (non-symmetrized) Ricci sum; the k-Ricci invariant
uses the symmetrized sectional curvature.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from .connections import KIND_FIRST, KIND_SECOND, correction_tensors, first_connection
from .contact import standard_point
from .errors import MissingArgument, WrongConnectionKind
from .frames import Plane, as_integer, as_real, orthonormalize
from .spheresearch import _frozen
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
    _checked_k,
    _form_rows,
    _ricci_at,
    _sectional_batch,
    _stack_products,
)

__all__ = [
    "THEOREMS",
    "THEOREMS_FIRST",
    "DEFAULT_TOL",
    "CROSS_TOL",
    "EQUALITY_THEOREM",
    "applicable_theorems",
    "theorem_ids_problem",
    "VerdictReport",
    "verify",
    "decide",
    "CrossCheckReport",
    "cross_check",
    "equality_instance",
]

# id: (connection kind, the ``verify`` argument it takes, r / (n (n - 1)) if a Casorati bound)
THEOREMS = {
    "3.1": (KIND_FIRST, "plane", None),
    "3.3": (KIND_FIRST, "X", None),
    "3.4": (KIND_FIRST, "k", None),
    "3.5i": (KIND_FIRST, None, 0.5),
    "3.5ii": (KIND_FIRST, None, 2.0),
    "4.1": (KIND_SECOND, "plane", None),
    "4.2": (KIND_SECOND, "X", None),
    "4.3": (KIND_SECOND, "k", None),
    "4.4i": (KIND_SECOND, None, 0.5),
    "4.4ii": (KIND_SECOND, None, 2.0),
}
DEFAULT_TOL = 1e-8   # relative verdict tolerance, scaled by 1 + |lhs| + |rhs|
CROSS_TOL = 1e-9     # largest accepted cross-check residual
_Q_TOL = 1e-8        # how far below zero q_min and Cauchy-Schwarz may dip
_SHAPE_TOL = 1e-8    # equality-pattern diagnostics


def applicable_theorems(kind: int) -> tuple[str, ...]:
    return tuple(tid for tid, row in THEOREMS.items() if row[0] == kind)


THEOREMS_FIRST = applicable_theorems(KIND_FIRST)


def theorem_ids_problem(ids) -> str | None:
    """Why a list of theorem ids is unusable (an unknown or repeated id), or None."""
    for pos, tid in enumerate(ids):
        if not (isinstance(tid, str) and tid in THEOREMS):
            return f"unknown theorem id {tid!r}"
        if tid in ids[:pos]:
            return f"theorem {tid!r} is named twice"
    return None


def _check_request(sub: SubmanifoldPoint, theorem_id: str, tol) -> tuple:
    """(takes, r, tol) of a request whose id and kind pass: the argument and
    Casorati ratio of its row of ``THEOREMS``, and its tol as
    ``frames.as_real`` returns it (a finite number >= 0)."""
    if problem := theorem_ids_problem([theorem_id]):
        raise ValueError(problem)
    row = THEOREMS[theorem_id]
    if sub.spec.kind != row[0]:
        raise WrongConnectionKind(f"{theorem_id} needs a kind-{row[0]} connection")
    return row[1], row[2], as_real(tol, "tol", 0.0)


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
    V = (v1; v2) of ``_plane_forms``.
    """
    forms, covectors = _plane_forms(sub)
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


def _plane_forms(sub: SubmanifoldPoint) -> tuple[np.ndarray, np.ndarray]:
    """The tangent-frame forms (h', phi h', alpha, beta, alpha', phat, h_1,
    ..., h_p) and covectors (eta; pi), memoized and read-only: the one
    place the paper's correction tensors are restricted to the frame."""
    def make():
        E, spec = sub.tangent, sub.spec
        ct = correction_tensors(spec)
        restricted = E @ np.array([ct.alpha, ct.beta, spec.D]) @ E.T
        return (_frozen(np.concatenate([[sub.hprime_top, sub.phi_hprime_top], restricted,
                                        [sub.phat], sub.h])),
                _frozen(np.array([sub.eta_t, E @ spec.P])))
    return sub.memo("plane_forms", make)


# ---------------------------------------------------------------------------
# the non-Gauss curvature form
# ---------------------------------------------------------------------------

def _pair_nongauss(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Non-Gauss part of R(x, y, y, x) for rows of unit tangent pairs.

    X and Y hold tangent-frame coordinates, shape (k, n), each row a unit
    vector (3.3/4.2 also read it on the non-orthogonal rows of their trace
    identity, see ``_sides``).  One ``_form_rows`` GEMM of (x (x) y) and
    (y (x) x) with the tensor of ``_pair_tensor``.  The full value adds
    sum_r h_r(x,x) h_r(y,y) - h_r(x,y)^2 (``_pair_gauss``).
    """
    return _form_rows(_pair_tensor(sub), X, Y, Y, X)


def _pair_tensor(sub: SubmanifoldPoint) -> np.ndarray:
    """The (n*n, n*n) matrix T with sum T[a,b,c,d] x_a y_b y_c x_d the
    non-Gauss part of R(x, y, y, x) on unit x, y; memoized and read-only:
    ``_pair_terms`` as two GEMMs, P[a,d] Q[b,c] and R[a,b] S[d,c].  T is the
    paper's printed curvature, never ``riem``, which ``attach`` builds from
    the connection: ``cross_check`` checks the paper against geometry."""
    def make():
        (P, Q), (R, S) = _pair_entry(sub)[0]
        T = (_stack_products(P, Q).transpose(0, 2, 3, 1)
             + _stack_products(R, S).transpose(0, 1, 3, 2))
        return _frozen(T.reshape(sub.n ** 2, sub.n ** 2))
    return sub.memo("pair_tensor", make)


# each term of ``_pair_terms`` as the indices of its (P, Q) into its stack F
_TERM_P, _TERM_Q = np.array([(0, 0), (1, 0), (0, 1), (3, 3), (4, 4), (5, 0), (0, 6), (3, 1),
                             (1, 3), (2, 2), (4, 4), (3, 3), (3, 1)]).T


def _pair_terms(sub: SubmanifoldPoint) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The non-Gauss part of R(x, y, y, x) on unit x, y, written once as
    stacks ((P, Q), (R, S)) of forms: sum_k P_k(x,x) Q_k(y,y) + R_k(x,y)
    S_k(x,y), each term a coefficient (in P and R) and two forms of
    F = (I, U, phat, A = h', B = phi h', A - C_x, A - C_y), the last five
    from ``_pair_forms``.  With u = eta on the frame, U = u (x) u,
    e = (c + 3 - 4 kappa) / 4 and M(x, y) = x^T M y, that part is

      (c+3)/4 - e (u_x^2 + u_y^2) + 3(c-1)/4 phat(x,y)^2
      + (B(x,y)^2 - A(x,y)^2 + A(x,x) A(y,y) - B(x,x) B(y,y)) / 2
      + (A - C_x)(x,x) + (A - C_y)(y,y)
      + (1 - mu) (2 u_x u_y A(x,y) - A(x,x) u_y^2 - A(y,y) u_x^2):

    the contact space form's terms, the connection's folded into A - C_x and
    A - C_y, with Q = I for a y-free term and P = I for an x-free one.
    """
    model, n = sub.model, sub.n
    c, f = model.c, 1.0 - model.mu_contact
    e = (c + 3.0 - 4.0 * model.kappa) / 4.0
    F = np.array([np.eye(n), np.outer(sub.eta_t, sub.eta_t), *_pair_forms(sub)])
    coef = np.array([(c + 3.0) / 4.0, -e, -e, 0.5, -0.5, 1.0, 1.0, -f, -f,
                     3.0 * (c - 1.0) / 4.0, 0.5, -0.5, 2.0 * f])
    P, Q = coef[:, None, None] * F[_TERM_P], F[_TERM_Q]
    return (P[:9], Q[:9]), (P[9:], Q[9:])


def _pair_forms(sub: SubmanifoldPoint) -> np.ndarray:
    """The forms of ``_pair_terms``, stacked (5, n, n): phat, A, B,
    A - C_x and A - C_y, from ``_plane_forms``."""
    spec, (forms, (_, pi_t)) = sub.spec, _plane_forms(sub)
    A, B, alpha, beta, alpha_prime, phat = forms[:6]
    h_P = np.einsum("r,rab->ab", sub.pi_nor, sub.h)  # <h(., .), P>
    if spec.kind == KIND_FIRST:
        l1, l2 = spec.lambda1, spec.lambda2
        c_x = l2 * alpha + l2 * (l1 - l2) * beta
        c_y = l1 * alpha + (l1 - l2) * h_P
    else:
        b, c_x = spec.b, 0.0
        c_y = b * alpha_prime - b ** 2 * np.outer(pi_t, pi_t) + b * h_P
    return np.array([phat, A, B, A - c_x, A - c_y])


def _pair_gauss(sub: SubmanifoldPoint, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Gauss part of R(x, y, y, x): sum_r h_r(x,x) h_r(y,y) - h_r(x,y)^2."""
    left, right = np.stack([X, X, Y])[:, None], np.stack([Y, X, Y])[:, None]
    xy, xx, yy = ((left @ sub.h) * right).sum(axis=-1)
    return (xx * yy - xy ** 2).sum(axis=0)


def _pair_entry(sub: SubmanifoldPoint):
    """(terms, tau_ng), memoized: the term list of ``_pair_terms``, frozen,
    built once per point for both of its readings, and the scalar curvature
    minus its Gauss sum read off it.  tau_ng is half the pair form over the
    ordered frame pairs (e_i, e_j), i != j, T[i, j, j, i] = sum_k P_k,ii
    Q_k,jj + R_k,ij S_k,ij (no tensor built)."""
    def make():
        terms = tuple((_frozen(left), _frozen(right)) for left, right in _pair_terms(sub))
        (P, Q), (R, S) = terms
        frame = (P.diagonal(axis1=1, axis2=2).T @ Q.diagonal(axis1=1, axis2=2)
                 + (R * S).sum(axis=0))
        return terms, 0.5 * float(frame.sum() - np.trace(frame))
    return sub.memo("pair_terms", make)


def _tau_nongauss(sub: SubmanifoldPoint) -> float:
    """Scalar curvature minus its Gauss sum (``_pair_entry``).  E = 2 tau_ng
    is the invariant aggregate with 2 tau - E = n^2 ||H||^2 - ||h||^2."""
    return _pair_entry(sub)[1]


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
    """Evaluate one inequality of the catalog and report its verdict with
    its diagnostics: ``decide`` on the argument the theorem takes (3.1/4.1
    ``plane``, 3.3/4.2 ``X``, 3.4/4.3 ``k``, default n; the others are
    ignored), so the same lhs, rhs, slack and holds bit for bit, the same
    tol rule and the same errors, plus the row's report (``_sides``).  The
    report is built eagerly, before the verdict, so an error in it is
    raised here, never when the report is serialized.
    """
    takes, r, tol = _check_request(sub, theorem_id, tol)
    lhs, rhs, report = _sides(sub, theorem_id, takes, r, {"plane": plane, "X": X, "k": k}.get(takes))
    return _verdict(theorem_id, lhs, rhs, tol, report())


def decide(sub: SubmanifoldPoint, theorem_id: str, value, tol: float) -> VerdictReport:
    """The verdict of one row of ``THEOREMS``, with empty diagnostics.

    ``value`` is the argument the row takes: a ``Plane`` for 3.1/4.1, a
    unit tangent X for 3.3/4.2 and k for 3.4/4.3 (None: n); the Casorati
    rows take none and ignore it.  The sides are ``_sides``'s, and the
    row's report is never built.

    ``tol`` must be a real number, not a bool, finite and >= 0
    (``frames.as_real``), and the report carries it as a Python float; a
    missing plane or X raises ``MissingArgument``, a plane that is not a
    ``frames.Plane`` and a non-finite side ``ValueError`` rather than give
    a verdict.  ``verify`` is this verdict with its report; a fuzz campaign
    reads this one alone.
    """
    takes, r, tol = _check_request(sub, theorem_id, tol)
    return _verdict(theorem_id, *_sides(sub, theorem_id, takes, r, value)[:2], tol, {})


def _sides(sub: SubmanifoldPoint, theorem_id: str, takes: str | None, r, value) -> tuple:
    """(lhs, rhs, report) of a checked request (``_check_request``) at its
    argument ``value`` (see ``decide``): one branch per argument kind, and
    report() builds ``verify``'s diagnostics from the values that branch read.

    3.1/4.1 bound tau - K(plane) and report the plane's invariants and
    whether h matches the equality pattern on it.  The 3.3/4.2 rhs sums the
    pair form over an orthonormal basis of x^perp: for fixed x it is a
    quadratic form in y (its y-free terms count once per unit y), so that
    sum is its trace over e_1..e_n minus its value at y = x, and no basis
    of x^perp is built; the report says whether H, h and h(X, .) vanish.
    For 3.4/4.3 the k-Ricci invariant enters as min(Theta_k estimate,
    Theta_n): Theta_k <= Theta_{k+1}, so both are upper bounds on Theta_k
    in every mode and the smaller one is the sharpest sound value; the
    report gives the estimate, and for a sampled ('multistart') one, only
    an upper bound, the exact chain (trace identity, Cauchy-Schwarz step,
    Theta_n) beside it.

    3.5/4.4 bound 2 tau by delta_C(r; n-1) + E on the certificate: the rhs,
    and so the slack, reads the bounds of ``casorati_bounds``, which lie
    outside the true C(L) extrema, and delta_C(r; n-1) grows with inf C(L)
    below r = n(n-1) and falls with sup C(L) above, so the certified slack
    is never above the true one.  It is a violation only by rounding or a
    fault in the bounds (the proof in ``casorati_bounds``; ``cross_check``
    checks them).  Only the report calls ``casorati``: it adds the inner
    estimate (``inf_CL``, ``sup_CL``, ``delta_c``, ``delta_c_hat`` and
    ``estimate_slack``, the slack at those attained values, never below the
    certified slack beyond rounding), a ``certificate`` block (the bounds
    the rhs read and each bound's gap to the estimate, >= 0) and the
    equality-shape match.
    """
    n, H_sq = sub.n, sub.mean_curvature_sq
    if value is None and takes in ("plane", "X"):
        need = "a plane" if takes == "plane" else "a unit tangent direction X"
        raise MissingArgument(f"{theorem_id} needs {need}")

    if takes == "plane":
        v1, v2 = sub.plane_coords(value)
        k_ng = 0.5 * float(_pair_nongauss(sub, np.stack([v1, v2]), np.stack([v2, v1])).sum())
        lhs = scalar_tau(sub) - float(_sectional_batch(sub, v1[None], v2[None])[0])
        rhs = _tau_nongauss(sub) - k_ng + n ** 2 * (n - 2) / (2.0 * (n - 1)) * H_sq
        return lhs, rhs, lambda: {"plane_invariants": _plane_invariants(sub, v1, v2),
                                  "shape_match": _adapted_block_match(sub, v1, v2)}
    if takes == "X":
        x = sub.tangent_coords(value)
        lhs = _ricci_at(sub, x, theorem_id)  # rejects a non-unit X
        vals = _pair_nongauss(sub, np.broadcast_to(x, (n + 1, n)), np.vstack([np.eye(n), x]))
        rhs = float(vals[:n].sum() - vals[n]) + n ** 2 / 4.0 * H_sq
        return lhs, rhs, lambda: {"H_zero": bool(H_sq < 1e-20),
                                  "X_in_kernel": bool(_kernel_residual(sub, x) < 1e-10),
                                  "h_zero": bool(np.abs(sub.h).max() < 1e-12)}
    if takes == "k":
        E = 2.0 * _tau_nongauss(sub)
        k = n if value is None else _checked_k(sub, value)
        try:   # k passed, so what raises here is overflowing curvature data
            est = theta_k(sub, k)
            exact = est if k == n else theta_k(sub, n)
        except ValueError as exc:
            raise ValueError(f"{theorem_id}: {exc}") from None

        def report():
            diag = {"theta_mode": est.mode, "theta_value": est.value, "k": int(k),
                    "theta_samples": est.samples}
            if est.mode == "multistart":
                diag["identity_residual"], diag["cauchy_schwarz_slack"] = _trace_chain(sub, E)
                diag["theta_exact_k_n"] = exact.value
                diag["theta_advisory"] = est.value
            return diag
        return n * (n - 1) * min(est.value, exact.value) - E, n * (n - 1) * H_sq, report

    lhs, (lo, hi) = 2.0 * scalar_tau(sub), casorati_bounds(sub)

    def report():
        cas = casorati(sub)
        return {**cas.as_dict(),
                "estimate_slack": _casorati_rhs(sub, r, cas.inf_CL, cas.sup_CL) - lhs,
                "certificate": {"inf_CL": lo, "sup_CL": hi,
                                "inf_gap": cas.inf_CL - lo, "sup_gap": hi - cas.sup_CL},
                "shape_match": _quasi_umbilical_match(sub, r * n * (n - 1))}
    return lhs, _casorati_rhs(sub, r, lo, hi), report


def _casorati_rhs(sub: SubmanifoldPoint, r: float, inf_CL: float, sup_CL: float) -> float:
    """delta_C(r n(n-1); n-1) + E, r a row's ratio, with the given C(L) extrema."""
    n, E = sub.n, 2.0 * _tau_nongauss(sub)
    return delta_casorati(n, r * n * (n - 1), sub.h_norm_sq / n, inf_CL, sup_CL) + E


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

    Checked in the eigenbasis of the shape operator of largest Frobenius
    norm, whichever normal direction carries it: the eigenvalues are
    ``_casorati_equality`` up to order, the remaining operators zero.
    Heuristic (a suitable frame may exist elsewhere); used for reporting only.
    """
    h = sub.h
    shape = int(np.einsum("rab,rab->r", h, h).argmax())   # squared Frobenius norms
    rest = np.abs(h).max(axis=(1, 2))
    rest[shape] = 0.0   # only the other slices must vanish
    if rest.max() > _SHAPE_TOL:
        return False
    w = np.sort(np.linalg.eigvalsh(h[shape]))
    if np.abs(w).max() < _SHAPE_TOL:
        return True
    tol = _SHAPE_TOL * (1 + np.abs(w).max())
    # when the other n - 1 agree, the lone one is first or last in sorted order
    return any(np.abs(a - a[0]).max() < tol
               and abs(lone - _casorati_equality(len(w), r, a[0])[-1]) < tol
               for a, lone in ((w[1:], w[0]), (w[:-1], w[-1])))


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

    def failures(self) -> dict:
        """Each residual not below ``CROSS_TOL`` (a NaN included) by name,
        and ``cauchy_schwarz_slack`` when that slack is not above -1e-8."""
        failed = {name: value for name, value in self.residuals.items() if not value < CROSS_TOL}
        if not self.cauchy_schwarz_slack > -_Q_TOL:
            failed["cauchy_schwarz_slack"] = self.cauchy_schwarz_slack
        return failed

    def ok(self) -> bool:
        """No ``failures``, and Q above -1e-8."""
        return not self.failures() and self.q_min > -_Q_TOL


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
    """Compare the paper's closed forms with the raw tensor pipeline, and
    check the Casorati certificate.

    Residuals: ``R_pair``, the paper's R(x, y, y, x) (``_pair_nongauss``
    plus ``_pair_gauss``) against raw ``riem`` on every pair row of
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
    h_sq = sub.h_norm_sq
    res["tau_formulas"] = abs(tau_k - tau_double)
    res["trace_identity"], cauchy_schwarz = _trace_chain(sub, 2.0 * _tau_nongauss(sub))

    quartic, (lo, hi) = _Quartic.of(sub), casorati_bounds(sub)
    lo, hi = (n - 1) * lo, (n - 1) * hi   # the certified inf F and sup F
    sup_sum = quartic.h_sq - float((quartic.lam[1:] ** 2).min(axis=1).sum())
    # each max starts with a term in a bound, so that a NaN bound comes out
    res["casorati_floor"] = max(float(quartic.inf_r.sum()) - lo, hi - sup_sum, 0.0) / (1.0 + h_sq)
    F = quartic.F   # F at the decomposition's directions U
    res["casorati_bracket"] = max(lo - float(F.min()), float(F.max()) - hi, 0.0) / (1.0 + h_sq)

    r = next(r for _, _, r in THEOREMS.values() if r is not None)   # the first Casorati row, 3.5i
    return CrossCheckReport(
        residuals=res,
        q_min=_casorati_rhs(sub, r, *casorati_bounds(sub)) - 2.0 * tau_k,
        cauchy_schwarz_slack=cauchy_schwarz,
    )


def _trace_chain(sub: SubmanifoldPoint, E: float) -> tuple[float, float]:
    """|2 tau - E - (n^2 ||H||^2 - ||h||^2)|, the trace identity's residual, and
    the Cauchy-Schwarz slack ||h||^2 - n ||H||^2: the exact chain that
    ``verify`` reports beside a sampled Theta_k and ``cross_check`` checks."""
    n, H_sq, h_sq = sub.n, sub.mean_curvature_sq, sub.h_norm_sq
    return abs(2.0 * scalar_tau(sub) - E - (n ** 2 * H_sq - h_sq)), h_sq - n * H_sq


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

    ``params`` must be a mapping, ``n`` an integer >= 3 and ``seed`` one
    >= 0 (numpy's included, a bool not), and each parameter a finite real
    number (``frames.as_integer``, ``as_real``); anything else, an unknown
    case or parameter included, raises ValueError before any array is built.
    """
    if not isinstance(params, Mapping):
        raise ValueError(f"params must be a mapping of parameter names, got {params!r}")
    params = dict(params)
    if case not in EQUALITY_THEOREM:
        raise ValueError(f"unknown equality case {case!r}")
    n, seed = as_integer(n, "n", 3), as_integer(seed, "seed", 0)

    def param(key, default):
        return as_real(params.pop(key, default), f"parameter {key!r}", -np.inf)

    m = max(2, (n + 2) // 2)
    d = 2 * m + 1
    p = d - n
    hhat = np.zeros((p, n, n))
    if case == "cor32":
        h11, h22 = param("h11", 1.0), param("h22", 1.0)
        b1, b2 = param("b1", 0.0), param("b2", 0.0)
        diag = np.full(n, h11 + h22)
        diag[0], diag[1] = h11, h22
        hhat[0] = np.diag(diag)
        if p > 1:
            hhat[1, 0, 0], hhat[1, 1, 1] = b1, -b1
            hhat[1, 0, 1] = hhat[1, 1, 0] = b2
    else:
        r = THEOREMS[EQUALITY_THEOREM[case]][2] * n * (n - 1)
        a = param("a", 1.0) * max(1.0, r / (n * (n - 1)))
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
