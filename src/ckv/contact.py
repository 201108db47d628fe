"""Pointwise model of a (kappa,mu)-contact space form.

A model is the algebraic data at one point of a (2m+1)-dimensional ambient
space: the structure operator phi, the Reeb direction xi (with eta = <xi, .>),
the symmetric operator h' that anticommutes with phi, and the three curvature
parameters kappa, mu, c.  The Levi-Civita curvature of such a space is a
closed 4-linear form in these data; ``curvature_lc`` evaluates it literally,
term group by term group, so each group can be unit-tested in isolation.

h' is treated as free algebraic data constrained only by the pointwise
identities (symmetry, h'xi = 0, anticommutation with phi, vanishing traces).
The quadratic identity h'^2 = (kappa-1)phi^2 satisfied by genuine structures
is available in the generator behind the ``strict_kmu`` flag but is not
enforced, since none of the verified inequalities depend on it.  A strict h'
is sqrt(1-kappa) times a symmetric involution of ker(eta) that anticommutes
with phi; phi swaps its +1 and -1 eigenspaces, so in a basis (u_i, phi u_i)
every such involution is diag(I_m, -I_m, 0), and the generator draws it as
that canonical J rotated by the same orthogonal map that rotates phi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .frames import as_array, as_bool, as_integer, as_real

__all__ = [
    "ContactPointModel",
    "StructureCheck",
    "ValidationReport",
    "validate_structure",
    "standard_point",
    "random_point",
    "curvature_lc",
]


@dataclass(frozen=True)
class ContactPointModel:
    """Structure data at a point: (phi, xi, h') plus (kappa, mu, c).

    Each field is checked at construction and stored as checked: m by
    ``_dimension`` (a Python int), the arrays by ``frames.as_array`` and
    kappa, mu_contact and c by ``frames.as_real`` (finite Python floats).
    """

    m: int
    phi: np.ndarray
    xi: np.ndarray
    hprime: np.ndarray
    kappa: float
    mu_contact: float
    c: float

    def __post_init__(self):
        d = _dimension(self.m)
        object.__setattr__(self, "m", d // 2)   # the checked int
        for name, shape in (("phi", (d, d)), ("xi", (d,)), ("hprime", (d, d))):
            arr = as_array(getattr(self, name), name, shape)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        for name in ("kappa", "mu_contact", "c"):
            object.__setattr__(self, name, as_real(getattr(self, name), name, -np.inf))

    @property
    def dim(self) -> int:
        return 2 * self.m + 1


def _dimension(m) -> int:
    """2m + 1 for an integer m >= 1 (``frames.as_integer``); DimensionMismatch
    for any other m."""
    try:
        return 2 * as_integer(m, "m", 1) + 1
    except ValueError as exc:
        raise DimensionMismatch(str(exc)) from None


@dataclass(frozen=True)
class StructureCheck:
    name: str
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[StructureCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _structure_residuals(model: ContactPointModel) -> dict[str, float]:
    phi, xi, hp = model.phi, model.xi, model.hprime
    d = model.dim
    eye = np.eye(d)
    return {
        "phi_squared": float(np.abs(phi @ phi + eye - np.outer(xi, xi)).max()),
        "eta_xi": abs(float(xi @ xi) - 1.0),
        "phi_xi": float(np.abs(phi @ xi).max()),
        "eta_phi": float(np.abs(xi @ phi).max()),
        "phi_skew": float(np.abs(phi + phi.T).max()),
        "hprime_symmetric": float(np.abs(hp - hp.T).max()),
        "hprime_xi": float(np.abs(hp @ xi).max()),
        "hprime_phi_anticommute": float(np.abs(hp @ phi + phi @ hp).max()),
        "trace_hprime": abs(float(np.trace(hp))),
        "trace_phi_hprime": abs(float(np.trace(phi @ hp))),
    }


def validate_structure(model: ContactPointModel, tol: float = 1e-10) -> ValidationReport:
    """Check every structure axiom, one report entry per axiom.  ``tol`` must
    be a finite number >= 0 (``frames.as_real``), else ValueError."""
    tol = as_real(tol, "tol", 0.0)
    checks = tuple(
        StructureCheck(name, res, res <= tol)
        for name, res in _structure_residuals(model).items()
    )
    return ValidationReport(checks)


def _canonical(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The canonical phi, xi and h'-shape J in dimension 2m + 1: xi is the
    last basis vector, phi the block rotation e_i -> e_{m+i}, e_{m+i} -> -e_i,
    and J = diag(I_m, -I_m, 0), a symmetric involution of ker(eta) that
    anticommutes with phi."""
    d = _dimension(m)
    phi, J = np.zeros((d, d)), np.zeros((d, d))
    for i in range(m):
        phi[m + i, i], phi[i, m + i] = 1.0, -1.0
        J[i, i], J[m + i, m + i] = 1.0, -1.0
    xi = np.zeros(d)
    xi[-1] = 1.0
    return phi, xi, J


def standard_point(m: int) -> ContactPointModel:
    """Canonical structure: the phi and xi of ``_canonical``, h' = 0,
    kappa = 1, mu = 0, c = 1."""
    phi, xi, _ = _canonical(m)
    return ContactPointModel(
        m=m, phi=phi, xi=xi, hprime=np.zeros_like(phi),
        kappa=1.0, mu_contact=0.0, c=1.0,
    )


def random_point(
    m: int,
    kappa: float,
    mu_contact: float,
    c: float,
    seed: int,
    hprime_scale: float,
    strict_kmu: bool = False,
) -> ContactPointModel:
    """Seeded random structure satisfying all the pointwise axioms.

    Starts from the canonical structure and conjugates phi by a random
    orthogonal map Q fixing xi.  h' is built as (T + phi T phi)/2 from a
    random symmetric T with T xi = 0, which is automatically symmetric, kills
    xi, anticommutes with phi, and is trace-free; it is then scaled by
    ``hprime_scale``.

    With ``strict_kmu`` the quadratic identity h'^2 = (kappa-1)phi^2 is
    enforced: h' = sqrt(1-kappa) Q J Q^T, with J of ``_canonical`` and the
    same Q, and no T is drawn, so ``hprime_scale`` is checked but unused.
    This is every strict h' up to the choice of Q: a symmetric involution of
    ker(eta) that anticommutes with phi has +1 and -1 eigenspaces that phi
    swaps, so in a basis (u_i, phi u_i) it is J.  Requires kappa <= 1;
    kappa = 1 gives h' = 0.  ``seed`` must be an integer >= 0, ``kappa`` and
    ``hprime_scale`` finite numbers and ``strict_kmu`` a bool (``frames``),
    else ValueError.
    """
    seed = as_integer(seed, "seed", 0)
    kappa = as_real(kappa, "kappa", -np.inf)
    hprime_scale = as_real(hprime_scale, "hprime_scale", -np.inf)
    strict_kmu = as_bool(strict_kmu, "strict_kmu")
    if strict_kmu and kappa > 1.0:
        raise ValueError("strict_kmu requires kappa <= 1")
    phi, xi, J = _canonical(m)
    d = len(xi)
    rng = np.random.default_rng(seed)

    # Orthogonal map on the 2m-dimensional complement of xi; determinant free.
    block = np.linalg.qr(rng.standard_normal((d - 1, d - 1)))[0]
    Q = np.eye(d)
    Q[: d - 1, : d - 1] = block
    phi = Q @ phi @ Q.T

    if strict_kmu:
        hp = np.sqrt(1.0 - kappa) * (Q @ J @ Q.T)
    else:
        T = rng.standard_normal((d, d))
        T = (T + T.T) / 2.0
        T[-1, :] = 0.0
        T[:, -1] = 0.0
        T = Q @ T @ Q.T  # keeps T xi = 0 since Q fixes xi
        hp = hprime_scale * (T + phi @ T @ phi) / 2.0

    return ContactPointModel(
        m=m, phi=phi, xi=xi, hprime=hp,
        kappa=kappa, mu_contact=mu_contact, c=c,
    )


def _curvature_lc_groups(model: ContactPointModel, X, Y, Z, W) -> tuple[float, ...]:
    """The six term groups of the closed-form Levi-Civita curvature.

    Order: constant-curvature block, eta block, phi block, quadratic h'/phi h'
    block (coefficient 1/2), linear h' block (unit coefficients), mu block.
    """
    d = model.dim
    X, Y, Z, W = (as_array(V, name, (d,)) for V, name in zip((X, Y, Z, W), "XYZW"))
    phi, xi, hp = model.phi, model.xi, model.hprime
    c, kappa, mu = model.c, model.kappa, model.mu_contact

    ex, ey, ez, ew = xi @ X, xi @ Y, xi @ Z, xi @ W
    phiX, phiY, phiZ = phi @ X, phi @ Y, phi @ Z
    hpX, hpY = hp @ X, hp @ Y
    phpX, phpY = phi @ hpX, phi @ hpY

    g1 = (c + 3.0) / 4.0 * ((Y @ Z) * (X @ W) - (X @ Z) * (Y @ W))
    g2 = (c + 3.0 - 4.0 * kappa) / 4.0 * (
        ex * ez * (Y @ W) - ey * ez * (X @ W)
        + (X @ Z) * ey * ew - (Y @ Z) * ex * ew
    )
    g3 = (c - 1.0) / 4.0 * (
        2.0 * (X @ phiY) * (phiZ @ W)
        + (X @ phiZ) * (phiY @ W)
        - (Y @ phiZ) * (phiX @ W)
    )
    g4 = 0.5 * (
        (hpY @ Z) * (hpX @ W) - (hpX @ Z) * (hpY @ W)
        + (phpX @ Z) * (phpY @ W) - (phpY @ Z) * (phpX @ W)
    )
    g5 = (
        -(X @ Z) * (hpY @ W) + (Y @ Z) * (hpX @ W)
        + ex * ez * (hpY @ W) - ey * ez * (hpX @ W)
        - (hpX @ Z) * (Y @ W) + (hpY @ Z) * (X @ W)
        - (hpY @ Z) * ex * ew + (hpX @ Z) * ey * ew
    )
    g6 = mu * (
        ey * ez * (hpX @ W) - ex * ez * (hpY @ W)
        + (hpY @ Z) * ex * ew - (hpX @ Z) * ey * ew
    )
    return g1, g2, g3, g4, g5, g6


def curvature_lc(model: ContactPointModel, X, Y, Z, W) -> float:
    """Levi-Civita curvature <R(X,Y)Z, W> of the space form at the point.

    Quadrilinear in its four arguments; antisymmetric in (X, Y) and in (Z, W).
    For unit X orthogonal to xi and h' = 0, the value on (X, phi X, phi X, X)
    is the constant c.
    """
    return float(sum(_curvature_lc_groups(model, X, Y, Z, W)))
