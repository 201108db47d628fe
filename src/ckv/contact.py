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
enforced, since none of the verified inequalities depend on it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch
from .frames import as_matrix, as_vector

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
    """Structure data at a point: (phi, xi, h') plus (kappa, mu, c)."""

    m: int
    phi: np.ndarray
    xi: np.ndarray
    hprime: np.ndarray
    kappa: float
    mu_contact: float
    c: float

    def __post_init__(self):
        if self.m < 1:
            raise DimensionMismatch(f"m must be >= 1, got {self.m}")
        d = 2 * self.m + 1
        phi = as_matrix(self.phi, d, "phi")
        xi = as_vector(self.xi, d, "xi")
        hprime = as_matrix(self.hprime, d, "hprime")
        for arr in (phi, xi, hprime):
            arr.setflags(write=False)
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "xi", xi)
        object.__setattr__(self, "hprime", hprime)

    @property
    def dim(self) -> int:
        return 2 * self.m + 1

    def eta(self, X) -> float:
        """eta(X) = <xi, X>."""
        return float(np.dot(self.xi, X))


@dataclass(frozen=True)
class StructureCheck:
    name: str
    max_residual: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[StructureCheck, ...]
    tolerance: float

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def residual(self, name: str) -> float:
        for c in self.checks:
            if c.name == name:
                return c.max_residual
        raise KeyError(name)


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
    """Check every structure axiom, one report entry per axiom."""
    checks = tuple(
        StructureCheck(name, res, res < tol)
        for name, res in _structure_residuals(model).items()
    )
    return ValidationReport(checks, tol)


def standard_point(m: int, c: float = 1.0) -> ContactPointModel:
    """Canonical structure: xi is the last basis vector, phi the block rotation
    e_i -> e_{m+i}, e_{m+i} -> -e_i, h' = 0, kappa = 1, mu = 0."""
    d = 2 * m + 1
    phi = np.zeros((d, d))
    for i in range(m):
        phi[m + i, i] = 1.0
        phi[i, m + i] = -1.0
    xi = np.zeros(d)
    xi[-1] = 1.0
    return ContactPointModel(
        m=m, phi=phi, xi=xi, hprime=np.zeros((d, d)),
        kappa=1.0, mu_contact=0.0, c=c,
    )


def _canonical_involution(m: int) -> np.ndarray:
    """diag(I_m, -I_m, 0): symmetric, anticommutes with the standard phi,
    squares to the identity on the kernel of eta."""
    d = 2 * m + 1
    J = np.zeros((d, d))
    J[:m, :m] = np.eye(m)
    J[m:2 * m, m:2 * m] = -np.eye(m)
    return J


def random_point(
    m: int,
    kappa: float,
    mu_contact: float,
    c: float,
    seed: int,
    hprime_scale: float = 1.0,
    strict_kmu: bool = False,
) -> ContactPointModel:
    """Seeded random structure satisfying all the pointwise axioms.

    Starts from the canonical structure and conjugates phi by a random
    orthogonal map fixing xi.  h' is built as (T + phi T phi)/2 from a random
    symmetric T with T xi = 0, which is automatically symmetric, kills xi,
    anticommutes with phi, and is trace-free; it is then scaled by
    ``hprime_scale``.

    With ``strict_kmu`` the quadratic identity h'^2 = (kappa-1)phi^2 is
    enforced: h' is replaced by sqrt(1-kappa) times a symmetric involution of
    the kernel of eta (the polar factor of the random h', falling back to the
    conjugated canonical involution when that is ill-conditioned).  Requires
    kappa <= 1; kappa = 1 forces h' = 0.
    """
    if strict_kmu and kappa > 1.0:
        raise ValueError("strict_kmu requires kappa <= 1")
    d = 2 * m + 1
    rng = np.random.default_rng(seed)
    base = standard_point(m, c)

    # Orthogonal map on the 2m-dimensional complement of xi; determinant free.
    block = np.linalg.qr(rng.standard_normal((2 * m, 2 * m)))[0]
    Q = np.eye(d)
    Q[: 2 * m, : 2 * m] = block
    phi = Q @ base.phi @ Q.T
    xi = base.xi.copy()

    T = rng.standard_normal((d, d))
    T = (T + T.T) / 2.0
    T[-1, :] = 0.0
    T[:, -1] = 0.0
    T = Q @ T @ Q.T  # keeps T xi = 0 since Q fixes xi
    hp = hprime_scale * (T + phi @ T @ phi) / 2.0

    if strict_kmu:
        if kappa == 1.0:
            hp = np.zeros((d, d))
        else:
            hp = np.sqrt(1.0 - kappa) * _involution_like(hp, Q, m)

    return ContactPointModel(
        m=m, phi=phi, xi=xi, hprime=hp,
        kappa=kappa, mu_contact=mu_contact, c=c,
    )


def _involution_like(hp: np.ndarray, Q: np.ndarray, m: int) -> np.ndarray:
    """Symmetric involution of ker(eta) aligned with ``hp`` when possible.

    The polar factor hp (hp^2)^(-1/2) inherits symmetry and the phi
    anticommutation from hp; it degenerates when hp is near-singular on
    ker(eta), in which case the conjugated canonical involution is used.
    """
    d = 2 * m + 1
    w, V = np.linalg.eigh(hp)
    # hp annihilates xi, so exactly one eigenvalue is ~0 for generic hp on ker eta.
    nonzero = np.abs(w) > 1e-6 * max(1.0, np.abs(w).max())
    if nonzero.sum() == 2 * m:
        signs = np.where(nonzero, np.sign(w), 0.0)
        return (V * signs) @ V.T
    return Q @ _canonical_involution(m) @ Q.T


def _curvature_lc_groups(model: ContactPointModel, X, Y, Z, W) -> tuple[float, ...]:
    """The six term groups of the closed-form Levi-Civita curvature.

    Order: constant-curvature block, eta block, phi block, quadratic h'/phi h'
    block (coefficient 1/2), linear h' block (unit coefficients), mu block.
    """
    d = model.dim
    X = as_vector(X, d, "X")
    Y = as_vector(Y, d, "Y")
    Z = as_vector(Z, d, "Z")
    W = as_vector(W, d, "W")
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
