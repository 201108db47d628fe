"""The two generalized semi-symmetric non-metric connections at a point.

Both connections are deformations of the Levi-Civita connection driven by a
vector field P (through the 1-form pi = <P, .>) and by the value D of the
covariant derivative of pi at the point.  D is independent input rather than
something derived from P: at a single point the derivative is unconstrained
by P's value, and every verified inequality treats it as given tensor data.

Kind 1 deforms by lambda1 * pi(Y) X - lambda2 * g(X,Y) P; lambda1 = lambda2 = 1
recovers the semi-symmetric metric connection, lambda1 = 1, lambda2 = 0 the
semi-symmetric non-metric one.  Kind 2 deforms by a * pi(X) Y + b * pi(Y) X.
Both are one difference tensor (``difference_tensor``); the paper's printed
curvature is ``correction_tensors`` and ``ambient_curvature``.

Naming note: both the contact parameter mu and the trace of the correction
tensor beta are conventionally called mu; here the former is ``mu_contact``
on the model, and the latter is only ever taken as a trace of ``beta``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

from .contact import ContactPointModel, curvature_lc
from .errors import DimensionMismatch
from .frames import as_array, as_integer, as_real

__all__ = [
    "PARAMETERS",
    "ConnectionSpec",
    "first_connection",
    "second_connection",
    "CorrectionTensors",
    "correction_tensors",
    "difference_tensor",
    "ambient_curvature",
]

KIND_FIRST = 1
KIND_SECOND = 2
# the parameter names of each connection kind, as fields of ``ConnectionSpec``
# and keys of a scenario's connection block
PARAMETERS = {KIND_FIRST: ("lambda1", "lambda2"), KIND_SECOND: ("a", "b")}


@dataclass(frozen=True)
class ConnectionSpec:
    """Connection parameters plus the pointwise data P and D = grad(pi).

    The parameters ``PARAMETERS[kind]`` are set, those of the other kind are
    None: (lambda1, lambda2) for kind 1, (a, b) for kind 2.  The kind is
    stored as checked by ``_kind``, and the kind's parameters as the finite
    Python floats of ``frames.as_real``.
    """

    kind: int
    P: np.ndarray
    D: np.ndarray
    lambda1: float | None = None
    lambda2: float | None = None
    a: float | None = None
    b: float | None = None

    def __post_init__(self):
        P = as_array(self.P, "P", (None,))
        D = as_array(self.D, "D", P.shape * 2)
        P.setflags(write=False)
        D.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "kind", _kind(self.kind))
        names = PARAMETERS[self.kind]
        for name in names:
            if getattr(self, name) is None:
                raise ValueError(f"kind-{self.kind} connection needs {' and '.join(names)}")
            object.__setattr__(self, name, as_real(getattr(self, name), name, -np.inf))
        for other in PARAMETERS.values():
            for name in other:
                if other is not names and getattr(self, name) is not None:
                    raise ValueError(f"kind-{self.kind} connection must not carry "
                                     f"({', '.join(other)})")

    @property
    def parameters(self) -> dict[str, float]:
        """The kind's parameters by name, in ``PARAMETERS`` order."""
        return {name: getattr(self, name) for name in PARAMETERS[self.kind]}

    @property
    def dim(self) -> int:
        return self.P.shape[0]

    def pi(self, X) -> float:
        """pi(X) = <P, X>."""
        return float(np.dot(self.P, X))


def _kind(value) -> int:
    """``value`` as a key of ``PARAMETERS``: an integer (``frames.as_integer``,
    so not a bool or a float) that is 1 or 2, else ValueError."""
    with contextlib.suppress(ValueError):
        if (kind := as_integer(value, "connection kind", KIND_FIRST)) in PARAMETERS:
            return kind
    raise ValueError(f"connection kind must be 1 or 2, got {value}")


def first_connection(lambda1: float, lambda2: float, P, D) -> ConnectionSpec:
    return ConnectionSpec(kind=KIND_FIRST, P=P, D=D, lambda1=lambda1, lambda2=lambda2)


def second_connection(a: float, b: float, P, D) -> ConnectionSpec:
    return ConnectionSpec(kind=KIND_SECOND, P=P, D=D, a=a, b=b)


@dataclass(frozen=True)
class CorrectionTensors:
    """The (0,2) correction tensors of the first connection.

    alpha(X,Y) = D(X,Y) - lambda1 pi(X) pi(Y) + (lambda2/2) g(X,Y) pi(P)
    beta(X,Y)  = (pi(P)/2) g(X,Y) + pi(X) pi(Y)

    For a kind-2 spec the lambda terms are absent, so alpha degenerates to D
    (the kind-2 tensor alpha' is D itself, ``ConnectionSpec.D``).  The
    inequality assembler restricts the matrices to the submanifold frame.
    """

    alpha: np.ndarray
    beta: np.ndarray


def correction_tensors(spec: ConnectionSpec) -> CorrectionTensors:
    d = spec.dim
    P, D = spec.P, spec.D
    pi_P, PP, I = float(P @ P), np.outer(P, P), np.eye(d)
    l1 = spec.lambda1 if spec.kind == KIND_FIRST else 0.0
    l2 = spec.lambda2 if spec.kind == KIND_FIRST else 0.0
    alpha = D - l1 * PP + (l2 / 2.0) * pi_P * I
    beta = (pi_P / 2.0) * I + PP
    return CorrectionTensors(alpha=alpha, beta=beta)


def difference_tensor(spec: ConnectionSpec, v: np.ndarray) -> np.ndarray:
    """<Delta(f_i, f_j), f_k>, Delta = nabla~ - (Levi-Civita), in an
    orthonormal frame f with v[i] = pi(f_i), shape (..., m) -> (..., m, m, m).

    Delta(X, Y) = s pi(Y) X + t pi(X) Y - u g(X, Y) P with (s, t, u) =
    (lambda1, 0, lambda2) for kind 1 and (b, a, 0) for kind 2.  As nabla_X pi
    = D(X, .), rows v[a] = D(f_a, f_i) give <(nabla_{f_a} Delta)(f_i, f_j), f_k>.
    """
    s, t, u = ((spec.lambda1, 0.0, spec.lambda2) if spec.kind == KIND_FIRST
               else (spec.b, spec.a, 0.0))
    I = np.eye(v.shape[-1])
    return (s * v[..., None, :, None] * I[:, None, :] + t * v[..., :, None, None] * I
            - u * I[:, :, None] * v[..., None, None, :])


def ambient_curvature(model: ContactPointModel, spec: ConnectionSpec, X, Y, Z, W) -> float:
    """Curvature <R(X,Y)Z, W> of the chosen connection on the ambient space.

    Reference evaluation on arbitrary ambient vectors: the Levi-Civita value
    plus the correction terms of the chosen kind.  With all connection
    parameters zero this is exactly ``curvature_lc``.
    """
    d = model.dim
    if spec.dim != d:
        raise DimensionMismatch(f"connection dimension {spec.dim} != ambient {d}")
    X, Y, Z, W = (as_array(V, name, (d,)) for V, name in zip((X, Y, Z, W), "XYZW"))
    base = curvature_lc(model, X, Y, Z, W)

    if spec.kind == KIND_FIRST:
        ct = correction_tensors(spec)
        l1, l2 = spec.lambda1, spec.lambda2
        al = lambda u, v: float(u @ ct.alpha @ v)
        be = lambda u, v: float(u @ ct.beta @ v)
        return base + (
            l1 * al(X, Z) * (Y @ W) - l1 * al(Y, Z) * (X @ W)
            + l2 * (X @ Z) * al(Y, W) - l2 * (Y @ Z) * al(X, W)
            + l2 * (l1 - l2) * ((X @ Z) * be(Y, W) - (Y @ Z) * be(X, W))
        )

    a, b = spec.a, spec.b
    ap = lambda u, v: float(u @ spec.D @ v)
    piX, piY, piZ = spec.pi(X), spec.pi(Y), spec.pi(Z)
    return base + (
        -a * ap(Y, X) * (Z @ W) + a * ap(X, Y) * (Z @ W)
        - b * ap(Y, Z) * (X @ W) + b * ap(X, Z) * (Y @ W)
        + b * b * piY * piZ * (X @ W) - b * b * piX * piZ * (Y @ W)
    )
