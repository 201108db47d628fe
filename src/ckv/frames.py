"""Small dense linear algebra on orthonormal frames.

Everything in this package stores tensors as component arrays in a fixed
orthonormal frame, so the metric is the identity and inner products are plain
dot products.  This module provides the validators every input goes through,
one for arrays (``as_array``) and one each for integer, real and boolean
scalars (``as_integer``, ``as_real``, ``as_bool``), and the frame-level
primitives: Gram-Schmidt orthonormalization with a rank guard, completion of
a frame to a full basis, and ordered orthonormal 2-plane bases.  The
completion projects every standard basis vector off the frame F in one
product, (I - F^T F), and orthogonalizes only those that survive against each
other, then off F again.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, RankDeficient


def as_array(value, name: str, shape: tuple) -> np.ndarray:
    """Copy to a finite float array of ``shape``, where a None entry takes any
    length.  A wrong shape raises DimensionMismatch; an entry that is not a
    finite number (a string or a bool, even one numpy would convert, a ragged
    list, an integer beyond the float range, NaN) raises ValueError; both
    messages open with ``name``.

    Always copies, so freezing the result never touches caller-owned arrays.
    """
    try:
        arr = np.array(value, dtype=float)
    except OverflowError:   # an integer beyond the float range
        raise ValueError(f"{name}: entries must be finite") from None
    except (TypeError, ValueError):
        raise ValueError(f"{name}: expected an array of numbers") from None
    if arr.shape != shape and (arr.ndim != len(shape) or any(
            want is not None and got != want for got, want in zip(arr.shape, shape))):
        raise DimensionMismatch(
            f"{name}: expected shape {str(shape).replace('None', 'any')}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name}: entries must be finite")
    if isinstance(value, np.ndarray) and value.dtype.kind in "fiu":
        return arr   # a numeric dtype holds no string or bool
    entries = value   # nested as regularly as its shape, which it has
    for _ in shape[1:]:
        entries = itertools.chain.from_iterable(entries)
    kinds = set(map(type, entries))
    for label, types in (("str", (str, bytes)), ("bool", (bool, np.bool_))):
        if any(issubclass(kind, types) for kind in kinds):
            raise ValueError(f"{name}: expected a number, got {label}")
    return arr


def as_integer(value, name: str, low: int) -> int:
    """``value`` as a Python int: an integer, numpy's included but not a
    bool, that is >= ``low``.  Anything else raises ValueError opening with
    ``name``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= low:
        return int(value)
    raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def as_real(value, name: str, low: float) -> float:
    """``value`` as a Python float: a real number (Python's or numpy's), not a
    bool, whose float is finite and >= ``low`` (``-math.inf`` takes any finite number).  Anything
    else, an integer beyond the float range included, raises ValueError
    opening with ``name``."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:   # an integer beyond the float range
            number = math.inf
        if math.isfinite(number) and number >= low:
            return number
    bound = "" if low == -math.inf else f" >= {low:g}"
    raise ValueError(f"{name} must be a finite number{bound}, got {value!r}")


def as_bool(value, name: str) -> bool:
    """``value`` as a Python bool: a bool, numpy's included.  Anything else,
    a truthy string or integer included, raises ValueError opening with
    ``name``."""
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    raise ValueError(f"{name} must be True or False, got {value!r}")


def orthonormalize(vectors) -> np.ndarray:
    """Orthonormalize a linearly independent family, preserving order and span.

    Modified Gram-Schmidt with one re-orthogonalization pass.  The first vector
    keeps its direction, so already-orthogonal inputs only get normalized.

    Raises RankDeficient when the numerical rank (singular values relative to
    the largest, cut at 1e-10) falls below the family size.
    """
    V = as_array(np.atleast_2d(vectors), "orthonormalize", (None, None))
    if V.size == 0:
        return V.reshape(0, 0)
    k, d = V.shape
    if k > d:
        raise RankDeficient(f"{k} vectors cannot be independent in dimension {d}")
    sv = np.linalg.svd(V, compute_uv=False)
    if sv[-1] < 1e-10 * sv[0]:
        raise RankDeficient(f"numerical rank below {k} "
                            f"(smallest/largest singular value {sv[-1] / sv[0]:.3e})")
    out = V.copy()
    rows = list(out)  # views: updating a row updates out
    for i, v in enumerate(rows):
        for _ in range(2):  # second pass kills rounding residue
            for b in rows[:i]:
                v -= np.dot(v, b) * b
        v /= np.sqrt(v @ v)
    return out


def complete_frame(frame: np.ndarray) -> np.ndarray:
    """Orthonormal basis, shape (d - k, d), of the complement of k orthonormal
    ``frame`` rows.  In index order, each standard basis vector projected off
    the frame is taken if it keeps a norm above 1e-6 once orthogonalized
    against those taken before; so coordinate frames complete to the exact
    remaining coordinate vectors, which keeps scenario files readable."""
    frame = np.atleast_2d(np.asarray(frame, dtype=float))
    k, d = frame.shape
    cands = np.eye(d) - frame.T @ frame
    extra = []
    for cand in cands:
        if len(extra) == d - k:
            break
        for _ in range(2):
            for b in extra:
                cand -= np.dot(cand, b) * b
        norm = np.sqrt(cand @ cand)
        if norm > 1e-6:
            extra.append(cand / norm)
    if len(extra) != d - k:
        raise RankDeficient("could not complete frame to a full basis")
    extra = np.array(extra).reshape(d - k, d)
    return extra - (extra @ frame.T) @ frame  # second pass kills rounding residue


@dataclass(frozen=True)
class Plane:
    """Ordered orthonormal pair spanning a 2-plane."""

    e1: np.ndarray
    e2: np.ndarray

    def __post_init__(self):
        e1 = as_array(self.e1, "plane.e1", (None,))
        e2 = as_array(self.e2, "plane.e2", e1.shape)
        if abs(np.sqrt(e1 @ e1) - 1.0) > 1e-12 or abs(np.sqrt(e2 @ e2) - 1.0) > 1e-12:
            raise ValueError("plane basis vectors must be unit to 1e-12")
        if abs(np.dot(e1, e2)) > 1e-12:
            raise ValueError("plane basis vectors must be orthogonal to 1e-12")
        object.__setattr__(self, "e1", e1)
        object.__setattr__(self, "e2", e2)
