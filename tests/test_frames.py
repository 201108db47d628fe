import math

import numpy as np
import pytest

from ckv.connections import ConnectionSpec, ambient_curvature, first_connection
from ckv.contact import ContactPointModel, curvature_lc, standard_point
from ckv.errors import DimensionMismatch, RankDeficient
from ckv.frames import (Plane, as_array, as_bool, as_integer, as_real, complete_frame,
                        orthonormalize)
from ckv.submanifold import attach
from ckv.verifier import verify


def test_orthonormalize_already_orthogonal():
    out = orthonormalize([[1, 0, 0], [0, 2, 0]])
    assert np.allclose(out, [[1, 0, 0], [0, 1, 0]], atol=1e-14)


def test_orthonormalize_one_step():
    out = orthonormalize([[1, 0, 0], [1, 1, 0]])
    assert np.allclose(out, [[1, 0, 0], [0, 1, 0]], atol=1e-14)


def test_orthonormalize_near_parallel_raises():
    with pytest.raises(RankDeficient):
        orthonormalize([[1, 1, 0], [1, 1, 1e-14]])


def test_orthonormalize_gram_identity():
    rng = np.random.default_rng(3)
    for _ in range(25):
        k, d = rng.integers(2, 5), 7
        out = orthonormalize(rng.standard_normal((k, d)))
        assert np.abs(out @ out.T - np.eye(k)).max() < 1e-12


def test_orthonormalize_preserves_span():
    rng = np.random.default_rng(4)
    V = rng.standard_normal((3, 6))
    out = orthonormalize(V)
    # every input reconstructs from the outputs
    recon = (V @ out.T) @ out
    assert np.abs(recon - V).max() < 1e-10


def test_plane_rejects_bad_basis():
    with pytest.raises(ValueError):
        Plane(np.array([1.0, 0, 0]), np.array([1.0, 1e-6, 0]))
    with pytest.raises(ValueError):
        Plane(np.array([2.0, 0, 0]), np.array([0, 1.0, 0]))


def test_complete_frame_coordinate_order():
    frame = np.eye(5)[[0, 1, 4]]
    extra = complete_frame(frame)
    assert np.array_equal(extra, np.eye(5)[[2, 3]])


@pytest.mark.parametrize("d", [3, 5])
def test_complete_frame_shape_at_full_and_one_short(d):
    assert complete_frame(np.eye(d)).shape == (0, d)
    frame = orthonormalize(np.random.default_rng(d).standard_normal((d, d)))
    assert complete_frame(frame).shape == (0, d)
    extra = complete_frame(frame[:-1])
    assert extra.shape == (1, d)
    assert abs(abs(extra[0] @ frame[-1]) - 1.0) < 1e-15


def _greedy_completion(frame):
    """The completion one candidate at a time: each standard basis vector in
    index order, projected twice against the frame and every vector taken
    so far, is taken when its remainder is longer than 1e-6.  Returns the
    vectors taken and their indices."""
    d = frame.shape[1]
    basis, taken = list(frame), []
    for idx, cand in enumerate(np.eye(d)):
        for _ in range(2):
            for b in basis:
                cand = cand - (cand @ b) * b
        norm = np.sqrt(cand @ cand)
        if norm > 1e-6 and len(basis) < d:
            basis.append(cand / norm)
            taken.append(idx)
    return np.array(basis[frame.shape[0]:]), taken


def test_complete_frame_skips_a_candidate_inside_the_span():
    # e2 lies in span(frame) exactly but is no row of it: the rows are
    # (e2, two rows free of e2) rotated together; the completion skips e2
    # just as the one-at-a-time order does
    rng = np.random.default_rng(8)
    rows = orthonormalize(rng.standard_normal((2, 6)) * [1, 1, 0, 1, 1, 1])
    rot = orthonormalize(rng.standard_normal((3, 3)))
    frame = rot @ np.vstack([np.eye(6)[2], rows])
    e2 = np.eye(6)[2]
    assert np.abs(e2 - frame.T @ (frame @ e2)).max() < 1e-15
    assert np.abs(frame[:, 2]).min() > 0.1
    extra = complete_frame(frame)
    expected, taken = _greedy_completion(frame)
    assert taken == [0, 1, 3]
    assert extra.shape == expected.shape == (3, 6)
    assert np.abs(extra - expected).max() < 1e-14
    assert np.abs(extra[:, 2]).max() < 1e-15


def test_frames_are_orthonormal_to_rounding():
    rng = np.random.default_rng(9)
    for _ in range(200):
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, d + 1))
        frame = orthonormalize(rng.standard_normal((k, d)))
        assert np.abs(frame @ frame.T - np.eye(k)).max() <= 1e-15
        full = np.vstack([frame, complete_frame(frame)])
        assert np.abs(full @ full.T - np.eye(d)).max() <= 1e-15


@pytest.mark.parametrize("value,shape", [
    ([1, 2, 3], (3,)), ([[1, 2], [3, 4]], (2, 2)), ([[1, 2]], (None, 2)), ([[1, 2]], (1, None)),
    (np.zeros((2, 3, 3)), (2, 3, 3)),
])
def test_as_array_copies_arrays_of_the_shape(value, shape):
    arr = as_array(value, "v", shape)
    assert arr.dtype == float and np.array_equal(arr, value)
    assert not np.shares_memory(arr, np.asarray(value))


@pytest.mark.parametrize("value,shape,error,message", [
    ([1, 2], (3,), DimensionMismatch, r"v: expected shape \(3,\), got \(2,\)"),
    ([[1, 2]], (2,), DimensionMismatch, r"v: expected shape \(2,\), got \(1, 2\)"),
    ([[1, 2]], (None, 3), DimensionMismatch, r"v: expected shape \(any, 3\), got \(1, 2\)"),
    ([1, [2]], (2,), ValueError, "v: expected an array of numbers"),
    (["x", 2], (2,), ValueError, "v: expected an array of numbers"),
    ([{}, 2], (2,), ValueError, "v: expected an array of numbers"),
    ([10 ** 400, 2], (2,), ValueError, "v: entries must be finite"),
    ([np.nan, 2], (2,), ValueError, "v: entries must be finite"),
    ([None, 2], (2,), ValueError, "v: entries must be finite"),
])
def test_as_array_names_each_fault(value, shape, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        as_array(value, "v", shape)


@pytest.mark.parametrize("value,shape,label", [
    ([True, 1], (2,), "bool"), ([[1.0, np.True_]], (1, 2), "bool"),
    (np.array([True, False]), (2,), "bool"), (["1", 0], (2,), "str"),
    ([["0.5", "1"], [0, 0]], (2, 2), "str"), (np.array(["1", "2"]), (2,), "str"),
    (np.array([b"1", b"2"]), (2,), "str"), (np.array(["1", 2.0], dtype=object), (2,), "str"),
    (["1", True], (2,), "str"),
], ids=repr)
def test_as_array_rejects_strings_and_bools_numpy_would_convert(value, shape, label):
    # these used to convert to 1.0, 0.5, ...: the Python API took a numeric
    # string or a bool that only the scenario parser rejected
    with pytest.raises(ValueError, match=f"^v: expected a number, got {label}$"):
        as_array(value, "v", shape)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("value,shape", [
    (np.array([1 + 2j, 0]), (2,)), (np.array([1 + 0j, 0]), (2,)),
    ([np.complex128(1 + 2j), 0], (2,)), ([np.array(1 + 2j), 1.0], (2,)),
    ([np.array([1 + 2j, 0]), [1.0, 2.0]], (2, 2)),
], ids=repr)
def test_as_array_rejects_complex_entries(value, shape):
    # a complex array used to keep its real part, with only numpy's
    # ComplexWarning, while a list of Python complex numbers was rejected
    with pytest.raises(ValueError, match="^v: expected an array of numbers$"):
        as_array(value, "v", shape)


@pytest.mark.parametrize("value,shape,label", [
    ([np.array(True), 1.0], (2,), "bool"), ([[1.0, np.array(False)]], (1, 2), "bool"),
    (np.array([np.array(True), 1.0], dtype=object), (2,), "bool"),
    ([np.array("1"), 1.0], (2,), "str"),
], ids=repr)
def test_as_array_reads_the_entry_a_0d_array_holds(value, shape, label):
    # [np.array(True), 1.0] used to return [1, 1]: the entry scan saw the
    # type ndarray, not the bool it holds
    with pytest.raises(ValueError, match=f"^v: expected a number, got {label}$"):
        as_array(value, "v", shape)


def test_connection_spec_rejects_a_string_entry():
    with pytest.raises(ValueError, match="^P: expected a number, got str$"):
        ConnectionSpec(1, ["1", "0", "0", "0", "0"], np.zeros((5, 5)), lambda1=0.0, lambda2=0.0)


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_], ids=repr)
def test_as_bool_returns_a_python_bool(value):
    out = as_bool(value, "flag")
    assert type(out) is bool and out == value


@pytest.mark.parametrize("value", ["no", "", 1, 0, 1.0, None, [True], np.int64(1)], ids=repr)
def test_as_bool_rejects_anything_else(value):
    with pytest.raises(ValueError, match="^flag must be True or False, got "):
        as_bool(value, "flag")


@pytest.mark.parametrize("value,low", [(0, 0), (3, 3), (np.int64(4), 1), (np.uint8(2), -5),
                                       pytest.param(10 ** 400, 1, id="10**400-1")], ids=repr)
def test_as_integer_returns_a_python_int(value, low):
    out = as_integer(value, "k", low)
    assert type(out) is int and out == value


@pytest.mark.parametrize("value,low", [(True, 0), (np.True_, 0), (2.0, 0), (np.float64(2.0), 0),
                                       ("2", 0), (None, 0), ([2], 0), (-1, 0), (2, 3)], ids=repr)
def test_as_integer_rejects_anything_else(value, low):
    with pytest.raises(ValueError, match=f"^k must be an integer >= {low}, got "):
        as_integer(value, "k", low)


@pytest.mark.parametrize("value,low", [(0, 0.0), (1e-8, 0.0), (np.float32(0.5), 0.0),
                                       (np.int64(3), 0.0), (-2.5, -math.inf),
                                       pytest.param(-(10 ** 300), -math.inf, id="-10**300")],
                         ids=repr)
def test_as_real_returns_a_python_float(value, low):
    out = as_real(value, "tol", low)
    assert type(out) is float and out == float(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32(np.nan), True,
                                   np.True_, "1", None, [1.0], 1j,
                                   pytest.param(10 ** 400, id="10**400"),
                                   pytest.param(-(10 ** 400), id="-10**400")], ids=repr)
@pytest.mark.parametrize("low,bound", [(0.0, " >= 0"), (-math.inf, "")], ids=["low0", "any"])
def test_as_real_rejects_anything_else(value, low, bound):
    with pytest.raises(ValueError, match=f"^tol must be a finite number{bound}, got "):
        as_real(value, "tol", low)


def test_as_real_applies_its_lower_bound():
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got -1e-12$"):
        as_real(-1e-12, "tol", 0.0)
    assert as_real(-1e-12, "tol", -math.inf) == -1e-12


def _huge(n):
    """A length-n list whose first entry is an integer beyond the float range."""
    return [10 ** 400] + [0] * (n - 1)


E5 = np.eye(5)
_MODEL = standard_point(2)
_SPEC = first_connection(0.0, 0.0, np.zeros(5), np.zeros((5, 5)))
_SUB = attach(_MODEL, _SPEC, E5[:3], np.zeros((2, 3, 3)))
_PHI = _MODEL.phi


@pytest.mark.parametrize("call,name", [
    (lambda: first_connection(0.0, 0.0, _huge(5), np.zeros((5, 5))), "P"),
    (lambda: first_connection(0.0, 0.0, np.zeros(5), [_huge(5)] + E5[1:].tolist()), "D"),
    (lambda: ContactPointModel(m=2, phi=[_huge(5)] + _PHI[1:].tolist(), xi=E5[4],
                               hprime=np.zeros((5, 5)), kappa=1.0, mu_contact=0.0, c=1.0),
     "phi"),
    (lambda: ContactPointModel(m=2, phi=_PHI, xi=_huge(5), hprime=np.zeros((5, 5)),
                               kappa=1.0, mu_contact=0.0, c=1.0), "xi"),
    (lambda: Plane(_huge(3), [0.0, 1.0, 0.0]), "plane.e1"),
    (lambda: attach(_MODEL, _SPEC, [_huge(5), E5[1], E5[2]], np.zeros((2, 3, 3))),
     "orthonormalize"),
    (lambda: attach(_MODEL, _SPEC, E5[:3], [[_huge(3)] * 3, np.zeros((3, 3))]), "hhat"),
    (lambda: verify(_SUB, "3.3", X=_huge(5)), "tangent vector"),
    (lambda: curvature_lc(_MODEL, _huge(5), E5[1], E5[1], E5[0]), "X"),
    (lambda: ambient_curvature(_MODEL, _SPEC, E5[0], E5[1], E5[1], _huge(5)), "W"),
], ids=["P", "D", "phi", "xi", "plane", "tangent", "hhat", "verify-X", "curvature_lc",
        "ambient_curvature"])
def test_integers_beyond_the_float_range_raise_value_error(call, name):
    # float() of such an integer raises OverflowError, which used to escape
    # the constructors and the curvature evaluators
    with pytest.raises(ValueError, match=f"^{name}: entries must be finite$"):
        call()
