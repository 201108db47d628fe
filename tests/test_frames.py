import numpy as np
import pytest

from ckv.errors import RankDeficient
from ckv.frames import Plane, complete_frame, orthonormalize


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
