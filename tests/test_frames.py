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
    assert np.allclose(extra, np.eye(5)[[2, 3]])
