import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckv import spheresearch, submanifold
from ckv.connections import first_connection, second_connection
from ckv.contact import random_point, standard_point
from ckv.errors import DimensionMismatch, NonSymmetricH, RankDeficient
from ckv.frames import Plane, complete_frame, orthonormalize
from ckv.fuzz import FuzzConfig, random_scenario
from ckv.scenario import parse_scenario
from ckv.spheresearch import (
    LAYOUT_SIZE,
    REFINE_STARTS,
    complements,
    sphere_samples,
    triu_pairs,
)
from ckv.submanifold import (
    _direction_matrices,
    _partial_ricci_min,
    attach,
    casorati,
    casorati_bounds,
    delta_casorati,
    induced_curvature,
    ricci,
    ricci_form,
    scalar_tau,
    scalar_tau_pair,
    sectional,
    theta_k,
)
from ckv.verifier import CROSS_TOL, _casorati_equality, cross_check, equality_instance, verify
from oracles import (
    induced_curvature_direct,
    refine_one,
    reflected,
    ricci_by_frame,
    ricci_form_by_traces,
    rotated,
    sectional_by_riem,
    tau_by_loop,
    thorpe_lower_bound,
)

E5 = np.eye(5)


def _zero_spec(d=5):
    return first_connection(0.0, 0.0, np.zeros(d), np.zeros((d, d)))


def _plain_sub(hhat0=None):
    """n = 3 in the standard 5-dim reduction (c = 1, kappa = 1, h' = 0)."""
    hhat = np.zeros((2, 3, 3))
    if hhat0 is not None:
        hhat[0] = hhat0
    return attach(standard_point(2), _zero_spec(), E5[:3], hhat)


def _random_sub(seed, kind, n=3, m=2):
    rng = np.random.default_rng(seed)
    d = 2 * m + 1
    model = random_point(
        m, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
        float(rng.uniform(-3, 3)), seed=seed, hprime_scale=float(rng.uniform(0, 1)),
    )
    P = rng.standard_normal(d)
    D = rng.standard_normal((d, d))
    if kind == 1:
        spec = first_connection(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), P, D)
    else:
        spec = second_connection(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), P, D)
    p = d - n
    hhat = rng.standard_normal((p, n, n))
    hhat = (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    return attach(model, spec, rng.standard_normal((n, d)), hhat)


# --- attach -----------------------------------------------------------------

def test_attach_induced_form_kind1():
    # tangent e1..e3, hhat = 0, P = e4, lambda2 = 1: h^(e4) = -I, H = -e4
    spec = first_connection(0.0, 1.0, E5[3], np.zeros((5, 5)))
    sub = attach(standard_point(2), spec, E5[:3], np.zeros((2, 3, 3)))
    assert np.allclose(sub.normal, E5[3:])
    assert np.allclose(sub.h[0], -np.eye(3))
    assert np.abs(sub.h[1]).max() == 0.0
    assert np.allclose(sub.mean_curvature, -E5[3])


def test_attach_lambda2_zero_keeps_hhat():
    spec = first_connection(0.0, 0.0, E5[3], np.zeros((5, 5)))
    sub = attach(standard_point(2), spec, E5[:3], np.zeros((2, 3, 3)))
    assert np.abs(sub.h).max() == 0.0
    assert np.allclose(sub.mean_curvature, 0.0)


def test_attach_xi_tangent_decomposition():
    sub = attach(standard_point(2), _zero_spec(), E5[[0, 1, 4]], np.zeros((2, 3, 3)))
    assert np.allclose(sub.eta_t @ sub.tangent, E5[4])
    assert abs(float(sub.eta_t @ sub.eta_t) - 1.0) < 1e-13
    assert np.abs(sub.normal @ sub.model.xi).max() < 1e-13


def test_attach_errors():
    with pytest.raises(RankDeficient):
        attach(standard_point(2), _zero_spec(), [E5[0], E5[1], E5[0] + 1e-13 * E5[1]],
               np.zeros((2, 3, 3)))
    bad = np.zeros((2, 3, 3))
    bad[0, 0, 1] = 1e-6
    with pytest.raises(NonSymmetricH):
        attach(standard_point(2), _zero_spec(), E5[:3], bad)
    with pytest.raises(DimensionMismatch):
        attach(standard_point(2), _zero_spec(), E5[:3], np.zeros((3, 3, 3)))
    # NaN compares False with the symmetry tolerance, so it needs its own guard
    for value in (np.nan, np.inf):
        bad = np.zeros((2, 3, 3))
        bad[0, 0, 1] = value
        with pytest.raises(ValueError, match="hhat: entries must be finite"):
            attach(standard_point(2), _zero_spec(), E5[:3], bad)


@pytest.mark.parametrize("two_slices", [False, True])
def test_attach_and_casorati_arrays_are_read_only(two_slices):
    # casorati and the non-Gauss scalar curvature memoize values computed from
    # these arrays on sub.cache, so none of them may change after attach
    sub = _random_sub(7, 1) if two_slices else _plain_sub(np.diag([1.0, 1.0, 2.0]))
    for name, value in vars(sub).items():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable, name
    with pytest.raises(ValueError):
        sub.pi_nor[0] = 1.0
    cas = casorati(sub)
    with pytest.raises(ValueError):
        cas.argmin_u[0] = 1.0
    with pytest.raises(ValueError):
        cas.argmax_u[0] = 1.0


def test_attach_second_kind_h_equals_hhat():
    rng = np.random.default_rng(31)
    hhat = rng.standard_normal((2, 3, 3))
    hhat = (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    spec = second_connection(1.0, -2.0, rng.standard_normal(5), rng.standard_normal((5, 5)))
    sub = attach(standard_point(2), spec, E5[:3], hhat)
    assert np.array_equal(sub.h, sub.hhat)


# --- curvature --------------------------------------------------------------

def test_totally_geodesic_constant_curvature():
    sub = _plain_sub()
    for i in range(3):
        for j in range(3):
            if i != j:
                val = induced_curvature(sub, E5[i], E5[j], E5[j], E5[i])
                assert abs(val - 1.0) < 1e-13


def test_gauss_contribution():
    sub = _plain_sub(np.diag([1.0, 1.0, 2.0]))
    assert abs(induced_curvature(sub, E5[0], E5[1], E5[1], E5[0]) - 2.0) < 1e-13


def test_degenerate_arguments():
    sub = _random_sub(32, 1)
    X = sub.tangent[0]
    Z = sub.tangent[1]
    assert abs(induced_curvature(sub, X, X, Z, Z)) < 1e-12


def test_rejects_non_tangent_vectors():
    sub = _plain_sub()
    with pytest.raises(DimensionMismatch):
        induced_curvature(sub, E5[0], E5[1], E5[1], E5[4])


@pytest.mark.parametrize("kind", [1, 2])
def test_tensor_matches_direct_evaluation(kind):
    rng = np.random.default_rng(33 + kind)
    for seed in range(12):
        if seed < 8:
            n, m = int(rng.choice([3, 4])), int(rng.choice([2, 3]))
        else:
            n, m = [(5, 3), (5, 4), (6, 3), (6, 4)][seed - 8]
        sub = _random_sub(100 + seed, kind, n=n, m=m)
        assert _direct_deviation(sub, rng) < 1e-9


def _direct_deviation(sub, rng):
    """The largest |R - R_direct| / (1 + |R|) of ``induced_curvature``, built
    from the connection's difference tensor, against the paper's route
    ``induced_curvature_direct`` on six random tangent quadruples; NaN when
    either route gives a NaN (``np.max`` keeps it, Python's ``max`` drops it)."""
    deviations = []
    for _ in range(6):
        args = [rng.standard_normal(sub.n) @ sub.tangent for _ in range(4)]
        a = induced_curvature(sub, *args)
        deviations.append(abs(a - induced_curvature_direct(sub, *args)) / (1 + abs(a)))
    return float(np.max(deviations))


def test_direct_deviation_keeps_a_nan():
    sub = _random_sub(100, 1)
    broken = dataclasses.replace(sub, riem=np.full_like(sub.riem, np.nan), cache={})
    assert np.isnan(_direct_deviation(broken, np.random.default_rng(0)))


@pytest.mark.parametrize("kind", [1, 2])
def test_direct_comparison_catches_a_transposed_derivative(kind, monkeypatch):
    # nabla Delta read with D^T instead of D: cross_check's R_pair cannot see
    # it, since R(x, y, y, x) on orthonormal pairs reads only the symmetric
    # part of D, but the full tensor differs from the paper's route
    delta = submanifold.difference_tensor
    monkeypatch.setattr(submanifold, "difference_tensor",
                        lambda spec, v: delta(spec, v.T if v.ndim == 2 else v))
    rng = np.random.default_rng(5)
    for index in range(50):
        sub = parse_scenario(random_scenario(index, FuzzConfig(seed=777, kind=kind))).sub
        assert _direct_deviation(sub, rng) > 1e-9


# --- sectional / tau / ricci ------------------------------------------------

def test_sectional_values():
    sub = _plain_sub(np.diag([1.0, 1.0, 2.0]))
    assert abs(sectional(sub, Plane(E5[0], E5[1])) - 2.0) < 1e-13
    assert abs(sectional(sub, Plane(E5[0], E5[2])) - 3.0) < 1e-13
    plane = rotated(Plane(E5[0], E5[1]), 0.7)
    assert abs(sectional(sub, plane) - 2.0) < 1e-12


def test_sectional_basis_invariance_random():
    sub = _random_sub(34, 1)
    plane = Plane(sub.tangent[0], sub.tangent[1])
    base = sectional(sub, plane)
    rng = np.random.default_rng(35)
    for _ in range(50):
        turned = rotated(plane, rng.uniform(0, 2 * np.pi))
        assert abs(sectional(sub, turned) - base) < 1e-10 * (1 + abs(base))
    assert abs(sectional(sub, reflected(plane)) - base) < 1e-10 * (1 + abs(base))


def test_tau_examples():
    assert abs(scalar_tau(_plain_sub()) - 3.0) < 1e-13
    assert abs(scalar_tau(_plain_sub(np.diag([1.0, 1.0, 2.0]))) - 8.0) < 1e-13
    sub4 = attach(standard_point(2), _zero_spec(), np.eye(5)[:4], np.zeros((1, 4, 4)))
    assert abs(scalar_tau(sub4) - 6.0) < 1e-13


@pytest.mark.parametrize("kind", [1, 2])
def test_tau_double_formula_agreement(kind):
    for seed in range(10):
        sub = _random_sub(200 + seed, kind)
        a, b = scalar_tau_pair(sub)
        assert abs(a - b) < 1e-12 * (1 + abs(a))


def test_ricci_examples():
    sub = _plain_sub()
    for i in range(3):
        assert abs(ricci(sub, E5[i]) - 2.0) < 1e-13
    sub = _plain_sub(np.diag([1.0, 1.0, 2.0]))
    assert abs(E5[0, :3] @ ricci_form(sub) @ E5[0, :3] - 5.0) < 1e-13
    assert abs(ricci(sub, E5[2]) - 6.0) < 1e-13


def test_ricci_completion_independence():
    # the raw trace over any orthonormal completion of x, and the sum of the
    # sectional curvatures K(x ^ e_j) over it, match ricci and ricci_form
    sub = _random_sub(36, 2)
    rng = np.random.default_rng(37)
    x = rng.standard_normal(sub.n)
    x /= np.linalg.norm(x)
    default = ricci(sub, x @ sub.tangent)
    default_sym = x @ ricci_form(sub) @ x
    for trial in range(3):
        q, _ = np.linalg.qr(np.column_stack([x, rng.standard_normal((sub.n, sub.n - 1))]))
        basis = q[:, 1:].T
        raw = np.einsum("abcd,a,kb,kc,d->", sub.riem, x, basis, basis, x)
        flipped = np.einsum("abcd,a,kb,c,kd->", sub.riem, x, basis, x, basis)
        assert abs(raw - default) < 1e-10 * (1 + abs(default))
        assert abs((raw - flipped) / 2.0 - default_sym) < 1e-10 * (1 + abs(default_sym))


def test_ricci_form_trace_is_twice_tau():
    # and every contraction of the antisymmetrized form matches its formula
    # on the raw tensor, on both kinds at n = 3..6, on coordinate and random
    # planes and on coordinate and random unit directions
    rng = np.random.default_rng(38)
    gap = lambda a, b: np.max(np.abs(a - b) / (1.0 + np.abs(b)))
    for kind in (1, 2):
        for n in (3, 4, 5, 6):
            sub = _random_sub(38 + 10 * n + kind, kind, n=n, m=n // 2 + 1)
            Q = ricci_form(sub)
            assert abs(np.trace(Q) - 2.0 * scalar_tau(sub)) < 1e-11
            assert gap(Q, ricci_form_by_traces(sub.riem)) <= 1e-13
            assert gap(scalar_tau(sub), tau_by_loop(sub.riem)) <= 1e-13
            frames = [np.eye(n)[:2]] + [orthonormalize(rng.standard_normal((2, n)))
                                        for _ in range(6)]
            for v1, v2 in frames:
                K = sectional(sub, Plane(v1 @ sub.tangent, v2 @ sub.tangent))
                assert gap(K, sectional_by_riem(sub.riem, v1[None], v2[None])[0]) <= 1e-13
            for x in [*np.eye(n)[:2], *orthonormalize(rng.standard_normal((n, n)))]:
                X = x @ sub.tangent
                assert gap(ricci(sub, X), ricci_by_frame(sub.riem, sub.tangent_coords(X))) <= 1e-13


def test_ricci_rejects_non_unit():
    sub = _plain_sub()
    with pytest.raises(ValueError):
        ricci(sub, 2.0 * E5[0])


# --- theta ------------------------------------------------------------------

def test_theta_constant_curvature():
    sub = _plain_sub()
    for k in (2, 3):
        est = theta_k(sub, k)
        assert abs(est.value - 1.0) < 1e-9, (k, est)


def test_theta_grid_matches_random_probe():
    sub = _plain_sub(np.diag([1.0, 1.0, 2.0]))
    est = theta_k(sub, 2)
    assert est.mode == "grid"
    assert abs(est.value - 2.0) < 1e-6
    # independent oracle: random planes
    rng = np.random.default_rng(39)
    best = np.inf
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        best = min(best, sectional_by_riem(sub.riem, q[None, :, 0], q[None, :, 1])[0])
    assert est.value <= best + 1e-9


def test_theta_eigen_vs_sampling():
    sub = _random_sub(40, 1)
    est = theta_k(sub, sub.n)
    assert est.mode == "exact_eigen"
    Q = ricci_form(sub)
    rng = np.random.default_rng(41)
    xs = rng.standard_normal((10_000, sub.n))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)
    sampled = np.einsum("ki,ij,kj->k", xs, Q, xs).min() / (sub.n - 1)
    assert est.value <= sampled + 1e-9
    assert sampled - est.value < 1e-2  # coarse sampling still lands nearby


def _theta_search(sub, k):
    """The layout-plus-refine search for Theta_k, recomputed with no memo:
    ``_partial_ricci_min`` on the ``LAYOUT_SIZE`` layout rows, then
    one refine from the ``REFINE_STARTS`` least values, the least first."""
    f = lambda X: _partial_ricci_min(sub, X, k)
    U = sphere_samples(sub.n)
    _, val = refine_one(f, U[np.argsort(f(U), kind="stable")[:REFINE_STARTS]])
    return val / (k - 1)


def test_theta_multistart_upper_bound():
    sub = _random_sub(42, 2, n=4, m=3)
    exact = theta_k(sub, 4)
    # the k < n search, run on the k = n infimum, never goes below the eigenvalue
    assert exact.value <= _theta_search(sub, 4) + 1e-9
    mid = theta_k(sub, 3)
    assert mid.mode == "multistart" and mid.samples == LAYOUT_SIZE


@pytest.mark.parametrize("kind", [1, 2])
def test_theta_exact_n3_matches_search(kind):
    cfg = FuzzConfig(seed=61, kind=kind, n=3)
    for i in range(100):
        sub = parse_scenario(random_scenario(i, cfg)).sub
        est = theta_k(sub, 2)
        assert est.mode == "grid" and est.samples == 0
        searched = _theta_search(sub, 2)
        bound = 1e-12 * (1.0 + abs(searched))
        # the eigenvalue is the infimum, so no sampled direction may beat it
        assert est.value <= searched + bound, i
        assert abs(est.value - searched) <= bound, i


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from([1, 2]),
       coeffs=st.lists(st.floats(-1.0, 1.0), min_size=6, max_size=6))
def test_theta_n3_is_below_every_sectional(seed, kind, coeffs):
    sub = parse_scenario(random_scenario(0, FuzzConfig(seed=seed, kind=kind, n=3))).sub
    q, _ = np.linalg.qr(np.reshape(coeffs, (3, 2)))   # orthonormal columns, always
    K = sectional(sub, Plane(*(q.T @ sub.tangent)))
    assert theta_k(sub, 2).value <= K + 1e-12 * (1.0 + abs(K))


@pytest.mark.parametrize("kind", [1, 2])
def test_theta_layout_spectrum_is_shared(kind):
    cfg = FuzzConfig(seed=62, kind=kind, n=4)
    for i in range(3):
        data = random_scenario(i, cfg)
        forward, backward = parse_scenario(data).sub, parse_scenario(data).sub
        first = [theta_k(forward, 2), theta_k(forward, 3)]
        second = [theta_k(backward, 3), theta_k(backward, 2)][::-1]
        assert first == second
        for k, est in zip((2, 3), first):
            assert est.value == _theta_search(parse_scenario(data).sub, k)
        for key in ("theta_form", "theta_multistart"):
            with pytest.raises(ValueError):
                forward.cache[key].flat[0] = 0.0
    for arr in triu_pairs(4):
        with pytest.raises(ValueError):
            arr[0] = 0


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", [1, 2])
def test_every_k_below_n_is_one_refine(n, kind, monkeypatch):
    # the first k < n at a point refines every k < n in one call; the others
    # read the memo, in either order, and each value is the one-k search's
    calls = []
    refine = spheresearch.refine_on_sphere

    def counted(f_batch, u0):
        calls.append(np.shape(u0))
        return refine(f_batch, u0)
    monkeypatch.setattr(spheresearch, "refine_on_sphere", counted)
    cfg = FuzzConfig(seed=69, kind=kind, n=n, m=3)
    for i in range(2):
        data = random_scenario(i, cfg)
        for ks in (range(2, n), range(n - 1, 1, -1)):
            sub = parse_scenario(data).sub
            calls.clear()
            values = {k: theta_k(sub, k).value for k in ks}
            assert calls == [(n - 2, REFINE_STARTS, n)], (i, list(ks))
            for k, value in values.items():
                assert value == _theta_search(sub, k), (i, k)


@pytest.mark.parametrize("n", [4, 5])
@pytest.mark.parametrize("kind", [1, 2])
def test_every_direction_matrix_row_goes_through_the_evaluator(n, kind, monkeypatch):
    # one evaluator route: the layout and every refine stage of the
    # search build their S_x matrices inside ``_partial_ricci_min``
    built, evaluated = [], []
    direction_matrices = submanifold._direction_matrices
    partial_ricci_min = submanifold._partial_ricci_min

    def counted_matrices(sub, X):
        built.append(len(X))
        return direction_matrices(sub, X)

    def counted_min(sub, X, k):
        evaluated.append(len(X))
        return partial_ricci_min(sub, X, k)
    monkeypatch.setattr(submanifold, "_direction_matrices", counted_matrices)
    monkeypatch.setattr(submanifold, "_partial_ricci_min", counted_min)
    for i in range(2):
        sub = parse_scenario(random_scenario(i, FuzzConfig(seed=11, kind=kind, n=n, m=3))).sub
        built.clear()
        evaluated.clear()
        theta_k(sub, 2)
        assert sum(built) == sum(evaluated) >= LAYOUT_SIZE, i


def test_theta_on_constant_curvature():
    # S_x = I on every x^perp: every layout row ties up to rounding, and the
    # starts picked among the ties are those of the exact evaluator
    sub = attach(standard_point(3), _zero_spec(7), np.eye(7)[:4], np.zeros((3, 4, 4)))
    for k in (2, 3):
        est = theta_k(sub, k)
        assert abs(est.value - 1.0) < 1e-9
        assert est.value == _theta_search(sub, k)


def test_theta_n5_is_unscreened():
    sub = _random_sub(45, 1, n=5, m=3)
    for k in (2, 3, 4):
        assert theta_k(sub, k).value == _theta_search(sub, k), k
    X, ks = sphere_samples(5), np.arange(2, 6)
    exact = np.cumsum(np.linalg.eigvalsh(_direction_matrices(sub, X)), axis=1)
    assert np.array_equal(_partial_ricci_min(sub, X, ks), exact)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("kind", [1, 2])
def test_layout_spectra_match_the_exact_evaluator(n, kind):
    # the start values on the layout are the plane infima of S_x on
    # x^perp, checked in a basis of x^perp from ``complete_frame`` instead
    # of a Householder one
    layout, ks = sphere_samples(n), np.arange(2, n + 1)
    X = layout[::16]
    for i in range(3):
        sub = parse_scenario(random_scenario(i, FuzzConfig(seed=66, kind=kind, n=n, m=n - 1))).sub
        sums = _partial_ricci_min(sub, layout, ks)[::16]
        for k in range(2, n + 1):
            ref = np.array([_partial_ricci_reference(sub, x, k) for x in X])
            assert np.all(np.abs(sums[:, k - 2] - ref) <= 1e-12 * (1.0 + np.abs(ref))), (i, k)


@pytest.mark.parametrize("kind", [1, 2])
def test_theta_n6_matches_the_search(kind):
    cfg = FuzzConfig(seed=67, kind=kind, n=6, m=3)
    for i in range(2):
        sub = parse_scenario(random_scenario(i, cfg)).sub
        for k in range(2, 6):
            est = theta_k(sub, k)
            assert est.mode == "multistart" and est.value == _theta_search(sub, k), (i, k)


# (seed, n, m, j, kind, k, Theta_k): points where a refine from the single
# least layout value stops in a basin 3.8e-4 to 5.0e-3 (1 + |Theta|) above
# the value that several starts reach
_WRONG_BASIN = [
    (65, 5, 3, 3, 2, 3, -2.2995124227706114),
    (67, 6, 4, 5, 2, 3, -2.6970217949411843),
    (68, 5, 3, 23, 2, 4, -1.2674086376934526),
    (68, 5, 3, 26, 1, 3, 4.216344000678598),
]


@pytest.mark.parametrize("seed, n, m, j, kind, k, theta", _WRONG_BASIN)
def test_theta_multistart_leaves_a_wrong_basin(seed, n, m, j, kind, k, theta):
    sub = parse_scenario(random_scenario(j, FuzzConfig(seed=seed, kind=kind, n=n, m=m))).sub
    assert theta_k(sub, k).value <= theta + 1e-12 * (1.0 + abs(theta))


@pytest.mark.parametrize("kind", [1, 2])
def test_theta2_n4_reaches_thorpes_bound(kind):
    # seed 31, kind 1, instance 104 is where coordinate descent stopped
    # 3.45e-6 relative above the bound
    points = [(i, FuzzConfig(seed=31, kind=kind, n=4)) for i in range(20)]
    if kind == 1:
        points.append((104, FuzzConfig(seed=31, kind=1, n=4)))
    for i, cfg in points:
        sub = parse_scenario(random_scenario(i, cfg)).sub
        lower, theta = thorpe_lower_bound(sub), theta_k(sub, 2).value
        scale = 1.0 + abs(theta)
        # both are rounded, so the bound may pass the attained value by 1e-15
        assert lower - 1e-14 * scale <= theta <= lower + 1e-12 * scale, i


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("scale", [1e80, 1e100, 1e140, 1e-160])
def test_theta_screen_on_huge_and_tiny_curvature(scale):
    # riem up to about 1e280 is finite; squares of its entries are not
    for i in range(4):
        data = random_scenario(i, FuzzConfig(seed=64, kind=1 + i % 2, n=4))
        data["submanifold"]["hhat"] = (np.asarray(data["submanifold"]["hhat"]) * scale).tolist()
        sub = parse_scenario(data).sub
        for k in (2, 3):
            est = theta_k(sub, k)
            assert np.isfinite(est.value) and est.value == _theta_search(sub, k), (i, k)


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(2, 6), seed=st.integers(0, 2 ** 32 - 1), zero_first=st.booleans())
def test_complements_are_orthonormal_bases_of_the_complement(dim, seed, zero_first):
    U = np.random.default_rng(seed).standard_normal((16, dim))
    if zero_first:
        U[::2, 0] = 0.0
    U = np.concatenate([U / np.linalg.norm(U, axis=1, keepdims=True), np.eye(dim), -np.eye(dim)])
    C = complements(U)
    assert C.shape == (len(U), dim, dim - 1)
    gram = np.einsum("kia,kib->kab", C, C)
    assert np.max(np.abs(gram - np.eye(dim - 1))) < 1e-14
    assert np.max(np.abs(np.einsum("ki,kia->ka", U, C))) < 1e-14


def _partial_ricci_reference(sub, x, k):
    """Per direction: S_x compressed onto a complete_frame basis of x^perp."""
    M = np.einsum("abcd,a,d->bc", sub.riem, x, x)
    N = np.einsum("abcd,a,c->bd", sub.riem, x, x)
    S = (M - N) / 2.0
    basis = complete_frame(x[None, :])
    w = np.linalg.eigvalsh(basis @ ((S + S.T) / 2.0) @ basis.T)
    return float(np.sum(w[: k - 1]))


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("n", [3, 4])
def test_partial_ricci_min_matches_per_direction_reference(n, kind):
    sub = _random_sub(43 + n, kind, n=n, m=3)
    rng = np.random.default_rng(44)
    X = rng.standard_normal((200, n))
    X[:40, 0] = 0.0   # the Householder sign switches at x_0 = 0
    X /= np.linalg.norm(X, axis=1, keepdims=True)
    eye = np.eye(n)
    X = np.concatenate([X, eye[:2], -eye[:2]])
    for k in range(2, n + 1):
        batched = _partial_ricci_min(sub, X, k)
        ref = np.array([_partial_ricci_reference(sub, x, k) for x in X])
        assert np.all(np.abs(batched - ref) <= 1e-12 * (1 + np.abs(ref))), k
    # at k = n the k - 1 = n - 1 eigenvalues sum to the Ricci quadratic form
    quad = np.einsum("ki,ij,kj->k", X, ricci_form(sub), X)
    assert np.all(np.abs(batched - quad) <= 1e-12 * (1 + np.abs(quad)))


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("kind", [1, 2])
def test_partial_ricci_min_is_batch_invariant(n, kind):
    # a row's value never depends on which rows share its call, or how many
    sub = parse_scenario(random_scenario(0, FuzzConfig(seed=79, kind=kind, n=n, m=3 + n % 2))).sub
    extra = np.random.default_rng(80 + n).standard_normal((88, n))
    extra /= np.linalg.norm(extra, axis=1, keepdims=True)
    X = np.concatenate([sphere_samples(n), extra])
    ks = np.arange(2, n + 1)
    whole = _partial_ricci_min(sub, X, ks)
    alone = np.concatenate([_partial_ricci_min(sub, X[i:i + 1], ks) for i in range(len(X))])
    assert np.array_equal(alone, whole)
    for size in (1, 2, 7, 40, 300):
        assert np.array_equal(_partial_ricci_min(sub, X[:size], ks), whole[:size]), size
    assert np.array_equal(_partial_ricci_min(sub, X[::-1], ks), whole[::-1])
    order = np.random.default_rng(81).permutation(len(X))
    assert np.array_equal(_partial_ricci_min(sub, X[order], ks), whole[order])


def test_theta_invalid_k():
    sub = _plain_sub()
    with pytest.raises(ValueError):
        theta_k(sub, 1)
    with pytest.raises(ValueError):
        theta_k(sub, 5)


# --- casorati ---------------------------------------------------------------

def test_casorati_zero():
    cas = casorati(_plain_sub())
    assert cas.C == 0.0 and cas.delta_c == 0.0 and cas.delta_c_hat == 0.0


def casorati_of_subspace(sub, basis):
    """C(L) for an l-dimensional subspace given by tangent vectors."""
    B = np.array([sub.tangent_coords(v) for v in np.atleast_2d(np.asarray(basis, float))])
    B = orthonormalize(B)
    restricted = np.einsum("ia,rab,jb->rij", B, sub.h, B)
    return float(np.sum(restricted * restricted)) / B.shape[0]


def _latlong_oracle(sub, count=400):
    """Exhaustive lat-long grid over S^2; independent of the production layout."""
    thetas = np.linspace(0, np.pi, count)
    phis = np.linspace(0, 2 * np.pi, 2 * count, endpoint=False)
    T, P = np.meshgrid(thetas, phis, indexing="ij")
    U = np.stack([
        (np.sin(T) * np.cos(P)).ravel(),
        (np.sin(T) * np.sin(P)).ravel(),
        np.cos(T).ravel(),
    ], axis=1)
    h = sub.h
    vals = np.full(U.shape[0], np.sum(h * h))
    h2 = np.einsum("rab,rbc->rac", h, h)
    vals = vals - 2.0 * np.einsum("rab,ka,kb->k", h2, U, U) \
        + np.einsum("kr->k", np.einsum("rab,ka,kb->kr", h, U, U) ** 2)
    vals = vals / (sub.n - 1)
    return U, vals


def test_casorati_example_against_grid_oracle():
    sub = _plain_sub(np.diag([1.0, 1.0, 2.0]))
    cas = casorati(sub)
    assert abs(cas.C - 2.0) < 1e-13
    assert abs(cas.inf_CL - 1.0) < 1e-6
    assert abs(cas.sup_CL - 2.5) < 1e-6
    assert abs(cas.delta_c - 5.0 / 3.0) < 1e-6
    assert abs(cas.delta_c_hat - 23.0 / 12.0) < 1e-6
    # oracle: the lat-long sweep confirms the extrema and the minimizer e3
    U, vals = _latlong_oracle(sub)
    assert vals.min() >= cas.inf_CL - 1e-9
    assert vals.max() <= cas.sup_CL + 1e-9
    winner = U[np.argmin(vals)]
    assert abs(abs(winner[2]) - 1.0) < 2e-2  # minimizer is +/- e3
    assert abs(abs(cas.argmin_u[2]) - 1.0) < 1e-6


def _two_slice_sub(hhat):
    """n = 3 in the standard 5-dim reduction with both normal slices given."""
    return attach(standard_point(2), _zero_spec(), E5[:3], np.asarray(hhat, float))


def _random_two_slice_hhat(rng):
    hhat = rng.standard_normal((2, 3, 3))
    return (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0


def test_casorati_one_slice_sup_is_exact():
    # instance 514 of the kind-1 acceptance campaign has a single normal slice
    # (n = 4, p = 1); a sampled search fell short of its sup by 6.9e-4
    cfg = FuzzConfig(count=1000, seed=20240817, kind=1)
    sub = parse_scenario(random_scenario(514, cfg)).sub
    assert sub.p == 1
    lam = np.linalg.eigvalsh(sub.h[0])
    exact = (sub.h_norm_sq - float(np.min(lam * lam))) / (sub.n - 1)
    assert abs(casorati(sub).sup_CL - exact) < 1e-12


@pytest.mark.parametrize("multi", [False, True])
def test_casorati_arguments_attain_the_extrema(multi):
    rng = np.random.default_rng(77)
    hhat = _random_two_slice_hhat(rng)
    if not multi:
        hhat[1] = 0.0
    sub = _two_slice_sub(hhat)
    cas = casorati(sub)
    for u, value in ((cas.argmin_u, cas.inf_CL), (cas.argmax_u, cas.sup_CL)):
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        hyperplane = complete_frame(u[None, :]) @ sub.tangent
        assert abs(casorati_of_subspace(sub, hyperplane) - value) < 1e-12 * (1.0 + abs(value))


@pytest.mark.parametrize("kind", [1, 2])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_delta_fields_match_the_printed_formulas(n, kind):
    # the paper's delta_c = C/2 + (n+1)/(2n) inf C(L) and
    # delta_c_hat = 2C - (2n-1)/(2n) sup C(L), written out here
    cfg = FuzzConfig(seed=71, kind=kind, n=n, m=max(3, (n + 2) // 2))
    for i in range(20):
        cas = casorati(parse_scenario(random_scenario(i, cfg)).sub)
        printed = (cas.C / 2.0 + (n + 1) / (2.0 * n) * cas.inf_CL,
                   2.0 * cas.C - (2.0 * n - 1) / (2.0 * n) * cas.sup_CL)
        for value, expected in zip((cas.delta_c, cas.delta_c_hat), printed):
            assert abs(value - expected) <= 1e-15 * abs(expected), (i, value, expected)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 6),
       factor=st.sampled_from([0.1, 0.3, 0.5, 0.9, 1.2, 2.0, 5.0]), a=st.floats(-10.0, 10.0))
def test_delta_casorati_bounds_the_gauss_part_and_its_witness_attains_it(seed, n, factor, a):
    # Decu-Haesen-Verstraelen: n^2 ||H||^2 - ||h||^2 <= delta_C(r; n-1) at every
    # r, with equality for one slice diag(a, ..., a, n(n-1)/r a)
    r = factor * n * (n - 1)
    m = max(2, (n + 2) // 2)
    d = 2 * m + 1
    rng = np.random.default_rng(seed)
    hhat = rng.standard_normal((d - n, n, n))
    rot = np.linalg.qr(rng.standard_normal((n, n)))[0]
    witness = np.zeros_like(hhat)
    witness[0] = rot @ np.diag(_casorati_equality(n, r, a)) @ rot.T
    for h, equal in (((hhat + np.transpose(hhat, (0, 2, 1))) / 2.0, False), (witness, True)):
        sub = attach(standard_point(m), _zero_spec(d), np.eye(d)[:n], h)
        cas = casorati(sub)
        lhs = n ** 2 * sub.mean_curvature_sq - sub.h_norm_sq
        rhs = delta_casorati(n, r, cas.C, cas.inf_CL, cas.sup_CL)
        tol = 1e-12 * (1.0 + abs(lhs) + abs(rhs))
        assert lhs <= rhs + tol
        if equal:
            assert abs(rhs - lhs) <= tol, (rhs, lhs)


def _hyperplane_values(h, U):
    """C(L) = sum_r ||P h_r P||^2 / (n - 1) with P = I - u u^T, per unit row u
    of U, by compressing the slices directly."""
    n = h.shape[1]
    P = np.eye(n) - np.einsum("ka,kb->kab", U, U)
    return np.sum((P[:, None] @ h[None] @ P[:, None]) ** 2, axis=(1, 2, 3)) / (n - 1)


# bench/oracle.py's reference sup C(L) of campaign seed 11, unit 564, which
# the sphere search misses (it reaches 0.587212)
_UNIT_564_ORACLE_SUP = 0.5874767349640987


def test_casorati_bounds_cover_the_known_search_miss():
    # campaign seed 11, unit 564 (n = 4, p = 3): the searched sup lies below
    # the oracle's, so a verdict on it would rest on too large a 3.5ii rhs
    sub = parse_scenario(random_scenario(0, FuzzConfig(count=1, seed=3004783557911524741,
                                                       kind=1))).sub
    assert (sub.n, sub.p) == (4, 3)
    lower, upper = casorati_bounds(sub)
    assert upper >= _UNIT_564_ORACLE_SUP
    assert abs(upper - 0.61986) < 1e-5
    assert casorati(sub).sup_CL <= _UNIT_564_ORACLE_SUP + 1e-12   # attained, so never above
    assert lower <= casorati(sub).inf_CL
    verdict = verify(sub, "3.5ii")
    cert = verdict.diagnostics["certificate"]
    assert verdict.holds and "undecided" not in verdict.diagnostics
    assert cert["sup_CL"] == upper and sorted(cert) == ["inf_CL", "inf_gap", "sup_CL", "sup_gap"]
    assert verdict.slack >= 0.0 and verdict.slack <= verdict.diagnostics["estimate_slack"]


def _multi_slice_sub(seed, n, p, scale):
    """A point with p >= 1 nonzero random slices on the reduced ambient with a
    zero kind-1 connection; one zero slice pads an even n + p."""
    d = n + p + 1 - (n + p) % 2
    rng = np.random.default_rng(seed)
    hhat = np.zeros((d - n, n, n))
    hhat[:p] = rng.standard_normal((p, n, n))
    hhat = scale * (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    return attach(standard_point((d - 1) // 2), _zero_spec(d), np.eye(d)[:n], hhat)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 6), p=st.integers(1, 4),
       scale=st.floats(1e-2, 1e2))
def test_casorati_bounds_enclose_every_hyperplane(seed, n, p, scale):
    sub = _multi_slice_sub(seed, n, p, scale)
    lower, upper = casorati_bounds(sub)
    cas = casorati(sub)
    U = np.random.default_rng(seed).standard_normal((256, n))
    U = np.concatenate([U / np.linalg.norm(U, axis=1, keepdims=True), [cas.argmin_u, cas.argmax_u]])
    values = _hyperplane_values(sub.h, U)
    eps = 1e-12 * (1.0 + sub.h_norm_sq)
    assert np.all(lower - eps <= values) and np.all(values <= upper + eps)
    for tid in ("3.5i", "3.5ii"):
        verdict = verify(sub, tid)
        assert verdict.slack <= verdict.diagnostics["estimate_slack"] + 1e-12 * (
            1.0 + abs(verdict.lhs) + abs(verdict.rhs))
    # the certificate checked from both sides, as on every campaign point
    residuals = cross_check(sub).residuals
    assert residuals["casorati_floor"] < CROSS_TOL and residuals["casorati_bracket"] < CROSS_TOL


def _no_search(*args, **kwargs):
    raise AssertionError("casorati ran a sphere search")


@pytest.mark.parametrize("p", [2, 3, 4])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_casorati_reads_the_certificate_directions_and_runs_no_search(n, p, monkeypatch):
    # one rule at every number of slices: inf/sup C(L) are the least and
    # greatest values over the rows of the certificate's decomposition, U
    for name in ("sphere_samples", "refine_on_sphere"):
        monkeypatch.setattr(spheresearch, name, _no_search)
        monkeypatch.setattr(submanifold, name, _no_search, raising=False)
    for seed in range(3):
        sub = _multi_slice_sub(100 * n + 10 * p + seed, n, p, 1.0)
        cas = casorati(sub)
        U = submanifold._Quartic.of(sub).U
        values = _hyperplane_values(sub.h, U)
        for u, value, best in ((cas.argmin_u, cas.inf_CL, values.min()),
                               (cas.argmax_u, cas.sup_CL, values.max())):
            assert np.any(np.all(U == u, axis=1))
            tol = 1e-12 * (1.0 + abs(value))
            assert abs(_hyperplane_values(sub.h, u[None])[0] - value) <= tol
            assert abs(best - value) <= tol


@pytest.mark.parametrize("case,a", [("thm35_i", 1.0), ("thm35_i", -0.7), ("thm35_ii", 1.3),
                                    ("thm35_ii", 0.0)])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_casorati_bounds_are_exact_on_the_witnesses(case, a, n):
    # one slice: both bounds are the extrema, attained at the search's normals
    sub = equality_instance(case, n, {"a": a}, seed=n)
    lower, upper = casorati_bounds(sub)
    cas = casorati(sub)
    attained = _hyperplane_values(sub.h, np.stack([cas.argmin_u, cas.argmax_u]))
    for bound, searched, value in zip((lower, upper), (cas.inf_CL, cas.sup_CL), attained):
        assert abs(bound - searched) <= 1e-12 * (1.0 + abs(searched))
        assert abs(bound - value) <= 1e-12 * (1.0 + abs(value))


def test_casorati_overflowing_h_does_not_raise():
    hhat = _random_two_slice_hhat(np.random.default_rng(5))
    hhat[0, 0, 0] = 1e200
    with np.errstate(all="ignore"):
        cas = casorati(_two_slice_sub(hhat))
    assert not np.isfinite(cas.inf_CL) and not np.isfinite(cas.sup_CL)


def test_casorati_of_subspace():
    sub = _plain_sub(np.diag([1.0, 1.0, 2.0]))
    assert abs(casorati_of_subspace(sub, E5[:2]) - 1.0) < 1e-13
    assert abs(casorati_of_subspace(sub, E5[:3]) - 2.0) < 1e-13


@pytest.mark.parametrize("kind", [1, 2])
def test_h_norm_dominates_mean(kind):
    for seed in range(10):
        sub = _random_sub(300 + seed, kind)
        assert sub.h_norm_sq >= sub.n * sub.mean_curvature_sq - 1e-12


def test_second_kind_invariant_in_a():
    rng = np.random.default_rng(43)
    model = random_point(2, 0.9, -1.4, 2.2, seed=7, hprime_scale=0.8)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    hhat = rng.standard_normal((2, 3, 3))
    hhat = (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    basis = rng.standard_normal((3, 5))
    subs = [
        attach(model, second_connection(a, 1.3, P, D), basis, hhat)
        for a in (0.0, 1.0, -3.0)
    ]
    taus = [scalar_tau(s) for s in subs]
    assert max(taus) - min(taus) < 1e-12 * (1 + abs(taus[0]))
    plane = Plane(subs[0].tangent[0], subs[0].tangent[2])
    ks = [sectional(s, plane) for s in subs]
    assert max(ks) - min(ks) < 1e-12 * (1 + abs(ks[0]))
    X = subs[0].tangent[1]
    rics = [ricci(s, X) for s in subs]
    assert max(rics) - min(rics) < 1e-12 * (1 + abs(rics[0]))
    cs = [casorati(s).C for s in subs]
    assert max(cs) - min(cs) < 1e-12 * (1 + abs(cs[0]))
