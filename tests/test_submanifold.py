import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckv.connections import first_connection, second_connection
from ckv.contact import random_point, standard_point
from ckv.errors import DimensionMismatch, NonSymmetricH, RankDeficient
from ckv.frames import Plane, complete_frame, orthonormalize
from ckv.fuzz import FuzzConfig, random_scenario
from ckv.scenario import parse_scenario
from ckv.spheresearch import (
    LAYOUT_SIZE,
    complements,
    layout_complements,
    quadratic_monomials,
    refine_on_sphere,
    sphere_samples,
)
from ckv.submanifold import (
    _SCREEN_MARGIN,
    _direction_matrices,
    _eigvalsh3,
    _partial_ricci_min,
    attach,
    casorati,
    induced_curvature,
    ricci,
    ricci_form,
    scalar_tau,
    scalar_tau_pair,
    sectional,
    theta_k,
)
from oracles import induced_curvature_direct, reflected, rotated

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
    for seed in range(8):
        sub = _random_sub(100 + seed, kind, n=int(rng.choice([3, 4])), m=int(rng.choice([2, 3])))
        for _ in range(6):
            args = [rng.standard_normal(sub.n) @ sub.tangent for _ in range(4)]
            a = induced_curvature(sub, *args)
            b = induced_curvature_direct(sub, *args)
            assert abs(a - b) < 1e-9 * (1 + abs(a))


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
    sub = _random_sub(38, 1)
    assert abs(np.trace(ricci_form(sub)) - 2.0 * scalar_tau(sub)) < 1e-11


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
    R = sub.riem
    for _ in range(200):
        q, _ = np.linalg.qr(rng.standard_normal((3, 2)))
        v1, v2 = q[:, 0], q[:, 1]
        r1221 = np.einsum("abcd,a,b,c,d->", R, v1, v2, v2, v1)
        r1212 = np.einsum("abcd,a,b,c,d->", R, v1, v2, v1, v2)
        best = min(best, (r1221 - r1212) / 2.0)
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
    """The layout-plus-refine search for Theta_k, recomputed with no memo."""
    f = lambda X: _partial_ricci_min(sub, X, k)
    U = sphere_samples(sub.n)
    _, val = refine_on_sphere(f, U[int(np.argmin(f(U)))])
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
        for key in ("theta_form", "theta_spectra"):
            with pytest.raises(ValueError):
                forward.cache[key][0, 0] = 0.0
    with pytest.raises(ValueError):
        layout_complements(4)[0, 0, 0] = 0.0


def _spectra_with_gaps(rng, count, gap, pattern):
    """Ascending spectra, one row per matrix, with a relative gap ``gap``
    between a double ('low' or 'high') or a triple eigenvalue."""
    base = rng.uniform(-1.0, 1.0, count)
    span = rng.uniform(0.1, 2.0, count)
    if pattern == "low":
        return np.stack([base, base + gap * span, base + span], axis=1)
    if pattern == "high":
        return np.stack([base, base + span, base + span * (1.0 + gap)], axis=1)
    return np.stack([base, base + gap * span, base + 2.0 * gap * span], axis=1)


@pytest.mark.parametrize("scale", [1.0, 2.0 ** 500, 2.0 ** -500])
def test_eigvalsh3_is_within_its_bound(scale):
    # the closed form must stay at least 50 times inside the screen's margin
    rng = np.random.default_rng(47)
    stacks = [np.zeros((1, 3, 3)), np.eye(3)[None] * rng.uniform(-2.0, 2.0, (8, 1, 1))]
    for gap in [0.0, 1e-16, 1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-2]:
        for pattern in ("low", "high", "triple"):
            w = _spectra_with_gaps(rng, 200, gap, pattern)
            Q, _ = np.linalg.qr(rng.standard_normal((200, 3, 3)))
            A = np.einsum("kij,kj,klj->kil", Q, w, Q)
            stacks.append((A + A.transpose(0, 2, 1)) / 2.0)
    A = np.concatenate(stacks) * scale
    w, bound = _eigvalsh3(A)
    norm = np.sqrt(np.sum((A / scale) ** 2, axis=(1, 2))) * scale
    assert np.all(np.abs(w - np.linalg.eigvalsh(A)) <= _SCREEN_MARGIN / 50 * norm[:, None])
    assert np.all(np.abs(bound - _SCREEN_MARGIN * norm) <= 1e-15 * bound)
    assert np.all(w[0] == 0.0) and bound[0] == 0.0


@pytest.mark.parametrize("kind", [1, 2])
def test_theta_screen_matches_the_unscreened_search(kind):
    # only rows that can hold the layout minimum are evaluated exactly on
    # n = 4; the start of the refine, and so every value, must not move
    cfg = FuzzConfig(seed=63, kind=kind, n=4)
    for i in range(100):
        sub = parse_scenario(random_scenario(i, cfg)).sub
        for k in (2, 3):
            assert theta_k(sub, k).value == _theta_search(sub, k), (i, k)
    # the screen is in use: most layout rows keep their closed-form spectra
    exact = np.linalg.eigvalsh(_direction_matrices(sub, sphere_samples(4), layout_complements(4)))
    assert np.mean(np.all(sub.cache["theta_spectra"] == exact, axis=1)) < 0.5


def test_theta_screen_on_constant_curvature_is_exact_throughout():
    # S_x = I on every x^perp: every layout row ties, so every row is exact
    sub = attach(standard_point(3), _zero_spec(7), np.eye(7)[:4], np.zeros((3, 4, 4)))
    for k in (2, 3):
        est = theta_k(sub, k)
        assert abs(est.value - 1.0) < 1e-9
        assert est.value == _theta_search(sub, k)
    exact = np.linalg.eigvalsh(_direction_matrices(sub, sphere_samples(4), layout_complements(4)))
    assert np.array_equal(sub.cache["theta_spectra"], exact)


def test_theta_n5_is_unscreened():
    sub = _random_sub(45, 1, n=5, m=3)
    for k in (2, 3, 4):
        assert theta_k(sub, k).value == _theta_search(sub, k), k
    exact = np.linalg.eigvalsh(_direction_matrices(sub, sphere_samples(5), layout_complements(5)))
    assert np.array_equal(sub.cache["theta_spectra"], exact)


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


def test_quadratic_monomials_give_quadratic_forms():
    rng = np.random.default_rng(8)
    U = rng.standard_normal((5, 4))
    A = rng.standard_normal((4, 4))
    A = A + A.T
    iu, ju = np.triu_indices(4)
    assert np.array_equal(quadratic_monomials(U), U[:, iu] * U[:, ju])
    coeffs = A[iu, ju] * np.where(iu == ju, 1.0, 2.0)
    assert np.allclose(quadratic_monomials(U) @ coeffs, np.einsum("ka,ab,kb->k", U, A, U),
                       rtol=1e-13, atol=1e-13)


def test_casorati_one_slice_sup_is_exact():
    # instance 514 of the kind-1 acceptance campaign has a single normal slice
    # (n = 4, p = 1); a sampled search fell short of its sup by 6.9e-4
    cfg = FuzzConfig(count=1000, seed=20240817, kind=1)
    sub = parse_scenario(random_scenario(514, cfg)).sub
    assert sub.p == 1
    lam = np.linalg.eigvalsh(sub.h[0])
    exact = (sub.h_norm_sq - float(np.min(lam * lam))) / (sub.n - 1)
    assert abs(casorati(sub).sup_CL - exact) < 1e-12


def test_casorati_multi_slice_against_grid_oracle():
    sub = _two_slice_sub(_random_two_slice_hhat(np.random.default_rng(2024)))
    cas = casorati(sub)
    _, vals = _latlong_oracle(sub)
    assert cas.inf_CL <= vals.min() + 1e-9
    assert cas.sup_CL >= vals.max() - 1e-9


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


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), scale=st.floats(1e-3, 1e3))
def test_casorati_extrema_bound_every_hyperplane(seed, scale):
    rng = np.random.default_rng(seed)
    sub = _two_slice_sub(scale * _random_two_slice_hhat(rng))
    cas = casorati(sub)
    U = rng.standard_normal((64, 3))
    for u in U / np.linalg.norm(U, axis=1, keepdims=True):
        value = casorati_of_subspace(sub, complete_frame(u[None, :]) @ sub.tangent)
        slack = 1e-12 * (1.0 + sub.h_norm_sq)
        assert cas.inf_CL - slack <= value <= cas.sup_CL + slack


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
