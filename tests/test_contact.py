import dataclasses

import numpy as np
import pytest

import ckv.contact
from ckv.contact import (
    ContactPointModel,
    _curvature_lc_groups,
    curvature_lc,
    random_point,
    standard_point,
    validate_structure,
)
from ckv.errors import DimensionMismatch
from oracles import residual


def _model_with_hprime(c=2.4, kappa=0.3, mu=-1.7, s=0.7):
    """Standard m=2 frame with h' = s diag(1, 1, -1, -1, 0)."""
    base = standard_point(2)
    hp = s * np.diag([1.0, 1.0, -1.0, -1.0, 0.0])
    return ContactPointModel(m=2, phi=base.phi, xi=base.xi, hprime=hp,
                             kappa=kappa, mu_contact=mu, c=c)


def test_standard_point_structure():
    model = standard_point(2)
    report = validate_structure(model)
    assert report.passed
    assert max(c.max_residual for c in report.checks) == 0.0
    assert np.allclose(model.phi @ np.eye(5)[0], np.eye(5)[2])  # phi e1 = e3


def test_standard_point_trace_free():
    assert abs(np.trace(standard_point(3).phi)) == 0.0


def test_validation_flags_broken_phi():
    model = standard_point(2)
    broken = dataclasses.replace(model, phi=-np.eye(5))
    report = validate_structure(broken)
    assert not report.passed
    assert residual(report, "phi_squared") > 1e-6


def test_hprime_model_is_valid():
    report = validate_structure(_model_with_hprime())
    assert report.passed


def test_random_point_soundness():
    rng = np.random.default_rng(11)
    for seed in range(50):
        model = random_point(
            int(rng.choice([2, 3])),
            kappa=float(rng.uniform(-3, 3)),
            mu_contact=float(rng.uniform(-3, 3)),
            c=float(rng.uniform(-3, 3)),
            seed=seed,
            hprime_scale=float(rng.uniform(0, 2)),
        )
        assert validate_structure(model).passed


def test_random_point_determinism():
    a = random_point(2, 0.5, 1.0, 2.0, seed=42, hprime_scale=0.7)
    b = random_point(2, 0.5, 1.0, 2.0, seed=42, hprime_scale=0.7)
    assert np.array_equal(a.phi, b.phi)
    assert np.array_equal(a.hprime, b.hprime)


@pytest.mark.parametrize("m", [2.5, 2.0, True, "2"])
def test_model_rejects_a_non_integer_m(m):
    # m = 2.5 used to build, with d = 6.0 matching the (6, 6) arrays, and
    # validate_structure then escaped with a TypeError; True built an m = 1 model
    base = standard_point(2)
    with pytest.raises(DimensionMismatch, match="m must be an integer"):
        ContactPointModel(m=m, phi=base.phi, xi=base.xi, hprime=base.hprime,
                          kappa=1.0, mu_contact=0.0, c=1.0)


@pytest.mark.parametrize("m", [2.5, 2.0, True, "2", 0])
@pytest.mark.parametrize("build", [
    lambda m: standard_point(m),
    lambda m: random_point(m, 0.5, 1.0, 2.0, seed=4, hprime_scale=0.7),
], ids=["standard_point", "random_point"])
def test_point_builders_reject_a_bad_m(build, m):
    # standard_point(2.5) and random_point(2.5, ...) used to escape from
    # np.zeros with a TypeError; their phi builder now runs the model's check
    with pytest.raises(DimensionMismatch, match="^m must be an integer >= 1, got"):
        build(m)


_BAD_REALS = [np.nan, np.inf, -np.inf, True, "1", None, pytest.param(10 ** 400, id="10**400")]


@pytest.mark.parametrize("value", _BAD_REALS, ids=repr)
@pytest.mark.parametrize("field", ["kappa", "mu_contact", "c"])
def test_model_rejects_a_bad_scalar(field, value):
    # these used to build, and a non-finite one failed only later, as a
    # verdict's "non-finite side"
    base = standard_point(2)
    fields = dict(m=2, phi=base.phi, xi=base.xi, hprime=base.hprime,
                  kappa=1.0, mu_contact=0.0, c=1.0)
    with pytest.raises(ValueError, match=f"^{field} must be a finite number, got "):
        ContactPointModel(**{**fields, field: value})


def test_model_stores_its_scalars_as_checked():
    base = standard_point(2)
    model = ContactPointModel(m=np.int64(2), phi=base.phi, xi=base.xi, hprime=base.hprime,
                              kappa=np.float32(0.5), mu_contact=np.int64(1), c=1)
    assert [type(v) for v in (model.m, model.kappa, model.mu_contact, model.c)] == \
        [int, float, float, float]
    with pytest.raises(ValueError, match="^kappa must be a finite number, got nan$"):
        random_point(2, np.nan, 1.0, 2.0, seed=4, hprime_scale=0.7)


@pytest.mark.parametrize("kappa", [np.nan, np.inf, "x", None], ids=repr)
def test_random_point_checks_kappa_before_reading_it(kappa):
    # with strict_kmu, "x" used to raise TypeError from the kappa <= 1 test
    # and nan "hprime: entries must be finite", naming the derived h'
    with pytest.raises(ValueError, match="^kappa must be a finite number, got "):
        random_point(2, kappa, 1.0, 2.0, seed=1, hprime_scale=1.0, strict_kmu=True)


@pytest.mark.parametrize("tol", [np.nan, -1.0, np.inf, True, "1e-10", None], ids=repr)
def test_validate_structure_rejects_a_bad_tol(tol):
    # nan and -1 used to fail every axiom, True to pass as 1.0
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0, got "):
        validate_structure(standard_point(2), tol=tol)
    assert validate_structure(standard_point(2), tol=np.float32(1e-10)).passed


@pytest.mark.parametrize("seed", [1.5, True, -1, None, "4"], ids=repr)
def test_random_point_rejects_a_bad_seed(seed):
    # 1.5 and None used to raise numpy's TypeError, -1 its bare "expected
    # non-negative integer"; True ran as seed 1
    with pytest.raises(ValueError, match="^seed must be an integer >= 0, got "):
        random_point(2, 0.5, 1.0, 2.0, seed=seed, hprime_scale=0.7)
    one, other = (random_point(2, 0.5, 1.0, 2.0, seed=s, hprime_scale=0.7)
                  for s in (4, np.int64(4)))
    assert np.array_equal(one.phi, other.phi) and np.array_equal(one.hprime, other.hprime)


def test_random_point_builds_no_standard_point(monkeypatch):
    # the canonical phi and xi come from one small builder, not from a
    # throwaway validated model
    expected = random_point(3, 0.5, 1.0, 2.0, seed=42, hprime_scale=0.7)

    def no_model(*args):
        raise AssertionError("random_point built a standard_point")

    monkeypatch.setattr(ckv.contact, "standard_point", no_model)
    model = random_point(3, 0.5, 1.0, 2.0, seed=42, hprime_scale=0.7)
    for name in ("phi", "xi", "hprime"):
        assert getattr(model, name).tobytes() == getattr(expected, name).tobytes()


def test_random_point_zero_scale():
    model = random_point(2, 0.5, 1.0, 2.0, seed=1, hprime_scale=0.0)
    assert np.abs(model.hprime).max() == 0.0


def test_random_point_anticommutation():
    for seed in range(20):
        model = random_point(3, -1.0, 0.5, 2.0, seed=seed, hprime_scale=1.0)
        resid = np.abs(model.hprime @ model.phi + model.phi @ model.hprime).max()
        assert resid < 1e-12


def test_strict_kmu_identity():
    # a strict h' is sqrt(1 - kappa) Q J Q^T: the identity, every axiom, and
    # the spectrum of a symmetric involution of ker(eta) on every draw
    for m in (2, 3):
        spectrum = [-1.0] * m + [0.0] + [1.0] * m
        for kappa in (-2.0, 0.0, 0.5, 1.0):
            for seed in range(20):
                model = random_point(m, kappa, 0.3, 1.5, seed=seed, hprime_scale=1.0,
                                     strict_kmu=True)
                target = (kappa - 1.0) * (model.phi @ model.phi)
                assert np.abs(model.hprime @ model.hprime - target).max() < 1e-12
                assert validate_structure(model).passed
                if kappa == 1.0:
                    assert np.abs(model.hprime).max() == 0.0
                else:
                    w = np.linalg.eigvalsh(model.hprime / np.sqrt(1.0 - kappa))
                    assert np.abs(w - spectrum).max() < 1e-12
    with pytest.raises(ValueError):
        random_point(2, 1.5, 0.3, 1.5, seed=9, hprime_scale=1.0, strict_kmu=True)


@pytest.mark.parametrize("strict", ["no", "", 1, 0, None, np.float64(1.0)], ids=repr)
def test_random_point_takes_only_a_bool_strict_kmu(strict):
    # "no" used to draw a strict point, since any truthy object passed
    with pytest.raises(ValueError, match="^strict_kmu must be True or False, got "):
        random_point(2, 0.5, 0.0, 1.0, 1, 1.0, strict)
    flags = [random_point(2, 0.5, 0.0, 1.0, 1, 1.0, flag).hprime for flag in (np.True_, True)]
    assert flags[0].tobytes() == flags[1].tobytes()


def test_validate_structure_passes_exact_residuals_at_tol_zero():
    # every residual of the standard point is 0.0, which used to fail
    # tol = 0 because the axiom test was res < tol
    report = validate_structure(standard_point(2), tol=0.0)
    assert [check.max_residual for check in report.checks] == [0.0] * len(report.checks)
    assert report.passed


# --- the closed-form curvature, term group by term group -------------------
# Expected values computed by hand for the frame model above
# (c = 2.4, kappa = 0.3, mu = -1.7, s = 0.7):
#   coefficients (c+3)/4 = 1.35, (c+3-4k)/4 = 1.05, 3(c-1)/4 = 1.05.

GROUP_CASES = [
    # (X, Y, Z, W) as frame indices, expected six group values
    ((0, 1, 1, 0), (1.35, 0.0, 0.0, 0.245, 1.4, 0.0)),
    ((4, 0, 4, 0), (-1.35, 1.05, 0.0, 0.0, 0.0, 1.19)),
    ((0, 2, 2, 0), (1.35, 0.0, 1.05, 0.0, 0.0, 0.0)),
    ((0, 4, 0, 4), (-1.35, 1.05, 0.0, 0.0, 0.0, 1.19)),
]


@pytest.mark.parametrize("indices,expected", GROUP_CASES)
def test_curvature_term_groups(indices, expected):
    model = _model_with_hprime()
    e = np.eye(5)
    groups = _curvature_lc_groups(model, *(e[i] for i in indices))
    assert np.allclose(groups, expected, atol=1e-14), groups


def test_curvature_antisymmetry_in_xy():
    model = _model_with_hprime()
    rng = np.random.default_rng(12)
    for _ in range(30):
        X, Y, Z, W = rng.standard_normal((4, 5))
        left = curvature_lc(model, X, Y, Z, W)
        right = -curvature_lc(model, Y, X, Z, W)
        assert abs(left - right) < 1e-12 * (1 + abs(left))


def test_curvature_degenerate_xy():
    model = _model_with_hprime()
    rng = np.random.default_rng(13)
    X, Z, W = rng.standard_normal((3, 5))
    assert abs(curvature_lc(model, X, X, Z, W)) < 1e-13


def _kmu_models(count):
    # kappa, mu, c in [-3, 1]; h' of random scale, not tied to kappa
    rng = np.random.default_rng(41)
    for seed in range(count):
        kappa, mu, c = rng.uniform(-3.0, 1.0, 3)
        yield rng, random_point(int(rng.choice([2, 3])), float(kappa), float(mu), float(c),
                                seed=seed, hprime_scale=float(rng.uniform(0, 2)))


def test_curvature_pair_symmetry_and_first_bianchi():
    # with antisymmetry in (X, Y) and the phi-sectional value c these
    # identities make curvature_lc a curvature tensor of the space form
    for rng, model in _kmu_models(40):
        for _ in range(5):
            X, Y, Z, W = rng.standard_normal((4, model.dim))
            xyzw, zwxy = curvature_lc(model, X, Y, Z, W), curvature_lc(model, Z, W, X, Y)
            yzxw, zxyw = curvature_lc(model, Y, Z, X, W), curvature_lc(model, Z, X, Y, W)
            scale = 1.0 + max(abs(xyzw), abs(zwxy), abs(yzxw), abs(zxyw))
            assert abs(xyzw - zwxy) < 1e-12 * scale
            assert abs(xyzw + yzxw + zxyw) < 1e-12 * scale


def test_curvature_kmu_nullity():
    # R(X,Y)xi = kappa (eta(Y) X - eta(X) Y) + mu (eta(Y) h'X - eta(X) h'Y)
    # (Blair, Koufogiorgos and Papantoniou, Israel J. Math. 91, 1995)
    for rng, model in _kmu_models(40):
        xi, hp = model.xi, model.hprime
        for _ in range(5):
            X, Y, W = rng.standard_normal((3, model.dim))
            ex, ey = xi @ X, xi @ Y
            nullity = (model.kappa * (ey * (X @ W) - ex * (Y @ W))
                       + model.mu_contact * (ey * (hp @ X @ W) - ex * (hp @ Y @ W)))
            value = curvature_lc(model, X, Y, xi, W)
            assert abs(value - nullity) < 1e-12 * (1.0 + abs(value) + abs(nullity))


def test_sasakian_reduction_unit_curvature():
    # h' = 0, kappa = 1, c = 1: constant curvature one
    model = standard_point(2)
    rng = np.random.default_rng(14)
    for _ in range(20):
        pair = rng.standard_normal((2, 5))
        q, _ = np.linalg.qr(pair.T)
        v1, v2 = q.T[0], q.T[1]
        val = curvature_lc(model, v1, v2, v2, v1)
        assert abs(val - 1.0) < 1e-12


def test_phi_sectional_equals_c():
    rng = np.random.default_rng(15)
    for seed in range(50):
        c = float(rng.uniform(-3, 3))
        model = random_point(
            int(rng.choice([2, 3])), float(rng.uniform(-3, 3)),
            float(rng.uniform(-3, 3)), c, seed=seed, hprime_scale=0.0,
        )
        v = rng.standard_normal(model.dim)
        v -= (v @ model.xi) * model.xi
        v /= np.linalg.norm(v)
        val = curvature_lc(model, v, model.phi @ v, model.phi @ v, v)
        assert abs(val - c) < 1e-10


def test_explicit_value_c5():
    # c = 5, kappa = 1, h' = 0: phi-sectional value 5 on a coordinate direction
    model = dataclasses.replace(standard_point(2), c=5.0)
    e = np.eye(5)
    val = curvature_lc(model, e[0], model.phi @ e[0], model.phi @ e[0], e[0])
    assert abs(val - 5.0) < 1e-12
