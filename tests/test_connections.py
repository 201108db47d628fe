import numpy as np
import pytest

from ckv.connections import (
    ConnectionSpec,
    ambient_curvature,
    correction_tensors,
    first_connection,
    second_connection,
)
from ckv.contact import curvature_lc, random_point


def test_spec_validation():
    P, D = np.zeros(5), np.zeros((5, 5))
    with pytest.raises(ValueError):
        first_connection(None, 1.0, P, D)
    spec = second_connection(1.0, 2.0, P, D)
    assert spec.lambda1 is None and spec.lambda2 is None


@pytest.mark.parametrize("kind,params,message", [
    (3, {"a": 1.0, "b": 2.0}, "connection kind must be 1 or 2, got 3"),
    ([1], {"lambda1": 1.0, "lambda2": 2.0}, r"connection kind must be 1 or 2, got \[1\]"),
    (1, {"lambda1": 1.0}, "kind-1 connection needs lambda1 and lambda2"),
    (2, {"b": 2.0}, "kind-2 connection needs a and b"),
    (1, {"lambda1": 1.0, "lambda2": 2.0, "b": 0.0}, r"kind-1 connection must not carry \(a, b\)"),
    (2, {"a": 1.0, "b": 2.0, "lambda1": 0.0},
     r"kind-2 connection must not carry \(lambda1, lambda2\)"),
], ids=["kind-3", "kind-list", "missing-1", "missing-2", "foreign-1", "foreign-2"])
def test_spec_validation_reads_the_parameter_table(kind, params, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConnectionSpec(kind, np.zeros(5), np.zeros((5, 5)), **params)


@pytest.mark.parametrize("value", [np.nan, -np.inf, True, "1", pytest.param(10 ** 400, id="10**400")],
                         ids=repr)
def test_spec_rejects_a_bad_parameter(value):
    # these used to build, and a NaN failed only later, as a verdict's
    # "non-finite side"
    P, D = np.zeros(5), np.zeros((5, 5))
    with pytest.raises(ValueError, match="^lambda2 must be a finite number, got "):
        first_connection(1.0, value, P, D)
    with pytest.raises(ValueError, match="^a must be a finite number, got "):
        second_connection(value, 1.0, P, D)


def test_corrections_zero_data():
    spec = first_connection(1.5, -0.5, np.zeros(5), np.zeros((5, 5)))
    ct = correction_tensors(spec)
    assert np.abs(ct.alpha).max() == 0.0
    assert np.abs(ct.beta).max() == 0.0


def test_corrections_worked_example():
    # dim 5, P = e1, D = 0, lambda1 = 2, lambda2 = 1
    P = np.eye(5)[0]
    ct = correction_tensors(first_connection(2.0, 1.0, P, np.zeros((5, 5))))
    assert abs(ct.alpha[0, 0] + 1.5) < 1e-14
    assert abs(ct.alpha[1, 1] - 0.5) < 1e-14
    assert abs(ct.beta[0, 0] - 1.5) < 1e-14
    assert abs(np.trace(ct.beta) - 3.5) < 1e-13
    assert np.abs(ct.beta - ct.beta.T).max() == 0.0


def test_corrections_pure_derivative():
    # P = 0, D != 0: alpha = D exactly, beta = 0
    rng = np.random.default_rng(20)
    D = rng.standard_normal((5, 5))
    ct = correction_tensors(first_connection(2.0, 1.0, np.zeros(5), D))
    assert np.array_equal(ct.alpha, D)
    assert np.abs(ct.beta).max() == 0.0


def _random_setup(seed, kind):
    rng = np.random.default_rng(seed)
    model = random_point(2, 0.4, -0.8, 1.7, seed=seed, hprime_scale=0.6)
    P = rng.standard_normal(5)
    D = rng.standard_normal((5, 5))
    if kind == 1:
        spec = first_connection(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), P, D)
    else:
        spec = second_connection(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), P, D)
    return model, spec, rng


def test_zero_parameters_reduce_to_levi_civita():
    rng = np.random.default_rng(21)
    model = random_point(2, 0.4, -0.8, 1.7, seed=3, hprime_scale=0.6)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    for spec in (first_connection(0.0, 0.0, P, D), second_connection(0.0, 0.0, P, D)):
        for _ in range(10):
            args = rng.standard_normal((4, 5))
            assert abs(
                ambient_curvature(model, spec, *args) - curvature_lc(model, *args)
            ) < 1e-12


def test_second_kind_a_independent_on_frame_pairs():
    # the a-terms carry g(Z, W), which vanishes on (e_i, e_j, e_j, e_i), i != j
    rng = np.random.default_rng(22)
    model = random_point(2, 1.1, 0.3, -2.0, seed=5, hprime_scale=0.9)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    e = np.eye(5)
    vals = []
    for a in (0.0, 1.0, -3.0):
        spec = second_connection(a, 1.25, P, D)
        vals.append([
            ambient_curvature(model, spec, e[i], e[j], e[j], e[i])
            for i in range(5) for j in range(5) if i != j
        ])
    assert np.abs(np.array(vals[0]) - np.array(vals[1])).max() < 1e-12
    assert np.abs(np.array(vals[0]) - np.array(vals[2])).max() < 1e-12


def test_semi_symmetric_metric_specialization():
    # lambda1 = lambda2 = 1 kills the beta block: compare against an
    # independent assembly with the beta block deleted.
    model, _, rng = _random_setup(23, 1)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    spec = first_connection(1.0, 1.0, P, D)
    ct = correction_tensors(spec)

    def no_beta(X, Y, Z, W):
        al = lambda u, v: float(u @ ct.alpha @ v)
        return (
            curvature_lc(model, X, Y, Z, W)
            + al(X, Z) * (Y @ W) - al(Y, Z) * (X @ W)
            + (X @ Z) * al(Y, W) - (Y @ Z) * al(X, W)
        )

    for _ in range(20):
        args = rng.standard_normal((4, 5))
        assert abs(ambient_curvature(model, spec, *args) - no_beta(*args)) < 1e-12


def test_lambda2_zero_reduction_shape():
    # lambda2 = 0: only the alpha(., Z) g(., W) pair survives
    model, _, rng = _random_setup(24, 1)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    l1 = 1.75
    spec = first_connection(l1, 0.0, P, D)
    ct = correction_tensors(spec)

    def reduced(X, Y, Z, W):
        al = lambda u, v: float(u @ ct.alpha @ v)
        return curvature_lc(model, X, Y, Z, W) + l1 * (al(X, Z) * (Y @ W) - al(Y, Z) * (X @ W))

    for _ in range(20):
        args = rng.standard_normal((4, 5))
        assert abs(ambient_curvature(model, spec, *args) - reduced(*args)) < 1e-12


@pytest.mark.parametrize("kind", [1, 2])
def test_antisymmetry_in_first_pair(kind):
    model, spec, rng = _random_setup(25 + kind, kind)
    for _ in range(30):
        X, Y, Z, W = rng.standard_normal((4, 5))
        left = ambient_curvature(model, spec, X, Y, Z, W)
        right = -ambient_curvature(model, spec, Y, X, Z, W)
        assert abs(left - right) < 1e-12 * (1 + abs(left))


@pytest.mark.parametrize("kind", [1, 2])
def test_multilinearity(kind):
    model, spec, rng = _random_setup(28 + kind, kind)
    base = rng.standard_normal((4, 5))
    for slot in range(4):
        u, v = rng.standard_normal((2, 5))
        s, t = rng.uniform(-2, 2, 2)
        args_u = [base[i] if i != slot else u for i in range(4)]
        args_v = [base[i] if i != slot else v for i in range(4)]
        args_mix = [base[i] if i != slot else s * u + t * v for i in range(4)]
        lin = s * ambient_curvature(model, spec, *args_u) + t * ambient_curvature(model, spec, *args_v)
        direct = ambient_curvature(model, spec, *args_mix)
        assert abs(lin - direct) < 1e-10 * (1 + abs(direct))
