"""The finite-difference Riemannian Newton refine of ``ckv.spheresearch``
on functions whose minimum is known, smooth and not, one objective and
several at once."""

import numpy as np
import pytest

from ckv.fuzz import FuzzConfig, random_scenario
from ckv.scenario import parse_scenario
from ckv.spheresearch import refine_on_sphere, sphere_samples
from ckv.submanifold import _partial_ricci_min
from oracles import refine_one


class Counted:
    """``f_batch`` wrapper that counts its calls."""

    def __init__(self, f):
        self.f, self.calls = f, 0

    def __call__(self, U):
        self.calls += 1
        return self.f(U)


def _rayleigh(Q):
    return lambda U: np.einsum("ki,ij,kj->k", U, Q, U)


def _test_functions():
    rng = np.random.default_rng(83)
    for n in (3, 4, 5, 6):
        A = rng.standard_normal((n, n))
        yield f"rayleigh{n}", _rayleigh(A + A.T), rng.standard_normal(n)
    a = rng.standard_normal(4)
    # minimized on a whole great sphere, where it has a kink
    yield "kink", lambda U: np.abs(U @ a), rng.standard_normal(4)
    yield "max", lambda U: np.max(U, axis=1), rng.standard_normal(4)
    for kind, k in ((1, 2), (2, 3)):
        sub = parse_scenario(random_scenario(5, FuzzConfig(seed=71, kind=kind, n=4))).sub
        yield f"theta{k}", lambda U, sub=sub, k=k: _partial_ricci_min(sub, U, k), sphere_samples(4)[0]


@pytest.mark.parametrize("f, u0", [pytest.param(f, u0, id=name) for name, f, u0 in _test_functions()])
def test_refine_returns_an_attained_value_below_the_start(f, u0):
    u, value = refine_one(f, u0)
    assert abs(np.linalg.norm(u) - 1.0) < 1e-15
    attained = float(f(u[None, :])[0])
    assert abs(value - attained) <= 1e-13 * (1.0 + abs(attained))
    start = float(f((u0 / np.linalg.norm(u0))[None, :])[0])
    assert value <= start


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_refine_reaches_the_least_eigenvalue_in_few_calls(n):
    rng = np.random.default_rng(89 + n)
    for _ in range(10):
        A = rng.standard_normal((n, n)) * rng.uniform(0.1, 10.0)
        Q = (A + A.T) / 2.0
        f = Counted(_rayleigh(Q))
        start = sphere_samples(n)[int(np.argmin(_rayleigh(Q)(sphere_samples(n))))]
        _, value = refine_one(f, start)
        assert abs(value - np.linalg.eigvalsh(Q)[0]) <= 1e-12 * (1.0 + abs(value))
        assert f.calls <= 20


@pytest.mark.parametrize("f, u0, least", [
    (_rayleigh(np.diag([-1.0, 0.5, 2.0, 3.0])), np.array([1.0, 0.0, 0.0, 0.0]), -1.0),
    # a kink: the stencil sees a slope, but no step lowers the value
    (lambda U: np.max(U, axis=1), -np.ones(4), -0.5),
], ids=["rayleigh", "kink"])
def test_refine_keeps_a_minimizer(f, u0, least):
    u, value = refine_one(f, u0)
    assert value == least and np.array_equal(u, u0 / np.linalg.norm(u0))


def _quartic_wells(bad):
    """-sum_i w_i u_i^4 with w = (1, 2, 3): local minima -w_i at +/- e_i,
    and ``bad`` wherever u_0 > 0.9."""
    w = np.array([1.0, 2.0, 3.0])

    def f(U):
        vals = -(U ** 4) @ w
        vals[U[:, 0] > 0.9] = bad
        return vals
    return f


def test_refine_from_several_starts_returns_the_least_row():
    f = _quartic_wells(-1.0)
    starts = np.array([[0.3, 0.9, 0.2], [0.2, 0.3, 0.9], [0.8, 0.2, 0.3], [0.1, 0.95, 0.1]])
    singles = [refine_one(f, u0) for u0 in starts]
    u, value = refine_one(f, starts)
    least = min(v for _, v in singles)
    assert abs(least + 3.0) <= 1e-12 and abs(value - least) <= 1e-13
    assert value == float(f(u[None, :])[0]) and abs(abs(u[2]) - 1.0) < 1e-6


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_refine_never_returns_a_non_finite_start(bad):
    f = _quartic_wells(bad)
    starts = np.array([[1.0, 0.1, 0.1], [0.3, 0.9, 0.2], [0.95, 0.0, 0.2]])
    with np.errstate(invalid="ignore"):
        u, value = refine_one(f, starts)
        assert abs(value + 2.0) <= 1e-12 and abs(abs(u[1]) - 1.0) < 1e-6
        # with no finite start, the first row comes back as it is
        u, value = refine_one(f, starts[[0, 2]])
    assert np.array_equal(u, starts[0] / np.linalg.norm(starts[0]))
    assert value == float(f(u[None, :])[0]) or np.isnan(value)


def _rayleigh_columns(Qs):
    """The K quadratic forms u^T Q_g u, one column each, evaluated row by
    row, so no row's value depends on the others."""
    return lambda U: (U[:, None, :, None] * Qs[None] * U[:, None, None, :]).sum(axis=(2, 3))


def test_columns_refine_as_their_one_column_calls():
    # K quadratic forms u^T A_g u as the columns of one refine: each column
    # returns, bit for bit, what a refine of that column alone returns, a
    # column with no finite start returns its first start as it is, and each
    # stage evaluates every column's rows in one call
    rng = np.random.default_rng(103)
    A = rng.standard_normal((3, 4, 4))
    A = (A + A.transpose(0, 2, 1)) / 2.0

    def forms(U):
        vals = _rayleigh_columns(A)(U)
        vals[U[:, 0] > 0.9, 2] = np.inf
        return vals
    starts = rng.standard_normal((3, 4, 4))
    starts[2, :, 0] = 10.0   # every start of column 2 has u_0 > 0.9
    merged = Counted(forms)
    columns = [Counted(lambda X, g=g: forms(X)[:, g]) for g in range(3)]
    with np.errstate(invalid="ignore"):
        U, F = refine_on_sphere(merged, starts)
        singles = [refine_one(columns[g], starts[g]) for g in range(3)]
    assert merged.calls == max(f.calls for f in columns)
    assert U.shape == (3, 4) and F.shape == (3,)
    for g, (u, value) in enumerate(singles):
        assert np.array_equal(U[g], u) and F[g] == value, g
    assert np.isfinite(F[:2]).all() and F[2] == np.inf
    assert np.array_equal(U[2], starts[2, 0] / np.linalg.norm(starts[2, 0]))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_refine_reaches_each_columns_least_eigenvalue(n):
    # one random start per column: Newton on the stencil's derivatives
    # reaches each column's least eigenvalue, at a unit row attaining it
    rng = np.random.default_rng(97 + n)
    A = rng.standard_normal((6, n, n)) * rng.uniform(0.1, 10.0, (6, 1, 1))
    Qs = (A + A.transpose(0, 2, 1)) / 2.0
    forms = _rayleigh_columns(Qs)
    U, f = refine_on_sphere(forms, rng.standard_normal((6, 1, n)))
    lam = np.linalg.eigvalsh(Qs)[:, 0]
    assert np.all(np.abs(f - lam) <= 1e-12 * (1.0 + np.abs(lam)))
    assert np.allclose(np.linalg.norm(U, axis=1), 1.0, rtol=0.0, atol=1e-15)
    assert np.array_equal(f, np.diagonal(forms(U)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_refine_leaves_a_non_finite_column_and_converges_the_others(bad):
    rng = np.random.default_rng(101)
    A = rng.standard_normal((3, 4, 4))
    Qs = (A + A.transpose(0, 2, 1)) / 2.0
    Qs[1, 0, 0] = bad
    starts = rng.standard_normal((3, 1, 4))
    with np.errstate(invalid="ignore"):
        U, f = refine_on_sphere(_rayleigh_columns(Qs), starts)
    assert np.array_equal(U[1], starts[1, 0] / np.linalg.norm(starts[1, 0]))
    assert not np.isfinite(f[1])
    lam = np.linalg.eigvalsh(Qs[[0, 2]])[:, 0]
    assert np.all(np.abs(f[[0, 2]] - lam) <= 1e-12 * (1.0 + np.abs(lam)))
