import numpy as np
import pytest

from ckv.connections import first_connection, second_connection
from ckv.contact import random_point, standard_point
from ckv.errors import MissingArgument, WrongConnectionKind
from ckv.frames import Plane, complete_frame, orthonormalize
from ckv.fuzz import FuzzConfig, random_scenario
from ckv.scenario import parse_scenario
from ckv.submanifold import attach, casorati
from ckv.verifier import (
    THEOREMS_FIRST,
    algebraic_bounds_check,
    applicable_theorems,
    chen_bound_batch,
    cross_check,
    equality_instance,
    plane_invariants,
    ricci_bound_batch,
    verify,
)

E5 = np.eye(5)


def _zero_spec(d=5):
    return first_connection(0.0, 0.0, np.zeros(d), np.zeros((d, d)))


def _random_sub(seed, kind, n=None, m=None):
    rng = np.random.default_rng(seed)
    m = m if m is not None else int(rng.choice([2, 3]))
    n = n if n is not None else int(rng.choice([3, 4]))
    d = 2 * m + 1
    model = random_point(
        m, float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)),
        float(rng.uniform(-3, 3)), seed=seed, hprime_scale=float(rng.uniform(0, 1)),
    )
    P = rng.standard_normal(d) * rng.uniform(0, 0.7)
    D = rng.standard_normal((d, d)) * rng.uniform(0, 0.4)
    if kind == 1:
        spec = first_connection(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), P, D)
    else:
        spec = second_connection(float(rng.uniform(-3, 3)), float(rng.uniform(-3, 3)), P, D)
    p = d - n
    hhat = rng.standard_normal((p, n, n))
    hhat = (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    hhat *= rng.uniform(0, 2) / max(np.linalg.norm(hhat), 1e-12)
    return attach(model, spec, rng.standard_normal((n, d)), hhat)


# --- plane invariants ---------------------------------------------------------

def test_plane_invariants_xi_normal():
    # tangent frame orthogonal to xi: gamma and theta vanish for every plane
    sub = attach(standard_point(2), _zero_spec(), E5[:3], np.zeros((2, 3, 3)))
    rng = np.random.default_rng(50)
    for _ in range(5):
        basis = orthonormalize(rng.standard_normal((2, 3))) @ sub.tangent
        pi = plane_invariants(sub, Plane(basis[0], basis[1]))
        assert abs(pi.gamma) < 1e-13 and abs(pi.theta) < 1e-13


def test_plane_invariants_xi_in_plane():
    sub = attach(standard_point(2), _zero_spec(), E5[[0, 1, 4]], np.zeros((2, 3, 3)))
    pi = plane_invariants(sub, Plane(E5[0], E5[4]))
    assert abs(pi.gamma - 1.0) < 1e-13


def test_plane_invariants_rotation_invariance():
    sub = _random_sub(51, 1, n=4, m=3)
    plane = Plane(sub.tangent[0], sub.tangent[2])
    base = plane_invariants(sub, plane)
    rng = np.random.default_rng(52)
    for _ in range(50):
        rotated = plane.rotated(rng.uniform(0, 2 * np.pi))
        other = plane_invariants(sub, rotated)
        for name in base.__dataclass_fields__:
            a, b = getattr(base, name), getattr(other, name)
            assert abs(a - b) < 1e-10 * (1 + abs(a)), name


# --- verify: worked equality instance -----------------------------------------

def test_verify_31_equality_example():
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    verdict = verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    assert abs(verdict.lhs - 6.0) < 1e-12
    assert abs(verdict.rhs - 6.0) < 1e-12
    assert abs(verdict.slack) < 1e-12 and verdict.holds


def test_verify_35i_equality_example():
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    verdict = verify(sub, "3.5i")
    assert abs(verdict.lhs - 16.0) < 1e-12
    assert abs(verdict.rhs - 16.0) < 1e-6
    assert abs(verdict.slack) < 1e-6


def test_verify_33_strict_example():
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    verdict = verify(sub, "3.3", X=sub.tangent[0])
    assert abs(verdict.lhs - 5.0) < 1e-12
    assert abs(verdict.rhs - 6.0) < 1e-12
    assert abs(verdict.slack - 1.0) < 1e-12 and verdict.holds


def test_verify_requires_arguments():
    sub = equality_instance("cor32")
    with pytest.raises(MissingArgument):
        verify(sub, "3.1")
    with pytest.raises(MissingArgument):
        verify(sub, "3.3")


def test_verify_wrong_kind():
    sub = equality_instance("cor32")
    with pytest.raises(WrongConnectionKind):
        verify(sub, "4.1", plane=Plane(sub.tangent[0], sub.tangent[1]))


def test_verify_unknown_id():
    sub = equality_instance("cor32")
    with pytest.raises(ValueError):
        verify(sub, "5.1")


@pytest.mark.parametrize("tol", [-1e-3, float("nan"), float("inf"), -float("inf")])
def test_verify_rejects_bad_tol(tol):
    # a negative or NaN tol used to turn this exact witness into a violation
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    with pytest.raises(ValueError, match="tol"):
        verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]), tol=tol)


def _overflowing_sub(which):
    hhat = np.zeros((2, 3, 3))
    hhat[0] = np.diag([1.0, 1.0, 2.0])
    if which == "hhat":
        hhat[0, 0, 0] = 1e200
    model = standard_point(2, c=1e308 if which == "c" else 1.0)
    return attach(model, _zero_spec(), E5[:3], hhat)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("which", ["hhat", "c"])
@pytest.mark.parametrize("tid", THEOREMS_FIRST)
def test_verify_raises_on_non_finite_sides(which, tid):
    # overflowed data used to give NaN slacks or an infinite slack that "held"
    sub = _overflowing_sub(which)
    with pytest.raises(ValueError):
        verify(sub, tid, plane=Plane(E5[0], E5[1]), X=E5[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n,k", [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)])
def test_theta_overflow_is_named(n, k):
    # c = 1e308 used to reach eigvalsh and fail with "Eigenvalues did not converge"
    hhat = np.zeros((5 - n, n, n))
    hhat[0] = np.diag(np.arange(1.0, n + 1))
    sub = attach(standard_point(2, c=1e308), _zero_spec(), E5[:n], hhat)
    with pytest.raises(ValueError, match="overflows") as info:
        verify(sub, "3.4", k=k)
    assert not isinstance(info.value, np.linalg.LinAlgError)


# --- equality witnesses --------------------------------------------------------

@pytest.mark.parametrize("case,tid,params", [
    ("cor32", "3.1", {"h11": 1.0, "h22": 1.0}),
    ("cor32", "3.1", {"h11": 0.4, "h22": -1.1, "b1": 0.8, "b2": -0.3}),
    ("thm35_i", "3.5i", {"a": 1.0}),
    ("thm35_i", "3.5i", {"a": -0.7}),
    ("thm35_i", "3.5i", {"a": 0.0}),
    ("thm35_ii", "3.5ii", {"a": 1.3}),
])
@pytest.mark.parametrize("n", [3, 4])
def test_equality_witness_slack_zero(case, tid, params, n):
    sub = equality_instance(case, n, dict(params), seed=n)
    plane = Plane(sub.tangent[0], sub.tangent[1]) if tid == "3.1" else None
    verdict = verify(sub, tid, plane=plane)
    assert abs(verdict.slack) < 1e-8, (case, n, verdict.slack)
    if case.startswith("thm35"):
        assert verdict.diagnostics["shape_match"]


def test_equality_witness_rejects_junk_params():
    with pytest.raises(ValueError):
        equality_instance("thm35_i", 3, {"a": 1.0, "zzz": 2.0})
    with pytest.raises(ValueError):
        equality_instance("nope")


def test_shape_match_rejects_generic_data():
    sub = _random_sub(60, 1, n=3, m=2)
    verdict = verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    assert verdict.diagnostics["shape_match"] is False
    verdict = verify(sub, "3.5i")
    assert verdict.diagnostics["shape_match"] is False


def test_verify_34_exact_mode_on_witness():
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    verdict = verify(sub, "3.4")
    assert verdict.diagnostics["theta_mode"] == "exact_eigen"
    assert verdict.holds


def test_verify_34_estimate_mode_runs_proof_chain():
    sub = _random_sub(53, 1, n=4, m=3)
    verdict = verify(sub, "3.4", k=3)
    diag = verdict.diagnostics
    assert diag["theta_mode"] == "multistart"
    assert diag["identity_residual"] < 1e-9
    assert diag["cauchy_schwarz_slack"] > -1e-10
    assert "theta_advisory" in diag and "theta_exact_k_n" in diag
    assert verdict.holds


# --- algebraic bounds -----------------------------------------------------------

def test_bounds_zero():
    check = algebraic_bounds_check(np.zeros((3, 3)), "chen")
    assert check.lhs == 0.0 and check.rhs == 0.0 and check.holds


def test_bounds_equality_case():
    check = algebraic_bounds_check(np.diag([1.0, 1.0, 2.0]), "chen")
    assert abs(check.lhs - 4.0) < 1e-13
    assert abs(check.rhs - 4.0) < 1e-13
    assert abs(check.lhs - check.rhs) < 1e-12


def test_bounds_random_fuzz_small():
    rng = np.random.default_rng(54)
    for n in (3, 4, 5):
        h = rng.standard_normal((2000, 2, n, n))
        h = (h + np.transpose(h, (0, 1, 3, 2))) / 2.0
        assert chen_bound_batch(h).min() > -1e-10
        assert ricci_bound_batch(h).min() > -1e-10


def test_bounds_batch_matches_scalar():
    rng = np.random.default_rng(55)
    h = rng.standard_normal((1, 2, 4, 4))
    h = (h + np.transpose(h, (0, 1, 3, 2))) / 2.0
    chen = algebraic_bounds_check(h[0], "chen")
    assert abs(chen_bound_batch(h)[0] - (chen.rhs - chen.lhs)) < 1e-12
    ric = algebraic_bounds_check(h[0], "ricci")
    assert abs(ricci_bound_batch(h)[0] - (ric.rhs - ric.lhs)) < 1e-12


def test_bounds_input_validation():
    with pytest.raises(ValueError):
        algebraic_bounds_check(np.array([[0.0, 1.0], [0.0, 0.0]]), "chen")
    with pytest.raises(ValueError):
        algebraic_bounds_check(np.zeros((2, 2)), "chen")  # chen needs n >= 3
    with pytest.raises(ValueError):
        algebraic_bounds_check(np.zeros((3, 3)), "nope")


# --- the algebraic reductions of the proofs --------------------------------------

@pytest.mark.parametrize("kind", [1, 2])
def test_slacks_reduce_to_algebraic_bounds(kind):
    # Only the Gauss part of each inequality survives: its slack is the
    # algebraic bound on h that the proof applies, in an adapted frame.
    chen_id, ricci_id, _, casorati_id, _ = applicable_theorems(kind)
    rng = np.random.default_rng(61)
    for index in range(30):
        sub = parse_scenario(random_scenario(index, FuzzConfig(seed=62, kind=kind))).sub
        n = sub.n

        def adapted(rows):
            frame = np.vstack([rows, complete_frame(rows)])
            return np.einsum("ia,rab,jb->rij", frame, sub.h, frame)

        def close(verdict, expected):
            bound = 1e-12 * (1 + abs(verdict.lhs) + abs(verdict.rhs))
            assert abs(verdict.slack - expected) <= bound, (kind, index, verdict.theorem_id)

        basis = orthonormalize(rng.standard_normal((2, n)))
        plane = Plane(basis[0] @ sub.tangent, basis[1] @ sub.tangent)
        close(verify(sub, chen_id, plane=plane), chen_bound_batch(adapted(basis)[None])[0])

        x = orthonormalize(rng.standard_normal((1, n)))
        h_x = adapted(x)
        close(verify(sub, ricci_id, X=x[0] @ sub.tangent),
              ricci_bound_batch(h_x[None])[0] + np.sum(h_x[:, 0, 1:] ** 2))

        gauss = n ** 2 * sub.mean_curvature_sq - sub.h_norm_sq
        close(verify(sub, casorati_id), n * (n - 1) * casorati(sub).delta_c - gauss)


# --- cross checks ----------------------------------------------------------------

def test_cross_check_zero_spec_machine_precision():
    sub = attach(standard_point(2), _zero_spec(), E5[:3], np.zeros((2, 3, 3)))
    report = cross_check(sub)
    assert report.max_residual < 1e-13
    assert report.q_min > -1e-13


@pytest.mark.parametrize("kind", [1, 2])
def test_cross_check_fuzzed(kind):
    for seed in range(25):
        sub = _random_sub(1000 + seed, kind)
        report = cross_check(sub)
        assert report.max_residual < 1e-9, (seed, report.residuals)
        assert report.q_min > -1e-8, seed
        assert report.cauchy_schwarz_slack > -1e-8


# --- full verdict sweep -----------------------------------------------------------

@pytest.mark.parametrize("kind", [1, 2])
def test_all_theorems_hold_on_random_instances(kind):
    for seed in range(20):
        sub = _random_sub(2000 + seed, kind)
        plane = Plane(sub.tangent[0], sub.tangent[1])
        X = sub.tangent[0]
        for tid in applicable_theorems(kind):
            verdict = verify(sub, tid, plane=plane, X=X)
            assert verdict.holds, (tid, seed, verdict.slack)


def test_verify_invariant_under_frame_rotation():
    # same geometric data, rotated tangent frame: verdicts must not move
    rng = np.random.default_rng(56)
    sub = _random_sub(57, 1, n=3, m=2)
    rot = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    tangent2 = rot @ sub.tangent
    hhat2 = np.einsum("ia,rab,jb->rij", rot, sub.hhat, rot)
    sub2 = attach(sub.model, sub.spec, tangent2, hhat2)
    assert np.abs(sub2.normal - sub.normal).max() < 1e-9

    plane = Plane(sub.tangent[0], sub.tangent[1])
    X = sub.tangent[2]
    for tid in applicable_theorems(1):
        v1 = verify(sub, tid, plane=plane, X=X)
        v2 = verify(sub2, tid, plane=plane, X=X)
        assert abs(v1.lhs - v2.lhs) < 1e-9 * (1 + abs(v1.lhs)), tid
        assert abs(v1.rhs - v2.rhs) < 1e-9 * (1 + abs(v1.rhs)), tid


def test_second_kind_verdicts_invariant_in_a():
    rng = np.random.default_rng(58)
    model = random_point(2, 1.4, -0.5, 0.8, seed=3, hprime_scale=0.5)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    basis = rng.standard_normal((3, 5))
    hhat = rng.standard_normal((2, 3, 3))
    hhat = (hhat + np.transpose(hhat, (0, 2, 1))) / 2.0
    verdicts = []
    for a in (0.0, 1.0, -3.0):
        sub = attach(model, second_connection(a, -0.9, P, D), basis, hhat)
        plane = Plane(sub.tangent[0], sub.tangent[1])
        verdicts.append([
            verify(sub, tid, plane=plane, X=sub.tangent[0])
            for tid in applicable_theorems(2)
        ])
    for row in verdicts[1:]:
        for v0, v in zip(verdicts[0], row):
            assert abs(v0.lhs - v.lhs) < 1e-12 * (1 + abs(v0.lhs))
            assert abs(v0.rhs - v.rhs) < 1e-12 * (1 + abs(v0.rhs))

