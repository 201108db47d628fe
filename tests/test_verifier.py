import dataclasses
import json
import re

import numpy as np
import pytest

from ckv import submanifold, verifier
from ckv.connections import first_connection, second_connection
from ckv.contact import random_point, standard_point
from ckv.errors import MissingArgument, WrongConnectionKind
from ckv.frames import Plane, complete_frame, orthonormalize
from ckv.fuzz import FuzzConfig, _checks_for, _random_parts, random_scenario, run_fuzz
from ckv.scenario import parse_scenario
from ckv.submanifold import (_Quartic, _attach_frame, attach, casorati, casorati_bounds,
                             scalar_tau, theta_k)
from ckv.verifier import (
    CROSS_TOL,
    DEFAULT_TOL,
    THEOREMS,
    THEOREMS_FIRST,
    applicable_theorems,
    cross_check,
    decide,
    equality_instance,
    theorem_ids_problem,
    verify,
    _adapted_block_match,
    _cross_sample,
    _pair_nongauss,
)
from oracles import (
    adapted_block_match_by_frame,
    algebraic_bounds_check,
    chen_bound_batch,
    pair_nongauss_elementwise,
    ricci_bound_batch,
    ricci_nongauss_by_frame,
    rotated,
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

def _plane_invariants(sub, plane):
    """The plane invariants 3.1 reports for a kind-1 point."""
    return verify(sub, "3.1", plane=plane).diagnostics["plane_invariants"]


def test_plane_invariants_xi_normal():
    # tangent frame orthogonal to xi: gamma and theta vanish for every plane
    sub = attach(standard_point(2), _zero_spec(), E5[:3], np.zeros((2, 3, 3)))
    rng = np.random.default_rng(50)
    for _ in range(5):
        basis = orthonormalize(rng.standard_normal((2, 3))) @ sub.tangent
        pi = _plane_invariants(sub, Plane(basis[0], basis[1]))
        assert abs(pi["gamma"]) < 1e-13 and abs(pi["theta"]) < 1e-13


def test_plane_invariants_xi_in_plane():
    sub = attach(standard_point(2), _zero_spec(), E5[[0, 1, 4]], np.zeros((2, 3, 3)))
    pi = _plane_invariants(sub, Plane(E5[0], E5[4]))
    assert abs(pi["gamma"] - 1.0) < 1e-13


def test_plane_invariants_rotation_invariance():
    sub = _random_sub(51, 1, n=4, m=3)
    plane = Plane(sub.tangent[0], sub.tangent[2])
    base = _plane_invariants(sub, plane)
    rng = np.random.default_rng(52)
    for _ in range(50):
        other = _plane_invariants(sub, rotated(plane, rng.uniform(0, 2 * np.pi)))
        for name in base:
            a, b = base[name], other[name]
            assert abs(a - b) < 1e-10 * (1 + abs(a)), name


@pytest.mark.parametrize("kind", [1, 2])
def test_plane_invariants_give_the_nongauss_plane_term(kind):
    # the paper's plane term of 3.1/4.1, written with the reported invariants,
    # equals the non-Gauss K the verdict reads off the pair tensor
    rng = np.random.default_rng([7, kind])
    for index in range(40):
        sub = parse_scenario(random_scenario(index, FuzzConfig(seed=7, kind=kind))).sub
        v = orthonormalize(rng.standard_normal((2, sub.n)))
        plane = Plane(*(v @ sub.tangent))
        pi = verify(sub, f"{kind + 2}.1", plane=plane).diagnostics["plane_invariants"]
        k_ng = 0.5 * float(_pair_nongauss(sub, v, v[::-1]).sum())
        model, spec = sub.model, sub.spec
        c, e = model.c, (model.c + 3.0 - 4.0 * model.kappa) / 4.0
        if kind == 1:
            l1, l2 = spec.lambda1, spec.lambda2
            conn = ((l1 + l2) * pi["tr_alpha"] + l2 * (l1 - l2) * pi["tr_beta"]
                    + (l1 - l2) * pi["g_tr_h_P"])
        else:
            b = spec.b
            conn = b * pi["tr_alpha_prime"] - b * b * pi["P_plane_sq"] + b * pi["g_tr_h_P"]
        closed = ((c + 3.0) / 4.0 - e * pi["gamma"] + 3.0 * (c - 1.0) / 4.0 * pi["phi_plane"]
                  + (pi["det_hprime"] - pi["det_phi_hprime"]) / 2.0 + pi["tr_hprime"]
                  - conn / 2.0 - (1.0 - model.mu_contact) * pi["theta"])
        assert abs(closed - k_ng) <= 1e-13 * (1.0 + abs(k_ng)), index


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
    sub = equality_instance("cor32", 3, {})
    with pytest.raises(MissingArgument):
        verify(sub, "3.1")
    with pytest.raises(MissingArgument):
        verify(sub, "3.3")


def test_verify_wrong_kind():
    sub = equality_instance("cor32", 3, {})
    with pytest.raises(WrongConnectionKind):
        verify(sub, "4.1", plane=Plane(sub.tangent[0], sub.tangent[1]))


@pytest.mark.parametrize("kind", [1, 2])
def test_verify_ignores_arguments_a_theorem_does_not_take(kind):
    # ckv verify passes its plane, X and k to every theorem
    sub = _random_sub(31, kind, n=4, m=3)
    given = {"plane": Plane(sub.tangent[1], sub.tangent[2]), "X": sub.tangent[0], "k": 3}
    for tid in applicable_theorems(kind):
        own = {key: value for key, value in given.items() if key == THEOREMS[tid][1]}
        assert verify(sub, tid, **given).to_dict() == verify(sub, tid, **own).to_dict()


def test_verify_unknown_id():
    sub = equality_instance("cor32", 3, {})
    with pytest.raises(ValueError):
        verify(sub, "5.1")


_BAD_TOLS = {"-0.001": -1e-3, "nan": float("nan"), "inf": float("inf"),
             "-inf": -float("inf"), "str": "1e-8", "None": None, "True": True,
             "np.True_": np.True_, "10**400": 10 ** 400, "-10**400": -(10 ** 400)}
_GOOD_TOLS = {"int 0": 0, "float": 1e-8, "float64": np.float64(1e-8),
              "float32": np.float32(1e-3), "int64": np.int64(1)}


@pytest.mark.parametrize("tol", _BAD_TOLS.values(), ids=_BAD_TOLS)
def test_verify_rejects_bad_tol(tol):
    # a negative or NaN tol used to turn this exact witness into a violation;
    # a string or None raised TypeError, 10**400 OverflowError, and True
    # passed as tol 1
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    with pytest.raises(ValueError, match="^tol must be a finite number >= 0"):
        verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]), tol=tol)


@pytest.mark.parametrize("tol", _GOOD_TOLS.values(), ids=_GOOD_TOLS)
def test_verify_and_fuzz_accept_the_same_tols(tol):
    # one rule: run_fuzz's config check used to reject np.float32 and
    # np.int64 tols that verify accepted (the bad ones are rejected by both,
    # here and in test_fuzz_rejects_a_bad_tol_before_generating)
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    assert verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]), tol=tol).holds
    assert run_fuzz(FuzzConfig(count=0, seed=13, kind=1, tol=tol)).instances == 0


@pytest.mark.parametrize("theorem", ["3.1", "3.5i"])
def test_a_numpy_tol_is_reported_as_a_float(theorem):
    # the unconverted np.float32 tol used to be stored on the report, so
    # json.dumps of its dict raised TypeError
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    plane = Plane(sub.tangent[0], sub.tangent[1])
    reports = [verify(sub, theorem, plane=plane, tol=tol)
               for tol in (np.float32(1e-8), float(np.float32(1e-8)))]
    assert type(reports[0].tol) is float
    assert json.dumps(reports[0].to_dict()) == json.dumps(reports[1].to_dict())
    if theorem == "3.5i":
        verdict = verifier.decide(sub, theorem, None, np.float32(1e-8))
        assert json.dumps(verdict.to_dict()) == json.dumps(reports[1].to_dict() | {"diagnostics": {}})


@pytest.mark.parametrize("kwargs,message", [
    ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": -1}, "seed must be an integer >= 0, got -1"),
    ({"params": {"a": None}}, "parameter 'a' must be a finite number, got None"),
    ({"params": {"a": "2"}}, "parameter 'a' must be a finite number, got '2'"),
    ({"params": {"a": float("nan")}}, "parameter 'a' must be a finite number, got nan"),
], ids=["seed-float", "seed-bool", "seed-negative", "param-None", "param-str", "param-nan"])
def test_equality_instance_raises_value_error_for_a_bad_seed_or_parameter(kwargs, message):
    # seed 1.5 and parameter None used to raise TypeError, seed -1 numpy's
    # bare "expected non-negative integer"; seed True ran as seed 1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        equality_instance("thm35_i", **{"n": 3, "params": {}, "seed": 0, **kwargs})
    one, other = (equality_instance("thm35_i", 3, {"a": a}, seed=seed)
                  for a, seed in ((2, 5), (np.float32(2.0), np.int64(5))))
    assert np.array_equal(one.tangent, other.tangent) and np.array_equal(one.h, other.h)


@pytest.mark.parametrize("params", [None, [("a", 2.0)], "a", 3], ids=repr)
def test_equality_instance_rejects_params_that_are_not_a_mapping(params):
    # None used to raise TypeError from dict(None), and a list of pairs passed
    with pytest.raises(ValueError, match="^params must be a mapping of parameter names, got "):
        equality_instance("thm35_i", 3, params)


@pytest.mark.parametrize("n", [3.5, 4.0, np.float64(4.0), True, False, "4", None, 2, -1], ids=repr)
def test_equality_instance_rejects_a_bad_n_before_building(n):
    # n = 3.5 used to raise TypeError from np.zeros, n = True "got n = True"
    with pytest.raises(ValueError, match=r"^n must be an integer >= 3, got "):
        equality_instance("thm35_i", n, {})
    assert equality_instance("thm35_i", np.int64(4), {}).n == 4


def _overflowing_sub(which):
    hhat = np.zeros((2, 3, 3))
    hhat[0] = np.diag([1.0, 1.0, 2.0])
    if which == "hhat":
        hhat[0, 0, 0] = 1e200
    model = dataclasses.replace(standard_point(2), c=1e308 if which == "c" else 1.0)
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
    sub = attach(dataclasses.replace(standard_point(2), c=1e308), _zero_spec(), E5[:n], hhat)
    # named by its row, like every other row's error
    for call in (lambda: verify(sub, "3.4", k=k), lambda: decide(sub, "3.4", k, DEFAULT_TOL)):
        with pytest.raises(ValueError, match=r"^3\.4: .*overflows") as info:
            call()
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
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_equality_witness_slack_zero(case, tid, params, n):
    sub = equality_instance(case, n, dict(params), seed=n)
    plane = Plane(sub.tangent[0], sub.tangent[1]) if tid == "3.1" else None
    verdict = verify(sub, tid, plane=plane)
    assert abs(verdict.slack) < 1e-8, (case, n, verdict.slack)
    if case.startswith("thm35"):
        assert verdict.diagnostics["shape_match"]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", [1, 2])
def test_casorati_ii_witness_typed_out(kind, n):
    # diag(2a, ..., 2a, a) in one normal direction attains 3.5ii/4.4ii at
    # r = 2n(n-1); the shape is typed here rather than read from the theorem
    # table, so that a wrong r cannot carry its witness along with it
    m = max(2, (n + 2) // 2)
    d = 2 * m + 1
    hhat = np.zeros((d - n, n, n))
    hhat[0] = np.diag([1.4] * (n - 1) + [0.7])
    make = first_connection if kind == 1 else second_connection
    sub = attach(standard_point(m), make(0.0, 0.0, np.zeros(d), np.zeros((d, d))),
                 np.eye(d)[:n], hhat)
    verdict = verify(sub, "3.5ii" if kind == 1 else "4.4ii")
    assert abs(verdict.slack) <= 1e-12 * (1 + abs(verdict.lhs) + abs(verdict.rhs))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("kind", [1, 2])
def test_k_ricci_slack_is_the_sum_of_its_two_terms(kind, seed):
    # 2 tau - E = n^2 ||H||^2 - ||h||^2 makes the 3.4/4.3 slack
    # (||h||^2 - n ||H||^2) + (2 tau - n (n - 1) Theta), Theta =
    # min(Theta_k estimate, Theta_n): this pins its rhs, its Theta coefficient
    # and its E, each read here off h and the curvature, not off verify
    sub = _random_sub(400 + seed, kind, n=3 + seed % 3, m=3)
    n, h = sub.n, sub.h
    h_sq = float((h * h).sum())
    H_sq = float((np.trace(h, axis1=1, axis2=2) ** 2).sum()) / n ** 2
    theta_n = theta_k(sub, n).value
    for k in range(2, n + 1):
        theta = min(theta_k(sub, k).value, theta_n)
        expected = (h_sq - n * H_sq) + (2.0 * scalar_tau(sub) - n * (n - 1) * theta)
        verdict = verify(sub, "3.4" if kind == 1 else "4.3", k=k)
        assert abs(verdict.slack - expected) <= 1e-12 * (1 + abs(verdict.lhs) + abs(verdict.rhs))


@pytest.mark.parametrize("kind", [1, 2])
def test_q_min_is_the_casorati_i_slack(kind):
    # Q is the 3.5i/4.4i bound at the certified inf: the certified slack, bit
    # for bit, on every point and in the fuzz report's minimum
    tid = "3.5i" if kind == 1 else "4.4i"
    for i in range(60):
        sub = parse_scenario(random_scenario(i, FuzzConfig(seed=83, kind=kind))).sub
        assert cross_check(sub).q_min == decide(sub, tid, None, DEFAULT_TOL).slack, i
    report = run_fuzz(FuzzConfig(count=20, seed=83, kind=kind))
    assert report.min_q is not None and report.min_q == report.min_slack[tid]


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("k", [2.5, 2.0, True, "2"])
def test_verify_rejects_a_non_integer_k(n, k):
    sub = _random_sub(5, 1, n=n)
    with pytest.raises(ValueError, match="k must be an integer"):
        verify(sub, "3.4", k=k)
    # a numpy integer works, and its report stays JSON
    reports = [json.dumps(verify(sub, "3.4", k=kk).to_dict()) for kk in (np.int64(2), 2)]
    assert reports[0] == reports[1]


def test_equality_witness_rejects_junk_params():
    with pytest.raises(ValueError):
        equality_instance("thm35_i", 3, {"a": 1.0, "zzz": 2.0})
    with pytest.raises(ValueError):
        equality_instance("nope", 3, {})


@pytest.mark.parametrize("b_block", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_cor32_shape_match_on_its_witness_plane(n, seed, b_block):
    # the 3.1 equality pattern holds on the witness plane (e1, e2) only
    params = {"h11": 0.6, "h22": 1.7, **({"b1": 0.8, "b2": -0.3} if b_block else {})}
    sub = equality_instance("cor32", n, params, seed=seed)
    on = verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    off = verify(sub, "3.1", plane=Plane(sub.tangent[1], sub.tangent[2]))
    assert on.diagnostics["shape_match"] is True
    assert off.diagnostics["shape_match"] is False


def _oracle_points():
    """Seeded points of both kinds at n = 3..6."""
    return [_random_sub(900 + 10 * n + kind, kind, n=n, m=n // 2 + 1)
            for kind in (1, 2) for n in (3, 4, 5, 6)]


def test_ricci_bound_is_the_trace_form():
    # the 3.3/4.2 rhs traces the pair form over e_1..e_n minus its value at
    # y = x; the oracle sums it over a completed basis of x^perp
    rng = np.random.default_rng(91)
    for sub in _oracle_points():
        n = sub.n
        tid = "3.3" if sub.spec.kind == 1 else "4.2"
        directions = [orthonormalize(rng.standard_normal((1, n)))[0] for _ in range(4)]
        directions += [sign * e for e in np.eye(n) for sign in (1.0, -1.0)]
        for x in directions:
            verdict = verify(sub, tid, X=x @ sub.tangent)
            expected = ricci_nongauss_by_frame(sub, x) + n ** 2 / 4.0 * sub.mean_curvature_sq
            assert abs(verdict.rhs - expected) <= 1e-12 * (1.0 + abs(verdict.rhs)), (n, x)


def _perturbed(sub, eps, rng):
    noise = rng.standard_normal(sub.hhat.shape)
    noise = (noise + np.transpose(noise, (0, 2, 1))) / 2.0
    return attach(sub.model, sub.spec, sub.tangent, sub.hhat + eps * noise / np.linalg.norm(noise))


def test_shape_match_agrees_with_the_adapted_frame():
    # the basis-free pattern against the one read in a completed frame, on
    # cases away from the 1e-8 tolerance edge
    rng = np.random.default_rng(92)
    cases = []
    for n in (3, 4, 5, 6):
        for params in ({"h11": 1.0, "h22": 1.0}, {"h11": 0.4, "h22": -1.1, "b1": 0.8, "b2": -0.3}):
            witness = equality_instance("cor32", n, params, seed=n)
            traced = witness.hhat.copy()
            traced[1, 0, 0] += 0.5   # a second slice in the plane, but not trace-free
            cases += [(witness, True), (_perturbed(witness, 1e-13, rng), True),
                      (_perturbed(witness, 1e-4, rng), False),
                      (attach(witness.model, witness.spec, witness.tangent, traced), False)]
    cases += [(sub, False) for sub in _oracle_points()]
    for sub, expected in cases:
        v1, v2 = np.eye(sub.n)[:2]
        plane = Plane(v1 @ sub.tangent, v2 @ sub.tangent)
        assert verify(sub, "3.1" if sub.spec.kind == 1 else "4.1", plane=plane).diagnostics[
            "shape_match"] is expected
        assert adapted_block_match_by_frame(sub, v1, v2) is expected
        w1, w2 = orthonormalize(rng.standard_normal((2, sub.n)))
        assert _adapted_block_match(sub, w1, w2) == adapted_block_match_by_frame(sub, w1, w2)


def test_shape_match_rejects_generic_data():
    sub = _random_sub(60, 1, n=3, m=2)
    verdict = verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    assert verdict.diagnostics["shape_match"] is False
    verdict = verify(sub, "3.5i")
    assert verdict.diagnostics["shape_match"] is False


@pytest.mark.parametrize("slot", [0, 1])
def test_shape_match_reads_whichever_normal_carries_the_shape(slot):
    # the 3.5i equality shape diag(a, a, 2a) in either normal direction: the
    # slack does not depend on which one, and neither does the diagnostic
    hhat = np.zeros((2, 3, 3))
    hhat[slot] = np.diag([1.0, 1.0, 2.0])
    verdict = verify(attach(standard_point(2), _zero_spec(), E5[:3], hhat), "3.5i")
    assert verdict.slack == 0.0 and verdict.diagnostics["shape_match"] is True


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

        def close(verdict, expected, slack=None):
            bound = 1e-12 * (1 + abs(verdict.lhs) + abs(verdict.rhs))
            slack = verdict.slack if slack is None else slack
            assert abs(slack - expected) <= bound, (kind, index, verdict.theorem_id)

        basis = orthonormalize(rng.standard_normal((2, n)))
        plane = Plane(basis[0] @ sub.tangent, basis[1] @ sub.tangent)
        close(verify(sub, chen_id, plane=plane), chen_bound_batch(adapted(basis)[None])[0])

        x = orthonormalize(rng.standard_normal((1, n)))
        h_x = adapted(x)
        close(verify(sub, ricci_id, X=x[0] @ sub.tangent),
              ricci_bound_batch(h_x[None])[0] + np.sum(h_x[:, 0, 1:] ** 2))

        # the verdict's slack is the certified one: the paper's
        # delta_c = C/2 + (n+1)/(2n) inf C(L) at the certified inf; the
        # searched delta_c gives the estimate's slack
        gauss = n ** 2 * sub.mean_curvature_sq - sub.h_norm_sq
        verdict = verify(sub, casorati_id)
        C, lower = sub.h_norm_sq / n, casorati_bounds(sub)[0]
        close(verdict, n * (n - 1) * (C / 2 + (n + 1) / (2 * n) * lower) - gauss)
        close(verdict, n * (n - 1) * casorati(sub).delta_c - gauss,
              verdict.diagnostics["estimate_slack"])


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


def _fault_point():
    return parse_scenario(random_scenario(3, FuzzConfig(seed=11, kind=1, n=4, m=3))).sub


def test_cross_check_catches_a_fault_off_the_frame_pairs():
    # R[0, 1, 2, 0] is read by no frame pair row (e_i, e_j, e_j, e_i), only
    # by the seeded planes; the fault keeps R antisymmetric in its first pair
    sub = _fault_point()
    clean = cross_check(sub)
    assert sorted(clean.residuals) == ["R_pair", "casorati_bracket", "casorati_floor",
                                       "tau_formulas", "trace_identity"]
    assert clean.ok()
    riem = sub.riem.copy()
    riem[0, 1, 2, 0] += 1e-6
    riem[1, 0, 2, 0] -= 1e-6
    report = cross_check(dataclasses.replace(sub, riem=riem, cache={}))
    assert report.residuals["R_pair"] > CROSS_TOL
    assert not report.ok()


def test_cross_check_catches_a_wrong_coefficient(monkeypatch):
    # a wrong term in the A - C_y form moves every closed pair value, so the
    # pair rows and the trace identity both fire
    forms = verifier._pair_forms

    def wrong(sub):
        out = forms(sub).copy()
        out[4] += 1e-6 * np.eye(sub.n)
        return out

    monkeypatch.setattr(verifier, "_pair_forms", wrong)
    report = cross_check(_fault_point())
    assert report.residuals["R_pair"] > CROSS_TOL
    assert report.residuals["trace_identity"] > CROSS_TOL
    assert not report.ok()


@pytest.mark.parametrize("kind", [1, 2])
def test_cross_check_catches_a_negated_difference_tensor(kind, monkeypatch):
    # Delta negated, its derivative kept: Delta_T(X, Delta_T(Y, Z)) is even
    # in Delta and a tangent P gives Delta no normal component on tangent
    # vectors, so riem moves exactly on the points whose P has a normal
    # part, and there R_pair must fire
    delta = submanifold.difference_tensor
    monkeypatch.setattr(submanifold, "difference_tensor",
                        lambda spec, v: -delta(spec, v) if v.ndim == 1 else delta(spec, v))
    normals = []
    for index in range(50):
        sub = parse_scenario(random_scenario(index, FuzzConfig(seed=777, kind=kind))).sub
        normal = bool(np.abs(sub.pi_nor).max() > 1e-12)
        assert (cross_check(sub).residuals["R_pair"] > CROSS_TOL) == normal
        normals.append(normal)
    assert 0 < sum(normals) < len(normals)


def test_cross_check_a_nan_residual_is_no_pass():
    # Python's max drops a NaN that is not its first argument
    report = cross_check(_fault_point())
    residuals = {**report.residuals, "casorati_bracket": float("nan")}
    broken = dataclasses.replace(report, residuals=residuals)
    assert np.isnan(broken.max_residual) and not broken.ok()


def _bounds_without_slice_sum(sub):
    # casorati_bounds' inf without its slice-sum term: ||h||^2 - 2 lambda_max(S)
    S = np.einsum("rab,rbc->ac", sub.h, sub.h)
    lower = (_Quartic.of(sub).h_sq - 2.0 * np.linalg.eigvalsh(S)[-1]) / (sub.n - 1)
    return lower, casorati_bounds(sub)[1]


def test_cross_check_catches_a_casorati_bound_without_its_slice_sum(monkeypatch):
    # the weaker inf still encloses every hyperplane, so only the comparison
    # with the one-slice infima sees that it is looser than certified
    sub = _fault_point()
    assert np.count_nonzero(np.any(sub.h != 0.0, axis=(1, 2))) > 1 and cross_check(sub).ok()
    monkeypatch.setattr(verifier, "casorati_bounds", _bounds_without_slice_sum)
    report = cross_check(sub)
    assert report.residuals["casorati_floor"] > CROSS_TOL
    assert report.residuals["casorati_bracket"] < CROSS_TOL
    assert not report.ok()


def test_cross_check_catches_an_inf_bound_above_an_attained_value(monkeypatch):
    # one slice: the certified inf is attained at the edge minimizer, so an
    # inf 1e-6 above it is no bound, while it is no looser than the slice's
    sub = equality_instance("thm35_i", 4, {"a": 1.0}, seed=4)
    lower, upper = casorati_bounds(sub)
    assert cross_check(sub).ok()
    monkeypatch.setattr(verifier, "casorati_bounds", lambda point: (lower + 1e-6, upper))
    report = cross_check(sub)
    assert report.residuals["casorati_bracket"] > CROSS_TOL
    assert report.residuals["casorati_floor"] < CROSS_TOL
    assert not report.ok()


# --- per-point memos and per-dimension caches ----------------------------------

def _memo_point(kind, n, one_slice):
    """A fresh, deterministic point with m = 3, so that h has one nonzero
    slice or p = 7 - n of them; lambda2 = 0 keeps a one-slice h one-slice on
    kind 1."""
    rng = np.random.default_rng([70, kind, n])
    model = random_point(3, *map(float, rng.uniform(-3, 3, 3)), seed=71, hprime_scale=0.5)
    P, D = rng.standard_normal(7), rng.standard_normal((7, 7)) * 0.4
    second = 0.0 if one_slice and kind == 1 else float(rng.uniform(-3, 3))
    make = first_connection if kind == 1 else second_connection
    hhat = rng.standard_normal((7 - n, n, n))
    hhat = hhat + np.transpose(hhat, (0, 2, 1))
    if one_slice:
        hhat[1:] = 0.0
    return attach(model, make(float(rng.uniform(-3, 3)), second, P, D),
                  rng.standard_normal((n, 7)), hhat)


def _memo_checks(kind, n):
    """(theorem or 'cross', plane rows, X coefficients, k) of every check."""
    values = {"plane": [((0, 1), None, None), ((2, 1), None, None)],
              "X": [(None, np.eye(n)[0], None), (None, np.full(n, n ** -0.5), None)],
              "k": [(None, None, k) for k in range(2, n + 1)],
              None: [(None, None, None)]}
    return [("cross", None, None, None)] + [(tid, *value) for tid in applicable_theorems(kind)
                                            for value in values[THEOREMS[tid][1]]]


def _memo_run(sub, check):
    tid, rows, coeffs, k = check
    if tid == "cross":
        report = cross_check(sub)
        return report.residuals, report.q_min, report.cauchy_schwarz_slack
    plane = None if rows is None else Plane(sub.tangent[rows[0]], sub.tangent[rows[1]])
    X = None if coeffs is None else coeffs @ sub.tangent
    return verify(sub, tid, plane=plane, X=X, k=k).to_dict()


@pytest.mark.parametrize("one_slice", [True, False])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", [1, 2])
def test_memos_do_not_depend_on_the_order_of_checks(kind, n, one_slice):
    # every check on a fresh point, then all of them on one point in order and
    # on another in reverse: a memo keyed or filled wrongly changes a result
    h = _memo_point(kind, n, one_slice).h
    assert np.sum(np.any(h != 0.0, axis=(1, 2))) == (1 if one_slice else 7 - n)
    checks = _memo_checks(kind, n)
    fresh = [_memo_run(_memo_point(kind, n, one_slice), check) for check in checks]
    forward = _memo_point(kind, n, one_slice)
    assert [_memo_run(forward, check) for check in checks] == fresh
    backward = _memo_point(kind, n, one_slice)
    assert [_memo_run(backward, check) for check in checks[::-1]] == fresh[::-1]


@pytest.mark.parametrize("one_slice", [True, False])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", [1, 2])
def test_one_decomposition_of_the_casorati_stack_per_point(monkeypatch, kind, n, one_slice):
    # the certificate, casorati's attained values and the cross check's
    # Casorati residuals all read the quartic's one eigh of [S; h_1 ... h_p],
    # so the slices' edge table is built once per point
    calls = []
    edges = submanifold._slice_edges
    monkeypatch.setattr(submanifold, "_slice_edges", lambda lam: calls.append(lam) or edges(lam))
    sub = _memo_point(kind, n, one_slice)
    for tid in ("3.5i", "3.5ii") if kind == 1 else ("4.4i", "4.4ii"):
        verify(sub, tid)
    cross_check(sub)
    assert "casorati" in sub.cache and len(calls) == 1
    assert len(calls[0]) == (1 if one_slice else 7 - n)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("block", [[[1e200, 0.0], [0.0, 1.0]], [[1e200, 1e200], [1e200, -1e200]]])
def test_non_finite_casorati_stack_gives_nan_not_an_exception(block):
    # S = sum_r h_r^2 overflows to inf, or to inf - inf = NaN off the diagonal
    hhat = np.zeros((2, 3, 3))
    hhat[0, :2, :2], hhat[0, 2, 2] = block, 1.0
    sub = attach(standard_point(2), _zero_spec(), E5[:3], hhat)
    assert np.isnan(casorati_bounds(sub)).all()
    residuals = cross_check(sub).residuals
    assert np.isnan(residuals["casorati_floor"]) and np.isnan(residuals["casorati_bracket"])


def test_cached_arrays_are_read_only():
    sub = _memo_point(1, 4, False)
    cross_check(sub)
    verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    quartic = sub.cache["quartic"]
    arrays = [*_cross_sample(4), *sub.cache["plane_forms"], sub.cache["pair_tensor"],
              quartic.lam, quartic.inf_r, quartic.U, quartic.F]
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = 0
    # the memoized objects themselves come back, not recomputed copies
    cas = casorati(sub)
    assert cas is sub.cache["casorati"] and casorati(sub) is cas
    assert _Quartic.of(sub) is quartic


def test_repeated_theta_verdict_is_byte_identical():
    # Theta_k is not memoized: a repeated 3.4 verdict recomputes Theta_2 and
    # Theta_n from the memoized forms and spectra, and reports the same bytes
    sub = _memo_point(1, 4, False)
    first, again = (verify(sub, "3.4", k=2) for _ in range(2))
    assert first.diagnostics["theta_mode"] == "multistart"
    assert json.dumps(first.to_dict()) == json.dumps(again.to_dict())


def _read_only(value):
    """Whether a memo value is a float, a read-only array, or a tuple or a
    frozen dataclass of those."""
    if isinstance(value, float):
        return True
    if isinstance(value, np.ndarray):
        return not value.flags.writeable
    if isinstance(value, tuple):
        return all(map(_read_only, value))
    if dataclasses.is_dataclass(value) and type(value).__dataclass_params__.frozen:
        return all(_read_only(getattr(value, f.name)) for f in dataclasses.fields(value))
    return False


@pytest.mark.parametrize("one_slice", [True, False])
@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", [1, 2])
def test_every_cached_value_is_read_only(kind, n, one_slice):
    # after every check a point takes, nothing in its memo can be changed in
    # place, so no caller can alter what a later check reads
    sub = _memo_point(kind, n, one_slice)
    for check in _memo_checks(kind, n):
        _memo_run(sub, check)
    casorati(sub)
    assert {"pair_tensor", "casorati", "theta_form", "quartic"} <= set(sub.cache)
    assert sorted(key for key, value in sub.cache.items() if not _read_only(value)) == []


# --- the pair tensor against the term-by-term form --------------------------------

@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("kind", [1, 2])
def test_pair_tensor_matches_the_term_by_term_form(kind, n):
    # random orthonormal pairs, then the unit, non-orthogonal rows (x, e_j)
    # and (x, x) of the 3.3/4.2 trace identity
    rng = np.random.default_rng([93, kind, n])
    for one_slice in (True, False):
        sub = _memo_point(kind, n, one_slice)
        X, Y = np.stack([orthonormalize(rng.standard_normal((2, n))) for _ in range(40)], axis=1)
        x = orthonormalize(rng.standard_normal((1, n)))[0]
        rows = [(X, Y), (np.broadcast_to(x, (n + 1, n)), np.vstack([np.eye(n), x]))]
        for X, Y in rows:
            expected = pair_nongauss_elementwise(sub, X, Y)
            got = _pair_nongauss(sub, X, Y)
            assert np.all(np.abs(got - expected) <= 1e-13 * (1.0 + np.abs(expected)))



def _tau_from_pair_tensor(sub):
    """Half the entries T[i, j, j, i], i != j, of the (n^2, n^2) pair tensor."""
    n = sub.n
    frame = np.einsum("ijji->ij", verifier._pair_tensor(sub).reshape(n, n, n, n))
    return 0.5 * float(frame.sum() - np.trace(frame))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("kind", [1, 2])
def test_tau_nongauss_reads_the_frame_entries_of_the_pair_tensor(kind, n):
    # E = 2 tau_ng is read off the term list without building the tensor;
    # it must be the tensor's frame entries
    for one_slice in (True, False):
        sub = _memo_point(kind, n, one_slice)
        tau = verifier._tau_nongauss(sub)
        assert "pair_tensor" not in sub.cache
        assert abs(tau - _tau_from_pair_tensor(sub)) <= 1e-13 * (1.0 + abs(2.0 * tau))


@pytest.mark.parametrize("kind", [1, 2])
def test_a_plane_verdict_builds_the_term_list_once(monkeypatch, kind):
    # 3.1/4.1 read the pair tensor and tau_ng, both off one memoized list
    calls = []
    terms = verifier._pair_terms
    monkeypatch.setattr(verifier, "_pair_terms", lambda sub: calls.append(sub) or terms(sub))
    sub = _memo_point(kind, 4, False)
    verify(sub, "3.1" if kind == 1 else "4.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    cross_check(sub)
    assert len(calls) == 1 and {"pair_terms", "pair_tensor"} <= set(sub.cache)


def test_one_wrong_term_moves_both_readings(monkeypatch):
    # the pair tensor and tau_ng read one term list: a wrong coefficient on
    # one term moves both
    sub = _memo_point(1, 4, False)
    tau, T = verifier._tau_nongauss(sub), verifier._pair_tensor(sub)
    terms = verifier._pair_terms

    def wrong(sub):
        (P, Q), xy = terms(sub)
        P = P.copy()
        P[3] *= 1.0 + 1e-6   # (A(x,x) A(y,y)) / 2
        return (P, Q), xy

    monkeypatch.setattr(verifier, "_pair_terms", wrong)
    moved = dataclasses.replace(sub, cache={})
    assert abs(verifier._tau_nongauss(moved) - tau) > 1e-9
    assert np.abs(verifier._pair_tensor(moved) - T).max() > 1e-9
    assert abs(verifier._tau_nongauss(moved) - _tau_from_pair_tensor(moved)) <= 1e-12

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



def _same_bits(a, b) -> bool:
    return type(a) is type(b) and repr(a) == repr(b)


@pytest.mark.parametrize("kind", [1, 2])
def test_decide_is_verify_without_its_diagnostics(kind):
    # the campaign's verdict and the report's run the same arithmetic: on
    # campaign instances, at every row and each plane, X and k a campaign
    # checks (and every k < n), all but the diagnostics agree bit for bit
    cfg = FuzzConfig(seed=2718, kind=kind)
    for i in range(24):
        model, spec, _, hhat, X, frame = _random_parts(i, cfg)
        sub = _attach_frame(model, spec, frame, hhat)
        checks = _checks_for(sub, X, kind)
        checks += [{"theorem": applicable_theorems(kind)[2], "k": k} for k in range(2, sub.n)]
        for check in checks:
            tid = check["theorem"]
            takes = THEOREMS[tid][1]
            value = check.get(takes)
            if takes == "plane":
                value = Plane(sub.tangent[value[0]], sub.tangent[value[1]])
            bare = decide(sub, tid, value, DEFAULT_TOL)
            full = verify(sub, tid, tol=DEFAULT_TOL, **({takes: value} if takes else {}))
            assert bare.diagnostics == {} and full.diagnostics, (i, check)
            for name in ("theorem_id", "lhs", "rhs", "slack", "holds", "tol"):
                assert _same_bits(getattr(bare, name), getattr(full, name)), (i, check, name)


def test_decide_requires_the_argument_verify_does():
    sub = equality_instance("cor32", 3, {})
    for tid, message in (("3.1", "3.1 needs a plane"),
                         ("3.3", "3.3 needs a unit tangent direction X")):
        for call in (lambda: verify(sub, tid), lambda: decide(sub, tid, None, DEFAULT_TOL)):
            with pytest.raises(MissingArgument, match=f"^{message}$"):
                call()
    # a non-unit X is named by its row and its norm
    X = 2.0 * sub.tangent[0]
    for call in (lambda: verify(sub, "3.3", X=X), lambda: decide(sub, "3.3", X, DEFAULT_TOL)):
        with pytest.raises(ValueError, match=r"^3\.3: X must be a unit vector, got norm 2\.0$"):
            call()
    assert decide(sub, "3.4", None, DEFAULT_TOL) == decide(sub, "3.4", 3, DEFAULT_TOL)


def test_verify_unknown_id_message_is_theorem_ids_problem():
    # one writer of the id rule: verify and decide raise the message that
    # the CLI's list check returns, for a non-str or unhashable id too
    sub = equality_instance("cor32", 3, {})
    for tid in ("5.1", "", 3.1, None, ["3.1"], b"3.1"):
        message = theorem_ids_problem([tid])
        assert message == f"unknown theorem id {tid!r}"
        for call in (lambda: verify(sub, tid), lambda: decide(sub, tid, None, DEFAULT_TOL)):
            with pytest.raises(ValueError) as info:
                call()
            assert str(info.value) == message


_NOT_PLANES = {"tuple": tuple, "list": list, "str": lambda rows: "e1,e2", "ndarray": np.stack}


@pytest.mark.parametrize("name", _NOT_PLANES)
def test_a_plane_that_is_no_plane_raises_value_error(name):
    # the input contract's ValueError, not an AttributeError from reading .e1
    sub = equality_instance("cor32", 3, {})
    plane = _NOT_PLANES[name]((sub.tangent[0], sub.tangent[1]))
    message = f"^plane must be a frames.Plane, got {type(plane).__name__}$"
    for call in (lambda: verify(sub, "3.1", plane=plane),
                 lambda: decide(sub, "3.1", plane, DEFAULT_TOL),
                 lambda: submanifold.sectional(sub, plane)):
        with pytest.raises(ValueError, match=message):
            call()


def _counted(monkeypatch, owner, name):
    """Patch ``owner.name`` with a wrapper that counts its calls."""
    calls, real = [], getattr(owner, name)

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def _campaign_point(kind):
    model, spec, _, hhat, X, frame = _random_parts(3, FuzzConfig(seed=5, kind=kind))
    return _attach_frame(model, spec, frame, hhat), X


@pytest.mark.parametrize("kind", [1, 2])
def test_a_plane_or_direction_is_read_once(kind, monkeypatch):
    # verify and decide map a plane's two vectors, or X, to frame
    # coordinates once each
    sub, X = _campaign_point(kind)
    plane_id, x_id = applicable_theorems(kind)[:2]
    plane = Plane(sub.tangent[0], sub.tangent[1])
    calls = _counted(monkeypatch, submanifold.SubmanifoldPoint, "tangent_coords")
    for tid, value, reads in ((plane_id, plane, 2), (x_id, X, 1)):
        takes = THEOREMS[tid][1]
        for call in (lambda: verify(sub, tid, **{takes: value}),
                     lambda: decide(sub, tid, value, DEFAULT_TOL)):
            calls.clear()
            call()
            assert len(calls) == reads, (tid, len(calls))


@pytest.mark.parametrize("kind", [1, 2])
def test_a_casorati_verify_reads_the_bounds_once(kind, monkeypatch):
    # the report's certificate block is the bounds the rhs read
    sub, _ = _campaign_point(kind)
    bounds = _counted(monkeypatch, verifier, "casorati_bounds")
    for tid in applicable_theorems(kind)[3:]:
        bounds.clear()
        verify(sub, tid)
        assert len(bounds) == 1, (tid, len(bounds))


REPORT_ONLY = ("_plane_invariants", "_adapted_block_match", "_kernel_residual",
               "_quasi_umbilical_match")


def test_campaigns_build_no_report_diagnostics(monkeypatch):
    # a campaign and its shrinker read decide alone: with every report-only
    # diagnostic made to raise, a clean campaign of each kind and the
    # forced-finding ones (a scaled pair tensor, loosened Casorati bounds)
    # complete with the same reports
    pair_tensor = verifier._pair_tensor
    faults = [("_pair_tensor", lambda sub: pair_tensor(sub) * 1.001, 8, 4242),
              ("casorati_bounds", lambda sub: (-1e3, 1e3), 3, 7)]

    def campaigns():
        reports = [run_fuzz(FuzzConfig(count=50, seed=99, kind=kind)) for kind in (1, 2)]
        for attribute, fault, count, seed in faults:
            with monkeypatch.context() as patch:
                patch.setattr(verifier, attribute, fault)
                reports += [run_fuzz(FuzzConfig(count=count, seed=seed, kind=kind))
                            for kind in (1, 2)]
        return reports

    expected = campaigns()
    assert all(not report.findings for report in expected[:2])
    assert all(report.findings for report in expected[2:])

    def raises(*args):
        raise AssertionError("a campaign built a report-only diagnostic")

    for name in REPORT_ONLY:
        monkeypatch.setattr(verifier, name, raises)
    sub = equality_instance("cor32", 3, {})
    with pytest.raises(AssertionError, match="report-only"):
        verify(sub, "3.1", plane=Plane(sub.tangent[0], sub.tangent[1]))
    assert [report.to_json() for report in campaigns()] == \
        [report.to_json() for report in expected]
