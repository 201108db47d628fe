"""Acceptance suite: one test per criterion, one printed PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion lines.
The fuzz campaign (criterion 4) runs once in a session fixture and its
aggregates are shared with criterion 7's proof-chain assertions.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ckv
from ckv.connections import second_connection
from ckv.contact import random_point, curvature_lc
from ckv.frames import Plane
from ckv.fuzz import FuzzConfig, run_fuzz
from ckv.scenario import parse_scenario
from ckv.spheresearch import refine_on_sphere
from ckv.submanifold import (
    attach,
    casorati,
    ricci_form,
    scalar_tau_pair,
    sectional,
    theta_k,
    _sectional_batch,
)
from ckv.verifier import (
    algebraic_bounds_check,
    applicable_theorems,
    chen_bound_batch,
    equality_instance,
    plane_invariants,
    ricci_bound_batch,
    verify,
)

FUZZ_COUNT = 1000


@pytest.fixture(scope="module")
def fuzz_campaign():
    """1000 instances per connection kind, every theorem plus cross checks."""
    t0 = time.perf_counter()
    reports = [
        run_fuzz(FuzzConfig(count=FUZZ_COUNT, seed=20240817, kind=1)),
        run_fuzz(FuzzConfig(count=FUZZ_COUNT, seed=20240817, kind=2)),
    ]
    elapsed = time.perf_counter() - t0
    return reports, elapsed


def test_criterion_1_equality_witness_31():
    t0 = time.perf_counter()
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    tau, tau2 = scalar_tau_pair(sub)
    plane = Plane(sub.tangent[0], sub.tangent[1])
    K = sectional(sub, plane)
    verdict = verify(sub, "3.1", plane=plane)
    elapsed = time.perf_counter() - t0
    assert abs(tau - 8.0) < 1e-12 and abs(tau2 - 8.0) < 1e-12
    assert abs(K - 2.0) < 1e-12
    assert abs(verdict.rhs - 6.0) < 1e-12
    assert abs(verdict.slack) < 1e-8
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: tau=8, K=2, rhs=6, |slack|={abs(verdict.slack):.2e}, "
          f"{elapsed:.3f}s")


def test_criterion_2_equality_witness_35i():
    t0 = time.perf_counter()
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    cas = casorati(sub, samples=10_000)
    verdict = verify(sub, "3.5i")
    elapsed = time.perf_counter() - t0
    assert abs(cas.C - 2.0) < 1e-12
    assert abs(cas.inf_CL - 1.0) < 1e-6
    assert abs(verdict.lhs - 16.0) < 1e-12
    assert abs(verdict.rhs - 16.0) < 1e-6
    assert abs(verdict.slack) < 1e-6
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2 PASS: C=2, inf C(L)=1 (+/- {abs(cas.inf_CL - 1):.1e}), "
          f"2tau=16=rhs, |slack|={abs(verdict.slack):.2e}, {elapsed:.3f}s")


def test_criterion_3_strict_ricci_probe():
    sub = equality_instance("cor32", 3, {"h11": 1.0, "h22": 1.0})
    verdict = verify(sub, "3.3", X=sub.tangent[0])
    assert abs(verdict.lhs - 5.0) < 1e-8
    assert abs(verdict.rhs - 6.0) < 1e-8
    assert abs(verdict.slack - 1.0) < 1e-8
    print(f"\nACCEPTANCE 3 PASS: lhs=5, rhs=6, slack=1 (+/- {abs(verdict.slack - 1):.1e})")


def test_criterion_4_fuzz_campaign(fuzz_campaign):
    reports, elapsed = fuzz_campaign
    for report in reports:
        assert report.instances == FUZZ_COUNT
        assert not report.findings, report.findings[:1]
        for tid, slack in report.min_slack.items():
            assert slack >= -1e-8, (tid, slack)
        assert report.max_cross_residual < 1e-9
        assert report.min_q >= -1e-8
    assert elapsed < 60.0
    summary = {r.config.kind: round(min(r.min_slack.values()), 6) for r in reports}
    print(f"\nACCEPTANCE 4 PASS: 2x{FUZZ_COUNT} instances, 0 findings, "
          f"min slack by kind {summary}, max cross residual "
          f"{max(r.max_cross_residual for r in reports):.2e}, {elapsed:.1f}s")


def test_criterion_5_algebraic_lemma_oracle():
    rng = np.random.default_rng(77)
    worst = {}
    for n in (3, 4, 5, 6):
        h = rng.standard_normal((100_000, 2, n, n))
        h = (h + np.transpose(h, (0, 1, 3, 2))) / 2.0
        chen = chen_bound_batch(h)
        ric = ricci_bound_batch(h)
        assert chen.min() > -1e-9, n
        assert ric.min() > -1e-9, n
        worst[n] = (float(chen.min()), float(ric.min()))
    eq = algebraic_bounds_check(np.diag([1.0, 1.0, 2.0]), "chen")
    assert abs(eq.lhs - eq.rhs) < 1e-12
    print(f"\nACCEPTANCE 5 PASS: 1e5 tuples per n in 3..6, worst margins {worst}, "
          f"diag(1,1,2) equality residual {abs(eq.lhs - eq.rhs):.1e}")


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(78)
    # phi-sectional curvature = c with h' = 0, 50 random models
    for seed in range(50):
        c = float(rng.uniform(-3, 3))
        model = random_point(int(rng.choice([2, 3])), float(rng.uniform(-3, 3)),
                             float(rng.uniform(-3, 3)), c, seed=seed, hprime_scale=0.0)
        v = rng.standard_normal(model.dim)
        v -= (v @ model.xi) * model.xi
        v /= np.linalg.norm(v)
        assert abs(curvature_lc(model, v, model.phi @ v, model.phi @ v, v) - c) < 1e-10

    # tau double formula + plane invariant rotation invariance + a-invariance
    from ckv.fuzz import random_scenario
    worst_tau = 0.0
    for idx in range(10):
        parsed = parse_scenario(random_scenario(idx, FuzzConfig(count=10, seed=4242, kind=1)))
        a, b = scalar_tau_pair(parsed.sub)
        worst_tau = max(worst_tau, abs(a - b) / (1 + abs(a)))
    assert worst_tau < 1e-12

    parsed = parse_scenario(random_scenario(0, FuzzConfig(count=1, seed=555, kind=1)))
    sub = parsed.sub
    plane = Plane(sub.tangent[0], sub.tangent[1])
    base_K = sectional(sub, plane)
    base_pi = plane_invariants(sub, plane)
    for _ in range(100):
        rot = plane.rotated(rng.uniform(0, 2 * np.pi))
        assert abs(sectional(sub, rot) - base_K) < 1e-10 * (1 + abs(base_K))
        other = plane_invariants(sub, rot)
        for name in base_pi.__dataclass_fields__:
            x, y = getattr(base_pi, name), getattr(other, name)
            assert abs(x - y) < 1e-10 * (1 + abs(x)), name

    # second-connection theorem values invariant in a
    model = random_point(2, 1.2, -0.4, 0.9, seed=17, hprime_scale=0.7)
    P, D = rng.standard_normal(5), rng.standard_normal((5, 5))
    basis = rng.standard_normal((3, 5))
    hh = rng.standard_normal((2, 3, 3))
    hh = (hh + np.transpose(hh, (0, 2, 1))) / 2.0
    rows = []
    for a in (0.0, 1.0, -3.0):
        s = attach(model, second_connection(a, 0.8, P, D), basis, hh)
        pl = Plane(s.tangent[0], s.tangent[1])
        rows.append([verify(s, tid, plane=pl, X=s.tangent[0]).slack
                     for tid in applicable_theorems(2)])
    spread = np.abs(np.array(rows) - np.array(rows[0])).max()
    assert spread < 1e-12 * (1 + np.abs(rows[0]).max())
    print(f"\nACCEPTANCE 6 PASS: phi-sectional=c (50 models), tau formulas agree "
          f"({worst_tau:.1e}), 100 plane rotations invariant, a-spread {spread:.1e}")


def test_criterion_7_theta_oracles(fuzz_campaign):
    reports, _ = fuzz_campaign
    rng = np.random.default_rng(79)

    worst_grid = worst_eigen = 0.0
    for idx in range(3):
        parsed = parse_scenario(random_scenario_n3(idx))
        sub = parsed.sub

        # grid vs 1e5 random plane probes (independently refined)
        grid = theta_k(sub, 2)
        v1 = rng.standard_normal((100_000, 3))
        v1 /= np.linalg.norm(v1, axis=1, keepdims=True)
        w = rng.standard_normal((100_000, 3))
        w -= np.einsum("ki,ki->k", w, v1)[:, None] * v1
        w /= np.linalg.norm(w, axis=1, keepdims=True)
        probe_vals = _sectional_batch(sub, v1, w)
        best = int(np.argmin(probe_vals))

        def k_of_normal(U, sub=sub, v1=v1, w=w, best=best):
            ref = np.where(np.abs(U[:, [0]]) < 0.9,
                           np.array([[1.0, 0, 0]]), np.array([[0.0, 1.0, 0]]))
            a = np.cross(U, ref)
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = np.cross(U, a)
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            return _sectional_batch(sub, a, b)

        normal0 = np.cross(v1[best], w[best])
        normal0 /= np.linalg.norm(normal0)
        _, probe_refined = refine_on_sphere(k_of_normal, normal0)
        probe = min(float(probe_vals.min()), probe_refined)
        worst_grid = max(worst_grid, abs(grid.value - probe))
        assert abs(grid.value - probe) < 1e-5

        # eigen-exact vs sampled quadratic form, locally refined
        exact = theta_k(sub, sub.n)
        Q = ricci_form(sub)
        f = lambda U: np.einsum("ki,ij,kj->k", U, Q, U)
        xs = rng.standard_normal((10_000, sub.n))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        vals = f(xs)
        _, sampled = refine_on_sphere(f, xs[int(np.argmin(vals))])
        sampled /= (sub.n - 1)
        worst_eigen = max(worst_eigen, abs(exact.value - sampled))
        assert abs(exact.value - sampled) < 1e-6

    # proof chain on every fuzzed instance: the trace identity and the
    # Cauchy-Schwarz step are part of every cross_check of criterion 4
    for report in reports:
        assert report.max_cross_residual < 1e-9
        assert report.min_cauchy_schwarz >= -1e-8
    print(f"\nACCEPTANCE 7 PASS: grid vs probe dev {worst_grid:.2e} (<1e-5), "
          f"eigen vs sampling dev {worst_eigen:.2e} (<1e-6), "
          f"proof chain green on all fuzzed instances")


def random_scenario_n3(idx):
    from ckv.fuzz import random_scenario
    return random_scenario(idx, FuzzConfig(count=8, seed=31337, kind=1, n=3, m=2))


def test_criterion_8_fuzz_determinism(tmp_path):
    cmd = [sys.executable, "-m", "ckv.cli", "fuzz", "--count", "40",
           "--seed", "11", "--kind", "1"]
    # the child imports the same ckv as this process, installed or not
    package_root = str(Path(ckv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    runs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(cmd + ["--out", str(out)], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        runs.append((out / "report.json").read_bytes())
    assert runs[0] == runs[1]
    payload = json.loads(runs[0])
    assert payload["reports"][0]["summary"]["instances"] == 40
    print("\nACCEPTANCE 8 PASS: repeated cmd_fuzz runs byte-identical "
          f"({len(runs[0])} bytes)")
