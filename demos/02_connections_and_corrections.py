"""Walkthrough: the two generalized semi-symmetric non-metric connections.

Shows the correction tensors alpha, beta, alpha' built from P and the
derivative data D, then demonstrates how the ambient curvature of each
connection deforms the Levi-Civita values and which specializations recover
the classical semi-symmetric connections.
"""

import numpy as np

from ckv import (
    ambient_curvature,
    correction_tensors,
    curvature_lc,
    first_connection,
    random_point,
    second_connection,
)

model = random_point(m=2, kappa=0.6, mu_contact=-0.4, c=1.8, seed=3, hprime_scale=0.5)
rng = np.random.default_rng(1)
P = np.eye(5)[0]
D = np.zeros((5, 5))

print("=== correction tensors for P = e1, D = 0, lambda1 = 2, lambda2 = 1 ===")
spec = first_connection(2.0, 1.0, P, D)
ct = correction_tensors(spec)
print(f"  alpha(e1,e1) = {ct.alpha[0, 0]:+.4f}   (expected -1.5)")
print(f"  alpha(e2,e2) = {ct.alpha[1, 1]:+.4f}   (expected +0.5)")
print(f"  beta(e1,e1)  = {ct.beta[0, 0]:+.4f}   (expected +1.5)")
print(f"  tr beta      = {np.trace(ct.beta):+.4f}   (expected +3.5, ambient trace)")

print("\n=== zero parameters reduce both connections to Levi-Civita ===")
args = rng.standard_normal((4, 5))
base = curvature_lc(model, *args)
for spec in (first_connection(0.0, 0.0, P, D), second_connection(0.0, 0.0, P, D)):
    dev = ambient_curvature(model, spec, *args) - base
    print(f"  kind {spec.kind}: deviation from Levi-Civita = {dev:.2e}")

print("\n=== classical specializations of the first kind ===")
D = rng.standard_normal((5, 5))
for l1, l2, name in ((1.0, 1.0, "semi-symmetric metric"),
                     (1.0, 0.0, "semi-symmetric non-metric")):
    spec = first_connection(l1, l2, P, D)
    val = ambient_curvature(model, spec, *args)
    print(f"  lambda = ({l1}, {l2})  [{name:<26}] R = {val:+.6f}")

print("\n=== second kind: frame values (e_i, e_j, e_j, e_i) do not see a ===")
e = np.eye(5)
for a in (0.0, 1.0, -3.0):
    spec = second_connection(a, 1.25, P, D)
    val = ambient_curvature(model, spec, e[0], e[1], e[1], e[0])
    print(f"  a = {a:+.1f}: R(e1,e2,e2,e1) = {val:+.12f}")

print("\n=== antisymmetry in the first two slots survives the corrections ===")
spec = second_connection(0.7, -1.3, P, D)
X, Y, Z, W = rng.standard_normal((4, 5))
s = ambient_curvature(model, spec, X, Y, Z, W) + ambient_curvature(model, spec, Y, X, Z, W)
print(f"  R(X,Y,Z,W) + R(Y,X,Z,W) = {s:.2e}")
