"""Walkthrough: a submanifold germ and all its intrinsic scalar invariants.

Uses the classic equality configuration: a 3-dimensional submanifold of the
5-dimensional unit reduction whose only nonzero shape operator is
diag(1, 1, 2).  Every printed value is exactly computable by hand.
"""

import numpy as np

from ckv import (
    Plane,
    attach,
    casorati,
    casorati_bounds,
    first_connection,
    induced_curvature,
    ricci,
    scalar_tau_pair,
    sectional,
    standard_point,
    theta_k,
)

E = np.eye(5)
model = standard_point(2)
spec = first_connection(0.0, 0.0, np.zeros(5), np.zeros((5, 5)))
hhat = np.zeros((2, 3, 3))
hhat[0] = np.diag([1.0, 1.0, 2.0])
sub = attach(model, spec, E[:3], hhat)

print("=== the diag(1, 1, 2) instance (n = 3 inside dimension 5) ===")
print(f"  normal frame rows:\n{sub.normal}")
print(f"  mean curvature vector H = {sub.mean_curvature}   (4/3 along e4)")

print("\n=== curvature queries ===")
print(f"  R(e1,e2,e2,e1) = {induced_curvature(sub, E[0], E[1], E[1], E[0]):.6f}  (1 + Gauss)")
for pair in ((0, 1), (0, 2), (1, 2)):
    K = sectional(sub, Plane(E[pair[0]], E[pair[1]]))
    print(f"  K(e{pair[0]+1} ^ e{pair[1]+1}) = {K:.6f}")
tau, tau_double = scalar_tau_pair(sub)
print(f"  tau = {tau:.6f} (K-sum) = {tau_double:.6f} (half double sum)")

print("\n=== Ricci and the k-Ricci invariant ===")
for i in range(3):
    print(f"  Ric(e{i+1}) = {ricci(sub, E[i]):.6f}")
for k in (2, 3):
    est = theta_k(sub, k)
    print(f"  Theta_{k} = {est.value:.8f}   mode={est.mode}")

print("\n=== Casorati curvatures ===")
cas = casorati(sub)
print(f"  C           = {cas.C:.6f}")
print(f"  inf C(L)    = {cas.inf_CL:.8f} at normal u = {np.round(cas.argmin_u, 6)}")
print(f"  sup C(L)    = {cas.sup_CL:.8f} at normal u = {np.round(cas.argmax_u, 6)}")
print(f"  delta_c     = {cas.delta_c:.8f}   (5/3 = {5/3:.8f})")
print(f"  delta_c_hat = {cas.delta_c_hat:.8f}   (23/12 = {23/12:.8f})")
lower, upper = casorati_bounds(sub)
print(f"  certified   = [{lower:.8f}, {upper:.8f}]   (the exact extrema: one nonzero slice)")
