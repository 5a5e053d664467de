#!/usr/bin/env python3
"""Walk basics: simulate the matrix walk, inspect its coordinates, and
recover the diagonal X from the lower corner Z.

The state is the lower-triangular matrix [[X, 0], [Z, 1/X]]; each step
right-multiplies by [[gamma, 0], [delta, 1/gamma]] with gamma drawn from the
symmetric GIG law.  The lower corner alone, plus the NA-part N = Z/X read
off far in the future, determines X exactly at every earlier step.
"""

import numpy as np

from gigwalk import (GigParams, WalkConfig, n_parts, phi_forward, phi_inverse,
                     phi_jacobian_det, reconstruct_x_finite, simulate_path)

LAM, A, SEED = 1.0, 1.0, 7

print("=" * 64)
print("1. Simulate 12 steps of the walk, GIG(%.1f, %.1f, %.1f) increments"
      % (LAM, A, A))
print("=" * 64)
config = WalkConfig(GigParams.symmetric(LAM, A), delta=1.0, steps=12, seed=SEED)
path = simulate_path(config)
print(f"{'k':>3} {'gamma_k-1':>12} {'X_k':>12} {'Z_k':>12} {'N_k=Z/X':>12}")
for k in range(1, 13):
    parts = n_parts(path, k)
    print(f"{k:>3} {path.gammas[k-1]:>12.6f} {path.xs[k-1]:>12.6f} "
          f"{path.zs[k-1]:>12.6f} {parts.n_na:>12.6f}")

print()
print("recursion check  Z_k X_{k-1} - X_k Z_{k-1} - delta  (should be ~0):")
resid = path.zs[1:] * path.xs[:-1] - path.xs[1:] * path.zs[:-1] - 1.0
print(f"  max |residual| = {np.max(np.abs(resid)):.3e}")

print()
print("=" * 64)
print("2. The change of variables (y_0..y_{n-1}) <-> (z_2..z_n, x_n)")
print("=" * 64)
ys = np.array([0.7, 1.3, 2.1])
zs, x = phi_forward(ys)
print(f"forward:  y = {ys}  ->  z = {np.round(zs, 6)}, x = {x:.6f}")
print(f"inverse:  recovered y = {np.round(phi_inverse(zs, x), 6)}")
print(f"jacobian determinant = {phi_jacobian_det(zs):.6f} "
      f"(= (-1)^(n-1) z_2 ... z_n)")

print()
print("=" * 64)
print("3. Reconstruct X_n from the Z trajectory and one future NA-part")
print("=" * 64)
long_path = simulate_path(WalkConfig(GigParams.symmetric(LAM, A), 1.0, 60, SEED))
# the inversion works in logs: log Z in, log X out
log_n_60 = long_path.log_zs[59] - long_path.log_xs[59]
for n in (3, 10, 25):
    p = 60 - n
    rec = np.exp(reconstruct_x_finite(long_path.log_zs[n - 1:60], log_n_60))
    true = long_path.xs[n - 1]
    print(f"  n={n:>2}, p={p:>2}:  X_n = {true:.10f},  reconstructed = "
          f"{rec:.10f},  rel err = {abs(rec/true-1):.2e}")
