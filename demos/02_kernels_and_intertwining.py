#!/usr/bin/env python3
"""Transition kernels of the walk and the intertwining identity.

Four closed-form kernel families drive everything: Q (the Z chain), P (the
X chain), Lambda (X given Z, the link kernel), and Ktilde (the AN-part
chain).  Composing them on a log-spaced grid certifies Lambda P = Q Lambda
to double precision, plus detailed balance and stationarity of the AN-part
chain under its inverse-gamma law.
"""

import numpy as np

from gigwalk import (LogGrid, check_detailed_balance, check_stationarity,
                     ktilde_density, lambda_density, p_density, pi_density,
                     q_density)
from gigwalk.kernels import intertwining_residuals

GRID = LogGrid.make()

print("=" * 64)
print("1. Kernel families normalize to 1 on the quadrature grid")
print("=" * 64)
for name, kern in [("Q", q_density), ("P", p_density),
                   ("Lambda", lambda_density), ("Ktilde", ktilde_density)]:
    mass = GRID.integrate(kern(1.0, 1.0, 1.0, GRID.points))
    print(f"  {name:>7}(1, .):  integral = {mass:.12f}")

print()
print("=" * 64)
print("2. Intertwining residual sup |Lambda P - Q Lambda| over a grid sweep")
print("=" * 64)
for lam in (0.5, 1.0, 2.0):
    res = intertwining_residuals(lam, 1.0, [0.2, 1.0, 5.0], GRID)
    line = ", ".join(f"z={z}: {r:.2e}" for z, r in res.items())
    print(f"  lam={lam}: {line}")

print()
print("=" * 64)
print("3. Reversibility of the AN-part chain under inverse-gamma")
print("=" * 64)
rng = np.random.default_rng(3)
pairs = np.exp(rng.normal(0.0, 1.0, (100, 2)))
for lam in (0.5, 1.0, 2.0):
    dev = check_detailed_balance(lam, 1.0, pairs)
    print(f"  lam={lam}: max |pi(x)K(x,y)/(pi(y)K(y,x)) - 1| = {dev:.2e}")
print()
for lam, a in [(1.0, np.sqrt(2.0)), (3.0, 0.8)]:
    res = check_stationarity(lam, a)  # on a grid over pi's quantiles
    print(f"  lam={lam}, a={a:.3f}: sup |pi K - pi| = {res:.2e}")
print()
print("stationary density at a few points (inverse-gamma):")
xs = np.array([0.25, 1.0, 4.0])
print("  x =", xs, " pi(x) =", np.round(pi_density(1.0, np.sqrt(2.0), xs), 6))
