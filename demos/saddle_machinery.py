#!/usr/bin/env python3
"""The saddle-point machinery behind the main terms.

The counting function of ultrafriable integers has the finite Dirichlet
series Z(s, y); the saddle point beta solves phi_1(beta, y) = log x where
phi_1 = -(log Z)'.  The main term is then

    x^beta * Z(beta, y) * G(beta * sqrt(sigma2)),

with sigma2 the second log-derivative at beta and G the scaled Gaussian
tail.  This script walks the pieces and shows the anatomy of one estimate.
"""

import math

from ultrafriable import (
    build_table,
    count_ultrafriable,
    estimate_upsilon,
    gaussian_G,
    log_Z_q,
    modulus_context,
    phi1,
    phi_j_q,
    solve_alpha,
    solve_beta,
    xi,
)

table = build_table(100)
print("=" * 70)
print(" phi_1(sigma, 100) is strictly decreasing: psi(y)/2 at 0+, -> 0")
print("=" * 70)
print(f"  psi(100)/2 = {table.psi_y / 2:.4f}")
for s in (1e-6, 0.01, 0.1, 0.3, 0.6, 1.0, 2.0):
    print(f"  phi_1({s:<6g}) = {phi1(s, table):10.4f}")
print()

print("=" * 70)
print(" Solving the saddle at x = 10^6, y = 100")
print("=" * 70)
x = 10**6
res = solve_beta(x, table)
print(f"  beta      = {res.sigma:.12f}")
print(f"  residual  = {res.residual:.2e}  (|phi_1(beta) - log x| / log x)")
print(f"  sigma_2   = {res.sigma_j[2]:.6f}")
# the solve carries sigma_2 from its last Newton step; sigma_3 and sigma_4
# take one more pass over the primes each
print(f"  sigma_3   = {phi_j_q(3, res.sigma, table):.6f}")
print(f"  sigma_4   = {phi_j_q(4, res.sigma, table):.6f}")
alpha = solve_alpha(x, 100)
print(f"  alpha     = {alpha.sigma:.12f}  (friable analogue)")
u = math.log(x) / math.log(100)
print(f"  xi(u)     = {xi(u):.6f} with u = {u:.3f};"
      f" alpha ~ 1 - xi(u)/log y = {1 - xi(u) / math.log(100):.6f}")
print()

print("=" * 70)
print(" Anatomy of the main term at x = e^30, y = 100")
print("=" * 70)
x = math.exp(30)
res = solve_beta(x, table)
b, s2 = res.sigma, res.sigma_j[2]
lz = log_Z_q(b, table)
g = gaussian_G(b * math.sqrt(s2))
log_main = b * 30 + lz + math.log(g)
print(f"  beta = {b:.6f},  sqrt(sigma2) = {math.sqrt(s2):.4f}")
print(f"  log x^beta        = {b * 30:10.4f}")
print(f"  log Z(beta, y)    = {lz:10.4f}")
print(f"  log G(beta*sqrt)  = {math.log(g):10.4f}")
print(f"  log main term     = {log_main:10.4f}")
exact = count_ultrafriable(x, table, modulus_context(1, table))
print(f"  main term         = {math.exp(log_main):14.0f}")
print(f"  exact count       = {exact:14d}")
print(f"  relative error    = {1 - math.exp(log_main) / exact:+.4%}")
est = estimate_upsilon(x, table)
print(f"  stated budget 1/u = {est.budget.stated_bound:.4f}")
print()
print("G(z) itself, evaluated through the scaled complementary error")
print("function so large z costs nothing:")
for z in (0.0, 0.5, 2.0, 10.0, 50.0):
    print(f"  G({z:4.1f}) = {gaussian_G(z):.6e}")
