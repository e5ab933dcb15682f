#!/usr/bin/env python3
"""The P-matrix scale ladder and the Jitomirskaya-Last brackets.

P_(k) sums A*_{2j-1} A_{2j-1}; its determinant fixes the scale
eps_k = (4 det)^{-1/2}, and the ratio psi(m+(E+i eps_k))/(2 eps_k ||P_(k)||)
is pinched between 1/C and C with C = 5 + sqrt(24) ~ 9.899.  The
determinant is a Cauchy-Binet sum of squared Dirichlet solutions
("cb-det" below), and has an independent oracle: the infimum over
boundary conditions of ||u^b||^2 ||u^{b+pi/2}||^2.
"""

from quasispec import Potential, det_via_beta_scan, jl_bracket_check, p_matrix, profile, resolve_alpha
from quasispec.subordinacy import JL_LOWER, JL_UPPER, default_k_list

alpha = resolve_alpha("golden").alpha
v = Potential.amo(0.5)

print("det P_(k) against the beta-scan oracle (E = 0.4, x = 0.11):")
for k in (1, 5, 20, 50):
    d1 = p_matrix(0.4, v, alpha, 0.11, k).det
    d2 = det_via_beta_scan(0.4, v, alpha, 0.11, k)
    print(f"  k = {k:3d}:  cb-det = {d1:14.6e}   beta-scan = {d2:14.6e}   rel {abs(d1 - d2) / d1:.1e}")

print(f"\nsubordinacy profile at E = 0 (bracket ({JL_LOWER:.3f}, {JL_UPPER:.3f})):")
prof = profile(0.0, v, alpha, 0.0, default_k_list(2000), tol=1e-7)
print(f"  {'k':>6} {'norm_P':>12} {'eps_k':>10} {'psi(m+)':>9} {'ratio_jl':>9}")
for row in prof.rows[::3]:
    print(f"  {row.k:6d} {row.norm_P:12.3e} {row.eps_k:10.2e} "
          f"{row.psi_mplus:9.4f} {row.ratio_jl:9.4f}")

rec = jl_bracket_check(0.0, v, alpha, 0.0, 0.7, 25, tol=1e-9)
print(f"\nbracket check at beta = 0.7, k = 25:")
print(f"  scale eps = {rec.eps:.5e} (residual {rec.scale_residual:.1e})")
print(f"  |m+_beta| ||u^b||/||u^(b+pi/2)|| = {rec.value:.4f}  in bracket: {rec.in_bracket}")
print(f"  kkl variant value = {rec.kkl_value:.4f}  in (2-sqrt3, 2+sqrt3): {rec.kkl_in_bracket}")
