#!/usr/bin/env python3
"""Continued fractions and resonance arithmetic.

The golden mean (sqrt(5)-1)/2 has the slowest possible rational
approximations (all partial quotients 1, Fibonacci denominators); a
huge partial quotient shows up immediately as a jump in the
denominators.  Resonances of a phase theta are the integers k where
2*theta is anomalously close to k*alpha on the torus.
"""

import mpmath

from quasispec import (
    expand,
    from_terms,
    resolve_alpha,
    resonance_repulsion_check,
    resonances,
)

golden = resolve_alpha("golden", 20)
print("golden mean:", mpmath.nstr(golden.value, 20))
print("partial quotients:", golden.cf_terms[:10])
print("denominators q_n:", golden.denominators[:10])
print("best-approximation products q_{n+1} ||q_n a||:")
print("  ", [round(float(golden.denominators[n + 1] * golden.torus_norm_multiple(golden.denominators[n])), 4)
             for n in range(8)])

spiky = from_terms([1, 1, 1, 100, 1, 1, 1, 1])
print("denominators with a_4 = 100:", spiky.denominators[:6], "(jump at q_4)")

print()
print("resonances of theta = 0 (only the trivial one):")
rs0 = resonances(golden, 0.0, 1.0, 200)
print("  indices:", rs0.indices)

# a phase engineered to resonate at k = 10: theta = 5*alpha mod 1
with mpmath.workdps(40):
    theta = float(mpmath.mpf(5) * golden.value % 1)
rs = resonances(golden, theta, 2.0, 40)
print(f"resonances of theta = 5*alpha mod 1 (eps0 = 2): {rs.indices}")
pairs = resonance_repulsion_check(rs, golden)
print("repulsion data (j, |n_j+1|, ||2 theta - n_j alpha||):")
for row in pairs:
    print("  ", row)
