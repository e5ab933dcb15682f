#!/usr/bin/env python3
"""Triangular-cocycle closed forms and the Schrodinger-form reduction.

The triangular sums X = sum T*_{2j-1} T_{2j-1} have exact closed forms
(the resonant mode controls whether ||X|| grows like k^3 or saturates);
they serve as the analytic oracle for the P-matrix machinery.  The
reduction iteration converts a small perturbation of a Schrodinger
cocycle back to Schrodinger form at quadratic speed.
"""

import numpy as np

from quasispec import (
    Potential,
    TriangularCocycle,
    resolve_alpha,
    schrodinger_reduction,
    tx_asymptotics_check,
    tx_bruteforce,
    tx_closed_form,
)
from quasispec.conjugation import BandFunction, perturbed_schrodinger

alpha = resolve_alpha("golden").alpha

print("triangular oracle, k = 200:")
tc = TriangularCocycle(theta=0.11, alpha=alpha, r=3, t_hat=0.7, k=200)
a, b = tx_closed_form(tc, 0.0), tx_bruteforce(tc, 0.0)
print(f"  closed ||X|| = {a.normX:.10e}")
print(f"  brute  ||X|| = {b.normX:.10e}")
print(f"  det rel diff = {abs(a.detX - b.detX) / b.detX:.2e}")
rec = tx_asymptotics_check(tc, 0.0)
print(f"  asymptotic ratios: norm {rec.norm_ratio:.3f}, inverse {rec.inv_ratio:.3f}")

print("\nSchrodinger-form reduction (quadratic contraction):")
p = Potential.trig({0: 3.0, 1: -0.5, -1: -0.5})
band = 0.05
rng = np.random.default_rng(1)


def entry(scale):
    co = {0: complex(rng.standard_normal(), 0)}
    for k in (1, 2, 3):
        c = complex(rng.standard_normal(), rng.standard_normal())
        co[k], co[-k] = c, c.conjugate()
    f = BandFunction(co, band)
    return BandFunction({k: scale * c / f.norm() for k, c in co.items()}, band)


A = perturbed_schrodinger(p, (entry(1e-3), entry(1e-3), entry(1e-3)), band)
res = schrodinger_reduction(A, p, alpha, band)
print("  ||w|| per iteration:", ["%.2e" % w for w in res.w_norms])
print(f"  conjugacy residual: {res.residual:.2e} after {res.iterations} iterations")
