"""Seeded inputs for the benchmark workloads, made without quasispec.

Every draw for round ``r`` of a run with seed ``s`` comes from
``numpy.random.default_rng([s, r])``, so the same seed gives the same
inputs whatever the number of rounds a run gets through.

In-spectrum energies are eigenvalues of a finite section of the almost
Mathieu operator, computed with scipy.  Dirichlet ends leave up to two
boundary states inside each gap; an eigenvalue whose eigenvector puts
more than half its weight on the outer tenth of the box is such a state
and is skipped in favour of the next one up.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


class Spectrum:
    """Eigenvalues of the size x size almost Mathieu section at phase 0."""

    def __init__(self, lam: float, size: int):
        self.diag = 2.0 * lam * np.cos(2.0 * np.pi * GOLDEN * np.arange(size))
        self.off = np.ones(size - 1)
        self.eigs = eigvalsh_tridiagonal(self.diag, self.off)

    def _is_boundary_state(self, j: int) -> bool:
        _, vec = eigh_tridiagonal(self.diag, self.off, select="i", select_range=(j, j))
        weight = vec[:, 0] ** 2
        rim = len(weight) // 20
        return float(weight[:rim].sum() + weight[-rim:].sum()) > 0.5

    def bulk_energy(self, quantile: float) -> float:
        """The first non-boundary eigenvalue at or above the given IDS quantile."""
        n = len(self.eigs)
        j = min(max(int(quantile * n), 0), n - 1)
        while j < n - 1 and self._is_boundary_state(j):
            j += 1
        return float(self.eigs[j])


class Generator:
    """Per-round inputs of one workload; holds no quasispec object."""

    SPECTRUM_SIZE = 3000

    def __init__(self, workload: str, seed: int, sizes):
        self.workload = workload
        self.seed = int(seed)
        self.sizes = sizes
        self.spectrum = Spectrum(0.5, self.SPECTRUM_SIZE)

    def round(self, r: int) -> dict:
        rng = np.random.default_rng([self.seed, r])
        return getattr(self, "_" + self.workload)(rng, r)

    def _jl_ladder(self, rng, r):
        """One profile at the midpoint of IDS slice ``r mod q`` of ``q``
        equal slices of the spectrum, theta uniform.

        The energies are the same in every run and come in the same order:
        the m+ depth a profile needs jumps by factors of two with E, so
        seeded energies made one run's cost swing by a quarter.  The phases
        are fresh."""
        q = self.sizes.jl_energies
        return {"profiles": [(self.spectrum.bulk_energy((r % q + 0.5) / q),
                              float(rng.uniform()))]}

    def _ids_edges(self, rng, r):
        """The eight edges of the four largest gaps, in turn from the seed's."""
        edge = (self.seed + r) % 8
        n = self.sizes.lyap_per_round
        return {
            "gap_rank": edge // 2,
            "side": ("left", "right")[edge % 2],
            "table_theta": float(rng.uniform()),
            "lyapunov": [("free", float(rng.uniform(-3.5, 3.5)), float(rng.uniform()))
                         for _ in range(n // 2)]
            + [("amo2", float(rng.uniform(-7.0, 7.0)), float(rng.uniform()))
               for _ in range(n - n // 2)],
        }

    def _short_mix(self, rng, r):
        """Fresh phases and energies for every call of the round."""
        def coeffs():
            co = {0: complex(rng.standard_normal(), 0.0)}
            for k in (1, 2, 3):
                c = complex(rng.standard_normal(), rng.standard_normal())
                co[k], co[-k] = c, c.conjugate()
            return co

        return {
            "cli_theta": float(rng.uniform()),
            "tx": (int(rng.integers(50, 301)), int(rng.integers(-6, 7)),
                   complex(rng.normal(), rng.normal()), float(rng.uniform()),
                   float(rng.uniform())),
            "reduce_seed": int(rng.integers(0, 2**31)),
            "oracle": [(self.spectrum.bulk_energy(rng.uniform()), float(rng.uniform()))
                       for _ in range(self.sizes.oracle_per_round)],
            "m_triple": [(float(rng.uniform(-2.0, 2.0)), float(10 ** rng.uniform(-4, -1)),
                          float(rng.uniform())) for _ in range(self.sizes.m_triple_per_round)],
            "membership": self.spectrum.bulk_energy(rng.uniform()),
            "reductions": [tuple(coeffs() for _ in range(3))
                           for _ in range(self.sizes.reductions_per_round)],
        }
