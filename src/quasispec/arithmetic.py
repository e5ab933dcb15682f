"""Continued fractions, torus distance and resonance arithmetic.

Frequencies are expanded at extended working precision (mpmath), because
``k*alpha mod 1`` loses all significant digits in float64 once the
multiples pass ~1e7.  The environment variable ``QUASISPEC_PRECISION``
(``extended``, the default, or ``double``) selects the working precision
of this module; everything downstream runs in float64.

Named presets resolve from closed forms, never from decimal literals:
``golden`` is (sqrt(5)-1)/2 and ``silver`` is sqrt(2)-1.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from typing import Sequence

import mpmath


class RationalDetected(ValueError):
    """The continued-fraction remainder underflowed working precision."""


#: closed-form frequency presets (callables evaluated at working precision)
PRESETS = {
    "golden": lambda: (mpmath.sqrt(5) - 1) / 2,
    "silver": lambda: mpmath.sqrt(2) - 1,
}


def working_dps(depth_hint: int = 0) -> int:
    """Decimal digits used for frequency arithmetic.

    ``QUASISPEC_PRECISION=double`` caps the working precision at float64
    level; the default ``extended`` scales with the requested expansion
    depth so that convergent denominators stay exactly representable.
    """
    mode = os.environ.get("QUASISPEC_PRECISION", "extended")
    if mode == "double":
        return 17
    if mode != "extended":
        raise ValueError(f"QUASISPEC_PRECISION must be 'double' or 'extended', got {mode!r}")
    return max(60, 3 * depth_hint)


def torus_norm(x: float) -> float:
    """Distance from x to the nearest integer, in [0, 1/2]."""
    f = x - math.floor(x)
    return min(f, 1.0 - f)


def _torus_norm_mp(x: mpmath.mpf) -> mpmath.mpf:
    f = x - mpmath.floor(x)
    return min(f, 1 - f)


@dataclass(frozen=True)
class Frequency:
    """An irrational in (0,1) with its continued-fraction data.

    ``convergents[n] = (p, q)`` is the n-th convergent p/q (1-based in the
    usual indexing, so ``convergents[0]`` is p_1/q_1).  Denominators obey
    q_{n+1} = a_{n+1} q_n + q_{n-1} and the best-approximation bounds
    1 >= q_{n+1} ||q_n alpha|| >= 1/2, which are asserted at construction.
    """

    value: mpmath.mpf
    cf_terms: tuple[int, ...]
    convergents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        qs = [q for _, q in self.convergents]
        if any(q2 <= q1 for q1, q2 in zip(qs, qs[1:])):
            raise ValueError("convergent denominators must increase strictly")
        for n in range(len(qs) - 1):
            prod = qs[n + 1] * self.torus_norm_multiple_mp(qs[n])
            if not (mpmath.mpf("0.5") <= prod <= 1):
                raise ValueError(f"best-approximation bound violated at n={n}: {prod}")

    @property
    def alpha(self) -> float:
        """float64 view of the frequency."""
        return float(self.value)

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(q for _, q in self.convergents)

    def torus_norm_multiple_mp(self, k: int) -> mpmath.mpf:
        """||k*alpha|| at the precision the value was stored with."""
        bits = self.value._mpf_[3] + 64  # mantissa bit count + headroom
        with mpmath.workprec(max(bits, 200)):
            return _torus_norm_mp(k * self.value)

    def torus_norm_multiple(self, k: int) -> float:
        return float(self.torus_norm_multiple_mp(k))

def expand(alpha, depth: int) -> Frequency:
    """Continued-fraction expansion of alpha in (0,1) to ``depth`` terms.

    Parameters
    ----------
    alpha : float, str or mpmath.mpf
        The frequency.  Strings are parsed at extended precision.
    depth : int
        Number of partial quotients a_1..a_depth to produce.

    Raises
    ------
    RationalDetected
        If a remainder underflows working precision before ``depth``
        terms are produced (threshold 2^-60 of the working precision).
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    dps = working_dps(depth)
    with mpmath.workdps(dps):
        x = mpmath.mpf(alpha)
        if not (0 < x < 1):
            raise ValueError("alpha must lie in (0,1)")
        # remainder below 2^60 ulps of working precision reads as rational;
        # at double working precision the cap 2^-40 takes over
        threshold = min(mpmath.mpf(2) ** (60 - mpmath.mp.prec), mpmath.mpf(2) ** -40)
        terms: list[int] = []
        convergents: list[tuple[int, int]] = []
        p_prev, q_prev = 1, 0
        p_cur, q_cur = 0, 1
        frac = x
        for _ in range(depth):
            if frac < threshold:
                raise RationalDetected(
                    f"remainder underflow after {len(terms)} terms (alpha rational to working precision)"
                )
            inv = 1 / frac
            a = int(mpmath.floor(inv))
            frac = inv - a
            terms.append(a)
            p_new = a * p_cur + p_prev
            q_new = a * q_cur + q_prev
            p_prev, q_prev, p_cur, q_cur = p_cur, q_cur, p_new, q_new
            convergents.append((p_cur, q_cur))
        return Frequency(value=+x, cf_terms=tuple(terms), convergents=tuple(convergents))


def from_terms(terms: Sequence[int], tail: str = "golden") -> Frequency:
    """Frequency with prescribed leading partial quotients.

    The expansion continues past ``terms`` with the preset ``tail``
    (all-ones for golden), so that the value is irrational and the
    leading quotients are exactly ``terms``.
    """
    terms = list(terms)
    if not terms or any(a < 1 for a in terms):
        raise ValueError("terms must be positive integers")
    dps = working_dps(len(terms) + 40)
    with mpmath.workdps(dps):
        x = PRESETS[tail]()
        for a in reversed(terms):
            x = 1 / (a + x)
        return expand(x, len(terms))


@functools.lru_cache(maxsize=32)
def _preset(name: str, depth: int, dps: int) -> Frequency:
    """The preset ``name`` expanded to ``depth`` terms in ``dps`` digits,
    computed once per key: the expansion takes milliseconds, and every CLI
    call asks for it.  A ``Frequency`` is frozen, so callers may share it."""
    with mpmath.workdps(dps):
        return expand(PRESETS[name](), depth)


def resolve_alpha(spec, depth: int = 40) -> Frequency:
    """Parse a frequency given as preset name, decimal string, or CF terms.

    ``spec`` may be 'golden', 'silver', a decimal string such as
    '0.414213562', a float, or 'cf:2,2,2,...' / a sequence of partial
    quotients.  A preset is expanded once per depth and working precision
    and then shared; the other forms are expanded at every call.
    """
    if isinstance(spec, Frequency):
        return spec
    if isinstance(spec, str):
        if spec in PRESETS:
            return _preset(spec, depth, working_dps(depth))
        if spec.startswith("cf:"):
            terms = [int(t) for t in spec[3:].split(",") if t]
            return from_terms(terms)
        return expand(spec, depth)
    if isinstance(spec, (list, tuple)):
        return from_terms(spec)
    return expand(spec, depth)


@dataclass(frozen=True)
class ResonanceSet:
    """eps0-resonances of a phase theta: integers k with ||2 theta - k alpha||
    below exp(-|k| eps0) and minimal among |j| <= |k|.  0 always qualifies."""

    theta: float
    eps0: float
    indices: tuple[int, ...]
    scan_limit: int

    def __post_init__(self):
        if 0 not in self.indices:
            raise ValueError("resonance index 0 must always be present")


def resonances(freq: Frequency, theta, eps0: float, K: int) -> ResonanceSet:
    """Exhaustive resonance scan over |k| <= K.

    Ties in the minimality comparison are broken toward smaller |k|,
    then positive k; the result is ordered by |k| (positive first).
    """
    if eps0 <= 0:
        raise ValueError("eps0 must be positive")
    if K < 1:
        raise ValueError("K must be >= 1")
    with mpmath.workdps(working_dps(40)):
        two_theta = 2 * mpmath.mpf(theta)
        dist = {k: _torus_norm_mp(two_theta - k * freq.value) for k in range(-K, K + 1)}
        indices: list[int] = []
        running_min = None
        for mag in range(0, K + 1):
            ks = [mag] if mag == 0 else [mag, -mag]
            level_min = min(dist[k] for k in ks)
            cand = level_min if running_min is None else min(running_min, level_min)
            for k in ks:
                if dist[k] <= cand and dist[k] <= mpmath.exp(-mag * mpmath.mpf(eps0)):
                    indices.append(k)
            running_min = cand
    return ResonanceSet(theta=float(theta), eps0=float(eps0), indices=tuple(indices), scan_limit=K)


def resonance_distance(freq: Frequency, theta: float, k: int) -> float:
    """||2 theta - k alpha|| at extended precision."""
    with mpmath.workdps(working_dps(40)):
        return float(_torus_norm_mp(2 * mpmath.mpf(theta) - k * freq.value))


def resonance_repulsion_check(rs: ResonanceSet, freq: Frequency) -> list[tuple[int, int, float]]:
    """Raw repulsion data for consecutive resonances.

    For each consecutive pair (n_j, n_{j+1}) returns
    ``(j, |n_{j+1}|, ||2 theta - n_j alpha||)``; the gap norm is clamped
    to the working-precision floor.  The repulsion constants are
    non-effective, so this reports data for exponent fitting instead of
    asserting a bound.
    """
    if len(rs.indices) < 2:
        return []
    out = []
    with mpmath.workdps(working_dps(40)):
        floor = float(mpmath.mpf(2) ** (40 - mpmath.mp.prec))
        two_theta = 2 * mpmath.mpf(rs.theta)
        for j in range(len(rs.indices) - 1):
            gap = float(_torus_norm_mp(two_theta - rs.indices[j] * freq.value))
            out.append((j, abs(rs.indices[j + 1]), max(gap, floor)))
    return out
