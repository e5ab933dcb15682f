"""Half-line Weyl m-functions, the whole-line M-function, and the
phi/psi functionals on the upper half-plane.

The m-function of the right half-line [1, oo) with Dirichlet condition
u_0 = 0 is the Borel transform of the half-line spectral measure of e_1.
It equals -u_1/u_0 for the l2(+oo) solution and is computed here by the
backward Moebius recursion

    m_{n-1} = -1 / (z - v(theta + n alpha) + m_n),

run from an adaptively chosen depth N with two seeds (i and 2i); the
recursion contracts the hyperbolic metric of the half-plane for
Im z > 0, so seed agreement within tol certifies the value without any
Weyl-disk bookkeeping.  The depth scales like O((1/Im z) ln(1/tol)).

The site phases theta + n alpha come from ``cocycle.orbit``, reduced
mod 1.  The N steps are the Moebius action of the product of the step
matrices [[0, -1], [1, z - v_n]].  The depth doubles from 64 until the
two seeds agree; each new block of sites is multiplied out as a
balanced tree held in four complex component arrays (p, q, r, s), one
vectorised pass per level.  The first level is taken in closed form,
[[0,-1],[1,a1]] [[0,-1],[1,a2]] = [[-1, -a2], [a1, a1 a2 - 1]], and
every level divides each matrix by its max-abs entry, which leaves the
Moebius action unchanged and keeps the entries finite.  Blocks are cut
into aligned chunks of ``_CHUNK`` sites so the arrays stay in cache.

``m_minus`` is the Dirichlet m-function of the left half-line
(-oo, -1]: reflecting n -> -n maps it onto the right half-line problem
with site potentials v(theta - n alpha), so the same recursion applies
and m_minus equals -u_{-1}/u_0 for the l2(-oo) solution.  For even
potentials this gives m_minus(theta) = m_plus(-theta), hence equality
of the two at theta = 0 and for the free operator.

The combination M = (m+ m- - 1)/(m+ + m-) is the Borel transform of the
corner measure mu^{e_0} + mu^{e_1} of the whole-line operator when m+
is ``m_plus`` and m- is the left solution ratio u_1/u_0 =
z - v(theta) + m_minus(theta); ``m_triple`` assembles exactly that and
the choice is validated against the finite-box resolvent in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .cocycle import Potential, orbit

DEPTH_CAP_DEFAULT = 10**7
_CHUNK = 1 << 14  # sites per first-stage tree in _block_product


class NoConvergence(RuntimeError):
    """Seed-independence not reached before the depth cap."""


def _require_upper(z: complex, name: str = "z") -> complex:
    z = complex(z)
    if not (cmath.isfinite(z) and z.imag > 0):
        raise ValueError(f"{name} must be finite with strictly positive imaginary part, got {z}")
    return z


def phi(z: complex) -> float:
    """phi(z) = (1 + |z|^2) / (2 Im z), >= 1 on the upper half-plane."""
    z = _require_upper(z)
    return (1.0 + abs(z) ** 2) / (2.0 * z.imag)


def psi(z: complex) -> float:
    """psi(z) = phi + sqrt(phi^2 - 1) = sup over beta of |rotate_beta(z, beta)|."""
    p = phi(z)
    return p + math.sqrt(max(p * p - 1.0, 0.0))


def rotate_beta(z: complex, beta: float):
    """Moebius action of the rotation matrix R_{-beta/2pi} on z.

    The action is on the Riemann sphere; a pole of the chart is returned
    as complex infinity (only reachable for real z, never for z in the
    open half-plane).
    """
    c, s = math.cos(beta), math.sin(beta)
    den = -s * z + c
    if den == 0:
        return complex(math.inf, 0.0)
    return (c * z + s) / den


def M_function(m_plus_val: complex, m_minus_val: complex) -> complex:
    """Whole-line combination (m+ m- - 1)/(m+ + m-); maps H x H into H."""
    a = _require_upper(m_plus_val, "m_plus")
    b = _require_upper(m_minus_val, "m_minus")
    out = (a * b - 1.0) / (a + b)
    assert out.imag > 0
    return out


def _rescaled(p, q, r, s):
    """Divide each matrix [[p, q], [r, s]] by its max-abs entry; scalar
    rescaling is invisible to the Moebius action."""
    inv = 1.0 / np.maximum(np.maximum(np.abs(p), np.abs(q)), np.maximum(np.abs(r), np.abs(s)))
    return p * inv, q * inv, r * inv, s * inv


def _first_level(a: np.ndarray):
    """Pairwise products of the steps [[0, -1], [1, a_n]] in closed form:
    [[0,-1],[1,a1]] [[0,-1],[1,a2]] = [[-1, -a2], [a1, a1 a2 - 1]]."""
    n = len(a) & ~1
    a1, a2 = a[0:n:2], a[1:n:2]
    level = (np.full(n // 2, -1.0 + 0j), -a2, a1, a1 * a2 - 1.0)
    if n < len(a):  # the unpaired last step
        level = tuple(np.append(x, y) for x, y in zip(level, (0.0, -1.0, 1.0, a[-1])))
    return _rescaled(*level)


def _tree(p, q, r, s):
    """Ordered product of the matrices [[p_i, q_i], [r_i, s_i]], one
    rescaled pairwise level at a time; returns length-1 arrays."""
    while len(p) > 1:
        n = len(p) & ~1
        p1, q1, r1, s1 = p[0:n:2], q[0:n:2], r[0:n:2], s[0:n:2]
        p2, q2, r2, s2 = p[1:n:2], q[1:n:2], r[1:n:2], s[1:n:2]
        level = (p1 * p2 + q1 * r2, p1 * q2 + q1 * s2, r1 * p2 + s1 * r2, r1 * q2 + s1 * s2)
        if n < len(p):
            level = tuple(np.append(x, y[-1]) for x, y in zip(level, (p, q, r, s)))
        p, q, r, s = _rescaled(*level)
    return p, q, r, s


def _block_product(z: complex, site_values, lo: int, hi: int):
    """Product of the step matrices at sites lo..hi-1 as four complex scalars.

    The sites are taken in chunks of ``_CHUNK`` aligned at ``lo``, so the
    component arrays stay in cache; for a power-of-two block the chunk
    roots are the subtrees of one balanced tree over the whole block.
    """
    roots = [_tree(*_first_level(z - site_values(c, min(c + _CHUNK, hi))))
             for c in range(lo, hi, _CHUNK)]
    return tuple(complex(x[0]) for x in _tree(*(np.concatenate(part) for part in zip(*roots))))


def _halfline_m(z, site_values, tol, depth_cap):
    """Backward coefficient-stripping recursion with two-seed control.

    ``site_values(lo, hi)`` must return the potential at sites lo..hi-1
    (1-based).  Returns (m, est_error, depth).
    """
    z = _require_upper(z)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be >= 1, got {depth_cap}")
    P, Q, R, S = 1.0, 0.0, 0.0, 1.0
    done, depth = 0, 64
    while True:
        p, q, r, s = _block_product(z, site_values, done + 1, depth + 1)
        P, Q, R, S = P * p + Q * r, P * q + Q * s, R * p + S * r, R * q + S * s
        scale = max(abs(P), abs(Q), abs(R), abs(S))
        P, Q, R, S = P / scale, Q / scale, R / scale, S / scale
        m1 = (P * 1j + Q) / (R * 1j + S)
        m2 = (P * 2j + Q) / (R * 2j + S)
        est = abs(m1 - m2)
        if est <= tol:
            return m1, est, depth
        if not math.isfinite(est):
            raise NoConvergence(f"m-function at z={z}: seed residual is not finite "
                                f"at depth {depth} (non-finite potential values?)")
        if depth >= depth_cap:
            raise NoConvergence(
                f"m-function at z={z} not seed-independent within depth cap {depth_cap} "
                f"(residual {est:.3e}, tol {tol:.3e})"
            )
        done, depth = depth, min(2 * depth, depth_cap)


def m_plus(z, v: Potential, alpha: float, theta: float, tol: float = 1e-8,
           depth_cap: int = DEPTH_CAP_DEFAULT, full_output: bool = False):
    """Right half-line Dirichlet m-function at z = E + i eps.

    Parameters
    ----------
    z : complex with Im z > 0
    v, alpha, theta : potential, frequency and phase; site n carries
        potential v(theta + n alpha), n >= 1.
    tol : seed-independence tolerance (certifies est_error <= tol).
    depth_cap : recursion depth cap; exceeded depth raises NoConvergence.
    full_output : also return (est_error, depth).
    """
    sites = lambda lo, hi: v(orbit(theta, alpha, lo, hi))
    m, est, depth = _halfline_m(z, sites, tol, depth_cap)
    return (m, est, depth) if full_output else m


def m_minus(z, v: Potential, alpha: float, theta: float, tol: float = 1e-8,
            depth_cap: int = DEPTH_CAP_DEFAULT, full_output: bool = False):
    """Left half-line Dirichlet m-function (reflected recursion).

    Computed as m_plus of the reflected potential x -> v(theta - n alpha);
    equals -u_{-1}/u_0 for the l2(-oo) solution u of H u = z u.
    """
    sites = lambda lo, hi: v(orbit(theta, -alpha, lo, hi))
    m, est, depth = _halfline_m(z, sites, tol, depth_cap)
    return (m, est, depth) if full_output else m


@dataclass(frozen=True)
class MTriple:
    """m+, the left solution ratio u_1/u_0, and their M combination.

    ``m_minus`` here is the ratio +u_1/u_0 of the l2(-oo) solution,
    i.e. z - v(theta) + (left Dirichlet m-function); with that payload
    M = (m+ m- - 1)/(m+ + m-) is exactly the Borel transform of
    mu^{e_0} + mu^{e_1} at phase theta.
    """

    m_plus: complex
    m_minus: complex
    M: complex
    z: complex
    truncation_depth: int
    est_error: float

    def __post_init__(self):
        for name in ("m_plus", "m_minus", "M"):
            _require_upper(getattr(self, name), name)


def m_triple(z, v: Potential, alpha: float, theta: float, tol: float = 1e-8,
             depth_cap: int = DEPTH_CAP_DEFAULT) -> MTriple:
    """Assemble (m+, u_1/u_0 ratio, M) at z = E + i eps and phase theta."""
    mp_val, ep, dp = m_plus(z, v, alpha, theta, tol, depth_cap, full_output=True)
    ml_val, em, dm = m_minus(z, v, alpha, theta, tol, depth_cap, full_output=True)
    ratio = z - complex(v(theta)) + ml_val
    M = M_function(mp_val, ratio)
    return MTriple(m_plus=mp_val, m_minus=ratio, M=M, z=complex(z),
                   truncation_depth=max(dp, dm), est_error=ep + em)


def _box_green(z, v: Potential, alpha: float, theta: float, lo: int, hi: int,
               corners) -> complex:
    """Sum of the Green's function entries G(c, c), c in ``corners``, of the
    truncation to sites lo..hi-1 with Dirichlet ends: one banded solve of
    (H - z) g = e_c, a right-hand side per corner."""
    from scipy.linalg import solve_banded

    z = _require_upper(z)
    n = hi - lo
    ab = np.zeros((3, n), dtype=complex)
    ab[0, 1:] = 1.0
    ab[1] = v(orbit(theta, alpha, lo, hi)) - z
    ab[2, :-1] = 1.0
    idx = [c - lo for c in corners]
    rhs = np.zeros((n, len(idx)), dtype=complex)
    rhs[idx, range(len(idx))] = 1.0
    g = solve_banded((1, 1), ab, rhs)
    return complex(np.trace(g[idx]))  # column j holds G(., c_j); row idx[j] is G(c_j, c_j)


def box_m_plus(z, v: Potential, alpha: float, theta: float, size: int) -> complex:
    """Finite-section oracle for m_plus: G(1,1) of the half-line truncation
    to sites 1..size; the error decays exponentially in size * Im z."""
    return _box_green(z, v, alpha, theta, 1, size + 1, (1,))


def box_m_minus(z, v: Potential, alpha: float, theta: float, size: int) -> complex:
    """Finite-section oracle for m_minus: G(-1,-1) of the left half-line
    truncation to sites -size..-1."""
    return _box_green(z, v, alpha, theta, -size, 0, (-1,))


def box_M(z, v: Potential, alpha: float, theta: float, size: int) -> complex:
    """Finite-section oracle for M: G(0,0) + G(1,1) of the whole-line
    truncation to sites -size..size+1."""
    return _box_green(z, v, alpha, theta, -size, size + 2, (0, 1))
