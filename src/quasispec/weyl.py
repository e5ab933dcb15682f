"""Half-line Weyl m-functions, the whole-line M-function, and the
phi/psi functionals on the upper half-plane.

The m-function of the right half-line [1, oo) with Dirichlet condition
u_0 = 0 is the Borel transform of the half-line spectral measure of e_1.
It equals -u_1/u_0 for the l2(+oo) solution and is computed here by the
backward Moebius recursion

    m_{n-1} = -1 / (z - v(theta + n alpha) + m_n),

run from an adaptively chosen depth N with two seeds (i and 2i); the
recursion contracts the hyperbolic metric of the half-plane for
Im z > 0, and the walk stops when the two seeds agree within tol (a
Euclidean check, with no Weyl-disk bookkeeping).  That seed residual is
a stopping rule, not an error bound: the value can be several times tol
away from the limit.  The depth scales like O((1/Im z) ln(1/tol)).

The site phases theta + n alpha come from ``cocycle.orbit``, reduced
mod 1.  Sites 1..1024 are sampled one by one; every site past 1024
comes from ``cocycle.site_rows``, which turns each sub-block's start
phase by t alpha with a table of e^{2 pi i k alpha t}: one complex
multiply per mode and site, and no cosine.  Both samplers carry the
float orbit's phase error, about n 1e-16 at site n (up to ~1e-9 in v
near n = 2**21), and a row adds at most 1e-14 to the error of its
sub-block's start.  The N steps are the Moebius action of the product
of the step matrices [[0, -1], [1, z - v_n]], which is [[d, b], [c, a]]
for the companion-step product [[a, b], [c, d]] = T_N ... T_1, T_n =
[[z - v_n, -1], [1, 0]]: the same scan, ``cocycle.companion_scan``
behind ``cocycle.block_totals``, as the Sturm counts, the Lyapunov
products, ``iterate`` and the P-ladder, and its (2, 2, lanes,
sub-blocks) stacks are multiplied out with ``cocycle.stack_mul``.

One walk serves many z ("lanes", ``m_plus_lanes``): ``subordinacy.profile``
runs every kept eps_k of a ladder in it, and ``_m_triples`` (behind
``m_triple``, ``spectral.holder_fit`` and the ``mfunction`` command)
runs an eps ladder as one m+ walk and one m- walk.  The depth doubles
from 64 until the two seeds of a lane agree; all lanes share the
schedule, and each retires at the first depth where its seeds agree.
Each new block of sites is cut into sub-blocks of 8 to 32 sites,
sampled once for all live lanes and run as one companion-step scan over
lanes x sub-blocks, fed one step at a time through a single (lanes,
sub-blocks) buffer, so no table of all steps is built; the sub-block
totals are then folded pairwise.  A chunk of the scan is the largest
power of two of sub-blocks with at most 4096 values per step over all
lanes and at most 1024 sub-blocks, so walks of up to four lanes scan
rows of 1024 sub-blocks.  All rescaling
is by powers of two, which is exact, so a lane's value does not depend
on the other lanes or on how the block is cut into chunks, and the
rescaling interval of the scan, set once per walk from max |z| and the
coefficient bound on |v|, shrinks where |z - v| is large enough to
overflow it.  Since the doubling schedule is itself a balanced tree
over the sites, the first walk goes at once to about the depth the
deepest lane needs, ln(1/tol) / Im z, up to 1024, and checks the
depths on the way on the prefix nodes of its fold: a short walk pays per
scan step and fold level, not per site.

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

from .cocycle import (RESCALE_EVERY, Potential, block_totals, normalize_stack, orbit,
                      site_rows, stack_mul)

DEPTH_CAP_DEFAULT = 10**7
_ROW = 1 << 12  # lane x sub-block values per scan step: one 64 KB buffer of step values
_SUB = 1 << 10  # sub-blocks per chunk at most: wider few-lane rows raised peak RSS
_FIRST = 1024  # the first walk's reach at most, and the last site sampled one by one


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


def _fold(x):
    """Pairwise product of the normalised (2, 2, ..., n) stack of matrices
    X_0, ..., X_{n-1}, later ones on the left, one level at a time.
    Returns the first node of every level: node 0 of level j is
    X_{2**j - 1} ... X_0 (all of them at the top level).

    Node i of level j is the product over [i 2**j, (i+1) 2**j), so the
    fold of an aligned run of 2**j matrices is a node of the fold of the
    whole row, bit for bit: power-of-two scaling changes no mantissa.
    Every fourth level and the top are normalised; in between, entries
    below 1 grow to at most 2**15.  The first nodes are copies, so each
    level is freed once the next one is formed."""
    firsts = [x[..., 0].copy()]
    while x.shape[-1] > 1:
        n = x.shape[-1] & ~1
        level = stack_mul(x[..., 1:n:2], x[..., 0:n:2])
        if n < x.shape[-1]:  # the unpaired last matrix moves up unchanged
            level = np.concatenate((level, x[..., n:]), axis=-1)
        if len(firsts) % 4 == 0 or level.shape[-1] == 1:
            normalize_stack(level)
        x = level
        firsts.append(x[..., 0].copy())
    return firsts


def _rescale_every(bound: float) -> int:
    """Steps between rescalings for step values |e| <= bound: 32 unscaled
    steps grow the entries by up to (bound + 1)**32, which overflows once
    bound passes about 2**31, so the interval shrinks to keep
    (bound + 1)**every below 2**960 (down to every step)."""
    if not (math.isfinite(bound) and bound > 2.0**29):
        return RESCALE_EVERY
    return max(1, int(960 / math.log2(bound + 1.0)))


def _step_values(zs, rows, count):
    """The step values z - v of every lane z in ``zs`` for each row v of
    ``count`` site values in ``rows``, written in turn into one (lanes,
    count) buffer.  Im(z - v) = Im z, so only the real parts are written."""
    buf = np.empty((len(zs), count), dtype=complex)
    buf.imag = zs.imag[:, None]
    zre, re = zs.real[:, None], buf.real
    for row in rows:
        np.subtract(zre, row, out=re)
        yield buf


def _block_products(zs, v, theta, alpha, every: int, lo: int, hi: int):
    """Companion-orientation products T_{j-1} ... T_lo, T_n = [[z - v_n,
    -1], [1, 0]], v_n = v(theta + n alpha), of every lane z in ``zs``, as
    (2, 2, lanes) stacks, for j = lo + S, lo + 2 S, lo + 4 S, ... and
    finally j = hi.  Returns the site counts j - lo and the products.

    The sites are cut into sub-blocks of S sites (the last one may be
    shorter); S is 8 up to 1024 sites, where the cost is per scan step
    and fold level, and grows to 32 by 4096, where it is per site.
    ``block_totals`` runs all sub-blocks of a chunk as one (lanes,
    sub-blocks) scan, rescaled every ``every`` steps, its step values
    z - v written one step at a time into one (lanes, sub-blocks) buffer
    as the scan reads them.  Sites up to ``_FIRST`` are sampled one by
    one (``orbit``); past it, each step's row over the sub-blocks comes
    from ``site_rows``, with no cosine per site.  Both carry the float
    orbit's phase error of about n 1e-16 at site n; a row is within
    1e-14 of v at its sub-block's start phase turned by t alpha, so the
    two samplers differ by the orbit's rounding at the two phases.  Which
    sampler a site gets depends on its position only, since a block
    either ends by ``_FIRST`` or starts past it.  ``_fold`` then
    multiplies the sub-block totals out.  A chunk is the largest power of
    two of sub-blocks, aligned at ``lo``, with at most ``_ROW`` values per
    step over all lanes and at most ``_SUB`` sub-blocks; by alignment each
    chunk's fold is a node of the fold over the whole block, and a lane's
    products depend neither on how many lanes walk with it nor on
    ``_ROW`` or ``_SUB``.
    """
    S = min(RESCALE_EVERY, max(8, (hi - lo) >> 7))
    full, rem = divmod(hi - lo, S)
    items = full + (rem > 0)
    chunk = 1 << max(0, min(_ROW // len(zs), _SUB).bit_length() - 1)

    def totals(first, count, steps):
        """Normalised totals of ``count`` sub-blocks of ``steps`` sites
        from site ``first``, as (2, 2, lanes, count)."""
        if first > _FIRST:
            vals = site_rows(v, theta, alpha, range(first, first + count * steps, steps), steps)
        else:
            vals = np.ascontiguousarray(
                v(orbit(theta, alpha, first, first + count * steps)).reshape(count, steps).T)
        x, _ = block_totals(_step_values(zs, vals, count), (len(zs), count), complex, every)
        normalize_stack(x)
        return x

    firsts, roots = [], []
    for i0 in range(0, items, chunk):
        i1 = min(i0 + chunk, items)
        parts = []
        if min(i1, full) > i0:
            parts.append(totals(lo + i0 * S, min(i1, full) - i0, S))
        if i1 > full:  # the short last sub-block
            parts.append(totals(lo + full * S, 1, rem))
        nodes = _fold(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1))
        if not i0:
            firsts = nodes[:-1]
        roots.append(nodes[-1])
    nodes = firsts + _fold(np.stack(roots, axis=-1))
    return np.minimum(S << np.arange(len(nodes)), hi - lo), nodes


def _halfline_m(zs, v, theta, alpha, tol, depth_cap):
    """Backward coefficient-stripping recursion with two-seed control,
    for every lane z in ``zs`` along one walk of the sites n = 1, 2, ...
    with potential v(theta + n alpha).  All lanes share the depth
    schedule 64, 128, ..., ``depth_cap`` (the one depth ``depth_cap`` when
    it is below 64); each retires at the first depth where its seeds agree.
    The first walk reaches about the depth the deepest lane needs, up to
    ``_FIRST``, and its depths are checked on the prefix nodes of one
    fold, which are bit for bit the products the doubling would form.
    The scan's rescaling interval is set once, from max |z| + the
    coefficient bound ``v.sup_bound()`` on |v|.
    Returns (m, est_error, depth) arrays, one entry per lane.  A settled
    value with Im m <= 0 (Im z so small that rounding took it) raises
    NoConvergence naming z.
    """
    zs = np.array([_require_upper(z) for z in zs], dtype=complex)
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if depth_cap < 1:
        raise ValueError(f"depth_cap must be >= 1, got {depth_cap}")
    m_out = np.empty(len(zs), dtype=complex)
    est_out = np.empty(len(zs))
    depth_out = np.empty(len(zs), dtype=np.int64)
    live = np.arange(len(zs))
    # x = T_done ... T_1 of each live lane as a (2, 2, lanes) stack; in the
    # orientation of the Moebius recursion it is [[d, b], [c, a]]
    x = None
    done = 0
    first = depth = min(64, depth_cap)
    # the first fold reaches about the depth the deepest lane needs, ~ln(1/tol) / Im z:
    # up to _FIRST, a walk too deep costs less than one more walk
    reach = min(_FIRST, depth_cap, -math.log(tol) / zs.imag.min()) if len(zs) else 0
    while depth * 2 <= reach:
        depth *= 2
    every = _rescale_every(float(np.abs(zs).max(initial=0.0)) + v.sup_bound())
    with np.errstate(invalid="ignore", over="ignore"):
        while len(live):
            sizes, nodes = _block_products(zs[live], v, theta, alpha, every, done + 1,
                                           depth + 1)
            if x is None:  # checks at 64, 128, ..., depth (or at a cap below 64)
                depths = sizes[sizes >= first]
                xs = np.stack(nodes[-len(depths):], axis=2)
            else:
                depths = np.array([depth])
                xs = stack_mul(nodes[-1], x)[:, :, None]
                normalize_stack(xs)
            (a, b), (c, d) = xs
            m1 = (d * 1j + b) / (c * 1j + a)
            est = np.abs(m1 - (d * 2j + b) / (c * 2j + a))
            ok = est <= tol
            stop = ok | ~np.isfinite(est)
            at = np.argmax(stop, axis=0)  # the first check that settles each lane
            lane = np.arange(len(live))
            bad = stop[at, lane] & ~ok[at, lane]
            if bad.any():
                i = int(np.argmax(bad))
                raise NoConvergence(
                    f"m-function at z={complex(zs[live[i]])}: seed residual is not "
                    f"finite at depth {depths[at[i]]} (non-finite potential values?)")
            ok = ok[at, lane]
            if depth >= depth_cap and not ok.all():
                i = int(np.argmin(ok))
                raise NoConvergence(
                    f"m-function at z={complex(zs[live[i]])} not seed-independent within "
                    f"depth cap {depth_cap} (residual {est[-1, i]:.3e}, tol {tol:.3e})")
            settled = live[ok]
            m_set = m1[at[ok], lane[ok]]
            if (m_set.imag <= 0).any():
                i = int(np.argmax(m_set.imag <= 0))
                raise NoConvergence(
                    f"m-function at z={complex(zs[settled[i]])}: the value {complex(m_set[i])} "
                    f"at depth {depths[at[ok][i]]} has lost its imaginary part to rounding "
                    "(Im z is too small)")
            m_out[settled] = m_set
            est_out[settled] = est[at[ok], lane[ok]]
            depth_out[settled] = depths[at[ok]]
            live, x = live[~ok], xs[:, :, -1, ~ok]
            done, depth = depth, min(2 * depth, depth_cap)
    return m_out, est_out, depth_out


def m_plus(z, v: Potential, alpha: float, theta: float, tol: float = 1e-8,
           depth_cap: int = DEPTH_CAP_DEFAULT, full_output: bool = False):
    """Right half-line Dirichlet m-function at z = E + i eps.

    Parameters
    ----------
    z : complex with Im z > 0
    v, alpha, theta : potential, frequency and phase; site n carries
        potential v(theta + n alpha), n >= 1.
    tol : seed tolerance: the walk stops at the first depth where the
        values from seeds i and 2i agree within tol.  est_error is that
        seed residual, so est_error <= tol, but it does not bound the
        error of m: at tol 1e-7, m can be off by several times tol.
    depth_cap : recursion depth cap; exceeded depth raises NoConvergence.
    full_output : also return (est_error, depth).
    """
    m, est, depth = m_plus_lanes([z], v, alpha, theta, tol, depth_cap)
    m, est, depth = complex(m[0]), float(est[0]), int(depth[0])
    return (m, est, depth) if full_output else m


def m_plus_lanes(zs, v: Potential, alpha: float, theta: float, tol: float = 1e-8,
                 depth_cap: int = DEPTH_CAP_DEFAULT):
    """``m_plus`` at every z in ``zs`` along one walk of the sites: each
    site is sampled once for all of them, and each value equals its own
    ``m_plus`` bit for bit.  Returns (m, est_error, depth) arrays."""
    return _halfline_m(zs, v, theta, alpha, tol, depth_cap)


def m_minus(z, v: Potential, alpha: float, theta: float, tol: float = 1e-8,
            depth_cap: int = DEPTH_CAP_DEFAULT, full_output: bool = False):
    """Left half-line Dirichlet m-function (reflected recursion).

    Computed as m_plus of the reflected potential x -> v(theta - n alpha);
    equals -u_{-1}/u_0 for the l2(-oo) solution u of H u = z u.
    """
    m, est, depth = m_plus_lanes([z], v, -alpha, theta, tol, depth_cap)
    m, est, depth = complex(m[0]), float(est[0]), int(depth[0])
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
    return _m_triples([z], v, alpha, theta, tol, depth_cap)[0]


def _m_triples(zs, v: Potential, alpha: float, theta: float, tol: float,
               depth_cap: int) -> list[MTriple]:
    """``m_triple`` at every z in ``zs`` from one m+ walk and one m- walk
    for all of them; each triple equals its own ``m_triple`` bit for bit."""
    mp, ep, dp = m_plus_lanes(zs, v, alpha, theta, tol, depth_cap)
    ml, em, dm = m_plus_lanes(zs, v, -alpha, theta, tol, depth_cap)  # m_minus
    v0 = complex(v(theta))
    out = []
    for i, z in enumerate(zs):
        mp_val, ratio = complex(mp[i]), z - v0 + complex(ml[i])
        out.append(MTriple(m_plus=mp_val, m_minus=ratio, M=M_function(mp_val, ratio),
                           z=complex(z), truncation_depth=max(int(dp[i]), int(dm[i])),
                           est_error=float(ep[i]) + float(em[i])))
    return out


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
