"""P-matrices, the eps_k scale ladder, and the Jitomirskaya-Last
bracket diagnostics.

P_(k) = sum_{j=1}^k A_{2j-1}^*(x+alpha) A_{2j-1}(x+alpha) is an
increasing family of positive matrices; the quadratic form
<P_(k) (u_1,u_0), (u_1,u_0)> equals the truncated solution norm
||u||_{2k}^2, so ||P_(k)|| and det P_(k) control solution growth for
every boundary condition at once.  The subordinacy scale is
eps_k = (4 det P_(k))^{-1/2}, and the bracket

    1/C < psi(m+(E + i eps_k)) / (2 eps_k ||P_(k)||) < C,  C = 5+sqrt(24)

ties the half-line m-function to the ladder.  The solution norms of the
bracket and of the det P_(k) oracle come from the one solution walk,
``cocycle.solution_pair``, which shares no code with the P-ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import (LN2, ROW_BUDGET, Potential, companion_scan, herm_eigs, orbit,
                      solution_norm_sq_batch, solution_pair)
from .weyl import DEPTH_CAP_DEFAULT, m_plus_lanes, psi, rotate_beta

JL_UPPER = 5.0 + math.sqrt(24.0)
JL_LOWER = 5.0 - math.sqrt(24.0)
KKL_UPPER = 2.0 + math.sqrt(3.0)
KKL_LOWER = 2.0 - math.sqrt(3.0)
_SEGMENT = 4096  # with a floor, the ladder's first segment ends at k = 4096


@dataclass(frozen=True)
class PMatrix:
    """Positive matrix controlling solution growth up to length 2k.

    The determinant is carried in log form from its Cauchy-Binet sum of
    squared Dirichlet solutions (see ``_p_entries_upto``): every term is
    non-negative, so it stays exact to rounding where cond(P) is far past
    1/eps_mach and the entrywise p11 p22 - p12^2 has lost every digit.
    ``det`` is inf past the float range; ``log_det`` stays finite.
    """

    k: int
    entries: np.ndarray  # 2x2, hermitian positive definite
    log_det: float
    x: float
    E: float

    @property
    def norm(self) -> float:
        (a, b), (_, d) = self.entries.tolist()
        return herm_eigs(a, b, d)[1]

    @property
    def det(self) -> float:
        return _exp(self.log_det)

    @property
    def smallest_eig(self) -> float:
        return math.exp(self.log_det - math.log(self.norm))

    @property
    def eps(self) -> float:
        """Subordinacy scale eps_k = (4 det)^{-1/2}."""
        return _eps(self.log_det)

    @property
    def trace(self) -> float:
        return float((self.entries[0, 0] + self.entries[1, 1]).real)


def _exp(x: float) -> float:
    """exp(x), inf where it is past the float range (det P_(k) passes
    1e308 before the entries of P_(k) do)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _fold(state, blk):
    """Apply one block to the fold state of ``_p_entries_upto``.

    The state is (a, b, c, d, e, p11, p12, p22, m11, m12, m22, q): the
    transfer product A = 2**e [[a, b], [c, d]], normalised, and P, M and
    q = det P in units of 4**e.  The block is (fa, fb, fc, fd, w11, w12,
    w22, c11, c12, c22, s, f): its product 2**f Phi and its W, C and s in
    units of 4**f.  Returns the state after the block."""
    a, b, c, d, e, p11, p12, p22, m11, m12, m22, q = state
    fa, fb, fc, fd, w11, w12, w22, c11, c12, c22, s, f = blk
    # in units of 4**(e + f): P += A^T W A and q += <M, W> + s
    ap, cp = a * w11 + c * w12, a * w12 + c * w22
    bp, dp = b * w11 + d * w12, b * w12 + d * w22
    p11 = math.ldexp(p11, -2 * f) + (a * ap + c * cp)
    p12 = math.ldexp(p12, -2 * f) + (b * ap + d * cp)
    p22 = math.ldexp(p22, -2 * f) + (b * bp + d * dp)
    q = (math.ldexp(q, -2 * f) + (m11 * w11 + 2.0 * m12 * w12 + m22 * w22)
         + math.ldexp(s, -2 * e))
    # M <- Phi M Phi^T + C and A <- Phi A
    u1, u2 = fa * m11 + fb * m12, fa * m12 + fb * m22
    v1, v2 = fc * m11 + fd * m12, fc * m12 + fd * m22
    m11 = fa * u1 + fb * u2 + math.ldexp(c11, -2 * e)
    m12 = fc * u1 + fd * u2 + math.ldexp(c12, -2 * e)
    m22 = fc * v1 + fd * v2 + math.ldexp(c22, -2 * e)
    a, b, c, d = fa * a + fb * c, fa * b + fb * d, fc * a + fd * c, fc * b + fd * d
    # renormalise A, by a power of two
    g = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    g2 = -2 * g
    return (math.ldexp(a, -g), math.ldexp(b, -g), math.ldexp(c, -g), math.ldexp(d, -g),
            e + f + g, math.ldexp(p11, g2), math.ldexp(p12, g2), math.ldexp(p22, g2),
            math.ldexp(m11, g2), math.ldexp(m12, g2), math.ldexp(m22, g2), math.ldexp(q, g2))


def _eps(log_det: float) -> float:
    """The subordinacy scale eps_k = (4 det P_(k))^{-1/2} from log det."""
    return 0.5 * math.exp(-0.5 * log_det)


def _blocked_pass(E: float, v: Potential, alpha: float, x: float, j0: int, J: int, marks):
    """Steps j0 + 1 .. j0 + J of the ladder as B blocks of S ~ sqrt(J)
    steps, vectorised across blocks, each from the identity: one
    ``companion_scan`` over the blocks' products Phi.

    Returns (S, totals, snap): the fold input (Phi, W, C, s and the scale
    exponent, see ``_fold``) of every block, and of each block cut short
    at local step l in ``marks`` (l = 1 .. J, step j0 + l), keyed by l.
    No site past step j0 + J is sampled; the last block runs past J on
    zero steps, never read back."""
    S = max(1, round(math.sqrt(J)))
    B = -(-J // S)
    steps = np.empty((S, B))  # steps[t, i]: local step i S + t + 1; zero past J
    per = max(1, ROW_BUDGET // S)
    for i in range(0, B, per):
        n = min(per, B - i)
        vals = E - v(orbit(x, alpha, j0 + i * S + 1, j0 + min((i + n) * S, J) + 1))
        steps[:, i:i + n] = np.pad(vals, (0, n * S - len(vals))).reshape(n, S).T
    want: dict[int, list] = {}
    for l in marks:
        want.setdefault((l - 1) % S, []).append(l)
    phi = np.zeros((2, 2, B))
    phi[0, 0] = phi[1, 1] = 1.0
    w = np.zeros((3, B))  # (w11, w12, w22)
    sq = np.empty((3, B))
    c11, c12, c22, s = np.zeros(B), np.zeros(B), np.zeros(B), np.zeros(B)
    unit = np.ones(B)  # e2 e2^T in units of 4**ex
    ex = np.zeros(B, dtype=np.int64)
    snap = {}

    def values():
        """Every block's Phi, W, C and s, as an (11, B) array."""
        return np.vstack((*phi, w, c11, c12, c22, s))

    with np.errstate(over="ignore", invalid="ignore"):
        for t, (e, (phi, g)) in enumerate(zip(steps, companion_scan(steps, phi))):
            if g is not None:  # Phi was rescaled by 2**-g: W, C, s and e2 e2^T by 4**-g
                for m in (w, c11, c12, c22, s, unit):
                    np.ldexp(m, -2 * g, out=m)
                ex += g
            u = e * c11 - c12  # C <- T (C + e2 e2^T) T^T
            c11, c12, c22 = e * (u - c12) + c22 + unit, u, c11
            top = phi[0]
            np.multiply(top, top[0], out=sq[:2])
            np.multiply(top[1], top[1], out=sq[2])
            w += sq
            s += c11
            for l in want.get(t, ()):
                i = (l - 1) // S
                snap[l] = (*values()[:, i].tolist(), int(ex[i]))
    totals = [(*col, f) for col, f in zip(values().T.tolist(), ex.tolist())]
    return S, totals, snap


def _p_entries_upto(E: float, v: Potential, alpha: float, x: float, ks,
                    eps_floor: float = 0.0):
    """One cumulative pass of transfer steps from phase x+alpha, sampling
    (p11, p12, p22, log_det) at each requested k, up to the first k whose
    eps_k falls below ``eps_floor``.

    With T_j = [[E - v(x + j alpha), -1], [1, 0]], A_j = T_j ... T_1 and
    the rows r_j = e1^T A_j, P_(k) = sum_{j=0}^{2k-1} r_j^T r_j (the
    second row of A_j is r_{j-1}).  By Cauchy-Binet its determinant is
    sum_{i<j} (r_i x r_j)^2, and r_i x r_j is the Dirichlet solution
    started at i and read at j (Teschl, Jacobi Operators, ch. 1), so

        det P_(k) = sum_{j=0}^{2k-1} (M_j)_11,
        M_j = T_j (M_{j-1} + e2 e2^T) T_j^T,  M_0 = 0,

    a sum of non-negative terms: no QR and no cancellation, and exact to
    rounding where cond(P) is far past 1/eps_mach.

    The steps, their site energies sampled ``cocycle.ROW_BUDGET`` at a
    time, run as blocks of S ~ sqrt(J) steps (``_blocked_pass``).  A
    block carries its product Phi, W = sum_t r_t^T r_t over the top rows
    r_t of its partial products Phi_t, C (the M recurrence from 0) and
    s = sum_t (C_t)_11.
    Phi comes from ``cocycle.companion_scan``; where the scan rescales
    Phi by 2**-g, W, C and s are rescaled by 4**-g, exactly.  A scalar
    fold over the blocks (``_fold``) then applies P += A^T W A,
    det += <M, W> + s, M <- Phi M Phi^T + C and A <- Phi A; each
    requested k is one more fold step, from the start of its block, with
    the block's values at step 2k - 1.

    det P_(k) never decreases in k, so eps_k never grows, and the rows
    past the first one below a positive ``eps_floor`` are all below it:
    the pass returns there, without that row.  It then runs in segments
    that end at k = ``_SEGMENT``, twice that, four times that, ..., and
    k_max: where that row lies past the first segment, no site past twice
    its step is sampled.  The fold state carries across a segment end as
    across a block end.  Without a floor, or with
    k_max <= ``_SEGMENT``, the one segment is the whole ladder, with
    J = 2 k_max - 1 steps, S = round(sqrt(J)).

    Raises OverflowError, naming k, where an entry of P_(k) passes the
    float range (its log det is finite long after that).
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one k")
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    state = (1.0, 0.0, 0.0, 1.0, 0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)  # j = 0: P = e1 e1^T
    out = {}
    j0, K = 0, min(ks[-1], _SEGMENT) if eps_floor > 0 else ks[-1]
    while True:
        J = 2 * K - 1 - j0  # this segment: steps j0 + 1 .. 2 K - 1
        marks = {2 * k - 1 - j0: k for k in ks if j0 < 2 * k - 1 <= j0 + J}
        last = K == ks[-1]
        S, totals, snap = _blocked_pass(E, v, alpha, x, j0, J,
                                        marks.keys() if last else {*marks, J})
        done = 0
        for l in sorted(snap):
            i = (l - 1) // S  # the block of local step l
            for j in range(done, i):
                state = _fold(state, totals[j])
            done = i
            end = _fold(state, snap[l])
            if l not in marks:  # the segment end, l = J
                continue
            k = marks[l]
            e, p11, p12, p22, q = end[4], *end[5:8], end[11]
            try:
                log_det = math.log(q) + 2 * e * LN2
                if _eps(log_det) < eps_floor:
                    return out
                entry = (*(math.ldexp(t, 2 * e) for t in (p11, p12, p22)), log_det)
            except (OverflowError, ValueError):  # past the float range, or q <= 0
                entry = (math.inf,)
            if not all(map(math.isfinite, entry)):
                raise OverflowError(f"P_(k) entries pass the float range at k = {k}; "
                                    f"energy {E} looks hyperbolic")
            out[k] = entry
        if last:
            return out
        state, j0, K = end, j0 + J, min(2 * K, ks[-1])


def p_matrix(E: float, v: Potential, alpha: float, x: float, k: int) -> PMatrix:
    """P_(k) at real energy E and base phase x, hermitian-symmetrized."""
    p11, p12, p22, logdet = _p_entries_upto(E, v, alpha, x, [k])[k]
    m = np.array([[p11, p12], [p12, p22]], dtype=float)
    return PMatrix(k=int(k), entries=m, log_det=logdet, x=float(x), E=float(E))


def _pair_products(betas: np.ndarray, pq: np.ndarray) -> np.ndarray:
    """||u^beta||^2 * ||u^{beta+pi/2}||^2 over a batch of betas, from the
    solution pair pq = (p, q) of ``cocycle.solution_pair``: u^beta =
    cos(beta) p + sin(beta) q and u^{beta+pi/2} = cos(beta) q - sin(beta)
    p, and each norm is a sum of squares of those combined values."""
    c, s = np.cos(betas), np.sin(betas)
    u = np.array([[c, s], [-s, c]]).transpose(0, 2, 1) @ pq  # (2, len(betas), L)
    return np.prod(np.einsum("...j,...j->...", u, u), axis=0)


def det_via_beta_scan(E: float, v: Potential, alpha: float, x: float, k: int,
                      grid: int = 256, full_output: bool = False):
    """Independent oracle for det P_(k): minimize the product
    ||u^beta||^2 ||u^{beta+pi/2}||^2 over beta in [0, pi).

    A coarse grid locates the minimum; golden-section refines it to
    1e-10 in beta.  The infimum is attained at critical points of
    beta -> ||u^beta||^2.

    The L = 2k sites are walked once per call: the recurrence runs for
    one solution pair p, q (``cocycle.solution_pair``), and by linearity
    every u^beta is cos(beta) p + sin(beta) q.  Each product is then a
    sum of squares of those combined values over the sites, the grid as
    one (grid, L) evaluation and each golden-section step as one over L
    sites.  The quadratic form (cos, sin) G (cos, sin)^T of the Gram
    matrix G of p, q is never formed: that cancellation is what broke
    the QR determinant past cond(P) ~ 1e12.

    The comparison is meaningful while cond(P_(k)) stays below ~1e12:
    past that the product minimum is narrower in beta than double
    precision resolves (width ~ sqrt(det)/||P||), which happens at
    hyperbolic energies once 4 L(E) k exceeds ~28.
    """
    if grid < 8:
        raise ValueError("grid must be >= 8")
    if k < 1:
        raise ValueError("k must be >= 1")
    pq = solution_pair(E, v, alpha, x, 2 * k)
    betas = np.pi * np.arange(grid) / grid
    vals = _pair_products(betas, pq)
    i = int(np.argmin(vals))
    h = np.pi / grid
    lo, hi = betas[i] - h, betas[i] + h

    def f(b):
        return float(_pair_products(np.array([b]), pq)[0])

    invphi = (math.sqrt(5) - 1) / 2
    a_, b_ = lo, hi
    c_ = b_ - invphi * (b_ - a_)
    d_ = a_ + invphi * (b_ - a_)
    fc, fd = f(c_), f(d_)
    while b_ - a_ > 1e-10:
        if fc < fd:
            b_, d_, fd = d_, c_, fc
            c_ = b_ - invphi * (b_ - a_)
            fc = f(c_)
        else:
            a_, c_, fc = c_, d_, fd
            d_ = a_ + invphi * (b_ - a_)
            fd = f(d_)
    beta_min = 0.5 * (a_ + b_)
    val = f(beta_min)
    if full_output:
        return val, beta_min
    return val


@dataclass(frozen=True)
class ProfileRow:
    k: int
    norm_P: float
    det_P: float
    eps_k: float
    psi_mplus: float
    ratio_jl: float
    ratio_blabl: float


@dataclass(frozen=True)
class SubordinacyProfile:
    """Per-scale ladder of P-matrix data and JL ratios at one energy."""

    E: float
    theta: float
    rows: tuple[ProfileRow, ...]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])


def default_k_list(k_max: int, ratio: float = 1.3) -> list[int]:
    """Geometric ladder k = ceil(ratio^j), deduplicated, capped at k_max."""
    ks = []
    j = 0
    while True:
        k = math.ceil(ratio ** j)
        if k > k_max:
            break
        if not ks or k > ks[-1]:
            ks.append(k)
        j += 1
    return ks


def profile(E: float, v: Potential, alpha: float, theta: float,
            k_list=None, tol: float = 1e-7, eps_floor: float = 0.0,
            depth_cap: int = DEPTH_CAP_DEFAULT) -> SubordinacyProfile:
    """Subordinacy profile at real energy E.

    For each k the row carries ||P_(k)||, det P_(k), eps_k, the value
    psi(m+(E + i eps_k)) and the two ratios

        ratio_jl    = psi / (2 eps_k ||P_(k)||)
        ratio_blabl = ||P_(k)|| / ||P_(k)^{-1}||^{-3}

    The ladder stops at the first row whose eps_k falls below
    ``eps_floor`` (the m-function cost scales like 1/eps, and eps_k never
    grows with k), so the rows are those with eps_k >= ``eps_floor``, and
    no step past that row's segment is computed.  The rows' m-functions
    run as lanes of one walk (``weyl.m_plus_lanes``), so each site is
    sampled once for all of them.  NoConvergence from the m-function
    propagates.
    """
    if k_list is None:
        k_list = default_k_list(1000)
    entries = _p_entries_upto(E, v, alpha, theta, k_list, eps_floor)  # in k order
    m_vals = m_plus_lanes([complex(E, _eps(entry[3])) for entry in entries.values()], v,
                          alpha, theta, tol, depth_cap)[0]
    rows = []
    for (k, (p11, p12, p22, logdet)), mp_val in zip(entries.items(), m_vals):
        eps_k = _eps(logdet)
        big = herm_eigs(p11, p12, p22)[1]
        ps = psi(complex(mp_val))
        rows.append(ProfileRow(
            k=k, norm_P=big, det_P=_exp(logdet), eps_k=eps_k, psi_mplus=ps,
            ratio_jl=ps / (2.0 * eps_k * big),
            ratio_blabl=math.exp(4.0 * math.log(big) - 3.0 * logdet),
        ))
    return SubordinacyProfile(E=float(E), theta=float(theta), rows=tuple(rows))


@dataclass(frozen=True)
class BracketRecord:
    """One Jitomirskaya-Last bracket evaluation at scale L = 2k."""

    E: float
    beta: float
    k: int
    eps: float
    scale_residual: float   # |2 eps ||u^b|| ||u^{b+pi/2}|| - 1|
    value: float            # |m+_beta| ||u^b|| / ||u^{b+pi/2}||
    in_bracket: bool        # value in (5-sqrt24, 5+sqrt24)
    kkl_eps: float
    kkl_value: float        # psi(m+)/(eps ||P_(k)||) at det P = 1/eps^2
    kkl_in_bracket: bool


def jl_bracket_check(E: float, v: Potential, alpha: float, theta: float,
                     beta: float, k: int, tol: float = 1e-8,
                     slack: float = 0.0) -> BracketRecord:
    """Evaluate the JL bracket at the scale where
    ||u^beta||_L ||u^{beta+pi/2}||_L = 1/(2 eps), L = 2k.

    The scale equation is linear in eps, so eps = 1 / (2 ||u^beta||_L
    ||u^{beta+pi/2}||_L) directly; both norms come from one
    ``solution_norm_sq_batch`` call, one walk of the L sites.  The kkl
    variant evaluates psi(m+)/(eps ||P_(k)||) at the scale
    det P_(k) = 1/eps^2.  Both m+ values are lanes of one walk
    (``weyl.m_plus_lanes``).
    """
    s, c = math.sin(beta), math.cos(beta)
    # ||u^b||_L^2 and ||u^{b+pi/2}||_L^2, the boundary pairs of b and b + pi/2
    s1, s2 = solution_norm_sq_batch(np.array([-s, -c]), np.array([c, -s]), E, v, alpha,
                                    theta, 2 * k).tolist()
    X = math.sqrt(s1 * s2)  # ||u^b||_L * ||u^{b+pi/2}||_L
    eps = 0.5 / X
    scale_residual = abs(2.0 * eps * X - 1.0)

    pm = p_matrix(E, v, alpha, theta, k)
    kkl_eps = math.exp(-0.5 * pm.log_det)
    (mp_val, mp2), _, _ = m_plus_lanes([complex(E, eps), complex(E, kkl_eps)], v, alpha,
                                       theta, tol)

    nb, nbp = math.sqrt(s1), math.sqrt(s2)
    value = abs(rotate_beta(complex(mp_val), beta)) * nb / nbp
    in_bracket = JL_LOWER * (1 - slack) < value < JL_UPPER * (1 + slack)

    kkl_value = psi(complex(mp2)) / (kkl_eps * pm.norm)
    kkl_in = KKL_LOWER * (1 - slack) < kkl_value < KKL_UPPER * (1 + slack)

    return BracketRecord(E=float(E), beta=float(beta), k=int(k), eps=eps,
                         scale_residual=scale_residual, value=value,
                         in_bracket=in_bracket, kkl_eps=kkl_eps,
                         kkl_value=kkl_value, kkl_in_bracket=kkl_in)
