"""P-matrices, the eps_k scale ladder, and the Jitomirskaya-Last
bracket diagnostics.

P_(k) = sum_{j=1}^k A_{2j-1}^*(x+alpha) A_{2j-1}(x+alpha) is an
increasing family of positive matrices; the quadratic form
<P_(k) (u_1,u_0), (u_1,u_0)> equals the truncated solution norm
||u||_{2k}^2, so ||P_(k)|| and det P_(k) control solution growth for
every boundary condition at once.  The subordinacy scale is
eps_k = (4 det P_(k))^{-1/2}, and the bracket

    1/C < psi(m+(E + i eps_k)) / (2 eps_k ||P_(k)||) < C,  C = 5+sqrt(24)

ties the half-line m-function to the ladder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .cocycle import Potential, block_totals, orbit, solution_norm_sq_batch
from .weyl import DEPTH_CAP_DEFAULT, m_plus, m_plus_lanes, psi, rotate_beta

JL_UPPER = 5.0 + math.sqrt(24.0)
JL_LOWER = 5.0 - math.sqrt(24.0)
KKL_UPPER = 2.0 + math.sqrt(3.0)
KKL_LOWER = 2.0 - math.sqrt(3.0)


@dataclass(frozen=True)
class PMatrix:
    """Positive matrix controlling solution growth up to length 2k.

    The determinant is carried in log form from the R factor of the
    stacked odd-iterate rows (see ``_p_entries_upto``), which avoids the
    cancellation of the entrywise formula on ``entries``.  It is not
    exact past cond(P) ~ 1e12: the rounded rows have already lost the
    contracting direction there, the limit ``det_via_beta_scan`` states.
    """

    k: int
    entries: np.ndarray  # 2x2, hermitian positive definite
    log_det: float
    x: float
    E: float

    @property
    def norm(self) -> float:
        return _herm_eigs(self.entries)[1]

    @property
    def det(self) -> float:
        return _exp(self.log_det)

    @property
    def smallest_eig(self) -> float:
        return math.exp(self.log_det - math.log(self.norm))

    @property
    def eps(self) -> float:
        """Subordinacy scale eps_k = (4 det)^{-1/2}."""
        return 0.5 * math.exp(-0.5 * self.log_det)

    @property
    def trace(self) -> float:
        return float((self.entries[0, 0] + self.entries[1, 1]).real)


def _herm_eigs(m: np.ndarray) -> tuple[float, float]:
    """Eigenvalues (low, high) of a 2x2 hermitian matrix; no entry is
    squared, so entries up to ~1e307 do not overflow."""
    a = float(m[0, 0].real)
    d = float(m[1, 1].real)
    half = 0.5 * a + 0.5 * d
    disc = math.hypot(0.5 * a - 0.5 * d, abs(m[0, 1]))
    return half - disc, half + disc


def _exp(x: float) -> float:
    """exp(x), inf where it is past the float range (det P_(k) passes
    1e308 long before the transfer-matrix guard trips)."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


_GUARD = 1e120  # transfer-matrix entries past this raise OverflowError


def _givens(r11, r12, r22, u, w):
    """Fold the row (u, w) into the triangular factor [[r11, r12], [0, r22]]
    with one Givens rotation; needs r11 > 0 or u != 0."""
    r = np.hypot(r11, u)
    cs, sn = r11 / r, u / r
    return r, cs * r12 + sn * w, np.hypot(r22, cs * w - sn * r12)


def _merge_r(acc, new):
    """TSQR merge: the R factor of the stacked pair [R_acc; R_new].

    A factor is (r11, r12, r22, e), its true entries scaled by 2**-e; the
    factor with the smaller exponent is brought to the larger one first,
    then the two rows of R_new are folded in.  Needs r11 > 0 in one of
    the two."""
    r11, r12, r22, ea = acc
    s11, s12, s22, eb = new
    e = max(ea, eb)
    fa, fb = math.ldexp(1.0, ea - e), math.ldexp(1.0, eb - e)
    r = _givens(r11 * fa, r12 * fa, r22 * fa, s11 * fb, s12 * fb)
    return (*_givens(*r, 0.0, s22 * fb), e)


def _p_entries_upto(E: float, v: Potential, alpha: float, x: float, ks):
    """One cumulative pass of transfer steps from phase x+alpha, sampling
    (p11, p12, p22, log_det) at each requested k.

    P_(k) = G^T G for the 2k x 2 stack G of the odd-iterate rows of
    A_j = T_j ... T_1, T_j = [[E - v(x + j alpha), -1], [1, 0]], and
    det P = (r11 r22)^2 from the R factor of G: the entrywise
    p11*p22 - p12^2 loses all digits once cond(P) passes 1/eps_mach.
    The QR removes that cancellation but not the rounding already in the
    rows: past cond(P_(k)) ~ 1e12 (hyperbolic energies, 4 L(E) k beyond
    ~28) the rounded A_j have lost the contracting direction and log_det
    can be far off -- at AMO lambda=0.5, golden alpha, E=0.7, x=0.21,
    k=418 it reads about 790 where a 400-digit recurrence gives 433.3.
    This is the limit ``det_via_beta_scan`` states.

    The J = 2 k_max - 1 steps run as a two-level blocked scan over B
    blocks of even length S ~ sqrt(J), so no Python loop is longer than
    about sqrt(J):

    1. block totals, vectorised across blocks and rescaled by powers of
       two (exact), from ``cocycle.block_totals``; the exponents are the
       log scale;
    2. a scalar fold of the totals gives each block's starting matrix,
       normalised, with its exponent;
    3. from those starts, vectorised across blocks: the in-block sums of
       the odd iterates' A^T A, the in-block R factor of their rows
       (Givens), the guard, and snapshots at each requested k.  Before the
       first entry past the guard no in-block value exceeds ~2e120, so
       this pass needs no rescaling;
    4. a scalar pass adds the block sums and merges the R factors
       TSQR-style (Demmel et al., arXiv:0808.2664), in log-scaled form.

    Raises OverflowError at the first step j >= 2 where an entry of A_j
    exceeds 1e120.
    """
    ks = sorted(set(int(k) for k in ks))
    if not ks:
        raise ValueError("need at least one k")
    if ks[0] < 1:
        raise ValueError("k must be >= 1")
    J = 2 * ks[-1] - 1
    S = 2 * max(1, round(math.sqrt(J) / 2))
    B = -(-J // S)
    es = np.zeros(B * S)  # steps past J are padding, never read back
    es[:J] = E - np.asarray(v(orbit(x, alpha, 1, J + 1)), dtype=float)
    steps = es.reshape(B, S).T.copy()  # steps[t, i]: step j = i S + t + 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # 1. block totals
        a, b, c, d, tex = block_totals(steps, (B,))
        # 2. block starts: A_0 = I, A_{(i+1) S} = total_i A_{i S}
        starts = [(1.0, 0.0, 0.0, 1.0)]
        sx = [0]
        for ta, tb, tc, td, te in zip(a.tolist(), b.tolist(), c.tolist(), d.tolist(),
                                      tex.tolist()[:B - 1]):
            pa, pb, pc, pd = starts[-1]
            na, nb = ta * pa + tb * pc, ta * pb + tb * pd
            nc, nd = tc * pa + td * pc, tc * pb + td * pd
            _, ex = math.frexp(max(abs(na), abs(nb), abs(nc), abs(nd)))
            f = math.ldexp(1.0, -ex)
            starts.append((na * f, nb * f, nc * f, nd * f))
            sx.append(sx[-1] + te + ex)
        # 3. in-block sums, R factors, guard and snapshots
        a, b, c, d = np.array(starts).T
        thr = np.ldexp(_GUARD, -np.array(sx))
        over = np.empty((S, B), dtype=bool)
        want: dict[int, list] = {}
        for k in ks:
            want.setdefault((2 * k - 2) % S, []).append((k, (2 * k - 2) // S))
        p11 = p12 = p22 = np.zeros(B)
        snap = {}
        for t, e in enumerate(steps):
            a, b, c, d = e * a - c, e * b - d, a, b
            np.greater(np.maximum(np.abs(a), np.abs(b)), thr, out=over[t])
            if t % 2:
                continue
            p11 = p11 + (a * a + c * c)
            p12 = p12 + (a * b + c * d)
            p22 = p22 + (b * b + d * d)
            if t == 0:  # first row into an empty factor, as _givens with r = 0
                r11, r12, r22 = np.abs(a), np.sign(a) * b, np.where(a == 0, np.abs(b), 0.0)
            else:
                r11, r12, r22 = _givens(r11, r12, r22, a, b)
            r11, r12, r22 = _givens(r11, r12, r22, c, d)
            for k, i in want.get(t, ()):
                snap[k] = (i, p11[i], p12[i], p22[i], r11[i], r12[i], r22[i])
    # only the first row is checked: the second row of A_j is the first of
    # A_{j-1}; a hit at j = 1 counts at j = 2, the first step whose A_j holds it
    hit = over.T.ravel()[:J]
    if hit.any():
        step = max(int(np.argmax(hit)) + 1, 2)
        if step <= J:
            raise OverflowError(
                f"transfer matrices exceed 1e120 at step {step}; energy {E} looks hyperbolic")
    # 4. prefix over blocks
    out = {}
    q11 = q12 = q22 = 0.0
    acc = (0.0, 0.0, 0.0, 0)
    done = 0
    for k in ks:
        i, s11, s12, s22, t11, t12, t22 = snap[k]
        for j in range(done, i):
            two = 2 * sx[j]
            q11 += math.ldexp(p11[j], two)
            q12 += math.ldexp(p12[j], two)
            q22 += math.ldexp(p22[j], two)
            acc = _merge_r(acc, (float(r11[j]), float(r12[j]), float(r22[j]), sx[j]))
        done = i
        two = 2 * sx[i]
        rk = _merge_r(acc, (float(t11), float(t12), float(t22), sx[i]))
        out[k] = (q11 + math.ldexp(s11, two), q12 + math.ldexp(s12, two),
                  q22 + math.ldexp(s22, two),
                  2.0 * (math.log(rk[0]) + math.log(rk[2])) + 4.0 * rk[3] * math.log(2.0))
    return out


def p_matrix(E: float, v: Potential, alpha: float, x: float, k: int) -> PMatrix:
    """P_(k) at real energy E and base phase x, hermitian-symmetrized."""
    p11, p12, p22, logdet = _p_entries_upto(E, v, alpha, x, [k])[k]
    m = np.array([[p11, p12], [p12, p22]], dtype=float)
    return PMatrix(k=int(k), entries=m, log_det=logdet, x=float(x), E=float(E))


def _beta_norms(betas: np.ndarray, E, v, alpha, x, L) -> tuple[np.ndarray, np.ndarray]:
    """(||u^beta||_L^2, ||u^{beta+pi/2}||_L^2) over a batch of betas,
    computed from the defining recurrences (independent of P_(k))."""
    u0 = -np.sin(betas)
    u1 = np.cos(betas)
    s1 = solution_norm_sq_batch(u0, u1, E, v, alpha, x, L)
    s2 = solution_norm_sq_batch(-u1, u0, E, v, alpha, x, L)  # beta + pi/2
    return s1, s2


def _beta_products(betas: np.ndarray, E, v, alpha, x, L) -> np.ndarray:
    """||u^beta||_L^2 * ||u^{beta+pi/2}||_L^2 over a batch of betas."""
    s1, s2 = _beta_norms(betas, E, v, alpha, x, L)
    return s1 * s2


def det_via_beta_scan(E: float, v: Potential, alpha: float, x: float, k: int,
                      grid: int = 256, full_output: bool = False):
    """Independent oracle for det P_(k): minimize the product
    ||u^beta||^2 ||u^{beta+pi/2}||^2 over beta in [0, pi).

    A coarse grid locates the minimum; golden-section refines it to
    1e-10 in beta.  The infimum is attained at critical points of
    beta -> ||u^beta||^2.

    The comparison is meaningful while cond(P_(k)) stays below ~1e12:
    past that the product minimum is narrower in beta than double
    precision resolves (width ~ sqrt(det)/||P||), which happens at
    hyperbolic energies once 4 L(E) k exceeds ~28.
    """
    if grid < 8:
        raise ValueError("grid must be >= 8")
    L = 2 * k
    betas = np.pi * np.arange(grid) / grid
    vals = _beta_products(betas, E, v, alpha, x, L)
    i = int(np.argmin(vals))
    h = np.pi / grid
    lo, hi = betas[i] - h, betas[i] + h

    def f(b):
        return float(_beta_products(np.array([b]), E, v, alpha, x, L)[0])

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

    CSV_HEADER = "k,norm_P,det_P,eps_k,psi_mplus,ratio_jl,ratio_blabl"

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.rows])

    def csv_rows(self):
        for r in self.rows:
            yield [r.k, r.norm_P, r.det_P, r.eps_k, r.psi_mplus, r.ratio_jl, r.ratio_blabl]


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

    Rows whose eps_k falls below ``eps_floor`` are dropped (the
    m-function cost scales like 1/eps).  The kept rows' m-functions run
    as lanes of one walk (``weyl.m_plus_lanes``), so each site is sampled
    once for all of them.  NoConvergence from the m-function propagates.
    """
    if k_list is None:
        k_list = default_k_list(1000)
    entries = _p_entries_upto(E, v, alpha, theta, k_list)
    kept = []
    for k in sorted(entries):
        p11, p12, p22, logdet = entries[k]
        eps_k = 0.5 * math.exp(-0.5 * logdet)
        if eps_k >= eps_floor:
            big = _herm_eigs(np.array([[p11, p12], [p12, p22]]))[1]
            kept.append((k, big, logdet, eps_k))
    m_vals = m_plus_lanes([complex(E, row[3]) for row in kept], v, alpha, theta, tol,
                          depth_cap)[0]
    rows = []
    for (k, big, logdet, eps_k), mp_val in zip(kept, m_vals):
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

    The scale equation is solved for eps by monotone bisection (the left
    side is fixed, the right side varies).  The kkl variant evaluates
    psi(m+)/(eps ||P_(k)||) at the scale det P_(k) = 1/eps^2.
    """
    L = 2 * k
    s1, s2 = _beta_norms(np.array([beta]), E, v, alpha, theta, L)
    prod_sq = float((s1 * s2)[0])
    X = math.sqrt(prod_sq)  # ||u^b||_L * ||u^{b+pi/2}||_L
    lo, hi = 0.25 / X, 1.0 / X
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 2.0 * mid * X - 1.0 > 0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= 1e-16 * hi:
            break
    eps = 0.5 * (lo + hi)
    scale_residual = abs(2.0 * eps * X - 1.0)

    nb, nbp = math.sqrt(float(s1[0])), math.sqrt(float(s2[0]))
    mp_val = m_plus(complex(E, eps), v, alpha, theta, tol)
    value = abs(rotate_beta(mp_val, beta)) * nb / nbp
    in_bracket = JL_LOWER * (1 - slack) < value < JL_UPPER * (1 + slack)

    pm = p_matrix(E, v, alpha, theta, k)
    kkl_eps = 1.0 / math.sqrt(pm.det)
    mp2 = m_plus(complex(E, kkl_eps), v, alpha, theta, tol)
    kkl_value = psi(mp2) / (kkl_eps * pm.norm)
    kkl_in = KKL_LOWER * (1 - slack) < kkl_value < KKL_UPPER * (1 + slack)

    return BracketRecord(E=float(E), beta=float(beta), k=int(k), eps=eps,
                         scale_residual=scale_residual, value=value,
                         in_bracket=in_bracket, kkl_eps=kkl_eps,
                         kkl_value=kkl_value, kkl_in_bracket=kkl_in)
