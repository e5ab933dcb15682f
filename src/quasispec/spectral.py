"""Spectral-measure window estimates, Hoelder-exponent fitting,
integrated density of states and the Thouless formula.

The window proxy is w(eps) = 2 eps Im M(E + i eps), an exact upper bound
for the corner measure of (E-eps, E+eps); the tool fits the scaling of
Im M and never claims pointwise measure values.  The IDS has one method,
the finite box: it, spectrum membership and gap-edge refinement use
Sturm-sequence eigenvalue counting on the symmetric tridiagonal
truncation at one phase, O(size) work per energy, run as a blocked scan
over sites x energies: the pivot maps of up to size / 16 blocks are
folded into each block's starting pivot by a log-depth prefix product,
then the pivot recurrence runs inside all blocks at once
(``sturm_counts``).  Only energies whose count is not already known are
scanned: those outside the Gershgorin interval of the box are counted
without a scan, and on a rising grid those between two equal counts take
that count (the count never decreases in E); an edge search scans only
the bracket where the count reaches its target.  Counting pivots is the
discrete form of the rotation-number view of the IDS.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cocycle import ROW_BUDGET, Potential, block_starts, orbit
from .weyl import DEPTH_CAP_DEFAULT, _m_triples


def sturm_counts(diag: np.ndarray, E_grid: np.ndarray) -> np.ndarray:
    """Number of eigenvalues <= E of tridiag(diag, offdiag=1), per E.

    Standard LDL^T pivot-sign count: d_j = (a_j - E) - 1/d_{j-1} from
    d_{-1} = inf, and the count is the number of pivots d_j <= 0.  A zero
    pivot counts as negative, which is the count of eigenvalues < E of
    the box with that diagonal entry lowered by a tiny amount: so an
    eigenvalue exactly at E is counted, ``sturm_counts([0.0], [0.0])`` is
    1 and the free 3-box (eigenvalues -sqrt 2, 0, sqrt 2) gives 2 at
    E = 0.  Away from the eigenvalues it is the number below E.

    Gershgorin trim: where fl(min a - E) >= 2, every pivot is >= 1 in
    floating point too (rounding is monotone, and 1/d_{j-1} <= 1), so the
    count is 0 with no scan; where fl(max a - E) <= -2, every pivot is
    <= -1 and the count is N.  A NaN in the diagonal makes both tests
    false, and nothing is trimmed.

    Pinning: the count never decreases in E, so where more than 128
    energies are left and they strictly rise, every 32nd of them and the
    last are counted first, and an energy strictly between two of these
    with equal counts takes that count with no scan; only the energies
    of intervals whose counts differ are scanned.  Falling, repeated or
    NaN energies, and short grids, are all scanned.

    Each scan (``_pivot_scan``) is a two-level blocked scan over B blocks
    of S = ceil(N / B) sites, B about min(N / 16, ``cocycle.ROW_BUDGET`` /
    len(E)) for the len(E) energies of that scan, and 1 where that is
    below 8 (the block passes then cost more than they save).  So a scan
    of a few energies has Python loops of a few dozen steps, and one step
    of every block touches at most ``ROW_BUDGET`` (4096) values:

    1. the pivot map of each block is a Moebius map, the product of its
       companion steps [[a_j - E, -1], [1, 0]] (``cocycle.block_totals``);
    2. their log-depth prefix product (``cocycle.block_starts``) gives
       each block's starting pivot, a / c of its starting product, the
       first block starting at inf;
    3. the recurrence runs inside all blocks at once from those starts,
       on the negated pivots g_j = -d_j = -1/g_{j-1} - (a_j - E), and
       counts the sites with g_j >= 0.  A zero pivot comes out as g = +0
       and counts; its reciprocal -inf gives the next two sites the signs
       that nudging it to -tiny would, so zero pivots take no extra pass.

    When B = 1 (more than 512 energies, fewer than 128 sites, or a
    diagonal with an infinite entry), passes 1-2 are empty and pass 3 is
    the plain site loop.

    Exactness: a block's starting pivot is the pivot d_j of the previous
    block's last site j, computed by the prefix product instead of the
    site loop.  Its sign is what counts for site j, and the block's
    pivots follow from it, so an error in it acts like a perturbation of
    the single diagonal entry a_j: the count is the exact count of a box
    with a few diagonal entries off by rounding, and it can differ from
    the site loop's only when E lies within rounding of an eigenvalue of
    the whole box, where the count is decided by rounding either way.  So
    equal counts at E_i < E_j mean the box has no eigenvalue in
    (E_i + delta, E_j - delta), delta of rounding size, and the site
    loop's count at every energy in between is that same count: a pinned
    count is the site loop's on the same terms.
    """
    shape = np.shape(E_grid)
    E = np.asarray(E_grid, dtype=float).ravel()
    a = np.asarray(diag, dtype=float).ravel()
    N = len(a)
    lo, hi = a.min(initial=np.inf), a.max(initial=-np.inf)
    # an infinite entry turns the block totals of passes 1-2 into inf - inf
    # = NaN, so such a diagonal runs as the plain site loop
    blocked = not (np.isinf(lo) or np.isinf(hi))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        full = hi - E <= -2.0
        scan = ~(full | (lo - E >= 2.0))
        count = np.where(full, N, 0)
        E = E[scan]
        if E.size > 128 and np.all(E[1:] > E[:-1]):
            count[scan] = _pinned_counts(a, E, blocked)
        else:
            count[scan] = _pivot_scan(a, E, blocked)
    return count.reshape(shape)


def _pinned_counts(a: np.ndarray, E: np.ndarray, blocked: bool) -> np.ndarray:
    """Counts at the strictly rising energies E: every 32nd and the last
    by one scan, the energies between two equal counts pinned to them,
    and the rest by a second scan (see ``sturm_counts``)."""
    coarse = np.r_[0:len(E) - 1:32, len(E) - 1]
    c = _pivot_scan(a, E[coarse], blocked)
    gaps = np.diff(coarse)
    count = np.append(np.repeat(c[:-1], gaps), c[-1])
    open_ = np.append(np.repeat(c[:-1] != c[1:], gaps), False)
    open_[coarse] = False
    count[open_] = _pivot_scan(a, E[open_], blocked)
    return count


def _pivot_scan(a: np.ndarray, E: np.ndarray, blocked: bool) -> np.ndarray:
    """Passes 1-3 of ``sturm_counts`` at the energies E: the one loop of
    the package that steps the Sturm pivots."""
    N = len(a)
    if not E.size:
        return np.zeros(0, dtype=np.int64)
    B = min(N // 16, ROW_BUDGET // E.size) if blocked else 1
    if B < 8:  # too few blocks to repay passes 1-2
        B = 1
    S = -(-N // B)  # block i holds sites i S .. i S + S - 1; the last may be short
    if B > 1:
        B = -(-N // S)  # no block left empty
    g = _starting_pivots(a[:(B - 1) * S].reshape(B - 1, S), E)
    # the last site of each block is counted by the sign of the next
    # block's start, so the sign at a boundary and the pivots after it
    # come from one value (see the exactness note of ``sturm_counts``)
    inner = np.count_nonzero(g[1:] > 0.0, axis=0)
    # 3. negated pivots and counts inside the blocks; the counts run in
    # uint8, added into the int64 total every 255 sites
    short = N - (B - 1) * S  # sites of the last block
    run = np.zeros(g.shape, dtype=np.uint8)
    ae = out = np.empty_like(g)
    mask = np.empty(g.shape, dtype=bool)
    mask8 = mask.view(np.uint8)
    for t0 in range(0, S, 255):
        t1 = min(t0 + 255, S)
        rows = a[t0:t1].tolist() if B == 1 else (a[t::S, None] for t in range(t0, t1))
        for t, r in enumerate(rows, t0):
            if t == short:  # past its end the last block reads diagonal +inf
                ae[-1] = np.inf  # (g = -inf or NaN: never counted)
                out = ae[:-1]
            np.subtract(r, E, out=out)  # site t of every block
            np.divide(-1.0, g, out=g)
            np.subtract(g, ae, out=g)
            np.greater_equal(g, 0.0, out=mask)
            np.add(run, mask8, out=run)
        inner += run.sum(axis=0, dtype=np.int64)
        run.fill(0)
    return inner - np.count_nonzero(g[:B - 1] >= 0.0, axis=0)


def _starting_pivots(full: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Passes 1-2 of ``sturm_counts`` from the diagonal of blocks
    0 .. B-2 (shape (B - 1, S)): the negated pivot -d entering each of
    the B blocks, that of the previous block's last site, shape
    (B, len(E)).  A zero pivot is nudged to -tiny here (g = +tiny), and
    the pivot after it, a / c = +-inf, is +inf (g = -inf)."""
    if not len(full):
        return np.full((1, E.size), -np.inf)
    # 1. Moebius maps of blocks 0 .. B-2
    e = np.empty((len(full), E.size))

    def rows():
        for t in range(full.shape[1]):
            np.subtract(full[:, t, None], E, out=e)
            yield e

    # 2. prefix product: the pivot is a / c of the block's starting product
    # (inf, 1/0, for block 0); the power-of-two scaling leaves it exact
    x, _ = block_starts(rows(), e.shape)
    g = -x[0, 0] / x[1, 0]
    g[g == 0.0] = 1e-300  # d = 0 is nudged to -tiny
    g[g == np.inf] = -np.inf
    return g


@dataclass(frozen=True)
class IdsTable:
    """Integrated density of states sampled on an energy grid.  Energies
    that are not finite and strictly increasing raise ValueError: the
    interpolation, gap search and Thouless integral all read the table
    as a rising grid."""

    energies: np.ndarray
    N_values: np.ndarray
    size: int

    def __post_init__(self):
        E = np.ravel(self.energies)
        if not (np.all(np.isfinite(E)) and np.all(np.diff(E) > 0)):
            raise ValueError("IdsTable energies must be finite and strictly increasing")

    def value(self, E: float) -> float:
        return float(np.interp(E, self.energies, self.N_values))

    @property
    def grid_step(self) -> float:
        """The smallest energy step; ValueError on a one-energy table."""
        return float(np.min(np.diff(_two_or_more(self.energies))))


def _two_or_more(energies: np.ndarray) -> np.ndarray:
    """The energies of a table that gap search and the Thouless integral
    can read: ValueError where there are fewer than two."""
    if np.size(energies) < 2:
        raise ValueError(f"needs an IDS table of at least two energies, got {np.size(energies)}")
    return energies


def ids(v: Potential, alpha: float, E_grid, method: str = "finite_box",
        size: int = 3000, theta: float = 0.0) -> IdsTable:
    """Integrated density of states N(E) on a grid: the eigenvalue count
    per site of the size x size truncation with Dirichlet ends at the
    fixed phase theta (self-averaging), by ``sturm_counts``.  ``method``
    names that finite box, the one method: any other value raises
    ValueError.
    """
    if method != "finite_box":
        raise ValueError(f"method must be 'finite_box', got {method!r}")
    if size < 100:
        raise ValueError("size must be >= 100")
    E = np.asarray(E_grid, dtype=float)
    diag = np.asarray(v(orbit(theta, alpha, 0, size)), dtype=float)
    return IdsTable(energies=E, N_values=sturm_counts(diag, E) / size, size=size)


def in_spectrum(v: Potential, alpha: float, E: float, delta: float,
                size: int = 20000, theta: float = 0.0) -> bool:
    """Spectrum membership proxy: the finite-box IDS must increase by
    more than the possible boundary-state count across [E-delta, E+delta].
    ``delta`` must be positive and finite (ValueError)."""
    if not 0.0 < delta < math.inf:
        raise ValueError(f"delta must be positive and finite, got {delta}")
    diag = np.asarray(v(orbit(theta, alpha, 0, size)), dtype=float)
    counts = sturm_counts(diag, np.array([E - delta, E + delta]))
    return int(counts[1] - counts[0]) > 2


@dataclass(frozen=True)
class HolderFit:
    """Log-log fit of the window proxy against eps on a geometric ladder."""

    E: float
    eps: np.ndarray
    w: np.ndarray
    im_M: np.ndarray
    slope: float
    residual: float
    window: tuple[float, float]

    @property
    def im_sqrt_eps(self) -> np.ndarray:
        """Im M * eps^{1/2} along the ladder (bounded above at good energies)."""
        return self.im_M * np.sqrt(self.eps)


def holder_fit(E: float, v: Potential, alpha: float, theta: float,
               eps_range: tuple[float, float], points: int,
               tol: float = 1e-8,
               depth_cap: int = DEPTH_CAP_DEFAULT) -> HolderFit:
    """Fit the scaling exponent of ln w against ln eps on a geometric
    eps ladder; slope ~1/2 is the Hoelder-1/2 signature at gap edges.
    The window needs two distinct positive ends: one eps repeated leaves
    no slope to fit.  NoConvergence from the m-functions (``depth_cap``)
    propagates."""
    if points < 4:
        raise ValueError("points must be >= 4")
    lo, hi = min(eps_range), max(eps_range)
    if lo <= 0:
        raise ValueError("eps_range must be positive")
    if lo == hi:
        raise ValueError(f"eps_range must have two distinct ends, got {lo} twice")
    eps = np.geomspace(lo, hi, points)

    im = np.array([t.M.imag for t in
                   _m_triples([complex(E, e) for e in eps], v, alpha, theta, tol, depth_cap)])
    w = 2.0 * eps * im
    coef = np.polyfit(np.log(eps), np.log(w), 1)
    fitted = np.polyval(coef, np.log(eps))
    residual = float(np.sqrt(np.mean((np.log(w) - fitted) ** 2)))
    return HolderFit(E=float(E), eps=eps, w=w, im_M=im,
                     slope=float(coef[0]), residual=residual, window=(lo, hi))


@dataclass(frozen=True)
class ThoulessRecord:
    E: float
    integral: float
    lyapunov: float
    residual: float


def thouless_check(E: float, v: Potential, alpha: float, ids_table: IdsTable,
                   lyap_value: float) -> ThoulessRecord:
    """Compare the Thouless integral of the IDS with a Lyapunov value.

    The Stieltjes integral of ln|E'-E| against dN is evaluated exactly
    on each cell for piecewise-linear N: the antiderivative
    (t-E) ln|t-E| - t integrates the logarithmic singularity with no
    special-casing of the two cells adjacent to E.
    """
    Es = _two_or_more(ids_table.energies)
    Ns = ids_table.N_values

    def F(t):
        u = t - E
        out = np.where(u == 0.0, 0.0, u * np.log(np.maximum(np.abs(u), 1e-300)))
        return out - t

    rho = np.diff(Ns) / np.diff(Es)
    integral = float(np.sum(rho * (F(Es[1:]) - F(Es[:-1]))))
    return ThoulessRecord(E=float(E), integral=integral, lyapunov=float(lyap_value),
                          residual=abs(integral - float(lyap_value)))


@dataclass(frozen=True)
class GapRecord:
    e_left: float
    e_right: float
    n_plateau: float


def gap_edges(ids_table: IdsTable, plateau_tol: float | None = None) -> list[GapRecord]:
    """Maximal intervals (>= 3 grid points) where N is constant within
    plateau_tol; endpoints are gap edges.  Plateaus at N=0 and N=1
    (outside the spectrum) are not gaps and are dropped.

    Dirichlet ends leave up to two boundary eigenvalues inside a true
    gap, each stepping the box IDS by 1/size and splitting the plateau;
    adjacent plateaus whose levels differ by at most 3/size and whose
    separation is at most 3 grid steps are merged back into one gap.
    A one-energy table raises ValueError.
    """
    Es = ids_table.energies
    Ns = ids_table.N_values
    step = ids_table.grid_step
    if plateau_tol is None:
        plateau_tol = 0.5 / ids_table.size
    raw = []
    i = 0
    n = len(Es)
    while i < n:
        j = i
        lo = hi = Ns[i]
        while j + 1 < n:
            nlo, nhi = min(lo, Ns[j + 1]), max(hi, Ns[j + 1])
            if nhi - nlo > plateau_tol:
                break
            lo, hi, j = nlo, nhi, j + 1
        if j - i + 1 >= 3:
            raw.append((float(Es[i]), float(Es[j]), 0.5 * (lo + hi)))
        i = j + 1
    merged = []
    for rec in raw:
        if merged and rec[0] - merged[-1][1] <= 3 * step \
                and abs(rec[2] - merged[-1][2]) <= 3.0 / ids_table.size:
            prev = merged[-1]
            merged[-1] = (prev[0], rec[1], 0.5 * (prev[2] + rec[2]))
        else:
            merged.append(rec)
    out = []
    for e_left, e_right, mid in merged:
        if 2 * plateau_tol < mid < 1 - 2 * plateau_tol:
            out.append(GapRecord(e_left=e_left, e_right=e_right, n_plateau=float(mid)))
    return out


def refine_gap_edge(v: Potential, alpha: float, gap: GapRecord, side: str,
                    half_width: float | None = None, size: int = 200000,
                    theta: float = 0.0, stages: int = 3, pts: int = 64) -> float:
    """Locate a gap edge to ~half_width/pts^stages via staged IDS scans.

    The plateau level is re-measured at the refinement box size (the
    coarse level is off by O(1/coarse size), far more than the 3/size
    crossing offset), then the energy where the box IDS leaves the
    plateau by more than the possible boundary-state count is narrowed
    by ``stages`` grids of ``pts`` energies around the coarse edge.  The
    box IDS never decreases in E, so each stage counts every 8th grid
    point and the last, then only the at most 7 points of the bracket
    where the count first reaches its target: the crossing index is the
    one a count of the whole grid gives.
    ``side`` is 'left' for the lower edge or 'right' for the upper.
    ``pts`` below 2, or a ``half_width`` (given, or half the gap) that is
    not positive and finite, raises ValueError, and so does an edge that
    the first grid, edge +- half_width, does not bracket.
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    half_width = 0.5 * (gap.e_right - gap.e_left) if half_width is None else half_width
    if pts < 2 or not 0.0 < half_width < math.inf:
        raise ValueError(f"need pts >= 2 and a positive, finite half_width, got {pts}, {half_width}")
    diag = np.asarray(v(orbit(theta, alpha, 0, size)), dtype=float)
    mid_gap = 0.5 * (gap.e_left + gap.e_right)
    level = float(sturm_counts(diag, np.array([mid_gap]))[0]) / size
    target = level - 3.0 / size if side == "left" else level + 3.0 / size

    def crossing(grid):  # the first index where the box IDS reaches target
        coarse = np.r_[0:pts - 1:8, pts - 1]
        k = int(np.searchsorted(sturm_counts(diag, grid[coarse]) / size >= target, True))
        if k in (0, len(coarse)):
            return 0 if k == 0 else pts
        lo = coarse[k - 1] + 1
        inside = sturm_counts(diag, grid[lo:coarse[k]]) / size >= target
        return lo + int(np.searchsorted(inside, True))  # N is monotone: False ... True

    edge = gap.e_left if side == "left" else gap.e_right
    lo, hi = edge - half_width, edge + half_width
    for stage in range(stages):
        grid = np.linspace(lo, hi, pts)
        idx = crossing(grid)
        if stage == 0 and not 0 < idx < pts:
            raise ValueError(f"the box IDS does not cross {target!r} inside the window "
                             f"[{lo!r}, {hi!r}]: the {side} edge lies outside it; "
                             "widen half_width")
        idx = min(max(idx, 1), pts - 1)
        lo, hi = grid[idx - 1], grid[idx]
    return float(0.5 * (lo + hi))
