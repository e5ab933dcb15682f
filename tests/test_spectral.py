import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from quasispec import spectral
from quasispec.arithmetic import resolve_alpha
from quasispec.cocycle import Potential, lyapunov, orbit
from quasispec.spectral import (
    GapRecord,
    gap_edges,
    holder_fit,
    ids,
    in_spectrum,
    refine_gap_edge,
    sturm_counts,
    thouless_check,
)
from quasispec.weyl import m_triple

ALPHA = resolve_alpha("golden", 40).alpha
FREE = Potential.zero()
AMO = Potential.amo(0.5)


def free_ids_exact(E):
    """IDS of the free operator: (1/pi) arccos(-E/2) on [-2, 2]."""
    if E <= -2:
        return 0.0
    if E >= 2:
        return 1.0
    return math.acos(-E / 2) / math.pi


def sturm_counts_sequential(diag, E_grid):
    """The site-by-site pivot loop, the reference for the blocked scan."""
    E = np.asarray(E_grid, dtype=float)
    count = np.zeros(E.shape, dtype=np.int64)
    d = np.full(E.shape, np.inf)
    tiny = 1e-300
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a in diag:
            d = (a - E) - 1.0 / d
            d = np.where(d == 0.0, -tiny, d)
            count += d < 0
    return count


def orbit_diag(v, size, theta=0.0):
    return np.asarray(v((theta + ALPHA * np.arange(size)) % 1.0), dtype=float)


@functools.lru_cache(maxsize=1)
def _widest_gaps():
    """The gaps of the AMO(0.5) 4000 x 6401 table, widest first."""
    tab = ids(AMO, ALPHA, np.linspace(-3.2, 3.2, 6401), "finite_box", size=4000)
    return sorted(gap_edges(tab), key=lambda g: g.e_right - g.e_left, reverse=True)


@functools.lru_cache(maxsize=1)
def _sequential_edges(size=50000, half_width=5e-3, stages=3, pts=64):
    """The edge search of ``refine_gap_edge`` on both edges of the four
    widest gaps, every point of every stage's grid counted by the site
    loop; the eight searches share one loop per stage."""
    diag = np.asarray(AMO(orbit(0.0, ALPHA, 0, size)), dtype=float)
    edges = [(rank, side) for rank in range(4) for side in ("left", "right")]
    gaps = [_widest_gaps()[rank] for rank, _ in edges]
    mids = np.array([0.5 * (g.e_left + g.e_right) for g in gaps])
    levels = sturm_counts_sequential(diag, mids) / size
    targets = [lv - 3.0 / size if side == "left" else lv + 3.0 / size
               for lv, (_, side) in zip(levels, edges)]
    centres = [g.e_left if side == "left" else g.e_right for g, (_, side) in zip(gaps, edges)]
    windows = [(c - half_width, c + half_width) for c in centres]
    for _ in range(stages):
        grids = [np.linspace(lo, hi, pts) for lo, hi in windows]
        N = sturm_counts_sequential(diag, np.concatenate(grids)).reshape(len(edges), pts) / size
        for i, (grid, target) in enumerate(zip(grids, targets)):
            idx = min(max(int(np.searchsorted(N[i] >= target, True)), 1), pts - 1)
            windows[i] = grid[idx - 1], grid[idx]
    return {edge: float(0.5 * (lo + hi)) for edge, (lo, hi) in zip(edges, windows)}


class TestSturm:
    def test_free_counts_match_exact_eigenvalues(self):
        # eigenvalues of the free n-box are 2 cos(pi j / (n+1))
        n = 300
        diag = np.zeros(n)
        exact = np.sort(2 * np.cos(np.pi * np.arange(1, n + 1) / (n + 1)))
        for E in (-1.5, -0.3, 0.9, 1.99):
            assert sturm_counts(diag, np.array([E]))[0] == np.searchsorted(exact, E)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 400), st.integers(0, 2**32 - 1),
           st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=8))
    def test_counts_match_eigenvalues(self, n, seed, energies):
        # small boxes with few energies still split into isqrt(n) blocks
        diag = np.random.default_rng(seed).uniform(-3.0, 3.0, n)
        eigs = eigvalsh_tridiagonal(diag, np.ones(n - 1)) if n > 1 else diag
        E = np.array(energies)
        away = np.min(np.abs(E[:, None] - eigs[None, :]), axis=1) > 1e-9
        got = sturm_counts(diag, E)
        assert np.array_equal(got[away], np.searchsorted(eigs, E[away], side="left"))

    @pytest.mark.parametrize("size, grid", [
        (4000, np.linspace(-3.2, 3.2, 6401)),      # the IDS table of the gap search
        (50000, np.linspace(0.331, 0.341, 64)),    # the first stage of an edge search
        (20000, np.array([-0.01, 0.01])),          # a spectrum-membership test
    ], ids=["4000x6401", "50000x64", "20000x2"])
    def test_equals_sequential_loop(self, size, grid):
        diag = orbit_diag(AMO, size, 0.123)
        assert np.array_equal(sturm_counts(diag, grid), sturm_counts_sequential(diag, grid))

    def test_exact_zero_pivots(self):
        # the free box at E in {-1, 0, 1} hits exact zero pivots every few
        # sites, also at block boundaries
        for n in (24, 257, 3000):
            grid = np.array([-2.0, -1.0, 0.0, 1.0, 2.0, math.sqrt(2.0)])
            diag = np.zeros(n)
            assert np.array_equal(sturm_counts(diag, grid), sturm_counts_sequential(diag, grid))

    def test_shapes(self):
        diag = orbit_diag(AMO, 500)
        assert sturm_counts(diag, np.linspace(-3, 3, 12).reshape(3, 4)).shape == (3, 4)
        assert sturm_counts(diag, np.array([])).shape == (0,)
        assert np.array_equal(sturm_counts(np.array([]), np.array([0.0, 1.0])), [0, 0])
        assert sturm_counts(diag, np.array([3.5]))[0] == 500

    def test_count_convention(self):
        # a zero pivot counts as negative, so an eigenvalue exactly at E is counted
        assert sturm_counts(np.array([0.0]), np.array([0.0]))[0] == 1
        assert sturm_counts(np.zeros(3), np.array([0.0]))[0] == 2  # eigenvalues -sqrt 2, 0, sqrt 2
        assert sturm_counts_sequential(np.zeros(3), np.array([0.0]))[0] == 2

    @staticmethod
    def _with_width(E, B_one):
        # more than 2**11 energies give B = 1 blocks, a handful give B = isqrt(N)
        return np.concatenate([E, np.linspace(-3.0, 3.0, 2100)]) if B_one else E

    @pytest.mark.parametrize("B_one", [False, True], ids=["B>1", "B=1"])
    def test_gershgorin_trim_boundaries(self, B_one):
        # energies where fl(min a - E) or fl(max a - E) is exactly +-2, and
        # their float neighbours on either side
        diag = orbit_diag(AMO, 3000, 0.37)
        lo, hi = diag.min(), diag.max()
        near = []
        for edge, gap in ((lo, 2.0), (hi, -2.0)):
            E0 = edge - gap
            near += [E0]
            for k in range(1, 4):
                near += [E0 + k * np.spacing(E0), E0 - k * np.spacing(E0)]
        near = np.array(near)
        assert np.any(lo - near == 2.0) and np.any(hi - near == -2.0)
        assert np.any(lo - near < 2.0) and np.any(hi - near > -2.0)
        E = self._with_width(near, B_one)
        got = sturm_counts(diag, E)
        assert np.array_equal(got, sturm_counts_sequential(diag, E))
        assert np.all(got[:len(near)][lo - near >= 2.0] == 0)
        assert np.all(got[:len(near)][hi - near <= -2.0] == 3000)

    @pytest.mark.parametrize("B_one", [False, True], ids=["B>1", "B=1"])
    def test_infinite_energies(self, B_one):
        diag = orbit_diag(AMO, 1000, 0.2)
        E = self._with_width(np.array([-np.inf, np.inf, 0.0]), B_one)
        got = sturm_counts(diag, E)
        assert np.array_equal(got, sturm_counts_sequential(diag, E))
        assert list(got[:2]) == [0, 1000]

    def test_empty_diagonal(self):
        E = np.array([-np.inf, -3.0, 0.0, 3.0, np.inf, np.nan])
        assert np.array_equal(sturm_counts(np.array([]), E), np.zeros(6, dtype=int))

    @pytest.mark.parametrize("B_one", [False, True], ids=["B>1", "B=1"])
    def test_nan_diagonal_is_not_trimmed(self, B_one):
        # the site loop never counts a NaN pivot, nor any pivot after it,
        # so a trim to N far above the spectrum would be wrong
        diag = orbit_diag(AMO, 1000, 0.2)
        diag[600] = np.nan
        E = self._with_width(np.array([-10.0, -3.0, 0.0, 3.0, 10.0]), B_one)
        got = sturm_counts(diag, E)
        assert np.array_equal(got[:5], sturm_counts_sequential(diag, E)[:5])
        assert got[4] == 600

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_diagonal_entry(self, bad):
        # an infinite entry leaves one Gershgorin side finite: that side is
        # trimmed exactly, and the other is scanned
        diag = orbit_diag(AMO, 1000, 0.2)
        diag[600] = bad
        E = self._with_width(np.array([-np.inf, -10.0, -3.0, 0.0, 3.0, 10.0, np.inf]), True)
        assert np.array_equal(sturm_counts(diag, E), sturm_counts_sequential(diag, E))
        trimmed = np.array([-10.0]) if bad == np.inf else np.array([10.0])
        assert sturm_counts(diag, trimmed)[0] == (0 if bad == np.inf else 1000)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_diagonal_entry_few_energies(self, bad):
        # a handful of energies would split the box into isqrt(N) blocks,
        # whose totals an infinite entry turns into NaN
        diag = np.random.default_rng(0).uniform(-1.0, 1.0, 1000)
        diag[500] = bad
        E = np.array([-0.5, 0.1, 0.7])
        assert np.array_equal(sturm_counts(diag, E), sturm_counts_sequential(diag, E))

    @pytest.mark.parametrize("v, size, grid, theta", [
        (FREE, 5000, np.linspace(-4.5, 4.5, 7001), 0.3),
        (Potential.amo(2.0), 5000, np.linspace(-8.0, 8.0, 7001), 0.3),
        (AMO, 4000, np.linspace(-3.2, 3.2, 6401), 0.0),
    ], ids=["free-5000x7001", "amo2-5000x7001", "amo0.5-4000x6401"])
    def test_benchmark_tables_equal_sequential(self, v, size, grid, theta):
        # the IDS tables of the gap search and the Thouless checks, where
        # 6% to 56% of the energies lie outside Gershgorin
        diag = orbit_diag(v, size, theta)
        assert np.array_equal(sturm_counts(diag, grid), sturm_counts_sequential(diag, grid))

    def test_blocked_few_energy_counts_pinned(self):
        # 7 energies over 50000 sites: 585 blocks of 86 sites, each block's
        # starting pivot from the companion-step scan and its prefix product
        diag = orbit_diag(AMO, 50000)
        assert sturm_counts(diag, np.linspace(-2.4, 2.4, 7)).tolist() == [
            0, 12575, 19098, 25000, 30901, 37426, 50000]


def _record_scans(monkeypatch):
    """The energies of every pivot scan that ``sturm_counts`` runs."""
    scans = []
    scan = spectral._pivot_scan

    def recording(a, E, blocked):
        scans.append(E.copy())
        return scan(a, E, blocked)

    monkeypatch.setattr(spectral, "_pivot_scan", recording)
    return scans


class TestPinnedCounts:
    """Strictly rising grids of more than 128 scanned energies: every 32nd
    energy and the last are counted first, and an energy between two equal
    counts takes that count with no scan."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["amo", "random", "free"]), st.floats(0.2, 3.0),
           st.floats(0.0, 1.0), st.integers(16, 1500), st.integers(160, 700),
           st.integers(0, 2**32 - 1))
    def test_equals_sequential_loop(self, kind, lam, theta, size, points, seed):
        # AMO boxes have wide gaps, so long plateaus; random grids are uneven;
        # the free box hits exact zero pivots at E = -1, 0, 1
        rng = np.random.default_rng(seed)
        if kind == "amo":
            diag = orbit_diag(Potential.amo(lam), size, theta)
        elif kind == "random":
            diag = rng.uniform(-lam, lam, size)
        else:
            diag = np.zeros(size)
        reach = 2.0 + np.abs(diag).max() + 0.5
        E = np.unique(np.r_[rng.uniform(-reach, reach, points), -1.0, 0.0, 1.0])
        assert np.array_equal(sturm_counts(diag, E), sturm_counts_sequential(diag, E))

    @pytest.mark.parametrize("grid", [
        np.random.default_rng(3).permutation(np.linspace(-2.5, 2.5, 1001)),
        np.r_[np.linspace(-2.5, 0.0, 500), np.linspace(0.0, 2.5, 501)],
        np.r_[np.linspace(-2.5, 0.0, 500), np.nan, np.linspace(0.01, 2.5, 500)],
        np.linspace(-2.5, 2.5, 128),
    ], ids=["unsorted", "repeated", "nan", "128-energies"])
    def test_fallbacks_scan_every_energy(self, monkeypatch, grid):
        diag = orbit_diag(AMO, 2000, 0.4)
        scans = _record_scans(monkeypatch)
        got = sturm_counts(diag, grid)
        assert np.array_equal(got, sturm_counts_sequential(diag, grid))
        assert len(scans) == 1 and np.array_equal(scans[0], grid, equal_nan=True)

    def test_wide_free_grid_with_exact_zero_pivots(self, monkeypatch):
        # E = k / 1000 holds -2, -1, 0, 1 and 2 exactly, where the free box
        # hits zero pivots; the bands' counts change at almost every energy
        diag = np.zeros(3000)
        grid = np.arange(-3000, 3001) / 1000.0
        scans = _record_scans(monkeypatch)
        assert np.array_equal(sturm_counts(diag, grid), sturm_counts_sequential(diag, grid))
        assert len(scans) == 2

    def test_gapped_table_scans_under_half_its_energies(self, monkeypatch):
        # the AMO(0.5) table of the gap search: the Gershgorin trim leaves
        # 5,999 energies, and pinning decides most of those in the gaps
        # (2,545 are scanned)
        diag = orbit_diag(AMO, 4000)
        scans = _record_scans(monkeypatch)
        sturm_counts(diag, np.linspace(-3.2, 3.2, 6401))
        assert len(scans) == 2 and sum(map(len, scans)) < 6401 // 2


class TestIds:
    def test_free_values(self):
        tab = ids(FREE, ALPHA, np.linspace(-3, 3, 601), "finite_box", size=3000)
        assert tab.value(0.0) == pytest.approx(0.5, abs=1e-2)
        assert tab.value(2.0) >= 1.0 - 5e-3
        assert tab.value(-2.9) == 0.0
        assert tab.value(2.9) == 1.0
        assert np.all(np.diff(tab.N_values) >= 0)

    def test_free_matches_arccos_profile(self):
        tab = ids(FREE, ALPHA, np.linspace(-2.5, 2.5, 501), "finite_box", size=4000)
        exact = np.array([free_ids_exact(E) for E in tab.energies])
        assert np.max(np.abs(tab.N_values - exact)) < 5e-3

    def test_size_validation(self):
        with pytest.raises(ValueError):
            ids(FREE, ALPHA, np.array([0.0]), size=50)

    @pytest.mark.parametrize("grid", [np.linspace(7.0, -7.0, 1401), np.array([-1.0, 0.0, 0.0, 1.0]),
                                      np.array([-1.0, np.nan, 1.0]), np.array([-1.0, np.inf])],
                             ids=["falling", "repeated", "nan", "inf"])
    @pytest.mark.parametrize("method", ["finite_box"])
    def test_grid_must_rise(self, grid, method):
        # a falling grid gave IdsTable.value(0.0) = 0.0 for AMO lambda = 2,
        # where the rising grid reads 0.499
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            ids(Potential.amo(2.0), ALPHA, grid, method, size=100)

    @pytest.mark.parametrize("method", ["phase_average", "finite-box"])
    def test_finite_box_is_the_one_method(self, method):
        with pytest.raises(ValueError, match="'finite_box'"):
            ids(FREE, ALPHA, np.array([0.0]), method, size=100)


class TestThouless:
    def test_free_hyperbolic_energy(self):
        tab = ids(FREE, ALPHA, np.linspace(-4, 4, 4001), "finite_box", size=5000)
        L = lyapunov(3.0, FREE, ALPHA, 4000, 16)
        rec = thouless_check(3.0, FREE, ALPHA, tab, L)
        assert rec.integral == pytest.approx(math.log((3 + math.sqrt(5)) / 2), abs=0.02)
        assert rec.residual < 0.02

    def test_free_in_spectrum(self):
        tab = ids(FREE, ALPHA, np.linspace(-4, 4, 4001), "finite_box", size=5000)
        L = lyapunov(0.0, FREE, ALPHA, 20000, 16)
        rec = thouless_check(0.0, FREE, ALPHA, tab, L)
        assert abs(rec.integral) < 0.02 and rec.residual < 0.02

    def test_amo_supercritical(self):
        v = Potential.amo(2.0)
        tab = ids(v, ALPHA, np.linspace(-7, 7, 7001), "finite_box", size=5000)
        L = lyapunov(0.0, v, ALPHA, 20000, 32)
        rec = thouless_check(0.0, v, ALPHA, tab, L)
        assert rec.integral == pytest.approx(math.log(2), abs=0.05)
        assert rec.residual < 0.05


    def test_one_energy_table_is_rejected(self):
        # the integral over no cell read 0.0, with no error
        tab = ids(AMO, ALPHA, np.array([0.0]), size=1000)
        with pytest.raises(ValueError, match="at least two energies"):
            thouless_check(0.0, AMO, ALPHA, tab, 0.0)


class TestHolderFit:
    def test_free_interior_slope(self):
        fit = holder_fit(0.0, FREE, ALPHA, 0.0, (1e-4, 1e-1), 16, tol=1e-9)
        assert abs(fit.slope - 1.0) <= 0.05

    def test_free_band_edge_slope(self):
        fit = holder_fit(2.0, FREE, ALPHA, 0.0, (1e-4, 1e-1), 16, tol=1e-9)
        assert abs(fit.slope - 0.5) <= 0.1

    def test_amo_sqrt_envelope(self):
        fit = holder_fit(0.0, AMO, ALPHA, 0.0, (1e-4, 1e-1), 12, tol=1e-8)
        assert np.all(fit.w <= 10.0 * np.sqrt(fit.eps))
        scaled = fit.im_sqrt_eps
        assert scaled.max() / scaled.min() < 1e3

    def test_free_window_linear_scaling(self):
        # the window proxy w = 2 eps Im M is 2 eps at the free band centre
        fit = holder_fit(0.0, FREE, ALPHA, 0.0, (1e-3, 1e-1), 8, tol=1e-9)
        assert fit.w[0] == pytest.approx(2e-3, rel=0.01)

    def test_window_monotone_in_eps(self):
        # w grows with eps while Im M / eps = w / (2 eps^2) shrinks
        fit = holder_fit(0.5, AMO, ALPHA, 0.0, (1e-3, 1e-1), 8, tol=1e-9)
        im_over_eps = fit.w / (2 * fit.eps * fit.eps)
        assert np.all(np.diff(im_over_eps) <= im_over_eps[:-1] * 1e-6)
        assert np.all(np.diff(fit.w) >= -fit.w[1:] * 1e-6)

    def test_positive_eps_required(self):
        with pytest.raises(ValueError, match="eps_range must be positive"):
            holder_fit(0.0, FREE, ALPHA, 0.0, (0.0, 1e-1), 8)

    def test_each_point_is_its_own_m_triple(self):
        # the eps ladder runs as lanes of one m+ and one m- walk, and each
        # Im M is that of m_triple at its own eps, bit for bit
        fit = holder_fit(0.0, AMO, ALPHA, 0.31, (1e-4, 1e-1), 16)
        for e, im in zip(fit.eps, fit.im_M):
            assert im == m_triple(complex(0.0, e), AMO, ALPHA, 0.31).M.imag


class TestGaps:
    def test_free_has_no_gaps(self):
        tab = ids(FREE, ALPHA, np.linspace(-3, 3, 2001), "finite_box", size=4000)
        assert gap_edges(tab) == []

    def test_amo_gap_labelling(self):
        tab = ids(AMO, ALPHA, np.linspace(-3.2, 3.2, 6401), "finite_box", size=4000)
        gaps = gap_edges(tab)
        assert gaps, "AMO(0.5) must show gaps at this resolution"
        for g in gaps:
            label_err = min(abs(g.n_plateau - (k * ALPHA) % 1.0)
                            for k in range(-40, 41) if k != 0)
            assert label_err < 1e-2
        plateaus = [g.n_plateau for g in gaps]
        assert plateaus == sorted(plateaus)

    @pytest.mark.parametrize("grid", [np.linspace(3.2, -3.2, 641), np.array([-1.0, 0.0, 0.0, 1.0])],
                             ids=["reversed", "repeated"])
    def test_energies_must_increase(self, grid):
        # a falling grid gave inverted gaps and never merged split plateaus;
        # the table itself now refuses such a grid
        with pytest.raises(ValueError, match="strictly increasing"):
            gap_edges(ids(AMO, ALPHA, grid, "finite_box", size=400))

    def test_one_energy_table_is_rejected(self):
        # numpy's "zero-size array to reduction operation" named no cause
        tab = ids(AMO, ALPHA, np.array([0.0]), size=1000)
        with pytest.raises(ValueError, match="at least two energies"):
            gap_edges(tab)

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("rank", range(4), ids=lambda r: f"gap{r}")
    def test_refined_edge_equals_sequential(self, rank, side):
        # the eight edges of the benchmark: both edges of the four widest gaps
        # of the 4000-site table
        gap = _widest_gaps()[rank]
        got = refine_gap_edge(AMO, ALPHA, gap, side, half_width=5e-3, size=50000)
        assert got == _sequential_edges()[rank, side]

    @pytest.mark.parametrize("half_width", [1e-6, 1e-4])
    def test_edge_outside_the_window_is_an_error(self, half_width):
        # the left edge of the widest gap lies at -1.2976064, outside
        # -1.297 +- half_width: the search returned the window's left end
        gap = _widest_gaps()[0]
        with pytest.raises(ValueError, match="outside it; widen half_width"):
            refine_gap_edge(AMO, ALPHA, gap, "left", half_width=half_width, size=50000)
        edge = refine_gap_edge(AMO, ALPHA, gap, "left", half_width=5e-3, size=50000)
        assert edge == pytest.approx(-1.2976064, abs=1e-7)

    def test_refined_edge_inside_coarse_bracket(self):
        tab = ids(AMO, ALPHA, np.linspace(-3.2, 3.2, 3201), "finite_box", size=3000)
        gaps = sorted(gap_edges(tab), key=lambda g: g.e_right - g.e_left, reverse=True)
        g = gaps[0]
        step = tab.grid_step
        eR = refine_gap_edge(AMO, ALPHA, g, "right", half_width=3 * step, size=50000)
        assert abs(eR - g.e_right) <= 3 * step


class TestArgumentChecks:
    GAP = GapRecord(e_left=0.336, e_right=1.297, n_plateau=0.618125)

    @pytest.mark.parametrize("pts", [1, 0, -3])
    def test_refine_rejects_pts_below_two(self, pts):
        with pytest.raises(ValueError, match="need pts >= 2"):
            refine_gap_edge(AMO, ALPHA, self.GAP, "right", half_width=5e-3, size=20000, pts=pts)

    @pytest.mark.parametrize("half_width", [-5e-3, 0.0, math.nan, math.inf])
    def test_refine_rejects_bad_half_width(self, half_width):
        with pytest.raises(ValueError, match="positive, finite half_width"):
            refine_gap_edge(AMO, ALPHA, self.GAP, "right", half_width=half_width, size=20000)

    def test_refine_rejects_an_empty_gap(self):
        # the default half_width is half the gap
        gap = GapRecord(e_left=0.5, e_right=0.5, n_plateau=0.5)
        with pytest.raises(ValueError, match="got 64, 0.0"):
            refine_gap_edge(AMO, ALPHA, gap, "left", size=20000)

    @pytest.mark.parametrize("delta", [0.0, -1e-2, math.nan, math.inf])
    def test_in_spectrum_rejects_bad_delta(self, delta):
        with pytest.raises(ValueError, match="delta must be positive and finite"):
            in_spectrum(AMO, ALPHA, 0.0, delta)


class TestSpectrumMask:
    def test_amo_energies(self):
        assert in_spectrum(AMO, ALPHA, 0.0, 1e-2)
        # +-0.5 and +-1.0 sit inside the dominant gaps of AMO(0.5)
        for E in (0.5, -0.5, 1.0, -1.0):
            assert not in_spectrum(AMO, ALPHA, E, 1e-2)
        assert not in_spectrum(AMO, ALPHA, 3.5, 1e-2)
