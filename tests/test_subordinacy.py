import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from quasispec import subordinacy, weyl
from quasispec.arithmetic import resolve_alpha
from quasispec.cocycle import Potential, orbit, solution_norm_sq_batch
from quasispec.subordinacy import (
    JL_LOWER,
    JL_UPPER,
    KKL_LOWER,
    KKL_UPPER,
    _beta_products,
    _p_entries_upto,
    default_k_list,
    det_via_beta_scan,
    jl_bracket_check,
    p_matrix,
    profile,
)
from quasispec.weyl import NoConvergence, m_plus, psi, rotate_beta

ALPHA = resolve_alpha("golden", 40).alpha
FREE = Potential.zero()
AMO = Potential.amo(0.5)


def solution_values(beta, E, v, alpha, x, L):
    """u_0 .. u_L of H u = E u at real E, one step at a time from the
    boundary pair (u_0, u_1) = (-sin beta, cos beta): the reference for
    the P-matrix quadratic form."""
    u = np.empty(L + 1)
    u[0] = -math.sin(beta)
    u[1] = math.cos(beta)
    for j, e in enumerate(E - v(orbit(x, alpha, 1, L)), start=1):  # sites 1 .. L-1
        u[j + 1] = e * u[j] - u[j - 1]
    return u


class TestPMatrix:
    def test_k1_determinant(self):
        pm = p_matrix(0.7, AMO, ALPHA, 0.3, 1)
        assert pm.det == pytest.approx(1.0, rel=1e-12)
        assert pm.eps == pytest.approx(0.5, rel=1e-12)

    def test_trace_lower_bound(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            k = int(rng.integers(1, 60))
            pm = p_matrix(rng.uniform(-2, 2), AMO, ALPHA, rng.uniform(0, 1), k)
            assert pm.trace >= 2 * k - 1e-9

    def test_quadratic_form_is_solution_norm(self):
        # <P_(k) (u1,u0), (u1,u0)> = ||u||_{2k}^2 for the matching boundary pair
        k = 25
        E, x = 0.4, 0.17
        pm = p_matrix(E, AMO, ALPHA, x, k)
        for beta in (0.0, 0.9, 2.2):
            u = solution_values(beta, E, AMO, ALPHA, x, 2 * k)
            vec = np.array([u[1], u[0]])
            q = float(vec @ pm.entries @ vec)
            assert q == pytest.approx(math.sqrt(np.sum(u[1:2 * k + 1] ** 2)) ** 2, rel=1e-9)

    def test_free_rotation_exact(self):
        # A is a rotation at E=0, v=0: P_(k) = k * Id exactly
        pm = p_matrix(0.0, FREE, ALPHA, 0.5, 37)
        assert np.allclose(pm.entries, 37 * np.eye(2))

    def test_monotone_in_k(self):
        prev = None
        for k in (1, 2, 4, 8, 16):
            pm = p_matrix(0.3, AMO, ALPHA, 0.21, k)
            if prev is not None:
                diff = pm.entries - prev
                eigs = np.linalg.eigvalsh(diff)
                assert eigs.min() >= -1e-9
            prev = pm.entries


def _mp_ladder(E, v, x, ks, dps=60):
    """P_(k) entries and log det from the recurrence in dps-digit arithmetic,
    on the same double-precision site energies as the kernel."""
    J = 2 * max(ks) - 1
    es = E - np.asarray(v((x + ALPHA * np.arange(1, J + 1)) % 1.0), dtype=float)
    with mpmath.workdps(dps):
        a, b, c, d = mpmath.mpf(1), mpmath.mpf(0), mpmath.mpf(0), mpmath.mpf(1)
        p11 = p12 = p22 = mpmath.mpf(0)
        out = {}
        for j, e in enumerate(es.tolist(), start=1):
            a, b, c, d = e * a - c, e * b - d, a, b
            if j % 2:
                p11 += a * a + c * c
                p12 += a * b + c * d
                p22 += b * b + d * d
                if (j + 1) // 2 in ks:
                    out[(j + 1) // 2] = (p11, p12, p22, mpmath.log(p11 * p22 - p12 ** 2))
    return out


def _assert_ladder_close(got, ref, entry_tol, log_det_tol):
    for k, r in ref.items():
        assert abs(got[k][3] - float(r[3])) <= log_det_tol
        for g, rr in zip(got[k][:3], r[:3]):
            assert abs(g - float(rr)) <= entry_tol * float(abs(r[0]) + abs(r[2]))


class TestLadderOracle:
    """The blocked-scan ladder against a 60-digit recurrence (400 digits
    at hyperbolic energies).  Tolerances are set from the dtype: about 2k
    steps of double rounding."""

    KS = [1, 2, 37, 1500]  # J = 2999 runs in blocks of 55 steps; k=37 sits mid-block

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_matches_mpmath(self, quantile):
        n = 2000
        eigs = eigvalsh_tridiagonal(AMO(ALPHA * np.arange(n) % 1.0), np.ones(n - 1))
        E = float(eigs[int(quantile * n)])  # in the AMO spectrum up to O(1/n)
        for x in (0.0, 0.21):
            got = _p_entries_upto(E, AMO, ALPHA, x, self.KS)
            _assert_ladder_close(got, _mp_ladder(E, AMO, x, self.KS), 1e-12, 1e-12)

    @pytest.mark.parametrize("k", [10, 100, 250])
    def test_hyperbolic_matches_mpmath(self, k):
        # AMO lambda = 2 at E = 0.1: L(E) = ln 2, so cond(P_(250)) is about
        # 1e300 and its log det needs a recurrence of about 400 digits
        v = Potential.amo(2.0)
        got = _p_entries_upto(0.1, v, ALPHA, 0.21, [k])
        _assert_ladder_close(got, _mp_ladder(0.1, v, 0.21, [k], dps=400), 1e-12, 1e-12)

    def test_hyperbolic_overflow_names_k(self):
        # the P entries of that ladder pass the float range at k = 322
        with pytest.raises(OverflowError, match="at k = 322;"):
            _p_entries_upto(0.1, Potential.amo(2.0), ALPHA, 0.21, default_k_list(1000))

    def test_empty_k_list(self):
        with pytest.raises(ValueError):
            _p_entries_upto(0.3, AMO, ALPHA, 0.0, [])

    # a polynomial potential keeps the site energies free of libm rounding
    POLYNOMIAL = {(0.3, 0.0): [1, 2, 37, 1500], (1.1, 0.21): [5, 100, 20000]}

    @pytest.mark.parametrize("E, x", list(POLYNOMIAL))
    def test_polynomial_potential_matches_mpmath(self, E, x):
        ks = self.POLYNOMIAL[(E, x)]
        v = lambda t: 4.0 * t * (1.0 - t) - 0.7
        _assert_ladder_close(_p_entries_upto(E, v, ALPHA, x, ks), _mp_ladder(E, v, x, ks),
                             1e-14, 1e-13)


class TestLargeEntries:
    # at E = 0.7, x = 0.21, k = 418 the P entries pass 1e186 (so their
    # squares overflow) and cond(P) is far past 1/eps_mach; a 400-digit
    # recurrence on the same site energies gives log det P = 433.31130375210495
    LOG_DET = 433.31130375210495

    def test_norm_and_smallest_eig(self):
        pm = p_matrix(0.7, AMO, ALPHA, 0.21, 418)
        assert pm.entries[1, 1] > 1e186
        # P is numerically rank one here: its norm is its trace
        assert pm.norm == pytest.approx(pm.trace, rel=1e-12)
        assert 0.0 < pm.smallest_eig < pm.norm
        assert pm.det == pytest.approx(math.exp(self.LOG_DET), rel=1e-12)

    def test_profile_row(self):
        prof = profile(0.7, AMO, ALPHA, 0.21, [418])
        (row,) = prof.rows
        assert row.norm_P == pytest.approx(p_matrix(0.7, AMO, ALPHA, 0.21, 418).norm, rel=1e-15)
        assert row.det_P == pytest.approx(math.exp(self.LOG_DET), rel=1e-12)
        assert row.eps_k > 0.0


class TestDetBetaScan:
    def test_matches_p_matrix(self):
        rng = np.random.default_rng(17)
        for k in (1, 5, 20, 50):
            E, x = rng.uniform(-2, 2), rng.uniform(0, 1)
            d1 = p_matrix(E, AMO, ALPHA, x, k).det
            d2 = det_via_beta_scan(E, AMO, ALPHA, x, k)
            assert abs(d1 - d2) / d1 < 1e-6

    def test_k1_is_one(self):
        assert det_via_beta_scan(1.1, AMO, ALPHA, 0.4, 1) == pytest.approx(1.0, rel=1e-9)

    def test_minimizer_is_critical_point(self):
        E, x, k = 0.4, 0.11, 20
        _, beta_min = det_via_beta_scan(E, AMO, ALPHA, x, k, full_output=True)
        h = 1e-5
        # each factor of the product is critical at the eigen-directions
        s = lambda b: float(_beta_products(np.array([b]), E, AMO, ALPHA, x, 2 * k)[0])
        dq = (s(beta_min + h) - s(beta_min - h)) / (2 * h)
        assert abs(dq) / s(beta_min) < 1e-4

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            det_via_beta_scan(0.0, AMO, ALPHA, 0.0, 5, grid=4)

    @pytest.mark.parametrize("k", [0, -3])
    def test_k_below_one(self, k):
        with pytest.raises(ValueError, match="k must be >= 1"):
            det_via_beta_scan(0.3, AMO, ALPHA, 0.2, k)

    @pytest.mark.parametrize("E, x, k", [
        (1.1, 0.4, 1), (2.096, 0.068, 20), (-2.5, 0.842, 5), (0.496, 0.661, 20),
        (-0.232, 0.628, 50)])
    def test_pair_products_are_the_step_recurrence(self, E, x, k):
        # every u^beta from one solution pair, against its own recurrence
        # from the boundary pair (-sin beta, cos beta), and beta + pi/2
        pm = p_matrix(E, AMO, ALPHA, x, k)
        assert pm.norm / pm.smallest_eig < 1e8
        betas = np.pi * np.arange(64) / 64
        s, c = np.sin(betas), np.cos(betas)
        ref = (solution_norm_sq_batch(-s, c, E, AMO, ALPHA, x, 2 * k)
               * solution_norm_sq_batch(-c, -s, E, AMO, ALPHA, x, 2 * k))
        got = _beta_products(betas, E, AMO, ALPHA, x, 2 * k)
        assert np.max(np.abs(got / ref - 1.0)) < 1e-12

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_matches_mpmath_ladder(self, quantile):
        n = 2000
        eigs = eigvalsh_tridiagonal(AMO(ALPHA * np.arange(n) % 1.0), np.ones(n - 1))
        E = float(eigs[int(quantile * n)])  # in the AMO spectrum up to O(1/n)
        for x in (0.0, 0.21):
            for k, (p11, _, p22, log_det) in _mp_ladder(E, AMO, x, [5, 20, 50]).items():
                det = float(mpmath.exp(log_det))
                assert float(p11 + p22) ** 2 / det < 1e12  # an upper bound on cond(P)
                assert det_via_beta_scan(E, AMO, ALPHA, x, k) == pytest.approx(det, rel=1e-9)


class TestProfile:
    def test_free_rotation_values(self):
        prof = profile(0.0, FREE, ALPHA, 0.0, k_list=[1, 2, 4, 8, 16, 32], tol=1e-9)
        for row in prof.rows:
            assert row.norm_P == pytest.approx(row.k, rel=1e-12)
            assert row.det_P == pytest.approx(row.k ** 2, rel=1e-12)
            assert row.eps_k == pytest.approx(0.5 / row.k, rel=1e-12)
            assert 0.9 < row.ratio_jl < 1.5

    def test_amo_bracket_and_monotonicity(self):
        prof = profile(0.0, AMO, ALPHA, 0.0, k_list=default_k_list(500), tol=1e-8)
        rj = prof.column("ratio_jl")
        assert np.all(rj > JL_LOWER * 0.95)
        assert np.all(rj < JL_UPPER * 1.05)
        for name in ("norm_P", "det_P"):
            col = prof.column(name)
            assert np.all(np.diff(col) >= -1e-9 * col[:-1])
        small = prof.column("det_P") / prof.column("norm_P")
        assert np.all(np.diff(small) >= -1e-9 * small[:-1])
        ek = prof.column("eps_k")
        assert np.all(ek[1:] / ek[:-1] >= 0.05)
        # Theorem-style cap: the blabl ratio stays bounded above
        assert prof.column("ratio_blabl").max() < 100.0

    def test_eps_floor_drops_rows(self):
        full = profile(0.0, AMO, ALPHA, 0.0, k_list=default_k_list(200), tol=1e-8)
        cut = profile(0.0, AMO, ALPHA, 0.0, k_list=default_k_list(200), tol=1e-8,
                      eps_floor=0.02)
        assert len(cut.rows) < len(full.rows)
        assert all(r.eps_k >= 0.02 for r in cut.rows)

    def test_depth_cap_propagates(self):
        with pytest.raises(NoConvergence):
            profile(0.0, AMO, ALPHA, 0.0, k_list=[2000], tol=1e-10, depth_cap=512)

    ROW_FIELDS = ("norm_P", "det_P", "eps_k", "psi_mplus", "ratio_jl", "ratio_blabl")

    def test_floor_equals_filtered_full(self):
        # along this ladder eps_k is about 1/(3.9 k); the floors stop it in
        # the first segment (k <= 4096, at k = 3406), in the second (at
        # k = 7483) and in the fourth (at k = 27784), where the segments'
        # blocking differs from the whole ladder's by rounding only
        ks = default_k_list(30000)
        full = profile(0.0, AMO, ALPHA, 0.0, ks, tol=1e-8)
        for floor in (1e-4, 5e-5, 1.3e-5):
            cut = profile(0.0, AMO, ALPHA, 0.0, ks, tol=1e-8, eps_floor=floor)
            want = [row for row in full.rows if row.eps_k >= floor]
            assert [row.k for row in cut.rows] == [row.k for row in want]
            for got, ref in zip(cut.rows, want):
                for name in self.ROW_FIELDS:
                    rel = 5e-12 if name == "ratio_blabl" else 1e-12
                    assert getattr(got, name) == pytest.approx(getattr(ref, name), rel=rel)

    def test_walk_lanes_match_mpmath(self):
        # the k = 37 lane of the ladder below, and a lane that settles at
        # depth 8192, against the backward recursion from seed i to the
        # same depth in 30 digits, on the phases theta + n alpha of the
        # binary floats theta and alpha
        theta, lam = 0.21, 0.5
        eps37 = subordinacy._eps(_p_entries_upto(0.3, AMO, ALPHA, theta, [37])[37][3])
        zs = [complex(0.3, eps37), complex(0.3, 1e-3)]
        m, _, depth = weyl.m_plus_lanes(zs, Potential.amo(lam), ALPHA, theta, 1e-8)
        assert depth.tolist() == [2048, 8192]
        with mpmath.workdps(30):
            th, al = mpmath.mpf(theta), mpmath.mpf(ALPHA)
            for z, got, n_max in zip(zs, m, depth):
                zz, ref = mpmath.mpc(z), mpmath.mpc(0, 1)
                for n in range(int(n_max), 0, -1):
                    ref = -1 / (zz - 2 * lam * mpmath.cos(2 * mpmath.pi * (th + n * al)) + ref)
                assert abs(got - complex(ref)) <= 1e-11 * abs(complex(ref))

    def test_no_floor_is_the_whole_ladder(self):
        # float.hex values of the one-pass ladder over J = 11999 steps; k = 37
        # sits mid-block and k = 6000 is past the first segment of a floor
        prof = profile(0.3, AMO, ALPHA, 0.21, [1, 37, 1500, 6000], tol=1e-8)
        rows = {row.k: [getattr(row, name).hex() for name in self.ROW_FIELDS]
                for row in prof.rows}
        assert rows[37] == ["0x1.99616a5ffe010p+9", "0x1.820fa5785b01fp+13",
                            "0x1.26d02d5ef4bebp-8", "0x1.e2ba75d12eacdp+2",
                            "0x1.0620081962d13p+0", "0x1.e822bade00553p-3"]
        assert rows[6000] == ["0x1.0c6d0cee00ba3p+17", "0x1.3eac2b11c849dp+28",
                              "0x1.cae648a48c785p-16", "0x1.e15398b622ae6p+2",
                              "0x1.0014c4d3db1a8p+0", "0x1.40d821cbe97f4p-17"]
        pm = p_matrix(0.3, AMO, ALPHA, 0.21, 6000)  # the same ladder
        assert [t.hex() for t in (*pm.entries.ravel()[[0, 1, 3]], pm.log_det)] == [
            "0x1.374310eb9e1bbp+16", "0x1.04e974aa0009fp+16", "0x1.d62ccc6881118p+15",
            "0x1.3a08a205cdc43p+4"]

    def test_floor_stops_the_sampling(self, monkeypatch):
        # the ladder stops at k = 7483 (step 14965), in the segment that
        # ends at k = 8192: no site past twice that step is sampled
        sampled = []

        def recorded(theta, alpha, lo, hi):
            sampled.append(hi - 1)
            return orbit(theta, alpha, lo, hi)

        monkeypatch.setattr(subordinacy, "orbit", recorded)
        ks = default_k_list(300000)
        prof = profile(0.0, AMO, ALPHA, 0.0, ks, tol=1e-8, eps_floor=5e-5)
        stop = ks[len(prof.rows)]
        assert stop == 7483
        assert 2 * stop - 1 < max(sampled) <= 2 * (2 * stop - 1)
        sampled.clear()
        _p_entries_upto(0.0, AMO, ALPHA, 0.0, ks)
        assert max(sampled) == 2 * ks[-1] - 1  # without a floor: the whole ladder

    def test_hyperbolic_floor_stops_before_overflow(self):
        # the P entries of this ladder pass the float range at k = 322 (at
        # x = 0.21 as at x = 0); with a floor it stops at k = 14, and its
        # rows are those of the short ladder
        v = Potential.amo(2.0)
        prof = profile(0.1, v, ALPHA, 0.0, default_k_list(1000), eps_floor=1e-8)
        assert [row.k for row in prof.rows] == [1, 2, 3, 4, 5, 7, 9, 11]
        short = _p_entries_upto(0.1, v, ALPHA, 0.0, [row.k for row in prof.rows])
        for row in prof.rows:
            assert row.eps_k >= 1e-8
            assert row.det_P == pytest.approx(math.exp(short[row.k][3]), rel=1e-12)


class TestBracketCheck:
    def test_free_operator(self):
        rec = jl_bracket_check(0.0, FREE, ALPHA, 0.0, math.pi / 4, 20, tol=1e-9)
        assert rec.scale_residual < 1e-8
        assert JL_LOWER < rec.value < JL_UPPER
        assert rec.in_bracket
        # the exact free value at E=0 is 1 (rotation by pi/2 orbit)
        assert rec.value == pytest.approx(1.0, abs=1e-6)
        assert KKL_LOWER < rec.kkl_value < KKL_UPPER
        assert rec.kkl_in_bracket

    def test_amo_cases(self):
        rng = np.random.default_rng(23)
        for _ in range(3):
            rec = jl_bracket_check(0.0, AMO, ALPHA, rng.uniform(0, 1),
                                   rng.uniform(0, math.pi), int(rng.integers(5, 40)),
                                   tol=1e-9)
            assert rec.scale_residual < 1e-8
            assert rec.in_bracket and rec.kkl_in_bracket

    def test_two_solution_passes(self, monkeypatch):
        # the scale equation's two norms are the bracket's numerator and
        # denominator, so one call runs the two solution recurrences once
        calls = []

        def counted(*args):
            calls.append(args)
            return solution_norm_sq_batch(*args)

        monkeypatch.setattr(subordinacy, "solution_norm_sq_batch", counted)
        E, theta, beta, k = 0.0, 0.37, 1.1, 30
        rec = jl_bracket_check(E, AMO, ALPHA, theta, beta, k, tol=1e-9)
        assert len(calls) == 2
        # each norm from its own pass with the boundary pair from math.sin
        # and math.cos, as the bracket defines it: the same bits
        u0, u1 = -math.sin(beta), math.cos(beta)
        nb = math.sqrt(float(solution_norm_sq_batch(
            np.array([u0]), np.array([u1]), E, AMO, ALPHA, theta, 2 * k)[0]))
        nbp = math.sqrt(float(solution_norm_sq_batch(
            np.array([-u1]), np.array([u0]), E, AMO, ALPHA, theta, 2 * k)[0]))
        m = m_plus(complex(E, rec.eps), AMO, ALPHA, theta, 1e-9)
        assert rec.value == abs(rotate_beta(m, beta)) * nb / nbp

    def test_one_m_walk(self, monkeypatch):
        # m+ at eps and at kkl_eps are two lanes of one walk, and each lane
        # equals its own m_plus bit for bit
        calls = []
        walk = weyl._halfline_m

        def counted(zs, *args):
            calls.append(list(zs))
            return walk(zs, *args)

        monkeypatch.setattr(weyl, "_halfline_m", counted)
        E, theta, beta, k = 0.3, 0.61, 0.4, 25
        rec = jl_bracket_check(E, AMO, ALPHA, theta, beta, k, tol=1e-9)
        assert calls == [[complex(E, rec.eps), complex(E, rec.kkl_eps)]]
        pm = p_matrix(E, AMO, ALPHA, theta, k)
        assert rec.kkl_eps == math.exp(-0.5 * pm.log_det)
        m2 = m_plus(complex(E, rec.kkl_eps), AMO, ALPHA, theta, 1e-9)
        assert rec.kkl_value == psi(m2) / (rec.kkl_eps * pm.norm)


def test_default_k_list():
    ks = default_k_list(100)
    assert ks[0] == 1 and ks[-1] <= 100
    assert all(b > a for a, b in zip(ks, ks[1:]))
