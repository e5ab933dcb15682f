import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from quasispec import subordinacy
from quasispec.arithmetic import resolve_alpha
from quasispec.cocycle import Potential, solution, solution_norm_sq_batch
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
from quasispec.weyl import NoConvergence, m_plus, rotate_beta

ALPHA = resolve_alpha("golden", 40).alpha
FREE = Potential.zero()
AMO = Potential.amo(0.5)


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
            u = solution(beta, E, AMO, ALPHA, x, 2 * k)
            vec = np.array([u.values[1], u.values[0]])
            q = float(vec @ pm.entries @ vec)
            assert q == pytest.approx(u.norm_upto(2 * k) ** 2, rel=1e-9)

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


class TestLadderOracle:
    """The blocked-scan ladder against a 60-digit recurrence.  Tolerances
    are set from the dtype: about 2k steps of double rounding."""

    KS = [1, 2, 37, 1500]  # J = 2999 runs in blocks of 54 steps; k=37 sits mid-block

    @pytest.mark.parametrize("quantile", [0.1, 0.5, 0.9])
    def test_matches_mpmath(self, quantile):
        n = 2000
        eigs = eigvalsh_tridiagonal(AMO(ALPHA * np.arange(n) % 1.0), np.ones(n - 1))
        E = float(eigs[int(quantile * n)])  # in the AMO spectrum up to O(1/n)
        for x in (0.0, 0.21):
            got = _p_entries_upto(E, AMO, ALPHA, x, self.KS)
            ref = _mp_ladder(E, AMO, x, self.KS)
            for k in self.KS:
                assert abs(got[k][3] - float(ref[k][3])) <= 1e-12
                for g, r in zip(got[k][:3], ref[k][:3]):
                    assert abs(g - float(r)) <= 1e-12 * float(abs(ref[k][0]) + abs(ref[k][2]))

    def test_overflow_guard_step(self):
        with pytest.raises(OverflowError, match="at step 318;"):
            _p_entries_upto(2.9, AMO, ALPHA, 0.21, [418])

    def test_empty_k_list(self):
        with pytest.raises(ValueError):
            _p_entries_upto(0.3, AMO, ALPHA, 0.0, [])

    # (p11, p12, p22, log det) as float.hex, recorded from the implementation
    # whose block totals were written out in place; a polynomial potential
    # keeps the site energies free of libm rounding
    RECORDED = {
        (0.3, 0.0): {
            1: ("0x1.00cb87a8661a3p+0", "-0x1.c8864680b5838p-5", "0x1.0000000000000p+0",
                "0x1.6800000000000p-55"),
            2: ("0x1.231a0f8c92c46p+1", "-0x1.04367134e5570p-2", "0x1.d15287ebf116cp+0",
                "0x1.674899766b3c6p+0"),
            37: ("0x1.dc2b604c9c682p+5", "-0x1.7a8be0b0b5950p+4", "0x1.4a74e01e2f11cp+5",
                 "0x1.e32338f82d9e8p+2"),
            1500: ("0x1.360ad7bd89c97p+11", "-0x1.32e18a089a91ap+10", "0x1.d860d8a0aa307p+10",
                   "0x1.df1d5d1b639d4p+3"),
        },
        (1.1, 0.21): {
            5: ("0x1.293b09b92efecp+3", "0x1.759aa513f965cp-3", "0x1.39b77dd7c5d0cp+2",
                "0x1.e8a8b696249a4p+1"),
            100: ("0x1.378792ff5db40p+7", "-0x1.3f448fff93815p+4", "0x1.f3b791608b622p+6",
                  "0x1.3b5f9c21d3819p+3"),
            20000: ("0x1.e98a576028713p+14", "-0x1.e4be273124038p+11", "0x1.852f222e0548fp+14",
                    "0x1.474b110e4b04fp+4"),
        },
    }

    @pytest.mark.parametrize("E, x", list(RECORDED))
    def test_bit_identical_to_recorded(self, E, x):
        want = self.RECORDED[(E, x)]
        got = _p_entries_upto(E, lambda t: 4.0 * t * (1.0 - t) - 0.7, ALPHA, x, list(want))
        for k, entries in want.items():
            assert [float(g).hex() for g in got[k]] == list(entries)


class TestLargeEntries:
    # at E = 0.7, x = 0.21, k = 418 the P entries pass 1e186 (so their
    # squares overflow) and det P passes 1e308, while every transfer-matrix
    # entry stays below the 1e120 guard
    def test_norm_and_smallest_eig(self):
        pm = p_matrix(0.7, AMO, ALPHA, 0.21, 418)
        assert pm.entries[1, 1] > 1e186
        # P is numerically rank one here: its norm is its trace
        assert pm.norm == pytest.approx(pm.trace, rel=1e-12)
        assert 0.0 < pm.smallest_eig < pm.norm
        assert pm.det == math.inf

    def test_profile_row(self):
        prof = profile(0.7, AMO, ALPHA, 0.21, [418])
        (row,) = prof.rows
        assert row.norm_P == pytest.approx(p_matrix(0.7, AMO, ALPHA, 0.21, 418).norm, rel=1e-15)
        assert row.det_P == math.inf and row.eps_k > 0.0


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


def test_default_k_list():
    ks = default_k_list(100)
    assert ks[0] == 1 and ks[-1] <= 100
    assert all(b > a for a, b in zip(ks, ks[1:]))
