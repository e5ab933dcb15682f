import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigvalsh_tridiagonal

from quasispec import weyl
from quasispec.arithmetic import resolve_alpha
from quasispec.cocycle import Potential
from quasispec.weyl import (
    M_function,
    MTriple,
    NoConvergence,
    box_M,
    box_m_minus,
    box_m_plus,
    m_minus,
    m_plus,
    m_triple,
    phi,
    psi,
    rotate_beta,
)

ALPHA = resolve_alpha("golden", 40).alpha
FREE = Potential.zero()

upper_half = st.builds(complex,
                       st.floats(-5, 5, allow_nan=False),
                       st.floats(0.01, 5, allow_nan=False))


class TestFreeClosedForms:
    def test_fixed_point_at_i(self):
        # root of m^2 + z m + 1 = 0 with positive imaginary part
        m = m_plus(1j, FREE, ALPHA, 0.0, 1e-11)
        assert m == pytest.approx(1j * (math.sqrt(5) - 1) / 2, abs=1e-10)

    def test_small_eps_limit(self):
        eps = 1e-3
        m = m_plus(complex(0, eps), FREE, ALPHA, 0.0, 1e-10)
        exact = 1j * (math.sqrt(4 + eps * eps) - eps) / 2
        assert m == pytest.approx(exact, abs=1e-9)
        assert abs(m - 1j) < 1e-3

    def test_recursion_residual(self):
        v = Potential.amo(0.5)
        z = complex(0.3, 0.05)
        tol = 1e-9
        m0 = m_plus(z, v, ALPHA, 0.0, tol)
        m1 = m_plus(z, v, ALPHA, ALPHA, tol)  # depth-shifted start
        assert abs(m0 + 1.0 / (z - v(ALPHA) + m1)) < 2 * tol


class TestMMinus:
    def test_free_equals_m_plus(self):
        a = m_plus(0.5j, FREE, ALPHA, 0.0, 1e-10)
        b = m_minus(0.5j, FREE, ALPHA, 0.0, 1e-10)
        assert a == pytest.approx(b, abs=1e-9)

    def test_amo_even_at_zero_phase(self):
        v = Potential.amo(0.5)
        z = complex(0.2, 1e-2)
        a = m_plus(z, v, ALPHA, 0.0, 1e-9)
        b = m_minus(z, v, ALPHA, 0.0, 1e-9)
        assert a == pytest.approx(b, abs=1e-8)

    def test_reflection_identity(self):
        # m_minus(theta) equals m_plus of the reflected potential at -theta
        v = Potential.trig({0: 0.4, 1: 0.3 + 0.2j, -1: 0.3 - 0.2j})
        vr = Potential.trig({0: 0.4, 1: 0.3 - 0.2j, -1: 0.3 + 0.2j})  # v(-x)
        z = complex(0.7, 0.05)
        theta = 0.23
        a = m_minus(z, v, ALPHA, theta, 1e-9)
        b = m_plus(z, vr, ALPHA, -theta, 1e-9)
        assert a == pytest.approx(b, abs=1e-8)

    def test_positive_imaginary_part(self):
        v = Potential.amo(0.9)
        rng = np.random.default_rng(5)
        for _ in range(10):
            z = complex(rng.uniform(-3, 3), 10 ** rng.uniform(-3, 0))
            assert m_minus(z, v, ALPHA, rng.uniform(0, 1), 1e-7).imag > 0


class TestMFunction:
    def test_unit_points(self):
        assert M_function(1j, 1j) == pytest.approx(1j)
        assert M_function(2j, 1j) == pytest.approx(1j)

    @given(upper_half, upper_half)
    def test_phi_combination_identity(self, a, b):
        M = M_function(a, b)
        lhs = phi(M)
        rhs = (phi(a) * phi(b) + 1.0) / (phi(a) + phi(b))
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)

    @given(upper_half, upper_half)
    def test_psi_domination(self, a, b):
        M = M_function(a, b)
        assert psi(M) <= psi(a) * (1 + 1e-7)
        assert abs(M) <= psi(a) * (1 + 1e-7)


class TestPhiPsi:
    def test_values(self):
        assert phi(1j) == pytest.approx(1.0)
        assert phi(2j) == pytest.approx(1.25)
        assert psi(1j) == pytest.approx(1.0)
        assert psi(2j) == pytest.approx(2.0)

    def test_rejects_lower_half(self):
        with pytest.raises(ValueError):
            phi(1.0 - 0.5j)

    @given(upper_half)
    def test_sandwich(self, z):
        # slack 1e-7: sqrt(phi^2 - 1) amplifies roundoff near phi = 1
        p = psi(z)
        assert 1.0 / p <= z.imag * (1 + 1e-7)
        assert z.imag <= abs(z) + 1e-15
        assert abs(z) <= p * (1 + 1e-7)

    def test_psi_is_sup_over_rotations(self):
        betas = np.pi * np.arange(720) / 720
        sup = max(abs(rotate_beta(2j, b)) for b in betas)
        assert 2 * (1 - 1e-3) <= sup <= 2.0 + 1e-12


class TestRotateBeta:
    def test_identity(self):
        assert rotate_beta(0.3 + 0.7j, 0.0) == pytest.approx(0.3 + 0.7j)

    def test_half_turn_projective_identity(self):
        z = 0.4 + 1.2j
        assert rotate_beta(z, math.pi) == pytest.approx(z, rel=1e-12)

    @given(upper_half, st.floats(0, 2 * math.pi))
    def test_phi_invariance(self, z, beta):
        w = rotate_beta(z, beta)
        assert phi(w) == pytest.approx(phi(z), rel=1e-9)

    def test_pole_on_real_axis(self):
        # the pole of the chart sits at z = cot(beta), reachable only for real z
        beta = math.pi / 2
        z = complex(math.cos(beta) / math.sin(beta), 0.0)
        assert abs(rotate_beta(z, beta)) == math.inf


class TestBoxOracles:
    def test_m_plus_against_linear_solve(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            coeffs = {0: complex(rng.normal() * 0.4, 0)}
            for k in (1, 2):
                c = complex(rng.normal(), rng.normal()) * 0.2
                coeffs[k], coeffs[-k] = c, c.conjugate()
            v = Potential.trig(coeffs)
            theta = rng.uniform(0, 1)
            z = complex(rng.uniform(-2, 2), 1e-2)
            a = m_plus(z, v, ALPHA, theta, 1e-9)
            b = box_m_plus(z, v, ALPHA, theta, 2000)
            assert abs(a - b) / abs(b) < 1e-6

    def test_M_against_resolvent_corner_sum(self):
        v = Potential.amo(0.5)
        z = complex(0.4, 1e-2)
        t = m_triple(z, v, ALPHA, 0.31, 1e-9)
        ref = box_M(z, v, ALPHA, 0.31, 2000)
        assert abs(t.M - ref) / abs(ref) < 1e-6

    @pytest.mark.parametrize("quantile", [0.1, 0.5])
    def test_deep_tree_against_linear_solve(self, quantile):
        # in-spectrum energies at eps 2e-3 need at least three doublings
        # (depth >= 512; these run to 4096 and 8192); the boxes reach
        # e^-40 truncation error
        v = Potential.amo(0.5)
        n = 2000
        eigs = eigvalsh_tridiagonal(v(ALPHA * np.arange(n) % 1.0), np.ones(n - 1))
        z = complex(float(eigs[int(quantile * n)]), 2e-3)
        for m_fn, box_fn in ((m_plus, box_m_plus), (m_minus, box_m_minus)):
            m, est, depth = m_fn(z, v, ALPHA, 0.31, 1e-10, full_output=True)
            ref = box_fn(z, v, ALPHA, 0.31, 40000)
            assert depth >= 512
            assert abs(m - ref) / abs(ref) < 1e-9

    def test_m_minus_against_linear_solve(self):
        v = Potential.amo(0.5)
        z = complex(-0.7, 1e-2)
        a = m_minus(z, v, ALPHA, 0.42, 1e-9)
        b = box_m_minus(z, v, ALPHA, 0.42, 2000)
        assert abs(a - b) / abs(b) < 1e-6


class TestMTriple:
    def test_combination_invariant(self):
        t = m_triple(complex(0.5, 0.02), Potential.amo(0.5), ALPHA, 0.1, 1e-9)
        comb = (t.m_plus * t.m_minus - 1) / (t.m_plus + t.m_minus)
        assert abs(comb - t.M) <= max(t.est_error, 1e-14)

    def test_phi_ordering(self):
        t = m_triple(complex(-0.3, 0.05), Potential.amo(0.5), ALPHA, 0.7, 1e-9)
        assert phi(t.M) <= phi(t.m_plus) * (1 + 1e-12)
        assert phi(t.M) <= phi(t.m_minus) * (1 + 1e-12)
        assert psi(t.M) <= psi(t.m_plus) * (1 + 1e-7)
        assert abs(t.M) <= psi(t.m_plus) * (1 + 1e-7)

    def test_herglotz_everywhere(self):
        rng = np.random.default_rng(3)
        v = Potential.amo(0.5)
        for _ in range(6):
            t = m_triple(complex(rng.uniform(-2, 2), 10 ** rng.uniform(-3, -1)),
                         v, ALPHA, rng.uniform(0, 1), 1e-8)
            assert t.m_plus.imag > 0 and t.m_minus.imag > 0 and t.M.imag > 0

    def test_triples_from_one_walk_each_way(self, monkeypatch):
        # an eps ladder as lanes: one m+ walk and one m- walk for all of
        # it, each triple equal to its own m+ and m- assembled per z
        walks = []
        walk = weyl.m_plus_lanes

        def counted(zs, *args):
            walks.append(len(zs))
            return walk(zs, *args)

        monkeypatch.setattr(weyl, "m_plus_lanes", counted)
        v, theta = Potential.amo(0.5), 0.31
        zs = [complex(0.0, e) for e in np.geomspace(1e-4, 1e-1, 16)]
        triples = weyl._m_triples(zs, v, ALPHA, theta, 1e-8, weyl.DEPTH_CAP_DEFAULT)
        assert walks == [16, 16]
        for z, t in zip(zs, triples):
            mp, ep, dp = m_plus(z, v, ALPHA, theta, 1e-8, full_output=True)
            ml, em, dm = m_minus(z, v, ALPHA, theta, 1e-8, full_output=True)
            ratio = z - complex(v(theta)) + ml
            assert (t.m_plus, t.m_minus, t.M) == (mp, ratio, M_function(mp, ratio))
            assert (t.est_error, t.truncation_depth) == (ep + em, max(dp, dm))


class TestMonotonicity:
    def test_borel_kernel_monotonicity(self):
        v = Potential.amo(0.5)
        eps = np.geomspace(1e-4, 1e-1, 10)
        ims = np.array([m_triple(complex(0.0, e), v, ALPHA, 0.0, 1e-9).M.imag
                        for e in eps])
        ratio = ims / eps
        assert np.all(np.diff(ratio) <= ratio[:-1] * 1e-6 + 1e-9)  # non-increasing in eps
        prod = ims * eps
        assert np.all(np.diff(prod) >= -prod[1:] * 1e-6)  # non-decreasing in eps


class TestErrors:
    def test_requires_upper_half_plane(self):
        with pytest.raises(ValueError):
            m_plus(complex(1.0, 0.0), FREE, ALPHA, 0.0, 1e-8)
        with pytest.raises(ValueError):
            m_plus(complex(1.0, -0.1), FREE, ALPHA, 0.0, 1e-8)

    def test_depth_cap_raises(self):
        with pytest.raises(NoConvergence):
            m_plus(complex(0.0, 1e-7), Potential.amo(0.5), ALPHA, 0.0, 1e-12,
                   depth_cap=2000)

    @pytest.mark.parametrize("cap", [10, 40])
    def test_depth_cap_below_64_raises(self, cap):
        # the walk started at depth 64 whatever the cap, and settled there
        with pytest.raises(NoConvergence, match=f"within depth cap {cap} "):
            m_plus(complex(0.1, 0.3), Potential.amo(0.5), ALPHA, 0.0, depth_cap=cap)

    def test_depth_cap_below_64_bounds_the_depth(self):
        m, est, depth = m_plus(complex(0.1, 0.5), Potential.amo(0.5), ALPHA, 0.0,
                               depth_cap=63, full_output=True)
        assert depth == 63 and est <= 1e-8
        assert abs(m - m_plus(complex(0.1, 0.5), Potential.amo(0.5), ALPHA, 0.0)) <= 1e-8

    def test_non_finite_z_rejected(self):
        for z in (complex(math.nan, 1e-3), complex(0.2, math.inf)):
            with pytest.raises(ValueError):
                m_plus(z, FREE, ALPHA, 0.0, 1e-8, depth_cap=4096)

    def test_non_finite_residual_stops_at_once(self):
        with pytest.raises(NoConvergence, match="not finite at depth 64"):
            m_plus(complex(0.3, 1e-3), Potential.amo(0.5), ALPHA, math.nan, 1e-8,
                   depth_cap=4096)

    def test_rounded_away_imaginary_part_raises(self):
        # at Im z ~ 1.7e-18 the settled m+ has Im m < 0 from rounding; that is
        # non-convergence naming z, not a value psi would reject as bad input
        z = complex(2.9, 1.6967918333001656e-18)
        with pytest.raises(NoConvergence, match=r"z=\(2\.9\+1\.69.*lost its imaginary part"):
            m_plus(z, Potential.amo(0.5), ALPHA, 0.0, 1e-7)

    def test_bad_tol_and_depth_cap_rejected(self):
        z = complex(0.3, 1e-3)
        for kwargs in ({"tol": math.nan}, {"tol": 0.0}, {"tol": -1e-8},
                       {"depth_cap": 0}, {"depth_cap": -5}):
            for fn in (m_plus, m_minus):
                with pytest.raises(ValueError):
                    fn(z, Potential.amo(0.5), ALPHA, 0.0, **kwargs)

    def test_est_error_below_tol(self):
        m, est, depth = m_plus(complex(0.3, 1e-2), Potential.amo(0.5), ALPHA, 0.0,
                               1e-8, full_output=True)
        assert est <= 1e-8
        assert depth >= 64


class TestLanes:
    def test_each_lane_equals_its_own_walk(self):
        # 40 lanes cut the deep blocks into chunks of 64 sub-blocks where
        # one lane takes 1024: each lane's m, est and depth must still be
        # bit for bit those of its own single-z walk; depths run from 64
        # to past the first fold, and the cap cuts the last block short
        v = Potential.amo(0.5)
        eps = np.geomspace(2e-4, 0.5, 39)
        zs = [complex(E, e) for E, e in zip(np.linspace(-2.0, 2.0, 39), eps)]
        zs.append(zs[5])  # a repeated z
        m, est, depth = weyl.m_plus_lanes(zs, v, ALPHA, 0.4, 1e-9, depth_cap=150000)
        assert depth.min() == 64 and depth.max() > 8192
        for z, *lane in zip(zs, m, est, depth):
            assert m_plus(z, v, ALPHA, 0.4, 1e-9, 150000, full_output=True) == tuple(lane)

    def test_chunking_cannot_change_m(self, monkeypatch):
        # _ROW = 2**6 leaves one sub-block per chunk for 40 lanes, 2**12 up
        # to 64: aligned power-of-two chunks fold to the same nodes, so m,
        # est and depth are the same bits; depths run from 64 to past 8192
        v = Potential.amo(0.5)
        eps = np.geomspace(2e-4, 0.5, 40)
        zs = [complex(E, e) for E, e in zip(np.linspace(-2.0, 2.0, 40), eps)]
        walks = []
        for row in (2**6, 2**12):
            monkeypatch.setattr(weyl, "_ROW", row)
            walks.append(weyl.m_plus_lanes(zs, v, ALPHA, 0.4, 1e-9, depth_cap=150000))
        depth = walks[0][2]
        assert depth.min() == 64 and depth.max() > 8192
        for narrow, wide in zip(*walks):
            np.testing.assert_array_equal(narrow, wide)

    def test_truncated_last_block(self):
        # a cap that is no power of two leaves a block of 3808 sites, cut
        # into sub-blocks with a short last one
        v = Potential.amo(0.5)
        zs = [complex(0.0, 1.2e-3), complex(0.2, 1.2e-3), complex(0.3, 2e-3), complex(-0.7, 2e-3)]
        m, est, depth = weyl.m_plus_lanes(zs, v, ALPHA, 0.1, 1e-9, depth_cap=12000)
        assert 12000 in depth
        for z, *lane in zip(zs, m, est, depth):
            assert m_plus(z, v, ALPHA, 0.1, 1e-9, 12000, full_output=True) == tuple(lane)

    def test_no_lanes(self):
        m, est, depth = weyl.m_plus_lanes([], FREE, ALPHA, 0.0)
        assert len(m) == len(est) == len(depth) == 0


class TestHugeCoupling:
    @pytest.mark.parametrize("lam", [1e9, 1e12])
    def test_finite_and_against_linear_solve(self, lam):
        # |z - v| near 2 lam: 32 unscaled companion steps would overflow
        v = Potential.amo(lam)
        z = complex(0.3, 0.01)
        for m_fn, box_fn in ((m_plus, box_m_plus), (m_minus, box_m_minus)):
            m, est, depth = m_fn(z, v, ALPHA, 0.21, 1e-8, full_output=True)
            assert cmath.isfinite(m) and m.imag > 0
            ref = box_fn(z, v, ALPHA, 0.21, 200)
            assert abs(m - ref) / abs(ref) < 1e-9

    def test_finite_at_any_finite_size(self):
        v = Potential.amo(1e150)
        m, est, depth = m_plus(complex(0.3, 0.01), v, ALPHA, 0.21, 1e-8, full_output=True)
        assert cmath.isfinite(m) and est <= 1e-8 and depth == 64
