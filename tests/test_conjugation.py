import mpmath
import numpy as np
import pytest

from quasispec.arithmetic import resolve_alpha
from quasispec.cocycle import Potential
from quasispec.conjugation import (
    BandFunction,
    MatFunction,
    NotContracting,
    TriangularCocycle,
    _grid_shift,
    certified_min_abs,
    mat_exp_grid,
    mat_log_grid,
    perturbed_schrodinger,
    schrodinger_reduction,
    tx_asymptotics_check,
    tx_bruteforce,
    tx_closed_form,
)

ALPHA = resolve_alpha("golden", 40).alpha


def schrodinger_matfunction(p, band):
    """The cocycle map [[p(x), -1], [1, 0]] as a MatFunction: the
    reduction's input when it is already in Schrodinger form."""
    return MatFunction((
        (BandFunction(dict(p.coeffs), band), BandFunction.constant(-1.0, band)),
        (BandFunction.constant(1.0, band), BandFunction.constant(0.0, band)),
    ), band)


def random_tc(rng, k_max=500):
    return TriangularCocycle(
        theta=rng.uniform(0, 1), alpha=ALPHA, r=int(rng.integers(-6, 7)),
        t_hat=complex(rng.normal(), rng.normal()), k=int(rng.integers(1, k_max + 1)))


class TestTriangularOracle:
    def test_closed_form_matches_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            tc = random_tc(rng)
            x = rng.uniform(0, 1)
            a, b = tx_closed_form(tc, x), tx_bruteforce(tc, x)
            scale = max(1.0, abs(b.detX))
            assert abs(a.x1 - b.x1) / scale < 1e-9
            assert abs(a.x2 - b.x2) / scale < 1e-9
            assert abs(a.detX - b.detX) / scale < 1e-9
            assert abs(a.normX - b.normX) / max(1.0, b.normX) < 1e-9

    def test_huge_t_hat(self):
        # |k - x2| ~ 1e155 here, so its square overflows; the eigenvalues of
        # X come from the hypot form, which squares no entry
        tc = TriangularCocycle(theta=0.11, alpha=ALPHA, r=3, t_hat=1e77 + 0j, k=20)
        a, b = tx_closed_form(tc, 0.2), tx_bruteforce(tc, 0.2)
        assert all(map(np.isfinite, (a.x1, a.x2, a.detX, a.normX, a.invnormX)))
        scale = max(1.0, abs(b.detX))
        assert abs(a.x1 - b.x1) / scale < 1e-9
        assert abs(a.detX - b.detX) / scale < 1e-9
        assert abs(a.normX - b.normX) / max(1.0, b.normX) < 1e-9

    def test_k1_det_exact(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            tc = random_tc(rng, k_max=1)
            assert tx_closed_form(tc, rng.uniform()).detX == 1.0
            assert tx_bruteforce(tc, rng.uniform()).detX == 1.0

    def test_zero_corner_gives_scaled_identity(self):
        tc = TriangularCocycle(theta=0.3, alpha=ALPHA, r=2, t_hat=0.0, k=50)
        for rec in (tx_closed_form(tc, 0.4), tx_bruteforce(tc, 0.4)):
            assert rec.x1 == 0.0
            assert rec.x2 == pytest.approx(50.0)
            assert rec.detX == pytest.approx(2500.0)
            assert rec.normX == pytest.approx(50.0)
            assert rec.invnormX == pytest.approx(50.0)

    def test_hermitian_positive(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            tc = random_tc(rng, k_max=100)
            rec = tx_bruteforce(tc, rng.uniform())
            X = np.array([[tc.k, rec.x1], [rec.x1.conjugate(), rec.x2]])
            assert np.allclose(X, X.conj().T)
            assert np.linalg.eigvalsh(X).min() > 0

    def test_closed_form_near_resonance_against_50_digits(self):
        # r alpha - 2 theta = -1.99994: unreduced mod 1, it puts sin(4 pi k
        # delta) at an argument near -2664, and detX comes out 6.5e-9
        # relative off
        theta, x, t = 0.6909543325079294, 0.13186003458458795, \
            complex(-1.1780460021283718, -0.5729439575892622)
        tc = TriangularCocycle(theta=theta, alpha=ALPHA, r=-1, t_hat=t, k=106)
        with mpmath.workdps(50):
            def step(y):  # T(y), at the float inputs taken exactly
                return mpmath.matrix([[mpmath.expjpi(2 * mpmath.mpf(theta)),
                                       mpmath.mpc(t) * mpmath.expjpi(-2 * y)],
                                      [0, mpmath.expjpi(-2 * mpmath.mpf(theta))]])
            T, X = step(mpmath.mpf(x)), mpmath.zeros(2, 2)
            for n in range(1, 2 * tc.k):  # T = T_n = T(x + (n-1) alpha) ... T(x)
                if n % 2:
                    X += T.H * T
                T = step(mpmath.mpf(x) + n * mpmath.mpf(ALPHA)) * T
            det = mpmath.re(mpmath.det(X))
        assert abs(tx_closed_form(tc, x).detX - det) < 1e-10 * det

    def test_near_degenerate_delta(self):
        # delta within the analytic-limit guard
        theta = 0.5 * (3 * ALPHA - 1e-14)
        tc = TriangularCocycle(theta=theta, alpha=ALPHA, r=3, t_hat=0.8, k=40)
        a, b = tx_closed_form(tc, 0.2), tx_bruteforce(tc, 0.2)
        assert abs(a.x2 - b.x2) / b.x2 < 1e-8
        assert abs(a.detX - b.detX) / b.detX < 1e-8


class TestAsymptotics:
    def test_large_delta_regime(self):
        tc = TriangularCocycle(theta=0.1, alpha=ALPHA, r=1, t_hat=1.0, k=100)
        rec = tx_asymptotics_check(tc, 0.0)
        assert 1e-2 <= rec.norm_ratio <= 1e2
        assert 1e-2 <= rec.inv_ratio <= 1e2

    def test_small_delta_regime(self):
        theta = 0.5 * (ALPHA - 1e-6)  # delta = 1e-6, k*delta tiny
        tc = TriangularCocycle(theta=theta, alpha=ALPHA, r=1, t_hat=1.0, k=100)
        rec = tx_asymptotics_check(tc, 0.0)
        assert 1e-2 <= rec.norm_ratio <= 1e2
        assert 1e-2 <= rec.inv_ratio <= 1e2

    def test_zero_corner_ratios_exact(self):
        tc = TriangularCocycle(theta=0.37, alpha=ALPHA, r=2, t_hat=0.0, k=64)
        rec = tx_asymptotics_check(tc, 0.0)
        assert rec.norm_ratio == 1.0
        assert rec.inv_ratio == 1.0


class TestBandFunctions:
    def test_majorant_dominates_strip_sup(self):
        f = BandFunction({0: 1.0, 2: 0.3 + 0.4j, -2: 0.3 - 0.4j, 5: 0.05}, band=0.04)
        xs = np.arange(511) / 511
        for y in (0.0, 0.04, -0.04):
            assert np.max(np.abs(f(xs + 1j * y))) <= f.norm() + 1e-12

    def test_grid_shift_matches_evaluation(self):
        # the shift the reduction applies to grid values, B(x + alpha) from
        # B(x): one band function, and a 2x2 stack of them along axis 0
        f = BandFunction({1: 0.7, -1: 0.7, 3: 0.1j, -3: -0.1j}, band=0.02)
        xs = np.arange(32) / 32
        for dx in (ALPHA, -ALPHA):
            assert np.max(np.abs(_grid_shift(f.to_grid(32), dx) - f(xs + dx))) < 1e-13
        g = BandFunction({0: 0.3, 2: -0.2j, -2: 0.2j}, band=0.02)
        m = MatFunction(((f, g), (BandFunction.constant(1.0, 0.02), g)), band=0.02)
        shifted = _grid_shift(m.eval_grid(32), ALPHA)
        assert np.max(np.abs(shifted - np.moveaxis(m(xs + ALPHA), -1, 0))) < 1e-13

    def test_grid_roundtrip(self):
        f = BandFunction({0: 0.5, 1: 0.2 - 0.1j, -1: 0.2 + 0.1j, 4: 0.01}, band=0.03)
        g = BandFunction.from_grid(f.to_grid(64), band=0.03)
        for k in f.coeffs:
            assert g.coeffs[k] == pytest.approx(f.coeffs[k], abs=1e-12)

    def test_matlog_matexp_inverse(self):
        rng = np.random.default_rng(4)
        w = np.zeros((16, 2, 2), dtype=complex)
        w[:, 0, 0] = 0.1 * (rng.normal(size=16) + 1j * rng.normal(size=16))
        w[:, 0, 1] = 0.1 * rng.normal(size=16)
        w[:, 1, 0] = 0.1 * rng.normal(size=16)
        w[:, 1, 1] = -w[:, 0, 0]
        back = mat_log_grid(mat_exp_grid(w))
        assert np.max(np.abs(back - w)) < 1e-12


class TestCertifiedBound:
    def test_shifted_cosine(self):
        p = Potential.trig({0: 3.0, 1: -0.5, -1: -0.5})
        bound = certified_min_abs(p, 0.05)
        assert 1.9 < bound <= 2.0

    def test_refusal_near_zero(self):
        p = Potential.trig({0: 0.5, 1: -0.5, -1: -0.5})  # vanishes on the axis
        A = schrodinger_matfunction(p, 0.02)
        with pytest.raises(ValueError):
            schrodinger_reduction(A, p, ALPHA, 0.02)


class TestReduction:
    def _random_w(self, rng, scale, band):
        co = {0: complex(rng.standard_normal(), 0.0)}
        for k in (1, 2, 3):
            c = complex(rng.standard_normal(), rng.standard_normal())
            co[k], co[-k] = c, c.conjugate()
        f = BandFunction(co, band)
        nrm = f.norm()
        return BandFunction({k: scale * c / nrm for k, c in co.items()}, band)

    def test_exact_schrodinger_input(self):
        p = Potential.trig({0: 3.0, 1: -0.5, -1: -0.5})
        res = schrodinger_reduction(schrodinger_matfunction(p, 0.05), p, ALPHA, 0.05)
        assert res.iterations == 0
        assert res.residual < 1e-12
        assert np.allclose(res.B(0.3), np.eye(2))

    def test_quadratic_contraction(self):
        p = Potential.trig({0: 3.0, 1: -0.5, -1: -0.5})
        band = 0.05
        rng = np.random.default_rng(31)
        for _ in range(5):
            w = tuple(self._random_w(rng, 1e-3, band) for _ in range(3))
            A = perturbed_schrodinger(p, w, band)
            res = schrodinger_reduction(A, p, ALPHA, band)
            assert res.residual < 1e-9
            assert res.iterations <= 3
            assert all(r < 1e3 for r in res.contraction_ratios)
            assert res.imag_asym < 1e-10

    def test_conjugacy_identity_on_grid(self):
        # the residual *is* sup_x ||B(x+a) A(x) B(x)^-1 - A^(v')(x)|| on the grid
        p = Potential.trig({0: 2.5, 1: -0.4, -1: -0.4})
        band = 0.04
        rng = np.random.default_rng(32)
        w = tuple(self._random_w(rng, 5e-4, band) for _ in range(3))
        res = schrodinger_reduction(perturbed_schrodinger(p, w, band), p, ALPHA, band)
        assert res.residual < 1e-10

    def test_log_domain_guard(self):
        p = Potential.trig({0: 3.0, 1: -0.5, -1: -0.5})
        band = 0.02
        w = (BandFunction({0: 0.9}, band), BandFunction({}, band), BandFunction({}, band))
        A = perturbed_schrodinger(p, w, band)
        with pytest.raises(ValueError):
            schrodinger_reduction(A, p, ALPHA, band)
