import math

import mpmath
import numpy as np
import pytest

from quasispec.arithmetic import resolve_alpha
from quasispec.cocycle import (
    GrowthProfile,
    Potential,
    adjugate,
    block_starts,
    growth_profile,
    herm_eigs,
    iterate,
    lyapunov,
    normalize_stack,
    orbit,
    site_rows,
    strip_majorant,
)
from quasispec.conjugation import BandFunction

ALPHA = resolve_alpha("golden", 40).alpha
FREE = Potential.zero()
RNG = np.random.default_rng(42)


class TestPotential:
    def test_amo_value(self):
        v = Potential.amo(0.5)
        assert v(0.0) == pytest.approx(1.0)
        assert v(0.25) == pytest.approx(0.0, abs=1e-15)

    def test_trig_real_on_axis(self):
        v = Potential.trig({1: 0.3 + 0.1j, -1: 0.3 - 0.1j, 0: 2.0})
        xs = RNG.uniform(0, 1, 16)
        vals = v(xs)
        assert np.isrealobj(vals)

    def test_trig_real_axis_is_the_mode_sum(self):
        v = Potential.trig({0: 2.0, 1: 0.3 + 0.1j, -1: 0.3 - 0.1j, 3: -0.2j, -3: 0.2j})
        xs = np.random.default_rng(7).uniform(0, 1, 64)
        vals = v(xs)
        assert np.max(np.abs(vals - v(xs + 0j).real)) < 1e-14
        assert np.max(np.abs(vals - BandFunction(v.coeffs, 0.0)(xs))) < 1e-14
        assert abs(v(0.3) - BandFunction(v.coeffs, 0.0)(0.3)) < 1e-14

    @pytest.mark.parametrize("lam", [0.5, 2.0, 0.37])
    def test_amo_is_the_cosine_bit_for_bit(self, lam):
        v = Potential.amo(lam)
        xs = orbit(0.123, ALPHA, 0, 5000)
        assert np.array_equal(v(xs), 2 * lam * np.cos(2 * np.pi * xs))
        for x in (0.0, 0.1, 0.25, 0.37, float(xs[17])):
            assert v(x) == 2 * lam * np.cos(2 * np.pi * x)

    def test_trig_rejects_nonhermitian(self):
        with pytest.raises(ValueError):
            Potential.trig({1: 1.0, -1: 0.5})

    def test_strip_evaluation(self):
        v = Potential.amo(0.5)
        z = v(0.1 + 0.02j)
        assert abs(z) <= strip_majorant(list(v.coeffs), list(v.coeffs.values()), 0.02) + 1e-12

class TestHermEigs:
    def test_matches_eigvalsh(self):
        rng = np.random.default_rng(12)
        for _ in range(500):
            a, d, re, im = rng.normal(size=4) * 10.0 ** rng.uniform(-4, 4, 4)
            b = complex(re, im)
            ref = np.linalg.eigvalsh(np.array([[a, b], [b.conjugate(), d]]))
            got = herm_eigs(a, b, d)
            assert got[0] <= got[1]
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-14 * np.abs(ref).max()

    def test_entries_near_1e200(self):
        # no entry is squared: eigenvalues of order 1e200 stay finite
        rng = np.random.default_rng(13)
        for _ in range(50):
            a, d, re, im = rng.normal(size=4)
            b = complex(re, im)
            got = herm_eigs(1e200 * a, 1e200 * b, 1e200 * d)
            assert all(map(math.isfinite, got))
            ref = 1e200 * np.linalg.eigvalsh(np.array([[a, b], [b.conjugate(), d]]))
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-14 * np.abs(ref).max()


class TestStackToolkit:
    def test_adjugate_inverts_det_one(self):
        m = np.random.default_rng(8).normal(size=(8, 2, 2))
        m[:, 1, 1] = (1.0 + m[:, 0, 1] * m[:, 1, 0]) / m[:, 0, 0]  # det 1
        assert np.allclose(adjugate(m) @ m, np.eye(2), atol=1e-12)
        assert np.array_equal(adjugate(adjugate(m)), m)

    def test_normalizer_is_an_exact_power_of_two(self):
        scales = np.array([1e-30, 1.0, 3.0, 1e40, 2.0**-3])
        x = np.random.default_rng(9).normal(size=(2, 2, 5)) * scales
        y = x.copy()
        k = normalize_stack(y)
        top = np.abs(y).max(axis=(0, 1))
        assert np.all((0.5 <= top) & (top < 1.0))
        assert np.array_equal(np.ldexp(y, k), x)

    @pytest.mark.parametrize("steps", [37, 40], ids=["odd-steps", "even-steps"])
    @pytest.mark.parametrize("blocks", [0, 1, 2, 3, 5, 8, 31, 64, 100, 129])
    @pytest.mark.parametrize("lanes", [(), (3,)], ids=["scalar", "3-lanes"])
    def test_block_starts_match_a_sequential_fold(self, blocks, lanes, steps):
        # companion steps [[e, -1], [1, 0]] with random e, block i's steps
        # multiplied out and folded onto the start of block i one block at a
        # time, in log form; an odd step count leaves the scan's rows swapped.
        # Both products round differently: within 1e-14 per step, relative
        # to the largest entry
        e = np.random.default_rng(blocks).uniform(-3.0, 3.0, (steps, blocks) + lanes)
        x, sx = block_starts(iter(e), (blocks,) + lanes)
        assert x.shape == (2, 2, blocks + 1) + lanes and sx.shape == (blocks + 1,) + lanes
        eye = np.eye(2).reshape((2, 2) + (1,) * len(lanes))
        m, ex = np.broadcast_to(eye, (2, 2) + lanes).copy(), np.zeros(lanes, dtype=np.int64)
        for i in range(blocks + 1):
            got = np.ldexp(x[:, :, i], sx[i] - ex)
            top = np.abs(m).max(axis=(0, 1))
            assert np.all(np.abs(got - m).max(axis=(0, 1)) <= 1e-14 * max(1, i * steps) * top)
            if i:
                assert np.all((0.5 <= np.abs(x[:, :, i]).max(axis=(0, 1))) & (top > 0))
                assert np.all(np.abs(x[:, :, i]).max(axis=(0, 1)) < 1.0)
            for t in range(steps if i < blocks else 0):
                step = np.array([[e[t, i], -np.ones(lanes)], [np.ones(lanes), np.zeros(lanes)]])
                m = np.einsum("ij...,jk...->ik...", step, m)
                k = np.frexp(np.abs(m).max(axis=(0, 1)))[1]
                m, ex = np.ldexp(m, -k), ex + k


class TestIterate:
    def test_empty_product(self):
        m, s = iterate(1.0, FREE, ALPHA, 0.2, 0)
        assert np.allclose(m, np.eye(2)) and s == 0.0

    def test_single_factor(self):
        a = np.array([[2.5 - FREE(0.1), -1.0], [1.0, 0.0]])  # the transfer step at x = 0.1
        m, s = iterate(2.5, FREE, ALPHA, 0.1, 1)
        assert s == pytest.approx(math.log(np.linalg.norm(a, 2)))
        assert np.allclose(m * math.exp(s), a)

    def test_constant_hyperbolic_growth(self):
        # [[2.5, -1], [1, 0]] has spectral radius 2
        _, s = iterate(2.5, FREE, ALPHA, 0.0, 100)
        assert s / 100 == pytest.approx(math.log(2.0), rel=0.01)

    def test_unit_norm_output(self):
        m, _ = iterate(1.7, Potential.amo(0.5), ALPHA, 0.3, 257)
        assert np.linalg.norm(m, 2) == pytest.approx(1.0, rel=1e-12)

    def test_det_preservation(self):
        # log |det| of the unscaled product exp(s) * m is 0
        for v, x, n in ((FREE, 0.0, 100), (FREE, 0.0, 1000), (FREE, 0.0, 10000),
                        (Potential.amo(0.5), 0.13, 5000)):
            m, s = iterate(0.0, v, ALPHA, x, n)
            log_det = math.log(abs(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0])) + 2 * s
            assert abs(math.exp(log_det) - 1.0) <= 1e-10 * n

    def test_cocycle_law(self):
        v = Potential.amo(0.5)
        for n, m_ in ((7, 12), (40, 33)):
            a, sa = iterate(0.4, v, ALPHA, 0.2 + m_ * ALPHA, n)
            b, sb = iterate(0.4, v, ALPHA, 0.2, m_)
            c, sc = iterate(0.4, v, ALPHA, 0.2, n + m_)
            comp = a @ b
            nrm = np.linalg.norm(comp, 2)
            assert sa + sb + math.log(nrm) == pytest.approx(sc, rel=1e-8)
            assert np.allclose(comp / nrm, c, atol=1e-8)

    def test_real_entries_for_real_energy(self):
        m, _ = iterate(complex(1.2, 0.0), Potential.amo(0.3), ALPHA, 0.7, 64)
        assert np.max(np.abs(np.imag(m))) <= 1e-12

    def test_negative_power_is_inverse(self):
        v = Potential.amo(0.5)
        n = 23
        a, sa = iterate(0.9, v, ALPHA, 0.31, n)
        b, sb = iterate(0.9, v, ALPHA, 0.31 + n * ALPHA, -n)
        prod = (b @ a) * math.exp(sa + sb)
        assert np.allclose(prod, np.eye(2), atol=1e-9)


    def test_unit_norm_near_identity(self):
        # the product is within 1e-4 of a rotation: a trace/determinant norm
        # formula cancels there, the hypot form does not
        m, s = iterate(0.2, FREE, ALPHA, 0.0, 1380)
        assert abs(np.linalg.norm(m, 2) - 1.0) <= 1e-15
        # log ||A_1380|| from a 50-digit product of the same double steps
        assert s == pytest.approx(9.6930354558519819e-05, rel=1e-11)

    def test_complex_energy_rejected(self):
        for z in (complex(1.2, 0.1), complex(0.0, -1e-300)):
            with pytest.raises(ValueError):
                iterate(z, FREE, ALPHA, 0.0, 10)


class TestOrbit:
    def test_sites_reduced_mod_one(self):
        xs = orbit(0.7, ALPHA, -5, 1000)
        assert xs.shape == (1005,)
        assert np.all((0.0 <= xs) & (xs < 1.0))
        # x - floor(x) is x % 1.0 exactly, negative x included
        assert np.array_equal(xs, (0.7 + ALPHA * np.arange(-5, 1000)) % 1.0)

    def test_reflected_orbit(self):
        # m_minus samples the left half-line this way
        assert np.array_equal(orbit(0.3, -ALPHA, 1, 50), orbit(0.3, ALPHA, -49, 0)[::-1])

    def test_stride_takes_every_stride_th_site(self):
        assert np.array_equal(orbit(0.21, ALPHA, 1025, 9000, 32), orbit(0.21, ALPHA, 1025, 9000)[::32])

    def test_phase_array_is_one_orbit_per_column(self):
        # the Lyapunov scan samples every phase of its grid in one call
        phases = np.array([0.0, 0.37, 0.999, 0.5 + 2**-40])
        xs = orbit(phases, ALPHA, -7, 20000, 13)
        assert xs.shape == (len(range(-7, 20000, 13)), len(phases))
        for j, theta in enumerate(phases):
            assert xs[:, j].tobytes() == orbit(theta, ALPHA, -7, 20000, 13).tobytes()


def _mp_potential(v, x):
    """v at the mpf phase x from its modes k >= 0, in the working precision."""
    out = mpmath.mpf(v.coeffs.get(0, 0j).real)
    for k, c in v.coeffs.items():
        if k > 0:
            arg = 2 * mpmath.pi * k * x
            out += 2 * (c.real * mpmath.cos(arg) - c.imag * mpmath.sin(arg))
    return out


class TestSiteRows:
    POTENTIALS = {"amo": Potential.amo(0.5),
                  "trig3": Potential.trig({0: 0.3, 1: 0.4 - 0.2j, -1: 0.4 + 0.2j, 2: 0.1 + 0.3j,
                                           -2: 0.1 - 0.3j, 3: -0.25j, -3: 0.25j})}

    @pytest.mark.parametrize("name", list(POTENTIALS))
    def test_against_mpmath(self, name):
        # 64 row starts 32 apart from site 1 (the first sites an m+- walk
        # reads), just past site 1024 and just below 2**21, against
        # v(theta + n alpha) in 40 digits.  Each row is within 1e-14 of v
        # at its start's float orbit phase plus t alpha, and so no further
        # from the exact value than the float orbit's phase error in the
        # window allows, which is the per-site sample's error
        # (up to ~3e-9 in v at 2**21).  Row-by-row maxima of the two
        # samplers' errors are two independent roundings of that size, and
        # either can be the larger.
        v, theta, steps, count = self.POTENTIALS[name], 0.21, 32, 64
        slope = 2 * math.pi * sum(abs(k * c) for k, c in v.coeffs.items())  # >= sup |v'|
        for lo in (1, 1025, 2**21 - steps * count):
            starts = range(lo, lo + steps * count, steps)
            rows = np.array(list(site_rows(v, theta, ALPHA, starts, steps)))
            phases = orbit(theta, ALPHA, lo, starts.stop)
            per_site = v(phases).reshape(count, steps).T
            exact, carried = np.empty((steps, count)), np.empty((steps, count))
            with mpmath.workdps(40):
                th, al = mpmath.mpf(theta), mpmath.mpf(ALPHA)
                drift = max(abs(mpmath.mpf(x) - mpmath.frac(th + n * al))
                            for n, x in zip(range(lo, starts.stop), phases.tolist()))
                for j, s in enumerate(starts):
                    for t in range(steps):
                        exact[t, j] = _mp_potential(v, th + (s + t) * al)
                        carried[t, j] = _mp_potential(v, mpmath.mpf(phases[j * steps]) + t * al)
            bound = slope * float(drift) + 1e-14
            assert np.abs(rows - carried).max() <= 1e-14
            assert np.abs(per_site - exact).max() <= bound
            assert np.all(np.abs(rows - exact).max(axis=1) <= bound)


class TestLyapunov:
    def test_free_hyperbolic(self):
        assert lyapunov(2.5, FREE, ALPHA, 2000, 8) == pytest.approx(math.log(2), abs=0.01)

    def test_free_rotation(self):
        assert lyapunov(0.0, FREE, ALPHA, 10000, 8) <= 0.01

    def test_amo_supercritical_in_spectrum(self):
        # cross-check value: Thouless side is exercised in test_spectral
        assert lyapunov(0.0, Potential.amo(2.0), ALPHA, 20000, 32) == pytest.approx(
            math.log(2), abs=0.05)

    def test_uniform_grid_agrees(self):
        a = lyapunov(2.5, FREE, ALPHA, 500, 16, grid="orbit")
        b = lyapunov(2.5, FREE, ALPHA, 500, 16, grid="uniform")
        assert a == pytest.approx(b, abs=1e-6)


def log_norms_sequential(E, v, phases, n, every_step=True):
    """log ||A_s(x)|| for s = 1..n, shape (n, len(phases)), one step at a
    time with max-abs rescaling and the 2-norm from an SVD: the reference
    for the blocked scan in ``cocycle``.  With ``every_step`` false the
    same steps and rescales run, but the norm is taken at s = n only, and
    that row alone is returned."""
    M = np.tile(np.eye(2), (len(phases), 1, 1))
    logs = np.zeros(len(phases))
    out = np.empty((n if every_step else 1, len(phases)))
    for s in range(n):
        x = s * ALPHA + phases  # the site phases of ``orbit``, reduced mod 1
        e = E - v(x - np.floor(x))
        M = np.stack([np.stack([e * M[:, 0, 0] - M[:, 1, 0], e * M[:, 0, 1] - M[:, 1, 1]], -1),
                      M[:, 0]], 1)
        if every_step or s == n - 1:
            out[s if every_step else 0] = logs + np.log(np.linalg.norm(M, 2, axis=(1, 2)))
        if (s + 1) % 32 == 0:
            scale = np.abs(M).max(axis=(1, 2))
            M /= scale[:, None, None]
            logs += np.log(scale)
    return out if every_step else out[0]


# (v, E): in the spectrum and outside it at each coupling
BATCH_CASES = [(FREE, 0.3), (FREE, 2.5), (Potential.amo(0.5), 0.0),
               (Potential.amo(0.5), 0.7), (Potential.amo(2.0), 0.0), (Potential.amo(2.0), 5.0)]


class TestBlockedScan:
    @pytest.mark.parametrize("v, E", BATCH_CASES)
    def test_lyapunov_matches_sequential(self, v, E):
        n, count, x0 = 20000, 16, 0.37
        phases = (x0 + ALPHA * np.arange(count)) % 1.0
        want = np.mean(log_norms_sequential(E, v, phases, n, every_step=False)) / n
        assert lyapunov(E, v, ALPHA, n, count, x0=x0) == pytest.approx(want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("v, E", BATCH_CASES)
    def test_growth_profile_matches_sequential(self, v, E):
        s_max, count, x0 = 3001, 32, 0.11  # 3001 = 54 blocks of 56 steps, the last short
        phases = (x0 + np.arange(count) / count) % 1.0
        want = log_norms_sequential(E, v, phases, s_max).max(axis=1)
        got = growth_profile(E, v, ALPHA, s_max, count, x0=x0).log_sup
        # relative, with the log norms near 0 (norms near 1) held to 1e-12 absolute
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))

    def test_short_products(self):
        # n below 4 runs as a single block, n = 5 as blocks of 3 and 2 steps
        phases = (0.1 + ALPHA * np.arange(2)) % 1.0
        for n in (1, 2, 3, 5):
            want = log_norms_sequential(0.4, Potential.amo(0.5), phases, n, every_step=False)
            assert lyapunov(0.4, Potential.amo(0.5), ALPHA, n, 2, x0=0.1) == pytest.approx(
                np.mean(want) / n, rel=1e-13)


class TestScanPins:
    """float.hex values of the companion-step scan's outputs, so a change
    to how the scan steps or rescales shows as a moved bit, not as a drift
    inside the 1e-12 of the sequential references above."""

    def test_lyapunov_orbit_and_uniform_grids(self):
        got = [lyapunov(E, v, ALPHA, 20000, 16, grid=grid).hex()
               for v, E in ((Potential.amo(0.5), 0.7), (Potential.amo(2.0), 5.0))
               for grid in ("orbit", "uniform")]
        assert got == ["0x1.092ee2cf67d71p-2", "0x1.092eebc8fffd0p-2",
                       "0x1.4dc6d73ebf8fep+0", "0x1.4dc6c5093f6d1p+0"]

    def test_iterate_forward_and_backward(self):
        got = {n: [t.hex() for t in (*m.ravel(), s)]
               for n in (257, -257) for m, s in [iterate(1.7, Potential.amo(0.5), ALPHA, 0.3, n)]}
        assert got == {
            257: ["-0x1.47aace441d516p-5", "0x1.cecb88ab79a29p-8", "0x1.f7c94c880f30ap-1",
                  "-0x1.63c5b3fe40bcep-3", "0x1.aebe2ea214614p+3"],
            -257: ["-0x1.3084062aeec97p-4", "0x1.c6a945ec57adep-1", "0x1.36216c9ce2521p-5",
                   "-0x1.cf0b6709eb5f4p-2", "0x1.ae23707f07c90p+3"]}

    def test_growth_profile_within_one_ulp(self):
        # 3001 steps as 54 blocks of 56: entries 31 and 87 are steps where
        # the in-block pass rescales, the rest lie between rescalings
        log_sup = growth_profile(0.7, Potential.amo(0.5), ALPHA, 3001, 32, x0=0.11).log_sup
        idx = [0, 31, 55, 56, 87, 1000, 3000]
        want = np.array([float.fromhex(h) for h in (
            "0x1.8a01e68f5c897p-1", "0x1.1fcdcbcf26be7p+3", "0x1.dff518348e61cp+3",
            "0x1.e2cd913ee100ap+3", "0x1.72718429ef488p+4", "0x1.03cdf3fcd0a97p+8",
            "0x1.84ea289b443abp+9")])
        assert np.all(np.abs(log_sup[idx] - want) <= np.spacing(want))


class TestGrowthProfile:
    def test_free_rotation_bounded(self):
        gp = growth_profile(0.0, FREE, ALPHA, 500, 8)
        assert gp.sup_norms.max() <= 1.0 + 1e-12

    def test_free_hyperbolic_rate(self):
        gp = growth_profile(3.0, FREE, ALPHA, 400, 8)
        assert gp.exp_rate() == pytest.approx(math.log((3 + math.sqrt(5)) / 2), rel=1e-3)

    def test_amo_subcritical_loglog_slope(self):
        gp = growth_profile(0.0, Potential.amo(0.5), ALPHA, 4000, 32)
        assert gp.loglog_slope() <= 1.2
