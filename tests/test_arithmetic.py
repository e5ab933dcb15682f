import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from quasispec.arithmetic import (
    Frequency,
    RationalDetected,
    expand,
    from_terms,
    resolve_alpha,
    resonance_distance,
    resonance_repulsion_check,
    resonances,
    torus_norm,
)

GOLDEN = (math.sqrt(5) - 1) / 2
# Euclid brute force on (sqrt(5)-1)/2: all partial quotients 1, Fibonacci q_n
FIB_Q = (1, 2, 3, 5, 8, 13, 21, 34)


def test_expand_golden_depth8():
    f = expand(GOLDEN, 8)
    assert f.cf_terms == (1,) * 8
    assert f.denominators == FIB_Q


def test_expand_rational_detected():
    with pytest.raises(RationalDetected):
        expand(0.5, 5)


def test_expand_validates_range():
    with pytest.raises(ValueError):
        expand(1.3, 4)
    with pytest.raises(ValueError):
        expand(0.4, 0)


@pytest.mark.parametrize("preset", ["golden", "silver"])
def test_best_approximation_bounds(preset):
    f = resolve_alpha(preset, 25)
    qs = f.denominators
    for n in range(len(qs) - 1):
        prod = qs[n + 1] * f.torus_norm_multiple(qs[n])
        assert 0.5 <= prod <= 1.0


def test_silver_terms():
    f = resolve_alpha("silver", 10)
    assert f.cf_terms == (2,) * 10


def test_exhaustive_best_approximation_golden():
    f = resolve_alpha("golden", 20)
    qs = f.denominators
    # q_{n+1} <= 1e5 allows the exhaustive scan of (b1):
    # ||q_n alpha|| = inf_{1 <= k < q_{n+1}} ||k alpha||
    for n in (3, 6, 9):
        best = min(f.torus_norm_multiple_mp(k) for k in range(1, qs[n + 1]))
        assert best == f.torus_norm_multiple_mp(qs[n])


def test_torus_norm_values():
    assert torus_norm(0.0) == 0.0
    assert torus_norm(2.75) == 0.25
    assert torus_norm(-0.4) == pytest.approx(0.4, abs=1e-15)


@given(st.floats(-50, 50), st.floats(-50, 50))
def test_torus_norm_properties(x, y):
    tn = torus_norm
    assert 0.0 <= tn(x) <= 0.5
    assert tn(-x) == pytest.approx(tn(x), abs=1e-9)
    assert tn(x + 1.0) == pytest.approx(tn(x), abs=1e-9)
    assert abs(tn(x) - tn(y)) <= abs(x - y) + 1e-9


def test_resonances_zero_always_present():
    f = resolve_alpha("golden", 30)
    for theta in (0.0, 0.3, 0.123):
        rs = resonances(f, theta, 1.0, 30)
        assert 0 in rs.indices
        assert rs.indices[0] == 0


def test_resonances_half_alpha_phase():
    f = resolve_alpha("golden", 30)
    rs = resonances(f, f.alpha / 2, 1.0, 50)
    assert 1 in rs.indices
    assert resonance_distance(f, f.alpha / 2, 1) < 1e-15


def test_resonances_golden_theta0_only_zero():
    f = resolve_alpha("golden", 40)
    rs = resonances(f, 0.0, 1.0, 200)
    assert rs.indices == (0,)


def test_resonances_theta_shift_by_one():
    f = resolve_alpha("golden", 30)
    a = resonances(f, 0.217, 1.0, 60)
    b = resonances(f, 1.217, 1.0, 60)
    assert a.indices == b.indices


def test_constructed_resonance():
    f = resolve_alpha("golden", 40)
    with mpmath.workdps(40):
        theta = float(mpmath.mpf(5) * f.value - mpmath.floor(mpmath.mpf(5) * f.value))
    rs = resonances(f, theta, 2.0, 40)
    assert 10 in rs.indices
    pairs = resonance_repulsion_check(rs, f)
    assert pairs, "constructed phase must yield at least two resonances"
    j10 = rs.indices.index(10)
    if j10 < len(rs.indices) - 1:
        # the gap after the exact resonance is clamped to the precision floor
        gap = dict((j, g) for j, _, g in pairs)[j10]
        assert gap < 1e-20


def test_repulsion_check_single_index_empty():
    f = resolve_alpha("golden", 30)
    rs = resonances(f, 0.0, 1.0, 100)
    assert resonance_repulsion_check(rs, f) == []


def test_from_terms_reproduces_leading_quotients():
    f = from_terms([3, 1, 4, 1, 5])
    assert f.cf_terms == (3, 1, 4, 1, 5)


def test_resolve_alpha_forms():
    f1 = resolve_alpha("cf:2,2,2,2,2,2")
    assert f1.cf_terms == (2,) * 6
    f2 = resolve_alpha("0.41421356237309514", depth=8)
    assert f2.cf_terms[:4] == (2, 2, 2, 2)
    f3 = resolve_alpha([1, 1, 1])
    assert f3.cf_terms == (1, 1, 1)


def test_presets_are_cached_per_depth_and_precision(monkeypatch):
    f = resolve_alpha("golden", 40)
    assert resolve_alpha("golden", 40) is f and resolve_alpha("golden", 40) == f
    assert resolve_alpha("golden", 41) != f and len(resolve_alpha("golden", 41).cf_terms) == 41
    assert resolve_alpha("silver", 40) != f
    monkeypatch.setenv("QUASISPEC_PRECISION", "double")
    assert resolve_alpha("golden", 40) != f  # the working precision is part of the key
    monkeypatch.setenv("QUASISPEC_PRECISION", "bogus")
    with pytest.raises(ValueError):
        resolve_alpha("golden", 40)


def test_decimal_and_cf_specs_are_not_cached():
    for spec in ("0.41421356237309514", "cf:2,2,2,2,2,2"):
        f = resolve_alpha(spec, 8)
        assert resolve_alpha(spec, 8) == f and resolve_alpha(spec, 8) is not f


def test_frequency_rejects_bad_convergents():
    with pytest.raises(ValueError):
        Frequency(value=mpmath.mpf(GOLDEN), cf_terms=(1, 1),
                  convergents=((1, 2), (1, 2)))
