import random
from fractions import Fraction

import pytest

from dpirred.core import DirichletPoly, max_exponents
from dpirred.certlog import LogProduct, NEGATIVE, POSITIVE, ZERO, ln_bounds
from dpirred.primevalue import (
    SCAN_T_CAP,
    gelfond_factor_height_bound,
    prime_value_test,
    pth_root_is_irrational,
    scan_t,
)
from dpirred import report


def test_ln_bounds_basic():
    iv = ln_bounds(Fraction(2), 64)
    assert iv.lo < iv.hi
    assert float(iv.lo) == pytest.approx(0.6931471805599453, abs=1e-15)
    assert iv.hi - iv.lo <= Fraction(1, 2**60)
    one = ln_bounds(Fraction(1), 64)
    assert one.lo == one.hi == 0
    neg = ln_bounds(Fraction(1, 3), 64)
    assert neg.hi < 0


def test_ln_bounds_independent_of_call_order():
    from dpirred import certlog

    n = 2**200 + 1

    def fresh():
        certlog._LN_CACHE.clear()
        certlog._LN2_CACHE.clear()

    fresh()
    alone = certlog.ln_int_bounds(n, 64)
    fresh()
    certlog.ln_int_bounds(3, 64)
    after_ln3 = certlog.ln_int_bounds(n, 64)
    fresh()
    assert (alone.lo, alone.hi) == (after_ln3.lo, after_ln3.hi)
    assert alone.hi - alone.lo <= Fraction(1, 2**62)


def test_gelfond_bound_examples():
    assert gelfond_factor_height_bound(DirichletPoly({1: 1, 2: 1})) == 2
    assert gelfond_factor_height_bound(DirichletPoly({1: -7})) == 7
    mult = max_exponents(DirichletPoly({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2}).support())
    assert mult == {2: 3, 3: 2, 5: 1}
    assert list(mult) == [2, 3, 5]


def test_gelfond_bound_dominates_factor_heights():
    rng = random.Random(47)
    for _ in range(300):
        g = _rand(rng)
        h = _rand(rng)
        f = g * h
        if f.is_zero():
            continue
        assert g.height() * h.height() <= gelfond_factor_height_bound(f)


def test_prime_value_fermat_cases():
    f = DirichletPoly({1: 1, 4: 1})
    rep = prime_value_test(f, 8, 65537)
    assert rep.verdict == report.IRREDUCIBLE
    rep = prime_value_test(f, 4, 257)
    assert rep.verdict == report.IRREDUCIBLE


def test_prime_value_threshold_failure():
    f = DirichletPoly({1: -1, 4: 1})
    rep = prime_value_test(f, 1, 3)
    assert rep.verdict == report.INCONCLUSIVE


def test_prime_value_monotone_pair():
    f = DirichletPoly({1: 1, 4: 1})
    for t, P in ((4, 257), (8, 65537)):
        assert prime_value_test(f, t, P).verdict == report.IRREDUCIBLE


def test_prime_value_unit_coefficients_route():
    # |coefficients| <= 1, t > n^2: fires without interval work when prime
    f = DirichletPoly({1: 1, 2: 1, 6: -1})
    t = 37
    v = abs(f.evaluate_at_negative(t))
    # build a synthetic valid call only if the value is prime; otherwise skip
    from dpirred.core import is_prime

    if is_prime(v):
        assert prime_value_test(f, t, v).verdict == report.IRREDUCIBLE


def test_prime_value_rejects_bad_decomposition():
    f = DirichletPoly({1: 1, 4: 1})
    with pytest.raises(ValueError):
        prime_value_test(f, 4, 251)


def test_pth_root_examples():
    f = DirichletPoly({1: 1, 2: 1})
    assert pth_root_is_irrational(f, 1, 3)  # exponent of 2 is 2, not divisible by 3
    g = DirichletPoly({1: 5})
    assert not pth_root_is_irrational(g, 1, 3)
    h = DirichletPoly({2: 3, 4: 3})
    assert not pth_root_is_irrational(h, 0, 3)  # exponents 3*(1) + 3*(2) = 9


def test_pth_root_matches_direct_computation():
    rng = random.Random(53)
    for _ in range(80):
        f = _rand(rng, max_index=10)
        if f.is_zero():
            continue
        t = rng.randint(0, 2)
        P = rng.choice([2, 3, 5, 7])
        prod = Fraction(1)
        for i, a in f.items():
            prod *= Fraction(i) ** (a * i**t)
        # rational principal P-th root exists iff prod is a perfect P-th power
        num_root = _perfect_root(prod.numerator, P)
        den_root = _perfect_root(prod.denominator, P)
        is_rational = num_root is not None and den_root is not None
        assert pth_root_is_irrational(f, t, P) == (not is_rational), (f.text(), t, P)


def test_scan_t_finds_fermat_witness():
    f = DirichletPoly({1: 1, 4: 1})
    hit = scan_t(f, 1, 8)
    assert hit is not None
    t, rep = hit
    assert rep.verdict == report.IRREDUCIBLE


def test_scan_t_refuses_a_range_past_the_cap():
    f = DirichletPoly({1: -1, 4: 1})
    for lo, hi in ((1, SCAN_T_CAP + 1), (0, SCAN_T_CAP), (10**8, 10**8)):
        with pytest.raises(ValueError, match="past the cap"):
            scan_t(f, lo, hi)
    assert scan_t(f, 1, SCAN_T_CAP) is None  # no witness, every t tried


def _perfect_root(n, P):
    lo, hi = 1, 1 << (n.bit_length() // P + 2)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid**P < n:
            lo = mid + 1
        else:
            hi = mid
    return lo if lo**P == n else None


def _rand(rng, max_index=16):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(-5, 5)
        if c:
            terms[rng.randint(1, max_index)] = c
    f = DirichletPoly(terms)
    return f if not f.is_zero() else DirichletPoly({1: 1, 3: 1})
