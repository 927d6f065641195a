from fractions import Fraction

import pytest

from dpirred.core import DirichletPoly, divisors
from dpirred.degrees import (
    max_multiplicity,
    min_factor_count_bound,
    multiplicity_bound,
    quick_irreducibility,
    relative_degree_sets,
)
from dpirred import report


def test_rho_delta_point_values():
    s = relative_degree_sets(3, 7)
    assert s.rho == 1 and s.delta == Fraction(7, 3)
    s = relative_degree_sets(15, 35)
    assert s.rho == Fraction(7, 5) and s.delta == Fraction(7, 5)


def test_rho_one_for_prime_degree_above_m():
    for m, p in [(4, 7), (6, 11), (10, 13), (1, 2)]:
        assert relative_degree_sets(m, p).rho == 1


def test_equivalence_s_rd_empty_iff_rho_one_small_sweep():
    for n in range(2, 61):
        for m in range(1, n):
            s = relative_degree_sets(m, n)
            empty_rd = not s.s_rd
            empty_rd1 = not s.s_rd_k
            assert empty_rd == empty_rd1 == (s.rho == 1), (m, n)


def test_complement_closure_and_bound():
    for n in range(2, 61):
        for m in range(1, n):
            s = relative_degree_sets(m, n)
            rd = set(s.s_rd)
            for r in rd:
                assert Fraction(n * r.denominator, m * r.numerator) in rd, (m, n, r)
            if s.rho == 1:
                p = min(q for q, _ in __import__("dpirred.core", fromlist=["factor_integer"]).factor_integer(n))
                q = max(d for d in divisors(m) if d < p)
                assert Fraction(n, m) < Fraction(p * p, q * q), (m, n)


def test_quick_zeta_family():
    for n in range(2, 30):
        f = DirichletPoly({i: 1 for i in range(1, n + 1)})
        rep = quick_irreducibility(f)
        assert rep.verdict == report.IRREDUCIBLE, n


def test_quick_min_degree_rule():
    f = DirichletPoly({10: 3, 11: -2, 14: 1, 16: 5})
    rep = quick_irreducibility(f)
    assert rep.verdict == report.IRREDUCIBLE
    assert rep.rule == "near-min-degree-term"


def test_quick_inconclusive_case():
    f = DirichletPoly({4: 1, 16: 1}).normalize()[3]  # 1 + 1/4^s
    rep = quick_irreducibility(f)
    assert rep.verdict == report.INCONCLUSIVE
    from dpirred.oracle import brute_force_factor, IRREDUCIBLE_CERTIFIED

    # factors over C as a difference-of-squares in i, but is Q-irreducible
    assert brute_force_factor(f).status == IRREDUCIBLE_CERTIFIED


def test_quick_requires_primitive():
    with pytest.raises(ValueError):
        quick_irreducibility(DirichletPoly({2: 1, 4: 1}))


def test_factor_count_bound_matches_direct_enumeration():
    for n in range(2, 40):
        for m in range(1, n):
            k = min_factor_count_bound(m, n)
            assert not relative_degree_sets(m, n, k).s_rd_k
            if k > 1:
                assert relative_degree_sets(m, n, k - 1).s_rd_k


def test_multiplicity_square_free_degree():
    f = DirichletPoly({1: 2, 6: 3})
    certs, bound = multiplicity_bound(f)
    assert bound == 1


def test_multiplicity_near_degree():
    # m, n not square-free, each with a prime of multiplicity 1, a_{n-1} != 0
    f = DirichletPoly({12: 1, 17: 5, 18: 1})
    certs, bound = multiplicity_bound(f)
    assert bound == 1  # square-free via the k = 2 gap rule


def test_weak_bound_formula():
    # n = 32: the k = 2 gap needs a term above n - 2 = 30, so i_max = 31
    assert max_multiplicity(32) == 5
    f = DirichletPoly({1: 1, 31: 1, 32: 1})
    certs, bound = multiplicity_bound(f)
    assert bound == 1
    from dpirred.oracle import max_factor_multiplicity

    assert max_factor_multiplicity(f) <= 1


def test_quick_soundness_vs_oracle_small():
    from dpirred.oracle import brute_force_factor

    import random

    rng = random.Random(23)
    for _ in range(300):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            c = rng.randint(-3, 3)
            if c:
                terms[rng.randint(1, 12)] = c
        f = DirichletPoly(terms)
        if f.is_zero() or f.is_constant() or not f.is_algebraically_primitive():
            continue
        rep = quick_irreducibility(f)
        if rep.verdict == report.IRREDUCIBLE:
            assert not brute_force_factor(f).reducible, f.text()
