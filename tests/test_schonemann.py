import pytest

from dpirred.core import DirichletPoly
from dpirred import schonemann
from dpirred.schonemann import (
    coprime_mod_p,
    irreducible_mod_p,
    pq_schonemann_test,
    prime_power_value_test,
    schonemann_test,
)
from dpirred.oracle import brute_force_factor
from dpirred import report


def test_irreducible_mod_p_routes():
    F = DirichletPoly({1: 1, 5: 1})
    assert irreducible_mod_p(F, 3)[0] is True  # prime degree
    G = DirichletPoly({1: 1, 2: 1, 4: 1})
    ok, how = irreducible_mod_p(G, 5)
    assert ok is True  # oracle route over F_5
    H = DirichletPoly({1: 1, 4: 1})  # 1 + 1/4^s = (1+1/2^s)^2 mod 2
    assert irreducible_mod_p(H, 2)[0] is False


def test_oracle_budget_is_not_irreducibility(monkeypatch):
    # 1 + 1/2^s + 1/6^s is irreducible mod 3, but only the F_3 search says so
    F = DirichletPoly({1: 1, 2: 1, 6: 1})
    G = DirichletPoly({1: 1})
    assert irreducible_mod_p(F, 3) == (True, "oracle exhaustion mod p")
    assert schonemann_test(F, G, 1, 3, 1).verdict == report.IRREDUCIBLE
    monkeypatch.setattr(schonemann, "MOD_P_NODE_CAP", 1)
    assert irreducible_mod_p(F, 3) == (None, "oracle node cap 1 reached mod p")
    assert schonemann_test(F, G, 1, 3, 1).verdict == report.INCONCLUSIVE


def test_coprime_mod_p():
    F = DirichletPoly({1: 1, 2: 1})
    G = DirichletPoly({1: 2, 3: 1})
    assert coprime_mod_p(F, G, 5)
    assert not coprime_mod_p(F, F, 5)


def test_pq_example_concrete():
    # p (1 + 1/r^s)^n + q (2 + 1/r^s)^n with (p, q, r, n) = (2, 3, 5, 2)
    F = DirichletPoly({1: 1, 5: 1})
    G = DirichletPoly({1: 2, 5: 1})
    rep = pq_schonemann_test(F, G, 2, 2, 3)
    assert rep.verdict == report.IRREDUCIBLE
    f = F.pow(2).scale(2) + G.pow(2).scale(3)
    assert not brute_force_factor(f).reducible


def test_pq_requires_distinct_congruence():
    F = DirichletPoly({1: 1, 5: 1})
    rep = pq_schonemann_test(F, F, 2, 2, 3)
    assert rep.verdict == report.INCONCLUSIVE


def test_pq_rejects_degenerate_inputs():
    F = DirichletPoly({1: 1, 5: 1})
    G3 = DirichletPoly({1: 1, 7: 1})
    with pytest.raises(ValueError):
        pq_schonemann_test(F, G3, 2, 2, 3)  # degree mismatch
    with pytest.raises(ValueError):
        pq_schonemann_test(F, G3, 2, 3, 3)  # p = q


def test_prime_power_value_example_concrete():
    # m (-1 + 1/2^s)^n + 3 (-b + c/2^s) with witness a = -2
    F = DirichletPoly({1: -1, 2: 1})
    G = DirichletPoly({2: 1})  # b = 0, c = 1
    rep = prime_power_value_test([F], [2], 1, G, 3, -2)
    assert rep.verdict == report.IRREDUCIBLE
    f = F.pow(2) + G.scale(3)
    assert f == DirichletPoly({1: 1, 2: 1, 4: 1})
    assert not brute_force_factor(f).reducible


def test_prime_power_value_bad_witness():
    F = DirichletPoly({1: -1, 2: 1})
    G = DirichletPoly({1: 3, 2: 1})  # G(-2) = 3 + 4 = 7, fine; shift b
    bad_G = DirichletPoly({1: 1, 2: 1})  # G(-2) = 5, not divisible: good
    sixG = DirichletPoly({1: -2, 2: 1})  # G(-2) = -2 + 4*1... = 2, not div by 3
    zeroG = DirichletPoly({1: -4, 2: 2})  # G(-2) = -4 + 8 = ... div by 3? 4: no
    G0 = DirichletPoly({1: 1, 2: 1})
    rep = prime_power_value_test([F], [2], 1, DirichletPoly({1: 3}), 3, -2)
    assert rep.verdict == report.INCONCLUSIVE  # G(-2) = 3 divisible by 3


def test_schonemann_classic_and_value():
    # q F^n + p G with F irreducible mod p and F, G coprime mod p
    F = DirichletPoly({1: 1, 2: 1})
    G = DirichletPoly({1: 1})
    rep = schonemann_test(F, G, 2, 5, 1)
    assert rep.verdict == report.IRREDUCIBLE
    f = F.pow(2) + G.scale(5)
    assert not brute_force_factor(f).reducible

    # value variant: the worked instance through this entry point
    F1 = DirichletPoly({1: -1, 2: 1})
    G1 = DirichletPoly({2: 1})
    rep = schonemann_test(F1, G1, 2, 3, 1)
    assert rep.verdict == report.IRREDUCIBLE


def test_schonemann_leading_divisible_inconclusive():
    F = DirichletPoly({1: 1, 2: 5})
    G = DirichletPoly({1: 1})
    rep = schonemann_test(F, G, 2, 5, 1)
    assert rep.verdict == report.INCONCLUSIVE


def test_unit_twist_invariance():
    F = DirichletPoly({1: 1, 5: 1})
    G = DirichletPoly({1: 2, 5: 1})
    base = pq_schonemann_test(F, G, 2, 2, 3).verdict
    # monicity is required, so twist the value-variant inputs instead
    F1 = DirichletPoly({1: -1, 2: 1})
    G1 = DirichletPoly({2: 1})
    v1 = prime_power_value_test([F1], [2], 1, G1, 3, -2).verdict
    v2 = prime_power_value_test([F1.scale(-1)], [2], 1, G1, 3, -2).verdict
    v3 = prime_power_value_test([F1], [2], -1, G1.scale(-1), 3, -2).verdict
    assert base == report.IRREDUCIBLE
    assert v1 == v2 == v3 == report.IRREDUCIBLE
