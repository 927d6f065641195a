import random

from dpirred.core import DirichletPoly, GF, ZZ
from dpirred.oracle import (
    FACTORED,
    IRREDUCIBLE_CERTIFIED,
    NONE_WITHIN_BOUND,
    brute_force_factor,
    divide_exact,
    enumerate_segment_points_brute,
    enumerate_segment_points_brute_nd,
    factor_completely,
    gcd_bounded,
    max_factor_multiplicity,
)
from dpirred.primevalue import gelfond_factor_height_bound

FIG1 = DirichletPoly({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2})


def test_oracle_factors_worked_example():
    res = brute_force_factor(FIG1)
    assert res.status == FACTORED
    g, h = res.factors
    assert g * h == FIG1


def test_oracle_certifies_irreducible():
    res = brute_force_factor(DirichletPoly({1: 1, 4: 1}))
    assert res.status == IRREDUCIBLE_CERTIFIED


def test_oracle_difference_of_squares():
    res = brute_force_factor(DirichletPoly({1: -1, 4: 1}))
    assert res.status == FACTORED
    g, h = res.factors
    assert {g, h} == {DirichletPoly({1: -1, 2: 1}), DirichletPoly({1: 1, 2: 1})}


def test_oracle_shift_factor():
    res = brute_force_factor(DirichletPoly({2: 1, 4: 1}))
    assert res.status == FACTORED


def test_oracle_over_f2():
    f = DirichletPoly({1: 1, 4: 1}, GF(2))  # (1 + 1/2^s)^2 over F_2
    res = brute_force_factor(f)
    assert res.status == FACTORED
    g = DirichletPoly({1: 1, 2: 1}, GF(2))
    assert res.factors[0] * res.factors[1] == f
    assert max_factor_multiplicity(f) == 2
    assert g in factor_completely(f)


def test_oracle_parametric_middle():
    # force the one-interior-index shape (1, 3): g = 1 + 2/2^s + 3/3^s
    g = DirichletPoly({1: 1, 2: 2, 3: 3})
    h = DirichletPoly({1: 2, 2: -1, 3: 1})
    f = g * h
    res = brute_force_factor(f)
    assert res.status == FACTORED
    u, v = res.factors
    assert u * v == f


def test_factor_completely_and_gcd():
    g = DirichletPoly({1: 1, 2: 1})
    h = DirichletPoly({1: -1, 3: 2})
    w = DirichletPoly({1: 1, 2: -1})
    assert sorted(f.degree for f in factor_completely(g * h * w)) == [2, 2, 3]
    assert gcd_bounded(g * w, h * w) == w.normalize()[1]
    assert gcd_bounded(g, h).is_constant()
    assert gcd_bounded(g * h, g * h) == (g * h).normalize()[1]


def test_divide_exact():
    g = DirichletPoly({1: 3, 2: 5})
    h = DirichletPoly({2: 1, 7: -2})
    assert divide_exact(g * h, g) == h
    assert divide_exact(g * h, DirichletPoly({1: 1, 5: 1})) is None


def test_fp_search_honours_node_cap():
    f = DirichletPoly({1: 1, 2: 1, 6: 1}, GF(3))
    assert brute_force_factor(f).status == IRREDUCIBLE_CERTIFIED
    res = brute_force_factor(f, node_cap=1)
    assert res.status == NONE_WITHIN_BOUND and res.nodes == 2


def test_random_products_always_found():
    rng = random.Random(41)
    for _ in range(120):
        g = _rand(rng, max_index=6)
        h = _rand(rng, max_index=6)
        if g.is_constant() or h.is_constant():
            continue
        f = g * h
        res = brute_force_factor(f, node_cap=10**6)
        assert res.status == FACTORED, f.text()
        u, v = res.factors
        assert u * v == f.normalize()[1] or u * v == f


def test_wide_shape_product_found():
    g = DirichletPoly({1: 1, 3: -2, 5: 1, 7: 3})
    h = DirichletPoly({1: 2, 8: 1})
    f = g * h
    res = brute_force_factor(f, node_cap=10**6)
    assert res.status == FACTORED
    u, v = res.factors
    assert u * v == f


def test_gelfond_bound_reruns_do_not_change_certification():
    rng = random.Random(43)
    checked = 0
    while checked < 40:
        f = _rand(rng)
        if f.is_constant() or f.is_zero():
            continue
        res = brute_force_factor(f)
        if res.status != IRREDUCIBLE_CERTIFIED:
            continue
        bigger = brute_force_factor(f, height_bound=gelfond_factor_height_bound(f) + 1)
        assert bigger.status == IRREDUCIBLE_CERTIFIED
        checked += 1


def test_completeness_f2_f3_against_multiplication_tables():
    for p, max_deg in ((2, 9), (3, 6)):
        ring = GF(p)
        polys = _all_polys_up_to(p, max_deg)
        reducible = set()
        for g in polys:
            for h in polys:
                if 2 <= g.degree and 2 <= h.degree and g.degree * h.degree <= max_deg:
                    reducible.add(g * h)
        for f in polys:
            if f.degree < 2:
                continue
            res = brute_force_factor(f)
            assert res.reducible == (f in reducible), (p, f.text())


def _all_polys_up_to(p, max_deg):
    out = []
    for n in range(1, max_deg + 1):
        def rec(idx, acc):
            if idx > n:
                out.append(DirichletPoly(dict(acc), GF(p)))
                return
            vals = range(1, p) if idx == n else range(p)
            for v in vals:
                if v:
                    acc[idx] = v
                rec(idx + 1, acc)
                acc.pop(idx, None)
        rec(1, {})
    return out


def test_segment_brute_examples():
    assert enumerate_segment_points_brute(4, 2, 9, 0) == [(6, 1)]
    assert enumerate_segment_points_brute(2, 0, 3, 1) == []
    assert enumerate_segment_points_brute(4, 0, 36, 2) == [(12, 1)]


def test_segment_brute_nd():
    assert enumerate_segment_points_brute_nd((4, 9), (9, 4)) == [(6, 6)]
    assert enumerate_segment_points_brute_nd((2, 3), (3, 2)) == []
    assert enumerate_segment_points_brute_nd((1, 1), (8, 27)) == [(2, 3), (4, 9)]
    assert enumerate_segment_points_brute_nd((1, 1), (4, 25)) == [(2, 5)]


def _rand(rng, max_index=10):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(-4, 4)
        if c:
            terms[rng.randint(1, max_index)] = c
    f = DirichletPoly(terms)
    return f if not f.is_zero() else DirichletPoly({1: 1, 2: 1})
