import random
import time
from fractions import Fraction

import pytest

from dpirred.core import DirichletPoly
from dpirred.analyze import analyze_univariate
from dpirred.degrees import relative_degree_sets
from dpirred.oracle import brute_force_factor, FACTORED, IRREDUCIBLE_CERTIFIED
from dpirred import polygon
from dpirred.polygon import (
    build_polygon,
    candidate_relative_degrees,
    lone_slope_combination_test,
    combination_degree_exclusions,
    dumas_test,
    slope_exclusions,
    merge_vector_systems,
    multi_prime_test,
    segment_point_count,
    subset_product_targets,
    vector_system,
)
from dpirred import report

FIG1 = DirichletPoly({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2})
G_FACTOR = DirichletPoly({2: 2, 3: 1, 4: 1, 5: 2})
H_FACTOR = DirichletPoly({2: 2, 3: 1})


def test_figure1_polygon():
    poly = build_polygon(FIG1, 2)
    assert poly.vertices == ((4, 2), (9, 0), (12, 0), (15, 1))
    assert poly.edges[0].points == ((4, 2), (6, 1), (9, 0))
    assert poly.edges[0].delta == 2
    assert poly.validate()


def test_two_term_polygon_single_edge():
    f = DirichletPoly({3: 1, 7: 5})
    poly = build_polygon(f, 5)
    assert poly.single_edge()
    assert poly.vertices == ((3, 0), (7, 1))


def test_factor_polygon_g():
    poly = build_polygon(G_FACTOR, 2)
    assert poly.vertices == ((2, 1), (3, 0), (4, 0), (5, 1))


def test_segment_point_count_examples():
    delta, pts = segment_point_count(4, 2, 9, 0)
    assert delta == 2 and pts == [(4, 2), (6, 1), (9, 0)]
    delta, pts = segment_point_count(2, 0, 3, 1)
    assert delta == 1 and pts == [(2, 0), (3, 1)]
    delta, pts = segment_point_count(4, 0, 36, 2)
    assert delta == 2 and pts == [(4, 0), (12, 1), (36, 2)]
    with pytest.raises(ValueError):
        segment_point_count(4, 1, 9, 1)


def test_segment_points_match_brute_force_sample():
    from dpirred.oracle import enumerate_segment_points_brute

    cases = [(4, 2, 9, 0), (2, 0, 3, 1), (4, 0, 36, 2), (8, 0, 27, 3), (2, -2, 32, 3)]
    for x1, y1, x2, y2 in cases:
        _, pts = segment_point_count(x1, y1, x2, y2)
        assert pts[1:-1] == enumerate_segment_points_brute(x1, y1, x2, y2)


def test_total_factor_bound_figure1():
    # 2 + 3 + 1: the horizontal edge (9, 0)-(12, 0) passes through the
    # log-integral points at 10 and 11, so it carries three segments
    assert build_polygon(FIG1, 2).total_segments() == 6
    f = DirichletPoly({3: 1, 7: 5})
    assert build_polygon(f, 5).total_segments() == 1
    # a flat polygon cannot bound better than one segment per index step
    zeta6 = DirichletPoly({i: 1 for i in range(1, 7)})
    assert build_polygon(zeta6, 7).total_segments() == 5


def test_vector_merge_on_figure1():
    vf = vector_system(build_polygon(FIG1, 2))
    vg = vector_system(build_polygon(G_FACTOR, 2))
    vh = vector_system(build_polygon(H_FACTOR, 2))
    assert merge_vector_systems(vg, vh) == vf


def test_dumas_examples():
    # two terms, coprime degrees, a prime of multiplicity one in the product
    f = DirichletPoly({2: 3, 5: 7})
    assert dumas_test(f, 7).verdict == report.IRREDUCIBLE
    # Eisenstein-high instance
    g = DirichletPoly({2: 7, 3: 7, 5: 1})
    rep = dumas_test(g, 7)
    assert rep.verdict == report.IRREDUCIBLE
    # equal endpoint valuations: inconclusive
    h = DirichletPoly({2: 3, 3: 1, 5: 3})
    assert dumas_test(h, 3).verdict == report.INCONCLUSIVE


def test_dumas_worked_odd_multiplicity_example():
    f = DirichletPoly({2: 4, 3: 8, 5: 1})
    assert dumas_test(f, 2).verdict == report.IRREDUCIBLE


def test_dumas_equal_height_twist():
    # |a_m| = |a_n|: the t = 1 twist with p = 2 certifies 1 + ... + 1/2^s forms
    f = DirichletPoly({1: 1, 2: 1})
    rep = dumas_test(f, 2, shift_t=1)
    assert rep.verdict == report.IRREDUCIBLE and rep.certificate["t"] == 1


def test_candidate_degrees_two_segment_profile():
    cands, profile, capped = candidate_relative_degrees(FIG1, 2)
    assert not capped
    # sloped edges give 3/2 twice and 5/4; the horizontal edge (9, 0)-(12, 0)
    # splits at the integer points 10 and 11
    assert sorted(profile) == sorted(
        [Fraction(3, 2), Fraction(3, 2), Fraction(10, 9), Fraction(11, 10),
         Fraction(12, 11), Fraction(5, 4)])
    prod = Fraction(1)
    for r in profile:
        prod *= r
    assert prod == Fraction(15, 4)
    assert Fraction(3, 2) in cands


def _subset_products(profile):
    prods = {Fraction(1)}
    for r in profile:
        prods |= {x * r for x in prods}
    return prods


def _random_profile(rng):
    """Up to 12 ratios, repeated sloped ratios and horizontal runs (x+1)/x,
    multiplying out to n/m with n <= 64 in lowest terms."""
    while True:
        profile = []
        size = rng.randint(1, 12)
        while len(profile) < size:
            if rng.random() < 0.5:
                c = rng.randint(1, 6)
                profile += [Fraction(rng.randint(c + 1, 12), c)] * rng.randint(1, 3)
            else:
                x = rng.randint(1, 20)
                profile += [Fraction(y + 1, y) for y in range(x, x + rng.randint(1, 5))]
        profile = profile[:size]
        prod = Fraction(1)
        for r in profile:
            prod *= r
        if prod.numerator <= 64:
            return profile, prod


def test_subset_product_search_matches_enumeration():
    rng = random.Random(43)
    hits = misses = 0
    for _ in range(400):
        profile, prod = _random_profile(rng)
        # a polygon's profile multiplies out to n/m
        m = prod.denominator * rng.randint(1, 3)
        targets = relative_degree_sets(m, int(m * prod)).s_rd_k
        exact = set(targets) & _subset_products(profile)
        found, capped = subset_product_targets(profile, targets)
        assert not capped
        assert found == exact, (profile, targets)
        hits += len(exact)
        misses += len(targets) - len(exact)
    assert hits > 100 and misses > 100
    # 4 fails first and leaves failed states behind; a memo keyed on the
    # quotient left after a node's loop, not the one it was entered with,
    # would then lose 8 = 9/2 * (4/3)^2
    profile = [Fraction(9, 2)] + [Fraction(4, 3)] * 3 + [Fraction(3, 2), Fraction(4, 3)]
    assert subset_product_targets(profile, [Fraction(4), Fraction(8)]) == ({Fraction(8)}, False)


def test_candidate_search_budget_keeps_undecided(monkeypatch):
    exact, _, capped = candidate_relative_degrees(FIG1, 2)
    assert not capped
    monkeypatch.setattr(polygon, "CANDIDATE_NODE_BUDGET", 1)
    cands, _, capped = candidate_relative_degrees(FIG1, 2)
    assert capped
    assert exact <= cands <= set(relative_degree_sets(4, 15).s_rd_k)
    rep = multi_prime_test(FIG1, [2])
    assert rep.certificate["capped"]
    assert rep.detail == ("candidate intersection nonempty: [5/4, 3/2] "
                          "(search budget ran out; undecided ratios kept)")


def test_candidate_search_long_horizontal_edge():
    # 1999 ratios (x+1)/x make the search deeper than the interpreter's
    # recursion limit; every target b/1001 <= 3000/1001 telescopes
    f = DirichletPoly({1001: 1, 3000: 1})
    start = time.thread_time()
    cands, profile, _ = candidate_relative_degrees(f, 2)
    assert time.thread_time() - start < 0.5
    assert len(profile) == 1999
    assert cands == set(relative_degree_sets(1001, 3000).s_rd_k)


# The four slow inputs of the ROADMAP baseline (5-38 s each with the old
# subset-product enumeration) and a product that took 38 s.
TAIL_INPUTS = [
    "4/18^s - 1/37^s + 3/58^s",
    "12/9^s + 1/17^s + 3/27^s + 2/29^s + 2/36^s",
    "3/11^s + 12/17^s + 4/26^s + 12/29^s + 1/30^s + 1/32^s",
    "6/2^s + 9/7^s + 1/28^s + 6/42^s - 2/51^s",
    "-2/3^s - 2/5^s - 6/15^s - 2/18^s - 6/25^s - 2/30^s",
]


@pytest.mark.parametrize("text", TAIL_INPUTS)
def test_tail_inputs_finish(text):
    f = DirichletPoly.parse(text)
    start = time.thread_time()
    a = analyze_univariate(f)
    assert time.thread_time() - start < 0.5
    if text in (TAIL_INPUTS[0], TAIL_INPUTS[2]):
        assert a.verdict == report.IRREDUCIBLE
        assert a.reports[-1].rule == "segment-candidate-intersection"
        assert brute_force_factor(f).status == IRREDUCIBLE_CERTIFIED


def test_tail_product_never_irreducible():
    f = DirichletPoly.parse(TAIL_INPUTS[-1])
    for run_all in (False, True):
        a = analyze_univariate(f, run_all=run_all)
        assert all(r.verdict != report.IRREDUCIBLE for r in a.reports)
    assert brute_force_factor(f).status == FACTORED


def test_multi_prime_example_two_primes():
    f = DirichletPoly({10: 15, 15: 5, 18: 3, 38: 15})
    rep = multi_prime_test(f, [3, 5])
    assert rep.verdict == report.IRREDUCIBLE


def test_multi_prime_single_edge_coprime():
    f = DirichletPoly({2: 3, 5: 7})
    rep = multi_prime_test(f, [3])
    assert rep.verdict == report.IRREDUCIBLE


def test_lone_slope_positive_variant():
    f = DirichletPoly({1: 1, 2: 1})
    g = DirichletPoly({1: 2, 3: 1})
    rep = lone_slope_combination_test(f, g, 5, 1)
    assert rep.verdict == report.IRREDUCIBLE
    assert rep.certificate["variant"] == "positive"


def test_lone_slope_squarefree_degrees_any_k():
    f = DirichletPoly({1: 1, 2: 1})
    g = DirichletPoly({1: 2, 3: 1})
    for k in range(1, 6):
        assert lone_slope_combination_test(f, g, 5, k).verdict == report.IRREDUCIBLE


def test_lone_slope_negative_variant():
    f = DirichletPoly({3: 1, 4: 1})
    g = DirichletPoly({2: 1, 4: 1})
    rep = lone_slope_combination_test(f, g, 7, 1)
    assert rep.verdict == report.IRREDUCIBLE
    assert rep.certificate["variant"] == "negative"


def test_lone_slope_non_coprime_inconclusive():
    f = DirichletPoly({1: 1, 2: 1})
    g = DirichletPoly({1: 1, 4: 1})
    assert lone_slope_combination_test(f, g, 5, 1).verdict == report.INCONCLUSIVE


def test_slope_exclusion_low_side_example():
    # 1/m^s + p/i^s + p^2/n^s with m < i < sqrt(mn)
    f = DirichletPoly({2: 1, 3: 7, 9: 49})
    _, rep = slope_exclusions(f, 7)
    assert rep.verdict == report.IRREDUCIBLE
    assert rep.rule == "right-slope-exclusion"


def test_slope_exclusion_high_side_example():
    f = DirichletPoly({2: 49, 7: 7, 9: 1})
    _, rep = slope_exclusions(f, 7)
    assert rep.verdict == report.IRREDUCIBLE
    assert rep.rule == "left-slope-exclusion"


def test_combination_degree_exclusion_intervals():
    # f of degree t = 2 with constant term, g of degree 12: h = f + p g
    f = DirichletPoly({1: 1, 2: 1})
    g = DirichletPoly({1: 1, 12: 1})
    intervals, rep = combination_degree_exclusions(f, g, 5, 1)
    lohi = {(iv.lo, iv.hi) for iv in intervals}
    assert (Fraction(3), Fraction(3)) in lohi or any(
        iv.lo <= 3 <= iv.hi for iv in intervals)


def test_hull_domination_random():
    rng = random.Random(37)
    for _ in range(150):
        f = _rand_primitive(rng)
        for p in (2, 3, 5):
            assert build_polygon(f, p).validate(), (f.text(), p)


def test_merge_invariant_random_products():
    rng = random.Random(31)
    for _ in range(120):
        g = _rand_primitive(rng)
        h = _rand_primitive(rng)
        f = g * h
        for p in f.relevant_primes():
            vf = vector_system(build_polygon(f, p))
            merged = merge_vector_systems(
                vector_system(build_polygon(g, p)),
                vector_system(build_polygon(h, p)),
            )
            assert vf == merged, (g.text(), h.text(), p)


def _rand_primitive(rng):
    while True:
        terms = {}
        for _ in range(rng.randint(2, 5)):
            c = rng.randint(-9, 9)
            if c:
                terms[rng.randint(1, 30)] = c
        if len(terms) < 2:
            continue
        f = DirichletPoly(terms)
        if f.is_constant():
            continue
        return f.normalize()[3]
