import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from dpirred.core import DirichletPoly, exponents, log_gcd, log_points, valuation
from dpirred.analyze import analyze_univariate, coefficient_primes
from dpirred.degrees import quick_irreducibility, relative_degree_sets
from dpirred.oracle import brute_force_factor, FACTORED, IRREDUCIBLE_CERTIFIED
from dpirred import polygon
from dpirred.polygon import (
    build_polygon,
    candidate_relative_degrees,
    lone_slope_combination_test,
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
    for p in (1, 0, -2, 4):
        with pytest.raises(ValueError, match="not prime"):
            build_polygon(FIG1, p)


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


def _first_point_not_above_chord(f, p, t):
    """The first interior support point that is not strictly above the
    endpoint chord of the twisted valuations, by the power comparison
    (n/i)^(v_i - v_m) <= (m/i)^(v_i - v_n), and whether it lies on the
    chord; None when every interior point is above it."""
    m, n = f.deg_min, f.degree
    tw = {i: valuation(c, p) + t * exponents(i).get(p, 0) for i, c in f.items()}
    vm, vn = tw[m], tw[n]
    for i, vi in tw.items():
        lhs, rhs = Fraction(n, i) ** (vi - vm), Fraction(m, i) ** (vi - vn)
        if m < i < n and lhs <= rhs:
            return i, lhs == rhs
    return None


def test_dumas_chord_decision_matches_power_comparison():
    rng = random.Random(43)
    ties = passed = 0
    for _ in range(1500):
        p, t = rng.choice((2, 3, 5)), rng.randint(0, 1)
        m, k = rng.randint(1, 12), rng.choice((2, 3))
        if rng.random() < 0.5:
            # a chord with at least k - 1 interior log-integral points
            n, vm = m * rng.choice((2, 3, 5, 6)) ** k, rng.randint(0, 3)
            vn = vm + rng.choice((-k, k))
        else:
            n, (vm, vn) = rng.randint(m + 2, 80), rng.sample(range(4), 2)
        # twisted valuation of every support point: the endpoints, some
        # log-integral points of the chord itself and some random points
        target = {m: vm, n: vn}
        d = gcd(vn - vm, log_gcd(m, n))
        for j, x in enumerate(log_points(m, n, d)[1:-1], 1):
            if rng.random() < 0.6:
                target[x] = vm + j * (vn - vm) // d
        for _ in range(rng.randint(0, 2)):
            target[rng.randint(m + 1, n - 1)] = rng.randint(0, 5)
        terms = {}
        for i, v in target.items():
            e = v - t * exponents(i).get(p, 0)
            if e >= 0:
                terms[i] = rng.choice([u for u in (1, -1, 2, -3, 7) if u % p]) * p**e
        f = DirichletPoly(terms)
        if m not in terms or n not in terms or not f.is_algebraically_primitive():
            continue
        rep = polygon.dumas_test(f, p, shift_t=t)
        ref = _first_point_not_above_chord(f, p, t)
        if ref is None:
            assert "not above" not in rep.detail
            passed += len(terms) > 2
        else:
            assert rep.detail == f"support point {ref[0]} not above the endpoint chord (p={p})"
            ties += ref[1]
    assert ties > 100 and passed > 100


def _chord_cmp_fraction(a, b, c):
    """The Fraction form of the chord predicate: the sign of
    (c/a)^(y_b - y_a) - (b/a)^(y_c - y_a)."""
    lhs = Fraction(c[0], a[0]) ** (b[1] - a[1])
    rhs = Fraction(b[0], a[0]) ** (c[1] - a[1])
    return (lhs > rhs) - (lhs < rhs)


def test_chord_predicate_matches_fraction_form():
    rng = random.Random(47)
    signs = Counter()
    while sum(signs.values()) < 100_000:
        i, y = rng.randint(1, 60), rng.randint(0, 6)
        if rng.random() < 0.3:
            # b and c on one log line through a: ratios r^j, r^k, rises j*s, k*s
            r, s = rng.choice((2, 3, 5, Fraction(3, 2))), rng.randint(-3, 3)
            j, k = rng.randint(0, 3), rng.randint(0, 3)
            b, c = ((int(i * r**e), y + e * s) for e in (j, k))
            if (i * r**j).denominator != 1 or (i * r**k).denominator != 1:
                continue
        else:
            b, c = ((rng.randint(i, 200), rng.randint(-3, 9)) for _ in range(2))
        a = (i, y)
        sign = polygon._chord_cmp(a, b, c)
        assert sign == _chord_cmp_fraction(a, b, c), (a, b, c)
        signs[sign] += 1
    assert min(signs.values()) > 20_000, signs


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


def test_segment_numerator_lcm_is_subsumed():
    # when the lcm over the coefficient primes p of the gcd d_p of the
    # segment-ratio numerators is n = deg f, some q^e || n divides every
    # ratio of one polygon, whose ratios multiply to n/m: that polygon is a
    # single segment, with no candidate, and the quick battery or the Dumas
    # chord at its prime decides f
    rng = random.Random(53)
    held = 0
    for _ in range(5000):
        f = DirichletPoly({rng.randint(1, 60): rng.choice((-12, -6, -4, -3, -2, -1, 1, 2, 3,
                                                            4, 5, 6, 8, 9, 10, 12))
                           for _ in range(rng.randint(2, 6))})
        if f.is_constant() or not f.is_algebraically_primitive():
            continue
        polys = {p: build_polygon(f, p) for p in coefficient_primes(f)}
        d = [gcd(*(r.numerator for r in pl.segment_profile())) for pl in polys.values()]
        if not d or lcm(*d) != f.degree:
            continue
        held += 1
        single = [p for p, pl in polys.items() if pl.total_segments() == 1]
        assert single, f.text()
        assert all(candidate_relative_degrees(f, p)[0] == set() for p in single), f.text()
        assert quick_irreducibility(f).verdict == report.IRREDUCIBLE or any(
            dumas_test(f, p).verdict == report.IRREDUCIBLE for p in single), f.text()
    assert held > 1000


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
    intervals, rep = slope_exclusions(f + g.scale(5), 5)
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
