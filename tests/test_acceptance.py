"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the lines.
"""

import itertools
import math
import random
import time
from fractions import Fraction
from math import gcd

import pytest

from dpirred.core import DirichletPoly, GF, factor_integer
from dpirred.degrees import quick_irreducibility, relative_degree_sets
from dpirred.multivariate import MultiDirichletPoly
from dpirred.oracle import (
    brute_force_factor,
    enumerate_segment_points_brute,
    gcd_bounded,
    max_factor_multiplicity,
)
from dpirred.polygon import (
    build_polygon,
    dumas_test,
    slope_exclusions,
    merge_vector_systems,
    multi_prime_test,
    segment_point_count,
    vector_system,
)
from dpirred.polytope import LogPolytope, minkowski_sum, polytope_irreducibility
from dpirred.primevalue import gelfond_factor_height_bound, prime_value_test
from dpirred.ranktests import common_factor_test, k_power_free_charp
from dpirred.schonemann import pq_schonemann_test, prime_power_value_test
from dpirred.upperpoly import stepanov_schmidt_test
from dpirred import report

FIG1 = DirichletPoly({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2})


def _ok(n, msg):
    print(f"ACCEPTANCE {n}: PASS - {msg}")


# -- 1 -----------------------------------------------------------------------


def test_criterion_01_figure_reproduction():
    build_polygon(FIG1, 2)  # warm the factorization cache
    t0 = time.perf_counter()
    poly = build_polygon(FIG1, 2)
    elapsed = time.perf_counter() - t0
    assert poly.vertices == ((4, 2), (9, 0), (12, 0), (15, 1))
    assert (6, 1) in poly.edges[0].interior_points()
    assert elapsed < 0.001, f"took {elapsed * 1000:.3f} ms"
    _ok(1, f"worked polygon exact in {elapsed * 1e6:.0f} us")


# -- 2 -----------------------------------------------------------------------


def test_criterion_02_merge_invariant_500_pairs():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    pairs = 0
    while pairs < 500:
        g = _rand_poly(rng, 12, 60, 9)
        h = _rand_poly(rng, 12, 60, 9)
        if g.is_constant() or h.is_constant():
            continue
        g, h = g.normalize()[3], h.normalize()[3]
        if g.is_constant() or h.is_constant():
            continue
        f = g * h
        for p in f.relevant_primes():
            assert vector_system(build_polygon(f, p)) == merge_vector_systems(
                vector_system(build_polygon(g, p)),
                vector_system(build_polygon(h, p)),
            ), (g.text(), h.text(), p)
        pairs += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30
    _ok(2, f"500 random pairs merged exactly in {elapsed:.1f} s")


# -- 3 -----------------------------------------------------------------------


def test_criterion_03_point_count_oracle_equivalence():
    t0 = time.perf_counter()
    brute_cache = {}

    def brute_class(x1, x2, dy):
        key = (x1, x2, dy)
        if key not in brute_cache:
            brute_cache[key] = enumerate_segment_points_brute(x1, 0, x2, dy)
        return brute_cache[key]

    # spot-check that translating y moves brute solutions rigidly
    rng = random.Random(3)
    for _ in range(200):
        x1 = rng.randint(1, 59)
        x2 = rng.randint(x1 + 1, 60)
        y1, y2 = rng.randint(-6, 6), rng.randint(-6, 6)
        if y1 == y2:
            continue
        direct = enumerate_segment_points_brute(x1, y1, x2, y2)
        lo = min(y1, y2)
        base = brute_class(x1, x2, abs(y2 - y1))
        if y1 < y2:
            mapped = [(x, y1 + t) for x, t in base]
        else:
            mapped = [(x, y1 - t) for x, t in base]
        assert direct == sorted(mapped)

    checked = 0
    for x1 in range(1, 60):
        for x2 in range(x1 + 1, 61):
            for dy in range(1, 13):
                formula_delta, pts = segment_point_count(x1, 0, x2, dy)
                interior = pts[1:-1]
                assert interior == brute_class(x1, x2, dy), (x1, x2, dy)
                assert formula_delta == len(interior) + 1
                checked += 1
    # all (y1, y2) windows reduce to the translation classes verified above
    for y1 in range(-6, 7):
        for y2 in range(-6, 7):
            if y1 == y2:
                continue
            d, pts = segment_point_count(4, y1, 9, y2)
            expected = [4, 6, 9] if (y2 - y1) % 2 == 0 else [4, 9]
            assert [p[0] for p in pts] == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _ok(3, f"{checked} (x1, x2, dy) classes match brute force in {elapsed:.1f} s")


# -- 4 -----------------------------------------------------------------------


def test_criterion_04_rho_delta_table_and_sweep():
    s = relative_degree_sets(3, 7)
    assert s.rho == 1 and s.delta == Fraction(7, 3)
    s = relative_degree_sets(15, 35)
    assert s.rho == Fraction(7, 5) and s.delta == Fraction(7, 5)
    count = 0
    for n in range(2, 201):
        for m in range(1, n):
            sets = relative_degree_sets(m, n)
            assert (not sets.s_rd) == (not sets.s_rd_k) == (sets.rho == 1), (m, n)
            count += 1
    _ok(4, f"point values exact; equivalence verified on {count} pairs up to 200")


# -- 5 -----------------------------------------------------------------------


def test_criterion_05_examples_corpus():
    results = []

    # 1: zeta partial sums
    for n in range(2, 41):
        f = DirichletPoly({i: 1 for i in range(1, n + 1)})
        assert quick_irreducibility(f).verdict == report.IRREDUCIBLE
    results.append("zeta sums")

    # 2: four terms pinned near the min-degree
    for coeffs in [(1, 1, 1, 1), (3, -2, 5, 7), (-1, 9, -4, 2)]:
        a, b, c, d = coeffs
        f = DirichletPoly({10: a, 11: b, 14: c, 16: d})
        rep = quick_irreducibility(f)
        assert rep.verdict == report.IRREDUCIBLE
        assert rep.rule == "near-min-degree-term"
    results.append("near-min-degree family")

    # 3: p * f + a/n^s with a unit top coefficient mod p
    f3 = DirichletPoly({2: 7, 3: 7, 5: 1})
    rep = dumas_test(f3, 7)
    assert rep.verdict == report.IRREDUCIBLE
    assert not brute_force_factor(f3).reducible
    results.append("scaled-plus-top")

    # 4: mirrored, constant term a unit mod p
    f4 = DirichletPoly({1: 1, 2: 7, 3: 7})
    rep = dumas_test(f4, 7)
    assert rep.verdict == report.IRREDUCIBLE
    results.append("scaled-plus-bottom")

    # 5: three terms with 2-adic gradient and odd endpoint multiplicities
    f5 = DirichletPoly({2: 4, 3: 8, 5: 1})
    assert dumas_test(f5, 2).verdict == report.IRREDUCIBLE
    results.append("three-term 2-adic chord")

    # 6: 1/m + p/i + p^2/n with m < i < sqrt(mn)
    f6 = DirichletPoly({2: 1, 3: 7, 9: 49})
    _, rep = slope_exclusions(f6, 7)
    assert rep.verdict == report.IRREDUCIBLE
    results.append("right-slope exclusion")

    # 7: mirrored with sqrt(mn) < i < n
    f7 = DirichletPoly({2: 49, 7: 7, 9: 1})
    _, rep = slope_exclusions(f7, 7)
    assert rep.verdict == report.IRREDUCIBLE
    results.append("left-slope exclusion")

    # 8: two-prime polygon intersection with (p, q) = (3, 5)
    f8 = DirichletPoly({10: 15, 15: 5, 18: 3, 38: 15})
    assert multi_prime_test(f8, [3, 5]).verdict == report.IRREDUCIBLE
    results.append("two-prime intersection")

    # 9: p F^n + q G^n with (p, q, r, n) = (2, 3, 5, 2)
    rep = pq_schonemann_test(
        DirichletPoly({1: 1, 5: 1}), DirichletPoly({1: 2, 5: 1}), 2, 2, 3)
    assert rep.verdict == report.IRREDUCIBLE
    results.append("two-prime power combination")

    # 10: m F^n + 3 G with the witness a = -2
    rep = prime_power_value_test(
        [DirichletPoly({1: -1, 2: 1})], [2], 1, DirichletPoly({2: 1}), 3, -2)
    assert rep.verdict == report.IRREDUCIBLE
    results.append("congruence-value combination")

    # 11: two-term multivariate with distinct prime multiplicities
    f11 = MultiDirichletPoly({(2**2, 3**3): 1, (5**5, 7**7): 1}, ("s1", "s2"))
    assert polytope_irreducibility(f11).verdict == report.ABSOLUTELY_IRREDUCIBLE
    results.append("two-term polytope")

    # 12: three prime-power-squared points, (r1..r6) = (8, 9, 25, 49, 121, 169)
    f12 = MultiDirichletPoly({(8, 9): 1, (25, 49): 1, (121, 169): 1}, ("s", "t"))
    rep = polytope_irreducibility(f12)
    assert rep.verdict == report.ABSOLUTELY_IRREDUCIBLE
    results.append("cone polytope")

    # 13: bivariate upper polygon
    f13 = MultiDirichletPoly(
        {(1, 1): 1, (8, 1): 1, (8, 2): 1, (16, 1): 1, (16, 32): 1}, ("s", "t"))
    assert stepanov_schmidt_test(f13, "s", "t").verdict == report.IRREDUCIBLE
    results.append("upper-polygon chord")

    _ok(5, f"all 13 worked examples fire their criterion ({len(results)} families)")


# -- 6 -----------------------------------------------------------------------


def _support_reachable(support, m, n):
    """Whether some factor shape can produce this support at all: every
    index must split as j*k with j, k in the factor index windows."""
    from dpirred.oracle import _shapes

    for c1, d1 in _shapes(m, n):
        c2, d2 = m // c1, n // d1
        if all(
            any(i % j == 0 and c2 <= i // j <= d2 for j in range(c1, d1 + 1))
            for i in support
        ):
            return True
    return False


def test_criterion_06_soundness_sweep():
    t0 = time.perf_counter()
    abs_values = {(0, 0): 1, (1, 0): 2, (0, 1): 3}  # nu2, nu3 -> |a|
    instances = 0
    fired_classes = 0
    oracle_runs = 0
    spot_checks = 0
    rng = random.Random(6)

    all_supports = []
    for k in range(2, 6):
        for supp in itertools.combinations(range(1, 13), k):
            g = 0
            for i in supp:
                g = gcd(g, i)
            if g != 1:
                continue
            all_supports.append(supp)

    for supp in all_supports:
        k = len(supp)
        m, n = supp[0], supp[-1]
        f_ref = DirichletPoly({i: 1 for i in supp})
        quick = quick_irreducibility(f_ref)
        quick_fired = quick.verdict == report.IRREDUCIBLE
        reachable = _support_reachable(supp, m, n)
        if quick_fired:
            # a support-rule certificate means no factor pair can produce
            # this support at all; the reachability check confirms it and a
            # random 1% of these classes still go through the oracle
            assert not reachable, supp
            instances += 6 ** k
            if rng.random() < 0.01:
                f = DirichletPoly({i: rng.choice([1, -2, 3]) for i in supp})
                assert not brute_force_factor(f).reducible, f.text()
                spot_checks += 1
            continue

        for nus in itertools.product(abs_values, repeat=k):
            f = DirichletPoly({i: abs_values[v] for i, v in zip(supp, nus)})
            fired = quick_fired
            if not fired:
                for p in (2, 3):
                    for t in (0, 1):
                        if dumas_test(f, p, shift_t=t).verdict == report.IRREDUCIBLE:
                            fired = True
                            break
                    if fired:
                        break
            if not fired:
                fired = multi_prime_test(f, [2, 3]).verdict == report.IRREDUCIBLE
            if not fired:
                for p in (2, 3):
                    if slope_exclusions(f, p)[1].verdict == report.IRREDUCIBLE:
                        fired = True
                        break
            instances += 2 ** k
            if not fired:
                continue
            fired_classes += 1
            for signs in itertools.product((1, -1), repeat=k - 1):
                fs = DirichletPoly({
                    i: s * c for (i, c), s in zip(f.items(), (1,) + signs)})
                assert not brute_force_factor(fs).reducible, fs.text()
                oracle_runs += 1

    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _ok(6, f"{instances} instances covered, {fired_classes} fired classes, "
           f"{oracle_runs} oracle confirmations + {spot_checks} spot checks, "
           f"0 violations in {elapsed:.0f} s")


# -- 7 -----------------------------------------------------------------------


def test_criterion_07_minkowski_invariant():
    rng = random.Random(7)
    done = 0
    while done < 200:
        nv = rng.randint(1, 3)
        names = tuple(f"s{i}" for i in range(nv))
        g = _rand_multi(rng, nv, names)
        h = _rand_multi(rng, nv, names)
        f = g * h
        if f.is_zero():
            continue
        assert LogPolytope.of(f).vertices == minkowski_sum(
            LogPolytope.of(g), LogPolytope.of(h)).vertices, (g.text(), h.text())
        done += 1
    _ok(7, "200 random products match in exponent space")


# -- 8 -----------------------------------------------------------------------


def test_criterion_08_rank_tests_exhaustive():
    t0 = time.perf_counter()
    swept = 0
    for p, n in [(2, 4), (2, 8), (2, 9), (3, 4), (3, 8), (3, 9)]:
        for f in _all_fp_polys(p, n):
            rep = k_power_free_charp(f, 2)
            oracle_sf = max_factor_multiplicity(f) <= 1
            assert (rep.verdict == report.SQUARE_FREE) == oracle_sf, (p, f.text())
            swept += 1
    pair_checks = 0
    for p, n1, n2, exhaustive in [(2, 4, 4, True), (2, 4, 8, True), (2, 8, 8, True),
                                  (2, 9, 9, False), (3, 4, 4, True), (3, 8, 8, False),
                                  (3, 9, 9, False)]:
        a = _all_fp_polys(p, n1)
        b = _all_fp_polys(p, n2)
        rng = random.Random(800 + p * n1 * n2)
        pairs = (
            [(f, g) for f in a for g in b]
            if exhaustive
            else [(rng.choice(a), rng.choice(b)) for _ in range(400)]
        )
        for f, g in pairs:
            got = common_factor_test(f, g, 1)
            truly = gcd_bounded(f, g).is_constant()
            assert (got.verdict == report.NO_COMMON_FACTOR) == truly, (p, f.text(), g.text())
            for d in (x for x in (2, 3) if n1 % x == 0 and n2 % x == 0):
                gotd = common_factor_test(f, g, d)
                truly_d = gcd_bounded(f, g).degree < d
                assert (gotd.verdict == report.NO_COMMON_FACTOR) == truly_d, \
                    (p, d, f.text(), g.text())
            pair_checks += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300
    _ok(8, f"{swept} square-free decisions and {pair_checks} gcd comparisons "
           f"agree with the oracle in {elapsed:.0f} s")


# -- 9 -----------------------------------------------------------------------


def test_criterion_09_gelfond_bound():
    rng = random.Random(9)
    done = 0
    while done < 1000:
        g = _rand_poly(rng, 4, 16, 5)
        h = _rand_poly(rng, 4, 16, 5)
        if g.is_zero() or h.is_zero():
            continue
        f = g * h
        assert g.height() * h.height() <= gelfond_factor_height_bound(f)
        done += 1
    _ok(9, "1000 random products never exceed the factor height bound")


# -- 10 ----------------------------------------------------------------------


def test_criterion_10_prime_value_thresholds():
    f = DirichletPoly({1: 1, 4: 1})
    rep = prime_value_test(f, 8, 65537)
    assert rep.verdict == report.IRREDUCIBLE
    g = DirichletPoly({1: -1, 4: 1})
    rep_fail = prime_value_test(g, 1, 3)
    assert rep_fail.verdict == report.INCONCLUSIVE
    _ok(10, "value 65537 at t = 8 clears the threshold, value 3 at t = 1 fails it")


# -- 11 ----------------------------------------------------------------------


def test_criterion_11_upper_polygon_robustness():
    base = {(1, 1): 1, (16, 1): 1, (16, 32): 1}
    f = MultiDirichletPoly({**base, (8, 1): 1, (8, 2): 1}, ("s", "t"))
    rep = stepanov_schmidt_test(f, "s", "t")
    assert rep.verdict == report.IRREDUCIBLE
    assert gcd(rep.certificate["d1"], rep.certificate["d2"]) == 1
    for d in range(1, 14):
        terms = dict(base)
        if d == 1:
            terms[(8, 1)] = 2
        else:
            terms[(8, 1)] = 1
            terms[(8, d)] = 3
        fd = MultiDirichletPoly(terms, ("s", "t"))
        assert stepanov_schmidt_test(fd, "s", "t").verdict == report.IRREDUCIBLE, d
    _ok(11, "single-chord certificate holds for middle degrees 1..13")


# -- helpers -----------------------------------------------------------------


def _rand_poly(rng, max_terms, max_index, coeff):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff, coeff)
        if c:
            terms[rng.randint(1, max_index)] = c
    f = DirichletPoly(terms)
    return f if not f.is_zero() else DirichletPoly({1: 1, 2: 1})


def _rand_multi(rng, nv, names):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(-5, 5)
        if c:
            terms[tuple(rng.randint(1, 30) for _ in range(nv))] = c
    f = MultiDirichletPoly(terms, names)
    if f.is_zero():
        return MultiDirichletPoly({(1,) * nv: 1, (2,) * nv: 3}, names)
    return f


def _all_fp_polys(p, n):
    out = []
    idxs = list(range(1, n))
    for lead in range(1, p):
        for rest in itertools.product(range(p), repeat=len(idxs)):
            terms = {n: lead}
            terms.update({i: v for i, v in zip(idxs, rest) if v})
            out.append(DirichletPoly(terms, GF(p)))
    return out
