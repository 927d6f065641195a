import random
from fractions import Fraction

import pytest

from dpirred.core import DirichletPoly, ZZ
from dpirred.multivariate import MultiDirichletPoly
from dpirred.oracle import enumerate_segment_points_brute_nd
from dpirred.polygon import segment_point_count
from dpirred.polytope import (
    LogPolytope,
    cone_indecomposable,
    gcd_bar,
    hull_vertices,
    minkowski_sum,
    polytope_irreducibility,
    segment_lattice_points,
    two_term_absolute_irreducibility,
)
from dpirred import report


def test_gcd_bar_examples():
    assert gcd_bar((4, 9), (9, 4)) == 2
    assert gcd_bar((2, 3), (3, 2)) == 1
    assert gcd_bar((2, 1), (2 ** 5, 1)) == 4
    with pytest.raises(ValueError):
        gcd_bar((2, 3), (2, 3))


def test_segment_lattice_points_examples():
    pts = segment_lattice_points((4, 9), (9, 4))
    assert pts == [(4, 9), (6, 6), (9, 4)]
    assert segment_lattice_points((2, 3), (3, 2)) == [(2, 3), (3, 2)]


def test_segment_lattice_points_match_brute():
    cases = [((4, 9), (9, 4)), ((1, 1), (8, 27)), ((2, 4), (8, 64)),
             ((3, 5), (27, 125)), ((6, 10), (24, 90)), ((1, 100), (100, 1))]
    for v, w in cases:
        formula = segment_lattice_points(v, w)[1:-1]
        assert formula == enumerate_segment_points_brute_nd(v, w), (v, w)


def test_segment_lattice_points_match_brute_random_sweep():
    rng = random.Random(83)
    done = 0
    while done < 60:
        nv = rng.randint(1, 3)
        v = tuple(rng.randint(1, 100) for _ in range(nv))
        w = tuple(rng.randint(1, 100) for _ in range(nv))
        if v == w:
            continue
        formula = segment_lattice_points(v, w)[1:-1]
        assert formula == enumerate_segment_points_brute_nd(v, w), (v, w)
        done += 1


def test_one_dim_specialization_matches_polygon():
    # horizontal polygon edges and 1-D segments agree on x-coordinates
    for x1, x2 in [(4, 9), (2, 32), (6, 48), (10, 1000)]:
        pts_1d = segment_lattice_points((x1,), (x2,))
        delta, pts_poly = segment_point_count(x1, 0, x2, gcd_bar((x1,), (x2,)))
        assert [p[0] for p in pts_1d] == [p[0] for p in pts_poly]


def test_two_term_examples():
    # distinct prime multiplicities: q_i pairwise distinct primes
    f = MultiDirichletPoly({(2**2, 3**3): 1, (5**5, 7**7): 3}, ("s1", "s2"))
    rep = two_term_absolute_irreducibility(f)
    assert rep.verdict == report.ABSOLUTELY_IRREDUCIBLE

    g = MultiDirichletPoly({(4, 9): 1, (25, 49): -1}, ("s1", "s2"))
    rep = two_term_absolute_irreducibility(g)
    assert rep.verdict == report.REDUCIBLE
    assert "witness" in rep.certificate
    u_txt, v_txt = rep.certificate["witness"]

    h = MultiDirichletPoly({(2,): 1, (3,): 1}, ("s",))
    assert two_term_absolute_irreducibility(h).verdict == report.ABSOLUTELY_IRREDUCIBLE


def test_two_term_reducible_witness_verifies():
    f = MultiDirichletPoly({(4, 9): 1, (25, 49): -1}, ("s1", "s2"))
    rep = two_term_absolute_irreducibility(f)
    u = MultiDirichletPoly({(2, 3): 1, (5, 7): 1}, ("s1", "s2"))
    v = MultiDirichletPoly({(2, 3): 1, (5, 7): -1}, ("s1", "s2"))
    assert u * v == f


def test_two_term_huge_perfect_power():
    # P^3 is far beyond the reach of a float cube root
    P = 1
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59):
        P *= p
    f = MultiDirichletPoly({(P**3, 1): 1, (1, 8): -1}, ("s", "t"))
    rep = two_term_absolute_irreducibility(f)
    assert rep.verdict == report.REDUCIBLE
    assert rep.certificate["gcd"] == 3
    assert rep.certificate["root_indices"] == ((1, 2), (P, 1))


def test_two_term_over_q_only_forward():
    f = MultiDirichletPoly({(4,): 1, (9,): 1}, ("s",))
    rep = two_term_absolute_irreducibility(f, algebraically_closed=False)
    assert rep.verdict == report.INCONCLUSIVE


def test_cone_example_three_squares():
    # apex over a two-point base, distinct prime powers
    r = [2**3, 3**2, 5**2, 7**2, 11**2, 13**2]
    v1, v2, v3 = (r[0], r[1]), (r[2], r[3]), (r[4], r[5])
    rep = cone_indecomposable(v3, [v1, v2])
    assert rep.verdict == report.ABSOLUTELY_IRREDUCIBLE
    assert rep.certificate["hyperplane"] == "planar-determinant"


def test_cone_rational_normal_route():
    # three coordinates: the hyperplane is searched through the per-prime
    # exponent equations, whose rational nullspace gives the normal
    rep = cone_indecomposable((1, 1, 1), [(2, 1, 1), (1, 2, 1)])
    assert rep.verdict == report.ABSOLUTELY_IRREDUCIBLE
    assert rep.certificate["hyperplane"] == "rational-normal"
    # the exponent equations leave no normal that separates the apex
    for apex, base in [((2, 3, 5), [(3, 5, 2), (5, 2, 3)]),
                       ((12, 1), [(2, 1), (3, 1), (6, 1)])]:
        rep = cone_indecomposable(apex, base)
        assert rep.verdict == report.UNDECIDABLE
        assert "no-rational-normal" in rep.detail


def test_cone_segment_case_matches_segment_rule():
    rep = cone_indecomposable((2, 3), [(3, 2)])
    assert rep.verdict == report.ABSOLUTELY_IRREDUCIBLE
    rep2 = cone_indecomposable((4, 9), [(9, 4)])
    assert rep2.verdict == report.INCONCLUSIVE  # gcd-bar 2


def test_cone_gcd_two_not_certified():
    # squares only: every valuation difference is even
    rep = cone_indecomposable((4, 4), [(9, 25), (25, 9)])
    assert rep.verdict == report.INCONCLUSIVE
    assert rep.certificate["gcd_bar"] == 2


def test_polytope_irreducibility_example12():
    f = MultiDirichletPoly(
        {(8, 9): 1, (25, 49): 2, (121, 169): -3}, ("s", "t"))
    rep = polytope_irreducibility(f)
    assert rep.verdict == report.ABSOLUTELY_IRREDUCIBLE


def test_cone_requires_true_base_vertices():
    # (6, 9) is real-interior to the log-segment (4, 9)-(16, 9) but is not a
    # rational combination in the exponent lift; feeding it to the cone gcd
    # would fake a certificate, so the pipeline must refuse the 4-point case
    apex = (1, 1)
    true_vertices = [(4, 9), (16, 9)]
    rep = cone_indecomposable(apex, true_vertices)
    assert rep.verdict == report.INCONCLUSIVE
    assert rep.certificate["gcd_bar"] == 2
    f = MultiDirichletPoly(
        {(1, 1): 1, (4, 9): 1, (6, 9): 1, (16, 9): 1}, ("s", "t"))
    rep = polytope_irreducibility(f)
    assert rep.verdict == report.INCONCLUSIVE


def test_minkowski_translation_and_vertices():
    P = LogPolytope.from_points([(2, 3), (4, 9), (8, 3)])
    Q = LogPolytope.from_points([(5, 7)])
    S = minkowski_sum(P, Q)
    assert S.support == tuple(sorted((a * 5, b * 7) for a, b in P.vertices))


def test_minkowski_invariant_random_products():
    rng = random.Random(71)
    for _ in range(60):
        nv = rng.randint(1, 3)
        g = _rand_multi(rng, nv)
        h = _rand_multi(rng, nv)
        f = g * h
        if f.is_zero():
            continue
        Pf = LogPolytope.of(f)
        S = minkowski_sum(LogPolytope.of(g), LogPolytope.of(h))
        assert Pf.vertices == S.vertices, (g.text(), h.text())


def test_hull_vertices_one_dim_exact():
    assert hull_vertices([(2,), (3,), (4,)]) == [(2,), (4,)]
    assert hull_vertices([(8,), (2,), (5,)]) == [(2,), (8,)]


def test_hull_vertices_collinear_lift():
    # geometric progression: (2,2) -> (4,4) -> (8,8) is lift-collinear
    verts = hull_vertices([(2, 2), (4, 4), (8, 8)])
    assert verts == [(2, 2), (8, 8)]


def _rand_multi(rng, nv):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        c = rng.randint(-5, 5)
        if c:
            idx = tuple(rng.randint(1, 30) for _ in range(nv))
            terms[idx] = c
    names = tuple(f"s{i}" for i in range(nv))
    f = MultiDirichletPoly(terms, names)
    if f.is_zero():
        return MultiDirichletPoly({(1,) * nv: 1, (2,) * nv: 1}, names)
    return f
