import random

import pytest
from fractions import Fraction

from dpirred.core import GF, QQ, ZZ
from dpirred.multivariate import MultiDirichletPoly


def rand_st(rng, ring):
    terms = {(rng.randint(1, 6), rng.randint(1, 6)): rng.randint(-4, 4)
             for _ in range(rng.randint(0, 4))}
    return MultiDirichletPoly(terms, ("s", "t"), ring)


def test_product_and_degrees():
    f = MultiDirichletPoly({(2, 1): 1, (1, 3): 2}, ("s", "t"))
    g = MultiDirichletPoly({(2, 1): 1, (3, 1): -1}, ("s", "t"))
    fg = f * g
    assert fg.terms == {(4, 1): 1, (6, 1): -1, (2, 3): 2, (3, 3): -2}
    assert fg.total_degree() == 9
    assert fg.degree_in("s") == 6
    assert fg.degree_in("t") == 3


@pytest.mark.parametrize("ring", [ZZ, GF(3)], ids=str)
def test_ring_laws_random(ring):
    rng = random.Random(19)
    one = MultiDirichletPoly({(1, 1): 1}, ("s", "t"), ring)
    for _ in range(150):
        f, g, h = (rand_st(rng, ring) for _ in range(3))
        assert f + g == g + f and f * g == g * f
        assert (f + g) + h == f + (g + h) and (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert (f - f).is_zero() and f - g == f + (-g)
        assert f.pow(2) == f * f and f.pow(0) == one and f * one == f
        assert f.scale(3) == f + f + f


def test_algebraic_primitivity():
    f = MultiDirichletPoly({(2, 3): 1, (4, 3): 1}, ("s", "t"))
    assert f.algebraic_shift() == (2, 3)
    assert not f.is_algebraically_primitive()
    g = f.algebraically_primitive_part()
    assert g.terms == {(1, 1): 1, (2, 1): 1}


def test_coefficient_split():
    f = MultiDirichletPoly(
        {(1, 1): 1, (8, 1): 1, (8, 2): 1, (16, 32): 1}, ("s", "t"))
    degs = f.coefficient_degrees("s", "t")
    # a_8 = 1 + 1/2^t has t-degree 2
    assert list(degs) == [1, 8, 16]
    assert degs == {1: 1, 8: 2, 16: 32}
    assert f.coefficient_degrees("t", "s") == {1: 8, 2: 8, 32: 16}
    with pytest.raises(ValueError, match="both 's'"):
        f.coefficient_degrees("s", "s")
    with pytest.raises(ValueError):
        f.coefficient_degrees("s", "u")


def coefficient_degrees_reference(f, outer, inner):
    """Split off the outer variable into coefficient polynomials in the
    others, then take each one's inner degree."""
    k = f.vars.index(outer)
    rest = f.vars[:k] + f.vars[k + 1:]
    groups = {}
    for idx, c in f.terms.items():
        groups.setdefault(idx[k], {})[idx[:k] + idx[k + 1:]] = c
    return {i: MultiDirichletPoly(t, rest, f.ring).degree_in(inner)
            for i, t in sorted(groups.items())}


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(5)], ids=str)
def test_coefficient_degrees_match_grouping(ring):
    rng = random.Random(23)
    for variables in (("s", "t"), ("s", "t", "u")):
        for _ in range(300):
            terms = {tuple(rng.randint(1, 9) for _ in variables):
                     Fraction(rng.randint(-6, 6), rng.randint(1, 3)) if ring is QQ
                     else rng.randint(-6, 6)
                     for _ in range(rng.randint(1, 8))}
            f = MultiDirichletPoly(terms, variables, ring)
            for outer in variables:
                for inner in variables:
                    if outer != inner:
                        want = coefficient_degrees_reference(f, outer, inner)
                        got = f.coefficient_degrees(outer, inner)
                        assert list(got.items()) == list(want.items()), (f, outer, inner)


def test_json_round_trip():
    cases = [
        MultiDirichletPoly({(8, 2): 1, (1, 5): -3}, ("s1", "s2")),
        MultiDirichletPoly({(2,): Fraction(1, 3)}, ("s",), QQ),
        MultiDirichletPoly({(3, 4): 2}, ("u", "v"), GF(5)),
    ]
    for f in cases:
        assert MultiDirichletPoly.from_json(f.to_json()) == f
    s = '{"vars":["s1","s2"],"terms":[{"indices":[8,2],"coeff":1}]}'
    f = MultiDirichletPoly.from_json(s)
    assert f.terms == {(8, 2): 1}
    assert f.to_json() == s


def test_validation():
    with pytest.raises(ValueError):
        MultiDirichletPoly({(0, 1): 1}, ("s", "t"))
    with pytest.raises(ValueError):
        MultiDirichletPoly({(1,): 1}, ("s", "t"))
    # a repeated name would print (2, 1) and (1, 2) both as 1/(2^s)
    with pytest.raises(ValueError, match="variable names must be distinct"):
        MultiDirichletPoly({(2, 1): 1, (1, 2): -1}, ("s", "s"))
    a = MultiDirichletPoly({(2, 1): 1}, ("s", "t"))
    b = MultiDirichletPoly({(2,): 1}, ("s",))
    c = MultiDirichletPoly({(2, 1): 1}, ("u", "v"))
    for other in (b, c):
        for op in (a.__add__, a.__sub__, a.__mul__):
            with pytest.raises(ValueError, match="variable mismatch"):
                op(other)
        assert a != other
    with pytest.raises(ValueError, match="ring mismatch: Z vs F3"):
        a + MultiDirichletPoly({(2, 1): 1}, ("s", "t"), GF(3))
