import random
import time
from functools import reduce
from math import gcd, isqrt

import pytest
from fractions import Fraction

from dpirred import core
from dpirred.core import (
    DirichletPoly,
    GF,
    QQ,
    UnfactoredResidueError,
    ZZ,
    divisors,
    exponents,
    factor_integer,
    iroot,
    log_gcd,
    max_exponents,
    smallest_prime_factor,
    valuation,
)
from dpirred.multivariate import MultiDirichletPoly

FIG1 = DirichletPoly({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2})
G_FACTOR = DirichletPoly({2: 2, 3: 1, 4: 1, 5: 2})
H_FACTOR = DirichletPoly({2: 2, 3: 1})


def rand_poly(rng, max_terms=6, max_index=30, coeff=9, ring=ZZ):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        c = rng.randint(-coeff, coeff)
        if c:
            terms[rng.randint(1, max_index)] = c
    return DirichletPoly(terms, ring)


def test_product_disjoint_primes():
    f = DirichletPoly({1: 1, 2: 1})
    g = DirichletPoly({1: 1, 3: 1})
    assert (f * g).terms == {1: 1, 2: 1, 3: 1, 6: 1}


def test_product_reproduces_worked_factorization():
    assert G_FACTOR * H_FACTOR == FIG1


def test_product_identity_and_degrees():
    f = DirichletPoly({3: 5, 7: -2})
    assert f * DirichletPoly({1: 1}) == f
    g = DirichletPoly({2: 1, 5: 3})
    assert (f * g).degree == f.degree * g.degree
    assert (f * g).deg_min == f.deg_min * g.deg_min


def test_ring_mismatch_rejected():
    with pytest.raises(ValueError):
        DirichletPoly({1: 1}) * DirichletPoly({1: 1}, GF(3))


def test_algebra_properties_random():
    rng = random.Random(7)
    for _ in range(200):
        f, g, h = (rand_poly(rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        if not f.is_zero() and not g.is_zero():
            assert (f * g).degree == f.degree * g.degree
            assert (f * g).deg_min == f.deg_min * g.deg_min


def test_normalize_examples():
    c, prim, d, alg = DirichletPoly({2: 2, 4: 4}).normalize()
    assert (c, d) == (2, 2)
    assert prim == DirichletPoly({2: 1, 4: 2})
    assert alg == DirichletPoly({1: 1, 2: 2})

    c, prim, d, alg = FIG1.normalize()
    assert (c, d) == (1, 1) and prim == FIG1 and alg == FIG1

    c, prim, d, alg = DirichletPoly({1: 3}).normalize()
    assert (c, d) == (3, 1) and prim == DirichletPoly({1: 1})


def test_primitive_product_is_primitive():
    rng = random.Random(11)
    for _ in range(100):
        f, g = rand_poly(rng), rand_poly(rng)
        if f.is_zero() or g.is_zero():
            continue
        fa = f.normalize()[3]
        ga = g.normalize()[3]
        assert (fa * ga).is_algebraically_primitive()


def test_algebraically_primitive_part_matches_index_division():
    rng = random.Random(29)
    seen_shift = 0
    for ring in (ZZ, QQ, GF(5)):
        for _ in range(200):
            base = rand_poly(rng, ring=ring)
            if base.is_zero():
                continue
            k = rng.randint(1, 4)
            f = DirichletPoly({i * k: c for i, c in base.items()}, ring)
            d = reduce(gcd, f.support())
            ref = DirichletPoly({i // d: c for i, c in f.items()}, ring)
            assert f.algebraic_shift() == d
            assert f.is_algebraically_primitive() == (d == 1)
            assert f.algebraically_primitive_part() == ref
            prim = f.normalize()[1]
            assert f.normalize()[3] == DirichletPoly({i // d: c for i, c in prim.items()}, ring)
            seen_shift += d > 1

            k2 = rng.randint(1, 3)
            g = MultiDirichletPoly({(i * k, rng.randint(1, 4) * k2): c for i, c in base.items()},
                                   ("s", "t"), ring)
            ds = tuple(reduce(gcd, col) for col in zip(*g.support()))
            assert g.algebraic_shift() == ds
            assert g.is_algebraically_primitive() == (ds == (1, 1))
            assert g.algebraically_primitive_part() == MultiDirichletPoly(
                {tuple(x // e for x, e in zip(idx, ds)): c for idx, c in g.items()},
                ("s", "t"), ring)
    assert seen_shift > 100
    for zero in (DirichletPoly({}), MultiDirichletPoly({}, ("s", "t"))):
        assert not zero.is_algebraically_primitive()
        for method in (zero.algebraic_shift, zero.algebraically_primitive_part):
            with pytest.raises(ValueError, match="zero polynomial"):
                method()


# phi, which sends 1/p^s to a variable X_p, as a reference for the Dirichlet
# product: the monomial of index i is its prime-exponent vector, a product of
# monomials adds exponents, and the inverse multiplies p**e
def phi_map(f):
    return {tuple(exponents(i).items()): c for i, c in f.items()}


def phi_product(F, G):
    out = {}
    for m1, a in F.items():
        for m2, b in G.items():
            e = dict(m1)
            for p, k in m2:
                e[p] = e.get(p, 0) + k
            m = tuple(sorted(e.items()))
            out[m] = out.get(m, 0) + a * b
    return {m: c for m, c in out.items() if c != 0}


def phi_inverse(F):
    terms = {}
    for m, c in F.items():
        n = 1
        for p, e in m:
            n *= p**e
        terms[n] = c
    return DirichletPoly(terms)


def test_phi_map_examples():
    assert phi_map(DirichletPoly({1: 1, 12: 1})) == {(): 1, ((2, 2), (3, 1)): 1}
    assert phi_map(DirichletPoly({1: 5})) == {(): 5}
    assert phi_inverse(phi_map(FIG1)) == FIG1


def test_phi_is_ring_homomorphism():
    rng = random.Random(13)
    for _ in range(60):
        f, g = rand_poly(rng), rand_poly(rng)
        assert phi_map(f * g) == phi_product(phi_map(f), phi_map(g))


def test_factor_integer():
    assert factor_integer(12) == [(2, 2), (3, 1)]
    assert factor_integer(1) == []
    assert factor_integer(65537) == [(65537, 1)]
    with pytest.raises(UnfactoredResidueError):
        factor_integer((10**9 + 7) * (10**9 + 9), cap=10**5)
    assert valuation(48, 2) == 4
    for p in (1, 0, -2):
        with pytest.raises(ValueError):
            valuation(48, p)
    assert divisors(12) == [1, 2, 3, 4, 6, 12]


def test_evaluate_at_negative():
    f = DirichletPoly({1: 1, 4: 1})
    assert f.evaluate_at_negative(4) == 257
    assert f.evaluate_at_negative(8) == 65537
    g = DirichletPoly({2: 3, 5: -1})
    assert g.evaluate_at_negative(0) == 2
    rng = random.Random(17)
    for _ in range(50):
        a, b = rand_poly(rng), rand_poly(rng)
        t = rng.randint(0, 4)
        assert (a * b).evaluate_at_negative(t) == \
            a.evaluate_at_negative(t) * b.evaluate_at_negative(t)


def test_reduce_mod():
    assert DirichletPoly({1: 3, 2: 5}).reduce_mod(3) == DirichletPoly({2: 2}, GF(3))
    assert DirichletPoly({1: 3, 2: 6}).reduce_mod(3).is_zero()
    assert FIG1.reduce_mod(2) == DirichletPoly({9: 1, 12: 1}, GF(2))


def test_height():
    assert FIG1.height() == 4
    assert DirichletPoly({1: 1, 4: 1}).height() == 1
    assert DirichletPoly({3: -7}).height() == 7


def test_text_round_trip():
    s = FIG1.text()
    assert s == "4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s"
    assert DirichletPoly.parse(s) == FIG1
    f = DirichletPoly({1: -3, 2: 5, 7: -1})
    assert DirichletPoly.parse(f.text()) == f
    g = DirichletPoly({1: Fraction(3, 2), 4: Fraction(-1, 6)}, QQ)
    assert DirichletPoly.parse(g.text()) == g
    assert DirichletPoly.parse("1 + 1/2^s + 1/3^s") == DirichletPoly({1: 1, 2: 1, 3: 1})


_LONG_RUN = "1" * 4301  # one digit past int()'s default conversion limit
_PARSE_TOKENS = [*"0123456789", "0", "07", "+", "-", "+-", "/", "^", "s", "^s", "/4^s",
                 "1/2", "(", ")", "\u2212", "\u2044", " ", "\t", "\n", "\xa0", "\u2003"]


def _token(rng):
    # the long run is rare: the general parser walks it one character at a time
    return _LONG_RUN if rng.random() < 0.004 else rng.choice(_PARSE_TOKENS)


def _parse_outcome(parse, text):
    try:
        f = parse(text)
    except Exception as e:  # the type and message are what is compared
        return type(e), str(e)
    return f.ring, f.terms, [type(c) for c in f.terms.values()]


def _z_text(rng):
    """Integer text in the fast path's grammar, with its corner cases."""
    out = rng.choice(["", "-", "- "])
    for k in range(rng.randint(1, 5)):
        if k:
            out += rng.choice(["+", "-", " + ", " - ", "  -", "+ "])
        out += str(rng.choice([0, 1, 1, 2, 7, 12, 10**30]))
        if rng.random() < 0.8:
            out += f"/{rng.choice([0, 1, 2, 2, 3, 4, 6, 10, 97])}^s"
    return out


def test_parse_matches_general_parser():
    """DirichletPoly.parse (integer fast path first) and the general parser
    give the same ring and terms, or the same exception and message, on
    seeded strings over a token alphabet and on mutated integer text."""
    cases = [
        "1/2^s + 1/2^s", "1/2^s - 1/2^s", "1/1^s", "3 + 1/1^s", "-1 + 1/4^s",
        "0/2^s", "0", "-0", "07/2^s", "1/07^s", "1/0^s", "1 + 1/0^s", "2^s", "3/2", "1 + -2",
        "1 +-2/3^s", _LONG_RUN, f"{_LONG_RUN}/2^s", f"1/{_LONG_RUN}^s", f"1 + {_LONG_RUN}",
        "", " ", "-", "+1", "1 2", "1//2^s", "\u22121 \u2212 1\u20442^s", " 4/4^s + 4/6^s - 2/8^s\n",
    ]
    rng = random.Random(19)
    for _ in range(20_000):
        cases.append("".join(_token(rng) for _ in range(rng.randint(1, 8))))
    for _ in range(12_000):
        text = list(_z_text(rng))
        for _ in range(rng.choice([0, 0, 1, 2])):
            text.insert(rng.randint(0, len(text)), _token(rng))
        cases.append("".join(text))
    start = time.thread_time()
    fast = 0
    for text in cases:
        fast += bool(core._Z_TEXT.fullmatch(text.strip()))
        expected = _parse_outcome(DirichletPoly._parse_general, text)
        assert _parse_outcome(DirichletPoly.parse, text) == expected, text
    assert fast > len(cases) // 4  # the fast path is exercised, not only the fallback
    assert time.thread_time() - start < 5


def test_json_round_trip():
    for f in (FIG1, DirichletPoly({2: 1, 3: 2}, GF(5)),
              DirichletPoly({1: Fraction(1, 3)}, QQ)):
        assert DirichletPoly.from_json(f.to_json()) == f
    assert DirichletPoly.from_json('{"ring":"Z","terms":[[4,4],[6,4]]}') == \
        DirichletPoly({4: 4, 6: 4})


def _trial_factor(n):
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    return out + [(n, 1)] if n > 1 else out


def _trial_divisors(n):
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted(set(small + [n // d for d in small]))


# n above 10^6, which no cache holds: a prime, a prime power, a product of a
# small prime and a large one, and eight primes
UNCACHED = [1000003, 2**21, 3 * 999983, 7 * 1000003, 2 * 3 * 5 * 7 * 11 * 13 * 17 * 19]


@pytest.mark.parametrize("first", [factor_integer, exponents], ids=["factor_integer", "exponents"])
def test_factorization_layers_share_one_cache(monkeypatch, first):
    # whichever of the two fills the cache, all four read the same answers
    monkeypatch.setattr(core, "_EXPONENT_CACHE", {})
    ns = list(range(1, 5001)) + UNCACHED
    for n in ns:
        first(n)
    for n in ns:
        held = core._EXPONENT_CACHE.get(n)
        assert (held is None) == (n in UNCACHED)
        ref = _trial_factor(n)
        assert factor_integer(n) == ref, n
        assert list(exponents(n).items()) == ref, n
        assert divisors(n) == _trial_divisors(n), n
        if n > 1:
            assert smallest_prime_factor(n) == ref[0][0], n
        # read from the cache, never stored again, and nothing stored above 10^6
        assert core._EXPONENT_CACHE.get(n) is held
        assert held is None or exponents(n) is held


def test_exponents_and_log_gcd():
    assert exponents(1) == {}
    assert exponents(360) == {2: 3, 3: 2, 5: 1}
    assert list(exponents(2 * 3 * 5 * 7 * 11)) == [2, 3, 5, 7, 11]
    assert log_gcd(4, 9) == 2 and log_gcd(8, 2) == 2 and log_gcd(12, 18) == 1
    assert log_gcd(5, 5) == 0
    assert max_exponents([4, 6, 8, 9, 10, 12, 15]) == {2: 3, 3: 2, 5: 1}
    rng = random.Random(5)
    for _ in range(200):
        a, b = rng.randint(1, 10**4), rng.randint(1, 10**4)
        primes = {p for p, _ in factor_integer(a * b)}
        diffs = [valuation(b, p) - valuation(a, p) for p in primes]
        assert log_gcd(a, b) == reduce(gcd, diffs, 0)


def test_iroot():
    assert iroot(0, 3) == 0 and iroot(1, 5) == 1 and iroot(17, 1) == 17
    assert iroot(27, 3) == 3 and iroot(26, 3) is None and iroot(28, 3) is None
    rng = random.Random(11)
    for _ in range(300):
        r, k = rng.randint(2, 10**25), rng.randint(2, 9)
        assert iroot(r**k, k) == r
        assert iroot(r**k + 1, k) is None and iroot(r**k - 1, k) is None
    with pytest.raises(ValueError):
        iroot(-8, 3)


@pytest.mark.parametrize("text", [
    '{"ring":"Q","terms":[[1,[1,0]],[2,1]]}',
    '{"ring":"Fp","terms":[[1,1]]}',
    '{"ring":"Fp","p":"3","terms":[[1,1]]}',
    '{"ring":"R","terms":[[1,1]]}',
    '{"ring":"Z","terms":[[1,1.5]]}',
    '{"ring":"Z","terms":[[1]]}',
    '{"ring":"Z"}',
    '[1, 2]',
])
def test_from_json_malformed_raises_value_error(text):
    with pytest.raises(ValueError):
        DirichletPoly.from_json(text)


def test_fp_rational_coefficients_reduce_exactly():
    f = DirichletPoly.from_json('{"ring":"Fp","p":5,"terms":[[1,[1,2]],[4,1]]}')
    assert f.terms == {1: 3, 4: 1}  # 1/2 = 3 mod 5
    with pytest.raises(ValueError):
        DirichletPoly.from_json('{"ring":"Fp","p":5,"terms":[[1,[1,10]],[4,1]]}')
