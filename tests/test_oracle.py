import random
from fractions import Fraction
from math import lcm

from dpirred.core import QQ, DirichletPoly, GF, UnfactoredResidueError, divisors, max_exponents
from dpirred.oracle import (
    FACTORED,
    IRREDUCIBLE_CERTIFIED,
    NONE_WITHIN_BOUND,
    _RootExtractionError,
    _divide_zz,
    _gcd_zx,
    _index_allowed,
    _integer_roots,
    _shapes,
    _signed_divisors,
    _try_shape_parametric,
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
# (1/2)(1 + 3/2^s)(1 + 2/3^s) over Q
F_Q = DirichletPoly({1: Fraction(1, 2), 2: Fraction(3, 2), 3: 1, 6: 3}, QQ)


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
    # over Q the factors lie in Z, whether the input factors or not
    u = DirichletPoly({1: Fraction(2, 3), 4: Fraction(2, 3)}, QQ)
    assert factor_completely(F_Q) == [DirichletPoly({1: 1, 2: 3}), DirichletPoly({1: 1, 3: 2})]
    assert factor_completely(u) == [DirichletPoly({1: 1, 4: 1})]
    assert all(v.ring.kind == "Z" for v in factor_completely(F_Q) + factor_completely(u))


def test_divide_exact():
    g = DirichletPoly({1: 3, 2: 5})
    h = DirichletPoly({2: 1, 7: -2})
    assert divide_exact(g * h, g) == h
    assert divide_exact(g * h, DirichletPoly({1: 1, 5: 1})) is None
    # over Q, with non-integral contents: F_Q by (2/3)(1 + 3/2^s), and by
    # (1/2)(1 + 3/2^s)(1 - 2/5^s), which does not divide it
    u = DirichletPoly({1: Fraction(2, 3), 2: 2}, QQ)
    assert divide_exact(F_Q, u) == DirichletPoly({1: Fraction(3, 4), 3: Fraction(3, 2)}, QQ)
    v = DirichletPoly({1: Fraction(1, 2), 2: Fraction(3, 2), 5: -1, 10: -3}, QQ)
    assert divide_exact(F_Q, v) is None
    # seeded Q pairs against the Fraction division loop
    rng = random.Random(814)
    exact = 0
    for _ in range(300):
        g = _rand_q(rng)
        f = g * _rand_q(rng) if rng.random() < 0.5 else _rand_q(rng, 30)
        ref = _divide_z(dict(f.items()), dict(g.items()))
        got = divide_exact(f, g)
        assert got == (None if ref is None else DirichletPoly(ref, QQ)), (f.text(), g.text())
        exact += got is not None
    assert exact > 100


def test_fp_search_honours_node_cap():
    f = DirichletPoly({1: 1, 2: 1, 6: 1}, GF(3))
    assert brute_force_factor(f).status == IRREDUCIBLE_CERTIFIED
    res = brute_force_factor(f, node_cap=1)
    assert res.status == NONE_WITHIN_BOUND and res.nodes == 2


def test_z_narrow_search_honours_node_cap():
    # 1 + 1/4^s has the one shape (1, 2), with no interior index
    f = DirichletPoly({1: 1, 4: 1})
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


# ---------------------------------------------------------------------------
# the Fraction division over Q that the integer kernel _divide_zz replaced,
# kept as the reference both are pinned against


def _divide_z(fd: dict, gd: dict):
    """Exact h with g*h = f over Q, or None.  Inputs are index->rational dicts."""
    r = dict(fd)
    top_g = max(gd)
    lead = gd[top_g]
    h = {}
    for _ in range(len(fd) * max(1, len(gd)) + len(fd) + 64):
        if not r:
            return h
        L = max(r)
        if L % top_g:
            return None
        k = L // top_g
        if k < 1:
            return None
        c = Fraction(r[L], lead)
        h[k] = c
        for j, b in gd.items():
            idx = j * k
            v = r.get(idx, 0) - b * c
            if v:
                r[idx] = v
            else:
                r.pop(idx, None)
    return None


def _rand_q(rng, max_index=8):
    coeffs = (Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4), 1, -1, 2, Fraction(5, 6))
    terms = {i: rng.choice(coeffs) for i in rng.sample(range(1, max_index + 1), rng.randint(2, 4))}
    return DirichletPoly(terms, QQ)


# ---------------------------------------------------------------------------
# the Fraction search that the integer-only Z search replaced, kept as the
# reference it is pinned against


def _ref_poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def _ref_poly_scale(a, c):
    return [x * c for x in a]


def _ref_poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _ref_poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _ref_poly_mod(a, b):
    a = _ref_poly_trim(list(a))
    b = _ref_poly_trim(list(b))
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[i + shift] -= c * x
        a = _ref_poly_trim(a)
        if not a:
            break
    return a


def _ref_poly_gcd(polys):
    g: list = []
    for p in polys:
        p = _ref_poly_trim(list(p))
        if not p:
            continue
        if not g:
            g = p
            continue
        a, b = g, p
        while b:
            a, b = b, _ref_poly_mod(a, b)
        g = a
        if len(g) == 1:
            return g
    return g


def _ref_integer_roots(polys, stats):
    """Common integer roots, and the constant term handed to the divisor
    scan (None when no scan runs)."""
    poly = _ref_poly_gcd(polys)
    if len(poly) >= 3:
        stats["gcd_degree_2"] += 1
    if len(poly) <= 1:
        return [], None
    den = lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    roots = []
    z = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        if z == 0:
            roots.append(0)
        z += 1
    if not ints or len(ints) == 1:
        return roots, None
    if len(ints) == 2:
        num, lead = -ints[0], ints[1]
        if num % lead == 0:
            roots.append(num // lead)
        return sorted(set(roots)), None
    try:
        cand = divisors(abs(ints[0]))
    except UnfactoredResidueError:
        raise _RootExtractionError(abs(ints[0])) from None
    for d in cand:
        for x in (d, -d):
            if sum(c * x**i for i, c in enumerate(ints)) == 0:
                roots.append(x)
    return sorted(set(roots)), abs(ints[0])


def _ref_try_shape_parametric(fd, gd_base, mid, stats):
    c1, d1 = min(gd_base), max(gd_base)
    b_hi = gd_base[d1]
    m, n = min(fd), max(fd)
    c2, d2 = m // c1, n // d1
    g_sym = {j: [Fraction(v)] for j, v in gd_base.items() if v}
    g_sym[mid] = [Fraction(0), Fraction(1)]
    r = {i: [Fraction(c)] for i, c in fd.items()}
    inv = Fraction(1, b_hi)
    for k in range(d2, c2 - 1, -1):
        idx = d1 * k
        for i2, p2 in r.items():
            if i2 > idx and len(p2) == 1 and p2[0]:
                return None
        cur = r.get(idx, [Fraction(0)])
        ck = _ref_poly_scale(cur, inv)
        for j, bp in g_sym.items():
            t = _ref_poly_trim(_ref_poly_mul(bp, ck))
            if not t:
                continue
            r[j * k] = _ref_poly_trim(_ref_poly_add(r.get(j * k, []), _ref_poly_scale(t, -1)))
            if not r[j * k]:
                del r[j * k]
    equations = [p for p in r.values() if _ref_poly_trim(list(p))]
    if not equations:
        stats["no_equations"] += 1
        candidates = [0]
    else:
        constant = [p for p in equations if len(_ref_poly_trim(list(p))) == 1]
        if constant:
            return None
        candidates, _ = _ref_integer_roots(equations, stats)
    for x in candidates:
        gd = {j: v for j, v in gd_base.items() if v}
        if x:
            gd[mid] = x
        if min(gd) != c1 or max(gd) != d1:
            continue
        h = _divide_z(fd, gd)
        if h is not None and h and all(c.denominator == 1 for c in h.values()):
            stats["found"] += 1
            return gd, {k: int(c) for k, c in h.items()}
    return None


def _shape_triples(rng, fd, limit):
    """(g's end coefficients with boxed interior values, symbolic index or
    None) over the shapes of f, drawn the way the Z search visits them."""
    m, n = min(fd), max(fd)
    prof = max_exponents(fd)
    out = []
    for c1, d1 in _shapes(m, n):
        mids = [j for j in range(c1 + 1, d1) if _index_allowed(j, prof)]
        for blo in _signed_divisors(fd[m]):
            for bhi in divisors(abs(fd[n])):
                gd = {c1: blo, d1: bhi}
                gd.update({j: rng.randint(-2, 2) for j in mids[:-1]})
                out.append((gd, mids[-1] if mids else None))
    rng.shuffle(out)
    return out[:limit]


def _rand_z(rng, max_index, coeffs):
    terms = {i: rng.choice(coeffs) for i in rng.sample(range(1, max_index + 1), rng.randint(2, 4))}
    return DirichletPoly(terms)


def _mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_integer_parametric_search_matches_fraction_reference():
    rng = random.Random(811)
    stats = dict.fromkeys(("b_hi", "no_interior", "gcd_degree_2", "found", "no_equations"), 0)
    compared = 0
    for trial in range(240):
        if trial % 3 == 0:
            # two factors of one shape on the powers of 2: x takes two values
            a, b = rng.sample(range(-6, 7), 2)
            lead = rng.choice((1, 2, 3))
            f = DirichletPoly({1: 1, 2: a, 4: lead}) * DirichletPoly({1: 1, 2: b, 4: lead})
        elif trial % 3 == 1:
            f = _rand_z(rng, 8, (-3, -2, -1, 1, 2, 3, 4, 6)) * _rand_z(rng, 6, (-2, -1, 1, 2, 3))
        else:
            f = _rand_z(rng, 24, (-6, -4, -3, -2, -1, 1, 2, 3, 4, 6, 12))
        fd = dict(f.normalize()[1].items())
        for gd, mid in _shape_triples(rng, fd, 12):
            stats["b_hi"] += gd[max(gd)] != 1
            if mid is None:
                # no interior index, so no equations: plain exact division
                stats["no_interior"] += 1
                ref = _divide_z(fd, gd)
                if ref is not None and not all(c.denominator == 1 for c in ref.values()):
                    ref = None
                assert _divide_zz(fd, gd) == ref, (f.text(), gd)
                continue
            try:
                ref = _ref_try_shape_parametric(fd, gd, mid, stats)
            except _RootExtractionError:
                continue
            assert _try_shape_parametric(fd, gd, mid) == ref, (f.text(), gd, mid)
            compared += 1
    assert compared > 1000
    # the remainder is f - g*h, and g*h has positive degree in x whenever
    # h != 0, so a symbolic shape always leaves an equation
    assert stats.pop("no_equations") == 0
    assert min(stats.values()) >= 5, stats


def test_integer_roots_match_fraction_reference():
    rng = random.Random(812)
    stats = {"gcd_degree_2": 0}
    for _ in range(400):
        common = [1]
        for _ in range(rng.randint(0, 3)):
            # a factor u*x - v: an integer root, a rational one or neither
            common = _mul(common, [-rng.randint(-6, 6), rng.choice((1, 1, 2, 3))])
        polys = []
        for _ in range(rng.randint(1, 3)):
            cof = [rng.randint(-4, 4) for _ in range(rng.randint(1, 3))]
            cof[-1] = cof[-1] or 1
            scale = rng.choice((1, 1, 2, 6, -3))
            polys.append([scale * c for c in _mul(common, cof)])
        ref_roots, ref_const = _ref_integer_roots([[Fraction(c) for c in p] for p in polys], stats)
        assert _integer_roots(polys) == ref_roots, polys
        if ref_const is not None:
            # the divisor scan never gets a larger constant term than before
            g = _gcd_zx(polys)
            while not g[0]:
                g = g[1:]
            assert abs(g[0]) <= ref_const
    assert stats["gcd_degree_2"] > 100


def test_divide_zz_matches_fraction_division():
    rng = random.Random(813)
    exact = inexact = 0
    for _ in range(600):
        g = _rand_z(rng, 8, (-6, -3, -2, -1, 1, 2, 3, 5))
        if rng.random() < 0.5:
            f = g * _rand_z(rng, 8, (-4, -1, 1, 2, 7))
        else:
            f = _rand_z(rng, 40, (-9, -4, -1, 1, 2, 3, 8, 12))
        fd, gd = dict(f.items()), dict(g.items())
        ref = _divide_z(fd, gd)
        got = _divide_zz(fd, gd)
        if ref is not None and all(c.denominator == 1 for c in ref.values()):
            assert got == ref and all(type(c) is int for c in got.values())
            exact += 1
        else:
            assert got is None
            inexact += 1
    assert exact > 200 and inexact > 200
