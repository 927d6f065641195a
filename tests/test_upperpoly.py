import random
from fractions import Fraction

import pytest

from dpirred import certlog
from dpirred.certlog import (
    LogProduct,
    NEGATIVE,
    POSITIVE,
    UNDECIDABLE,
    ZERO,
    multiplicative_dependence_ratio,
)
from dpirred.multivariate import MultiDirichletPoly
from dpirred.upperpoly import (
    build_upper_polygon,
    merge_upper_vector_systems,
    stepanov_schmidt_test,
    upper_vector_system,
)
from dpirred import report

EX13 = MultiDirichletPoly(
    {(1, 1): 1, (8, 1): 1, (8, 2): 1, (16, 1): 1, (16, 32): 1}, ("s", "t"))


def test_log_product_power_identities():
    # 8 = 2^3 and 9/4 = (3/2)^2 expand to multiples; 12 = 2^2 * 3 is no power
    assert LogProduct.log_of(8) == LogProduct.log_of(2) * 3
    assert LogProduct.log_of(12).terms == {(2,): 2, (3,): 1}
    assert LogProduct.log_of(Fraction(9, 4)) == LogProduct.log_of(Fraction(3, 2)) * 2
    assert LogProduct().add_product(8, 3).add_product(2, 3, -3).compare() == ZERO
    assert LogProduct().add_product(Fraction(9, 4), 5).add_product(
        Fraction(3, 2), 5, -2).compare() == ZERO


def test_multiplicative_dependence():
    assert multiplicative_dependence_ratio(Fraction(4), Fraction(8)) == Fraction(3, 2)
    assert multiplicative_dependence_ratio(Fraction(2), Fraction(3)) is None
    assert multiplicative_dependence_ratio(Fraction(9, 4), Fraction(3, 2)) == Fraction(1, 2)


def test_compare_log_product_cases():
    assert LogProduct().add_product(4, 9).add_product(9, 4, -1).compare() == ZERO
    assert LogProduct().add_product(2, 3).add_product(3, 3, -1).compare() == NEGATIVE
    assert LogProduct().add_product(3, 3).add_product(2, 3, -1).compare() == POSITIVE
    # collinearity with an exact witness: ln4*ln81 = ln16*ln9 -> zero
    assert LogProduct().add_product(4, 81).add_product(16, 9, -1).compare() == ZERO


def test_compare_log_product_soundness_random():
    import math

    rng = random.Random(73)
    for _ in range(10_000):
        a, b, c, d = (rng.randint(2, 50) for _ in range(4))
        coeff = rng.choice([1, 2, -3])
        got = LogProduct().add_product(a, b).add_product(c, d, coeff).compare()
        true = math.log(a) * math.log(b) + coeff * math.log(c) * math.log(d)
        if got == POSITIVE:
            assert true > -1e-9
        elif got == NEGATIVE:
            assert true < 1e-9
        elif got == ZERO:
            assert abs(true) < 1e-9
        else:
            pytest.fail("undecidable on generic input")


def test_expanded_prime_basis_identities_are_zero_without_intervals(monkeypatch):
    """ln(xy) ln(zw) = ln x ln z + ln x ln w + ln y ln z + ln y ln w and
    ln(x^k) ln y = k ln x ln y, on random rationals: every such identity
    compares zero by cancellation alone, with no enclosure evaluated."""
    calls = []
    scaled_interval = LogProduct.scaled_interval
    monkeypatch.setattr(LogProduct, "scaled_interval",
                        lambda self, prec: calls.append(prec) or scaled_interval(self, prec))
    rng = random.Random(97)

    def rat():
        return Fraction(rng.randint(1, 60), rng.randint(1, 60))

    for _ in range(500):
        x, y, z, w = rat(), rat(), rat(), rat()
        k, c = rng.randint(1, 4), rng.choice([1, -2, Fraction(3, 5)])
        lp = LogProduct().add_product(x * y, z * w, c)
        for a in (x, y):
            for b in (z, w):
                lp.add_product(a, b, -c)
        lp.add_product(x**k, y, c).add_product(x, y, -k * c)
        assert lp.compare() == ZERO
    assert calls == []
    # the same form with one term dropped is a real sign question
    lp = LogProduct().add_product(6, 6).add_product(2, 2, -1).add_product(2, 3, -2)
    assert lp.compare() == POSITIVE and calls


def test_exact_log_chord_tie_is_zero_and_inconclusive():
    import time

    start = time.perf_counter()
    tie = LogProduct().add_product(6, 6).add_product(2, 2, -1).add_product(
        2, 3, -2).add_product(3, 3, -1).compare()
    assert tie == ZERO and time.perf_counter() - start < 0.01
    from dpirred.analyze import analyze_multivariate

    f = MultiDirichletPoly({k: 1 for k in ((1, 1), (1, 2), (2, 1), (2, 6), (4, 1), (4, 18))},
                           ("s", "t"))
    assert analyze_multivariate(f).verdict == report.INCONCLUSIVE


def test_chord_with_common_inner_degree_is_inconclusive():
    # (1/3^t + 1/5^t)(1/2^s + 1/(3^s 2^t)): the first factor lies in t alone
    f = MultiDirichletPoly({(2, 3): 1, (2, 5): 1, (3, 6): 1, (3, 10): 1}, ("s", "t"))
    g = MultiDirichletPoly({(1, 3): 1, (1, 5): 1}, ("s", "t"))
    h = MultiDirichletPoly({(2, 1): 1, (3, 2): 1}, ("s", "t"))
    assert g * h == f
    for outer, inner in (("s", "t"), ("t", "s")):
        assert stepanov_schmidt_test(f, outer, inner).verdict != report.IRREDUCIBLE
    from dpirred.analyze import analyze_multivariate

    assert analyze_multivariate(f).verdict == report.INCONCLUSIVE


def test_near_tie_low_cap_is_undecidable_never_wrong(monkeypatch):
    # ln2*ln3 vs a nearby product with distinct canonical monomials
    lp = LogProduct()
    lp.add_product(2, 3, 10**6)
    lp.add_product(2, 2, -1571799)  # 10^6*ln3/ln2 ~ 1584962.5; keep it close
    with monkeypatch.context() as m:
        m.setattr(certlog, "PRECISION_CAP_BITS", 8)
        out = lp.compare()
    assert out in (POSITIVE, NEGATIVE, UNDECIDABLE)
    exact = lp.compare()
    assert exact in (POSITIVE, NEGATIVE)
    if out != UNDECIDABLE:
        assert out == exact


def test_forced_undecidable_at_tiny_cap(monkeypatch):
    lp = LogProduct()
    lp.add_product(2, 3, 10**40)
    lp.add_product(2, 2, -14426950408889634073)  # ln3/ln2 * 10^19, scaled
    monkeypatch.setattr(certlog, "PRECISION_CAP_BITS", 4)
    assert lp.compare() in (UNDECIDABLE, POSITIVE, NEGATIVE)


def test_example13_upper_polygon():
    poly = build_upper_polygon(EX13, "s", "t")
    assert poly.vertices == ((1, 1), (16, 32))
    assert poly.single_edge()
    assert poly.edges[0].delta == 1


def test_example13_stepanov():
    rep = stepanov_schmidt_test(EX13, "s", "t")
    assert rep.verdict == report.IRREDUCIBLE
    assert rep.certificate["d1"] == 4 and rep.certificate["d2"] == 5


def test_example13_degree_sweep():
    # replacing the middle coefficient by anything of degree up to 13 keeps
    # the certificate; degree 14 would touch 32^(3/4) < 14 territory
    for d in range(1, 14):
        terms = {(1, 1): 1, (16, 1): 1, (16, 32): 1}
        if d == 1:
            terms[(8, 1)] = 2
        else:
            terms[(8, 1)] = 1
            terms[(8, d)] = 3
        f = MultiDirichletPoly(terms, ("s", "t"))
        rep = stepanov_schmidt_test(f, "s", "t")
        assert rep.verdict == report.IRREDUCIBLE, d


def _first_point_not_below_chord(degs):
    """The first interior (i, deg a_i) that the form ln(d_i) ln(n/m) -
    ln(d_m) ln(n/i) - ln(d_n) ln(i/m) does not certify strictly below the
    chord, with that form's sign; None when it certifies every one."""
    m, n = min(degs), max(degs)
    dm, dn = degs[m], degs[n]
    for i, di in sorted(degs.items()):
        if m < i < n:
            lp = LogProduct()
            lp.add_product(Fraction(di), Fraction(n, m))
            lp.add_product(Fraction(dm), Fraction(n, i), -1)
            lp.add_product(Fraction(dn), Fraction(i, m), -1)
            sign = lp.compare()
            if sign != NEGATIVE:
                return i, sign
    return None


@pytest.mark.parametrize("bits", [None, 4])
def test_stepanov_schmidt_chord_decision_matches_three_term_form(monkeypatch, bits):
    if bits is not None:
        monkeypatch.setattr(certlog, "PRECISION_START_BITS", bits)
        monkeypatch.setattr(certlog, "PRECISION_CAP_BITS", bits)
    rng = random.Random(47)
    seen = {ZERO: 0, UNDECIDABLE: 0, POSITIVE: 0, None: 0}
    for _ in range(600):
        m = rng.randint(1, 6)
        if rng.random() < 0.5:
            # a chord with k - 1 interior log-integral points (m g^j, d h^j)
            g, h, k, d = rng.choice((2, 3, 6)), rng.choice((2, 3, 5)), rng.choice((2, 3)), \
                rng.randint(1, 3)
            hs = [d * h**j for j in range(k + 1)]
            if rng.random() < 0.5:
                hs.reverse()
            degs = {m * g**j: hs[j] for j in range(k + 1) if j in (0, k) or rng.random() < 0.6}
            n = m * g**k
        else:
            n = rng.randint(m + 2, 60)
            degs = dict(zip((m, n), rng.sample(range(1, 30), 2)))
        for _ in range(rng.randint(0, 2)):
            degs[rng.randint(m + 1, n - 1)] = rng.randint(1, max(degs[m], degs[n]) + 5)
        terms = {(i, 1): 1 for i in degs}
        terms.update({(i, di): 2 for i, di in degs.items() if di > 1})
        f = MultiDirichletPoly(terms, ("s", "t"))
        if degs[m] == degs[n] or not f.is_algebraically_primitive():
            continue
        rep = stepanov_schmidt_test(f, "s", "t")
        ref = _first_point_not_below_chord(degs)
        if ref is None:
            assert "chord comparison" not in rep.detail and "not strictly below" not in rep.detail
            seen[None] += len(degs) > 2
        elif ref[1] == UNDECIDABLE:
            assert rep.verdict == report.UNDECIDABLE
            assert rep.detail == f"chord comparison at index {ref[0]} hit the precision cap"
        else:
            assert rep.verdict == report.INCONCLUSIVE
            assert rep.detail == \
                f"coefficient degree at index {ref[0]} not strictly below the chord"
        if ref is not None:
            seen[ref[1]] += 1
    assert seen[ZERO] > 50 and seen[POSITIVE] > 50 and seen[None] > 30
    assert (seen[UNDECIDABLE] > 50) == (bits is not None)


def test_equal_end_degrees_inconclusive():
    f = MultiDirichletPoly({(1, 2): 1, (16, 2): 1}, ("s", "t"))
    rep = stepanov_schmidt_test(f, "s", "t")
    assert rep.verdict == report.INCONCLUSIVE


def test_two_term_single_edge():
    f = MultiDirichletPoly({(2, 3): 1, (9, 4): 5}, ("s", "t"))
    poly = build_upper_polygon(f, "s", "t")
    assert poly.single_edge()


def test_merge_invariant_random_bivariate_products():
    rng = random.Random(79)
    done = 0
    while done < 50:
        g = _rand_bivariate(rng)
        h = _rand_bivariate(rng)
        f = g * h
        if f.is_zero() or not f.is_algebraically_primitive():
            continue
        try:
            vf = upper_vector_system(build_upper_polygon(f, "s", "t"))
            merged = merge_upper_vector_systems(
                upper_vector_system(build_upper_polygon(g, "s", "t")),
                upper_vector_system(build_upper_polygon(h, "s", "t")),
            )
        except ValueError:
            continue
        assert vf == merged, (g.text(), h.text())
        done += 1


def _rand_bivariate(rng):
    terms = {}
    for _ in range(rng.randint(2, 4)):
        c = rng.randint(-4, 4)
        if c:
            terms[(rng.randint(1, 12), rng.randint(1, 12))] = c
    f = MultiDirichletPoly(terms, ("s", "t"))
    if f.is_zero() or len(f.support()) < 2:
        return MultiDirichletPoly({(1, 1): 1, (2, 3): 1}, ("s", "t"))
    return f.algebraically_primitive_part()
