"""The integer kernels of the certified log comparator against the Fraction
forms they replaced.

`reference_interval` is `LogProduct.interval` as it was before signs were
decided on integer-scaled enclosures: IV arithmetic on Fraction endpoints.
`LogProduct.scaled_interval` must give that interval times D * 2^(K*prec),
so every sign at every precision, and the verdict of `compare` at every cap,
is the same.

`fraction_det` is the 2x2 log determinant as `add_product` built it before
`log_det_sign`: Fraction ratios, Fraction coefficients.  `log_orientation`
and `upperpoly._slope_sign` must give its sign, undecidable included.
"""

import functools
import random
from fractions import Fraction
from math import lcm

import pytest

from dpirred import certlog
from dpirred.certlog import (
    IV,
    LogProduct,
    NEGATIVE,
    POSITIVE,
    PRECISION_START_BITS,
    UNDECIDABLE,
    ZERO,
    ln_int_bounds,
    log_orientation,
)
from dpirred.core import exponents
from dpirred.upperpoly import _slope_sign

PRECS = (64, 128, 256, 1024, 4096)
CAPS = (4, 8, 64, 100, 4096)
PRIMES = (2, 3, 5, 7, 11, 13)


def reference_interval(lp, prec):
    total = IV(0)
    for mono, c in lp.terms.items():
        term = IV(c)
        for p in mono:
            term = term * ln_int_bounds(p, prec)
        total = total + term
    return total


def reference_compare(lp, cap):
    if not lp.terms:
        return ZERO
    prec = PRECISION_START_BITS
    while True:
        s = reference_interval(lp, prec).sign()
        if s == POSITIVE or s == NEGATIVE:
            return s
        if prec >= cap:
            return UNDECIDABLE
        prec = min(2 * prec, cap)


def kernel_sign(lo, hi):
    if lo > 0:
        return POSITIVE
    if hi < 0:
        return NEGATIVE
    if lo == hi == 0:
        return ZERO
    return None


def ln3_over_ln2_convergents(prec=1280):
    """Convergents p/q of ln3/ln2 on which both ends of its certified
    enclosure at prec agree."""
    l2, l3 = ln_int_bounds(2, prec), ln_int_bounds(3, prec)
    lo, hi = l3.lo / l2.hi, l3.hi / l2.lo
    out = []
    p0, q0, p1, q1 = 0, 1, 1, 0
    while lo.__floor__() == hi.__floor__():
        a = lo.__floor__()
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        out.append((p1, q1))
        if lo == a:
            break
        lo, hi = 1 / (hi - a), 1 / (lo - a)
    return out


def near_ties():
    forms = []
    lp = LogProduct().add_product(2, 3, 10**6).add_product(2, 2, -1571799)
    forms.append(lp)
    lp = LogProduct().add_product(2, 3, 10**40).add_product(2, 2, -14426950408889634073)
    forms.append(lp)
    # q ln3 - p ln2 is about 1/q: the first convergent past each bit length
    # needs about twice that many bits in degree 1, and gap^5 at 450 bits
    # stays undecidable at 4096
    l2, l3, l5 = (LogProduct.log_of(p) for p in (2, 3, 5))
    convergents = ln3_over_ln2_convergents()
    for bits in (16, 40, 80, 160, 320, 450):
        p, q = next((p, q) for p, q in convergents if q.bit_length() >= bits)
        gap = l3 * q - l2 * p
        forms += [
            gap,
            LogProduct().add_product(2, 3, q).add_product(2, 2, -p),
            gap * l5 * Fraction(1, 3),
            gap.pow(2) * LogProduct.log_of(Fraction(5, 7)),
            gap.pow(3),
        ]
    forms.append(gap.pow(5))
    return forms


def seeded_forms(rng, n):
    def rat():
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))

    def coeff():
        return Fraction(rng.randint(-30, 30), rng.randint(1, 12))

    forms = []
    while len(forms) < n:
        kind = rng.randrange(3)
        if kind == 0:
            # monomials of degree 0-3 with Fraction coefficients
            lp = LogProduct({tuple(rng.choice(PRIMES) for _ in range(rng.randint(0, 3))): coeff()
                             for _ in range(rng.randint(1, 5))})
        elif kind == 1:
            # powers of logs of rationals
            lp = LogProduct()
            for _ in range(rng.randint(1, 3)):
                lp = lp + LogProduct.log_of(rat()).pow(rng.randint(0, 3)) * coeff()
        else:
            lp = LogProduct()
            for _ in range(rng.randint(1, 4)):
                lp.add_product(rat(), rat(), coeff())
        if lp:
            forms.append(lp)
    return forms


def test_scaled_interval_is_reference_times_positive_integer():
    rng = random.Random(113)
    for lp in seeded_forms(rng, 200) + near_ties():
        d = lcm(*(c.denominator for c in lp.terms.values()))
        top = max(len(m) for m in lp.terms)
        for prec in PRECS:
            lo, hi = lp.scaled_interval(prec)
            ref = reference_interval(lp, prec)
            assert kernel_sign(lo, hi) == ref.sign(), (lp, prec)
            scale = d << (top * prec)
            assert (lo, hi) == (ref.lo * scale, ref.hi * scale), (lp, prec)


def test_compare_matches_reference_at_every_cap(monkeypatch):
    rng = random.Random(127)
    forms = seeded_forms(rng, 200) + near_ties()
    escalated = capped = 0
    for lp in forms:
        for cap in CAPS:
            monkeypatch.setattr(certlog, "PRECISION_CAP_BITS", cap)
            assert lp.compare() == reference_compare(lp, cap), (lp, cap)
        monkeypatch.setattr(certlog, "PRECISION_CAP_BITS", 4096)
        full = lp.compare()
        escalated += full != UNDECIDABLE and reference_interval(lp, 64).sign() is None
        capped += full == UNDECIDABLE
    # the near ties reach the escalation steps and the cap
    assert escalated >= 5 and capped >= 1


def signed_exponents(q):
    out = list(exponents(q.numerator).items())
    out.extend((p, -e) for p, e in exponents(q.denominator).items())
    return out


def fraction_det(a, b, c, d):
    """ln a ln b - ln c ln d for positive Fractions, expanded as add_product
    expanded it before the integer kernel."""
    terms = {}
    for x, y, coeff in ((a, b, Fraction(1)), (c, d, Fraction(-1))):
        vy = signed_exponents(y)
        for p, e in signed_exponents(x):
            for q, f in vy:
                m = (p, q) if p <= q else (q, p)
                terms[m] = terms.get(m, Fraction(0)) + coeff * (e * f)
    return LogProduct(terms)


def log_line_triples(rng, n):
    """n seeded triples of integer points: a third on one log line, some a
    unit off one, the rest at random."""
    def num():
        return rng.choice((rng.randint(1, 60), rng.randint(1, 2000), 2 ** rng.randint(0, 12)))

    out = []
    while len(out) < n:
        kind = rng.random()
        if kind < 0.45:
            # (x0 r^t, y0 s^t) lie on one log line; r or s may be 1, t may repeat
            x0, y0, r, s = (rng.randint(1, 12) for _ in range(4))
            pts = [(x0 * r**t, y0 * s**t) for t in (rng.randint(0, 4) for _ in range(3))]
            if kind < 0.05:
                k = rng.randrange(3)
                pts[k] = (pts[k][0], pts[k][1] + 1)
            out.append(tuple(pts))
        else:
            out.append(tuple((num(), num()) for _ in range(3)))
    return out


def equal_slope_pairs(rng, n):
    """n seeded pairs of (x-ratio, y-ratio) vectors, a third of equal slope."""
    def ratio():
        return Fraction(rng.randint(1, 40), rng.randint(1, 40))

    out = []
    while len(out) < n:
        if rng.random() < 0.35:
            # (r^a, s^a) and (r^b, s^b): both slopes are log s / log r
            r, s = ratio(), ratio()
            a, b = rng.randint(1, 3), rng.randint(1, 3)
            out.append(((r**a, s**a), (r**b, s**b)))
        else:
            out.append(((ratio(), ratio()), (ratio(), ratio())))
    return out


@functools.cache
def kernel_cases():
    """(kernel, its arguments, the Fraction form) for 20,000 seeded triples
    and 20,000 seeded vector pairs, built once for both precision settings."""
    rng = random.Random(211)
    cases = [(log_orientation, (p1, p2, p3),
              fraction_det(Fraction(p2[0], p1[0]), Fraction(p3[1], p1[1]),
                           Fraction(p3[0], p1[0]), Fraction(p2[1], p1[1])))
             for p1, p2, p3 in log_line_triples(rng, 20000)]
    cases += [(_slope_sign, (v, w), fraction_det(v[1], w[0], w[1], v[0]))
              for v, w in equal_slope_pairs(rng, 20000)]
    return cases


@pytest.mark.parametrize("bits", [None, 4])
def test_log_det_kernel_matches_fraction_form(monkeypatch, bits):
    if bits is not None:
        monkeypatch.setattr(certlog, "PRECISION_START_BITS", bits)
        monkeypatch.setattr(certlog, "PRECISION_CAP_BITS", bits)
    enclosures = []
    scaled_interval = LogProduct.scaled_interval
    monkeypatch.setattr(LogProduct, "scaled_interval",
                        lambda self, prec: enclosures.append(prec) or scaled_interval(self, prec))
    cases = kernel_cases()
    seen = {ZERO: 0, UNDECIDABLE: 0, POSITIVE: 0, NEGATIVE: 0}
    for kernel, args, want in cases:
        before = len(enclosures)
        got = kernel(*args)
        # a tie is decided by cancellation alone, with no enclosure evaluated
        assert (got == ZERO) == (len(enclosures) == before)
        assert got == want.compare(), (kernel.__name__, args)
        assert (got == ZERO) == (not want)
        seen[got] += 1
    assert seen[ZERO] >= 0.2 * len(cases) and seen[POSITIVE] and seen[NEGATIVE]
    if bits is None:
        assert seen[UNDECIDABLE] == 0
    else:
        assert seen[UNDECIDABLE] >= 100
