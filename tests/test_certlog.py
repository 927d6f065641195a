"""The integer sign kernel of the certified log comparator against the
Fraction enclosure it replaced.

`reference_interval` is `LogProduct.interval` as it was before signs were
decided on integer-scaled enclosures: IV arithmetic on Fraction endpoints.
`LogProduct.scaled_interval` must give that interval times D * 2^(K*prec),
so every sign at every precision, and the verdict of `compare` at every cap,
is the same.
"""

import random
from fractions import Fraction
from math import lcm

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
)

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
