"""Irreducibility from prime or prime-power values of f(-t).

The height bound for factors comes from the product inequality on heights
of multivariate factors, applied through the prime-exponent encoding of the
support.  Threshold inequalities mixing integers with logarithms are decided
by certified interval arithmetic with precision escalation; the criterion
itself is exact once the value decomposition |f(-t)| = P^ell * q has been
re-verified in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .core import DirichletPoly, exponents, is_prime, max_exponents, smallest_prime_factor
from .certlog import IV, ln_bounds, PRECISION_START_BITS
from . import certlog, report
from .report import CriterionReport, inconclusive


MR_DETERMINISTIC_LIMIT = 3_317_044_064_679_887_385_961_981
SCAN_Q_CAP = 64
# Largest t, and most values of t, one scan_t call tries.  |f(-t)| grows with
# t and each t costs more than the one before: over the inputs of the golden
# CLI tests the slowest scan of 1..500 (the Figure 1 input, no witness) takes
# 1.9 s of CPU, 1..600 takes 3.7 s and 1..1000 takes 25 s (Python 3.11.7 on
# a shared 2-core x86-64 host).
SCAN_T_CAP = 500


def gelfond_factor_height_bound(f: DirichletPoly) -> int:
    """Ceiling of 2^(sum m_i - k) * sqrt(prod (m_i + 1)) * H(f): an upper
    bound for the height of any factor of f (and for the product of the
    heights of all factors)."""
    if f.ring.kind != "Z":
        raise ValueError("needs integer coefficients")
    if f.is_zero():
        raise ValueError("zero polynomial")
    mult = max_exponents(f.support()).values()
    a = (1 << (sum(mult) - len(mult))) * f.height()
    prod = 1
    for m in mult:
        prod *= m + 1
    r = isqrt(a * a * prod)
    return r if r * r == a * a * prod else r + 1


# ---------------------------------------------------------------------------
# certified threshold comparisons


def _iv_div(a: IV, b: IV) -> IV:
    if b.lo <= 0:
        raise ValueError("division by an interval touching zero")
    return IV(min(a.lo / b.lo, a.lo / b.hi), max(a.hi / b.lo, a.hi / b.hi))


def _ln_iv(x: IV, prec: int) -> IV:
    if x.lo <= 0:
        raise ValueError("log of nonpositive interval")
    return IV(ln_bounds(x.lo, prec).lo, ln_bounds(x.hi, prec).hi)


def _exceeds(t: int, rhs_at) -> str:
    """Certified comparison t > rhs, where rhs_at(prec) returns an IV.
    Returns 'yes' | 'no' | 'undecidable'."""
    cap = certlog.PRECISION_CAP_BITS
    prec = PRECISION_START_BITS
    while True:
        rhs = rhs_at(prec)
        if t > rhs.hi:
            return "yes"
        if t <= rhs.lo:
            return "no"
        if prec >= cap:
            return "undecidable"
        prec = min(2 * prec, cap)


def _tail_exponent(prec: int) -> IV:
    """1 + log_3(log_2 12) / 2 as a certified interval."""
    ln2 = ln_bounds(Fraction(2), prec)
    ln3 = ln_bounds(Fraction(3), prec)
    ln12 = ln_bounds(Fraction(12), prec)
    log2_12 = _iv_div(ln12, ln2)
    return IV(1) + _iv_div(_ln_iv(log2_12, prec), ln3) * IV(Fraction(1, 2))


def threshold_rhs(n: int, p: int, k: int, q: int, height: int):
    """The sharp lower bound on t: (n/p) * ln((n q H / p) * (n/2)^(k*c))
    with c the tail exponent; returns a prec -> IV evaluator."""

    def at(prec: int) -> IV:
        c = _tail_exponent(prec)
        ln_n2 = ln_bounds(Fraction(n, 2), prec)
        ln_main = ln_bounds(Fraction(n * q * height, p), prec)
        return IV(Fraction(n, p)) * (ln_main + IV(k) * c * ln_n2)

    return at


def simple_rhs(n: int, q: int, height: int):
    """The closed-form bound n^2 + (n/2) * ln(q H)."""

    def at(prec: int) -> IV:
        return IV(n * n) + IV(Fraction(n, 2)) * ln_bounds(Fraction(q * height), prec)

    return at


# ---------------------------------------------------------------------------
# the tests


def pth_root_is_irrational(f: DirichletPoly, t: int, P: int) -> bool:
    """Whether the principal P-th root of prod_i i^(a_i * i^t) is irrational:
    true iff some relevant prime r has exponent sum not divisible by P."""
    if f.ring.kind != "Z":
        raise ValueError("needs integer coefficients")
    if t < 0:
        raise ValueError("t must be >= 0")
    for r in f.relevant_primes():
        e = 0
        for i, a in f.items():
            v = exponents(i).get(r, 0)
            if v:
                e = (e + a % P * pow(i, t, P) % P * v) % P
        if e % P != 0:
            return True
    return False


def prime_value_test(
    f: DirichletPoly, t: int, P: int, ell: int = 1, q: int = 1
) -> CriterionReport:
    """Irreducibility from |f(-t)| = P^ell * q with P prime, P not dividing q.

    The decomposition is re-verified exactly.  Fires when t clears either
    the sharp support-aware threshold (composite degree) or the closed-form
    t > n^2 + (n/2) ln(qH) bound; for ell >= 2 the principal P-th root of
    prod i^(a_i i^t) must additionally be irrational.
    """
    if f.ring.kind != "Z":
        raise ValueError("needs integer coefficients")
    if t < 1 or ell < 1 or q < 1:
        raise ValueError("need t, ell, q >= 1")
    value = f.evaluate_at_negative(t)
    if abs(value) != P**ell * q:
        raise ValueError(f"|f(-{t})| = {abs(value)} != {P}^{ell} * {q}")
    if q % P == 0:
        raise ValueError("P must not divide q")
    assumptions = []
    if not is_prime(P):
        return inconclusive("prime-value", f"{P} is not prime")
    if P >= MR_DETERMINISTIC_LIMIT:
        assumptions.append("miller-rabin-beyond-deterministic-range")

    n = f.degree
    if n < 2:
        return inconclusive("prime-value", "degree below 2")
    d = f.algebraic_shift()
    if d > 1 and len(f.support()) > 1:
        g = DirichletPoly({d: 1}, f.ring)
        h = f.algebraically_primitive_part()
        return CriterionReport(
            report.REDUCIBLE, "prime-value",
            f"not algebraically primitive: single-term factor 1/{d}^s",
            certificate={"witness": (g.text(), h.text())},
        )
    if is_prime(n):
        return CriterionReport(
            report.IRREDUCIBLE, "prime-degree", f"degree {n} is prime",
            tuple(assumptions), {"n": n},
        )

    if ell >= 2 and not pth_root_is_irrational(f, t, P):
        return inconclusive(
            "prime-power-value",
            f"principal {P}th root of the exponent product is rational",
        )

    k, height = len(max_exponents(f.support())), f.height()
    p = smallest_prime_factor(n)
    routes = []
    sharp = _exceeds(t, threshold_rhs(n, p, k, q, height))
    routes.append(("support-aware", sharp))
    if sharp != "yes":
        if height <= 1 and q == 1 and t > n * n:
            routes.append(("unit-coefficients", "yes"))
        else:
            routes.append(("closed-form", _exceeds(t, simple_rhs(n, q, height))))

    fired = [name for name, res in routes if res == "yes"]
    if fired:
        rule = "prime-value-threshold" if ell == 1 else "prime-power-value-threshold"
        return CriterionReport(
            report.IRREDUCIBLE, rule,
            f"|f(-{t})| = {P}^{ell} * {q} and t clears the {fired[0]} threshold",
            tuple(assumptions),
            {"t": t, "P": P, "ell": ell, "q": q, "route": fired[0]},
        )
    if all(res == "undecidable" for _, res in routes):
        return CriterionReport(
            report.UNDECIDABLE, "prime-value",
            "threshold comparison hit the precision cap",
        )
    return inconclusive(
        "prime-value", f"t = {t} does not clear the thresholds",
        routes=routes,
    )


def check_scan_range(t_from: int, t_to: int) -> None:
    """Raise ValueError unless [t_from, t_to] lies within SCAN_T_CAP."""
    if t_to > SCAN_T_CAP or t_to - t_from >= SCAN_T_CAP:
        raise ValueError(f"scan range {t_from}..{t_to} is past the cap: at most "
                         f"{SCAN_T_CAP} values of t, none above {SCAN_T_CAP}")


def scan_t(f: DirichletPoly, t_from: int, t_to: int) -> tuple[int, CriterionReport] | None:
    """Convenience sweep: look for t in [t_from, t_to] whose value |f(-t)|
    is a prime P times a cofactor q <= SCAN_Q_CAP, and run the test there
    with ell = 1; prime-power values P^ell, ell >= 2, are not scanned.  The
    primality check is heuristic for huge P; the fired criterion itself
    stays exact.  A range past SCAN_T_CAP raises ValueError."""
    check_scan_range(t_from, t_to)
    for t in range(t_from, t_to + 1):
        v = abs(f.evaluate_at_negative(t))
        if v < 2:
            continue
        for q in range(1, SCAN_Q_CAP + 1):
            if v % q:
                continue
            w = v // q
            if not (is_prime(w) and (q % w or q == 1)):
                continue
            try:
                rep = prime_value_test(f, t, w, 1, q)
            except ValueError:
                continue
            if rep.verdict == report.IRREDUCIBLE:
                return t, rep
    return None
