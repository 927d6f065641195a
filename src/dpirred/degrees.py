"""Support-arithmetic criteria: relative-degree sets, quick irreducibility
tests, and combinatorial multiplicity bounds.

Everything in this module looks only at the support of a Dirichlet
polynomial and the prime factorizations of its endpoints; coefficients
enter only through which ones are nonzero.  All square-root comparisons are
done by cross-multiplied integer squaring, no floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType

from .core import DirichletPoly, divisors, exponents, smallest_prime_factor
from . import report
from .report import CriterionReport, inconclusive, irreducible


@dataclass(frozen=True)
class RelativeDegreeSets:
    """The divisor-ratio data of a degree pair (m, n)."""

    m: int
    n: int
    k: int
    s_rd: tuple[Fraction, ...]        # 1 < d/c < n/m
    s_rd_k: tuple[Fraction, ...]      # 1 < d/c <= (n/m)^(1/(k+1))
    rho: Fraction                     # largest d/c <= sqrt(n/m)
    delta: Fraction | None            # smallest d/c with d > c
    witnesses: MappingProxyType       # ratio -> (c, d) sample witness, read-only


def _ratio_table(m: int, n: int) -> dict[Fraction, tuple[int, int]]:
    out: dict[Fraction, tuple[int, int]] = {}
    for d in divisors(n):
        for c in divisors(m):
            r = Fraction(d, c)
            if r not in out:
                out[r] = (c, d)
    return out


@lru_cache(maxsize=4096)
def relative_degree_sets(m: int, n: int, k: int = 1) -> RelativeDegreeSets:
    """S_rd, S^k_rd, the rational square root rho and rational floor delta
    of a pair 1 <= m < n.  Cached: the result is shared and immutable."""
    if not (1 <= m < n):
        raise ValueError(f"need 1 <= m < n, got ({m}, {n})")
    if k < 1:
        raise ValueError("k must be >= 1")
    table = _ratio_table(m, n)
    nm = Fraction(n, m)
    s_rd = sorted(r for r in table if 1 < r < nm)
    # r <= (n/m)^(1/(k+1))  <=>  r^(k+1) <= n/m
    s_rd_k = sorted(r for r in table if 1 < r and r ** (k + 1) <= nm)
    # r <= sqrt(n/m)  <=>  d^2 * m <= c^2 * n
    rho = max(r for r in table if r * r <= nm)
    above_one = [r for r in table if r > 1]
    delta = min(above_one) if above_one else None
    wit = {r: table[r] for r in set(s_rd) | set(s_rd_k) | {rho} | ({delta} if delta else set())}
    return RelativeDegreeSets(m, n, k, tuple(s_rd), tuple(s_rd_k), rho, delta,
                              MappingProxyType(wit))


def min_factor_count_bound(m: int, n: int) -> int:
    """Smallest k with S^k_rd(m, n) empty: an algebraically primitive
    polynomial with this degree pair splits into at most k irreducibles.
    Computed from the rational floor: S^k empty iff delta^(k+1) > n/m."""
    d = relative_degree_sets(m, n).delta
    nm = Fraction(n, m)
    k = 1
    while d ** (k + 1) <= nm:
        k += 1
    return k


def quick_irreducibility(f: DirichletPoly) -> CriterionReport:
    """Support-only battery: prime degree, nonzero terms near the degree or
    the min-degree, and the arithmetic rho(m, n) = 1 test.

    Requires a nonconstant, algebraically primitive input (normalize first).
    Also reports the at-most-k-factors bound when no rule fires.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("quick_irreducibility needs a nonconstant polynomial")
    if not f.is_algebraically_primitive():
        raise ValueError("input must be algebraically primitive; normalize first")
    n, m = f.degree, f.deg_min
    supp = f.support()

    if exponents(n) == {n: 1}:
        return irreducible("prime-degree", f"degree {n} is prime", n=n)

    p_n = smallest_prime_factor(n)
    near_top = [i for i in supp if n - p_n < i < n]
    if near_top:
        return irreducible(
            "near-degree-term",
            f"composite degree {n}, nonzero term at {near_top[0]} in ({n - p_n}, {n})",
            n=n, witness_index=near_top[0],
        )

    if m > 1 and m * p_n > n:
        p_m = smallest_prime_factor(m)
        near_bottom = [i for i in supp if m < i < m + p_m]
        if near_bottom:
            return irreducible(
                "near-min-degree-term",
                f"m={m} > n/p_n and nonzero term at {near_bottom[0]} in ({m}, {m + p_m})",
                m=m, n=n, witness_index=near_bottom[0],
            )

    sets = relative_degree_sets(m, n)
    if sets.rho == 1:
        return irreducible(
            "arithmetic-rho",
            f"rho({m},{n}) = 1: no admissible factor relative degree exists",
            m=m, n=n,
        )

    k_bound = min_factor_count_bound(m, n)
    return inconclusive(
        "quick-battery",
        f"no support rule fired; at most {k_bound} irreducible factors",
        factor_count_bound=k_bound, rho=sets.rho, delta=sets.delta,
    )


# ---------------------------------------------------------------------------
# multiplicity bounds from the support alone


def max_multiplicity(n: int) -> int:
    """M(n) = max exponent in the factorization of n (0 for n = 1)."""
    return max(exponents(n).values(), default=0)


def n_below_k(n: int, k: int) -> int:
    """Product of the prime powers of n with exponent < k."""
    out = 1
    for p, e in exponents(n).items():
        if e < k:
            out *= p**e
    return out


def smallest_prime_with_multiplicity(n: int, k: int) -> int | None:
    for p, e in exponents(n).items():
        if e >= k:
            return p
    return None


@dataclass(frozen=True)
class PowerFreeCertificate:
    k: int
    rule: str
    detail: str


def multiplicity_bound(f: DirichletPoly) -> tuple[list[PowerFreeCertificate], int | None]:
    """k-power-freeness certificates for k = 2..M(deg f), plus the best bound.

    Returns (certificates, bound) where bound means M(f) <= bound, or None
    when no hypothesis fires.  A primitive polynomial of square-free degree
    is square-free outright (bound 1).
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    n, m = f.degree, f.deg_min
    M = max_multiplicity(n)
    if M <= 1:
        return (
            [PowerFreeCertificate(2, "square-free-degree", f"deg {n} is square-free")],
            1,
        )

    supp = f.support()
    below = [i for i in supp if i < n]
    above = [i for i in supp if i > m]
    i_max = max(below) if below else None
    i_min = min(above) if above else None
    certs: list[PowerFreeCertificate] = []
    fired_k = None

    for k in range(2, M + 1):
        q_k = smallest_prime_with_multiplicity(n, k)
        if q_k is not None and i_max is not None:
            gap = min(n_below_k(n, k), q_k) * q_k ** (k - 1)
            if i_max > n - gap:
                certs.append(PowerFreeCertificate(
                    k, "near-degree-gap",
                    f"nonzero term at {i_max} > {n} - {gap}: {k}-power-free"))
                if fired_k is None:
                    fired_k = k
                continue
        Mm = max_multiplicity(m)
        if Mm >= k and i_min is not None:
            qm = smallest_prime_with_multiplicity(m, k)
            rk = smallest_prime_with_multiplicity(n, k)
            if qm is not None and rk is not None and m * rk**k > n:
                gap = min(n_below_k(m, k), qm) * qm ** (k - 1)
                if i_min < m + gap:
                    certs.append(PowerFreeCertificate(
                        k, "near-min-degree-gap",
                        f"nonzero term at {i_min} < {m} + {gap} and m > n/{rk}^{k}: "
                        f"{k}-power-free"))
                    if fired_k is None:
                        fired_k = k

    return certs, (fired_k - 1 if fired_k is not None else None)


def multiplicity_report(f: DirichletPoly) -> CriterionReport:
    certs, bound = multiplicity_bound(f)
    if bound is None:
        return inconclusive("multiplicity-bounds", "no combinatorial bound fired")
    verdict = report.SQUARE_FREE if bound == 1 else report.K_POWER_FREE
    return CriterionReport(
        verdict,
        "multiplicity-bounds",
        f"max factor multiplicity <= {bound}",
        certificate={"bound": bound, "certificates": [c.__dict__ for c in certs]},
    )
