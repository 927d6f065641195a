"""Output checkers that share no code with dpirred.

A Dirichlet polynomial is a dict {index: coefficient}; a bivariate one is a
dict {(s_index, t_index): coefficient}.  Over Z and Q the factor structure
comes from sympy's factor_list on phi(f), the polynomial with one variable
per prime of the indices (built with sympy.factorint).  Over F_p it comes
from an exhaustive search for monic divisors of degree at most sqrt(deg f).
Both give a profile (nonconstant factors counted with multiplicity, largest
multiplicity), against which a verdict is judged.  Content is ignored.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from itertools import product
from math import isqrt

# sympy's multivariate factoring (Wang's EEZ) draws random evaluation points;
# an unlucky draw can make Hensel lifting run for minutes.  Each attempt gets
# a fixed seed and a time limit, and the next attempt another seed.
FACTOR_ATTEMPTS = 5
FACTOR_SECONDS = 5.0

# ---------------------------------------------------------------------------
# Dirichlet convolution


def convolve(a: dict, b: dict, p: int | None = None) -> dict:
    """Dirichlet product of two univariate or bivariate polynomials, with
    coefficients reduced mod p when p is given."""
    out: dict = {}
    for i, x in a.items():
        for j, y in b.items():
            k = i * j if isinstance(i, int) else (i[0] * j[0], i[1] * j[1])
            out[k] = out.get(k, 0) + x * y
    if p is not None:
        out = {k: c % p for k, c in out.items()}
    return {k: c for k, c in out.items() if c != 0}


def proportional(a: dict, b: dict) -> bool:
    """a = c * b for some nonzero rational c."""
    if a.keys() != b.keys() or not a:
        return False
    k0 = next(iter(a))
    ratio = Fraction(a[k0]) / Fraction(b[k0])
    return all(Fraction(a[k]) == ratio * Fraction(b[k]) for k in a)


# ---------------------------------------------------------------------------
# Z, Q and bivariate: sympy on phi(f)


def _phi(f: dict):
    """phi(f) as a sympy Poly over QQ: index n = prod p^e maps to the
    monomial prod x_p^e (separate variables per prime for s and t)."""
    import sympy  # loaded only once the timed pass is over

    keys = [(k,) if isinstance(k, int) else k for k in f]
    vectors = [[sympy.factorint(n) for n in key] for key in keys]
    gens_by_slot = [sorted({p for vec in vectors for p in vec[slot]})
                    for slot in range(len(keys[0]))]
    gens = [sympy.Symbol(f"x{slot}_{p}") for slot, ps in enumerate(gens_by_slot) for p in ps]
    rep = {}
    for vec, c in zip(vectors, f.values()):
        mono = tuple(vec[slot].get(p, 0)
                     for slot, ps in enumerate(gens_by_slot) for p in ps)
        rep[mono] = sympy.Rational(Fraction(c).numerator, Fraction(c).denominator)
    if not gens:
        return None
    return sympy.Poly.from_dict(rep, *gens, domain="QQ")


def rational_profile(f: dict) -> tuple[int, int]:
    """(number of nonconstant factors with multiplicity, largest
    multiplicity) of phi(f) over Q."""
    poly = _phi(f)
    if poly is None:
        return 0, 0
    _, factors = _factor_list(poly)
    factors = [(g, m) for g, m in factors if g.total_degree() > 0]
    return sum(m for _, m in factors), max((m for _, m in factors), default=0)


class _Slow(Exception):
    pass


def _raise_slow(signum, frame):
    raise _Slow


def _factor_list(poly):
    import sympy.core.random

    previous = signal.signal(signal.SIGALRM, _raise_slow)
    try:
        for attempt in range(FACTOR_ATTEMPTS):
            sympy.core.random.seed(attempt)
            signal.setitimer(signal.ITIMER_REAL, FACTOR_SECONDS)
            try:
                return poly.factor_list()
            except _Slow:
                continue
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    finally:
        signal.signal(signal.SIGALRM, previous)
    raise RuntimeError(f"sympy did not factor {poly.as_expr()} in {FACTOR_ATTEMPTS} attempts")


# ---------------------------------------------------------------------------
# F_p: exhaustive divisor search


def divide_fp(f: dict, g: dict, p: int) -> dict | None:
    """The h with g * h = f over F_p, or None when g does not divide f."""
    a, d = min(g), max(g)
    m, n = min(f), max(f)
    if m % a or n % d:
        return None
    inv = pow(g[a], p - 2, p)
    h: dict = {}
    for k in range(m // a, n // d + 1):
        s = f.get(a * k, 0)
        for j, hj in h.items():
            i, r = divmod(a * k, j)
            if r == 0 and i != a and i in g:
                s -= g[i] * hj
        s = s * inv % p
        if s:
            h[k] = s
    return h if h and convolve(g, h, p) == f else None


def _monic_candidates(f: dict, p: int):
    """Every monic g of degree 2..sqrt(deg f) whose degree divides deg f and
    whose lowest index divides the lowest index of f."""
    m, n = min(f), max(f)
    for d in range(2, isqrt(n) + 1):
        if n % d:
            continue
        for a in range(1, d + 1):
            if m % a:
                continue
            if a == d:
                yield {d: 1}
                continue
            inner = range(a + 1, d)
            for ca in range(1, p):
                for cs in product(range(p), repeat=len(inner)):
                    g = {a: ca, d: 1}
                    g.update((i, c) for i, c in zip(inner, cs) if c)
                    yield g


def fp_profile(f: dict, p: int) -> tuple[bool, int]:
    """(reducible, largest factor multiplicity) of f over F_p.

    A nontrivial factorization has a factor of degree <= sqrt(deg f), and an
    irreducible factor q of multiplicity k has deg q <= (deg f)^(1/k), so
    both searches are complete over the candidates."""
    n = max(f)
    reducible, mult = False, 1
    for g in _monic_candidates(f, p):
        h = divide_fp(f, g, p)
        if h is None:
            continue
        reducible = True
        k, rest = 1, h
        while max(g) ** (k + 1) <= n:
            rest = divide_fp(rest, g, p)
            if rest is None:
                break
            k += 1
        mult = max(mult, k)
    return reducible, mult


# ---------------------------------------------------------------------------
# verdicts


def profile_of(f: dict, ring) -> tuple[int, int]:
    """(factor count with multiplicity, largest multiplicity); over F_p the
    count is 1 or 2 (irreducible or reducible)."""
    if isinstance(ring, int):
        reducible, mult = fp_profile(f, ring)
        return (2 if reducible else 1), mult
    return rational_profile(f)


def verdict_holds(verdict: str, cert: dict, profile: tuple[int, int]) -> bool:
    """Whether a definitive verdict agrees with the factor profile.
    Verdicts that claim nothing (inconclusive, undecidable) always hold."""
    count, mult = profile
    if verdict in ("irreducible", "absolutely-irreducible"):
        return count == 1
    if verdict == "reducible":
        return count >= 2
    if verdict == "square-free":
        return mult <= 1
    if verdict == "not-square-free":
        return mult >= 2
    if verdict == "k-power-free":
        if "bound" in cert:
            return mult <= cert["bound"]
        return mult < cert["k"]
    return verdict in ("inconclusive", "undecidable")


def oracle_pair_holds(f: dict, ring, g: dict, h: dict) -> bool:
    """g * h reproduces f (up to a constant over Z and Q) with both factors
    nonconstant."""
    if max(g) < 2 or max(h) < 2:
        return False
    if isinstance(ring, int):
        return convolve(g, h, ring) == {k: c % ring for k, c in f.items()}
    return proportional(convolve(g, h), f)


# ---------------------------------------------------------------------------
# self-test on worked examples with known answers

SELF_TEST = [
    # -1 + 1/4^s: phi = x^2 - 1 = (x - 1)(x + 1)
    ({1: -1, 4: 1}, "Z", (2, 1)),
    # 1 + 1/4^s: phi = x^2 + 1
    ({1: 1, 4: 1}, "Z", (1, 1)),
    # 1 + 1/2^s + 1/3^s + 1/4^s: linear in x_3
    ({1: 1, 2: 1, 3: 1, 4: 1}, "Z", (1, 1)),
    # (2/2^s + 1/3^s + 1/4^s + 2/5^s) * (2/2^s + 1/3^s), from the README
    ({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2}, "Z", (2, 1)),
    # (1 + 1/2^s)^2 with halved coefficients over Q
    ({1: Fraction(1, 2), 2: 1, 4: Fraction(1, 2)}, "Q", (2, 2)),
    # 1 + 1/4^s = (1 + 1/2^s)^2 over F_2
    ({1: 1, 4: 1}, 2, (2, 2)),
    # 1 + 1/2^s + 1/4^s over F_2: no root-like divisor of degree 2
    ({1: 1, 2: 1, 4: 1}, 2, (1, 1)),
    # 1 + 1/2^s + 1/4^s over F_3 = (1 - 1/2^s)^2
    ({1: 1, 2: 1, 4: 1}, 3, (2, 2)),
    # (1 + 1/2^s + 1/3^s)^3 over F_3
    (convolve(convolve({1: 1, 2: 1, 3: 1}, {1: 1, 2: 1, 3: 1}, 3), {1: 1, 2: 1, 3: 1}, 3),
     3, (2, 3)),
    # bivariate: (1 + 1/2^s) * (1 + 1/3^t)
    ({(1, 1): 1, (2, 1): 1, (1, 3): 1, (2, 3): 1}, "ST", (2, 1)),
]


def self_test() -> list[str]:
    """Problems found on the known examples (empty when the checkers work)."""
    problems = []
    for f, ring, expected in SELF_TEST:
        got = profile_of(f, ring)
        if got != expected:
            problems.append(f"profile of {f} over {ring}: {got}, expected {expected}")
    g, h = {2: 2, 3: 1, 4: 1, 5: 2}, {2: 2, 3: 1}
    if not oracle_pair_holds({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2}, "Z", g, h):
        problems.append("README factor pair does not multiply back")
    if divide_fp({1: 1, 4: 1}, {1: 1, 2: 1}, 2) != {1: 1, 2: 1}:
        problems.append("F_2 division of 1 + 1/4^s by 1 + 1/2^s")
    return problems
