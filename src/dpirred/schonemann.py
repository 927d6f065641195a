"""Irreducibility of linear combinations q F^n + p G,  p F^n + q G^n  and
m F_1^{n_1} ... F_k^{n_k} + p G from congruence data modulo the primes.

"Irreducible modulo p" for a Dirichlet polynomial is decided by the prime
degree shortcut, then the support-only quick battery on the reduction, then
the exhaustive oracle over F_p; relative primality modulo p by the full-rank
convolution system, or by an evaluation witness f(-t) for the value
variants.  All hypotheses are verified, never assumed.
"""

from __future__ import annotations

from .core import DirichletPoly, is_prime
from .degrees import quick_irreducibility
from .oracle import brute_force_factor, FACTORED, IRREDUCIBLE_CERTIFIED
from .ranktests import common_factor_test
from . import report
from .report import CriterionReport, inconclusive

MOD_P_NODE_CAP = 10**6


def irreducible_mod_p(F: DirichletPoly, p: int):
    """Decide irreducibility of F mod p: returns (bool | None, how).
    None means undecided: the reduction is zero or constant (not
    meaningful), or the oracle ran out of MOD_P_NODE_CAP nodes."""
    Fp = F.reduce_mod(p) if F.ring.kind == "Z" else F
    if Fp.is_zero() or Fp.is_constant():
        return None, "degenerate reduction"
    n = Fp.degree
    if is_prime(n):
        return True, "prime-degree"
    shift = Fp.algebraic_shift()
    if shift > 1:
        return False, "single-term factor mod p"
    quick = quick_irreducibility(Fp)
    if quick.verdict == report.IRREDUCIBLE:
        return True, quick.rule
    res = brute_force_factor(Fp, node_cap=MOD_P_NODE_CAP)
    if res.status == FACTORED:
        return False, "oracle factorization mod p"
    if res.status == IRREDUCIBLE_CERTIFIED:
        return True, "oracle exhaustion mod p"
    return None, f"oracle node cap {MOD_P_NODE_CAP} reached mod p"


def coprime_mod_p(F: DirichletPoly, G: DirichletPoly, p: int):
    """Relative primality of the reductions, by the rank criterion."""
    Fp = F.reduce_mod(p) if F.ring.kind == "Z" else F
    Gp = G.reduce_mod(p) if G.ring.kind == "Z" else G
    if Fp.is_zero() or Gp.is_zero():
        return False
    if Fp.is_constant() or Gp.is_constant():
        return True
    rep = common_factor_test(Fp, Gp, 1)
    return rep.verdict == report.NO_COMMON_FACTOR


def schonemann_test(
    F: DirichletPoly,
    G: DirichletPoly,
    n: int,
    p: int,
    q: int,
    witness_scan: int = 64,
) -> CriterionReport:
    """Irreducibility of f = q F^n + p G.

    Needs: p prime, p not dividing the leading coefficient of f, F
    irreducible mod p, and F, G relatively prime mod p.  When the rank
    route cannot be applied, an evaluation witness t with p | F(-t) and
    p not | G(-t) is scanned for in [0, witness_scan] (the value variant)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if q == 0 or n < 1:
        raise ValueError("need q != 0 and n >= 1")
    f = F.pow(n).scale(q) + G.scale(p)
    if f.is_zero() or f.is_constant():
        return inconclusive("schonemann", "combination degenerates")
    if f.leading_coeff() % p == 0:
        return inconclusive(
            "schonemann", f"leading coefficient of the combination divisible by {p}")
    irr, how = irreducible_mod_p(F, p)
    if irr is not True:
        return inconclusive("schonemann", f"F not certified irreducible mod {p} ({how})")
    if coprime_mod_p(F, G, p):
        return CriterionReport(
            report.IRREDUCIBLE, "schonemann",
            f"F irreducible mod {p} ({how}); F, G coprime mod {p}",
            certificate={"combination": f.text(), "p": p, "q": q, "n": n},
        )
    for t in range(0, witness_scan + 1):
        if F.evaluate_at_negative(t) % p == 0 and G.evaluate_at_negative(t) % p != 0:
            return CriterionReport(
                report.IRREDUCIBLE, "schonemann-value",
                f"F irreducible mod {p} ({how}); witness t = {t} with "
                f"p | F(-t), p not | G(-t)",
                certificate={"combination": f.text(), "p": p, "t": t},
            )
    return inconclusive(
        "schonemann",
        f"F, G share a factor mod {p} and no evaluation witness in [0, {witness_scan}]")


def pq_schonemann_test(
    F: DirichletPoly, G: DirichletPoly, n: int, p: int, q: int
) -> CriterionReport:
    """Irreducibility of f = p F^n + q G^n for distinct primes p, q and
    monic F, G of equal degree: F irreducible mod q, G irreducible mod p,
    and F != G mod pq."""
    if not (is_prime(p) and is_prime(q)) or p == q:
        raise ValueError("p, q must be distinct primes")
    if n < 1:
        raise ValueError("n must be >= 1")
    if F.is_constant() or G.is_constant():
        return inconclusive("pq-schonemann", "F, G must be nonconstant")
    if F.degree != G.degree:
        raise ValueError("F and G must have equal degrees")
    if F.leading_coeff() != 1 or G.leading_coeff() != 1:
        raise ValueError("F and G must be monic")
    diff = F - G
    if all(c % (p * q) == 0 for c in diff.terms.values()):
        return inconclusive("pq-schonemann", f"F = G mod {p * q}")
    irr_f, how_f = irreducible_mod_p(F, q)
    if irr_f is not True:
        return inconclusive("pq-schonemann", f"F not certified irreducible mod {q} ({how_f})")
    irr_g, how_g = irreducible_mod_p(G, p)
    if irr_g is not True:
        return inconclusive("pq-schonemann", f"G not certified irreducible mod {p} ({how_g})")
    f = F.pow(n).scale(p) + G.pow(n).scale(q)
    return CriterionReport(
        report.IRREDUCIBLE, "pq-schonemann",
        f"F irreducible mod {q} ({how_f}), G irreducible mod {p} ({how_g}), "
        f"F != G mod {p * q}",
        certificate={"combination": f.text(), "p": p, "q": q, "n": n},
    )


def prime_power_value_test(
    F_list: list[DirichletPoly],
    n_list: list[int],
    m: int,
    G: DirichletPoly,
    p: int,
    a: int,
) -> CriterionReport:
    """Irreducibility of f = m F_1^{n_1} ... F_k^{n_k} + p G from a negative
    evaluation point a with p | F_i(a) for every i and p not | G(a)."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if a >= 0:
        raise ValueError("a must be a negative integer")
    if len(F_list) != len(n_list) or not F_list:
        raise ValueError("factor and exponent lists must align")
    if m == 0 or any(n < 1 for n in n_list):
        raise ValueError("need m != 0 and positive exponents")
    t = -a
    prod = DirichletPoly({1: m}, F_list[0].ring)
    for F, n in zip(F_list, n_list):
        prod = prod * F.pow(n)
    f = prod + G.scale(p)
    if f.is_zero() or f.is_constant():
        return inconclusive("prime-power-value", "combination degenerates")
    if f.leading_coeff() % p == 0:
        return inconclusive(
            "prime-power-value",
            f"leading coefficient of the combination divisible by {p}")
    for idx, F in enumerate(F_list):
        irr, how = irreducible_mod_p(F, p)
        if irr is not True:
            return inconclusive(
                "prime-power-value",
                f"F_{idx + 1} not certified irreducible mod {p} ({how})")
        if F.evaluate_at_negative(t) % p != 0:
            return inconclusive(
                "prime-power-value", f"p does not divide F_{idx + 1}({a})")
    if G.evaluate_at_negative(t) % p == 0:
        return inconclusive("prime-power-value", f"p divides G({a})")
    return CriterionReport(
        report.IRREDUCIBLE, "prime-power-value",
        f"all F_i vanish mod {p} at {a} while G({a}) is a unit mod {p}",
        certificate={"combination": f.text(), "p": p, "a": a},
    )
