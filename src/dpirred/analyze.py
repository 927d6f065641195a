"""Criterion pipeline: run the applicable tests on one input in a fixed
order and aggregate the reports.

Order: quick support battery, polygon chords (with and without the index
twist), multi-prime candidate intersection, slope exclusions, prime-value
scan (opt-in), rank tests, polytope and upper-polygon criteria for
multivariate inputs, then the oracle on request.  Each pipeline yields
its reports in that order to one loop, which stops at the first definitive
verdict unless all reports are requested.  Conditional verdicts count as
definitive only when the caller assumes the independence of the logarithms
of primes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import DirichletPoly, UnfactoredResidueError, exponents, factor_integer
from .degrees import multiplicity_report, quick_irreducibility
from .multivariate import MultiDirichletPoly
from .polygon import dumas_test, slope_exclusions, multi_prime_test
from .polytope import polytope_irreducibility
from .upperpoly import HullUndecidable, stepanov_schmidt_test
from . import report
from .report import CriterionReport, inconclusive


@dataclass
class Analysis:
    input_text: str
    verdict: str
    reports: list[CriterionReport] = field(default_factory=list)


def coefficient_primes(f: DirichletPoly, cap: int = 10**6, max_primes: int = 10) -> list[int]:
    """Primes dividing at least one coefficient (the ones that can shape a
    polygon), smallest first."""
    ps: set[int] = set()
    for c in f.terms.values():
        c = abs(int(c)) if not hasattr(c, "denominator") else abs(c.numerator * c.denominator)
        if c in (0, 1):
            continue
        try:
            ps.update(p for p, _ in factor_integer(c, cap))
        except UnfactoredResidueError:
            ps.update(p for p in (2, 3, 5, 7) if c % p == 0)
    return sorted(ps)[:max_primes]


def analyze_univariate(
    f: DirichletPoly,
    run_all: bool = False,
    use_oracle: bool = False,
    assume_log_independence: bool = False,
    scan_t: tuple[int, int] | None = None,
) -> Analysis:
    return _run(f.text(), _univariate_reports(f, run_all, use_oracle, scan_t),
                run_all, assume_log_independence)


def _run(text: str, reports, run_all: bool, assume_log_independence: bool) -> Analysis:
    """Gate each report, keep it, and stop at the first definitive one
    unless every report is requested."""
    kept: list[CriterionReport] = []
    for rep in reports:
        rep = rep.gated(assume_log_independence)
        kept.append(rep)
        if rep.definitive and not run_all:
            return Analysis(text, rep.verdict, kept)
    return Analysis(text, _aggregate(kept), kept)


def _univariate_reports(f: DirichletPoly, run_all: bool, use_oracle: bool, scan_t):
    if f.is_zero() or f.is_constant():
        yield inconclusive("input", "constant polynomial: nothing to decide")
        return
    if len(f.support()) == 1:
        # c/i^s: the oracle decides it outright (irreducible iff i is prime)
        yield _oracle_report(f)
        return

    work = f
    if not f.is_algebraically_primitive():
        _, _, d, work = f.normalize()
        yield CriterionReport(
            report.REDUCIBLE, "algebraic-shift",
            f"support gcd {d} > 1: single-term factor 1/{d}^s; criteria run "
            "on the algebraically primitive part",
            certificate={"shift": d, "primitive_part": work.text()},
        )

    yield quick_irreducibility(work)

    if work.ring.kind in ("Z", "Q"):
        zwork = work.z_primitive_part() if work.ring.kind == "Q" else work
        primes = coefficient_primes(zwork)
        index_primes = list(exponents(zwork.deg_min * zwork.degree))
        twist_primes = sorted(set(primes) | set(index_primes))
        for p, t in [(p, 0) for p in primes] + [(p, 1) for p in twist_primes]:
            rep = dumas_test(zwork, p, shift_t=t)
            if rep.verdict == report.IRREDUCIBLE or t == 0:
                yield rep

        if primes:
            yield multi_prime_test(zwork, primes)
        for p in primes:
            yield slope_exclusions(zwork, p)[1]

        if scan_t is not None:
            from .primevalue import scan_t as scan

            hit = scan(zwork, scan_t[0], scan_t[1])
            yield hit[1] if hit is not None else inconclusive(
                "prime-value-scan", f"no witness in t range {scan_t}")

        yield multiplicity_report(zwork)

        if run_all and zwork.deg_min == 1 and zwork.degree <= 16:
            from .ranktests import derivative_rank_test

            yield derivative_rank_test(zwork)

    if work.ring.kind == "Fp" and work.ring.p >= 2:
        from .ranktests import k_power_free_charp
        from .degrees import max_multiplicity

        if max_multiplicity(work.degree) >= 2:
            yield k_power_free_charp(work, 2)

    if use_oracle:
        yield _oracle_report(work)


def _oracle_report(f: DirichletPoly) -> CriterionReport:
    from .oracle import NODE_CAP_CLI, brute_force_factor, FACTORED, IRREDUCIBLE_CERTIFIED

    res = brute_force_factor(f, node_cap=NODE_CAP_CLI)
    if res.status == FACTORED:
        g, h = res.factors
        return CriterionReport(
            report.REDUCIBLE, "oracle",
            f"factorization found: ({g.text()}) * ({h.text()})",
            certificate={"g": g.text(), "h": h.text()},
        )
    if res.status == IRREDUCIBLE_CERTIFIED:
        return CriterionReport(
            report.IRREDUCIBLE, "oracle",
            "exhaustive search certifies irreducibility",
            certificate={"bound": res.bound, "nodes": res.nodes},
        )
    if res.nodes > NODE_CAP_CLI:
        return inconclusive(
            "oracle", f"search stopped at the node budget of {NODE_CAP_CLI} (bound {res.bound})",
            nodes=res.nodes, node_budget=NODE_CAP_CLI)
    return inconclusive("oracle", f"search exhausted budget (bound {res.bound})")


def analyze_multivariate(
    f: MultiDirichletPoly,
    run_all: bool = False,
    assume_log_independence: bool = False,
) -> Analysis:
    return _run(f.text(), _multivariate_reports(f), run_all, assume_log_independence)


def _multivariate_reports(f: MultiDirichletPoly):
    if f.is_zero() or f.is_constant():
        yield inconclusive("input", "constant polynomial: nothing to decide")
        return

    from .core import is_prime

    if is_prime(f.total_degree()) and f.is_algebraically_primitive():
        yield CriterionReport(
            report.ABSOLUTELY_IRREDUCIBLE, "prime-degree",
            f"total degree {f.total_degree()} is prime")

    yield polytope_irreducibility(f)

    for outer in f.vars:
        for inner in f.vars:
            if inner == outer:
                continue
            try:
                rep = stepanov_schmidt_test(f, outer, inner)
            except (HullUndecidable, ValueError):
                continue
            yield rep


_PRIMARY_VERDICTS = (report.IRREDUCIBLE, report.ABSOLUTELY_IRREDUCIBLE, report.REDUCIBLE)


def _aggregate(reports: list[CriterionReport]) -> str:
    for rep in reports:
        if rep.verdict in _PRIMARY_VERDICTS:
            return rep.verdict
    for rep in reports:
        if rep.definitive:
            return rep.verdict
    if any(r.verdict == report.UNDECIDABLE for r in reports):
        return report.UNDECIDABLE
    return report.INCONCLUSIVE
