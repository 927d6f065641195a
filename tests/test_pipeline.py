"""Pipeline-level differential test: every definitive irreducible or
reducible report of analyze_univariate(run_all=True) over Z and Q, and every
square-free or not-square-free report over F_2 and F_3, agrees with the
brute-force oracle on the polynomial the criteria ran on (the
algebraically primitive part of the input).

The oracle gets a node cap: clearing the denominators of a Q input can
raise the factor height bound so far that one certificate takes seconds,
and inputs it leaves undecided are counted, not checked.

The stop rule is checked on the same draws and on s,t inputs: without
run_all the analysis ends at the first definitive report."""

import random
from fractions import Fraction

from dpirred import report
from dpirred.analyze import _aggregate, analyze_multivariate, analyze_univariate
from dpirred.core import GF, DirichletPoly, QQ
from dpirred.multivariate import MultiDirichletPoly
from dpirred.oracle import (FACTORED, IRREDUCIBLE_CERTIFIED, NONE_WITHIN_BOUND,
                            brute_force_factor, max_factor_multiplicity)

COEFFS = (1, -1, 2, -2, 3, 4, 6, 9, 12)


def _random_input(rng):
    indices = rng.sample(range(1, 17), rng.randint(2, 5))
    if rng.random() < 0.5:
        return DirichletPoly({i: rng.choice(COEFFS) for i in indices})
    return DirichletPoly({i: Fraction(rng.choice(COEFFS), rng.choice((1, 2, 3, 5)))
                          for i in indices}, QQ)


def test_definitive_reports_agree_with_oracle():
    rng = random.Random(53)
    checked = undecided = 0
    for _ in range(400):
        f = _random_input(rng)
        claims = {rep.verdict for rep in analyze_univariate(f, run_all=True).reports
                  if rep.verdict in (report.IRREDUCIBLE, report.REDUCIBLE)
                  and rep.rule != "algebraic-shift"}
        if not claims:
            continue
        assert len(claims) == 1, (f.text(), claims)
        status = brute_force_factor(_primitive(f), node_cap=5000).status
        if status == NONE_WITHIN_BOUND:
            undecided += 1
            continue
        expected = FACTORED if report.REDUCIBLE in claims else IRREDUCIBLE_CERTIFIED
        assert status == expected, (f.text(), claims, status)
        checked += 1
    assert checked > 200 and undecided < checked // 10


def _primitive(f):
    return f if f.is_algebraically_primitive() else f.normalize()[3]


def _random_fp_input(rng):
    """About a third are squares g*g of 2-3-term factors with indices <= 5."""
    p = rng.choice((2, 3))
    square = rng.random() < 1 / 3
    indices = rng.sample(range(1, 6), rng.randint(2, 3)) if square else \
        rng.sample(range(1, 17), rng.randint(2, 5))
    f = DirichletPoly({i: rng.randrange(1, p) for i in indices}, GF(p))
    return f * f if square else f


def test_square_free_reports_agree_with_oracle_fp():
    rng = random.Random(59)
    checked = 0
    for _ in range(300):
        f = _random_fp_input(rng)
        for rep in analyze_univariate(f, run_all=True).reports:
            if rep.verdict in (report.SQUARE_FREE, report.NOT_SQUARE_FREE):
                square_free = max_factor_multiplicity(_primitive(f)) <= 1
                assert (rep.verdict == report.SQUARE_FREE) == square_free, (f.text(), rep.rule)
                checked += 1
    assert checked > 100


def _random_st_input(rng):
    indices = {(rng.randint(1, 12), rng.randint(1, 30)) for _ in range(rng.randint(2, 6))}
    return MultiDirichletPoly({i: rng.choice(COEFFS) for i in indices}, ("s", "t"))


def _stop_rule_holds(analyze, f, **kwargs):
    """analyze(f) keeps a prefix of the reports of analyze(f, run_all=True),
    which run_all only extends (by the derivative rank test), and ends at the
    first definitive report, taking its verdict; with none, the verdict is
    the aggregate.  Returns whether a report stopped it."""
    short = analyze(f, **kwargs)
    full = analyze(f, run_all=True, **kwargs).reports
    k = len(short.reports)
    assert short.reports == full[:k], f.text()
    stop = next((j for j, rep in enumerate(full) if rep.definitive), None)
    if stop is not None and stop < k:
        assert stop == k - 1 and short.verdict == full[stop].verdict, f.text()
        return True
    assert short.verdict == _aggregate(short.reports), f.text()
    return False


def test_first_definitive_report_stops_the_run():
    rng = random.Random(61)
    cases = [(analyze_univariate, _random_input(rng), {}) for _ in range(150)]
    cases += [(analyze_univariate, _random_input(rng), {"scan_t": (1, 6)}) for _ in range(40)]
    cases += [(analyze_univariate, _random_fp_input(rng), {}) for _ in range(150)]
    cases += [(analyze_univariate, DirichletPoly({rng.randint(1, 30): 2})
               if rng.random() < 0.5 else DirichletPoly({1: rng.choice(COEFFS)}), {})
              for _ in range(10)]
    cases += [(analyze_multivariate, _random_st_input(rng), {}) for _ in range(150)]
    stopped = 0
    for analyze, f, kwargs in cases:
        for independent in (False, True):
            stopped += _stop_rule_holds(analyze, f, assume_log_independence=independent, **kwargs)
    assert 0 < stopped < 2 * len(cases)
