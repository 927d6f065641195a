import itertools
import random

import pytest

from dpirred.certlog import LogProduct
from dpirred.core import DirichletPoly, GF, ZZ
from dpirred.oracle import factor_completely, gcd_bounded, max_factor_multiplicity
from dpirred.ranktests import (
    SparseMatrix,
    build_a_matrix,
    build_b_matrix,
    build_r_matrix,
    common_factor_test,
    derivative_rank_test,
    forced_zero_row_indices,
    k_power_free_charp,
    mobius_coprime_count,
    rank_fp,
    rank_q,
)
from dpirred import report


def all_fp_polys(p, n, require_constant=False):
    """Every F_p Dirichlet polynomial of degree exactly n (optionally with
    nonzero constant term)."""
    out = []
    idxs = list(range(1, n))
    for lead in range(1, p):
        for rest in itertools.product(range(p), repeat=len(idxs)):
            terms = {n: lead}
            terms.update({i: v for i, v in zip(idxs, rest) if v})
            if require_constant and 1 not in terms:
                continue
            out.append(DirichletPoly(terms, GF(p)))
    return out


def test_b_matrix_hand_case():
    # char 2, n = 4, p = 2, k = 2: two rows from indices {2, 3}, one column
    f = DirichletPoly({1: 1, 2: 1, 3: 1, 4: 1}, GF(2))
    mat = build_b_matrix(f, 2, 2)
    assert (mat.rows, mat.cols) == (2, 1)
    assert mat.entries == {(0, 0): 1, (1, 0): 1}
    zero = build_b_matrix(DirichletPoly({4: 1}, GF(2)), 2, 2)
    assert zero.entries == {}
    assert rank_fp(zero) == 0


def test_b_matrix_dimension_identity():
    # rows exceed the unreduced column count for every constructed instance
    for (char, n, p, k) in [(2, 4, 2, 2), (3, 8, 2, 2), (3, 8, 2, 3), (3, 9, 3, 2), (2, 8, 2, 2)]:
        f = DirichletPoly({1: 1, n: 1}, GF(char))
        gdeg = n // p ** (k - 1)
        t = n ** (char - 1) // p ** ((k - 1) * char)
        assert gdeg**char > t + gdeg
        mat = build_b_matrix(f, p, k)
        assert (mat.rows, mat.cols) == (gdeg**char - gdeg, t)


def test_square_free_iff_rank_f2_deg4():
    for f in all_fp_polys(2, 4):
        rep = k_power_free_charp(f, 2)
        oracle_sf = max_factor_multiplicity(f) <= 1
        if rep.verdict == report.SQUARE_FREE:
            assert oracle_sf, f.text()
        elif rep.verdict == report.NOT_SQUARE_FREE:
            assert not oracle_sf, f.text()
        else:
            pytest.fail(f"indecisive on {f.text()}: {rep.detail}")


def test_exhaustive_rank_vs_oracle_f2_f3():
    cases = [(2, 4), (2, 8), (2, 9), (3, 4), (3, 8), (3, 9)]
    for p, n in cases:
        for f in all_fp_polys(p, n):
            rep = k_power_free_charp(f, 2)
            oracle_sf = max_factor_multiplicity(f) <= 1
            assert rep.verdict in (report.SQUARE_FREE, report.NOT_SQUARE_FREE), \
                (p, n, f.text())
            assert (rep.verdict == report.SQUARE_FREE) == oracle_sf, (p, n, f.text())


def test_three_power_free_soundness_f3_deg8():
    for f in all_fp_polys(3, 8):
        rep = k_power_free_charp(f, 3)
        if rep.verdict == report.K_POWER_FREE:
            assert max_factor_multiplicity(f) <= 2, f.text()


def test_forced_zero_rows_do_not_change_rank():
    for f in all_fp_polys(2, 8)[:40]:
        mat = build_a_matrix(f, 2, 2)
        base = rank_fp(mat)
        dropped = SparseMatrix(mat.rows, mat.cols, ring="Fp", p=mat.p)
        forced = set(forced_zero_row_indices(8, 2, 2, 2))
        for (i, j), v in mat.entries.items():
            if i + 1 in forced:
                assert False, "forced zero row carries an entry"
            dropped.set(i, j, v)
        assert rank_fp(dropped) == base


def test_mobius_count():
    assert mobius_coprime_count(10, 6) == len(
        [x for x in range(1, 11) if x % 2 and x % 3])
    assert mobius_coprime_count(100, 30) == len(
        [x for x in range(1, 101) if x % 2 and x % 3 and x % 5])


def test_r_matrix_self_is_deficient():
    f = DirichletPoly({1: 1, 2: 3, 4: 1})
    rep = common_factor_test(f, f, 4)
    assert rep.verdict == report.COMMON_FACTOR


def test_r_matrix_coprime_pair():
    rng = random.Random(61)
    found = 0
    while found < 25:
        f = _rand(rng)
        g = _rand(rng)
        if f.is_constant() or g.is_constant():
            continue
        gcd = gcd_bounded(f, g)
        rep = common_factor_test(f, g, 1)
        assert (rep.verdict == report.NO_COMMON_FACTOR) == gcd.is_constant(), \
            (f.text(), g.text(), gcd.text())
        found += 1


def test_r_matrix_shared_factor_detected():
    u = DirichletPoly({1: 1, 2: 1})
    v = DirichletPoly({1: -2, 3: 1})
    w = DirichletPoly({1: 1, 2: -1})
    f, g = u * w, v * w
    rep = common_factor_test(f, g, w.degree)
    assert rep.verdict == report.COMMON_FACTOR
    rep1 = common_factor_test(f, g, 1)
    assert rep1.verdict == report.COMMON_FACTOR


def test_exhaustive_common_factor_f2_deg4():
    polys = all_fp_polys(2, 4)
    for f in polys:
        for g in polys:
            rep = common_factor_test(f, g, 1)
            actually_coprime = gcd_bounded(f, g).is_constant()
            assert (rep.verdict == report.NO_COMMON_FACTOR) == actually_coprime, \
                (f.text(), g.text())


def test_log_product_ring():
    a = LogProduct.log_of(12)  # 2 L2 + L3
    assert a.terms == {(2,): 2, (3,): 1}
    sq = a.pow(2)
    assert sq.terms == {(2, 2): 4, (2, 3): 4, (3, 3): 1}
    assert (a - a).terms == {}
    # the ranktests ring and the comparator are one form: the square above
    # is the product of logs ln12 * ln12
    assert sq == LogProduct().add_product(12, 12)


def test_derivative_rank_square_detection():
    g = DirichletPoly({1: 1, 2: 1})
    h = DirichletPoly({1: 1, 3: -1})
    f = g * g * h
    rep = derivative_rank_test(f)
    assert rep.verdict == report.NOT_SQUARE_FREE
    assert not rep.assumptions  # deficiency is unconditional


def test_derivative_rank_two_term_full():
    f = DirichletPoly({1: 2, 3: 5})
    rep = derivative_rank_test(f)
    assert rep.verdict == report.SQUARE_FREE
    assert rep.assumptions  # full rank is conditional on log independence
    gated = rep.gated(False)
    assert gated.verdict == report.INCONCLUSIVE
    assert rep.gated(True).verdict == report.SQUARE_FREE


def test_derivative_rank_matches_oracle_random():
    rng = random.Random(67)
    found = 0
    while found < 15:
        f = _rand(rng, max_index=6)
        if f.is_constant() or f.deg_min != 1 or not f.is_algebraically_primitive():
            continue
        rep = derivative_rank_test(f)
        sf = max_factor_multiplicity(f) <= 1
        if rep.verdict == report.NOT_SQUARE_FREE:
            assert not sf, f.text()
        else:
            assert sf, f.text()
        found += 1


def _rand(rng, max_index=8):
    terms = {}
    for _ in range(rng.randint(2, 4)):
        c = rng.randint(-3, 3)
        if c:
            terms[rng.randint(1, max_index)] = c
    f = DirichletPoly(terms)
    return f if not f.is_zero() else DirichletPoly({1: 1, 2: 1})
