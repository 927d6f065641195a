import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from dpirred import ranktests
from dpirred.certlog import LogProduct
from dpirred.core import DirichletPoly, GF, ZZ, exponents, is_prime
from dpirred.oracle import factor_completely, gcd_bounded, max_factor_multiplicity
from dpirred.ranktests import (
    SparseMatrix,
    build_a_matrix,
    build_b_matrix,
    build_d_matrix,
    build_r_matrix,
    common_factor_test,
    content,
    derivative_rank_test,
    eliminate,
    k_power_free_charp,
    mod_p,
    nonzero,
    nullspace,
    rank,
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
    assert zero.rank() == 0


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


def forced_zero_row_indices(f_degree: int, p: int, k: int, char: int) -> list[int]:
    """Row indices of the unreduced system that are zero for every f: index
    above max(t, n), not a char-th power, coprime to every prime <= t."""
    n = f_degree
    gdeg = n // p ** (k - 1)
    t = n ** (char - 1) // p ** ((k - 1) * char)
    lo = max(t, n)
    hi = gdeg**char
    primes = [q for q in range(2, t + 1) if is_prime(q)]
    powers = {d**char for d in range(1, gdeg + 1)}
    out = []
    for i in range(lo + 1, hi + 1):
        if i in powers:
            continue
        if all(i % q for q in primes):
            out.append(i)
    return out


def test_forced_zero_rows_do_not_change_rank():
    for f in all_fp_polys(2, 8)[:40]:
        mat = build_a_matrix(f, 2, 2)
        base = mat.rank()
        dropped = SparseMatrix(mat.rows, mat.cols, p=mat.p)
        forced = set(forced_zero_row_indices(8, 2, 2, 2))
        for (i, j), v in mat.entries.items():
            if i + 1 in forced:
                assert False, "forced zero row carries an entry"
            dropped.set(i, j, v)
        assert dropped.rank() == base


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


def test_derivative_order_below_one_is_rejected():
    f = DirichletPoly({1: 1, 2: 1})
    for k in (0, -1):
        with pytest.raises(ValueError):
            build_d_matrix(f, k)
        with pytest.raises(ValueError):
            derivative_rank_test(f, k)


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


# ---------------------------------------------------------------------------
# the elimination kernel


def _random_rows(rng, field):
    """Seeded sparse rows of up to 8 x 8, with zero and repeated rows; entries
    mod p over F_p, small fractions over Q (field None)."""
    n_rows, cols = rng.randint(1, 8), rng.randint(1, 8)
    rows = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.15:
            rows.append({})
        elif roll < 0.3 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            row = {}
            for j in rng.sample(range(cols), rng.randint(1, cols)):
                if field:
                    row[j] = rng.randrange(field)
                else:
                    row[j] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            rows.append(row)
    return rows, cols


@pytest.mark.parametrize("field", [2, 3, 5, None])
def test_kernel_rank_nullity_and_canonical_basis(field):
    rng = random.Random(71 if field is None else 71 + field)
    reduce = mod_p(field) if field else content
    for _ in range(300):
        rows, cols = _random_rows(rng, field)
        r = rank(rows, reduce)
        basis = nullspace(rows, cols, field)
        assert r + len(basis) == cols
        for vec in basis:
            for row in rows:
                dot = sum(v * vec[j] for j, v in row.items())
                assert (dot % field if field else dot) == 0, (rows, vec)
        # free columns: those that do not raise the rank of the columns before
        free = [j for j in range(cols)
                if rank([{c: v for c, v in row.items() if c <= j} for row in rows], reduce)
                == rank([{c: v for c, v in row.items() if c < j} for row in rows], reduce)]
        assert len(free) == len(basis)
        for f, vec in zip(free, basis):
            assert [vec[j] for j in free] == [int(j == f) for j in free]


def test_kernel_constant_log_rows_match_q():
    rng = random.Random(73)
    for _ in range(300):
        rows, _ = _random_rows(rng, None)
        logs = [{j: LogProduct.constant(v) for j, v in row.items()} for row in rows]
        assert rank(logs, nonzero) == rank(rows, content)


# ---------------------------------------------------------------------------
# the row-scanning loop that the column-indexed kernel replaced, kept as the
# reference it is pinned against


def _eliminate_reference(rows, reduce):
    """Each step re-sorts the live rows by length, pivots on the shortest one's
    lowest column and scans every other row for that column."""
    rows = [r for r in map(reduce, rows) if r]
    pivots = []
    while rows:
        rows.sort(key=len)
        piv = rows.pop(0)
        pivots.append(piv)
        j0 = min(piv)
        a = piv[j0]
        out = []
        for r in rows:
            c = r.get(j0)
            if c:
                new = dict(r) if a == 1 else {j: a * v for j, v in r.items()}
                for j, w in piv.items():
                    new[j] = new[j] - c * w if j in new else -(c * w)
                r = reduce(new)
                if not r:
                    continue
            out.append(r)
        rows = out
    return pivots


def _snapshot(rows):
    return [sorted((j, repr(v)) for j, v in r.items()) for r in rows]


def _assert_matches_reference(rows, reduce, cols=None, p=None):
    """Same rank and lead columns as the reference, distinct leads, and, over
    F_p and Q (cols given), the same nullspace basis; the rows stay as they
    were."""
    before = _snapshot(rows)
    pivots = eliminate(rows, reduce)
    leads = [min(r) for r in pivots]
    assert len(set(leads)) == len(leads)
    assert sorted(leads) == sorted(min(r) for r in _eliminate_reference(rows, reduce))
    if cols is not None:
        basis = nullspace(rows, cols, p)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(ranktests, "eliminate", _eliminate_reference)
            assert basis == nullspace(rows, cols, p)
    assert _snapshot(rows) == before
    return len(pivots)


def _random_fp_input(rng, char):
    """A random F_char input of degree <= 60 with 4 or 9 dividing the degree,
    or a square g*g of degree <= 49 (rank deficient at every p)."""
    if rng.random() < 0.25:
        n = rng.randint(2, 7)
        g = DirichletPoly({n: rng.randrange(1, char),
                           **{i: rng.randrange(1, char)
                              for i in rng.sample(range(1, n), min(n - 1, rng.randint(1, 3)))}},
                          GF(char))
        return g * g
    n = rng.choice([d for d in range(4, 61) if d % 4 == 0 or d % 9 == 0])
    return DirichletPoly({n: rng.randrange(1, char),
                          **{i: rng.randrange(1, char)
                             for i in rng.sample(range(1, n), min(n - 1, rng.randint(1, 5)))}},
                         GF(char))


def test_kernel_matches_reference_on_power_free_systems():
    rng = random.Random(97)
    deficient = large = 0
    for _ in range(150):
        char = rng.choice((2, 3))
        f = _random_fp_input(rng, char)
        for p, e in exponents(f.degree).items():
            if e < 2:
                continue
            for mat in (build_b_matrix(f, p, 2), build_a_matrix(f, p, 2)):
                rows = mat.row_lists()
                r = _assert_matches_reference(rows, mod_p(char), mat.cols, char)
                assert r == mat.rank()
                deficient += r < mat.cols
                large += len(rows) >= 300
    assert deficient >= 10 and large >= 10


def _random_sparse_rows(rng, field):
    """Seeded rows of up to 40 x 30: sparse, dense, zero and repeated rows,
    entries mod p over F_p, small fractions over Q (field None)."""
    n_rows, cols = rng.randint(1, 40), rng.randint(1, 30)
    density = rng.choice((1, 2, 4))
    rows = []
    for _ in range(n_rows):
        roll = rng.random()
        if roll < 0.1:
            rows.append({})
        elif roll < 0.25 and rows:
            rows.append(dict(rng.choice(rows)))
        else:
            size = cols if roll > 0.9 else min(cols, rng.randint(1, density))
            row = {}
            for j in rng.sample(range(cols), size):
                if field:
                    row[j] = rng.randrange(field)
                else:
                    row[j] = Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))
            rows.append(row)
    return rows, cols


@pytest.mark.parametrize("field", [2, 3, 5, None])
def test_kernel_matches_reference_on_random_sparse_rows(field):
    rng = random.Random(101 if field is None else 101 + field)
    reduce = mod_p(field) if field else content
    for _ in range(200):
        rows, cols = _random_sparse_rows(rng, field)
        _assert_matches_reference(rows, reduce, cols, field)


def test_kernel_matches_reference_on_derivative_systems():
    rng = random.Random(103)
    inputs = [DirichletPoly({1: 1, 2: 2, 4: -2, 8: 4, 12: 9})]
    while len(inputs) < 100:
        f = _rand(rng, max_index=16)
        if not f.is_constant() and f.deg_min == 1 and f.is_algebraically_primitive():
            inputs.append(f)
    for f in inputs:
        _assert_matches_reference(build_d_matrix(f), nonzero)


# ---------------------------------------------------------------------------
# the builders against the divisor scan they replace


def _scan(i, cols, terms):
    """(column j, a_(i/j)) for row i of a convolution block, by divisor scan."""
    return [(j, terms[i // j]) for j in range(1, cols + 1) if i % j == 0 and terms.get(i // j)]


def _scan_a(f, p, k):
    char, n = f.ring.p, f.degree
    gdeg = n // p ** (k - 1)
    t = n ** (char - 1) // p ** ((k - 1) * char)
    mat = SparseMatrix(gdeg**char, t + gdeg, p=char)
    for i in range(1, gdeg**char + 1):
        for j, a in _scan(i, t, f.terms):
            mat.set(i - 1, j - 1, a)
    for d in range(1, gdeg + 1):
        mat.set(d**char - 1, t + d - 1, char - 1)
    return mat


def _scan_b(f, p, k):
    char, n = f.ring.p, f.degree
    gdeg = n // p ** (k - 1)
    t = n ** (char - 1) // p ** ((k - 1) * char)
    rows = gdeg**char - gdeg
    mat = SparseMatrix(rows, t, p=char)
    delta = 1
    for i in range(1, rows + 1):
        while i > (delta + 1) ** char - (delta + 1):
            delta += 1
        for j, a in _scan(i + delta, t, f.terms):
            mat.set(i - 1, j - 1, a)
    return mat


def _scan_r(f, g, d):
    m, n = f.degree, g.degree
    ucols, vcols = n // d, m // d
    mat = SparseMatrix(m * n // d, ucols + vcols, p=f.ring.p)
    for i in range(1, m * n // d + 1):
        for j, a in _scan(i, ucols, f.terms):
            mat.set(i - 1, j - 1, a)
        for j, b in _scan(i, vcols, g.terms):
            mat.set(i - 1, ucols + j - 1, b)
    return mat


def _scan_d(f, k, d):
    cols = f.degree // d
    rows = []
    for i in range(1, f.degree * f.degree // d + 1):
        row = {j - 1: LogProduct.constant(a) for j, a in _scan(i, cols, f.terms)}
        for j, a in _scan(i, cols, f.terms):
            val = LogProduct.log_of(i // j).pow(k) * (Fraction(-1) ** k * Fraction(a))
            if val:
                row[cols + j - 1] = val
        if row:
            rows.append(row)
    return rows


def _same(mat, ref):
    return (mat.rows, mat.cols, mat.p, mat.entries) == (ref.rows, ref.cols, ref.p, ref.entries)


def test_power_free_builders_match_divisor_scan():
    rng = random.Random(79)
    for char, n, p, k in [(2, 4, 2, 2), (2, 8, 2, 2), (2, 9, 3, 2), (2, 12, 2, 2),
                          (3, 4, 2, 2), (3, 8, 2, 2), (3, 8, 2, 3), (3, 9, 3, 2),
                          (3, 12, 2, 2)]:
        polys = all_fp_polys(char, n) if char ** n <= 600 else [
            DirichletPoly({n: rng.randrange(1, char),
                           **{i: rng.randrange(char) for i in rng.sample(range(1, n), 3)}},
                          GF(char)) for _ in range(40)]
        for f in polys:
            assert _same(build_a_matrix(f, p, k), _scan_a(f, p, k)), f.text()
            assert _same(build_b_matrix(f, p, k), _scan_b(f, p, k)), f.text()


def test_common_factor_and_derivative_builders_match_divisor_scan():
    rng = random.Random(83)
    for _ in range(150):
        f, g = _rand(rng), _rand(rng)
        if rng.random() < 0.4:
            p = rng.choice((2, 3))
            f, g = (DirichletPoly(h.terms, GF(p)) for h in (f, g))
        if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
            continue
        for d in {1, gcd(f.degree, g.degree)}:
            assert _same(build_r_matrix(f, g, d), _scan_r(f, g, d)), (f.text(), g.text(), d)
        if f.ring == ZZ and f.deg_min == 1:
            for k in (1, 2):
                for d in (1, f.degree):
                    assert build_d_matrix(f, k, d) == _scan_d(f, k, d), (f.text(), k, d)


def test_row_lists_are_the_nonempty_rows_in_order():
    rng = random.Random(89)
    for _ in range(60):
        f = DirichletPoly({12: 1, **{i: rng.randrange(1, 3) for i in rng.sample(range(1, 12), 3)}},
                          GF(3))
        for mat in (build_a_matrix(f, 2, 2), build_b_matrix(f, 2, 2)):
            dense = [dict() for _ in range(mat.rows)]
            for (i, j), v in mat.entries.items():
                dense[i][j] = v
            rows = mat.row_lists()
            assert rows == [r for r in dense if r]
            assert [list(r) for r in rows] == [list(r) for r in dense if r]
