"""Matrix-rank criteria: k-power-freeness in prime characteristic, common
factor detection, and derivative matrices over a symbolic-log ring.

Ranks are exact: Gaussian elimination over F_p, fraction-free elimination
over Q, and fraction-free elimination over the field of fractions of the
polynomial ring Q[L_p : p prime] for derivative matrices, where L_p stands
for log p and the entries are certlog.LogProduct values.  Full rank of a
symbolic matrix certifies the real statement only if the logarithms of
primes are algebraically independent, so those verdicts carry an assumption
flag; a symbolic rank deficiency is a true identity and needs no assumption.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm

from .certlog import LogProduct
from .core import DirichletPoly, exponents, gcd_list
from .degrees import max_multiplicity
from . import report
from .report import LOG_INDEPENDENCE, CriterionReport, inconclusive


# ---------------------------------------------------------------------------
# sparse matrices


@dataclass
class SparseMatrix:
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # (i, j) -> value, no zeros
    ring: str = "Q"  # "Q" | "Fp" | "symlog"
    p: int | None = None

    def set(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if v:
            self.entries[(i, j)] = v
        else:
            self.entries.pop((i, j), None)

    def row_lists(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        return rows

    def to_triplets(self):
        return sorted((i, j, v) for (i, j), v in self.entries.items())


def rank_fp(mat: SparseMatrix) -> int:
    """Sparse Gaussian elimination over F_p with a cheapest-pivot choice."""
    p = mat.p
    rows = [r for r in mat.row_lists() if r]
    rank = 0
    while rows:
        # pivot on the shortest row (Markowitz-flavored)
        rows.sort(key=len)
        piv = rows.pop(0)
        rank += 1
        j0, a = next(iter(piv.items()))
        inv = pow(a, -1, p)
        piv = {j: v * inv % p for j, v in piv.items()}
        out = []
        for r in rows:
            c = r.get(j0)
            if c:
                r = {j: (r.get(j, 0) - c * piv.get(j, 0)) % p
                     for j in set(r) | set(piv)}
                r = {j: v for j, v in r.items() if v}
            if r:
                out.append(r)
        rows = out
    return rank


def rank_q(mat: SparseMatrix) -> int:
    """Fraction-free (two-step Bareiss style) elimination over Q: rows are
    cleared to integers first, then eliminated with exact cross products."""
    rows = []
    for r in mat.row_lists():
        if not r:
            continue
        den = lcm(*(Fraction(v).denominator for v in r.values()))
        ints = {j: int(Fraction(v) * den) for j, v in r.items()}
        g = gcd_list(ints.values())
        rows.append({j: v // g for j, v in ints.items()})
    rank = 0
    while rows:
        rows.sort(key=len)
        piv = rows.pop(0)
        rank += 1
        j0 = min(piv)
        a = piv[j0]
        out = []
        for r in rows:
            c = r.get(j0)
            if c is not None:
                r = {j: a * r.get(j, 0) - c * piv.get(j, 0) for j in set(r) | set(piv)}
                r = {j: v for j, v in r.items() if v}
                if r:
                    g = gcd_list(r.values())
                    r = {j: v // g for j, v in r.items()}
            if r:
                out.append(r)
        rows = out
    return rank


def nullspace_fp(mat: SparseMatrix) -> list[list[int]]:
    """Basis of the right nullspace over F_p (dense, small matrices)."""
    p = mat.p
    dense = [[0] * mat.cols for _ in range(mat.rows)]
    for (i, j), v in mat.entries.items():
        dense[i][j] = v % p
    pivots = []
    r = 0
    for c in range(mat.cols):
        pr = next((i for i in range(r, mat.rows) if dense[i][c]), None)
        if pr is None:
            continue
        dense[r], dense[pr] = dense[pr], dense[r]
        inv = pow(dense[r][c], -1, p)
        dense[r] = [x * inv % p for x in dense[r]]
        for i in range(mat.rows):
            if i != r and dense[i][c]:
                f = dense[i][c]
                dense[i] = [(x - f * y) % p for x, y in zip(dense[i], dense[r])]
        pivots.append(c)
        r += 1
        if r == mat.rows:
            break
    free = [c for c in range(mat.cols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [0] * mat.cols
        vec[fc] = 1
        for i, pc in enumerate(pivots):
            vec[pc] = (-dense[i][fc]) % p
        basis.append(vec)
    return basis


def rank_symbolic(rows_in: list[dict[int, LogProduct]]) -> int:
    """Fraction-free elimination over the fraction field of Q[L_p]."""
    rows = [dict(r) for r in rows_in if r]
    rank = 0
    while rows:
        rows.sort(key=lambda r: (len(r), min(r)))
        piv = rows.pop(0)
        rank += 1
        j0 = min(piv)
        a = piv[j0]
        out = []
        for r in rows:
            c = r.get(j0)
            if c is not None:
                r = {
                    j: a * r.get(j, LogProduct()) - c * piv.get(j, LogProduct())
                    for j in set(r) | set(piv)
                }
                r = {j: v for j, v in r.items() if v}
            if r:
                out.append(r)
        rows = out
    return rank


# ---------------------------------------------------------------------------
# the power-freeness matrices in prime characteristic


def _check_b_matrix_inputs(f: DirichletPoly, p: int, k: int):
    if f.ring.kind != "Fp":
        raise ValueError("needs coefficients in a prime field")
    char = f.ring.p
    if k < 2 or char < k:
        raise ValueError(f"need characteristic >= k >= 2, got char {char}, k {k}")
    n = f.degree
    if n % p**k:
        raise ValueError(f"{p}^{k} must divide deg f = {n}")


def build_b_matrix(f: DirichletPoly, p: int, k: int) -> SparseMatrix:
    """The reduced linear system whose full rank forbids f | g^char with
    deg g = n/p^(k-1): rows indexed by non-power convolution equations,
    columns by the cofactor coefficients.

    Dimensions ((n/p^(k-1))^char - n/p^(k-1)) x n^(char-1) / p^((k-1)*char).
    """
    _check_b_matrix_inputs(f, p, k)
    char = f.ring.p
    n = f.degree
    gdeg = n // p ** (k - 1)
    t = n ** (char - 1) // p ** ((k - 1) * char)
    rows = gdeg**char - gdeg
    mat = SparseMatrix(rows, t, ring="Fp", p=char)
    coeffs = f.terms
    # row i sits in the block S_delta, and corresponds to the convolution
    # equation at original index i + delta (the delta-th power rows removed)
    delta = 1
    for i in range(1, rows + 1):
        while i > (delta + 1) ** char - (delta + 1):
            delta += 1
        orig = i + delta
        for j in range(1, t + 1):
            if orig % j == 0:
                a = coeffs.get(orig // j, 0)
                if a:
                    mat.set(i - 1, j - 1, a)
    return mat


def build_a_matrix(f: DirichletPoly, p: int, k: int) -> SparseMatrix:
    """The unreduced system: t cofactor columns then n/p^(k-1) columns of
    -1 entries at power rows."""
    _check_b_matrix_inputs(f, p, k)
    char = f.ring.p
    n = f.degree
    gdeg = n // p ** (k - 1)
    t = n ** (char - 1) // p ** ((k - 1) * char)
    rows = gdeg**char
    mat = SparseMatrix(rows, t + gdeg, ring="Fp", p=char)
    coeffs = f.terms
    for i in range(1, rows + 1):
        for j in range(1, t + 1):
            if i % j == 0:
                a = coeffs.get(i // j, 0)
                if a:
                    mat.set(i - 1, j - 1, a)
    for d in range(1, gdeg + 1):
        mat.set(d**char - 1, t + d - 1, char - 1)  # -1 mod char
    return mat


def mobius_coprime_count(a: int, b: int) -> int:
    """Number of integers in [1, a] coprime to b, by Mobius inversion over
    the squarefree divisors of b."""
    primes = list(exponents(b))
    total = 0
    for mask in range(1 << len(primes)):
        d = 1
        bits = 0
        for idx, q in enumerate(primes):
            if mask >> idx & 1:
                d *= q
                bits += 1
        total += (-1) ** bits * (a // d)
    return total


def forced_zero_row_indices(f_degree: int, p: int, k: int, char: int) -> list[int]:
    """Row indices of the unreduced system that are zero for every f: index
    above max(t, n), not a char-th power, coprime to every prime <= t."""
    n = f_degree
    gdeg = n // p ** (k - 1)
    t = n ** (char - 1) // p ** ((k - 1) * char)
    lo = max(t, n)
    hi = gdeg**char
    primes = [q for q in range(2, t + 1) if all(q % r for r in range(2, q))]
    powers = {d**char for d in range(1, gdeg + 1)}
    out = []
    for i in range(lo + 1, hi + 1):
        if i in powers:
            continue
        if all(i % q for q in primes):
            out.append(i)
    return out


def k_power_free_charp(f: DirichletPoly, k: int) -> CriterionReport:
    """k-power-freeness over a prime field from full rank of the reduced
    systems at every prime p with p^k | deg f.

    For k = 2 the prime field is perfect, so rank deficiency conversely
    produces a verified witness pair (g, h) with f * h = g^char: the verdict
    is then not-square-free.
    """
    if f.ring.kind != "Fp":
        raise ValueError("needs coefficients in a prime field")
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    char = f.ring.p
    if k < 2:
        raise ValueError("k must be >= 2")
    if char < k:
        raise ValueError(f"characteristic {char} below k = {k}")
    n = f.degree
    if max_multiplicity(n) < k:
        verdict = report.SQUARE_FREE if k == 2 else report.K_POWER_FREE
        return CriterionReport(
            verdict, "degree-multiplicity",
            f"no prime factor of deg f = {n} has multiplicity >= {k}",
            certificate={"k": k},
        )
    qualifying = [q for q, e in exponents(n).items() if e >= k]
    ranks = {}
    for p in qualifying:
        mat = build_b_matrix(f, p, k)
        r = rank_fp(mat)
        ranks[p] = (r, mat.cols)
        if r < mat.cols:
            if k == 2:
                witness = _square_witness(f, p, mat)
                if witness is not None:
                    g, h = witness
                    return CriterionReport(
                        report.NOT_SQUARE_FREE, "power-free-rank",
                        f"rank deficiency at p={p} yields f*h = g^{char}",
                        certificate={"p": p, "g": g.text(), "h": h.text(),
                                     "ranks": ranks},
                    )
            return inconclusive(
                "power-free-rank",
                f"system at p={p} is rank deficient ({r} < {mat.cols})",
                ranks=ranks,
            )
    verdict = report.SQUARE_FREE if k == 2 else report.K_POWER_FREE
    return CriterionReport(
        verdict, "power-free-rank",
        f"full rank at every prime with multiplicity >= {k} in deg f",
        certificate={"k": k, "ranks": ranks},
    )


def _square_witness(f: DirichletPoly, p: int, mat: SparseMatrix):
    """Turn a nullspace vector of the unreduced system into (g, h) with
    f * h = g^char; over the prime field the Frobenius is the identity, so
    the c^char unknowns are the coefficients of g themselves."""
    char = f.ring.p
    gdeg = f.degree // p
    t = mat.cols
    basis = nullspace_fp(build_a_matrix(f, p, 2))
    for vec in basis:
        h = DirichletPoly({i + 1: vec[i] for i in range(t) if vec[i]}, f.ring)
        g = DirichletPoly(
            {i + 1: vec[t + i] for i in range(gdeg) if vec[t + i]}, f.ring)
        if h.is_zero() or g.is_zero():
            continue
        if f * h == g.pow(char):
            return g, h
    return None


# ---------------------------------------------------------------------------
# common-factor matrices (the convolution analogue of the Sylvester matrix)


def build_r_matrix(f: DirichletPoly, g: DirichletPoly, d: int) -> SparseMatrix:
    """System for f*u + g*v = 0 with deg u = (deg g)/d, deg v = (deg f)/d:
    (mn/d) rows, (m+n)/d columns; full column rank forbids common factors of
    degree >= d."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    m, n = f.degree, g.degree
    if m < 1 or n < 1:
        raise ValueError("nonzero inputs required")
    if m % d or n % d:
        raise ValueError(f"d = {d} must divide both degrees {m}, {n}")
    rows = m * n // d
    ucols = n // d
    vcols = m // d
    ring = "Fp" if f.ring.kind == "Fp" else "Q"
    p = f.ring.p if f.ring.kind == "Fp" else None
    mat = SparseMatrix(rows, ucols + vcols, ring=ring, p=p)
    fa, gb = f.terms, g.terms
    for i in range(1, rows + 1):
        for j in range(1, ucols + 1):
            if i % j == 0:
                a = fa.get(i // j, 0)
                if a:
                    mat.set(i - 1, j - 1, a)
        for j in range(1, vcols + 1):
            if i % j == 0:
                b = gb.get(i // j, 0)
                if b:
                    mat.set(i - 1, ucols + j - 1, b)
    return mat


def common_factor_test(f: DirichletPoly, g: DirichletPoly, d: int = 1) -> CriterionReport:
    """Decide common factors of degree >= d from the rank of the combined
    convolution system.

    The kernel of the system is spanned by the pairs (g1*t, -f1*t) with
    f = h*f1, g = h*g1 for the degree-k gcd h, and t running over supports
    up to k/d, so rank(R_d) = (m+n)/d - floor(k/d).  For d >= 2 full column
    rank is exactly "no common factor of degree >= d"; for d = 1 the pair
    (g, -f) always costs one dimension and the rank recovers the gcd degree
    k = m + n - rank outright, with coprimality at k = 1."""
    if f.ring.kind == "Q" or g.ring.kind == "Q":
        f, g = f.z_primitive_part(), g.z_primitive_part()
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    mat = build_r_matrix(f, g, d)
    r = rank_fp(mat) if f.ring.kind == "Fp" else rank_q(mat)
    full = mat.cols
    if d == 1:
        k = full - r
        cert = {"d": 1, "rank": r, "full": full, "gcd_degree": k}
        if k == 1:
            return CriterionReport(
                report.NO_COMMON_FACTOR, "common-factor-rank",
                "relatively prime (gcd degree 1 from the rank)", certificate=cert)
        return CriterionReport(
            report.COMMON_FACTOR, "common-factor-rank",
            f"gcd has degree {k} (from rank {r} = {full} - {k})", certificate=cert)
    if r == full:
        return CriterionReport(
            report.NO_COMMON_FACTOR, "common-factor-rank",
            f"no common factor of degree >= {d}",
            certificate={"d": d, "rank": r, "full": full},
        )
    return CriterionReport(
        report.COMMON_FACTOR, "common-factor-rank",
        f"rank {r} < {full}: a common factor of degree >= {d} exists",
        certificate={"d": d, "rank": r, "full": full},
    )


# ---------------------------------------------------------------------------
# derivative matrices over the symbolic-log ring


def build_d_matrix(f: DirichletPoly, k: int = 1, d: int = 1) -> list[dict[int, LogProduct]]:
    """Rows of the common-factor system for (f, f^(k)) with the k-th
    derivative entries (-1)^k a_(i/j) log^k(i/j) expanded over the L_p
    symbols.  f must have a nonzero constant term (support starting at 1)."""
    if f.ring.kind not in ("Z", "Q"):
        raise ValueError("needs integer or rational coefficients")
    m = f.degree
    if m % d:
        raise ValueError("d must divide deg f")
    if f.deg_min != 1:
        raise ValueError("derivative matrices assume a nonzero constant term")
    cols = m // d
    rows_n = m * m // d
    fa = f.terms
    rows: list[dict[int, LogProduct]] = []
    sign = Fraction(-1) ** k
    for i in range(1, rows_n + 1):
        row: dict[int, LogProduct] = {}
        for j in range(1, cols + 1):
            if i % j == 0:
                a = fa.get(i // j)
                if a:
                    row[j - 1] = LogProduct.constant(a)
        for j in range(1, cols + 1):
            if i % j == 0:
                a = fa.get(i // j)
                if a:
                    val = LogProduct.log_of(i // j).pow(k) * (sign * Fraction(a))
                    if val:
                        row[cols + j - 1] = val
        if row:
            rows.append(row)
    return rows


def derivative_rank_test(f: DirichletPoly, k: int = 1, d: int = 1) -> CriterionReport:
    """Square-freeness (k = 1, d = 1) and multiplicity bounds from the rank
    of the derivative system over Q(L_p).

    Rank deficiency is an identity in the log symbols, hence holds for the
    real logarithms too: the common-factor direction is unconditional.  Full
    rank certifies the real statement only if the logs of primes are
    algebraically independent, so that verdict carries the assumption flag.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    if not f.is_algebraically_primitive():
        raise ValueError("input must be algebraically primitive")
    m = f.degree
    rows = build_d_matrix(f, k, d)
    r = rank_symbolic(rows)
    # the pair (f^(k), -f) always spans one kernel dimension at d = 1, so
    # the decisive rank there is 2m - 1 and 2m - rank recovers deg gcd
    full = 2 * m // d - (1 if d == 1 else 0)
    if r < full:
        cert = {"rank": r, "full": full}
        if d == 1:
            cert["gcd_degree"] = 2 * m - r
        if k == 1 and d == 1:
            return CriterionReport(
                report.NOT_SQUARE_FREE, "derivative-rank",
                f"symbolic rank {r} < {full}: f and f' share a nonconstant factor",
                certificate=cert,
            )
        return inconclusive(
            "derivative-rank", f"symbolic rank {r} < {full}", **cert)
    if k == 1 and d == 1:
        return CriterionReport(
            report.SQUARE_FREE, "derivative-rank",
            f"decisive symbolic rank {full}: f and f' are relatively prime",
            (LOG_INDEPENDENCE,), {"rank": r, "full": full},
        )
    if d > 1:
        return CriterionReport(
            report.K_POWER_FREE, "derivative-rank",
            f"f and its order-{k} derivative share no factor of degree >= {d}",
            (LOG_INDEPENDENCE,), {"rank": r, "full": full, "d": d, "k": k},
        )
    return CriterionReport(
        report.K_POWER_FREE, "derivative-rank",
        f"f and its order-{k} derivative are relatively prime: "
        f"multiplicities are at most {k}",
        (LOG_INDEPENDENCE,), {"rank": r, "full": full, "bound": k},
    )
