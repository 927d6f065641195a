"""Matrix-rank criteria: k-power-freeness in prime characteristic, common
factor detection, and derivative matrices over a symbolic-log ring.

Every system here is a convolution system: column j of a block holds the
coefficients of a Dirichlet polynomial f moved to rows a*j, a in the support
of f.  One helper fills all of them from the support, and one sparse
fraction-free elimination decides every rank.  It keeps an index from each
column to the rows with an entry there and a heap of (row length, position):
the next pivot is the shortest live row, ties going to the lowest position.
It pivots on that row's lowest column and replaces only the rows listed for
that column, each r by a*r - c*piv, reduced by the rule of its ring: mod p
over F_p, divided by the row content over Z (rows over Q are cleared to
integers first), zeros dropped over Q[L_p : p prime].  A one-entry pivot
just deletes its column from those rows.  Each pivot row is zero at the
lowest columns of the pivots before it, so the lead columns are distinct and
are the reduced-row-echelon pivots whatever the pivot order; over a field
back-substitution from the pivot rows gives the canonical nullspace basis.

The derivative entries live in Q[L_p], L_p standing for log p, as
certlog.LogProduct values.  Full rank of a symbolic matrix certifies the real
statement only if the logarithms of primes are algebraically independent, so
those verdicts carry an assumption flag; a symbolic rank deficiency is a true
identity and needs no assumption.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .certlog import LogProduct
from .core import DirichletPoly, common_ring, exponents
from .degrees import max_multiplicity
from . import report
from .report import LOG_INDEPENDENCE, CriterionReport, inconclusive


# ---------------------------------------------------------------------------
# the elimination kernel


def mod_p(p: int):
    """Row reduction over F_p: entries mod p, zeros dropped."""
    return lambda row: {j: x for j, v in row.items() if (x := v % p)}


def content(row: dict) -> dict:
    """Row reduction over Z and Q: zeros dropped, denominators cleared, then
    divided by the content of the integer row."""
    den = lcm(*(v.denominator for v in row.values()))
    row = {j: int(v * den) for j, v in row.items() if v}
    g = gcd(*row.values())
    return {j: v // g for j, v in row.items()} if g > 1 else row


def nonzero(row: dict) -> dict:
    """Row reduction over Q[L_p]: zeros dropped."""
    return {j: v for j, v in row.items() if v}


def eliminate(rows, reduce) -> list[dict]:
    """Sparse fraction-free forward elimination of the row dicts (column ->
    entry) over an integral domain; returns the pivot rows in pivot order.
    Each pivot row is zero at the lowest columns of the pivot rows before it.
    The caller's rows are left as they are."""
    # every reduce rule builds a new dict, so the live rows are the kernel's
    # own and change in place; the index is only added to, and a listed row
    # that has since lost the column is skipped
    live = [r or None for r in map(reduce, rows)]
    heap = []
    listed: dict = {}  # column -> positions that have (or had) an entry there
    for i, r in enumerate(live):
        if r:
            heap.append((len(r), i))
            for j in r:
                listed.setdefault(j, []).append(i)
    heapify(heap)
    pivots = []
    while heap:
        n, i = heappop(heap)
        piv = live[i]
        if piv is None or len(piv) != n:
            continue  # pivoted, emptied, or pushed again with a new length
        live[i] = None
        pivots.append(piv)
        j0 = min(piv)
        a = piv[j0]
        rest = [(j, w) for j, w in piv.items() if j != j0]
        for k in listed.pop(j0):
            r = live[k]
            if r is None or j0 not in r:
                continue
            before = len(r)
            c = r.pop(j0)
            if rest:
                if a != 1:
                    r = {j: a * v for j, v in r.items()}
                for j, w in rest:
                    if j in r:
                        r[j] = r[j] - c * w
                    else:
                        r[j] = -(c * w)
                        listed[j].append(k)
                r = reduce(r)
            if not r:
                live[k] = None
                continue
            live[k] = r
            if len(r) != before:
                heappush(heap, (len(r), k))
    return pivots


def rank(rows, reduce) -> int:
    return len(eliminate(rows, reduce))


def nullspace(rows, cols: int, p: int | None = None) -> list[list]:
    """Basis of the right nullspace over F_p, or over Q when p is None: one
    vector per free column, 1 there and 0 at the other free columns."""
    pivots = eliminate(rows, mod_p(p) if p else content)
    lead = [min(r) for r in pivots]
    basis = []
    for free in sorted(set(range(cols)) - set(lead)):
        x = {free: 1}
        for r, j0 in zip(reversed(pivots), reversed(lead)):
            s = -sum(v * x.get(j, 0) for j, v in r.items() if j != j0)
            x[j0] = s * pow(r[j0], -1, p) % p if p else Fraction(s, r[j0])
        basis.append([x.get(j, 0) for j in range(cols)])
    return basis


@dataclass
class SparseMatrix:
    rows: int
    cols: int
    entries: dict = field(default_factory=dict)  # (i, j) -> value, no zeros
    p: int | None = None  # entries in F_p, or in Z or Q when None

    def set(self, i, j, v):
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        if v:
            self.entries[(i, j)] = v
        else:
            self.entries.pop((i, j), None)

    def row_lists(self):
        """The nonempty rows as column -> entry dicts, in row order."""
        rows: dict = {}
        for (i, j), v in self.entries.items():
            rows.setdefault(i, {})[j] = v
        return [rows[i] for i in sorted(rows)]

    def to_triplets(self):
        return sorted((i, j, v) for (i, j), v in self.entries.items())

    def rank(self) -> int:
        return rank(self.row_lists(), mod_p(self.p) if self.p else content)


def _convolution(terms: dict, cols: int):
    """(row a*j, column j, support index a) for the block of f*u with u
    running over columns 1..cols; rows and columns are 1-based."""
    for j in range(1, cols + 1):
        for a in terms:
            yield a * j, j, a


# ---------------------------------------------------------------------------
# the power-freeness matrices in prime characteristic


def _power_free_dims(f: DirichletPoly, p: int, k: int):
    """(char, deg g = n/p^(k-1), cofactor columns t) of the systems at p."""
    if f.ring.kind != "Fp":
        raise ValueError("needs coefficients in a prime field")
    char = f.ring.p
    if k < 2 or char < k:
        raise ValueError(f"need characteristic >= k >= 2, got char {char}, k {k}")
    n = f.degree
    if n % p**k:
        raise ValueError(f"{p}^{k} must divide deg f = {n}")
    return char, n // p ** (k - 1), n ** (char - 1) // p ** ((k - 1) * char)


def build_b_matrix(f: DirichletPoly, p: int, k: int) -> SparseMatrix:
    """The reduced linear system whose full rank forbids f | g^char with
    deg g = n/p^(k-1): rows indexed by non-power convolution equations,
    columns by the cofactor coefficients.

    Dimensions ((n/p^(k-1))^char - n/p^(k-1)) x n^(char-1) / p^((k-1)*char).
    """
    char, gdeg, t = _power_free_dims(f, p, k)
    mat = SparseMatrix(gdeg**char - gdeg, t, p=char)
    coeffs = f.terms
    # the power rows d^char are removed: equation orig sits at row
    # orig - #{d : d^char <= orig} (1-based)
    powers = [d**char for d in range(1, gdeg + 1)]
    for orig, j, a in _convolution(coeffs, t):
        below = bisect_right(powers, orig)
        if powers[below - 1] != orig:
            mat.set(orig - below - 1, j - 1, coeffs[a])
    return mat


def build_a_matrix(f: DirichletPoly, p: int, k: int) -> SparseMatrix:
    """The unreduced system: t cofactor columns then n/p^(k-1) columns of
    -1 entries at power rows."""
    char, gdeg, t = _power_free_dims(f, p, k)
    mat = SparseMatrix(gdeg**char, t + gdeg, p=char)
    coeffs = f.terms
    for i, j, a in _convolution(coeffs, t):
        mat.set(i - 1, j - 1, coeffs[a])
    for d in range(1, gdeg + 1):
        mat.set(d**char - 1, t + d - 1, char - 1)  # -1 mod char
    return mat


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
        r = mat.rank()
        ranks[p] = (r, mat.cols)
        if r < mat.cols:
            if k == 2:
                witness = _square_witness(f, p)
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


def _square_witness(f: DirichletPoly, p: int):
    """Turn a nullspace vector of the unreduced system into (g, h) with
    f * h = g^char; over the prime field the Frobenius is the identity, so
    the c^char unknowns are the coefficients of g themselves."""
    char, gdeg, t = _power_free_dims(f, p, 2)
    a = build_a_matrix(f, p, 2)
    for vec in nullspace(a.row_lists(), a.cols, char):
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
    f, g = common_ring(f, g)
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
    mat = SparseMatrix(rows, ucols + vcols, p=f.ring.p)
    fa, gb = f.terms, g.terms
    for i, j, a in _convolution(fa, ucols):
        mat.set(i - 1, j - 1, fa[a])
    for i, j, b in _convolution(gb, vcols):
        mat.set(i - 1, ucols + j - 1, gb[b])
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
    r = mat.rank()
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
    if k < 1:
        raise ValueError("need derivative order k >= 1")
    m = f.degree
    if m % d:
        raise ValueError("d must divide deg f")
    if f.deg_min != 1:
        raise ValueError("derivative matrices assume a nonzero constant term")
    cols = m // d
    fa = f.terms
    sign = Fraction(-1) ** k
    deriv = {a: LogProduct.log_of(a).pow(k) * (sign * Fraction(c)) for a, c in fa.items()}
    rows: dict[int, dict[int, LogProduct]] = {}
    for i, j, a in _convolution(fa, cols):
        row = rows.setdefault(i, {})
        row[j - 1] = LogProduct.constant(fa[a])
        if deriv[a]:
            row[cols + j - 1] = deriv[a]
    return [rows[i] for i in sorted(rows)]


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
    r = rank(rows, nonzero)
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
