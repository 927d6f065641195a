"""Support geometry of multivariate Dirichlet polynomials in exact
prime-exponent coordinates.

A support point (i_1, ..., i_n) stands for the log point
(log i_1, ..., log i_n).  All lattice questions (gcd-bar, segment
subdivision) are decided on the integer exponent vectors.  Convex-hull
vertex identification works in the exponent lift: a point counts as interior
when it is a rational convex combination of the others coordinate-by-symbol,
which is the hull notion induced by treating the logs of distinct primes as
independent symbols.  Every verdict that leans on that identification is
flagged with the independence assumption; the one-variable case falls back
to plain index ordering, which is exact outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import exponents, gcd_list, iroot, log_gcd, log_points
from .certlog import NEGATIVE, POSITIVE, ZERO, log_orientation
from .multivariate import MultiDirichletPoly
from . import report
from .report import LOG_INDEPENDENCE, CriterionReport, inconclusive


ExponentPoint = tuple[int, ...]  # positive integer index per indeterminate


# ---------------------------------------------------------------------------
# gcd-bar arithmetic and lattice points on segments


def gcd_bar(v: ExponentPoint, w: ExponentPoint) -> int:
    """gcd over coordinates of the per-prime valuation-difference gcds:
    the number of lattice subdivisions of the segment between the log
    images of v and w."""
    if v == w:
        raise ValueError("points must differ")
    if len(v) != len(w):
        raise ValueError("dimension mismatch")
    return gcd_list(log_gcd(a, b) for a, b in zip(v, w))


def gcd_bar_multi(segments) -> int:
    return gcd_list(gcd_bar(v, w) for v, w in segments)


def segment_lattice_points(v: ExponentPoint, w: ExponentPoint) -> list[ExponentPoint]:
    """All d+1 log-integral points on the segment from v to w, where
    d = gcd_bar(v, w): the i-th has coordinates a^(1-i/d) * b^(i/d)."""
    d = gcd_bar(v, w)
    return list(zip(*(log_points(a, b, d) for a, b in zip(v, w))))


# ---------------------------------------------------------------------------
# exponent lift and exact hull membership


def _lift_basis(points) -> list[int]:
    return sorted({p for pt in points for i in pt for p in exponents(i)})


def _lift(pt: ExponentPoint, primes: list[int]) -> tuple[int, ...]:
    return tuple(exponents(i).get(p, 0) for i in pt for p in primes)


def _feasible(A: list[list[Fraction]], b: list[Fraction]) -> bool:
    """Exact phase-1 simplex: does A x = b admit x >= 0?  Bland's rule."""
    m = len(A)
    n = len(A[0]) if m else 0
    T = []
    for i in range(m):
        row = [Fraction(x) for x in A[i]]
        bi = Fraction(b[i])
        if bi < 0:
            row = [-x for x in row]
            bi = -bi
        T.append(row + [bi])
    basis = list(range(n, n + m))  # artificial j in row j - n
    # reduced objective coefficients for minimizing the artificial sum
    sigma = [sum(T[i][j] for i in range(m)) for j in range(n)]
    value = sum(T[i][-1] for i in range(m))
    while True:
        e = next((j for j in range(n) if sigma[j] > 0), None)
        if e is None:
            return value == 0
        ratios = [
            (T[i][-1] / T[i][e], basis[i], i) for i in range(m) if T[i][e] > 0
        ]
        if not ratios:
            return False  # unbounded cannot happen in phase 1; defensive
        _, _, r = min(ratios)
        piv = T[r][e]
        T[r] = [x / piv for x in T[r]]
        for i in range(m):
            if i != r and T[i][e]:
                c = T[i][e]
                T[i] = [x - c * y for x, y in zip(T[i], T[r])]
        c = sigma[e]
        sigma = [x - c * y for x, y in zip(sigma, T[r][:-1])]
        value -= c * T[r][-1]
        basis[r] = e


def _in_hull_lift(target, others) -> bool:
    """target in conv(others) with rational weights, in lifted coordinates."""
    if not others:
        return False
    dim = len(target)
    A = [[Fraction(pt[d]) for pt in others] for d in range(dim)]
    b = [Fraction(t) for t in target]
    A.append([Fraction(1)] * len(others))
    b.append(Fraction(1))
    return _feasible(A, b)


def hull_vertices(points: list[ExponentPoint]) -> list[ExponentPoint]:
    """Vertex set of the log hull of the given support points.

    One variable: exact (min and max index).  Several variables: the
    exponent-lift notion, exact rational linear programming per point, with
    a direction-exposure fast path."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts
    if len(pts[0]) == 1:
        return [pts[0], pts[-1]]
    primes = _lift_basis(pts)
    lifted = {pt: _lift(pt, primes) for pt in pts}
    dim = len(next(iter(lifted.values())))

    # fast path: a point uniquely extremal in some coordinate direction is a
    # vertex (strict exposure)
    certain = set()
    for d in range(dim):
        for sign in (1, -1):
            best = None
            best_pts = []
            for pt in pts:
                v = sign * lifted[pt][d]
                if best is None or v > best:
                    best, best_pts = v, [pt]
                elif v == best:
                    best_pts.append(pt)
            if len(best_pts) == 1:
                certain.add(best_pts[0])

    out = []
    for pt in pts:
        if pt in certain:
            out.append(pt)
            continue
        others = [lifted[q] for q in pts if q != pt]
        if not _in_hull_lift(lifted[pt], others):
            out.append(pt)
    return sorted(out)


@dataclass(frozen=True)
class LogPolytope:
    n_vars: int
    support: tuple[ExponentPoint, ...]
    vertices: tuple[ExponentPoint, ...]
    assumptions: tuple[str, ...] = ()

    @classmethod
    def of(cls, f: MultiDirichletPoly) -> "LogPolytope":
        return cls.from_points(f.support())

    @classmethod
    def from_points(cls, points) -> "LogPolytope":
        supp = tuple(sorted(set(tuple(p) for p in points)))
        if not supp:
            raise ValueError("empty point set")
        verts = tuple(hull_vertices(list(supp)))
        flags = () if len(supp[0]) == 1 else (LOG_INDEPENDENCE,)
        return cls(len(supp[0]), supp, verts, flags)


def minkowski_sum(P: LogPolytope, Q: LogPolytope) -> LogPolytope:
    """Sum in log space = coordinatewise index products; the vertex set is
    extracted from the pairwise products of the summands' vertices."""
    if P.n_vars != Q.n_vars:
        raise ValueError("dimension mismatch")
    pts = sorted({
        tuple(a * b for a, b in zip(u, v)) for u in P.vertices for v in Q.vertices
    })
    verts = tuple(hull_vertices(pts))
    flags = tuple(sorted(set(P.assumptions) | set(Q.assumptions)))
    return LogPolytope(P.n_vars, tuple(pts), verts, flags)


# ---------------------------------------------------------------------------
# two-term absolute irreducibility


def two_term_absolute_irreducibility(
    f: MultiDirichletPoly, algebraically_closed: bool = True
) -> CriterionReport:
    """A two-term multivariate Dirichlet polynomial is absolutely
    irreducible iff the multiplicities of all primes in its (coordinatewise
    coprime) index tuples are relatively prime.

    The reducible direction needs roots of the coefficients, so over a field
    that is not declared algebraically closed only the irreducible direction
    is reported."""
    supp = f.support()
    if len(supp) != 2:
        raise ValueError("needs exactly two terms")
    if not f.is_algebraically_primitive():
        f = f.algebraically_primitive_part()
        supp = f.support()
    (va, ca), (vb, cb) = sorted(f.items())
    g = gcd_list(e for x in va + vb for e in exponents(x).values())
    if g == 1:
        return CriterionReport(
            report.ABSOLUTELY_IRREDUCIBLE, "two-term-exponent-gcd",
            "prime multiplicities across both index tuples are coprime",
            certificate={"gcd": 1},
        )
    if not algebraically_closed:
        return inconclusive(
            "two-term-exponent-gcd",
            f"multiplicity gcd {g} > 1; reducibility needs {g}-th roots of "
            "the coefficients, unavailable without an algebraically closed field",
            gcd=g,
        )
    # every exponent of every index is a multiple of g, so the roots exist
    alpha = tuple(iroot(x, g) for x in va)
    beta = tuple(iroot(x, g) for x in vb)
    cert = {"gcd": g, "root_indices": (alpha, beta)}
    witness = _dth_power_witness(f, g, alpha, beta)
    if witness is not None:
        u, v = witness
        cert["witness"] = (u.text(), v.text())
        return CriterionReport(
            report.REDUCIBLE, "two-term-exponent-gcd",
            f"difference-of-{g}th-powers structure; witness verified",
            certificate=cert,
        )
    return CriterionReport(
        report.REDUCIBLE, "two-term-exponent-gcd",
        f"multiplicity gcd {g} > 1: splits over the algebraic closure "
        f"through {g}th roots of the coefficients",
        ("algebraically-closed-coefficient-field",), cert,
    )


def _dth_power_witness(f: MultiDirichletPoly, g: int, alpha, beta):
    """When the coefficient roots exist in the ring, produce a verified
    factor pair for the two-term split (only attempted for g = 2 with
    rational coefficients of opposite sign, the difference of squares)."""
    if g != 2 or f.ring.kind == "Fp":
        return None
    (va, ca), (vb, cb) = sorted(f.items())
    ra = _maybe_sqrt(ca)
    rb = _maybe_sqrt(-cb)
    if ra is None or rb is None:
        return None
    u = MultiDirichletPoly({alpha: ra, beta: rb}, f.vars, f.ring)
    v = MultiDirichletPoly({alpha: ra, beta: -rb}, f.vars, f.ring)
    return (u, v) if u * v == f else None


def _maybe_sqrt(c):
    """The rational square root of c, or None."""
    c = Fraction(c)
    if c < 0:
        return None
    rn, rd = iroot(c.numerator, 2), iroot(c.denominator, 2)
    return None if rn is None or rd is None else Fraction(rn, rd)


# ---------------------------------------------------------------------------
# cone indecomposability (apex plus a polytope inside a hyperplane)


def _hyperplane_separates(v: ExponentPoint, q_vertices: list[ExponentPoint]):
    """Certified check that the q-vertices lie in a common hyperplane that
    misses v.  Returns (status, how) with status in {yes, no, unknown}.

    Two routes, both exact: in the plane with two q-vertices, collinearity
    of the three log points is a product-of-logs sign question; in general a
    hyperplane with a rational normal is searched through the per-prime
    exponent equations, and a nonzero rational pairing with v - q_1 is
    conclusive by the linear independence of the logs of primes."""
    n = len(v)
    if len(q_vertices) == 1:
        return "yes", "single-point"
    if n == 2 and len(q_vertices) == 2:
        sign = log_orientation(q_vertices[0], q_vertices[1], v)
        if sign in (POSITIVE, NEGATIVE):
            return "yes", "planar-determinant"
        if sign == ZERO:
            return "no", "collinear"
        return "unknown", "comparator-cap"
    # rational-normal route
    from .ranktests import nullspace

    primes = _lift_basis([v] + list(q_vertices))

    def offsets(pt):
        # one row per prime: its exponent in pt minus in q_1, coordinate by coordinate
        return [[exponents(a).get(p, 0) - exponents(b).get(p, 0)
                 for a, b in zip(pt, q_vertices[0])] for p in primes]

    rows = [row for q in q_vertices[1:] for row in offsets(q)]
    apex = offsets(v)
    for c in nullspace([dict(enumerate(row)) for row in rows], n):
        if any(sum(x * y for x, y in zip(c, row)) for row in apex):
            return "yes", "rational-normal"
    return "unknown", "no-rational-normal"


def cone_indecomposable(
    v: ExponentPoint, q_vertices: list[ExponentPoint],
    hyperplane_certified: bool = False,
) -> CriterionReport:
    """Indecomposability of conv(v, Q): with Q inside a hyperplane missing
    v, the hull is indecomposable iff gcd_bar over the segments v->q is 1.
    A single q reduces to the segment criterion with no hyperplane needed.
    The caller may assert the hyperplane configuration instead.

    q_vertices must be exactly the vertices of Q's hull: a point interior to
    Q can shrink the gcd and fake the certificate.  Two base points are
    always their own hull vertices; larger bases are on the caller."""
    q_vertices = [tuple(q) for q in q_vertices]
    v = tuple(v)
    if len(q_vertices) == 1:
        d = gcd_bar(v, q_vertices[0])
        return _indec_report(d == 1, "segment-gcd", d, ())
    if hyperplane_certified:
        status, how = "yes", "caller-certificate"
    else:
        status, how = _hyperplane_separates(v, q_vertices)
    if status == "no":
        return inconclusive(
            "cone-gcd", "apex lies in the affine hull of the base; "
            "the hull degenerates to a lower-dimensional polytope")
    if status == "unknown":
        return CriterionReport(
            report.UNDECIDABLE, "cone-gcd",
            f"hyperplane condition unverified ({how}); supply a certificate "
            "to proceed",
        )
    d = gcd_bar_multi((v, q) for q in q_vertices)
    flags = ("caller-supplied-hyperplane",) if hyperplane_certified else ()
    return _indec_report(d == 1, "cone-gcd", d, flags, hyperplane=how)


def _indec_report(ok: bool, rule: str, d: int, flags, **cert) -> CriterionReport:
    if ok:
        return CriterionReport(
            report.ABSOLUTELY_IRREDUCIBLE, rule,
            "log-integrally indecomposable hull (gcd-bar 1)",
            tuple(flags), {"gcd_bar": d, **cert},
        )
    return inconclusive(rule, f"gcd-bar {d} > 1: indecomposability not certified",
                        gcd_bar=d, **cert)


def polytope_irreducibility(f: MultiDirichletPoly) -> CriterionReport:
    """Absolute irreducibility of f from its Newton log-polytope: two-term
    exponent gcd, or an apex-over-hyperplane hull with gcd-bar 1."""
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    if not f.is_algebraically_primitive():
        return inconclusive(
            "log-polytope", "not algebraically primitive: single-term factor exists")
    supp = sorted(f.support())
    if len(supp) == 2:
        return two_term_absolute_irreducibility(f, algebraically_closed=False)
    if len(supp) == 3:
        # two base points are always the vertices of their own hull; bigger
        # bases would need a vertex certificate and are left to the caller
        for apex in supp:
            others = [q for q in supp if q != apex]
            rep = cone_indecomposable(apex, others)
            if rep.verdict == report.ABSOLUTELY_IRREDUCIBLE:
                rep.certificate["apex"] = apex
                return rep
        return inconclusive("log-polytope", "no cone certificate found")
    return inconclusive(
        "log-polytope",
        "more than three support points: supply an apex and the base hull "
        "vertices to the cone test directly")
