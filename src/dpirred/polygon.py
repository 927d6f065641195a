"""Newton log-polygons: the lower convex hull of the points (log i, nu_p(a_i))
over the support of a Dirichlet polynomial, with exact predicates only.

A point (log k, y) is on or above the line through (log i, y_i), (log j, y_j)
iff  j^(y - y_i) >= k^(y_j - y_i) * i^(y - y_j);  all hull, slope, and
collinearity decisions below reduce to such integer power comparisons, so the
polygon never sees a floating-point number and never consumes a log base.

Edges split into segments at the intermediate log-integral points: for a
sloped edge with endpoints (x1, y1), (x2, y2) their number is
delta = gcd(y2 - y1, nu_q(x2) - nu_q(x1) over primes q | x1*x2), while a
horizontal edge passes through every integer abscissa in range.  The hull
and that edge cut, log_hull, are shared with the upper polygons of upperpoly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import gcd

from .core import DirichletPoly, exponents, gcd_list, is_prime, log_gcd, log_points, valuation
from .degrees import relative_degree_sets
from . import report
from .report import CriterionReport, inconclusive, irreducible


def _nu_points(a, b):
    """The log-integral points of the sloped edge a-b of a nu_p polygon:
    delta = gcd(rise, log_gcd) equal steps, interpolated prime by prime."""
    (x1, y1), (x2, y2) = a, b
    delta = gcd(y2 - y1, log_gcd(x1, x2))
    return [(x, y1 + i * (y2 - y1) // delta) for i, x in enumerate(log_points(x1, x2, delta))]


def segment_point_count(x1: int, y1: int, x2: int, y2: int):
    """Number of segments delta and all log-integral points on the segment
    from (log x1, y1) to (log x2, y2); requires y1 != y2."""
    if y1 == y2:
        raise ValueError("endpoints must have distinct heights; horizontal "
                         "edges are handled inside the polygon builder")
    if x1 >= x2:
        raise ValueError("need x1 < x2")
    pts = _nu_points((x1, y1), (x2, y2))
    return len(pts) - 1, pts


@dataclass(frozen=True)
class Edge:
    i1: int
    y1: int
    i2: int
    y2: int
    delta: int                      # number of segments on this edge
    points: tuple[tuple[int, int], ...]  # all log-integral points, endpoints included
    segment_ratios: tuple[Fraction, ...]  # relative degree of each segment

    def interior_points(self):
        return self.points[1:-1]


class HullUndecidable(RuntimeError):
    """A hull comparison could not be certified; carries the partial hull."""

    def __init__(self, partial):
        super().__init__("hull comparison undecidable at the precision cap")
        self.partial = partial


def _edge(a, b, sloped) -> Edge:
    """The edge a-b cut at its log-integral points.  A horizontal edge
    passes through (log x, y) for every integer x in range, so it carries
    x2 - x1 segments with relative degrees (x+1)/x; treating it like a
    sloped edge would undercount the ways factors can split it and break
    the counting bound and the candidate engine."""
    (x1, y1), (x2, y2) = a, b
    pts = [(x, y1) for x in range(x1, x2 + 1)] if y1 == y2 else sloped(a, b)
    xs = [x for x, _ in pts]
    return Edge(x1, y1, x2, y2, len(pts) - 1, tuple(pts), tuple(map(Fraction, xs[1:], xs)))


def log_hull(points, drop, sloped):
    """Vertices and edges of the hull over points in index order.

    drop(a, b, c) says whether the middle point b leaves the hull: True,
    False, or None when the comparison cannot be certified, which raises
    HullUndecidable with the hull built so far.  sloped(a, b) lists the
    log-integral points of an edge that is not horizontal, endpoints
    included."""
    hull: list[tuple[int, int]] = []
    for pt in points:
        while len(hull) >= 2:
            gone = drop(hull[-2], hull[-1], pt)
            if gone is None:
                raise HullUndecidable(tuple(hull))
            if not gone:
                break
            hull.pop()
        hull.append(pt)
    return tuple(hull), tuple(_edge(a, b, sloped) for a, b in zip(hull, hull[1:]))


@dataclass(frozen=True)
class LogPolygon:
    prime: int
    vertices: tuple[tuple[int, int], ...]
    edges: tuple[Edge, ...]
    shift: int            # algebraic shift divided out before building, 1 if none
    plotted: tuple[tuple[int, int], ...]  # (index, valuation) for every support point

    def segment_profile(self) -> list[Fraction]:
        """Relative degrees of all segments, with multiplicity; their
        product is deg/deg_min."""
        out: list[Fraction] = []
        for e in self.edges:
            out.extend(e.segment_ratios)
        return out

    def total_segments(self) -> int:
        return sum(e.delta for e in self.edges)

    def single_edge(self) -> bool:
        return len(self.edges) == 1

    def validate(self) -> bool:
        """Every plotted point lies on or above every edge line."""
        for e in self.edges:
            for k, yk in self.plotted:
                if _chord_cmp((e.i1, e.y1), (k, yk), (e.i2, e.y2)) < 0:
                    return False
        return True

    def rightmost_slope_below(self, r: Fraction) -> bool:
        """Exact test: slope of the rightmost edge < 1 / log r  (r > 1).

        Equivalent to r^(y_n - y_i) < n/i for every plotted i < n with
        y_i < y_n."""
        n, yn = self.vertices[-1]
        return all(r ** (yn - yi) < Fraction(n, i)
                   for i, yi in self.plotted if i < n and yi < yn)

    def leftmost_slope_above(self, r: Fraction) -> bool:
        """Exact test: slope of the leftmost edge > -1 / log r  (r > 1)."""
        m, ym = self.vertices[0]
        return all(r ** (ym - yi) < Fraction(i, m)
                   for i, yi in self.plotted if i > m and yi < ym)


def build_polygon(f: DirichletPoly, p: int) -> LogPolygon:
    """Newton log-polygon of f with respect to the prime p.

    Rational coefficients are replaced by the integer primitive part.  If f
    is not algebraically primitive, the polygon of its algebraically
    primitive part is built and the divided-out index gcd recorded as shift.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if f.is_zero():
        raise ValueError("zero polynomial has no polygon")
    if f.ring.kind == "Q":
        f = f.z_primitive_part()
    elif f.ring.kind != "Z":
        raise ValueError("polygon needs integer or rational coefficients")
    shift = f.algebraic_shift()
    plotted = tuple((i, valuation(c, p)) for i, c in f.algebraically_primitive_part().items())

    vertices, edges = log_hull(plotted, lambda a, b, c: _chord_cmp(a, b, c) >= 0, _nu_points)
    return LogPolygon(p, vertices, edges, shift, plotted)


# ---------------------------------------------------------------------------
# vector systems and the merge arithmetic (used by the product invariant)


def vector_system(poly: LogPolygon) -> list[tuple[Fraction, int]]:
    """Edge vectors as (width ratio > 1, integer rise), left to right."""
    return [(Fraction(e.i2, e.i1), e.y2 - e.y1) for e in poly.edges]


def _slope_key_cmp(v1: tuple[Fraction, int], v2: tuple[Fraction, int]) -> int:
    """Compare slopes rise/log(ratio) exactly."""
    (r1, d1), (r2, d2) = v1, v2
    lhs, rhs = r2**d1, r1**d2
    return (lhs > rhs) - (lhs < rhs)


def _chord_cmp(a, b, c) -> int:
    """Sign of slope(a->b) - slope(a->c) for points (index, y); the index
    of a is below those of b and c, or equal with equal y.

    With d1, d2 the rises from a to b and c, that is the sign of
    (c/a)^d1 - (b/a)^d2, so of c^d1 * a^(d2 - d1) - b^d2: each negative
    power moves to the other side, and only integers are compared."""
    d1, d2 = b[1] - a[1], c[1] - a[1]
    lhs = rhs = 1
    for x, e in ((c[0], d1), (a[0], d2 - d1), (b[0], -d2)):
        if e >= 0:
            lhs *= x**e
        else:
            rhs *= x**-e
    return (lhs > rhs) - (lhs < rhs)


def merge_vector_systems(a, b) -> list[tuple[Fraction, int]]:
    """Union of two vector systems with equal-slope vectors summed
    (ratios multiply, rises add), sorted by increasing slope."""
    vecs = list(a) + list(b)
    merged: list[tuple[Fraction, int]] = []
    for v in vecs:
        for idx, w in enumerate(merged):
            if _slope_key_cmp(v, w) == 0:
                merged[idx] = (w[0] * v[0], w[1] + v[1])
                break
        else:
            merged.append(v)
    return sorted(merged, key=cmp_to_key(_slope_key_cmp))


# ---------------------------------------------------------------------------
# Dumas-style tests


def _z_input(f: DirichletPoly) -> DirichletPoly:
    """The input of a nu_p criterion: f nonconstant and algebraically
    primitive, a Q input replaced by its integer primitive part."""
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    if not f.is_algebraically_primitive():
        raise ValueError("input must be algebraically primitive")
    return f.z_primitive_part() if f.ring.kind == "Q" else f


def dumas_test(f: DirichletPoly, p: int, shift_t: int = 0) -> CriterionReport:
    """Single-edge single-segment criterion at the prime p, on the
    coefficients a_i * i^shift_t.

    Fires when the twisted endpoint valuations differ, every interior
    support point lies strictly above the endpoint chord, and the segment
    count of the chord is 1.  The classical two-sided Eisenstein patterns
    are the simplest instances and are named in the certificate.
    """
    f = _z_input(f)
    m, n = f.deg_min, f.degree
    tw = {i: valuation(c, p) + shift_t * exponents(i).get(p, 0) for i, c in f.items()}
    vm, vn = tw[m], tw[n]
    if vm == vn:
        return inconclusive("dumas", f"equal endpoint valuations at p={p}, t={shift_t}")
    for i, vi in tw.items():
        if m < i < n:
            if _chord_cmp((m, vm), (i, vi), (n, vn)) <= 0:
                return inconclusive(
                    "dumas", f"support point {i} not above the endpoint chord (p={p})")
    g = gcd(vn - vm, log_gcd(m, n))
    if g != 1:
        return inconclusive(
            "dumas", f"endpoint chord carries {g} segments (p={p}, t={shift_t})")
    style = ""
    if shift_t == 0:
        if vm == 1 and vn == 0 and all(v >= 1 for i, v in tw.items() if i < n):
            style = "eisenstein-low"
        elif vn == 1 and vm == 0 and all(v >= 1 for i, v in tw.items() if i > m):
            style = "eisenstein-high"
    return irreducible(
        "dumas",
        f"single-segment polygon chord at p={p}"
        + (f", twist t={shift_t}" if shift_t else "")
        + (f" ({style})" if style else ""),
        p=p, t=shift_t, endpoint_valuations=(vm, vn), style=style or None,
    )


# ---------------------------------------------------------------------------
# multi-prime engine


# Nodes one candidate_relative_degrees call may spend deciding its targets;
# a target left undecided when they run out stays a candidate.
CANDIDATE_NODE_BUDGET = 3000


def subset_product_targets(profile, targets):
    """The targets (each > 1) that are products of a sub-multiset of the
    profile (ratios > 1), and whether the node budget ran out.

    Each target is decided by a depth-first search over the distinct
    ratios, largest first, trying 0..count copies of each.  A node fails
    at once when its quotient exceeds the product of all remaining ratios;
    failed (position, quotient) states are remembered across targets, keyed
    on the quotient the node was entered with.  Targets still undecided
    when CANDIDATE_NODE_BUDGET nodes are spent are kept, so the result is a
    superset of the exact answer, and the flag is set.
    """
    groups = sorted(Counter(profile).items(), reverse=True)
    room = [Fraction(1)] * (len(groups) + 1)   # room[i]: product of groups[i:]
    for i in range(len(groups) - 1, -1, -1):
        room[i] = room[i + 1] * groups[i][0] ** groups[i][1]
    failed: set[tuple[int, Fraction]] = set()
    nodes = CANDIDATE_NODE_BUDGET

    def reachable(target):
        # iterative, since a long horizontal edge makes the search deep
        nonlocal nodes
        stack = []   # frames [position, quotient entered with, quotient left, copies]
        i, q = 0, target
        while True:
            if q == 1:
                return True
            if i < len(groups) and q <= room[i] and (i, q) not in failed:
                if nodes == 0:
                    return None
                nodes -= 1
                stack.append([i, q, q, 0])
                i += 1
                continue
            # (i, q) failed: give the deepest open node one more copy
            while stack:
                frame = stack[-1]
                pos, entered, left, copies = frame
                ratio, count = groups[pos]
                left /= ratio
                if copies < count and left >= 1:
                    frame[2:] = left, copies + 1
                    i, q = pos + 1, left
                    break
                failed.add((pos, entered))
                stack.pop()
            else:
                return False

    found, capped = set(), False
    for r in targets:
        hit = reachable(r)
        capped = capped or hit is None
        if hit is not False:
            found.add(r)
    return found, capped


def candidate_relative_degrees(f: DirichletPoly, p: int):
    """Candidate relative degrees of a minimal factor per the polygon at p:
    the ratios d/c <= sqrt(n/m) that are subset products of the segment
    profile.  Returns (candidates, profile, capped); when capped, the
    search budget ran out and undecided ratios are kept as candidates."""
    if not f.is_algebraically_primitive():
        raise ValueError("input must be algebraically primitive")
    profile = build_polygon(f, p).segment_profile()
    s1 = relative_degree_sets(f.deg_min, f.degree).s_rd_k  # k = 1: (1, sqrt(n/m)]
    cands, capped = subset_product_targets(profile, s1)
    return cands, profile, capped


def multi_prime_test(f: DirichletPoly, primes: list[int]) -> CriterionReport:
    """Combine polygons at several primes.

    Fires when (a) the per-prime candidate relative-degree sets have empty
    intersection, or (b) for coprime endpoint degrees every polygon is a
    single edge and their segment counts are coprime.  No rule reads the
    segment-ratio numerators: when the lcm over p of their gcds is deg f,
    some polygon is one segment, so its candidate set is empty and
    dumas_test (or, for n = m + 1, the quick battery) fires at that p.
    """
    f = _z_input(f)
    if not primes:
        raise ValueError("need at least one prime")
    m, n = f.deg_min, f.degree

    inter = None
    any_capped = False
    for p in primes:
        cands, _, capped = candidate_relative_degrees(f, p)
        any_capped = any_capped or capped
        inter = cands if inter is None else (inter & cands)
        if not inter:
            return irreducible(
                "segment-candidate-intersection",
                f"no relative degree <= sqrt(n/m) survives the polygons at "
                f"{{{', '.join(str(q) for q in primes[:primes.index(p) + 1])}}}",
                primes=tuple(primes), empty_at=p,
            )

    if gcd(m, n) == 1:
        polys = [build_polygon(f, p) for p in primes]
        if all(pl.single_edge() for pl in polys):
            deltas = [pl.edges[0].delta for pl in polys]
            if gcd_list(deltas) == 1:
                return irreducible(
                    "single-edge-coprime-segments",
                    f"coprime endpoint degrees, single-edge polygons with "
                    f"coprime segment counts {deltas}",
                    primes=tuple(primes), deltas=tuple(deltas),
                )

    inter = sorted(inter)
    detail = f"candidate intersection nonempty: [{', '.join(map(str, inter))}]"
    if any_capped:
        detail += " (search budget ran out; undecided ratios kept)"
    return inconclusive("multi-prime", detail, candidates=inter, capped=any_capped)


# ---------------------------------------------------------------------------
# linear combinations f + p^k g


def lone_slope_combination_test(f: DirichletPoly, g: DirichletPoly, p: int, k: int) -> CriterionReport:
    """Irreducibility of f + p^k g from a lone extreme-slope segment.

    Two variants: coprime top degrees deg f < deg g with p dividing neither
    leading coefficient, or coprime min-degrees deg_min f > deg_min g > 1
    with max(deg f, deg g) <= 2 deg_min g and p dividing neither min-degree
    coefficient.  Both need gcd(k, valuation differences of the two special
    degrees) = 1.
    """
    if f.ring != g.ring or f.ring.kind != "Z":
        raise ValueError("both polynomials must share integer coefficients")
    if f.is_zero() or g.is_zero():
        raise ValueError("nonzero inputs required")
    if not is_prime(p) or k < 1:
        raise ValueError("p must be prime and k >= 1")
    h = f + g.scale(p**k)

    def seg_gcd_ok(a: int, b: int) -> bool:
        return gcd(k, log_gcd(a, b)) == 1

    m, n = f.degree, g.degree
    if m < n and gcd(m, n) == 1 and f.leading_coeff() % p != 0 and \
            g.leading_coeff() % p != 0 and seg_gcd_ok(m, n):
        return CriterionReport(
            report.IRREDUCIBLE, "lone-positive-slope",
            f"deg f = {m}, deg g = {n} coprime; the rightmost chord of "
            f"f + {p}^{k} g is a single segment",
            certificate={"variant": "positive", "combined": h.text(), "p": p, "k": k},
        )

    if not f.is_constant() and not g.is_constant():
        mm, nn = f.deg_min, g.deg_min
        if mm > nn > 1 and gcd(mm, nn) == 1 and max(f.degree, g.degree) <= 2 * nn \
                and f.min_coeff() % p != 0 and g.min_coeff() % p != 0 \
                and seg_gcd_ok(mm, nn):
            return CriterionReport(
                report.IRREDUCIBLE, "lone-negative-slope",
                f"min-degrees {mm} > {nn} coprime, degrees within 2*{nn}; the "
                f"leftmost chord of f + {p}^{k} g is a single segment",
                certificate={"variant": "negative", "combined": h.text(), "p": p, "k": k},
            )

    return inconclusive("linear-combination-slope",
                        "neither extreme-slope variant applies", combined=h.text())


# ---------------------------------------------------------------------------
# excluded relative-degree intervals (slope versus divisor ratios)


@dataclass(frozen=True)
class ExclusionInterval:
    lo: Fraction
    hi: Fraction
    side: str           # "right" or "left" (which extreme edge was bounded)
    anchors: tuple      # indices whose coefficients pin the polygon


def slope_exclusions(f: DirichletPoly, p: int):
    """Relative-degree intervals no factor of f can occupy, from the slope
    of an extreme edge of the polygon at p combined with a run of
    p-divisible coefficients.

    Returns (intervals, CriterionReport); the verdict is irreducible when
    the full window [delta(m,n), rho(m,n)] is excluded.  The anchors (the
    non-divisible pivot index and the relevant endpoint) tolerate coefficient
    multipliers coprime to p, which the certificate records.
    """
    f = _z_input(f)
    m, n = f.deg_min, f.degree
    sets = relative_degree_sets(m, n)
    nm = Fraction(n, m)
    ratios = sorted(sets.s_rd)
    vals = {i: valuation(c, p) for i, c in f.items()}
    nondiv = [i for i, v in vals.items() if v == 0]
    poly = build_polygon(f, p)
    intervals: list[ExclusionInterval] = []

    boundary = []
    if ratios and nondiv:
        # right variant: divisible tail up to n, rightmost slope small
        if vals[n] > 0:
            jmax = max(nondiv)
            cands = [r for r in ratios if m * r > jmax]
            boundary += [r for r in ratios if m * r == jmax]
            if cands:
                r1 = min(cands)
                good = [r for r in ratios if r >= r1 and poly.rightmost_slope_below(r)]
                if good:
                    r2 = max(good)
                    intervals.append(ExclusionInterval(r1, r2, "right", (jmax, n)))
                    intervals.append(
                        ExclusionInterval(nm / r2, nm / r1, "right", (jmax, n)))
        # left variant: divisible head down to m, leftmost slope shallow
        if vals[m] > 0:
            jmin = min(nondiv)
            cands = [r for r in ratios if Fraction(n, 1) / r < jmin]
            if cands:
                r1 = min(cands)
                good = [r for r in ratios if r >= r1 and poly.leftmost_slope_above(r)]
                if good:
                    r2 = max(good)
                    intervals.append(ExclusionInterval(r1, r2, "left", (jmin, m)))
                    intervals.append(
                        ExclusionInterval(nm / r2, nm / r1, "left", (jmin, m)))

    delta, rho = sets.delta, sets.rho
    covered = any(iv.lo <= delta and rho <= iv.hi for iv in intervals)
    note = {}
    if boundary:
        # a run of divisible coefficients ends exactly at m * d1/c1 for these
        # ratios; the strict form of the hypothesis leaves them out
        note["boundary_ratios"] = sorted(set(boundary))
    if rho == 1:
        rep = irreducible("arithmetic-rho", f"rho({m},{n}) = 1")
    elif covered:
        iv = next(iv for iv in intervals if iv.lo <= delta and rho <= iv.hi)
        rep = irreducible(
            f"{iv.side}-slope-exclusion",
            f"excluded [{iv.lo}, {iv.hi}] covers the factor window "
            f"[{delta}, {rho}] at p={p}",
            p=p, window=(delta, rho),
            intervals=[(iv.lo, iv.hi, iv.side) for iv in intervals],
            anchors=iv.anchors, **note,
        )
    else:
        rep = inconclusive(
            "slope-exclusion",
            f"excluded intervals do not cover [{delta}, {rho}] at p={p}",
            intervals=[(iv.lo, iv.hi, iv.side) for iv in intervals], **note,
        )
    return intervals, rep

