"""Upper Newton log-polygons for Dirichlet polynomials whose coefficients
are Dirichlet polynomials in other indeterminates.

Points are (log i, log deg_r a_i) with both coordinates logs of positive
integers, so hull comparisons become sign questions about differences of
products of logarithms: exact zero detection by cancellation in the
prime-log basis of certlog.LogProduct, certified interval signs otherwise.
Hull slopes decrease left to right; zero coefficients are skipped (formally
at minus infinity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import gcd_list, log_gcd
from .certlog import (
    LogProduct,
    NEGATIVE,
    POSITIVE,
    UNDECIDABLE as CMP_UNDECIDABLE,
    ZERO,
    log_orientation,
)
from .multivariate import MultiDirichletPoly
from .polytope import segment_lattice_points
from . import report
from .report import CriterionReport, inconclusive


class HullUndecidable(RuntimeError):
    """A hull comparison hit the precision cap; carries the partial hull."""

    def __init__(self, partial):
        super().__init__("upper hull comparison undecidable at the precision cap")
        self.partial = partial


@dataclass(frozen=True)
class UpperEdge:
    i1: int
    y1: int
    i2: int
    y2: int
    delta: int
    points: tuple[tuple[int, int], ...]

    def interior_points(self):
        return self.points[1:-1]


@dataclass(frozen=True)
class UpperLogPolygon:
    outer: str
    inner: str
    vertices: tuple[tuple[int, int], ...]
    edges: tuple[UpperEdge, ...]
    plotted: tuple[tuple[int, int], ...]

    def single_edge(self) -> bool:
        return len(self.edges) == 1


def build_upper_polygon(
    f: MultiDirichletPoly, outer: str, inner: str, cap_bits=None
) -> UpperLogPolygon:
    """Upper hull of (log i, log deg_inner a_i) over the outer-indeterminate
    coefficients a_i.  Raises HullUndecidable when a comparison cannot be
    certified at the precision cap."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    if not f.is_algebraically_primitive():
        f = f.algebraically_primitive_part()
    coeffs = f.coefficient_polys(outer)
    plotted = []
    for i, a in coeffs.items():
        d = a.degree_in(inner)
        if d >= 1:
            plotted.append((i, d))
    if not plotted:
        raise ValueError("no nonzero coefficients")
    hull: list[tuple[int, int]] = []
    for pt in plotted:
        while len(hull) >= 2:
            s = log_orientation(hull[-2], hull[-1], pt, cap_bits)
            if s == CMP_UNDECIDABLE:
                raise HullUndecidable(tuple(hull))
            if s in (POSITIVE, ZERO):  # middle point on or below the chord
                hull.pop()
            else:
                break
        hull.append(pt)
    edges = []
    for a, b in zip(hull, hull[1:]):
        d, pts = _upper_segment_data(a, b)
        edges.append(UpperEdge(a[0], a[1], b[0], b[1], d, tuple(pts)))
    return UpperLogPolygon(outer, inner, tuple(hull), tuple(edges), tuple(plotted))


def _upper_segment_data(a, b):
    """Lattice subdivision of an upper-hull edge: both coordinates are logs
    of integers, the two-coordinate case of the gcd-bar machinery.  On a
    horizontal edge every integer abscissa is log-integral."""
    (x1, y1), (x2, y2) = a, b
    if y1 == y2:
        return x2 - x1, [(x, y1) for x in range(x1, x2 + 1)]
    pts = segment_lattice_points(a, b)
    return len(pts) - 1, pts


def upper_vector_system(poly: UpperLogPolygon):
    """Edge vectors as (x-ratio, y-ratio) pairs of rationals > / < 1."""
    return [
        (Fraction(e.i2, e.i1), Fraction(e.y2, e.y1)) for e in poly.edges
    ]


def _slope_sign(v, w, cap_bits) -> str:
    """Sign of slope(v) - slope(w) for slopes log(yr)/log(xr), xr > 1,
    through the comparator: the sign of ln(yv) ln(xw) - ln(yw) ln(xv)."""
    return LogProduct().add_product(v[1], w[0]).add_product(w[1], v[0], -1).compare(cap_bits)


def upper_slopes_equal(v1, v2, cap_bits=None) -> bool:
    return _slope_sign(v1, v2, cap_bits) == ZERO


def merge_upper_vector_systems(a, b, cap_bits=None):
    vecs = list(a) + list(b)
    merged = []
    for v in vecs:
        for idx, w in enumerate(merged):
            if upper_slopes_equal(v, w, cap_bits):
                merged[idx] = (w[0] * v[0], w[1] * v[1])
                break
        else:
            merged.append(v)

    # decreasing slope order, certified pairwise by insertion sort
    out = []
    for v in merged:
        pos = len(out)
        for i, w in enumerate(out):
            if _slope_sign(v, w, cap_bits) == POSITIVE:
                pos = i
                break
        out.insert(pos, v)
    return out


def stepanov_schmidt_test(
    f: MultiDirichletPoly, outer: str, inner: str, cap_bits=None
) -> CriterionReport:
    """Irreducibility when the upper polygon is one edge with no interior
    log-integral point: deg_inner a_m != deg_inner a_n, every interior
    coefficient degree sits strictly below the endpoint chord, the two
    endpoint gcds (index valuations, degree valuations) are coprime, and so
    are the inner degrees of all coefficients."""
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    if not f.is_algebraically_primitive():
        return inconclusive("upper-polygon", "not algebraically primitive")
    coeffs = f.coefficient_polys(outer)
    degs = {i: a.degree_in(inner) for i, a in coeffs.items()}
    if any(d < 1 for d in degs.values()):
        return inconclusive("upper-polygon", "a coefficient vanishes in the inner variable")
    m, n = min(degs), max(degs)
    dm, dn = degs[m], degs[n]
    if dm == dn:
        return inconclusive(
            "upper-polygon", f"equal endpoint degrees deg a_{m} = deg a_{n} = {dm}")
    for i, di in degs.items():
        if m < i < n:
            # need di < dm^(log(n/i)/log(n/m)) * dn^(log(i/m)/log(n/m)):
            # multiply through by log(n/m) and compare products of logs
            lp = LogProduct()
            lp.add_product(Fraction(di), Fraction(n, m))
            lp.add_product(Fraction(dm), Fraction(n, i), -1)
            lp.add_product(Fraction(dn), Fraction(i, m), -1)
            s = lp.compare(cap_bits)
            if s == CMP_UNDECIDABLE:
                return CriterionReport(
                    report.UNDECIDABLE, "upper-polygon",
                    f"chord comparison at index {i} hit the precision cap")
            if s != NEGATIVE:
                return inconclusive(
                    "upper-polygon",
                    f"coefficient degree at index {i} not strictly below the chord")
    d1, d2 = log_gcd(m, n), log_gcd(dm, dn)
    if gcd(d1, d2) != 1:
        return inconclusive(
            "upper-polygon",
            f"endpoint chord carries gcd({d1},{d2}) = {gcd(d1, d2)} segments")
    # the chord rules out factors of positive degree in the outer variable;
    # a factor in the inner variable alone divides every coefficient, so its
    # degree divides every coefficient degree
    g = gcd_list(degs.values())
    if g != 1:
        return inconclusive(
            "upper-polygon",
            f"coefficient degrees in {inner} share the divisor {g}: a factor in "
            f"{inner} alone is not excluded")
    return CriterionReport(
        report.IRREDUCIBLE, "upper-polygon-chord",
        f"single-segment upper chord from ({m}, deg {dm}) to ({n}, deg {dn})",
        certificate={"d1": d1, "d2": d2, "m": m, "n": n, "deg_m": dm, "deg_n": dn},
    )
