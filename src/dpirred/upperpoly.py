"""Upper Newton log-polygons for Dirichlet polynomials whose coefficients
are Dirichlet polynomials in other indeterminates.

Points are (log i, log deg_r a_i) with both coordinates logs of positive
integers, deg_r a_i read off the support, so every hull, chord and slope
comparison is the sign of a 2x2 log determinant of integer ratios, decided
by the integer kernel certlog.log_det_sign: exact zero by cancellation of
int coefficients, certified interval signs otherwise.  Hull slopes decrease
left to right; zero coefficients are skipped (formally at minus infinity).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import gcd_list, log_gcd
from .certlog import (
    POSITIVE,
    UNDECIDABLE as CMP_UNDECIDABLE,
    ZERO,
    log_det_sign,
    log_orientation,
)
from .multivariate import MultiDirichletPoly
from .polygon import Edge, log_hull
from .polytope import segment_lattice_points
from . import report
from .report import CriterionReport, inconclusive


@dataclass(frozen=True)
class UpperLogPolygon:
    outer: str
    inner: str
    vertices: tuple[tuple[int, int], ...]
    edges: tuple[Edge, ...]
    plotted: tuple[tuple[int, int], ...]

    def single_edge(self) -> bool:
        return len(self.edges) == 1


def build_upper_polygon(f: MultiDirichletPoly, outer: str, inner: str) -> UpperLogPolygon:
    """Upper hull of (log i, log deg_inner a_i) over the outer-indeterminate
    coefficients a_i.  Raises polygon.HullUndecidable when a comparison
    cannot be certified at the precision cap."""
    if f.is_zero():
        raise ValueError("zero polynomial")
    plotted = list(f.algebraically_primitive_part().coefficient_degrees(outer, inner).items())
    vertices, edges = log_hull(plotted, _drop, segment_lattice_points)
    return UpperLogPolygon(outer, inner, vertices, edges, tuple(plotted))


def _drop(a, b, c):
    """Whether b is on or below the chord a-c, None if uncertified."""
    s = log_orientation(a, b, c)
    return None if s == CMP_UNDECIDABLE else s in (POSITIVE, ZERO)


def upper_vector_system(poly: UpperLogPolygon):
    """Edge vectors as (x-ratio, y-ratio) pairs of rationals > / < 1."""
    return [
        (Fraction(e.i2, e.i1), Fraction(e.y2, e.y1)) for e in poly.edges
    ]


def _slope_sign(v, w) -> str:
    """Sign of slope(v) - slope(w) for slopes log(yr)/log(xr), xr > 1,
    through the comparator: the sign of ln(yv) ln(xw) - ln(yw) ln(xv)."""
    (xv, yv), (xw, yw) = ((r.as_integer_ratio() for r in u) for u in (v, w))
    return log_det_sign(yv, xw, yw, xv)


def merge_upper_vector_systems(a, b):
    vecs = list(a) + list(b)
    merged = []
    for v in vecs:
        for idx, w in enumerate(merged):
            if _slope_sign(v, w) == ZERO:
                merged[idx] = (w[0] * v[0], w[1] * v[1])
                break
        else:
            merged.append(v)

    # decreasing slope order, certified pairwise by insertion sort
    out = []
    for v in merged:
        pos = len(out)
        for i, w in enumerate(out):
            if _slope_sign(v, w) == POSITIVE:
                pos = i
                break
        out.insert(pos, v)
    return out


def stepanov_schmidt_test(f: MultiDirichletPoly, outer: str, inner: str) -> CriterionReport:
    """Irreducibility when the upper polygon is one edge with no interior
    log-integral point: deg_inner a_m != deg_inner a_n, every interior
    coefficient degree sits strictly below the endpoint chord, the two
    endpoint gcds (index valuations, degree valuations) are coprime, and so
    are the inner degrees of all coefficients."""
    if f.is_zero() or f.is_constant():
        raise ValueError("needs a nonconstant polynomial")
    if not f.is_algebraically_primitive():
        return inconclusive("upper-polygon", "not algebraically primitive")
    degs = f.coefficient_degrees(outer, inner)
    m, n = min(degs), max(degs)
    dm, dn = degs[m], degs[n]
    if dm == dn:
        return inconclusive(
            "upper-polygon", f"equal endpoint degrees deg a_{m} = deg a_{n} = {dm}")
    for i, di in degs.items():
        if m < i < n:
            # the turn (m, dm) -> (i, di) -> (n, dn) is positive iff (log i,
            # log di) lies strictly below the chord, as in the hull's _drop
            s = log_orientation((m, dm), (i, di), (n, dn))
            if s == CMP_UNDECIDABLE:
                return CriterionReport(
                    report.UNDECIDABLE, "upper-polygon",
                    f"chord comparison at index {i} hit the precision cap")
            if s != POSITIVE:
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
