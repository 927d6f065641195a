"""Brute-force factorization referee.

The oracle decides reducibility by exhaustive search and exact division; it
never consults the criteria it is used to validate.  A factor pair g * h is
searched by shape: the min-degree and degree of g must divide those of f,
the extreme coefficients of g are pinned to divisors of the extreme
coefficients of f, and h is recovered by exact division.  A single interior
coefficient of g is handled symbolically (division with a linear parameter,
then rational root extraction), so shapes with at most one interior index
are decided exactly with no coefficient box at all.  Wider shapes fall back
to a bounded search over the factor height bound, which is itself a
complete bound, so an exhausted search is still a certificate.

Over F_p the candidate factors are enumerated outright, which is a complete
decision unless the node cap stops it first.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .core import (ZZ, DirichletPoly, UnfactoredResidueError, divisors, exponents,
                   gcd_list, max_exponents, smallest_prime_factor)
from .certlog import multiplicative_dependence_ratio

FACTORED = "factored"
IRREDUCIBLE_CERTIFIED = "irreducible-certified"
NONE_WITHIN_BOUND = "none-within-bound"

NODE_CAP_DEFAULT = 10**8


@dataclass
class OracleResult:
    status: str
    factors: tuple[DirichletPoly, DirichletPoly] | None = None
    bound: int | None = None
    nodes: int = 0

    @property
    def reducible(self) -> bool:
        return self.status == FACTORED


# ---------------------------------------------------------------------------
# dict-level exact division (hot path: plain dicts, no wrapper objects)


def _divide_z(fd: dict, gd: dict):
    """Exact h with g*h = f over Q, or None.  Inputs are index->int dicts."""
    r = dict(fd)
    top_g = max(gd)
    lead = gd[top_g]
    h = {}
    for _ in range(len(fd) * max(1, len(gd)) + len(fd) + 64):
        if not r:
            return h
        L = max(r)
        if L % top_g:
            return None
        k = L // top_g
        if k < 1:
            return None
        c = Fraction(r[L], lead)
        h[k] = c
        for j, b in gd.items():
            idx = j * k
            v = r.get(idx, 0) - b * c
            if v:
                r[idx] = v
            else:
                r.pop(idx, None)
    return None


def _divide_fp(fd: dict, gd: dict, p: int):
    r = dict(fd)
    top_g = max(gd)
    inv = pow(gd[top_g], -1, p)
    h = {}
    for _ in range(len(fd) * max(1, len(gd)) + len(fd) + 64):
        if not r:
            return h
        L = max(r)
        if L % top_g:
            return None
        k = L // top_g
        if k < 1:
            return None
        c = r[L] * inv % p
        h[k] = c
        for j, b in gd.items():
            idx = j * k
            v = (r.get(idx, 0) - b * c) % p
            if v:
                r[idx] = v
            else:
                r.pop(idx, None)
    return None


# ---------------------------------------------------------------------------
# linear-parameter division: one middle coefficient of g is the unknown x


def _poly_add(a, b):
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)
    ]


def _poly_scale(a, c):
    return [x * c for x in a]


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


class _RootExtractionError(RuntimeError):
    """Constant term too hard to factor for rational root candidates."""


def _poly_mod(a, b):
    a = _poly_trim(list(a))
    b = _poly_trim(list(b))
    while len(a) >= len(b):
        c = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, x in enumerate(b):
            a[i + shift] -= c * x
        a = _poly_trim(a)
        if not a:
            break
    return a


def _poly_gcd(polys):
    g: list = []
    for p in polys:
        p = _poly_trim(list(p))
        if not p:
            continue
        if not g:
            g = p
            continue
        a, b = g, p
        while b:
            a, b = b, _poly_mod(a, b)
        g = a
        if len(g) == 1:
            return g
    return g


def _integer_roots(polys) -> list[int]:
    """Common integer roots of rational-coefficient polynomials."""
    poly = _poly_gcd(polys)
    if len(poly) <= 1:
        return []
    den = lcm(*(c.denominator for c in poly))
    ints = [int(c * den) for c in poly]
    roots = []
    z = 0
    while ints and ints[0] == 0:
        ints = ints[1:]
        if z == 0:
            roots.append(0)
        z += 1
    if not ints or len(ints) == 1:
        return roots
    if len(ints) == 2:
        num, lead = -ints[0], ints[1]
        if num % lead == 0:
            roots.append(num // lead)
        return sorted(set(roots))
    try:
        cand = divisors(abs(ints[0]))
    except UnfactoredResidueError:
        raise _RootExtractionError(abs(ints[0])) from None
    for d in cand:
        for x in (d, -d):
            if sum(c * x**i for i, c in enumerate(ints)) == 0:
                roots.append(x)
    return sorted(set(roots))


def _try_shape_parametric(fd: dict, gd_base: dict, mid: int):
    """Search g = (gd_base with the coefficient at index `mid` symbolic).

    Performs the descending division of f by g with h coefficients kept as
    polynomials in x; the surplus convolution equations pin x to finitely
    many rational values, and only integer ones can make g primitive."""
    c1, d1 = min(gd_base), max(gd_base)
    b_hi = gd_base[d1]
    m, n = min(fd), max(fd)
    c2, d2 = m // c1, n // d1
    g_sym = {j: [Fraction(v)] for j, v in gd_base.items() if v}
    g_sym[mid] = [Fraction(0), Fraction(1)]
    r: dict[int, list] = {i: [Fraction(c)] for i, c in fd.items()}
    inv = Fraction(1, b_hi)
    h_sym = {}
    for k in range(d2, c2 - 1, -1):
        idx = d1 * k
        # entries above idx are final; a nonzero constant there kills the shape
        for i2, p2 in r.items():
            if i2 > idx and len(p2) == 1 and p2[0]:
                return None
        cur = r.get(idx, [Fraction(0)])
        ck = _poly_scale(cur, inv)
        h_sym[k] = ck
        for j, bp in g_sym.items():
            t = _poly_trim(_poly_mul(bp, ck))
            if not t:
                continue
            r[j * k] = _poly_trim(_poly_add(r.get(j * k, []), _poly_scale(t, -1)))
            if not r[j * k]:
                del r[j * k]
    equations = [p for p in r.values() if _poly_trim(list(p))]
    if not equations:
        candidates = [0]
    else:
        constant = [p for p in equations if len(_poly_trim(list(p))) == 1]
        if constant:
            return None
        candidates = _integer_roots(equations)
    for x in candidates:
        gd = {j: v for j, v in gd_base.items() if v}
        if x:
            gd[mid] = x
        if min(gd) != c1 or max(gd) != d1:
            continue
        h = _divide_z(fd, gd)
        if h is not None and h and all(c.denominator == 1 for c in h.values()):
            return gd, {k: int(c) for k, c in h.items()}
    return None


# ---------------------------------------------------------------------------
# shape enumeration


def _shapes(m: int, n: int):
    """Candidate (c1, d1) for the smaller-degree factor g: c1 | m, d1 | n,
    c1 < d1, complementary c2 < d2, deduplicated."""
    out = []
    for d1 in divisors(n):
        if d1 == 1 or d1 * d1 > n:
            continue
        d2 = n // d1
        for c1 in divisors(m):
            if c1 >= d1:
                continue
            c2 = m // c1
            if c2 >= d2:
                continue
            if d1 == d2 and c1 > c2:
                continue
            out.append((c1, d1))
    return out


def _index_allowed(j: int, prof: dict[int, int]) -> bool:
    for p, e in exponents(j).items():
        if prof.get(p, 0) < e:
            return False
    return True


def _signed_divisors(a: int) -> list[int]:
    ds = divisors(abs(a))
    return [s * d for d in ds for s in (1, -1)]


def _search_z(fd: dict, height_bound: int, node_cap: int):
    """Returns (factor pair | None, exhausted_exactly, nodes)."""
    from itertools import product as iproduct

    m, n = min(fd), max(fd)
    a_m, a_n = fd[m], fd[n]
    nodes = 0

    def ends_for():
        # leading coefficient of g normalized positive, min coefficient any sign
        return [(blo, bhi) for blo in _signed_divisors(a_m) for bhi in divisors(abs(a_n))]

    # interior indices a factor can actually use: within the support's
    # per-prime valuation profile (prime degrees are additive under products)
    prof = max_exponents(fd)
    narrow = []
    wide = []
    for c1, d1 in _shapes(m, n):
        mids = [j for j in range(c1 + 1, d1) if _index_allowed(j, prof)]
        (narrow if len(mids) <= 1 else wide).append((c1, d1, mids))

    exhausted = True
    for c1, d1, mids in narrow:
        for blo, bhi in ends_for():
            nodes += 1
            if not mids:
                h = _divide_z(fd, {c1: blo, d1: bhi})
                if h and all(c.denominator == 1 for c in h.values()):
                    return ({c1: blo, d1: bhi}, {k: int(c) for k, c in h.items()}), True, nodes
            else:
                try:
                    found = _try_shape_parametric(fd, {c1: blo, d1: bhi}, mids[0])
                except _RootExtractionError:
                    exhausted = False
                    continue
                if found:
                    return found, True, nodes

    # wide shapes: the last interior coefficient stays symbolic, the others
    # run through a global iterative deepening over growing boxes; the height
    # bound is complete for true factors, so exhausting it still certifies
    prev = -1
    radius = min(4, height_bound)
    while prev < height_bound:
        near_zero_first = sorted(range(-radius, radius + 1), key=abs)
        for c1, d1, mids in wide:
            boxed, sym = mids[:-1], mids[-1]
            ends = ends_for()
            for assign in iproduct(near_zero_first, repeat=len(boxed)):
                if max(abs(v) for v in assign) <= prev:
                    continue
                for blo, bhi in ends:
                    nodes += 1
                    if nodes > node_cap:
                        return None, False, nodes
                    gd = {c1: blo, d1: bhi}
                    gd.update({j: v for j, v in zip(boxed, assign) if v})
                    try:
                        found = _try_shape_parametric(fd, gd, sym)
                    except _RootExtractionError:
                        exhausted = False
                        continue
                    if found:
                        return found, True, nodes
        if radius >= height_bound:
            break
        prev = radius
        radius = min(radius * 4, height_bound)
    return None, exhausted, nodes


def _search_fp(fd: dict, p: int, node_cap: int):
    """Returns (factor pair | None, exhausted, nodes)."""
    m, n = min(fd), max(fd)
    nodes = 0
    prof = max_exponents(fd)
    for c1, d1 in _shapes(m, n):
        idxs = [c1] + [j for j in range(c1 + 1, d1) if _index_allowed(j, prof)]
        # g monic in the leading slot; enumerate the rest, min coefficient nonzero
        def rec(pos, acc):
            nonlocal nodes
            if pos == len(idxs):
                gd = {j: v for j, v in acc.items() if v}
                gd[d1] = 1
                nodes += 1
                if nodes > node_cap:
                    return None
                h = _divide_fp(fd, gd, p)
                if h and any(h.values()):
                    return gd, h
                return None
            j = idxs[pos]
            vals = range(1, p) if j == c1 else range(p)
            for v in vals:
                acc[j] = v
                found = rec(pos + 1, acc)
                if found or nodes > node_cap:
                    return found
            del acc[j]
            return None

        found = rec(0, {})
        if found:
            return found, True, nodes
        if nodes > node_cap:
            return None, False, nodes
    return None, True, nodes


# ---------------------------------------------------------------------------
# public API


def brute_force_factor(
    f: DirichletPoly,
    height_bound: int | None = None,
    node_cap: int = NODE_CAP_DEFAULT,
) -> OracleResult:
    """Find a nontrivial factorization of f, or certify there is none.

    Over Z the default height bound is the factor height bound derived from
    the support (complete for any true factor), so exhausting the search is
    a certificate of irreducibility.  Over F_p enumeration is complete;
    past node_cap the search stops with NONE_WITHIN_BOUND.
    """
    if f.is_zero() or f.is_constant():
        raise ValueError("oracle needs a nonconstant polynomial")
    ring = f.ring
    if ring.kind == "Q":
        f = f.z_primitive_part()
        ring = f.ring

    if ring.kind == "Fp":
        work = f
    else:
        work = f.normalize()[1]  # strip content and sign

    supp = work.support()
    d = gcd_list(supp)
    if d > 1:
        if len(supp) == 1:
            i, c = next(iter(work.items()))
            q = smallest_prime_factor(i)
            if q == i:
                return OracleResult(IRREDUCIBLE_CERTIFIED)
            g = DirichletPoly({q: 1}, ring)
            h = DirichletPoly({i // q: c}, ring)
            return OracleResult(FACTORED, _verified(work, g, h))
        g = DirichletPoly({d: 1}, ring)
        h = DirichletPoly({i // d: c for i, c in work.items()}, ring)
        return OracleResult(FACTORED, _verified(work, g, h))

    fd = dict(work.items())
    if ring.kind == "Fp":
        found, exhausted, nodes = _search_fp(fd, ring.p, node_cap)
        if found:
            gd, hd = found
            g = DirichletPoly(gd, ring)
            h = DirichletPoly(hd, ring)
            return OracleResult(FACTORED, _verified(work, g, h), nodes=nodes)
        status = IRREDUCIBLE_CERTIFIED if exhausted else NONE_WITHIN_BOUND
        return OracleResult(status, nodes=nodes)

    from .primevalue import gelfond_factor_height_bound

    complete_bound = gelfond_factor_height_bound(work)
    bound = complete_bound if height_bound is None else height_bound
    bound_is_complete = bound >= complete_bound

    found, exhausted, nodes = _search_z(fd, bound, node_cap)
    if found:
        gd, hd = found
        g = DirichletPoly(gd, ring)
        h = DirichletPoly(hd, ring)
        return OracleResult(FACTORED, _verified(work, g, h), bound=bound, nodes=nodes)
    if exhausted and bound_is_complete:
        return OracleResult(IRREDUCIBLE_CERTIFIED, bound=bound, nodes=nodes)
    return OracleResult(NONE_WITHIN_BOUND, bound=bound, nodes=nodes)


def _verified(work: DirichletPoly, g: DirichletPoly, h: DirichletPoly):
    prod = g * h
    if prod != work:
        raise AssertionError(
            f"oracle produced an unverified factorization: ({g.text()})*({h.text()})"
            f" != {work.text()}")
    return g, h


def factor_completely(f: DirichletPoly) -> list[DirichletPoly]:
    """All nonconstant irreducible factors of f with multiplicity
    (content dropped; factors in a canonical order)."""
    if f.is_zero() or f.is_constant():
        return []
    res = brute_force_factor(f)
    if res.status != FACTORED:
        if res.status == NONE_WITHIN_BOUND:
            raise RuntimeError("oracle budget exhausted during full factorization")
        return [f.normalize()[1]]
    g, h = res.factors
    return sorted(
        factor_completely(g) + factor_completely(h),
        key=lambda u: (u.degree, tuple(u.items())),
    )


def multiplicity_profile(f: DirichletPoly) -> dict[DirichletPoly, int]:
    out: dict[DirichletPoly, int] = {}
    for u in factor_completely(f):
        out[u] = out.get(u, 0) + 1
    return out


def max_factor_multiplicity(f: DirichletPoly) -> int:
    prof = multiplicity_profile(f)
    return max(prof.values(), default=0)


def gcd_bounded(f: DirichletPoly, g: DirichletPoly) -> DirichletPoly:
    """gcd of two Dirichlet polynomials by full oracle factorization of the
    smaller-degree input and exact trial division into the other."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if f.is_zero() or g.is_zero() or f.is_constant() or g.is_constant():
        return DirichletPoly({1: 1}, f.ring)
    a, b = (f, g) if f.degree <= g.degree else (g, f)
    common = DirichletPoly({1: 1}, f.ring)
    rest = b
    for u in factor_completely(a):
        q = divide_exact(rest, u)
        if q is not None:
            common = common * u
            rest = q
    if f.ring.kind == "Z":
        _, prim, _, _ = common.normalize()
        return prim
    if f.ring.kind == "Fp":
        return common.normalize()[1]
    return common


def divide_exact(f: DirichletPoly, g: DirichletPoly) -> DirichletPoly | None:
    """h with g*h = f, or None; exact in the fraction field."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if g.is_zero():
        raise ZeroDivisionError
    if f.is_zero():
        return DirichletPoly({}, f.ring)
    if f.ring.kind == "Fp":
        h = _divide_fp(dict(f.items()), dict(g.items()), f.ring.p)
        return DirichletPoly(h, f.ring) if h is not None else None
    fd = {i: Fraction(c) for i, c in f.items()}
    h = _divide_z(fd, dict(g.items()))
    if h is None:
        return None
    if f.ring.kind == "Z":
        if any(c.denominator != 1 for c in h.values()):
            return None
        return DirichletPoly({k: int(c) for k, c in h.items()}, ZZ)
    return DirichletPoly(h, f.ring)


# ---------------------------------------------------------------------------
# brute-force lattice point enumeration (referee for the counting formulas)


def enumerate_segment_points_brute(x1: int, y1: int, x2: int, y2: int):
    """Interior log-integral points of the segment (log x1, y1)-(log x2, y2)
    by exhaustive search: integer x in (x1, x2), integer y strictly between
    the heights, satisfying x2^(y-y1) * x1^(y2-y) = x^(y2-y1)."""
    if x1 >= x2:
        raise ValueError("need x1 < x2")
    out = []
    if y1 == y2:
        # on a horizontal line every integer abscissa is log-integral
        return [(x, y1) for x in range(x1 + 1, x2)]
    ya, yb = min(y1, y2), max(y1, y2)
    for x in range(x1 + 1, x2):
        for y in range(ya + 1, yb):
            if y1 < y2:
                lhs, rhs = x2 ** (y - y1) * x1 ** (y2 - y), x ** (y2 - y1)
            else:
                lhs, rhs = x2 ** (y1 - y) * x1 ** (y - y2), x ** (y1 - y2)
            if lhs == rhs:
                out.append((x, y))
    return sorted(out)


def enumerate_segment_points_brute_nd(v: tuple[int, ...], w: tuple[int, ...]):
    """Interior log-integral points on the segment between the log images of
    two positive integer tuples, by per-coordinate search over admissible
    interpolation ratios."""
    if len(v) != len(w) or v == w:
        raise ValueError("need two distinct tuples of equal length")
    t_sets = None
    per_coord: list[dict[Fraction, int]] = []
    for a, b in zip(v, w):
        table: dict[Fraction, int] = {}
        if a == b:
            per_coord.append({None: a})
            continue
        lo, hi = min(a, b), max(a, b)
        for x in range(lo, hi + 1):
            t = multiplicative_dependence_ratio(Fraction(b, a), Fraction(x, a))
            if t is not None and 0 <= t <= 1:
                table[t] = x
        per_coord.append(table)
        ts = {t for t in table if t is not None}
        t_sets = ts if t_sets is None else (t_sets & ts)
    if t_sets is None:  # all coordinates equal: excluded by v != w
        return []
    out = []
    for t in sorted(t_sets):
        if 0 < t < 1:
            pt = tuple(
                table[None] if None in table else table[t] for table in per_coord
            )
            out.append(pt)
    return out
