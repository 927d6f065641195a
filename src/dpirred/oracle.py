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
complete bound, so an exhausted search is still a certificate.  The Z
search is integer-only: pseudo-division in Z[x] and primitive
pseudo-remainder gcds, with no fractions.

Over F_p the candidate factors are enumerated outright, which is a complete
decision unless the node cap stops it first.  Both searches stop past
`node_cap` nodes and then report NONE_WITHIN_BOUND; the library default
never binds in practice, while the CLI passes the smaller NODE_CAP_CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .core import (DirichletPoly, UnfactoredResidueError, divisors, exponents, gcd_list,
                   max_exponents, smallest_prime_factor)
from .certlog import multiplicative_dependence_ratio

FACTORED = "factored"
IRREDUCIBLE_CERTIFIED = "irreducible-certified"
NONE_WITHIN_BOUND = "none-within-bound"

NODE_CAP_DEFAULT = 10**8
# node budget of the CLI oracle (`oracle factor` and `analyze --oracle`):
# it binds within a few seconds, where the default cap never binds in time
NODE_CAP_CLI = 100_000


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


def _divide_zz(fd: dict, gd: dict):
    """Exact h with g*h = f over Z, or None; stops at the first quotient
    coefficient that is not an integer.  Inputs are index->int dicts."""
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
        c, rem = divmod(r[L], lead)
        if rem:
            return None
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
#
# Polynomials in x are lists of ints, lowest degree first, with no trailing
# zeros.  The division by g never divides by its leading coefficient b_hi:
# it scales the remainder by b_hi instead (pseudo-division, Knuth TAOCP
# vol. 2, 4.6.1).  Each equation is then a nonzero integer multiple of the
# exact one, which changes neither its roots nor whether it is constant.


def _sub_times(r: dict, i: int, c: int, p: list, shift: int = 0):
    """r[i] -= c * x^shift * p, dropping the entry when it becomes zero."""
    t = r.get(i, [])
    t = t + [0] * (len(p) + shift - len(t))  # a padded copy
    for e, v in enumerate(p, shift):
        t[e] -= c * v
    while t and not t[-1]:
        t.pop()
    if t:
        r[i] = t
    else:
        r.pop(i, None)


def _primitive(a: list) -> list:
    g = gcd(*a)
    return a if g == 1 else [v // g for v in a]


def _pseudo_rem(a: list, b: list) -> list:
    """Primitive part of the pseudo-remainder of a by b in Z[x]."""
    lead, nb = b[-1], len(b)
    a = list(a)
    while len(a) >= nb:
        c = a.pop()
        shift = len(a) - nb + 1
        a = [lead * v for v in a]
        for e, v in enumerate(b[:-1], shift):
            a[e] -= c * v
        while a and not a[-1]:
            a.pop()
    return _primitive(a) if a else a


def _gcd_zx(polys) -> list:
    """gcd in Z[x] by primitive pseudo-remainder sequences (up to sign)."""
    g: list = []
    for p in polys:
        p = _primitive(p)
        if not g:
            g = p
            continue
        a, b = g, p
        while b:
            a, b = b, _pseudo_rem(a, b)
        g = a
        if len(g) == 1:
            return g
    return g


class _RootExtractionError(RuntimeError):
    """Constant term too hard to factor for rational root candidates."""


def _integer_roots(polys) -> list[int]:
    """Common integer roots of nonzero integer-coefficient polynomials."""
    ints = _gcd_zx(polys)
    if len(ints) <= 1:
        return []
    roots = []
    if not ints[0]:
        roots.append(0)
        while not ints[0]:
            ints = ints[1:]
    if len(ints) == 1:
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

    Performs the descending pseudo-division of f by g with the remainder
    kept as polynomials in x; the surplus convolution equations pin x to
    finitely many rational values, and only integer ones can make g
    primitive."""
    c1, d1 = min(gd_base), max(gd_base)
    b_hi = gd_base[d1]
    m, n = min(fd), max(fd)
    c2, d2 = m // c1, n // d1
    g_low = [(j, v) for j, v in gd_base.items() if v and j != d1]
    r: dict[int, list] = {i: [c] for i, c in fd.items()}
    for k in range(d2, c2 - 1, -1):
        idx = d1 * k
        # entries above idx are final; a nonzero constant there kills the shape
        for i2, p2 in r.items():
            if i2 > idx and len(p2) == 1:
                return None
        cur = r.pop(idx, None)
        if cur is None:
            continue
        if b_hi != 1:
            for i2, p2 in r.items():
                if i2 < idx:
                    r[i2] = [b_hi * v for v in p2]
        for j, v in g_low:
            _sub_times(r, j * k, v, cur)
        _sub_times(r, mid * k, 1, cur, 1)
    # r = f - g*h is never zero: g*h has positive degree in x once h != 0
    if any(len(p) == 1 for p in r.values()):
        return None
    for x in _integer_roots(r.values()):
        gd = {j: v for j, v in gd_base.items() if v}
        if x:
            gd[mid] = x
        if min(gd) != c1 or max(gd) != d1:
            continue
        h = _divide_zz(fd, gd)
        if h:
            return gd, h
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
            if nodes > node_cap:
                return None, False, nodes
            if not mids:
                h = _divide_zz(fd, {c1: blo, d1: bhi})
                if h:
                    return ({c1: blo, d1: bhi}, h), True, nodes
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
    (content dropped, so over Q they lie in Z; factors in a canonical
    order)."""
    if f.is_zero() or f.is_constant():
        return []
    if f.ring.kind == "Q":
        f = f.z_primitive_part()
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
    if f.ring.kind == "Q":
        f, g = f.z_primitive_part(), g.z_primitive_part()
    a, b = (f, g) if f.degree <= g.degree else (g, f)
    common = DirichletPoly({1: 1}, f.ring)
    rest = b
    for u in factor_completely(a):
        q = divide_exact(rest, u)
        if q is not None:
            common = common * u
            rest = q
    return common.normalize()[1]


def divide_exact(f: DirichletPoly, g: DirichletPoly) -> DirichletPoly | None:
    """h with g*h = f, or None; over Z the quotient must be integral.

    Over Q, g divides f iff the Z-primitive part of g divides that of f
    over Z (Gauss's lemma), and the quotient is then integral; h is that
    quotient times the unit lc(f) lc(g~) / (lc(g) lc(f~))."""
    if f.ring != g.ring:
        raise ValueError("ring mismatch")
    if g.is_zero():
        raise ZeroDivisionError
    if f.is_zero():
        return DirichletPoly({}, f.ring)
    if f.ring.kind == "Fp":
        h = _divide_fp(dict(f.items()), dict(g.items()), f.ring.p)
        return DirichletPoly(h, f.ring) if h is not None else None
    ring, unit = f.ring, 1
    if ring.kind == "Q":
        fz, gz = f.z_primitive_part(), g.z_primitive_part()
        unit = f.leading_coeff() * gz.leading_coeff() / (g.leading_coeff() * fz.leading_coeff())
        f, g = fz, gz
    h = _divide_zz(dict(f.items()), dict(g.items()))
    return DirichletPoly({k: unit * c for k, c in h.items()}, ring) if h is not None else None


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
