"""Certified interval arithmetic for expressions in logarithms of rationals.

Everything here is exact: ln() of a positive rational is enclosed between
two Fractions whose gap is below a requested 2^-prec, via the atanh series
with an explicit tail bound.  Signs of log expressions are decided on
integer-scaled enclosures (the rational enclosure times a positive integer,
so the same sign) at escalating precision; equalities are never decided
numerically.

Log expressions live in one prime-basis form, LogProduct: a polynomial over
Q in the symbols L_p = ln p, one per prime, into which ln(a) expands as
sum v_p(a) L_p.  The 2x2 log determinants ln a ln b - ln c ln d of integer
ratios (the hull, chord and slope tests) are expanded by log_det_sign from
the int exponent vectors of core.exponents into int coefficients; the log^k
entries of the derivative matrices in ranktests are built over Q.
A form whose expansion cancels is Zero, which is an identity and so exact;
any other form gets its sign certified by intervals on ln p for its primes,
or Undecidable at the precision cap, never a wrong sign.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .core import exponents

NEGATIVE = "negative"
ZERO = "zero"
POSITIVE = "positive"
UNDECIDABLE = "undecidable"

PRECISION_CAP_BITS = 4096
PRECISION_START_BITS = 64


# ---------------------------------------------------------------------------
# interval endpoints are Fractions; round outward to keep them small


def _floor_to(x: Fraction, prec: int) -> Fraction:
    scale = 1 << prec
    return Fraction((x * scale).__floor__(), scale)


def _ceil_to(x: Fraction, prec: int) -> Fraction:
    scale = 1 << prec
    return Fraction(-((-x * scale).__floor__()), scale)


class IV:
    """Closed interval [lo, hi] with exact rational endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        self.lo = Fraction(lo)
        self.hi = self.lo if hi is None else Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("empty interval")

    def __add__(self, other):
        other = other if isinstance(other, IV) else IV(other)
        return IV(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __neg__(self):
        return IV(-self.hi, -self.lo)

    def __sub__(self, other):
        other = other if isinstance(other, IV) else IV(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, IV) else IV(other)
        ps = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return IV(min(ps), max(ps))

    __rmul__ = __mul__

    def rounded(self, prec: int) -> "IV":
        return IV(_floor_to(self.lo, prec), _ceil_to(self.hi, prec))

    def sign(self) -> str | None:
        """Certified sign, or None when the interval straddles zero."""
        if self.lo > 0:
            return POSITIVE
        if self.hi < 0:
            return NEGATIVE
        if self.lo == self.hi == 0:
            return ZERO
        return None

    def __repr__(self):
        return f"IV({self.lo}, {self.hi})"


def _atanh_bounds(z: Fraction, prec: int) -> IV:
    """atanh(z) for 0 <= z < 1/2, enclosed within 2^-prec."""
    if z == 0:
        return IV(0)
    # terms z^(2k+1)/(2k+1); tail after K terms <= z^(2K+1)/((2K+1)(1-z^2))
    z2 = z * z
    s = Fraction(0)
    term = z
    k = 0
    bound = Fraction(1, 1 << (prec + 2))
    while True:
        tail = term / ((2 * k + 1) * (1 - z2))
        if tail <= bound:
            return IV(s, s + tail).rounded(prec + 2)
        s += term / (2 * k + 1)
        term *= z2
        k += 1


_LN_CACHE: dict[tuple[int, int], IV] = {}
_LN2_CACHE: dict[int, IV] = {}
_LN_SCALED_CACHE: dict[tuple[int, int], tuple[int, int]] = {}


def ln_int_bounds(n: int, prec: int) -> IV:
    """ln(n) for a positive integer, enclosed within ~2^-prec.  The result
    depends on (n, prec) alone, not on which values were cached before."""
    if n < 1:
        raise ValueError("ln of nonpositive")
    if n == 1:
        return IV(0)
    key = (n, prec)
    if key in _LN_CACHE:
        return _LN_CACHE[key]
    e = n.bit_length() - 1  # 2^e <= n < 2^(e+1)
    m = Fraction(n, 1 << e)  # in [1, 2)
    ln2_prec = prec + e.bit_length() + 2
    ln2 = _LN2_CACHE.get(ln2_prec)
    if ln2 is None:
        ln2 = _LN2_CACHE[ln2_prec] = 2 * _atanh_bounds(Fraction(1, 3), ln2_prec)
    z = (m - 1) / (m + 1)  # in [0, 1/3)
    out = (e * ln2 + 2 * _atanh_bounds(z, prec + 2)).rounded(prec)
    if len(_LN_CACHE) < 4096:
        _LN_CACHE[key] = out
    return out


def _ln_scaled_bounds(n: int, prec: int) -> tuple[int, int]:
    """ln_int_bounds(n, prec) times 2^prec, as two ints: its endpoints are
    multiples of 2^-prec, so the scaling is exact."""
    key = (n, prec)
    out = _LN_SCALED_CACHE.get(key)
    if out is None:
        iv = ln_int_bounds(n, prec)
        scale = 1 << prec
        out = (iv.lo.numerator * (scale // iv.lo.denominator),
               iv.hi.numerator * (scale // iv.hi.denominator))
        if len(_LN_SCALED_CACHE) < 4096:
            _LN_SCALED_CACHE[key] = out
    return out


def ln_bounds(q: Fraction, prec: int) -> IV:
    q = Fraction(q)
    if q <= 0:
        raise ValueError("ln of nonpositive")
    return (ln_int_bounds(q.numerator, prec + 1) - ln_int_bounds(q.denominator, prec + 1)).rounded(prec)


# ---------------------------------------------------------------------------
# multiplicative structure of rationals


def _ratio_exponents(r: tuple[int, int]) -> list[tuple[int, int]]:
    """(p, v_p(num/den)) for r = (num, den) positive ints, zeros dropped: the
    int exponent vectors of num and den subtracted (primes of num first)."""
    num, den = r
    v = dict(exponents(num))
    for p, e in exponents(den).items():
        v[p] = v.get(p, 0) - e
    return [(p, e) for p, e in v.items() if e]


def exponent_vector(q: Fraction) -> dict[int, int]:
    """Map prime -> exponent for a positive rational."""
    q = Fraction(q)
    if q <= 0:
        raise ValueError("needs a positive rational")
    return dict(_ratio_exponents(q.as_integer_ratio()))


def multiplicative_dependence_ratio(a: Fraction, b: Fraction) -> Fraction | None:
    """The rational r with b = a^r, if it exists (a, b positive, a != 1)."""
    va, vb = exponent_vector(a), exponent_vector(b)
    if not va:
        raise ValueError("a must differ from 1")
    if not vb:
        return Fraction(0)
    if set(va) != set(vb):
        return None
    p, e = next(iter(va.items()))
    r = Fraction(vb[p], e)
    return r if all(Fraction(vb[q], f) == r for q, f in va.items()) else None


# ---------------------------------------------------------------------------
# the prime-basis log form


class LogProduct:
    """Polynomial over Q in the symbols L_p (one per prime), kept as a
    canonical sorted map from monomials (sorted tuples of primes) to
    nonzero Fraction coefficients.  ln(a) for a rational a > 0 is
    sum v_p(a) L_p, so every product of logs of rationals has one expansion
    and every multiplicative identity among them cancels exactly."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        t = {}
        if terms:
            for mono, c in (terms.items() if isinstance(terms, dict) else terms):
                mono = tuple(sorted(mono))
                c = Fraction(c)
                if c:
                    t[mono] = t.get(mono, Fraction(0)) + c
        self.terms = {m: c for m, c in sorted(t.items()) if c}

    @classmethod
    def constant(cls, c):
        return cls({(): Fraction(c)})

    @classmethod
    def log_of(cls, q):
        """ln q for a positive rational q, expanded as sum v_p(q) L_p."""
        return cls({(p,): e for p, e in exponent_vector(q).items()})

    def add_product(self, a, b, coeff=1) -> "LogProduct":
        """Add coeff * ln(a) * ln(b) in place (a, b positive rationals)."""
        return self._add(exponent_vector(a).items(), exponent_vector(b).items(), Fraction(coeff))

    def _add(self, va, vb, coeff) -> "LogProduct":
        """Add coeff * (sum va_p L_p) * (sum vb_q L_q) in place; the new
        coefficients have coeff's type, so int in gives int out."""
        t = dict(self.terms)
        for p, e in va:
            for q, f in vb:
                m = (p, q) if p <= q else (q, p)
                c = coeff * (e * f)
                t[m] = t[m] + c if m in t else c
        self.terms = {m: c for m, c in sorted(t.items()) if c}
        return self

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, LogProduct) and self.terms == other.terms

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, Fraction(0)) + c
        return LogProduct(out)

    def __neg__(self):
        return LogProduct({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return LogProduct({m: c * other for m, c in self.terms.items()})
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return LogProduct(out)

    __rmul__ = __mul__

    def pow(self, k: int):
        out = LogProduct.constant(1)
        for _ in range(k):
            out = out * self
        return out

    def scaled_interval(self, prec: int) -> tuple[int, int]:
        """The enclosure of the form at prec, from the ln p bounds of
        ln_int_bounds, as two ints (lo, hi) scaled by the positive integer
        D * 2^(K*prec): D is the lcm of the coefficients' denominators and K
        the top monomial degree.  No ln p bound is negative, so a monomial's
        bounds are the products of its ln p bounds, and a negative
        coefficient swaps them."""
        terms = self.terms
        d = lcm(*(c.denominator for c in terms.values()))
        top = max(map(len, terms), default=0)
        lo = hi = 0
        for mono, c in terms.items():
            mlo = mhi = 1
            for p in mono:
                plo, phi = _ln_scaled_bounds(p, prec)
                mlo *= plo
                mhi *= phi
            shift = prec * (top - len(mono))
            n = c.numerator * (d // c.denominator)
            if n > 0:
                lo += (n * mlo) << shift
                hi += (n * mhi) << shift
            else:
                lo += (n * mhi) << shift
                hi += (n * mlo) << shift
        return lo, hi

    def compare(self) -> str:
        """Certified sign of the form: negative | zero | positive | undecidable.

        Zero is reported only when the prime-basis expansion cancels, an
        identity; intervals never certify a tie.
        """
        if not self.terms:
            return ZERO
        prec = PRECISION_START_BITS
        while True:
            lo, hi = self.scaled_interval(prec)
            if lo > 0:
                return POSITIVE
            if hi < 0:
                return NEGATIVE
            if prec >= PRECISION_CAP_BITS:
                return UNDECIDABLE
            prec = min(2 * prec, PRECISION_CAP_BITS)

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for m, c in self.terms.items():
            mono = "*".join(f"L{p}" for p in m) or "1"
            bits.append(f"{c}*{mono}")
        return " + ".join(bits)


def log_det_sign(a, b, c, d) -> str:
    """Certified sign of ln(a) ln(b) - ln(c) ln(d) for ratios (num, den) of
    positive ints: the int expansion over the L_p L_q monomials, signed by
    LogProduct.compare (zero only when it cancels)."""
    a, b, c, d = map(_ratio_exponents, (a, b, c, d))
    return LogProduct()._add(a, b, 1)._add(c, d, -1).compare()


def log_orientation(p1, p2, p3) -> str:
    """Sign of the turn (log p1) -> (log p2) -> (log p3) for points (x, y)
    of positive integers: zero means collinear with an exact witness."""
    (x1, y1), (x2, y2), (x3, y3) = p1, p2, p3
    return log_det_sign((x2, x1), (y3, y1), (x3, x1), (y2, y1))
