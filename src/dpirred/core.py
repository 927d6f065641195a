"""Exact arithmetic for Dirichlet polynomials.

A Dirichlet polynomial is a finite sum  a_m/m^s + ... + a_n/n^s  with
positive integer indices and exact coefficients.  Multiplication is the
Dirichlet convolution c_k = sum_{i*j=k} a_i*b_j.  Coefficients live in one
of three rings: the integers, the rationals (stored reduced), or a prime
field F_p (residues in [0, p)).

Terms are stored sparsely, keyed by index; iteration is always in
ascending index order so every printed or serialized form is deterministic.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType


class UnfactoredResidueError(ValueError):
    """Trial division gave up: a cofactor above the cap remains."""


@dataclass(frozen=True)
class Ring:
    kind: str  # "Z" | "Q" | "Fp"
    p: int | None = None

    def __post_init__(self):
        if self.kind not in ("Z", "Q", "Fp"):
            raise ValueError(f"unknown ring kind {self.kind!r}")
        if self.kind == "Fp":
            if self.p is None or self.p < 2 or not is_prime(self.p):
                raise ValueError(f"Fp needs a prime modulus, got {self.p!r}")
        elif self.p is not None:
            raise ValueError("modulus only makes sense for Fp")

    def coerce(self, x):
        if self.kind == "Z":
            if isinstance(x, Fraction) and x.denominator != 1:
                raise ValueError(f"{x} is not an integer")
            return int(x)
        if self.kind == "Q":
            return x if isinstance(x, Fraction) else Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ValueError(f"{x} has no residue mod {self.p}")
            return x.numerator * pow(x.denominator, -1, self.p) % self.p
        return int(x) % self.p

    def add(self, a, b):
        return (a + b) % self.p if self.kind == "Fp" else a + b

    def mul(self, a, b):
        return (a * b) % self.p if self.kind == "Fp" else a * b

    def neg(self, a):
        return (-a) % self.p if self.kind == "Fp" else -a

    def __str__(self):
        return f"F{self.p}" if self.kind == "Fp" else self.kind


ZZ = Ring("Z")
QQ = Ring("Q")


def GF(p: int) -> Ring:
    return Ring("Fp", p)


# ---------------------------------------------------------------------------
# integer helpers

FACTOR_CAP_DEFAULT = 10**7

# {p: v_p(n)} for every n <= 10^6 factored so far: the one factorization cache,
# filled by factor_integer and read by exponents.  A returned factorization is
# complete whatever the cap (a capped search raises), so no entry depends on it.
_EXPONENT_CACHE: dict[int, Mapping[int, int]] = {}


def factor_integer(n: int, cap: int = FACTOR_CAP_DEFAULT) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as an ascending list of (prime, exponent).

    Trial division only.  If a composite residue survives with no prime
    factor below `cap`, raise UnfactoredResidueError rather than guessing.
    """
    if n < 1:
        raise ValueError(f"factor_integer needs n >= 1, got {n}")
    cached = _EXPONENT_CACHE.get(n)
    if cached is not None:
        return list(cached.items())
    m, out = n, []
    for p in (2, 3):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
    d = 5
    while d * d <= m and d <= cap:
        for q in (d, d + 2):
            if m % q == 0:
                e = 0
                while m % q == 0:
                    m //= q
                    e += 1
                out.append((q, e))
        d += 6
    if m > 1:
        if d * d <= m:  # residue not proven prime and divisor search capped out
            raise UnfactoredResidueError(f"unfactored residue {m} of {n} (cap {cap})")
        out.append((m, 1))
    out.sort()
    if n <= 10**6:
        _EXPONENT_CACHE[n] = MappingProxyType(dict(out))
    return out


def exponents(n: int) -> Mapping[int, int]:
    """The prime exponents {p: v_p(n)} of n >= 1, primes ascending.

    The one source of index exponents for every lattice, segment and log
    question.  The mapping is shared between callers, hence read-only.
    """
    out = _EXPONENT_CACHE.get(n)
    if out is None:
        out = MappingProxyType(dict(factor_integer(n)))
    return out


def log_gcd(a: int, b: int) -> int:
    """gcd over primes p of v_p(b) - v_p(a) (0 when a = b): the number of
    steps of the log-integral lattice on the segment from log a to log b."""
    ea, eb = exponents(a), exponents(b)
    return gcd_list(eb.get(p, 0) - ea.get(p, 0) for p in ea.keys() | eb.keys())


def log_points(a: int, b: int, d: int) -> list[int]:
    """The d+1 integers a^(1-i/d) * b^(i/d), i = 0..d, for d dividing
    log_gcd(a, b): the log-integral points from log a to log b in d equal
    steps, interpolated prime by prime."""
    ea, eb = exponents(a), exponents(b)
    num = den = 1
    for p in ea.keys() | eb.keys():
        step = (eb.get(p, 0) - ea.get(p, 0)) // d
        if step > 0:
            num *= p**step
        else:
            den *= p**-step
    out = [a]
    for _ in range(d):
        out.append(out[-1] * num // den)
    return out


def max_exponents(indices) -> dict[int, int]:
    """Largest exponent of each prime over the given indices, primes
    ascending: a factor's indices cannot exceed it in any prime, since
    prime exponents add under the Dirichlet product."""
    out: dict[int, int] = {}
    for i in indices:
        for p, e in exponents(i).items():
            out[p] = max(out.get(p, 0), e)
    return dict(sorted(out.items()))


def iroot(x: int, k: int) -> int | None:
    """The integer r >= 0 with r^k = x, or None when x >= 0 is not a
    perfect k-th power.  Integer Newton iteration, no floating point."""
    if x < 0 or k < 1:
        raise ValueError("iroot needs x >= 0 and k >= 1")
    if x < 2 or k == 1:
        return x
    r = 1 << -(-x.bit_length() // k)  # at least the real root
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            break
        r = s
    return r if r**k == x else None


def valuation(n: int, p: int) -> int:
    """nu_p(n) for n != 0 and p >= 2."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    if p < 2:
        raise ValueError(f"valuation needs p >= 2, got {p}")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in exponents(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def is_prime(n: int) -> bool:
    """Deterministic primality: trial division, then Miller-Rabin with a
    base set proven complete below 3.3e24."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    if n < 41 * 41:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_factor(n: int) -> int:
    if n < 2:
        raise ValueError("no prime factor")
    return next(iter(exponents(n)))


def gcd_list(xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


# ---------------------------------------------------------------------------
# Dirichlet polynomials


class SparsePoly:
    """Sparse polynomial over Z, Q or F_p, keyed by index: what the one-
    and many-variable Dirichlet classes share.  Subclasses give the index
    product `_times`, the index gcd `_index_gcd(indices)` and division
    `_index_div(i, d)`, the index `ONE` of the constant term and
    `_like(terms)`, a new polynomial of the same kind; one with several
    variables adds them to `_frame()`, what two equal polynomials or two
    operands must share.

    Immutable after construction; no zero coefficients are stored.
    """

    __slots__ = ("ring", "_terms")

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def support(self) -> list:
        return list(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def _frame(self):
        return self.ring

    def __eq__(self, other):
        return (
            isinstance(other, type(self))
            and self._frame() == other._frame()
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self._frame(), tuple(self._terms.items())))

    def _check(self, other: "SparsePoly"):
        if self._frame() != other._frame():
            if self.ring != other.ring:
                raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
            raise ValueError(f"variable mismatch: {self!r} vs {other!r}")

    def __add__(self, other):
        self._check(other)
        add = self.ring.add
        t = dict(self._terms)
        for i, c in other._terms.items():
            t[i] = add(t.get(i, 0), c)
        return self._like(t)

    def __neg__(self):
        neg = self.ring.neg
        return self._like({i: neg(c) for i, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        self._check(other)
        add, mul, times = self.ring.add, self.ring.mul, self._times
        acc: dict = {}
        for i, a in self._terms.items():
            for j, b in other._terms.items():
                k = times(i, j)
                acc[k] = add(acc.get(k, 0), mul(a, b))
        return self._like(acc)

    def scale(self, c):
        c = self.ring.coerce(c)
        mul = self.ring.mul
        return self._like({i: mul(a, c) for i, a in self._terms.items()})

    def pow(self, e: int):
        r = self._like({self.ONE: 1})
        for _ in range(e):
            r = r * self
        return r

    def algebraic_shift(self):
        """gcd of the support indices (coordinate by coordinate for a tuple)."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        return self._index_gcd(self._terms)

    def is_algebraically_primitive(self) -> bool:
        """Whether the algebraic shift is the unit index; False for zero."""
        return bool(self._terms) and self._index_gcd(self._terms) == self.ONE

    def algebraically_primitive_part(self):
        """The polynomial with every index divided by the algebraic shift."""
        d = self.algebraic_shift()
        if d == self.ONE:
            return self
        div = self._index_div
        return self._like({div(i, d): c for i, c in self._terms.items()})


class DirichletPoly(SparsePoly):
    """Sparse Dirichlet polynomial over Z, Q, or F_p, keyed by int index."""

    __slots__ = ()
    ONE = 1

    def __init__(self, terms, ring: Ring = ZZ):
        t = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for i, c in items:
            i = int(i)
            if i < 1:
                raise ValueError(f"index {i} < 1")
            c = ring.coerce(c)
            if c == 0:
                continue
            if i in t:
                raise ValueError(f"duplicate index {i}")
            t[i] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", dict(sorted(t.items())))

    @staticmethod
    def _times(i: int, j: int) -> int:
        return i * j

    _index_gcd = staticmethod(gcd_list)

    @staticmethod
    def _index_div(i: int, d: int) -> int:
        return i // d

    def _like(self, terms) -> "DirichletPoly":
        return DirichletPoly(terms, self.ring)

    # -- basic views ------------------------------------------------------

    def is_constant(self) -> bool:
        return not self._terms or self._terms.keys() == {1}

    @property
    def degree(self) -> int:
        """Largest index; 0 for the zero polynomial by convention."""
        return max(self._terms) if self._terms else 0

    @property
    def deg_min(self) -> int:
        if not self._terms:
            raise ValueError("zero polynomial has no min-degree")
        return min(self._terms)

    def leading_coeff(self):
        return self._terms[self.degree]

    def min_coeff(self):
        return self._terms[self.deg_min]

    def __repr__(self):
        return f"DirichletPoly({self.text()!r}, ring={self.ring})"

    # -- structure --------------------------------------------------------

    def height(self) -> int:
        """Max absolute coefficient (integer polynomials)."""
        if self.ring.kind != "Z":
            raise ValueError("height is defined for integer coefficients")
        return max((abs(c) for c in self._terms.values()), default=0)

    def content(self):
        """gcd of coefficients over Z; lcm-of-denominators form over Q."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        if self.ring.kind == "Z":
            return gcd_list(self._terms.values())
        if self.ring.kind == "Q":
            num = gcd_list(c.numerator for c in self._terms.values())
            return Fraction(num, lcm(*(c.denominator for c in self._terms.values())))
        raise ValueError("content over a field is a unit")

    def normalize(self):
        """Split f into content, primitive part, index shift, and the
        algebraically primitive part (indices divided by their gcd).

        Returns (content, primitive_part, shift, algebraically_primitive_part).
        """
        if self.is_zero():
            raise ValueError("cannot normalize the zero polynomial")
        if self.ring.kind == "Fp":
            c = self.leading_coeff()
            inv = pow(c, -1, self.ring.p)
            prim = self.scale(inv)
        else:
            c = self.content()
            if self.ring.kind == "Z" and self.leading_coeff() < 0:
                c = -c
            prim = DirichletPoly(
                {i: Fraction(a) / c if self.ring.kind == "Q" else a // c
                 for i, a in self._terms.items()},
                self.ring,
            )
        return c, prim, self.algebraic_shift(), prim.algebraically_primitive_part()

    def z_primitive_part(self) -> "DirichletPoly":
        """Integer primitive part of a Z or Q polynomial (positive leading)."""
        if self.ring.kind == "Z":
            return self.normalize()[1]
        if self.ring.kind != "Q":
            raise ValueError("needs Z or Q coefficients")
        k = self.content()
        return DirichletPoly({i: c / k for i, c in self._terms.items()}, ZZ).normalize()[1]

    # -- maps and evaluations ----------------------------------------------

    def evaluate_at_negative(self, t: int):
        """f(-t) = sum a_i * i^t, exact (t >= 0, integer coefficients)."""
        if self.ring.kind == "Fp":
            raise ValueError("evaluation at integers needs Z or Q coefficients")
        if t < 0:
            raise ValueError("t must be >= 0")
        return sum(c * i**t for i, c in self._terms.items())

    def reduce_mod(self, p: int) -> "DirichletPoly":
        if self.ring.kind != "Z":
            raise ValueError("reduce_mod needs integer coefficients")
        return DirichletPoly({i: c % p for i, c in self._terms.items()}, GF(p))

    def relevant_primes(self) -> list[int]:
        """Primes dividing at least one support index."""
        ps = set()
        for i in self._terms:
            ps.update(exponents(i))
        return sorted(ps)

    # -- text and JSON forms ------------------------------------------------

    def text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for i, c in self._terms.items():
            if isinstance(c, Fraction) and c.denominator != 1:
                mag, neg = f"({abs(c)})", c < 0
            else:
                ci = int(c)
                mag, neg = str(abs(ci)), ci < 0
            body = mag if i == 1 else f"{mag}/{i}^s"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def to_json(self) -> str:
        if self.ring.kind == "Q":
            terms = [[i, [c.numerator, c.denominator]] for i, c in self._terms.items()]
        else:
            terms = [[i, int(c)] for i, c in self._terms.items()]
        obj = {"ring": self.ring.kind, "terms": terms}
        if self.ring.kind == "Fp":
            obj["p"] = self.ring.p
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "DirichletPoly":
        obj, ring = json_object(s)
        terms = []
        for entry in obj["terms"]:
            if not isinstance(entry, list) or len(entry) != 2:
                raise ValueError(f"term {entry!r} is not an [index, coeff] pair")
            terms.append((json_int(entry[0]), json_coeff(entry[1])))
        return cls(terms, ring)

    @classmethod
    def parse(cls, s: str) -> "DirichletPoly":
        """Parse the `a/i^s` text form, e.g. "4/4^s + 4/6^s - 2/8^s".

        Integer text (`c` and `c/i^s` terms joined by single signs) is read
        by one regular-expression match into int coefficients; anything
        else, and a digit run too long for int(), goes to the general parser.
        """
        t = s.strip()
        if _Z_TEXT.fullmatch(t):
            terms: dict[int, int] = {}
            try:
                for sign, c, i in _Z_TERM.findall(t):
                    i = int(i) if i else 1
                    terms[i] = terms.get(i, 0) + (-int(c) if sign == "-" else int(c))
            except ValueError:  # past int()'s digit limit: the general parser's error
                pass
            else:
                return cls(terms, ZZ)
        return cls._parse_general(s)

    @classmethod
    def _parse_general(cls, s: str) -> "DirichletPoly":
        """The text parser for every form: rationals, parentheses, `i^s`
        with no coefficient, bare constants, JSON; errors name the term."""
        s = s.strip().replace("−", "-").replace("⁄", "/")
        if not s:
            raise ValueError("empty input")
        if s.lstrip().startswith("{"):
            return cls.from_json(s)
        tokens = _split_terms(s)
        terms: dict[int, Fraction] = {}
        for sign, body in tokens:
            coeff, idx = _parse_term(body)
            terms[idx] = terms.get(idx, Fraction(0)) + sign * coeff
        return cls(terms, ZZ if all(c.denominator == 1 for c in terms.values()) else QQ)


def common_ring(f: DirichletPoly, g: DirichletPoly) -> tuple[DirichletPoly, DirichletPoly]:
    """f and g with a Z operand promoted to Q when the other is over Q (text
    without fractions parses as Z); any other pair is returned as it is."""
    kinds = f.ring.kind, g.ring.kind
    if kinds == ("Z", "Q"):
        return DirichletPoly(f.items(), QQ), g
    if kinds == ("Q", "Z"):
        return f, DirichletPoly(g.items(), QQ)
    return f, g


# ---------------------------------------------------------------------------
# the JSON input form shared with MultiDirichletPoly; every malformed field
# raises ValueError


def json_object(s: str) -> tuple[dict, Ring]:
    """The decoded object and its ring: "ring" is Z (the default), Q, or Fp
    with the modulus in "p"; a bare "p" also means Fp."""
    obj = json.loads(s)
    if not isinstance(obj, dict) or not isinstance(obj.get("terms"), list):
        raise ValueError("JSON input needs an object with a list of terms")
    kind = obj.get("ring", "Fp" if "p" in obj else "Z")
    if kind == "Fp":
        if "p" not in obj:
            raise ValueError('ring Fp needs its modulus "p"')
        return obj, GF(json_int(obj["p"]))
    return obj, Ring(kind)


def json_int(x) -> int:
    if isinstance(x, bool) or not isinstance(x, int):
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def json_coeff(c):
    """An integer coefficient, or [numerator, denominator] for a rational."""
    if isinstance(c, list):
        if len(c) != 2:
            raise ValueError(f"rational coefficient {c!r} is not [numerator, denominator]")
        num, den = json_int(c[0]), json_int(c[1])
        if den == 0:
            raise ValueError(f"rational coefficient {c!r} has a zero denominator")
        return Fraction(num, den)
    return json_int(c)


def _split_terms(s: str) -> list[tuple[int, str]]:
    out, sign, buf, depth = [], 1, [], 0
    first = True
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if depth == 0 and ch in "+-" and (buf or first):
            if "".join(buf).strip():
                out.append((sign, "".join(buf).strip()))
            sign = 1 if ch == "+" else -1
            buf = []
            first = False
            continue
        first = False
        buf.append(ch)
    if "".join(buf).strip():
        out.append((sign, "".join(buf).strip()))
    if not out:
        raise ValueError(f"no terms in {s!r}")
    return out


# integer text: an optional leading "-", then terms c or c/i^s (i with no
# leading zero) joined by single signs, spaces only around the signs
_Z_TEXT = re.compile(r"-? *[0-9]+(?:/[1-9][0-9]*\^s)?(?: *[-+] *[0-9]+(?:/[1-9][0-9]*\^s)?)*")
_Z_TERM = re.compile(r"([-+]?) *([0-9]+)(?:/([0-9]+)\^s)?")

_TERM_RE = re.compile(
    r"^\s*(?:(?P<coeff>\((?:[^()]*)\)|\d+(?:/\d+)?|\d+)\s*/\s*)?(?P<idx>\d+)\s*\^\s*s\s*$"
)


def _parse_term(body: str) -> tuple[Fraction, int]:
    m = _TERM_RE.match(body)
    if m:
        c = m.group("coeff")
        idx = int(m.group("idx"))
        if c is None:
            coeff = Fraction(1)
        else:
            c = c.strip()
            if c.startswith("("):
                c = c[1:-1]
            coeff = Fraction(c)
        if idx < 1:
            raise ValueError(f"index {idx} < 1 in {body!r}")
        return coeff, idx
    # bare constant: "3" or "3/2" (a rational with no ^s)
    try:
        return Fraction(body.replace("(", "").replace(")", "").strip()), 1
    except ValueError:
        raise ValueError(f"cannot parse term {body!r}") from None
