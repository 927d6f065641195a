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
            return Fraction(x)
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

_FACTOR_CACHE: dict[int, tuple[tuple[int, int], ...]] = {}

FACTOR_CAP_DEFAULT = 10**7


def factor_integer(n: int, cap: int = FACTOR_CAP_DEFAULT) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as an ascending list of (prime, exponent).

    Trial division only.  If a composite residue survives with no prime
    factor below `cap`, raise UnfactoredResidueError rather than guessing.
    """
    if n < 1:
        raise ValueError(f"factor_integer needs n >= 1, got {n}")
    if n in _FACTOR_CACHE:
        return list(_FACTOR_CACHE[n])
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
        _FACTOR_CACHE[n] = tuple(out)
    return out


_EXPONENT_CACHE: dict[int, Mapping[int, int]] = {}


def exponents(n: int, cap: int = FACTOR_CAP_DEFAULT) -> Mapping[int, int]:
    """The prime exponents {p: v_p(n)} of n >= 1, primes ascending.

    The one source of index exponents for every lattice, segment and log
    question; cached like factor_integer.  The mapping is shared between
    callers, hence read-only.
    """
    out = _EXPONENT_CACHE.get(n)
    if out is None:
        out = MappingProxyType(dict(factor_integer(n, cap)))
        if n <= 10**6:
            _EXPONENT_CACHE[n] = out
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
    """nu_p(n) for n != 0."""
    if n == 0:
        raise ValueError("valuation of 0 is infinite")
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation_q(q: Fraction, p: int) -> int:
    if q == 0:
        raise ValueError("valuation of 0 is infinite")
    return valuation(q.numerator, p) - valuation(q.denominator, p)


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factor_integer(n):
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
    return factor_integer(n)[0][0]


def gcd_list(xs) -> int:
    g = 0
    for x in xs:
        g = gcd(g, abs(x))
    return g


# ---------------------------------------------------------------------------
# Dirichlet polynomials


class DirichletPoly:
    """Sparse Dirichlet polynomial over Z, Q, or F_p.

    Immutable after construction; no zero coefficients are stored.
    """

    __slots__ = ("ring", "_terms")

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

    def __setattr__(self, *a):
        raise AttributeError("DirichletPoly is immutable")

    # -- basic views ------------------------------------------------------

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def support(self) -> list[int]:
        return list(self._terms)

    def coeff(self, i: int):
        return self._terms.get(i, self.ring.coerce(0))

    def is_zero(self) -> bool:
        return not self._terms

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

    def __eq__(self, other):
        return (
            isinstance(other, DirichletPoly)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(self._terms.items())))

    def __repr__(self):
        return f"DirichletPoly({self.text()!r}, ring={self.ring})"

    # -- ring operations --------------------------------------------------

    def _check_ring(self, other: "DirichletPoly"):
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")

    def __add__(self, other: "DirichletPoly") -> "DirichletPoly":
        self._check_ring(other)
        t = dict(self._terms)
        for i, c in other._terms.items():
            t[i] = self.ring.add(t.get(i, 0), c)
        return DirichletPoly(t, self.ring)

    def __neg__(self) -> "DirichletPoly":
        return DirichletPoly({i: self.ring.neg(c) for i, c in self._terms.items()}, self.ring)

    def __sub__(self, other: "DirichletPoly") -> "DirichletPoly":
        return self + (-other)

    def __mul__(self, other: "DirichletPoly") -> "DirichletPoly":
        self._check_ring(other)
        acc: dict[int, object] = {}
        for i, a in self._terms.items():
            for j, b in other._terms.items():
                k = i * j
                acc[k] = self.ring.add(acc.get(k, 0), self.ring.mul(a, b))
        return DirichletPoly(acc, self.ring)

    def scale(self, c) -> "DirichletPoly":
        c = self.ring.coerce(c)
        return DirichletPoly({i: self.ring.mul(a, c) for i, a in self._terms.items()}, self.ring)

    def pow(self, e: int) -> "DirichletPoly":
        r = DirichletPoly({1: 1}, self.ring)
        for _ in range(e):
            r = r * self
        return r

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

    def is_algebraically_primitive(self) -> bool:
        return gcd_list(self._terms) == 1 if self._terms else False

    def algebraic_shift(self) -> int:
        """gcd of the support indices."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        return gcd_list(self._terms)

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
        d = self.algebraic_shift()
        alg = DirichletPoly({i // d: a for i, a in prim._terms.items()}, self.ring)
        return c, prim, d, alg

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

    def relevant_primes(self, cap: int = FACTOR_CAP_DEFAULT) -> list[int]:
        """Primes dividing at least one support index."""
        ps = set()
        for i in self._terms:
            ps.update(exponents(i, cap))
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
    def parse(cls, s: str, ring: Ring = None) -> "DirichletPoly":
        """Parse the `a/i^s` text form, e.g. "4/4^s + 4/6^s - 2/8^s"."""
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
        if ring is None:
            ring = ZZ if all(c.denominator == 1 for c in terms.values()) else QQ
        return cls(terms, ring)


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


# ---------------------------------------------------------------------------
# the phi map into multivariate polynomials (one slot per prime)

_PRIMES_BY_SLOT: list[int] = [2]


def prime_for_slot(k: int) -> int:
    while len(_PRIMES_BY_SLOT) <= k:
        c = _PRIMES_BY_SLOT[-1] + 1
        while not is_prime(c):
            c += 1
        _PRIMES_BY_SLOT.append(c)
    return _PRIMES_BY_SLOT[k]


def slot_for_prime(p: int) -> int:
    k = 0
    while True:
        q = prime_for_slot(k)
        if q == p:
            return k
        if q > p:
            raise ValueError(f"{p} is not prime")
        k += 1


class MultivariatePoly:
    """Image of a Dirichlet polynomial under the map sending the term
    1/p_k^s to the k-th indeterminate.  Exponent vectors carry no trailing
    zeros; the empty vector is the constant monomial."""

    __slots__ = ("ring", "_terms")

    def __init__(self, terms, ring: Ring = ZZ):
        t = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for exps, c in items:
            exps = tuple(exps)
            while exps and exps[-1] == 0:
                exps = exps[:-1]
            if any(e < 0 for e in exps):
                raise ValueError("negative exponent")
            c = ring.coerce(c)
            if c == 0:
                continue
            t[exps] = ring.add(t.get(exps, 0), c)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_terms", {k: v for k, v in sorted(t.items()) if v != 0})

    def __setattr__(self, *a):
        raise AttributeError("MultivariatePoly is immutable")

    @property
    def terms(self):
        return dict(self._terms)

    def __eq__(self, other):
        return (
            isinstance(other, MultivariatePoly)
            and self.ring == other.ring
            and self._terms == other._terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(self._terms.items())))

    def __mul__(self, other: "MultivariatePoly") -> "MultivariatePoly":
        if self.ring != other.ring:
            raise ValueError("ring mismatch")
        acc = {}
        for e1, a in self._terms.items():
            for e2, b in other._terms.items():
                n = max(len(e1), len(e2))
                e = tuple(
                    (e1[k] if k < len(e1) else 0) + (e2[k] if k < len(e2) else 0)
                    for k in range(n)
                )
                acc[e] = self.ring.add(acc.get(e, 0), self.ring.mul(a, b))
        return MultivariatePoly(acc, self.ring)

    def __repr__(self):
        return f"MultivariatePoly({self._terms!r})"


def phi_map(f: DirichletPoly, cap: int = FACTOR_CAP_DEFAULT) -> MultivariatePoly:
    """Send each term a_n/n^s, n = prod p_k^{e_k}, to the monomial with
    exponent e_k in slot k.  Exact and invertible."""
    terms = {}
    for i, c in f.items():
        exps: list[int] = []
        for p, e in exponents(i, cap).items():
            k = slot_for_prime(p)
            while len(exps) <= k:
                exps.append(0)
            exps[k] = e
        terms[tuple(exps)] = c
    return MultivariatePoly(terms, f.ring)


def phi_inverse(F: MultivariatePoly) -> DirichletPoly:
    terms = {}
    for exps, c in F.terms.items():
        n = 1
        for k, e in enumerate(exps):
            n *= prime_for_slot(k) ** e
        terms[n] = c
    return DirichletPoly(terms, F.ring)
