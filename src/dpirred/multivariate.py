"""Multivariate Dirichlet polynomials: finite sums of terms
a / (i_1^s_1 ... i_n^s_n) with positive integer indices per indeterminate.

The product multiplies index tuples coordinatewise.  JSON schema:
{"vars": ["s1", "s2"], "terms": [{"indices": [8, 2], "coeff": 1}]}.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .core import ZZ, Ring, SparsePoly, gcd_list, json_coeff, json_int, json_object


class MultiDirichletPoly(SparsePoly):
    __slots__ = ("vars",)

    def __init__(self, terms, variables, ring: Ring = ZZ):
        variables = tuple(variables)
        if len(set(variables)) != len(variables):
            raise ValueError(f"variable names must be distinct, got {variables}")
        t = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for idx, c in items:
            idx = tuple(int(i) for i in idx)
            if len(idx) != len(variables):
                raise ValueError(f"index tuple {idx} does not match {variables}")
            if any(i < 1 for i in idx):
                raise ValueError(f"indices must be >= 1, got {idx}")
            c = ring.coerce(c)
            if c == 0:
                continue
            if idx in t:
                raise ValueError(f"duplicate index {idx}")
            t[idx] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "_terms", dict(sorted(t.items())))

    @staticmethod
    def _times(i1: tuple, i2: tuple) -> tuple:
        return tuple(x * y for x, y in zip(i1, i2))

    @staticmethod
    def _index_gcd(indices) -> tuple:
        return tuple(map(gcd_list, zip(*indices)))

    @staticmethod
    def _index_div(i: tuple, d: tuple) -> tuple:
        return tuple(x // g for x, g in zip(i, d))

    @property
    def ONE(self) -> tuple:
        return (1,) * len(self.vars)

    def _like(self, terms) -> "MultiDirichletPoly":
        return MultiDirichletPoly(terms, self.vars, self.ring)

    def _frame(self):
        return self.ring, self.vars

    def is_constant(self):
        return all(all(i == 1 for i in idx) for idx in self._terms)

    def total_degree(self) -> int:
        best = 0
        for idx in self._terms:
            prod = 1
            for i in idx:
                prod *= i
            best = max(best, prod)
        return best

    def degree_in(self, var: str) -> int:
        k = self.vars.index(var)
        return max((idx[k] for idx in self._terms), default=0)

    def coefficient_degrees(self, outer: str, inner: str) -> dict[int, int]:
        """Map outer index i -> deg_inner a_i, the largest inner index over
        the terms with outer index i, sorted by i; no coefficient is built."""
        k, j = self.vars.index(outer), self.vars.index(inner)
        if k == j:
            raise ValueError(f"outer and inner variable are both {outer!r}")
        degs: dict[int, int] = {}
        for idx in self._terms:
            degs[idx[k]] = max(idx[j], degs.get(idx[k], 0))
        return dict(sorted(degs.items()))

    def to_json(self) -> str:
        terms = []
        for idx, c in self._terms.items():
            if isinstance(c, Fraction) and c.denominator != 1:
                coeff = [c.numerator, c.denominator]
            else:
                coeff = int(c)
            terms.append({"indices": list(idx), "coeff": coeff})
        obj = {"vars": list(self.vars), "terms": terms}
        if self.ring.kind == "Fp":
            obj["p"] = self.ring.p
        if self.ring.kind == "Q":
            obj["ring"] = "Q"
        return json.dumps(obj, separators=(",", ":"))

    @classmethod
    def from_json(cls, s: str) -> "MultiDirichletPoly":
        obj, ring = json_object(s)
        variables = obj.get("vars")
        if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
            raise ValueError('"vars" must be a list of variable names')
        terms = []
        for t in obj["terms"]:
            if not isinstance(t, dict) or not isinstance(t.get("indices"), list) \
                    or "coeff" not in t:
                raise ValueError(f"term {t!r} needs a list of indices and a coeff")
            terms.append((tuple(json_int(i) for i in t["indices"]), json_coeff(t["coeff"])))
        return cls(terms, variables, ring)

    def text(self) -> str:
        if not self._terms:
            return "0"
        bits = []
        for idx, c in self._terms.items():
            den = "*".join(
                f"{i}^{v}" for i, v in zip(idx, self.vars) if i > 1)
            bits.append(f"{c}" if not den else f"{c}/({den})")
        return " + ".join(bits)

    def __repr__(self):
        return f"MultiDirichletPoly({self.text()!r}, vars={self.vars})"
