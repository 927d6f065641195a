"""Exact-arithmetic toolkit for the factorization of Dirichlet polynomials:
log-polygon and log-polytope irreducibility criteria, square-free and
multiplicity bounds, matrix-rank tests, prime-value criteria, and a
brute-force oracle for validation."""

from .core import DirichletPoly, GF, QQ, Ring, ZZ, factor_integer
from .report import CriterionReport

__all__ = [
    "DirichletPoly",
    "Ring",
    "ZZ",
    "QQ",
    "GF",
    "factor_integer",
    "CriterionReport",
]

__version__ = "0.1.0"
