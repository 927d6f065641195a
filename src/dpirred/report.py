"""Criterion reports: every test returns one of these instead of a bare bool.

A report carries the verdict, the rule that fired, human-readable detail,
any assumption flags (nonempty exactly for conditional verdicts), and a
certificate dict with whatever exact data backs the verdict (polygon
vertices, excluded intervals, factor witnesses, matrix ranks, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, field

IRREDUCIBLE = "irreducible"
ABSOLUTELY_IRREDUCIBLE = "absolutely-irreducible"
REDUCIBLE = "reducible"
K_POWER_FREE = "k-power-free"
SQUARE_FREE = "square-free"
NOT_SQUARE_FREE = "not-square-free"
NO_COMMON_FACTOR = "no-common-factor"
COMMON_FACTOR = "common-factor"
INCONCLUSIVE = "inconclusive"
UNDECIDABLE = "undecidable"

DEFINITIVE = {
    IRREDUCIBLE,
    ABSOLUTELY_IRREDUCIBLE,
    REDUCIBLE,
    K_POWER_FREE,
    SQUARE_FREE,
    NOT_SQUARE_FREE,
    NO_COMMON_FACTOR,
    COMMON_FACTOR,
}

LOG_INDEPENDENCE = "logs-of-primes-algebraically-independent"


@dataclass
class CriterionReport:
    verdict: str
    rule: str
    detail: str = ""
    assumptions: tuple[str, ...] = ()
    certificate: dict = field(default_factory=dict)

    def __post_init__(self):
        known = DEFINITIVE | {INCONCLUSIVE, UNDECIDABLE}
        if self.verdict not in known:
            raise ValueError(f"unknown verdict {self.verdict!r}")

    @property
    def definitive(self) -> bool:
        return self.verdict in DEFINITIVE

    @property
    def conditional(self) -> bool:
        return bool(self.assumptions)

    def gated(self, assume_log_independence: bool) -> "CriterionReport":
        """Downgrade conditional verdicts to inconclusive unless the caller
        opted into the independence assumption."""
        if self.conditional and self.definitive and not assume_log_independence:
            return CriterionReport(
                INCONCLUSIVE,
                self.rule,
                f"conditional verdict gated off ({self.detail})",
                self.assumptions,
                self.certificate,
            )
        return self


def inconclusive(rule: str, detail: str = "", **cert) -> CriterionReport:
    return CriterionReport(INCONCLUSIVE, rule, detail, certificate=cert)


def irreducible(rule: str, detail: str = "", assumptions=(), **cert) -> CriterionReport:
    return CriterionReport(IRREDUCIBLE, rule, detail, tuple(assumptions), cert)
