"""The five workloads: their seeded inputs, the call one operation makes,
and how its outcome is judged.

The benchmark builds every input itself as a plain dict and renders it into
the text or JSON form the program reads, so the checkers never see the
program's own parse.  Within a round the make-up of each workload is fixed
(term counts, index spans, degrees, primes); the seed draws the indices and
coefficients.  Inputs that hit a known fault on every run are fixed, not
seeded, so the share of failed operations is the same for every seed.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from pathlib import Path

from checks import convolve

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class Case:
    """One input.  `ring` is "Z", "Q", "ST" (bivariate in s, t over Z) or a
    prime p; `terms` is None for malformed CLI input; `fault` names the
    known fault that makes this operation fail on every run."""

    ring: object
    terms: dict | None
    text: str
    fault: str = ""
    flags: tuple = ()


def render_text(terms: dict) -> str:
    parts = []
    for i in sorted(terms):
        c = terms[i]
        body = str(abs(c)) if i == 1 else f"{abs(c)}/{i}^s"
        sign = "-" if c < 0 else "+"
        parts.append(f"{sign}{body}" if not parts else f" {sign} {body}")
    return "".join(parts).lstrip("+")


def render_json(terms: dict, ring) -> str:
    if ring == "ST":
        obj = {"vars": ["s", "t"], "terms": [
            {"indices": list(k), "coeff": c} for k, c in sorted(terms.items())]}
    elif ring == "Q":
        obj = {"ring": "Q", "terms": [
            [i, [Fraction(c).numerator, Fraction(c).denominator]] for i, c in sorted(terms.items())]}
    elif ring == "Z":
        obj = {"ring": "Z", "terms": [[i, c] for i, c in sorted(terms.items())]}
    else:
        obj = {"ring": "Fp", "p": ring, "terms": [[i, c] for i, c in sorted(terms.items())]}
    return json.dumps(obj, separators=(",", ":"))


def parse_text(text: str) -> dict:
    """The benchmark's reading of the fixed `a/i^s` examples below."""
    terms: dict = {}
    for tok in text.replace(" - ", " + -").split(" + "):
        tok = tok.strip()
        c, _, rest = tok.partition("/")
        i = int(rest.removesuffix("^s")) if rest else 1
        terms[i] = terms.get(i, 0) + int(c)
    return terms


# corpus (b) coefficients
COEF_B = (1, -1, 2, -2, 3, 4, 6, 9, 12)
# oracle and bivariate coefficients
COEF_SMALL = (1, -1, 2, -2, 3, -3)


def _span_support(rng: random.Random, t: int, span: int, top: int = 60) -> list[int]:
    m = rng.randint(1, top - span)
    return [m, m + span] + rng.sample(range(m + 1, m + span), t - 2)


def zq_seeded(rng: random.Random, z_per_cell: int, q_per_cell: int) -> list[Case]:
    """Corpus (b) and its Q variant, drawn with index span at most 12 so
    that the polygon profile has at most 12 segments and the subset-product
    set at most 2^12 states: no seeded input can reach the budget."""
    cases = []
    for t in range(2, 7):
        for span in (6, 9, 12):
            for _ in range(z_per_cell):
                terms = {i: rng.choice(COEF_B) for i in _span_support(rng, t, span)}
                cases.append(Case("Z", terms, render_text(terms)))
            for _ in range(q_per_cell):
                terms = {i: Fraction(rng.choice(COEF_B), rng.choice((1, 2, 3, 5)))
                         for i in _span_support(rng, t, span)}
                cases.append(Case("Q", terms, render_json(terms, "Q")))
    return cases


# Fixed corpus-(b) inputs that take 5-200 ms today (measured on 2 cores):
# they set the tail of univariate-zq the same way for every seed.
ZQ_PANEL = [
    "6/34^s - 2/43^s + 1/50^s + 3/57^s",
    "1/2^s + 1/11^s + 12/17^s + 6/39^s",
    "-2/17^s - 2/25^s + 9/31^s + 9/40^s",
    "-1/18^s + 3/19^s + 1/28^s + 9/34^s + 3/57^s",
    "4/7^s - 2/35^s - 1/41^s - 2/42^s + 9/52^s",
    "-2/14^s + 1/23^s + 4/28^s + 1/33^s + 2/39^s",
    "9/14^s + 6/18^s + 9/27^s + 4/54^s + 12/60^s",
    "12/7^s - 2/29^s + 4/36^s + 6/42^s",
    "4/3^s + 1/31^s + 2/33^s + 9/44^s + 6/50^s",
    "12/6^s + 4/26^s - 2/38^s + 6/51^s + 4/58^s",
]

# The four slow inputs of the ROADMAP baseline: 5-25 s each today, almost
# all of it in polygon.candidate_relative_degrees.
ZQ_SLOW = [
    "4/18^s - 1/37^s + 3/58^s",
    "12/9^s + 1/17^s + 3/27^s + 2/29^s + 2/36^s",
    "3/11^s + 12/17^s + 4/26^s + 12/29^s + 1/30^s + 1/32^s",
    "6/2^s + 9/7^s + 1/28^s + 6/42^s - 2/51^s",
]
MULTI_PRIME_FAULT = "no search budget in the multi-prime subset-product search (ROADMAP item 2)"


def interleave(seeded: list, fixed: list) -> list:
    """The fixed (heavy) inputs spread evenly among the seeded ones.  The
    machine's speed drifts from one second to the next, and the cheap seeded
    operations that set op_p50_ms would otherwise be timed in one burst per
    round (univariate-zq: 50 ms of a 2.6 s round) and sample that drift
    little; spread out, they are timed throughout the run."""
    out, start = [], 0
    for k, case in enumerate(fixed):
        stop = round((k + 1) * len(seeded) / (len(fixed) + 1))
        out += seeded[start:stop] + [case]
        start = stop
    return out + seeded[start:]


def zq_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    # 486 seeded + 14 fixed = 500: p99.1 then has 4.5 operations per round
    # beyond it, the four timeouts and half the samples of the slowest panel
    # input, so it reads the middle of that input's samples
    seeded = zq_seeded(rng, 22, 10) + rng.sample(zq_seeded(rng, 1, 0), 6)
    fixed = [Case("Z", parse_text(s), s) for s in ZQ_PANEL]
    fixed += [Case("Z", parse_text(s), s, fault=MULTI_PRIME_FAULT) for s in ZQ_SLOW]
    return interleave(seeded, fixed)


# degrees of the seeded F_p inputs; over F_3 only those whose rank test
# takes a few milliseconds at most
FP2_DEGREES = (6, 8, 9, 10, 12, 14, 16, 18, 20, 22, 24, 25, 27, 28, 30, 32, 36, 40,
               45, 48, 50, 54, 56, 60)
FP3_DEGREES = (6, 8, 9, 10, 12, 14, 16, 18, 20, 22, 24, 25, 27)

# Fixed square-free F_3 inputs of degree 28-60 that reach the k-power-free
# rank test, 30-650 ms each today: the heavy part of univariate-fp, the same
# for every seed (which supports reach the test depends on the program).
FP_PANEL = [
    "2/9^s + 1/20^s + 2/28^s",
    "1 + 1/7^s + 1/14^s + 2/24^s + 2/32^s",
    "1/9^s + 1/29^s + 1/36^s",
    "1/19^s + 1/21^s + 1/44^s",
    "1/13^s + 2/45^s + 2/52^s",
    "2/5^s + 2/20^s + 1/22^s + 1/54^s",
    "2/23^s + 2/53^s + 2/56^s",
    "1/12^s + 1/31^s + 2/60^s",
]
# Six square-free F_3 inputs 1 + 1/k^s + 1/40^s of one shape and nearly
# equal cost (80-105 ms, within 15% of each other and 20% or more from the
# panel inputs next in cost): the tail percentile falls in their middle, so
# it reads a median over six inputs' samples rather than one input's.
FP_TAIL_FAMILY = [f"1 + 1/{k}^s + 1/40^s" for k in (7, 11, 13, 14, 17, 19)]


def fp_random(rng: random.Random, p: int, n: int, t: int) -> dict:
    return {i: rng.randint(1, p - 1) for i in [n] + rng.sample(range(1, n), t - 1)}


def fp_product(rng: random.Random, p: int) -> dict:
    """Product of two random 2-3-term factors with indices at most 5."""
    g, h = ({i: rng.randint(1, p - 1) for i in rng.sample(range(1, 6), rng.randint(2, 3))}
            for _ in range(2))
    return convolve(g, h, p)


def fp_seeded(rng: random.Random, reps: int) -> list[Case]:
    """Random F_2 and F_3 inputs of fixed degrees (2-6 terms in turn) and,
    for about 30% of them, products of two small factors."""
    cases = []
    for p, degrees in ((2, FP2_DEGREES), (3, FP3_DEGREES)):
        for k, n in enumerate(degrees * reps):
            terms = fp_random(rng, p, n, 2 + k % 5)
            cases.append(Case(p, terms, render_json(terms, p)))
        for _ in range(len(degrees) * reps * 3 // 7):
            terms = fp_product(rng, p)
            cases.append(Case(p, terms, render_json(terms, p)))
    return cases


def fp_cases(seed: int) -> list[Case]:
    # 1743 seeded inputs: random F_p inputs either take a quick verdict
    # (~0.05 ms) or not (0.2-1 ms), and how many do varies from seed to seed;
    # fewer inputs let op_p50_ms move by a tenth between seeds.  With the
    # 14 fixed ones a round has 1757 inputs, so p99.6 has 7 operations per
    # round beyond it, the four slowest panel inputs and half of the tail
    # family, and reads the middle of the family's samples.
    fixed = []
    for s in FP_PANEL + FP_TAIL_FAMILY:
        terms = parse_text(s)
        fixed.append(Case(3, terms, render_json(terms, 3)))
    return interleave(fp_seeded(random.Random(seed), 33), fixed)


# Fixed products of two 3-term factors that take the oracle 10-250 ms today:
# they set the cost of a round and its tail the same way for every seed.
ORACLE_PANEL = [
    "2/2^s + 2/4^s + 1/5^s - 4/6^s - 4/10^s - 4/12^s - 2/15^s - 4/20^s - 2/25^s",
    "2 + 7/2^s + 6/4^s + 9/5^s + 15/10^s + 9/25^s",
    "-6/3^s + 9/4^s - 6/5^s + 2/6^s - 3/8^s + 2/10^s + 6/12^s - 9/16^s + 6/20^s",
    "3/2^s + 9/3^s - 1/4^s + 6/5^s - 3/6^s - 3/10^s - 3/15^s - 2/25^s",
    "-2/4^s + 1/6^s + 3/9^s + 3/10^s - 2/15^s - 1/25^s",
    "3/2^s + 9/3^s - 2/4^s + 6/5^s - 6/6^s - 5/10^s - 3/15^s - 2/25^s",
    "1/4^s + 1/6^s - 3/8^s + 5/10^s - 3/12^s + 3/15^s - 6/20^s + 6/25^s",
    "-4/4^s + 4/6^s - 1/9^s + 6/10^s - 3/15^s - 2/25^s",
]
# Six products of two 3-term factors on 2, 3, 5 whose search visits 500
# nodes and takes 120-135 ms today, with the 100-120 ms panel product beside
# them: the tail percentile falls in the middle of these seven.
ORACLE_TAIL_FAMILY = [
    "4/4^s + 4/6^s + 1/9^s + 4/10^s + 2/15^s + 1/25^s",
    "4/4^s - 6/6^s + 2/9^s + 1/15^s - 1/25^s",
    "1/4^s + 1/6^s - 2/9^s - 6/15^s - 4/25^s",
    "1/4^s + 3/6^s + 2/9^s + 4/10^s + 6/15^s + 4/25^s",
    "4/4^s - 2/6^s - 2/9^s + 4/10^s - 1/15^s + 1/25^s",
    "1/4^s - 1/6^s - 2/9^s + 4/10^s - 2/15^s + 4/25^s",
]


def oracle_cases(seed: int) -> list[Case]:
    """Random Z supports in 1..12 (the acceptance sweep's referee traffic),
    products of two 2-term factors with indices at most 5, the F_p inputs of
    univariate-fp, the fixed panel and the tail family."""
    rng = random.Random(seed)
    cases = []
    # 400 + 192 + 105 + 8 + 6 = 711 inputs: p99.25 has 5.3 operations per
    # round beyond it, the two slowest panel products and half of the seven
    # next in cost, so it reads the middle of those seven's samples
    for t in range(2, 7):
        for _ in range(80):
            terms = {i: rng.choice(COEF_SMALL) for i in rng.sample(range(1, 13), t)}
            cases.append(Case("Z", terms, render_text(terms)))
    for _ in range(192):
        g, h = ({i: rng.choice(COEF_SMALL) for i in rng.sample(range(1, 6), 2)}
                for _ in range(2))
        terms = convolve(g, h)
        cases.append(Case("Z", terms, render_text(terms)))
    cases += fp_seeded(rng, 2)
    fixed = [Case("Z", parse_text(s), s) for s in ORACLE_PANEL + ORACLE_TAIL_FAMILY]
    return interleave(cases, fixed)


TIE_FAULT = "exact log-chord tie is undecidable at the precision cap (ROADMAP item 3)"


def chord_family(m: int, d: tuple[int, int, int], coeffs) -> dict:
    """s-indices 1, m, m^2 carrying t-degrees d1, d2, d3."""
    keys = [(1, 1), (1, d[0]), (m, 1), (m, d[1]), (m * m, 1), (m * m, d[2])]
    return dict(zip(keys, coeffs))


def has_log_tie(terms: dict) -> bool:
    """Whether three points (log i, log deg a_i) of either upper polygon are
    collinear to 1e-9, the exact log-chord ties of TIE_FAULT.  Floating
    point is enough here: it only decides which random inputs to draw."""
    for a in (0, 1):
        deg: dict = {}
        for k in terms:
            deg[k[a]] = max(deg.get(k[a], 0), k[1 - a])
        pts = [(math.log(i), math.log(d)) for i, d in sorted(deg.items())]
        for (x1, y1), (x2, y2), (x3, y3) in combinations(pts, 3):
            if abs((x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)) < 1e-9:
                return True
    return False


def mixed_factor(rng: random.Random, grid) -> dict:
    """A 2-3-term factor with two s-indices and two t-indices at least."""
    while True:
        keys = rng.sample(grid, rng.randint(2, 3))
        if len({i for i, _ in keys}) > 1 and len({j for _, j in keys}) > 1:
            return {k: rng.choice(COEF_SMALL) for k in keys}


def bivariate_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = []
    # 960 + 192 + 12 + 6 = 1170 inputs: half as many let the mix of quick and
    # slow verdicts move op_p50_ms by 7% between seeds
    for t in range(2, 7):
        for _ in range(192):
            terms = {}
            while len(terms) < t or has_log_tie(terms):
                terms = {}
                while len(terms) < t:
                    terms[(rng.randint(1, 12), rng.randint(1, 36))] = rng.choice(COEF_SMALL)
            cases.append(Case("ST", terms, render_json(terms, "ST")))
    grid = [(i, j) for i in range(1, 4) for j in range(1, 7)]
    for _ in range(192):
        terms = {}
        while not terms or has_log_tie(terms):
            terms = convolve(mixed_factor(rng, grid), mixed_factor(rng, grid))
        cases.append(Case("ST", terms, render_json(terms, "ST")))
    for m in (2, 3):
        near = len(cases) + 6
        while len(cases) < near:
            d1 = rng.randint(2, 5)
            d2 = rng.randint(d1 + 1, 8)
            d3 = d2 * d2 // d1 + rng.choice((-1, 1, 2))
            if d1 * d3 == d2 * d2:
                d3 += 1
            terms = chord_family(m, (d1, d2, d3), [rng.choice(COEF_SMALL) for _ in range(6)])
            if has_log_tie(terms):
                continue
            cases.append(Case("ST", terms, render_json(terms, "ST")))
    # six exact ties of nearly equal cost, so that p99.75 falls in their middle
    ties = []
    for m in (2, 3):
        for d in ((2, 6, 18), (4, 6, 9), (3, 6, 12)):
            terms = chord_family(m, d, [1] * 6)
            ties.append(Case("ST", terms, render_json(terms, "ST"), fault=TIE_FAULT))
    return interleave(cases, ties)


# corpus (a): README and acceptance worked examples, with the flags used
CLI_EXAMPLES = [
    ("1 + 1/2^s + 1/3^s + 1/4^s", ()),
    ("-1 + 1/4^s", ("--oracle",)),
    ("1 + 1/4^s", ("--oracle",)),
    ("4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s", ("--oracle",)),
    ("3/12^s + 2/20^s", ()),
    ("1/10^s + 1/11^s + 1/14^s + 1/16^s", ()),
    ("7/2^s + 7/3^s + 1/5^s", ("--oracle",)),
    ("1 + 7/2^s + 7/3^s", ()),
    ("4/2^s + 8/3^s + 1/5^s", ()),
    ("1/2^s + 7/3^s + 49/9^s", ()),
]
CLI_JSON_EXAMPLES = [
    ({4: 4, 6: 4, 8: 2, 9: 1, 10: 4, 12: 1, 15: 2}, "Z"),
    ({1: 1, 4: 1}, 2),
    ({(8, 9): 1, (25, 49): 1, (121, 169): 1}, "ST"),
    ({(1, 1): 1, (8, 1): 1, (8, 2): 1, (16, 1): 1, (16, 32): 1}, "ST"),
]
CLI_MALFORMED = [
    "1 + 1/0^s",
    "",
    "abc",
    '{"ring":"Z","terms":[[1]]}',
    '{"ring":"Fp","p":4,"terms":[[1,1],[2,1]]}',
    '{"vars":["s","t"],"terms":[{"indices":[1],"coeff":1}]}',
]
CLI_TRACEBACK = '{"ring":"Q","terms":[[1,[1,0]],[2,1]]}'
TRACEBACK_FAULT = "zero denominator leaks a ZeroDivisionError traceback (ROADMAP item 5c)"


def cli_cases(seed: int) -> list[Case]:
    rng = random.Random(seed)
    cases = [Case("Z", parse_text(s), s, flags=fl) for s, fl in CLI_EXAMPLES]
    cases += [Case(r, t, render_json(t, r)) for t, r in CLI_JSON_EXAMPLES]
    cases += [Case(None, None, s) for s in CLI_MALFORMED]
    cases.append(Case(None, None, CLI_TRACEBACK, fault=TRACEBACK_FAULT))
    cases += rng.sample(zq_seeded(rng, 1, 0), 6)
    return cases


# ---------------------------------------------------------------------------
# operations


@dataclass(frozen=True)
class Outcome:
    """What one operation returned, in the benchmark's own terms."""

    verdict: str = ""
    cert: dict | None = None
    factors: tuple | None = None  # oracle pair as dicts
    error: str = ""  # set when the operation failed


def analysis_outcome(case: Case, a) -> Outcome:
    cert = next((r.certificate for r in a.reports if r.verdict == a.verdict), {})
    return Outcome(a.verdict, dict(cert))


def _parse(text: str):
    from dpirred.core import DirichletPoly

    return DirichletPoly.from_json(text) if text.startswith("{") else DirichletPoly.parse(text)


def call_univariate(case: Case):
    from dpirred.analyze import analyze_univariate

    return analyze_univariate(_parse(case.text))


def call_oracle(case: Case):
    from dpirred.oracle import brute_force_factor

    return brute_force_factor(_parse(case.text))


def oracle_outcome(case: Case, res) -> Outcome:
    pair = None
    if res.factors is not None:
        pair = tuple(dict(g.items()) for g in res.factors)
    return Outcome(res.status, {"nodes": res.nodes}, pair)


def call_bivariate(case: Case):
    from dpirred.analyze import analyze_multivariate
    from dpirred.multivariate import MultiDirichletPoly

    return analyze_multivariate(MultiDirichletPoly.from_json(case.text))


def _cli_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


CLI_ENV = _cli_env()


def call_cli(case: Case, traced: bool = False):
    """One `python -m dpirred.cli analyze` process; when traced, the same
    arguments go through cli_child.py, which records spans in the child."""
    argv = ["analyze", case.text, "--format", "json", *case.flags]
    if traced:
        cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
               str(OUT / "cli-child.json"), *argv]
    else:
        cmd = [sys.executable, "-m", "dpirred.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=CLI_ENV, cwd=ROOT)


def cli_outcome(case: Case, proc) -> Outcome:
    lines = proc.stderr.strip().splitlines()
    if case.terms is None:
        if proc.returncode == 1 and len(lines) == 1:
            return Outcome("rejected")
        return Outcome(error=f"exit {proc.returncode} with {len(lines)} stderr lines: "
                             f"{lines[-1] if lines else ''}")
    if proc.returncode not in (0, 2, 3):
        return Outcome(error=f"exit {proc.returncode}: {lines[-1] if lines else ''}")
    out = json.loads(proc.stdout)
    cert = next((r["certificate"] for r in out["reports"] if r["verdict"] == out["verdict"]), {})
    return Outcome(out["verdict"], cert)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modules: tuple  # what a fresh interpreter imports for setup_s
    cases: object  # seed -> list[Case]
    call: object  # Case -> raw result
    outcome: object  # (Case, raw) -> Outcome
    tail_pct: float  # percentile reported as op_tail_ms
    budget_s: float | None = None  # per-operation CPU budget


WORKLOADS = {
    w.name: w for w in (
        Workload("univariate-zq",
                 "analyze_univariate on corpus (b) over Z and Q: the multi-prime "
                 "subset-product search and its latency tail",
                 ("dpirred.core", "dpirred.analyze"), zq_cases, call_univariate,
                 analysis_outcome, 99.1, budget_s=0.5),
        Workload("univariate-fp",
                 "analyze_univariate over F_2 and F_3: the only workload that runs "
                 "the k-power-free rank test",
                 ("dpirred.core", "dpirred.analyze"), fp_cases, call_univariate,
                 analysis_outcome, 99.6),
        Workload("oracle",
                 "brute_force_factor over Z, F_2 and F_3: the referee traffic of the "
                 "acceptance sweep, bypassing every criterion",
                 ("dpirred.core", "dpirred.oracle"), oracle_cases, call_oracle,
                 oracle_outcome, 99.25),
        Workload("bivariate",
                 "analyze_multivariate on s,t inputs and log-chord families: polytope, "
                 "upper polygon and the certified log comparator",
                 ("dpirred.multivariate", "dpirred.analyze"), bivariate_cases,
                 call_bivariate, analysis_outcome, 99.75),
        Workload("cli",
                 "one dpirred analyze process per input on the worked examples and "
                 "malformed input: import and CLI costs",
                 ("dpirred.cli",), cli_cases, call_cli, cli_outcome, 75.0),
    )
}
