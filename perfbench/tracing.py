"""Span recorder for the traced run.

Each traced function is wrapped where its callers look it up: the module
attribute in every dpirred module that holds it (so `dpirred.analyze.
multi_prime_test` as well as `dpirred.polygon.multi_prime_test`), or the
class attribute for methods.  A span is (name, start, end, parent, operation
id).  A span's self time is its duration minus the time its child spans
cover.  Spans of one operation are folded into per-name totals when the
operation ends; the raw spans of the first KEEP_OPS operations are kept for
the trace file.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

KEEP_OPS = 50

# (span name, module, attribute) - methods as Class.method
TARGETS = [
    ("core.parse", "dpirred.core", "DirichletPoly.parse"),
    ("core.parse", "dpirred.core", "DirichletPoly.from_json"),
    ("core.parse", "dpirred.multivariate", "MultiDirichletPoly.from_json"),
    ("core.normalize", "dpirred.core", "DirichletPoly.normalize"),
    ("core.factor_integer", "dpirred.core", "factor_integer"),
    ("degrees.quick_irreducibility", "dpirred.degrees", "quick_irreducibility"),
    ("degrees.multiplicity_report", "dpirred.degrees", "multiplicity_report"),
    ("polygon.build_polygon", "dpirred.polygon", "build_polygon"),
    ("polygon.dumas_test", "dpirred.polygon", "dumas_test"),
    ("polygon.multi_prime_test", "dpirred.polygon", "multi_prime_test"),
    ("polygon.candidate_relative_degrees", "dpirred.polygon", "candidate_relative_degrees"),
    ("polygon.slope_exclusions", "dpirred.polygon", "slope_exclusions"),
    ("ranktests.k_power_free_charp", "dpirred.ranktests", "k_power_free_charp"),
    ("ranktests.derivative_rank_test", "dpirred.ranktests", "derivative_rank_test"),
    ("oracle.brute_force_factor", "dpirred.oracle", "brute_force_factor"),
    ("primevalue.gelfond_factor_height_bound", "dpirred.primevalue",
     "gelfond_factor_height_bound"),
    ("certlog.LogProduct.compare", "dpirred.certlog", "LogProduct.compare"),
    ("polytope.polytope_irreducibility", "dpirred.polytope", "polytope_irreducibility"),
    ("upperpoly.stepanov_schmidt_test", "dpirred.upperpoly", "stepanov_schmidt_test"),
    ("analyze.analyze_univariate", "dpirred.analyze", "analyze_univariate"),
    ("analyze.analyze_multivariate", "dpirred.analyze", "analyze_multivariate"),
]
SPAN_NAMES = sorted({name for name, _, _ in TARGETS})

# counters read off a traced function's return value
COUNTERS = {
    "polygon.candidate_relative_degrees": ("polygon.candidates.capped", lambda r: int(bool(r[2]))),
    "oracle.brute_force_factor": ("oracle.nodes", lambda r: r.nodes),
    "certlog.LogProduct.compare": ("certlog.undecidable", lambda r: int(r == "undecidable")),
}
COUNTER_NAMES = sorted(name for name, _ in COUNTERS.values())


class Tracer:
    def __init__(self):
        self.op_id = -1
        self.spans: list[list] = []  # [name, start, end, parent] of the current operation
        self.stack: list[int] = []
        self.self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        self.calls = dict.fromkeys(SPAN_NAMES, 0)
        self.counters = dict.fromkeys(COUNTER_NAMES, 0)
        self.kept: list[tuple] = []  # (op_id, name, start, end, parent)

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def end_op(self) -> None:
        now = perf_counter()
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += (end or now) - start
        for k, (name, start, end, parent) in enumerate(self.spans):
            self.self_s[name] += (end or now) - start - covered[k]
            self.calls[name] += 1
        if self.op_id < KEEP_OPS:
            self.kept += [(self.op_id, name, start, end or now, parent)
                          for name, start, end, parent in self.spans]
        self.spans = []

    def merge(self, other: dict) -> None:
        """Add the totals a traced child process wrote out."""
        for name, v in other["self_s"].items():
            self.self_s[name] += v
        for name, v in other["calls"].items():
            self.calls[name] += v
        for name, v in other["counters"].items():
            self.counters[name] += v

    def totals(self) -> dict:
        return {"self_s": self.self_s, "calls": self.calls, "counters": self.counters}

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = tracer.spans
            rec = [name, perf_counter(), 0.0, tracer.stack[-1] if tracer.stack else -1]
            spans.append(rec)
            tracer.stack.append(len(spans) - 1)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            if counter is not None:
                tracer.counters[counter[0]] += counter[1](out)
            return out

        return traced


def install(tracer: Tracer) -> None:
    """Patch every target in place, in every dpirred module that holds it."""
    for mod in ("analyze", "cli", "oracle", "ranktests", "primevalue", "polytope",
                "upperpoly", "schonemann"):
        importlib.import_module(f"dpirred.{mod}")
    modules = [m for n, m in sys.modules.items() if n == "dpirred" or n.startswith("dpirred.")]
    for name, modname, attr in TARGETS:
        mod = sys.modules[modname]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(tracer.wrap(name, raw.__func__)))
            else:
                setattr(cls, meth, tracer.wrap(name, raw))
            continue
        orig = getattr(mod, attr)
        wrapped = tracer.wrap(name, orig)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
