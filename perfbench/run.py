"""dpirred benchmark: one seeded workload per run, timed from outside the
program, every output checked by perfbench/checks.py.

    python3 perfbench/run.py --workload univariate-zq --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

A run repeats whole rounds of the workload's inputs until --seconds have
passed (and at least ten operations lie beyond the tail percentile).  Times
are CPU times: the calling thread's for an in-process operation, the child's
for a CLI process, so that the time the process waits for a core on a
shared host does not enter them; wall times go to the results file.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 it runs the
same number of rounds untraced and then traced, and reports per-layer
metrics per round plus the tracing overhead.  The last line of standard
output is one JSON object; perfbench/out/ receives a results file per run.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, process_time, thread_time

import checks
from tracing import SPAN_NAMES, Tracer, install
from workloads import CLI_ENV, OUT, WORKLOADS, Outcome

ROOT = Path(__file__).resolve().parent.parent
SETUP_SAMPLES = 15


class BudgetExceeded(BaseException):
    """Raised by SIGPROF inside an operation that ran past its CPU budget.  A
    BaseException, so that no `except Exception` in the program swallows it."""


def _alarm(signum, frame):
    raise BudgetExceeded


def children_cpu() -> float:
    """CPU seconds used by the child processes that have ended."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def pass_cpu() -> float:
    """CPU seconds used by this process and its ended children."""
    return process_time() + children_cpu()


def setup_seconds(modules) -> float:
    """Median CPU time a fresh interpreter takes to import `modules`, after
    one untimed import that compiles the byte code."""
    code = ("import time; t = time.process_time(); import " + ", ".join(modules)
            + "; print(time.process_time() - t)")
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=CLI_ENV, cwd=ROOT, check=True)
        if k:
            samples.append(float(out.stdout))
    return statistics.median(samples)


def tail_index(n: int, pct: float) -> int:
    """Nearest-rank index of the pct-th percentile among n sorted samples."""
    return max(0, math.ceil(pct / 100 * n) - 1)


class Pass:
    """One timed pass: whole rounds over `cases`."""

    def __init__(self, wl, cases, tracer=None):
        self.wl, self.cases, self.tracer = wl, cases, tracer
        # an operation's time: the thread's CPU time, or the CLI child's
        self.clock = children_cpu if wl.name == "cli" else thread_time
        self.times: list[float] = []
        self.wall_times: list[float] = []
        self.failed = 0
        self.rounds = 0
        self.wall = 0.0
        self.cpu = 0.0
        self.outcomes: dict[int, object] = {}  # first outcome per case
        self.problems: list[str] = []
        self.child_import: list[float] = []
        self.child_wall: list[float] = []

    def run_op(self, idx: int, case) -> None:
        wl = self.wl
        traced_cli = self.tracer is not None and wl.name == "cli"
        if self.tracer is not None and not traced_cli:
            self.tracer.begin_op(len(self.times))
        t0, c0 = perf_counter(), self.clock()
        try:
            if wl.budget_s:
                signal.setitimer(signal.ITIMER_PROF, wl.budget_s)
            try:
                raw = wl.call(case, traced=True) if traced_cli else wl.call(case)
            finally:
                if wl.budget_s:
                    signal.setitimer(signal.ITIMER_PROF, 0)
            dt = self.clock() - c0
            outcome = wl.outcome(case, raw)
        except BudgetExceeded:
            dt = wl.budget_s
            outcome = Outcome(error=f"over the {wl.budget_s} s CPU budget")
        except Exception as exc:  # any other failure is a failed operation, reported
            dt = self.clock() - c0
            outcome = Outcome(error=f"{type(exc).__name__}: {exc}")
        wall = perf_counter() - t0
        if self.tracer is not None:
            if traced_cli:
                self._merge_child(wall)
            else:
                self.tracer.end_op()
        self.times.append(dt)
        self.wall_times.append(wall)
        self.failed += self.is_failure(outcome)
        first = self.outcomes.setdefault(idx, outcome)
        if first != outcome and not (first.error and outcome.error):
            self.problems.append(f"outcome changed between rounds for {case.text!r}: "
                                 f"{first} then {outcome}")

    @staticmethod
    def is_failure(outcome) -> bool:
        """An error, a timeout, or a verdict that ran out of precision."""
        return bool(outcome.error) or outcome.verdict == "undecidable"

    def _merge_child(self, wall: float) -> None:
        path = OUT / "cli-child.json"
        data = json.loads(path.read_text())
        path.unlink()
        self.tracer.merge(data)
        self.child_import.append(data["import_s"])
        self.child_wall.append(wall)

    def run(self, seconds: float | None = None, rounds: int | None = None) -> None:
        start, cpu0 = perf_counter(), pass_cpu()
        while True:
            for idx, case in enumerate(self.cases):
                self.run_op(idx, case)
            self.rounds += 1
            if rounds is not None:
                if self.rounds >= rounds:
                    break
            elif (perf_counter() - start >= seconds
                  and len(self.times) - 1 - tail_index(len(self.times), self.wl.tail_pct) >= 10):
                break
        self.wall = perf_counter() - start
        self.cpu = pass_cpu() - cpu0


def end_to_end(wl, p: Pass, setup_s: float) -> dict:
    times = sorted(p.times)
    return {
        "setup_s": (setup_s, "s"),
        "op_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "op_tail_ms": (times[tail_index(len(times), wl.tail_pct)] * 1e3, "ms"),
        "ops_per_s": (len(times) / p.cpu, "1/s"),
    }


def wall_figures(wl, p: Pass) -> dict:
    """The end-to-end figures on the wall clock, for the results file."""
    times = sorted(p.wall_times)
    return {
        "op_p50_ms": statistics.median(times) * 1e3,
        "op_tail_ms": times[tail_index(len(times), wl.tail_pct)] * 1e3,
        "ops_per_s": len(times) / p.wall,
        "pass_wall_s": p.wall,
        "pass_cpu_s": p.cpu,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def case_medians(cases, p: Pass) -> dict:
    """Median latency of each input over the rounds of a pass, in ms."""
    n = len(cases)
    return {c.text: statistics.median(p.times[i::n]) * 1e3 for i, c in enumerate(cases)}


def per_layer(tracer, traced: Pass, plain: Pass) -> dict:
    r = traced.rounds
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = (tracer.self_s[name] / r, "s")
        out[f"{name}.calls"] = (tracer.calls[name] / r, "count")
    for name, v in tracer.counters.items():
        out[name] = (v / r, "count")
    imports = traced.child_import or [0.0]
    calls = [w - i for w, i in zip(traced.child_wall, traced.child_import)] or [0.0]
    out["cli.import_s"] = (statistics.median(imports), "s")
    out["cli.call_self_s"] = (statistics.median(calls), "s")
    out["trace.overhead_s"] = ((traced.wall - plain.wall) / r, "s")
    out["trace.overhead_pct"] = (100 * (traced.wall / plain.wall - 1), "%")
    return out


def check(wl, cases, outcomes) -> tuple[list[str], dict]:
    """Judge every outcome that did not fail with the independent checkers."""
    problems = [f"checker self-test: {msg}" for msg in checks.self_test()]
    verdicts: dict[str, int] = {}
    for idx, out in outcomes.items():
        case = cases[idx]
        key = out.error and "failed" or out.verdict
        verdicts[key] = verdicts.get(key, 0) + 1
        if out.error or case.terms is None:
            continue
        if wl.name == "oracle":
            if out.factors is not None:
                ok = checks.oracle_pair_holds(case.terms, case.ring, *out.factors)
            elif out.verdict == "irreducible-certified":
                ok = checks.profile_of(case.terms, case.ring)[0] == 1
            else:
                ok = True
        elif out.verdict in ("inconclusive", "undecidable"):
            ok = True  # claims nothing
        else:
            ok = checks.verdict_holds(out.verdict, out.cert or {},
                                      checks.profile_of(case.terms, case.ring))
        if not ok:
            problems.append(f"wrong {out.verdict!r} on {case.text!r} (cert {out.cert}, "
                            f"factors {out.factors})")
    return problems, verdicts


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    cases = wl.cases(seed)
    signal.signal(signal.SIGPROF, _alarm)
    OUT.mkdir(exist_ok=True)
    phases = {}
    t = perf_counter()
    setup_s = None if trace else setup_seconds(wl.modules)
    phases["setup_s"], t = perf_counter() - t, perf_counter()

    if wl.name != "cli":  # in-process: one untimed round fills the program's caches
        Pass(wl, cases).run(rounds=1)
    phases["warmup_s"], t = perf_counter() - t, perf_counter()
    plain = Pass(wl, cases)
    plain.run(seconds=seconds / 2 if trace else seconds)
    passes = [plain]
    if trace:
        tracer = Tracer()
        install(tracer)
        traced = Pass(wl, cases, tracer)
        traced.run(rounds=plain.rounds)
        passes.append(traced)
        metrics = per_layer(tracer, traced, plain)
    else:
        metrics = end_to_end(wl, plain, setup_s)
    rss = peak_rss_mb()  # before the checker loads
    phases["passes_s"], t = perf_counter() - t, perf_counter()

    problems, verdicts = check(wl, cases, plain.outcomes)
    phases["check_s"] = perf_counter() - t
    for p in passes:
        problems += p.problems
    failures = [(cases[i], f"{cases[i].text!r}: {o.error or o.verdict}")
                for i, o in sorted(plain.outcomes.items()) if plain.is_failure(o)]
    for msg in problems + [f"failed without a named fault: {m}" for c, m in failures if not c.fault]:
        print(msg, file=sys.stderr)

    result = {
        "correct": not problems,
        "attempted": sum(len(p.times) for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "rounds": plain.rounds, "cases": len(cases), "budget_s": wl.budget_s,
        "peak_rss_mb": rss, "case_ms": case_medians(cases, plain),
        "wall": wall_figures(wl, plain), "phases": phases,
        "tail_pct": wl.tail_pct, "verdicts": verdicts, "failures": [m for _, m in failures],
        "problems": problems, **result,
    }
    if trace:
        record["spans"] = tracer.kept
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1))
    return result


def main() -> int:
    package = ROOT / "src" / "dpirred" / "__init__.py"
    if not package.is_file():
        print(f"error: {package} not found; run from a dpirred checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        print_summary(args.workload, result)
        print(json.dumps(result))
        return 0

    results = {}
    for name in WORKLOADS:  # one process per workload, one after the other
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return 1
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        print_summary(name, results[name])
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def print_summary(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    for k, m in result["metrics"].items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
