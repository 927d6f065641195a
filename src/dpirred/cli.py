"""Command-line front end.

Subcommands: analyze, polygon, upper-polygon, polytope, rank, prime-value,
schonemann, oracle.  Exit codes: 0 definitive verdict, 2 inconclusive,
3 undecidable, 1 error (a usage error too).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import DirichletPoly, UnfactoredResidueError, is_prime
from .multivariate import MultiDirichletPoly
from . import report

EXIT_DEFINITIVE, EXIT_ERROR, EXIT_INCONCLUSIVE, EXIT_UNDECIDABLE = 0, 1, 2, 3


def _load_input(text: str):
    """Parse a CLI input: inline text form, inline JSON, or @file."""
    if text.startswith("@"):
        with open(text[1:]) as fh:
            text = fh.read().strip()
    stripped = text.strip()
    if stripped.startswith("{"):
        obj = json.loads(stripped)
        if "vars" in obj:
            return MultiDirichletPoly.from_json(stripped)
        return DirichletPoly.from_json(stripped)
    return DirichletPoly.parse(stripped)


def _report_obj(rep: report.CriterionReport) -> dict:
    return {
        "verdict": rep.verdict,
        "rule": rep.rule,
        "detail": rep.detail,
        "assumptions": list(rep.assumptions),
        "certificate": _jsonable(rep.certificate),
    }


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = sorted(x, key=str) if isinstance(x, (set, frozenset)) else x
        return [_jsonable(v) for v in items]
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


def _emit(obj, fmt: str):
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        _emit_text(obj)


def _emit_text(obj, indent=0):
    pad = "  " * indent
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:")
                _emit_text(v, indent + 1)
            else:
                print(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                _emit_text(v, indent)
                print()
            else:
                print(f"{pad}- {v}")
    else:
        print(f"{pad}{obj}")


def _require(args, *names: str):
    """Raise ValueError naming the arguments this command needs and lacks."""
    missing = [n for n in names if getattr(args, n.lstrip("-")) is None]
    if missing:
        raise ValueError(f"the following arguments are required: {', '.join(missing)}")


def _int_type(accept, what: str):
    """An argparse type: an int for which accept holds, else one usage error."""
    def parse(text: str) -> int:
        try:
            if accept(n := int(text)):
                return n
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {what}")

    return parse


_prime = _int_type(is_prime, "a prime")
_positive_int = _int_type(lambda n: n >= 1, "a positive integer")


def _int_range(text: str) -> tuple[int, int]:
    """An argparse type: LO..HI with integers LO <= HI within the prime-value
    scan's cap, as the pair."""
    from .primevalue import check_scan_range

    lo, sep, hi = text.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        sep = ""
    if not sep or lo > hi:
        raise argparse.ArgumentTypeError(f"{text!r} is not a range LO..HI with integers LO <= HI")
    try:
        check_scan_range(lo, hi)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None
    return lo, hi


# ---------------------------------------------------------------------------
# subcommands: each returns the object to print and its verdict, None when
# the command has no verdict to report; main prints and sets the exit code


def _edges(poly) -> list[dict]:
    return [{"from": [e.i1, e.y1], "to": [e.i2, e.y2], "segments": e.delta,
             "points": [list(p) for p in e.points]} for e in poly.edges]


def _input_of(args, cls, name: str = "input"):
    f = _load_input(getattr(args, name))
    if not isinstance(f, cls):
        kind = "multivariate JSON" if cls is MultiDirichletPoly else "univariate"
        raise ValueError(f"{args.cmd} needs a {kind} {'input' if name == 'input' else '--' + name}")
    return f


def cmd_analyze(args):
    from .analyze import analyze_multivariate, analyze_univariate

    f = _load_input(args.input)
    if isinstance(f, MultiDirichletPoly):
        res = analyze_multivariate(
            f, run_all=args.all, assume_log_independence=args.assume_log_independence)
    else:
        res = analyze_univariate(
            f,
            run_all=args.all,
            use_oracle=args.oracle,
            assume_log_independence=args.assume_log_independence,
            scan_t=args.scan_t,
        )
    out = {
        "input": res.input_text,
        "verdict": res.verdict,
        "reports": [_report_obj(r) for r in res.reports],
    }
    if args.prime and not isinstance(f, MultiDirichletPoly) and f.ring.kind in ("Z", "Q"):
        from .polygon import build_polygon

        out["polygons"] = {}
        for p in args.prime:
            poly = build_polygon(f, p)
            out["polygons"][str(p)] = {
                "vertices": [list(v) for v in poly.vertices],
                "edge_points": [[list(q) for q in e.points] for e in poly.edges],
            }
    return out, res.verdict


def cmd_polygon(args):
    from .polygon import build_polygon

    poly = build_polygon(_input_of(args, DirichletPoly), args.prime)
    if args.format == "ascii":
        return _ascii_polygon(poly), None
    edges = _edges(poly)
    for obj, e in zip(edges, poly.edges):
        obj["segment_relative_degrees"] = [str(r) for r in e.segment_ratios]
    return {
        "prime": poly.prime,
        "shift": poly.shift,
        "vertices": [list(v) for v in poly.vertices],
        "edges": edges,
        "total_segment_bound": poly.total_segments(),
    }, None


def _ascii_polygon(poly) -> str:
    import math

    width = 64
    pts = list(poly.plotted)
    ymax = max(y for _, y in pts)
    xmin, xmax = math.log(min(i for i, _ in pts)), math.log(pts[-1][0])
    span = max(xmax - xmin, 1e-9)

    def col(i):
        return int(round((math.log(i) - xmin) / span * (width - 1)))

    grid = [[" "] * width for _ in range(ymax + 1)]
    for i, y in pts:
        grid[ymax - y][col(i)] = "."
    for e in poly.edges:
        for x, y in e.interior_points():
            grid[ymax - y][col(x)] = "o"
    for i, y in poly.vertices:
        grid[ymax - y][col(i)] = "*"
    lines = [f"{ymax - r:>3} |" + "".join(row) for r, row in enumerate(grid)]
    lines.append("    +" + "-" * width)
    labels = {col(i): i for i, _ in pts}
    lab = [" "] * width
    for c, i in sorted(labels.items()):
        s = str(i)
        c = min(c, width - len(s))
        if all(ch == " " for ch in lab[max(c - 1, 0):c + len(s) + 1]):
            lab[c:c + len(s)] = s
    lines.append("     " + "".join(lab))
    lines.append(f"  (columns on a log scale; * vertex, o edge lattice point, . support)")
    return "\n".join(lines)


def cmd_upper_polygon(args):
    from .polygon import HullUndecidable
    from .upperpoly import build_upper_polygon, stepanov_schmidt_test

    f = _input_of(args, MultiDirichletPoly)
    try:
        poly = build_upper_polygon(f, args.outer, args.inner)
    except HullUndecidable as e:
        return ({"status": "undecidable", "partial_vertices": [list(v) for v in e.partial]},
                report.UNDECIDABLE)
    rep = stepanov_schmidt_test(f, args.outer, args.inner)
    return {
        "outer": args.outer,
        "inner": args.inner,
        "vertices": [list(v) for v in poly.vertices],
        "edges": _edges(poly),
        "criterion": _report_obj(rep),
    }, rep.verdict


def cmd_polytope(args):
    from .polytope import LogPolytope, polytope_irreducibility

    f = _input_of(args, MultiDirichletPoly)
    pt = LogPolytope.of(f)
    rep = polytope_irreducibility(f).gated(args.assume_log_independence)
    return {
        "support": [list(v) for v in pt.support],
        "vertices": [list(v) for v in pt.vertices],
        "vertex_assumptions": list(pt.assumptions),
        "criterion": _report_obj(rep),
    }, rep.verdict


def cmd_rank(args):
    from .ranktests import (
        build_a_matrix,
        build_b_matrix,
        build_r_matrix,
        build_d_matrix,
        common_factor_test,
        derivative_rank_test,
        k_power_free_charp,
    )

    f = _input_of(args, DirichletPoly)
    if args.matrix in ("A", "B"):
        mat = (build_a_matrix if args.matrix == "A" else build_b_matrix)(f, args.p, args.k)
        rep = k_power_free_charp(f, args.k)
        obj = {"rows": mat.rows, "cols": mat.cols, "rank": mat.rank(),
               "entries": [[i, j, int(v)] for i, j, v in mat.to_triplets()]}
    elif args.matrix == "R":
        _require(args, "--g")
        g = _input_of(args, DirichletPoly, "g")
        mat = build_r_matrix(f, g, args.d)
        rep = common_factor_test(f, g, args.d)
        obj = {"rows": mat.rows, "cols": mat.cols,
               "entries": [[i, j, str(v)] for i, j, v in mat.to_triplets()]}
    else:
        rep = derivative_rank_test(f, args.k, args.d).gated(args.assume_log_independence)
        rows = build_d_matrix(f, args.k, args.d)
        obj = {"rows": len(rows), "cols": 2 * f.degree // args.d,
               "entries": [[i, j, repr(v)] for i, row in enumerate(rows)
                           for j, v in sorted(row.items())]}
    return {"matrix": args.matrix, **obj, "criterion": _report_obj(rep)}, rep.verdict


def cmd_prime_value(args):
    from .primevalue import prime_value_test, scan_t

    f = _input_of(args, DirichletPoly)
    if args.scan_t:
        lo, hi = args.scan_t
        hit = scan_t(f, lo, hi)
        if hit is None:
            return ({"verdict": report.INCONCLUSIVE,
                     "detail": f"no witness found for t in {lo}..{hi}"}, report.INCONCLUSIVE)
        t, rep = hit
        return {"t": t, "criterion": _report_obj(rep)}, rep.verdict
    _require(args, "--t", "--P")
    rep = prime_value_test(f, args.t, args.P, args.ell, args.q)
    return _report_obj(rep), rep.verdict


def cmd_schonemann(args):
    from .schonemann import prime_power_value_test, pq_schonemann_test, schonemann_test

    F = _input_of(args, DirichletPoly, "F")
    G = _input_of(args, DirichletPoly, "G")
    if args.variant in ("classic", "value"):
        rep = schonemann_test(F, G, args.n, args.p, args.q,
                              witness_scan=args.scan if args.variant == "value" else 0)
    elif args.variant == "pq":
        rep = pq_schonemann_test(F, G, args.n, args.p, args.q)
    else:
        rep = prime_power_value_test([F], [args.n], args.m, G, args.p, args.a)
    return _report_obj(rep), rep.verdict


def cmd_oracle(args):
    from .oracle import (NODE_CAP_CLI, NONE_WITHIN_BOUND, OracleBudgetExhausted,
                         brute_force_factor, enumerate_segment_points_brute, gcd_bounded)

    if args.action == "factor":
        _require(args, "input")
        res = brute_force_factor(_input_of(args, DirichletPoly), node_cap=NODE_CAP_CLI)
        obj = {"status": res.status, "bound": res.bound, "nodes": res.nodes}
        if res.factors:
            obj["factors"] = [res.factors[0].text(), res.factors[1].text()]
        return obj, report.INCONCLUSIVE if res.status == NONE_WITHIN_BOUND else None
    if args.action == "gcd":
        _require(args, "input", "--g")
        f = _input_of(args, DirichletPoly)
        g = _input_of(args, DirichletPoly, "g")
        try:
            return {"gcd": gcd_bounded(f, g).text()}, None
        except OracleBudgetExhausted:
            return ({"status": NONE_WITHIN_BOUND, "node_budget": NODE_CAP_CLI},
                    report.INCONCLUSIVE)
    _require(args, "--x1", "--y1", "--x2", "--y2")
    pts = enumerate_segment_points_brute(args.x1, args.y1, args.x2, args.y2)
    return {"interior_points": [list(p) for p in pts]}, None


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError, which main reports on one line."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="dpirred",
        description="Exact irreducibility toolkit for Dirichlet polynomials",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")

    p = sub.add_parser("analyze", help="run the criterion pipeline")
    p.add_argument("input")
    p.add_argument("--all", action="store_true", help="run every criterion")
    p.add_argument("--oracle", action="store_true", help="append the brute-force oracle")
    p.add_argument("--scan-t", type=_int_range, help="prime-value witness scan, e.g. 1..16")
    p.add_argument("--prime", "-p", type=_prime, action="append",
                   help="attach the polygon at this prime to the report (repeatable)")
    p.add_argument("--assume-log-independence", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("polygon", help="Newton log-polygon at a prime")
    p.add_argument("input")
    p.add_argument("--prime", "-p", type=_prime, required=True)
    common(p, ("text", "json", "ascii"))
    p.set_defaults(fn=cmd_polygon)

    p = sub.add_parser("upper-polygon", help="upper polygon of a multivariate input")
    p.add_argument("input")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    common(p)
    p.set_defaults(fn=cmd_upper_polygon)

    p = sub.add_parser("polytope", help="Newton log-polytope of a multivariate input")
    p.add_argument("input")
    p.add_argument("--assume-log-independence", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("rank", help="rank-test matrices")
    p.add_argument("input")
    p.add_argument("--matrix", choices=("A", "B", "R", "D"), required=True)
    p.add_argument("--p", type=_prime, default=2)
    p.add_argument("--k", type=_positive_int, default=2)
    p.add_argument("--d", type=_positive_int, default=1)
    p.add_argument("--g", help="second polynomial for the R matrix")
    p.add_argument("--assume-log-independence", action="store_true")
    common(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("prime-value", help="prime(-power) value criteria")
    p.add_argument("input")
    p.add_argument("--t", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--scan-t", type=_int_range)
    common(p)
    p.set_defaults(fn=cmd_prime_value)

    p = sub.add_parser("schonemann", help="linear-combination criteria")
    p.add_argument("--variant", choices=("classic", "value", "pq", "prime-power"),
                   required=True)
    p.add_argument("--F", required=True)
    p.add_argument("--G", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--a", type=int, default=-1)
    p.add_argument("--scan", type=int, default=64)
    common(p)
    p.set_defaults(fn=cmd_schonemann)

    p = sub.add_parser("oracle", help="brute-force referee")
    p.add_argument("action", choices=("factor", "gcd", "segment"))
    p.add_argument("input", nargs="?")
    p.add_argument("--g")
    p.add_argument("--x1", type=_positive_int)
    p.add_argument("--y1", type=int)
    p.add_argument("--x2", type=_positive_int)
    p.add_argument("--y2", type=int)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        obj, verdict = args.fn(args)
        _emit(obj, args.format)
    except (ValueError, UnfactoredResidueError, json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    if verdict is None or verdict in report.DEFINITIVE:
        return EXIT_DEFINITIVE
    return EXIT_UNDECIDABLE if verdict == report.UNDECIDABLE else EXIT_INCONCLUSIVE

if __name__ == "__main__":
    sys.exit(main())
