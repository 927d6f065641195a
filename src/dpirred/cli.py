"""Command-line front end.

Subcommands: analyze, polygon, upper-polygon, polytope, rank, prime-value,
schonemann, oracle.  Exit codes: 0 definitive verdict, 2 inconclusive,
3 undecidable, 1 error.  Set DPIRRED_PRECISION_CAP_BITS to override the
certified-comparison precision cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .core import DirichletPoly, UnfactoredResidueError
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


def _verdict_exit(verdict: str) -> int:
    if verdict in report.DEFINITIVE:
        return EXIT_DEFINITIVE
    if verdict == report.UNDECIDABLE:
        return EXIT_UNDECIDABLE
    return EXIT_INCONCLUSIVE


# ---------------------------------------------------------------------------
# subcommands


def cmd_analyze(args) -> int:
    from .analyze import analyze_multivariate, analyze_univariate

    f = _load_input(args.input)
    scan = None
    if args.scan_t:
        lo, _, hi = args.scan_t.partition("..")
        scan = (int(lo), int(hi))
    if isinstance(f, MultiDirichletPoly):
        res = analyze_multivariate(
            f, run_all=args.all, assume_log_independence=args.assume_log_independence)
    else:
        res = analyze_univariate(
            f,
            run_all=args.all,
            use_oracle=args.oracle,
            assume_log_independence=args.assume_log_independence,
            scan_t=scan,
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
    _emit(out, args.format)
    return _verdict_exit(res.verdict)


def cmd_polygon(args) -> int:
    from .polygon import build_polygon

    f = _load_input(args.input)
    poly = build_polygon(f, args.prime)
    obj = {
        "prime": poly.prime,
        "shift": poly.shift,
        "vertices": [list(v) for v in poly.vertices],
        "edges": [
            {
                "from": [e.i1, e.y1],
                "to": [e.i2, e.y2],
                "segments": e.delta,
                "points": [list(p) for p in e.points],
                "segment_relative_degrees": [str(r) for r in e.segment_ratios],
            }
            for e in poly.edges
        ],
        "total_segment_bound": poly.total_segments(),
    }
    if args.format == "ascii":
        print(_ascii_polygon(poly))
    else:
        _emit(obj, args.format)
    return EXIT_DEFINITIVE


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


def cmd_upper_polygon(args) -> int:
    from .upperpoly import HullUndecidable, build_upper_polygon, stepanov_schmidt_test

    f = _load_input(args.input)
    if not isinstance(f, MultiDirichletPoly):
        print("upper-polygon needs a multivariate JSON input", file=sys.stderr)
        return EXIT_ERROR
    try:
        poly = build_upper_polygon(f, args.outer, args.inner)
    except HullUndecidable as e:
        _emit({"status": "undecidable", "partial_vertices": [list(v) for v in e.partial]},
              args.format)
        return EXIT_UNDECIDABLE
    rep = stepanov_schmidt_test(f, args.outer, args.inner)
    obj = {
        "outer": args.outer,
        "inner": args.inner,
        "vertices": [list(v) for v in poly.vertices],
        "edges": [
            {"from": [e.i1, e.y1], "to": [e.i2, e.y2], "segments": e.delta,
             "points": [list(p) for p in e.points]}
            for e in poly.edges
        ],
        "criterion": _report_obj(rep),
    }
    _emit(obj, args.format)
    return _verdict_exit(rep.verdict)


def cmd_polytope(args) -> int:
    from .polytope import LogPolytope, polytope_irreducibility

    f = _load_input(args.input)
    if not isinstance(f, MultiDirichletPoly):
        print("polytope needs a multivariate JSON input", file=sys.stderr)
        return EXIT_ERROR
    pt = LogPolytope.of(f)
    rep = polytope_irreducibility(f).gated(args.assume_log_independence)
    obj = {
        "support": [list(v) for v in pt.support],
        "vertices": [list(v) for v in pt.vertices],
        "vertex_assumptions": list(pt.assumptions),
        "criterion": _report_obj(rep),
    }
    _emit(obj, args.format)
    return _verdict_exit(rep.verdict)


def cmd_rank(args) -> int:
    from .ranktests import (
        build_a_matrix,
        build_b_matrix,
        build_r_matrix,
        build_d_matrix,
        common_factor_test,
        k_power_free_charp,
    )

    f = _load_input(args.input)
    if args.matrix in ("A", "B"):
        mat = (build_a_matrix if args.matrix == "A" else build_b_matrix)(f, args.p, args.k)
        rep = k_power_free_charp(f, args.k)
        obj = {
            "matrix": args.matrix,
            "rows": mat.rows,
            "cols": mat.cols,
            "rank": mat.rank(),
            "entries": [[i, j, int(v)] for i, j, v in mat.to_triplets()],
            "criterion": _report_obj(rep),
        }
        _emit(obj, args.format)
        return _verdict_exit(rep.verdict)
    if args.matrix == "R":
        g = _load_input(args.g)
        mat = build_r_matrix(f, g, args.d)
        rep = common_factor_test(f, g, args.d)
        obj = {
            "matrix": "R",
            "rows": mat.rows,
            "cols": mat.cols,
            "entries": [[i, j, str(v)] for i, j, v in mat.to_triplets()],
            "criterion": _report_obj(rep),
        }
        _emit(obj, args.format)
        return _verdict_exit(rep.verdict)
    if args.matrix == "D":
        from .ranktests import derivative_rank_test

        rep = derivative_rank_test(f, args.k, args.d).gated(args.assume_log_independence)
        rows = build_d_matrix(f, args.k, args.d)
        obj = {
            "matrix": "D",
            "rows": len(rows),
            "cols": 2 * f.degree // args.d,
            "entries": [
                [i, j, repr(v)] for i, row in enumerate(rows) for j, v in sorted(row.items())
            ],
            "criterion": _report_obj(rep),
        }
        _emit(obj, args.format)
        return _verdict_exit(rep.verdict)
    print(f"unknown matrix kind {args.matrix}", file=sys.stderr)
    return EXIT_ERROR


def cmd_prime_value(args) -> int:
    from .primevalue import prime_value_test, scan_t

    f = _load_input(args.input)
    if args.scan_t:
        lo, _, hi = args.scan_t.partition("..")
        hit = scan_t(f, int(lo), int(hi))
        if hit is None:
            _emit({"verdict": report.INCONCLUSIVE,
                   "detail": f"no witness found for t in {args.scan_t}"}, args.format)
            return EXIT_INCONCLUSIVE
        t, rep = hit
        _emit({"t": t, "criterion": _report_obj(rep)}, args.format)
        return _verdict_exit(rep.verdict)
    rep = prime_value_test(f, args.t, args.P, args.ell, args.q)
    _emit(_report_obj(rep), args.format)
    return _verdict_exit(rep.verdict)


def cmd_schonemann(args) -> int:
    from .schonemann import prime_power_value_test, pq_schonemann_test, schonemann_test

    F = _load_input(args.F)
    G = _load_input(args.G)
    if args.variant in ("classic", "value"):
        rep = schonemann_test(F, G, args.n, args.p, args.q,
                              witness_scan=args.scan if args.variant == "value" else 0)
    elif args.variant == "pq":
        rep = pq_schonemann_test(F, G, args.n, args.p, args.q)
    elif args.variant == "prime-power":
        rep = prime_power_value_test([F], [args.n], args.m, G, args.p, args.a)
    else:
        print(f"unknown variant {args.variant}", file=sys.stderr)
        return EXIT_ERROR
    _emit(_report_obj(rep), args.format)
    return _verdict_exit(rep.verdict)


def cmd_oracle(args) -> int:
    from .oracle import (NODE_CAP_CLI, brute_force_factor, enumerate_segment_points_brute,
                         gcd_bounded)

    if args.action == "factor":
        f = _load_input(args.input)
        res = brute_force_factor(f, node_cap=NODE_CAP_CLI)
        obj = {"status": res.status, "bound": res.bound, "nodes": res.nodes}
        if res.factors:
            obj["factors"] = [res.factors[0].text(), res.factors[1].text()]
        _emit(obj, args.format)
        return EXIT_DEFINITIVE if res.status != "none-within-bound" else EXIT_INCONCLUSIVE
    if args.action == "gcd":
        f = _load_input(args.input)
        g = _load_input(args.g)
        _emit({"gcd": gcd_bounded(f, g).text()}, args.format)
        return EXIT_DEFINITIVE
    if args.action == "segment":
        x1, y1, x2, y2 = args.x1, args.y1, args.x2, args.y2
        pts = enumerate_segment_points_brute(x1, y1, x2, y2)
        _emit({"interior_points": [list(p) for p in pts]}, args.format)
        return EXIT_DEFINITIVE
    print(f"unknown oracle action {args.action}", file=sys.stderr)
    return EXIT_ERROR


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="dpirred",
        description="Exact irreducibility toolkit for Dirichlet polynomials",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json", "ascii"), default="text")
        p.add_argument("--assume-log-independence", action="store_true")

    p = sub.add_parser("analyze", help="run the criterion pipeline")
    p.add_argument("input")
    p.add_argument("--all", action="store_true", help="run every criterion")
    p.add_argument("--oracle", action="store_true", help="append the brute-force oracle")
    p.add_argument("--scan-t", default=None, help="prime-value witness scan, e.g. 1..16")
    p.add_argument("--prime", "-p", type=int, action="append",
                   help="attach the polygon at this prime to the report (repeatable)")
    common(p)
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("polygon", help="Newton log-polygon at a prime")
    p.add_argument("input")
    p.add_argument("--prime", "-p", type=int, required=True)
    common(p)
    p.set_defaults(fn=cmd_polygon)

    p = sub.add_parser("upper-polygon", help="upper polygon of a multivariate input")
    p.add_argument("input")
    p.add_argument("--outer", required=True)
    p.add_argument("--inner", required=True)
    common(p)
    p.set_defaults(fn=cmd_upper_polygon)

    p = sub.add_parser("polytope", help="Newton log-polytope of a multivariate input")
    p.add_argument("input")
    common(p)
    p.set_defaults(fn=cmd_polytope)

    p = sub.add_parser("rank", help="rank-test matrices")
    p.add_argument("input")
    p.add_argument("--matrix", choices=("A", "B", "R", "D"), required=True)
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--g", help="second polynomial for the R matrix")
    common(p)
    p.set_defaults(fn=cmd_rank)

    p = sub.add_parser("prime-value", help="prime(-power) value criteria")
    p.add_argument("input")
    p.add_argument("--t", type=int)
    p.add_argument("--P", type=int)
    p.add_argument("--ell", type=int, default=1)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--scan-t", default=None)
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
    p.add_argument("--x1", type=int)
    p.add_argument("--y1", type=int)
    p.add_argument("--x2", type=int)
    p.add_argument("--y2", type=int)
    common(p)
    p.set_defaults(fn=cmd_oracle)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, UnfactoredResidueError, json.JSONDecodeError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
