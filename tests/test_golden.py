"""`dpirred analyze --format json` on the README worked examples, the
benchmark's CLI examples and every early stop of the report loop,
`dpirred rank --format json` on one case of each matrix kind,
`dpirred upper-polygon` / `dpirred polytope --format json` on s,t inputs
that exercise the certified log comparator, `dpirred polygon --format
json` on sloped edges with several segments, and `dpirred prime-value`,
`dpirred schonemann` and `dpirred oracle --format json` on one case of each
route, and one `--format text` argv per subcommand plus `polygon --format
ascii`, compared byte for byte with committed snapshots.  The benchmark
corpus (univariate-zq, univariate-fp, bivariate and oracle at seeds 1-2) is
pinned by digest: one of the input texts, and one per input of its reports
or oracle result.

Regenerate every snapshot after an intended output change with
    PYTHONPATH=src python tests/test_golden.py
and review the diff of tests/golden/analyze.json, tests/golden/rank.json,
tests/golden/comparator.json, tests/golden/polygon.json,
tests/golden/subcommands.json, tests/golden/text.json and
tests/golden/corpus.json.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from dpirred.cli import _report_obj, main

SNAPSHOT = Path(__file__).with_name("golden") / "analyze.json"
RANK_SNAPSHOT = Path(__file__).with_name("golden") / "rank.json"
COMPARATOR_SNAPSHOT = Path(__file__).with_name("golden") / "comparator.json"
POLYGON_SNAPSHOT = Path(__file__).with_name("golden") / "polygon.json"
SUBCOMMAND_SNAPSHOT = Path(__file__).with_name("golden") / "subcommands.json"
TEXT_SNAPSHOT = Path(__file__).with_name("golden") / "text.json"
CORPUS_SNAPSHOT = Path(__file__).with_name("golden") / "corpus.json"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

F2_SQUARE = '{"ring":"Fp","p":2,"terms":[[1,1],[4,1]]}'
F3_SQUARE = '{"ring":"Fp","p":3,"terms":[[1,1],[3,2],[9,1]]}'
FIG1 = '{"ring":"Z","terms":[[4,4],[6,4],[8,2],[9,1],[10,4],[12,1],[15,2]]}'
DERIVATIVE_RANK = "1 + 2/2^s - 2/4^s + 4/8^s + 9/12^s"
F3_SQUARE_36 = ('{"ring":"Fp","p":3,"terms":[[1,1],[2,2],[3,2],[4,1],[6,1],[9,1],[12,2],'
                '[18,2],[36,1]]}')

CASES = [
    # README
    ["1 + 1/2^s + 1/3^s + 1/4^s"],
    ["-1 + 1/4^s", "--oracle"],
    [FIG1, "--all"],
    # benchmark CLI examples
    ["1 + 1/4^s", "--oracle"],
    ["4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s", "--oracle"],
    ["3/12^s + 2/20^s"],
    ["1/10^s + 1/11^s + 1/14^s + 1/16^s"],
    ["7/2^s + 7/3^s + 1/5^s", "--oracle"],
    ["1 + 7/2^s + 7/3^s"],
    ["4/2^s + 8/3^s + 1/5^s"],
    ["1/2^s + 7/3^s + 49/9^s"],
    [FIG1],
    ['{"ring":"Fp","p":2,"terms":[[1,1],[4,1]]}'],
    ['{"vars":["s","t"],"terms":[{"indices":[8,9],"coeff":1},{"indices":[25,49],"coeff":1},'
     '{"indices":[121,169],"coeff":1}]}'],
    ['{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":1},{"indices":[8,1],"coeff":1},'
     '{"indices":[8,2],"coeff":1},{"indices":[16,1],"coeff":1},{"indices":[16,32],"coeff":1}]}'],
    # an exact log-chord tie, a factor in one variable alone, single terms
    ['{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":1},{"indices":[1,2],"coeff":1},'
     '{"indices":[2,1],"coeff":1},{"indices":[2,6],"coeff":1},{"indices":[4,1],"coeff":1},'
     '{"indices":[4,18],"coeff":1}]}'],
    ['{"vars":["s","t"],"terms":[{"indices":[2,3],"coeff":1},{"indices":[2,5],"coeff":1},'
     '{"indices":[3,6],"coeff":1},{"indices":[3,10],"coeff":1}]}'],
    ["1/5^s"],
    ["3/5^s"],
    ["1/6^s"],
    # (1 + 1/3^s)^2 over F_3: the rank test's square witness
    [F3_SQUARE, "--all"],
    # (1 + 1/2^s + 1/3^s + 1/6^s)^2 over F_3, degree 36: the square witness
    # comes from the nullspace of a 764-row system
    [F3_SQUARE_36],
    # every way the report loop stops or runs on: the algebraic-shift note
    # with --all, a prime-value scan hit and a scan with no witness, a
    # conditional derivative-rank verdict gated off and on, a constant, a Q
    # input and an s,t input with --all
    ["3/12^s + 2/20^s", "--all"],
    ["1 + 1/2^s + 1/6^s", "--all", "--scan-t", "1..40"],
    ["1 + 1/2^s + 1/3^s + 1/4^s", "--all", "--scan-t", "1..16"],
    [DERIVATIVE_RANK, "--all"],
    [DERIVATIVE_RANK, "--all", "--assume-log-independence"],
    ["5"],
    ["(1/2) + (3/2)/2^s + 1/3^s + 3/6^s", "--all"],
    ['{"vars":["s","t"],"terms":[{"indices":[8,9],"coeff":1},{"indices":[25,49],"coeff":1},'
     '{"indices":[121,169],"coeff":1}]}', "--all"],
]

# `dpirred polygon` arguments after the input: the paper's Figure 1 input,
# whose polygons at 2 and 3 have sloped edges carrying several segments
POLYGON_CASES = [[FIG1, "-p", "2"], [FIG1, "-p", "3"]]

# `dpirred rank` arguments after the input: the F_p power-free systems, a
# common-factor system over Z and a derivative system over Q(L_p)
RANK_CASES = [
    [F2_SQUARE, "--matrix", "A", "--p", "2", "--k", "2"],
    [F2_SQUARE, "--matrix", "B", "--p", "2", "--k", "2"],
    [F3_SQUARE, "--matrix", "A", "--p", "3", "--k", "2"],
    [F3_SQUARE, "--matrix", "B", "--p", "3", "--k", "2"],
    ["1 + 1/2^s - 1/3^s - 1/6^s", "--matrix", "R", "--g", "1 - 2/3^s"],
    ["1 + 3/2^s + 1/4^s", "--matrix", "D"],
    # the largest B systems of the benchmark's F_3 inputs: a tail-family
    # input (7,980 rows, 554 nonempty) and a panel input (26,970 rows, 1,238
    # nonempty)
    ['{"ring":"Fp","p":3,"terms":[[1,1],[7,1],[40,1]]}', "--matrix", "B", "--p", "2", "--k", "2"],
    ['{"ring":"Fp","p":3,"terms":[[12,1],[31,1],[60,2]]}', "--matrix", "B", "--p", "2", "--k", "2"],
]

# s,t inputs whose upper polygons and log polytope are decided by the
# certified log comparator: the two s,t examples of CASES, the exact chord
# tie, a chord-family near tie (t-degrees 2, 5, 13 at s-indices 1, 2, 4, and
# 2 * 13 = 26 against 5^2 = 25) and two of the slowest seeded 6-term inputs of
# the benchmark's bivariate workload
ST_INPUTS = [
    '{"vars":["s","t"],"terms":[{"indices":[8,9],"coeff":1},{"indices":[25,49],"coeff":1},'
    '{"indices":[121,169],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":1},{"indices":[8,1],"coeff":1},'
    '{"indices":[8,2],"coeff":1},{"indices":[16,1],"coeff":1},{"indices":[16,32],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":1},{"indices":[1,2],"coeff":1},'
    '{"indices":[2,1],"coeff":1},{"indices":[2,6],"coeff":1},{"indices":[4,1],"coeff":1},'
    '{"indices":[4,18],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":1},{"indices":[1,2],"coeff":-1},'
    '{"indices":[2,1],"coeff":2},{"indices":[2,5],"coeff":1},{"indices":[4,1],"coeff":3},'
    '{"indices":[4,13],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[1,15],"coeff":2},{"indices":[4,9],"coeff":2},'
    '{"indices":[4,19],"coeff":-2},{"indices":[5,26],"coeff":-1},{"indices":[6,4],"coeff":-3},'
    '{"indices":[11,25],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[5,26],"coeff":-2},{"indices":[6,11],"coeff":1},'
    '{"indices":[7,17],"coeff":2},{"indices":[9,5],"coeff":1},{"indices":[11,28],"coeff":-1},'
    '{"indices":[12,14],"coeff":3}]}',
]

# (command, arguments after the input): both upper polygons and the polytope
COMPARATOR_CASES = [
    (command, [f, *rest])
    for f in ST_INPUTS
    for command, rest in (("upper-polygon", ["--outer", "s", "--inner", "t"]),
                          ("upper-polygon", ["--outer", "t", "--inner", "s"]),
                          ("polytope", []))
]

# whole argvs of the subcommands without an input-first form: the
# prime-value threshold at one t and over a scan, the four linear-combination
# variants (the classic one needs the F_3 oracle to certify F irreducible
# mod 3, the value one scans for a witness and finds none) and the oracle's
# factor, gcd and segment actions
SUBCOMMAND_CASES = [
    ["prime-value", "1 + 1/4^s", "--t", "8", "--P", "65537"],
    ["prime-value", "1 + 1/4^s", "--scan-t", "1..16"],
    ["schonemann", "--variant", "pq", "--F", "1 + 1/5^s", "--G", "2 + 1/5^s",
     "--n", "2", "--p", "2", "--q", "3"],
    ["schonemann", "--variant", "classic", "--F", "1 + 1/2^s + 1/6^s", "--G", "1", "--p", "3"],
    ["schonemann", "--variant", "value", "--F", "1 + 1/2^s", "--G", "1 + 1/2^s", "--p", "3",
     "--scan", "8"],
    ["schonemann", "--variant", "prime-power", "--F", "-1 + 1/2^s", "--G", "1/2^s",
     "--n", "2", "--p", "3", "--a", "-2"],
    ["oracle", "factor", "-1 + 1/4^s"],
    ["oracle", "factor", "2 + 3/2^s + 1/4^s + 5/6^s"],
    ["oracle", "gcd", "1 + 1/2^s - 1/3^s - 1/6^s", "--g", "1 - 1/3^s"],
    ["oracle", "segment", "--x1", "4", "--y1", "2", "--x2", "9", "--y2", "0"],
]

# whole argvs in the text and ASCII formats, one per subcommand: nested
# reports and attached polygons, the ASCII plot, and each kind of object the
# other subcommands print
TEXT_CASES = [
    ["analyze", FIG1, "--all", "-p", "2", "--format", "text"],
    ["polygon", FIG1, "-p", "2", "--format", "text"],
    ["polygon", FIG1, "-p", "2", "--format", "ascii"],
    ["upper-polygon", ST_INPUTS[0], "--outer", "s", "--inner", "t", "--format", "text"],
    ["polytope", ST_INPUTS[1], "--format", "text"],
    ["rank", "1 + 1/2^s - 1/3^s - 1/6^s", "--matrix", "R", "--g", "1 - 2/3^s",
     "--format", "text"],
    ["prime-value", "1 + 1/4^s", "--scan-t", "1..16", "--format", "text"],
    ["schonemann", "--variant", "pq", "--F", "1 + 1/5^s", "--G", "2 + 1/5^s",
     "--n", "2", "--p", "2", "--q", "3", "--format", "text"],
    ["oracle", "factor", "2 + 3/2^s + 1/4^s + 5/6^s", "--format", "text"],
]


def run(args, command="analyze"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, args[0], "--format", "json", *args[1:]])
    return {"args": args, "exit": code, "stdout": out.getvalue()}


def run_argv(argv, fmt=("--format", "json")):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, *fmt])
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def test_analyze_json_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    assert [run(args) for args in CASES] == expected


def test_rank_json_matches_snapshot():
    expected = json.loads(RANK_SNAPSHOT.read_text())
    assert [run(args, "rank") for args in RANK_CASES] == expected


def comparator_runs():
    return [{"command": command, **run(args, command)} for command, args in COMPARATOR_CASES]


def test_comparator_json_matches_snapshot():
    expected = json.loads(COMPARATOR_SNAPSHOT.read_text())
    assert comparator_runs() == expected


def test_upper_polygon_undecidable_reports_partial_hull(monkeypatch):
    # at 4 bits the near tie of ST_INPUTS[3] cannot be certified: the hull
    # stops after (1, 2) and (2, 5), before the chord to (4, 13) is decided
    from dpirred import certlog

    monkeypatch.setattr(certlog, "PRECISION_START_BITS", 4)
    monkeypatch.setattr(certlog, "PRECISION_CAP_BITS", 4)
    res = run([ST_INPUTS[3], "--outer", "s", "--inner", "t"], "upper-polygon")
    assert res["exit"] == 3
    assert json.loads(res["stdout"]) == {"status": "undecidable",
                                         "partial_vertices": [[1, 2], [2, 5]]}


def test_polygon_json_matches_snapshot():
    expected = json.loads(POLYGON_SNAPSHOT.read_text())
    assert [run(args, "polygon") for args in POLYGON_CASES] == expected


def test_subcommand_json_matches_snapshot():
    expected = json.loads(SUBCOMMAND_SNAPSHOT.read_text())
    assert [run_argv(argv) for argv in SUBCOMMAND_CASES] == expected


def test_text_output_matches_snapshot():
    expected = json.loads(TEXT_SNAPSHOT.read_text())
    assert [run_argv(argv, ()) for argv in TEXT_CASES] == expected


CORPUS_WORKLOADS = ("univariate-zq", "univariate-fp", "bivariate", "oracle")
CORPUS_SEEDS = (1, 2)


def _digest(obj, size=12) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:size]


def _outcome_obj(res) -> dict:
    if hasattr(res, "reports"):  # an Analysis
        return {"input": res.input_text, "verdict": res.verdict,
                "reports": [_report_obj(r) for r in res.reports]}
    return {"status": res.status, "bound": res.bound, "nodes": res.nodes,
            "factors": [g.text() for g in res.factors] if res.factors else None}


def corpus_run() -> dict:
    """The benchmark's inputs, each run the way its workload calls it: one
    digest of every input text, and one short digest per input of its
    sorted-JSON reports or oracle result."""
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        from workloads import WORKLOADS
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    texts, digests = [], {}
    for name in CORPUS_WORKLOADS:
        wl = WORKLOADS[name]
        for seed in CORPUS_SEEDS:
            cases = wl.cases(seed)
            texts.append([name, seed, [case.text for case in cases]])
            digests[f"{name} {seed}"] = [_digest(_outcome_obj(wl.call(case))) for case in cases]
    return {"inputs": _digest(texts, 64), "digests": digests, "texts": texts}


def test_corpus_matches_snapshot():
    expected = json.loads(CORPUS_SNAPSHOT.read_text())
    got = corpus_run()
    assert got["inputs"] == expected["inputs"], "the benchmark's corpus generator changed"
    changed = []
    for name, seed, run_texts in got["texts"]:
        run = f"{name} {seed}"
        pairs = zip(run_texts, got["digests"][run], expected["digests"][run])
        changed += [f"{run} #{k}: {text}" for k, (text, a, b) in enumerate(pairs) if a != b]
    assert not changed, f"{len(changed)} inputs changed, first: " + "; ".join(changed[:10])


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([run(args) for args in CASES], indent=1) + "\n")
    RANK_SNAPSHOT.write_text(
        json.dumps([run(args, "rank") for args in RANK_CASES], indent=1) + "\n")
    COMPARATOR_SNAPSHOT.write_text(json.dumps(comparator_runs(), indent=1) + "\n")
    POLYGON_SNAPSHOT.write_text(
        json.dumps([run(args, "polygon") for args in POLYGON_CASES], indent=1) + "\n")
    SUBCOMMAND_SNAPSHOT.write_text(
        json.dumps([run_argv(argv) for argv in SUBCOMMAND_CASES], indent=1) + "\n")
    TEXT_SNAPSHOT.write_text(
        json.dumps([run_argv(argv, ()) for argv in TEXT_CASES], indent=1) + "\n")
    corpus = corpus_run()
    CORPUS_SNAPSHOT.write_text(json.dumps(
        {"inputs": corpus["inputs"], "digests": corpus["digests"]}, indent=1) + "\n")
