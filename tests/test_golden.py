"""`dpirred analyze --format json` on the README worked examples, the
benchmark's CLI examples and every early stop of the report loop,
`dpirred rank --format json` on one case of each matrix kind,
`dpirred upper-polygon` / `dpirred polytope --format json` on s,t inputs
that exercise the certified log comparator, and `dpirred polygon --format
json` on sloped edges with several segments, compared byte for byte with
committed snapshots.

Regenerate every snapshot after an intended output change with
    PYTHONPATH=src python tests/test_golden.py
and review the diff of tests/golden/analyze.json, tests/golden/rank.json,
tests/golden/comparator.json and tests/golden/polygon.json.
"""

import contextlib
import io
import json
from pathlib import Path

from dpirred.cli import main

SNAPSHOT = Path(__file__).with_name("golden") / "analyze.json"
RANK_SNAPSHOT = Path(__file__).with_name("golden") / "rank.json"
COMPARATOR_SNAPSHOT = Path(__file__).with_name("golden") / "comparator.json"
POLYGON_SNAPSHOT = Path(__file__).with_name("golden") / "polygon.json"

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


def run(args, command="analyze"):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, args[0], "--format", "json", *args[1:]])
    return {"args": args, "exit": code, "stdout": out.getvalue()}


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


def test_polygon_json_matches_snapshot():
    expected = json.loads(POLYGON_SNAPSHOT.read_text())
    assert [run(args, "polygon") for args in POLYGON_CASES] == expected


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([run(args) for args in CASES], indent=1) + "\n")
    RANK_SNAPSHOT.write_text(
        json.dumps([run(args, "rank") for args in RANK_CASES], indent=1) + "\n")
    COMPARATOR_SNAPSHOT.write_text(json.dumps(comparator_runs(), indent=1) + "\n")
    POLYGON_SNAPSHOT.write_text(
        json.dumps([run(args, "polygon") for args in POLYGON_CASES], indent=1) + "\n")
