"""`dpirred analyze --format json` on the README worked examples and the
benchmark's CLI examples, compared byte for byte with a committed snapshot.

Regenerate the snapshot after an intended output change with
    PYTHONPATH=src python tests/test_golden.py
and review the diff of tests/golden/analyze.json.
"""

import contextlib
import io
import json
from pathlib import Path

from dpirred.cli import main

SNAPSHOT = Path(__file__).with_name("golden") / "analyze.json"

CASES = [
    # README
    ["1 + 1/2^s + 1/3^s + 1/4^s"],
    ["-1 + 1/4^s", "--oracle"],
    ['{"ring":"Z","terms":[[4,4],[6,4],[8,2],[9,1],[10,4],[12,1],[15,2]]}', "--all"],
    # benchmark CLI examples
    ["1 + 1/4^s", "--oracle"],
    ["4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s", "--oracle"],
    ["3/12^s + 2/20^s"],
    ["1/10^s + 1/11^s + 1/14^s + 1/16^s"],
    ["7/2^s + 7/3^s + 1/5^s", "--oracle"],
    ["1 + 7/2^s + 7/3^s"],
    ["4/2^s + 8/3^s + 1/5^s"],
    ["1/2^s + 7/3^s + 49/9^s"],
    ['{"ring":"Z","terms":[[4,4],[6,4],[8,2],[9,1],[10,4],[12,1],[15,2]]}'],
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
]


def run(args):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["analyze", args[0], "--format", "json", *args[1:]])
    return {"args": args, "exit": code, "stdout": out.getvalue()}


def test_analyze_json_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    assert [run(args) for args in CASES] == expected


if __name__ == "__main__":
    SNAPSHOT.write_text(json.dumps([run(args) for args in CASES], indent=1) + "\n")
