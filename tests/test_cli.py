import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dpirred.cli import main
from dpirred.multivariate import MultiDirichletPoly


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_analyze_definitive_exit_zero(capsys):
    code, out = run_cli(capsys, "analyze", "1 + 1/2^s + 1/3^s + 1/4^s", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "irreducible"


def test_analyze_inconclusive_exit_two(capsys):
    code, out = run_cli(capsys, "analyze", "1 + 1/4^s", "--format", "json")
    assert code == 2


def test_analyze_oracle_reducible(capsys):
    code, out = run_cli(capsys, "analyze", "-1 + 1/4^s", "--oracle", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["verdict"] == "reducible"


def test_parse_error_exit_one(capsys):
    code = main(["analyze", "1 + %%garbage"])
    assert code == 1


def test_polygon_json_golden(capsys):
    code, out = run_cli(
        capsys, "polygon", "4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s",
        "-p", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == [[4, 2], [9, 0], [12, 0], [15, 1]]
    assert obj["edges"][0]["points"] == [[4, 2], [6, 1], [9, 0]]
    assert obj["total_segment_bound"] == 6


def test_polygon_ascii_runs(capsys):
    code, out = run_cli(
        capsys, "polygon", "4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s",
        "-p", "2", "--format", "ascii")
    assert code == 0
    assert "*" in out and "o" in out


def test_determinism_byte_identical(capsys):
    args = ("analyze", "4/4^s + 4/6^s + 2/8^s + 1/9^s + 4/10^s + 1/12^s + 2/15^s",
            "--all", "--oracle", "--format", "json")
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_multivariate_analyze(capsys):
    f = MultiDirichletPoly(
        {(8, 9): 1, (25, 49): 2, (121, 169): -3}, ("s", "t"))
    code, out = run_cli(capsys, "analyze", f.to_json(), "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "absolutely-irreducible"


def test_upper_polygon_subcommand(capsys):
    f = MultiDirichletPoly(
        {(1, 1): 1, (8, 1): 1, (8, 2): 1, (16, 1): 1, (16, 32): 1}, ("s", "t"))
    code, out = run_cli(capsys, "upper-polygon", f.to_json(),
                        "--outer", "s", "--inner", "t", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["vertices"] == [[1, 1], [16, 32]]
    assert obj["criterion"]["verdict"] == "irreducible"


def test_prime_value_subcommand(capsys):
    code, out = run_cli(capsys, "prime-value", "1 + 1/4^s",
                        "--t", "8", "--P", "65537", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "irreducible"


def test_schonemann_subcommand(capsys):
    code, out = run_cli(
        capsys, "schonemann", "--variant", "pq", "--F", "1 + 1/5^s",
        "--G", "2 + 1/5^s", "--n", "2", "--p", "2", "--q", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "irreducible"


def test_oracle_subcommand(capsys):
    code, out = run_cli(capsys, "oracle", "factor", "-1 + 1/4^s", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["status"] == "factored"
    code, out = run_cli(capsys, "oracle", "segment", "--x1", "4", "--y1", "2",
                        "--x2", "9", "--y2", "0", "--format", "json")
    assert json.loads(out)["interior_points"] == [[6, 1]]
    # over Q: (1/2)(1 + 3/2^s)(1 + 2/3^s) and (1/2)(1 + 3/2^s)(1 - 2/5^s)
    code, out = run_cli(capsys, "oracle", "gcd", "(1/2) + (3/2)/2^s + 1/3^s + 3/6^s",
                        "--g", "(1/2) + (3/2)/2^s - 1/5^s - 3/10^s", "--format", "json")
    assert code == 0
    assert json.loads(out)["gcd"] == "1 + 3/2^s"


# inputs whose complete oracle search runs for minutes: the CLI node budget
# stops each within seconds
SLOW_ORACLE_INPUTS = [
    "(12/5) + 3/2^s + (4/3)/6^s + 1/13^s + 6/16^s",
    "3/8^s + 4/15^s + 6/33^s + 1/39^s - 2/56^s",
]


@pytest.mark.parametrize("text", SLOW_ORACLE_INPUTS)
def test_oracle_factor_node_budget_binds(capsys, text):
    from dpirred.oracle import NODE_CAP_CLI

    start = time.perf_counter()
    code, out = run_cli(capsys, "oracle", "factor", text, "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 2
    obj = json.loads(out)
    assert obj["status"] == "none-within-bound"
    assert obj["nodes"] == NODE_CAP_CLI + 1


def test_analyze_oracle_report_names_node_budget(capsys):
    from dpirred.oracle import NODE_CAP_CLI

    start = time.perf_counter()
    code, out = run_cli(capsys, "analyze", SLOW_ORACLE_INPUTS[1], "--all", "--oracle",
                        "--format", "json")
    assert time.perf_counter() - start < 5
    rep = json.loads(out)["reports"][-1]
    assert rep["rule"] == "oracle" and rep["verdict"] == "inconclusive"
    assert f"node budget of {NODE_CAP_CLI}" in rep["detail"]
    assert rep["certificate"]["node_budget"] == NODE_CAP_CLI


def test_oracle_gcd_node_budget_binds():
    # the smaller-degree operand is the slow input above, which gcd_bounded
    # factors completely: run it in a child that a timeout stops
    from dpirred.oracle import NODE_CAP_CLI

    argv = ["oracle", "gcd", SLOW_ORACLE_INPUTS[1],
            "--g", "1 + 1/2^s + 1/3^s + 1/5^s + 1/7^s + 1/11^s + 1/13^s + 1/64^s",
            "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "dpirred.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"status": "none-within-bound", "node_budget": NODE_CAP_CLI}


def test_rank_subcommand(capsys):
    code, out = run_cli(
        capsys, "rank", '{"ring":"Fp","p":2,"terms":[[1,1],[4,1]]}',
        "--matrix", "B", "--p", "2", "--k", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["criterion"]["verdict"] == "not-square-free"


def test_z_operand_meets_q_operand(capsys):
    # text without fractions parses as Z; paired with a Q operand it is
    # promoted to Q: (1 + 3/2^s)(1 + 2/3^s) against (1/2)(1 + 3/2^s)(1 - 2/5^s)
    code, out = run_cli(capsys, "oracle", "gcd", "1 + 3/2^s + 2/3^s + 6/6^s",
                        "--g", "(1/2) + (3/2)/2^s - 1/5^s - 3/10^s", "--format", "json")
    assert code == 0
    assert json.loads(out)["gcd"] == "1 + 3/2^s"
    code, out = run_cli(capsys, "rank", "1 + 1/2^s", "--matrix", "R", "--g", "(1/2) + 1/2^s",
                        "--format", "json")
    assert code == 0
    criterion = json.loads(out)["criterion"]
    assert criterion["verdict"] == "no-common-factor"
    assert criterion["certificate"]["gcd_degree"] == 1


def test_file_input(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"ring":"Z","terms":[[1,1],[2,1],[3,1],[4,1]]}')
    code, out = run_cli(capsys, "analyze", f"@{path}", "--format", "json")
    assert code == 0


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "dpirred.cli", "analyze", "1 + 1/2^s"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "irreducible" in proc.stdout


MALFORMED_JSON = [
    '{"ring":"Q","terms":[[1,[1,0]],[2,1]]}',
    '{"ring":"Fp","terms":[[1,1]]}',
    '{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":[1,0]},{"indices":[2,3],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[2,3]}]}',
    '{"terms":[[1,1]],"vars":"st"}',
]
# a required argument left out, whether argparse or the subcommand notices
MISSING_ARGUMENT = [
    ["analyze"],
    ["polygon", "1 + 1/2^s"],
    ["rank", "1 + 1/2^s", "--matrix", "R"],
    ["oracle", "factor"],
    ["oracle", "gcd"],
    ["oracle", "gcd", "1 + 1/2^s"],
    ["oracle", "segment"],
    ["prime-value", "1 + 1/2^s"],
]
F2_SQUARE = '{"ring":"Fp","p":2,"terms":[[1,1],[4,1]]}'
ST_INPUT = '{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":1},{"indices":[2,3],"coeff":1}]}'
# the subcommands with conditional verdicts, which --assume-log-independence ungates
GATED = ("analyze", "polytope", "rank")
# one argv per subcommand that exits 0 or 2 as it stands
VALID_ARGV = [
    ["analyze", "1 + 1/2^s"],
    ["polygon", "1 + 1/2^s", "-p", "2"],
    ["upper-polygon", ST_INPUT, "--outer", "s", "--inner", "t"],
    ["polytope", ST_INPUT],
    ["rank", F2_SQUARE, "--matrix", "B"],
    ["prime-value", "1 + 1/4^s", "--t", "8", "--P", "65537"],
    ["schonemann", "--variant", "pq", "--F", "1 + 1/5^s", "--G", "2 + 1/5^s", "--n", "2",
     "--p", "2", "--q", "3"],
    ["oracle", "factor", "-1 + 1/4^s"],
]
# a number outside its range (a prime, or an int >= 1), a univariate input
# where an s,t one is needed, or an s,t input where a univariate one is
BAD_ARGUMENT = [
    ["polygon", "1 + 1/2^s", "-p", "0"],
    ["analyze", "1 + 1/2^s", "-p", "0"],
    ["polygon", "1 + 1/2^s", "-p", "-2"],
    ["polygon", "2 + 4/2^s + 1/3^s", "-p", "4"],
    ["rank", F2_SQUARE, "--matrix", "A", "--p", "0"],
    ["rank", F2_SQUARE, "--matrix", "B", "--p", "1"],
    ["rank", "1 + 1/2^s", "--matrix", "D", "--d", "0"],
    ["rank", "1 + 1/2^s", "--matrix", "D", "--d", "-1"],
    ["rank", "1 + 1/2^s", "--matrix", "R", "--g", "1 + 1/3^s", "--d", "0"],
    ["rank", "1 + 1/2^s", "--matrix", "R", "--g", "1 + 1/3^s", "--d", "-2"],
    ["oracle", "segment", "--x1", "0", "--y1", "1", "--x2", "4", "--y2", "0"],
    ["rank", "1 + 1/2^s", "--matrix", "D", "--k", "0"],
    ["rank", "1 + 1/2^s", "--matrix", "D", "--k", "-1"],
    ["analyze", "1 + 1/2^s", "--scan-t", "5"],
    ["analyze", "1 + 1/2^s", "--scan-t", "9..1"],
    ["prime-value", "1 + 1/2^s", "--scan-t", "5"],
    ["prime-value", "1 + 1/2^s", "--scan-t", "9..1"],
    ["upper-polygon", "1 + 1/2^s", "--outer", "s", "--inner", "t"],
    ["polytope", "1 + 1/2^s"],
    ["upper-polygon", ST_INPUT, "--outer", "s", "--inner", "s"],
    ["polygon", ST_INPUT, "-p", "2"],
    ["rank", ST_INPUT, "--matrix", "A"],
    ["rank", ST_INPUT, "--matrix", "D"],
    ["rank", ST_INPUT, "--matrix", "R", "--g", "1 + 1/2^s"],
    ["rank", "1 + 1/2^s", "--matrix", "R", "--g", ST_INPUT],
    ["prime-value", ST_INPUT, "--t", "2", "--P", "5"],
    ["prime-value", ST_INPUT, "--scan-t", "1..4"],
    ["schonemann", "--variant", "classic", "--F", ST_INPUT, "--G", ST_INPUT, "--p", "2"],
    ["oracle", "factor", ST_INPUT],
    ["oracle", "gcd", ST_INPUT, "--g", "1 + 1/2^s"],
    ["oracle", "gcd", "1 + 1/2^s", "--g", ST_INPUT],
    # a repeated variable name would print (2, 1) and (1, 2) both as 1/(2^s)
    ["analyze", '{"vars":["s","s"],"terms":[{"indices":[2,1],"coeff":1},'
                '{"indices":[1,2],"coeff":-1}]}'],
    # an option the subcommand does not read: the log-independence flag
    # outside the three that gate conditional verdicts, ASCII output outside polygon
    *([*argv, "--assume-log-independence"] for argv in VALID_ARGV if argv[0] not in GATED),
    *([*argv, "--format", "ascii"] for argv in VALID_ARGV if argv[0] != "polygon"),
]
OPTIONS_READ = [
    *VALID_ARGV,
    *([*argv, "--assume-log-independence"] for argv in VALID_ARGV if argv[0] in GATED),
    [*VALID_ARGV[1], "--format", "ascii"],
]


@pytest.mark.parametrize("argv", OPTIONS_READ, ids=[" ".join(argv) for argv in OPTIONS_READ])
def test_valid_argv_runs(capsys, argv):
    assert main(argv) in (0, 2)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize(
    "argv", [["analyze", text] for text in MALFORMED_JSON] + MISSING_ARGUMENT + BAD_ARGUMENT,
    ids=MALFORMED_JSON + [" ".join(argv) for argv in MISSING_ARGUMENT + BAD_ARGUMENT])
def test_malformed_json_exits_one_with_one_line(capsys, argv):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("command", ["polygon", "analyze"])
def test_prime_one_is_rejected_without_hanging(command):
    # valuation at p = 1 never ends: run it in a child that a timeout stops
    proc = subprocess.run(
        [sys.executable, "-m", "dpirred.cli", command, "1 + 1/2^s", "-p", "1"],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == ["error: argument --prime/-p: '1' is not a prime"]


def test_oversized_segment_box_is_rejected_without_hanging():
    # about 10^10 (x, y) pairs: run it in a child that a timeout stops
    argv = ["oracle", "segment", "--x1", "2", "--y1", "0", "--x2", "100000", "--y2", "100000"]
    proc = subprocess.run([sys.executable, "-m", "dpirred.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


def test_scan_range_past_the_cap_is_rejected_without_hanging():
    # 10^8 values of f(-t), each larger than the last: run it in a child that
    # a timeout stops
    argv = ["prime-value", "-1 + 1/4^s", "--scan-t=1..100000000"]
    proc = subprocess.run([sys.executable, "-m", "dpirred.cli", *argv],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: argument --scan-t: scan range 1..100000000 is past the cap")


@pytest.mark.parametrize("command", ["analyze", "prime-value"])
def test_scan_range_cap_bounds_width_and_top(command, capsys):
    from dpirred.primevalue import SCAN_T_CAP

    # the input gets its verdict before any scan: only the range is judged
    for bad in (f"1..{SCAN_T_CAP + 1}", f"{-SCAN_T_CAP}..0"):
        assert main([command, "1 + 1/2^s", f"--scan-t={bad}"]) == 1
        assert capsys.readouterr().err.startswith("error: argument --scan-t: scan range ")
    assert main([command, "-1 + 1/4^s", "--scan-t", f"{SCAN_T_CAP}..{SCAN_T_CAP}"]) in (0, 2)
    assert main([command, "-1 + 1/4^s", "--scan-t", f"1..{SCAN_T_CAP}"]) in (0, 2)


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: dpirred analyze")


def test_no_environment_knobs():
    # every setting of the package is a module constant, never read from
    # the environment
    src = Path(__file__).resolve().parent.parent / "src" / "dpirred"
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        assert "os.environ" not in text and "getenv" not in text, path.name


@pytest.mark.parametrize("text", ["1/5^s", "3/5^s", "1/6^s"])
def test_single_term_agrees_with_oracle(capsys, text):
    from dpirred.core import DirichletPoly
    from dpirred.oracle import FACTORED, brute_force_factor

    code, out = run_cli(capsys, "analyze", text, "--format", "json")
    assert code == 0
    obj = json.loads(out)
    expected = "reducible" if brute_force_factor(DirichletPoly.parse(text)).status == FACTORED \
        else "irreducible"
    assert obj["verdict"] == expected
    if expected == "reducible":
        cert = obj["reports"][0]["certificate"]
        product = DirichletPoly.parse(cert["g"]) * DirichletPoly.parse(cert["h"])
        assert product == DirichletPoly.parse(text).normalize()[1]
