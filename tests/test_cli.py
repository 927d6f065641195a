import json
import os
import subprocess
import sys
import time

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


def test_rank_subcommand(capsys):
    code, out = run_cli(
        capsys, "rank", '{"ring":"Fp","p":2,"terms":[[1,1],[4,1]]}',
        "--matrix", "B", "--p", "2", "--k", "2", "--format", "json")
    assert code == 0
    obj = json.loads(out)
    assert obj["criterion"]["verdict"] == "not-square-free"


def test_file_input(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"ring":"Z","terms":[[1,1],[2,1],[3,1],[4,1]]}')
    code, out = run_cli(capsys, "analyze", f"@{path}", "--format", "json")
    assert code == 0


def test_env_precision_cap(capsys, monkeypatch):
    monkeypatch.setenv("DPIRRED_PRECISION_CAP_BITS", "64")
    from dpirred.certlog import precision_cap_bits

    assert precision_cap_bits() == 64
    monkeypatch.delenv("DPIRRED_PRECISION_CAP_BITS")
    assert precision_cap_bits() == 4096


def test_console_script_entry():
    proc = subprocess.run(
        [sys.executable, "-m", "dpirred.cli", "analyze", "1 + 1/2^s"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert "irreducible" in proc.stdout


@pytest.mark.parametrize("text", [
    '{"ring":"Q","terms":[[1,[1,0]],[2,1]]}',
    '{"ring":"Fp","terms":[[1,1]]}',
    '{"vars":["s","t"],"terms":[{"indices":[1,1],"coeff":[1,0]},{"indices":[2,3],"coeff":1}]}',
    '{"vars":["s","t"],"terms":[{"indices":[2,3]}]}',
    '{"terms":[[1,1]],"vars":"st"}',
])
def test_malformed_json_exits_one_with_one_line(capsys, text):
    assert main(["analyze", text]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ")


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
