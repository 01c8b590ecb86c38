import argparse
import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import SMALL_DEFECTS, random_contraction, rotated_defect
import ncdbr.cli as cli_module
from ncdbr.cli import COMMANDS, build_parser, main

UNITARY = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "bench", "fixtures")


def matrix_json(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(M)]


@pytest.fixture
def contraction_file(tmp_path):
    T = random_contraction(3, 2, 3)
    path = tmp_path / "T.json"
    path.write_text(json.dumps({"d": 2, "m": 3, "ops": [matrix_json(op) for op in T.ops]}))
    return str(path)


@pytest.fixture
def scalar_file(tmp_path):
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"ops": [matrix_json(np.array([[0.5]]))]}))
    return str(path)


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


def test_cnc_check(contraction_file, capsys):
    code, report = run(["cnc-check", "--input", contraction_file], capsys)
    assert code == 0
    assert report["results"]["is_cnc"] and report["results"]["dim"] == 3
    assert len(report["inputs"]["sha256"]) == 64


def test_cnc_check_reports_non_cnc(tmp_path, capsys):
    path = tmp_path / "U.json"
    path.write_text(json.dumps({"ops": [UNITARY]}))
    code, report = run(["cnc-check", "--input", str(path)], capsys)
    # informational command still exits 0, the verdict is in the report
    assert code == 0
    assert report["results"]["dim"] == 0 and not report["results"]["is_cnc"]


def test_charfn_command(scalar_file, capsys):
    code, report = run(["charfn", "--input", scalar_file, "--points", "5"], capsys)
    assert code == 0
    assert report["verdicts"]["value_at_zero_is_defect_point"]
    assert report["verdicts"]["contractive"]
    assert abs(report["results"]["defect_point_singular_values"][0] - 0.5) < 1e-10
    assert len(report["results"]["points"]) == 5


def test_compare_popescu_command(contraction_file, capsys):
    code, report = run(
        ["compare-popescu", "--input", contraction_file, "--points", "6", "--radius", "0.5"],
        capsys,
    )
    assert code == 0
    assert report["verdicts"]["weak_coincidence"]
    assert report["results"]["residual"] < 1e-8


@pytest.mark.parametrize("d", [1, 2, 3])
def test_compare_popescu_one_point(d, capsys):
    path = os.path.join(FIXTURES, "contraction_d%d.json" % d)
    code, report = run(["compare-popescu", "--input", path, "--points", "1"], capsys)
    assert code == 0
    assert report["verdicts"]["weak_coincidence"]
    assert report["results"]["residual"] < 1e-8


def test_charfn_process_never_imports_scipy():
    # a fresh process, so that no other test's imports count; -X importtime
    # logs every module that enters sys.modules
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    path = os.path.join(FIXTURES, "contraction_d2.json")
    run = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ncdbr.cli", "charfn", "--input", path],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout)["command"] == "charfn"
    imported = [
        line.split("|")[-1].strip()
        for line in run.stderr.splitlines()
        if line.startswith("import time:")
    ]
    assert "ncdbr.charfn" in imported
    assert not [name for name in imported if name.split(".")[0] == "scipy"]


def test_charfn_outside_ball_exits_two(scalar_file, capsys):
    assert main(["charfn", "--input", scalar_file, "--radius", "1.5"]) == 2
    assert "input error" in capsys.readouterr().err


def test_kernel_psd_command(contraction_file, capsys):
    code, report = run(
        ["kernel-psd", "--input", contraction_file, "--points", "4", "--radius", "0.5"], capsys
    )
    assert code == 0
    assert report["verdicts"]["kernel_psd"]
    assert all(p["min_eig"] > -1e-9 for p in report["results"]["points"])


@pytest.mark.parametrize(
    "ops",
    [[[[0.0, 1.0], [1.0, 0.0]]], [np.eye(3) / np.sqrt(2)] * 2],
    ids=["flip", "halves"],
)
def test_kernel_psd_on_coisometry(ops, tmp_path, capsys):
    # B_T has output dimension 0: every kernel is empty and PSD
    path = tmp_path / "V.json"
    path.write_text(json.dumps({"ops": [matrix_json(op) for op in ops]}))
    code, report = run(["kernel-psd", "--input", str(path), "--points", "3"], capsys)
    assert code == 0
    assert report["verdicts"]["kernel_psd"]
    assert all(p["min_eig"] is None and p["psd"] for p in report["results"]["points"])


def test_frostman_command(contraction_file, capsys):
    code, report = run(
        ["frostman", "--input", contraction_file, "--points", "4", "--radius", "0.5"], capsys
    )
    assert code == 0
    assert report["results"]["fixed_point_residual"] <= 1e-9


def test_roundtrip_command(contraction_file, capsys):
    code, report = run(["roundtrip", "--input", contraction_file], capsys)
    assert code == 0
    assert report["results"]["roundtrip_residual"] <= 1e-10


def test_model_verify_command(scalar_file, capsys):
    code, report = run(["model-verify", "--input", scalar_file, "--max-len", "8"], capsys)
    assert code == 0
    assert report["results"]["N"] == 8
    assert report["results"]["frame_residual"] <= 1e-3


def test_model_verify_nilpotent_jordan(tmp_path, capsys):
    # J_6 has p = 1 and J^6 = 0: the default N = m - 1 = 5 is exact, N = 3 too short
    path = tmp_path / "J6.json"
    path.write_text(json.dumps({"ops": [matrix_json(np.eye(6, k=-1))]}))
    code, report = run(["model-verify", "--input", str(path)], capsys)
    assert code == 0
    assert report["results"]["rank_O_N"] == 6
    code, _ = run(["model-verify", "--input", str(path), "--max-len", "3"], capsys)
    assert code == 2


def test_model_verify_rejects_negative_max_len(scalar_file, capsys):
    # stabilized_at >= 0, so a negative N is input error and gets no report
    code = main(["model-verify", "--input", scalar_file, "--max-len", "-3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "N = -3 < 0" in captured.err


@pytest.mark.parametrize("delta, theta", SMALL_DEFECTS)
def test_default_model_verify_starts_past_the_span_floor(delta, theta, tmp_path, capsys):
    # stabilized_at = 1 = max(1, m - 1) for these T, whose G_1 has an
    # eigenvalue below the PSD cutoff: the first N must not raise.  The
    # residuals still miss the gate at MAX_FOCK_N, so the run exits 1
    T = rotated_defect(delta, theta)
    path = tmp_path / "T.json"
    path.write_text(json.dumps({"ops": [matrix_json(op) for op in T.ops]}))
    code, report = run(["model-verify", "--input", str(path)], capsys)
    assert code == 1
    assert report["results"]["N"] == cli_module.MAX_FOCK_N
    assert report["results"]["rank_O_N"] == 2


def test_poly_eval_command(tmp_path, capsys):
    Z = {"d": 2, "n": 1, "matrices": [matrix_json([[0.2]]), matrix_json([[0.3]])]}
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(Z))
    code, report = run(
        ["poly-eval", "--input", str(path), "--expr", "z1*z2 - z2*z1 + 2"], capsys
    )
    assert code == 0
    assert report["results"]["value"][0][0] == [2.0, 0.0]
    assert "z1*z2" in report["results"]["normal_form"]


def test_output_file_and_byte_stability(contraction_file, tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["charfn", "--input", contraction_file, "--out", str(out1)]) == 0
    assert main(["charfn", "--input", contraction_file, "--out", str(out2)]) == 0
    strip = lambda p: "\n".join(
        line for line in p.read_text().splitlines() if "wall_time_ms" not in line
    )
    assert strip(out1) == strip(out2)


def test_exit_code_one_on_verdict_failure(tmp_path, capsys, monkeypatch):
    # a tight NCDBR_TOL makes the coincidence verdict fail
    T = random_contraction(3, 2, 3)
    path = tmp_path / "T.json"
    path.write_text(json.dumps({"ops": [matrix_json(op) for op in T.ops]}))
    monkeypatch.setenv("NCDBR_TOL", "1e-300")
    code = main(["compare-popescu", "--input", str(path), "--points", "6"])
    capsys.readouterr()
    assert code == 1


def test_exit_code_two_on_bad_input(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["cnc-check", "--input", missing]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["cnc-check", "--input", str(bad)]) == 2
    wrong = tmp_path / "wrong.json"
    wrong.write_text(json.dumps({"d": 5, "ops": [matrix_json(np.eye(2) * 0.1)]}))
    assert main(["cnc-check", "--input", str(wrong)]) == 2
    err = capsys.readouterr().err
    assert "input error" in err


def test_unexpected_exception_exits_three(scalar_file, capsys, monkeypatch):
    # an exception outside the typed set is the tool's fault, not a verdict
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setitem(COMMANDS, "cnc-check", (broken, ()))
    assert main(["cnc-check", "--input", scalar_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: boom\n"


def test_non_finite_entry_exits_two(tmp_path, capsys):
    # json writes Infinity and NaN, and Python's json reads them back
    T = tmp_path / "T.json"
    T.write_text(json.dumps({"ops": [matrix_json([[0.1, np.inf], [0.0, 0.1]])]}))
    assert main(["cnc-check", "--input", str(T)]) == 2
    Z = tmp_path / "Z.json"
    Z.write_text(json.dumps({"matrices": [matrix_json([[np.nan]])]}))
    assert main(["poly-eval", "--input", str(Z), "--expr", "z1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("NaN or Inf") == 2


def test_poly_eval_bad_expr_exits_two(tmp_path, capsys):
    Z = {"matrices": [matrix_json([[0.2]])]}
    path = tmp_path / "Z.json"
    path.write_text(json.dumps(Z))
    assert main(["poly-eval", "--input", str(path), "--expr", "z1 +"]) == 2
    assert main(["poly-eval", "--input", str(path), "--expr", "z9"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1e-8"])
def test_bad_tolerance_exits_two(contraction_file, capsys, monkeypatch, value):
    # exit 1 would read as a failed verdict
    monkeypatch.setenv("NCDBR_TOL", value)
    assert main(["compare-popescu", "--input", contraction_file]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err
    if value != "abc":
        # argparse itself rejects a non-number flag value with exit 2
        monkeypatch.delenv("NCDBR_TOL")
        assert main(["frostman", "--input", contraction_file, "--tol=" + value]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "input error" in captured.err


@pytest.mark.parametrize("command", ["charfn", "kernel-psd", "frostman"])
@pytest.mark.parametrize("points", ["0", "-3"])
def test_no_points_exits_two(contraction_file, capsys, command, points):
    # with no points every verdict would pass having checked nothing
    assert main([command, "--input", contraction_file, "--points", points]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "input error" in captured.err


def _declared_options(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {action.dest for action in sub.choices[command]._actions if action.dest != "help"}


def test_commands_declare_exactly_the_options_they_read():
    # an option a command does not read would be ignored without a word;
    # main reads --out for every command
    with open(cli_module.__file__, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for command, (fn, _) in COMMANDS.items():
        read = {
            node.attr
            for node in ast.walk(functions[fn.__name__])
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "args"
        }
        assert _declared_options(command) == read | {"out"}, command


def test_option_a_command_does_not_read_exits_two(scalar_file, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["charfn", "--input", scalar_file, "--max-len", "3"])
    assert exc.value.code == 2
    assert "--max-len" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 2, 3])
def test_default_model_verify_meets_gate_on_grid(d, tmp_path, capsys):
    # N doubles from m - 1 until the residuals meet the 1e-3 gate
    for m in (2, 3, 4):
        for seed in (1, 2, 3):
            T = random_contraction(seed, d, m)
            path = tmp_path / "T.json"
            path.write_text(json.dumps({"ops": [matrix_json(op) for op in T.ops]}))
            code, report = run(["model-verify", "--input", str(path)], capsys)
            assert code == 0, (m, seed)
            assert report["verdicts"]["model_residuals_small"]
            assert report["results"]["rank_O_N"] == m
            assert report["params"] == {"seed": 42, "max_len": None}


@pytest.mark.parametrize("m", range(4, 13))
def test_default_model_verify_on_jordan_blocks(m, tmp_path, capsys):
    # J_m is nilpotent of order m, so the first N = m - 1 is exact
    path = tmp_path / "J.json"
    path.write_text(json.dumps({"ops": [matrix_json(np.eye(m, k=-1))]}))
    code, report = run(["model-verify", "--input", str(path)], capsys)
    assert code == 0
    assert report["verdicts"]["model_residuals_small"]
    assert report["results"]["N"] == m - 1
    assert report["results"]["rank_O_N"] == m
