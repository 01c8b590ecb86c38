import json

import numpy as np
import pytest

from conftest import random_contraction
from ncdbr.cli import main

UNITARY = [[[0.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]


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


def test_kernel_psd_command(contraction_file, capsys):
    code, report = run(
        ["kernel-psd", "--input", contraction_file, "--points", "4", "--radius", "0.5"], capsys
    )
    assert code == 0
    assert report["verdicts"]["kernel_psd"]
    assert all(p["min_eig"] > -1e-9 for p in report["results"]["points"])


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
