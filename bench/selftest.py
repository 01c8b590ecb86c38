"""Self-tests of the benchmark: every checker rejects a deliberately wrong
output and accepts a right one, the fixtures match their generator, and
BENCHMARK.json names exactly the metrics the benchmark prints.

    python3 bench/selftest.py        # from the root of a checkout

It is not named test_*.py, so the repository's own test run does not
collect it.
"""

import json
import os
import subprocess
import sys
import types

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import ncdbr  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from fixtures import make_fixtures  # noqa: E402


def test_coincidence_checker():
    fit = [wl.ball_point(1, 1 + k % 2, 0.5, 100 + k) for k in range(6)]
    hold = [wl.ball_point(1, 1 + k % 2, 0.5, 900 + k) for k in range(4)]
    rng = np.random.default_rng(5)
    T, T2 = wl.contraction(rng, 1, 2, 0.9), wl.contraction(rng, 1, 2, 0.9)
    good = ncdbr.weak_coincidence_fit(ncdbr.char_fn(T), ncdbr.popescu_char(T), fit, hold)
    assert wl.check_fit("popescu", good) is None
    negative = ncdbr.weak_coincidence_fit(ncdbr.char_fn(T), ncdbr.char_fn(T2), fit, hold)
    assert wl.check_fit("negative", negative) is None
    # a negative pair reported as coinciding
    assert wl.check_fit("negative", (good[0], good[1], 1e-15, True)) is not None
    # a positive pair whose fitted maps are not unitary
    assert wl.check_fit("popescu", (2 * good[0], good[1], 1e-15, True)) is not None


def test_model_checker():
    r, N = wl.SCALAR_R, 6
    report = ncdbr.model_verify(ncdbr.RowContraction((np.array([[r]]),)), N)
    assert wl.check_model(1, report) is None
    assert wl.check_scalar(r, report) is None
    # the r^N rate in place of the r^(2N) one
    wrong = dict(report, intertwine_residual=r ** (N + 1) * (1 - r * r) / (1 - r ** (N + 2)))
    assert wl.check_scalar(r, wrong) is not None
    assert wl.check_model(2, report) is not None
    assert wl.check_model(1, dict(report, kernel_identity_residual=2e-3)) is not None
    later = ncdbr.model_verify(ncdbr.RowContraction((np.array([[r]]),)), N + 1)
    assert wl.check_model_step(report, later) is None
    assert wl.check_model_step(later, report) is not None


def test_sampling_checker():
    rng = np.random.default_rng(7)
    B = ncdbr.char_fn(wl.contraction(rng, 2, 3, 0.9))
    other = ncdbr.char_fn(wl.contraction(rng, 2, 3, 0.9))
    Z, W = wl.ball_point(2, 2, 0.7, 1), wl.ball_point(2, 3, 0.7, 2)
    S = np.eye(2) + 0.25 * np.array([[0.3, 1j], [-0.5, 0.2]])
    points = {
        "Z": Z,
        "W": W,
        "sum": ncdbr.direct_sum(Z, W),
        "sim": ncdbr.MatrixTuple(tuple(np.linalg.solve(S, c @ S) for c in Z.coords)),
    }
    values = {w: B(P) for w, P in points.items()}
    assert wl.check_values(values, S, B.output_dim, B.input_dim) is None
    # a value taken from a different contraction
    for where in ("sum", "sim"):
        wrong = dict(values, **{where: other(points[where])})
        assert wl.check_values(wrong, S, B.output_dim, B.input_dim) is not None
    shifted = ncdbr.frostman_shift(B, B.at_zero())
    assert wl.check_frostman(shifted(Z), values["Z"]) is None
    assert wl.check_frostman(other(Z), values["Z"]) is not None
    assert wl.check_cp(ncdbr.cp_check(B, Z)) is None
    assert wl.check_cp((-1e-6, False)) is not None


def test_cli_checker():
    fixture = os.path.join(wl.FIXTURES, wl.POINT_FIXTURE)
    proc = subprocess.run(
        [sys.executable, "-m", "ncdbr.cli", "poly-eval", "--input", fixture, "--expr", wl.POLY_EXPR],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
        check=False,
    )
    digest, value = wl.fixture_digest(fixture), wl.poly_value(fixture)
    assert wl.check_cli("poly-eval", proc.returncode, proc.stdout, digest, value) is None
    # a tampered inputs.sha256
    report = json.loads(proc.stdout)
    report["inputs"]["sha256"] = "0" * 64
    assert wl.check_cli("poly-eval", 0, json.dumps(report), digest, value) is not None
    assert wl.check_cli("poly-eval", 0, proc.stdout, digest, value + 1e-6) is not None
    assert wl.check_cli("poly-eval", 1, proc.stdout, digest, value) is not None


def test_fixtures_match_generator():
    assert make_fixtures.main(["--check"]) == 0


def test_benchmark_json_names_the_printed_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    import run

    stub = types.SimpleNamespace(peak_rss_mb=lambda: 1.0)
    printed = run.end_to_end({"times": [1.0], "busy": 1.0}, stub, [1.0])
    assert [m["name"] for m in spec["end_to_end"]] == list(printed)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in printed.values()]
    layers = tracing.per_layer_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def main():
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print("FAIL %s %s" % (name, exc))
        else:
            print("ok   %s" % name)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
