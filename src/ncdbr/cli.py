"""Batch command-line front end.

Each command reads JSON inputs, runs seeded experiments over sampled
ball points, and writes a JSON report with residuals and verdicts.

Exit codes:
    0  every verdict passed
    1  a verdict failed
    2  malformed or invalid input, or a typed NcdbrError
    3  any other exception, reported on one stderr line as
       "internal error: <Type>: <message>"
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .charfn import char_fn, frostman_shift, popescu_char, weak_coincidence_fit
from .errors import NcdbrError
from .fock import model_verify
from .freepoly import eval_poly, format_poly, parse_poly
from .kernels import cp_check
from .ncspace import MatrixTuple, sample_ball_point
from .rowcontraction import (
    RowContraction,
    canonical_frames,
    cnc_rank,
    defect_point,
    iso_pure_decompose,
    reconstruct,
)

# the gate on model-verify's truncated residuals, and the largest N it
# tries when --max-len is absent
MODEL_GATE = 1e-3
MAX_FOCK_N = 1024


def _matrix_to_json(M):
    M = np.asarray(M, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _matrix_from_json(data):
    return np.array(
        [[complex(entry[0], entry[1]) for entry in row] for row in data], dtype=complex
    )


def _load_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _digest(obj):
    canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_tuple(path):
    data = _load_json(path)
    mats = [_matrix_from_json(m) for m in data["matrices"]]
    Z = MatrixTuple(tuple(mats))
    if Z.d != data.get("d", Z.d) or Z.n != data.get("n", Z.n):
        raise ValueError("declared (d, n) disagree with the matrix shapes")
    return Z, _digest(data)


def load_contraction(path):
    data = _load_json(path)
    ops = [_matrix_from_json(m) for m in data["ops"]]
    T = RowContraction(tuple(ops))
    if T.d != data.get("d", T.d) or T.m != data.get("m", T.m):
        raise ValueError("declared (d, m) disagree with the operator shapes")
    return T, _digest(data)


def _points(d, count, radius, seed):
    out = []
    for k in range(count):
        level = 1 + (k % 2)
        out.append(sample_ball_point(d, level, radius, seed + 1000 * k))
    return out


def cmd_cnc_check(args):
    T, digest = load_contraction(args.input)
    rep = cnc_rank(T)
    report = {"dim": rep.dim, "is_cnc": rep.is_cnc, "stabilized_at": rep.stabilized_at}
    return digest, report, {"informational": True}


def cmd_charfn(args):
    T, digest = load_contraction(args.input)
    B = char_fn(T)
    delta = defect_point(T)
    zero_gap = float(np.linalg.norm(B.at_zero() - delta, 2))
    results = []
    max_norm = 0.0
    for k, Z in enumerate(_points(T.d, args.points, args.radius, args.seed)):
        norm = float(np.linalg.norm(B(Z), 2))
        max_norm = max(max_norm, norm)
        results.append({"point": k, "level": Z.n, "norm": norm})
    verdicts = {
        "value_at_zero_is_defect_point": zero_gap <= 1e-10,
        "contractive": max_norm <= 1.0 + 1e-8,
    }
    report = {
        "defect_point_singular_values": [
            float(s) for s in np.linalg.svd(delta, compute_uv=False)
        ],
        "value_at_zero_gap": zero_gap,
        "points": results,
        "max_norm": max_norm,
    }
    return digest, report, verdicts


def cmd_compare_popescu(args):
    T, digest = load_contraction(args.input)
    fit = _points(T.d, args.points, args.radius, args.seed)
    holdout = _points(T.d, max(3, args.points // 2), args.radius, args.seed + 77)
    _, _, residual, verdict = weak_coincidence_fit(
        char_fn(T), popescu_char(T), fit, holdout, tol=args.tol
    )
    report = {"residual": residual, "fit_points": len(fit), "holdout_points": len(holdout)}
    return digest, report, {"weak_coincidence": verdict}


def cmd_kernel_psd(args):
    T, digest = load_contraction(args.input)
    B = char_fn(T)
    results = []
    all_psd = True
    for k, Z in enumerate(_points(T.d, args.points, args.radius, args.seed)):
        min_eig, psd = cp_check(B, Z)
        all_psd = all_psd and psd
        results.append({"point": k, "level": Z.n, "min_eig": min_eig, "psd": psd})
    return digest, {"points": results}, {"kernel_psd": all_psd}


def cmd_frostman(args):
    T, digest = load_contraction(args.input)
    B = char_fn(T)
    shifted = frostman_shift(B, B.at_zero())
    worst = 0.0
    for Z in _points(T.d, args.points, args.radius, args.seed):
        worst = max(worst, float(np.linalg.norm(B(Z) - shifted(Z), 2)))
    verdict = worst <= max(args.tol, 1e-9)
    return digest, {"fixed_point_residual": worst}, {"frostman_fixed_point": verdict}


def cmd_roundtrip(args):
    T, digest = load_contraction(args.input)
    V = iso_pure_decompose(T).V
    frames = canonical_frames(V)
    p = frames.gamma0.shape[1]
    q = frames.gammaInf.shape[1]
    rng = np.random.default_rng(args.seed)
    delta = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    if delta.size:
        delta *= 0.7 / max(np.linalg.norm(delta, 2), 1e-300)
    T2 = reconstruct(V, delta)
    residual = float(np.linalg.norm(defect_point(T2) - delta, 2)) if delta.size else 0.0
    report = {"delta_shape": [p, q], "roundtrip_residual": residual}
    return digest, report, {"defect_point_roundtrip": residual <= 1e-10}


def cmd_model_verify(args):
    """model_verify at N = --max-len when given, which must be at least the
    stabilized_at of cnc-check.  Otherwise N starts at max(1, m - 1), past
    stabilized_at for every CNC T, and doubles until the worst residual
    meets the gate or N reaches MAX_FOCK_N."""
    T, digest = load_contraction(args.input)
    N = max(1, T.m - 1) if args.max_len is None else args.max_len
    while True:
        report = model_verify(T, N, seed=args.seed)
        worst = max(
            report["frame_residual"],
            report["intertwine_residual"],
            report["kernel_identity_residual"],
        )
        if worst <= MODEL_GATE or args.max_len is not None or N >= MAX_FOCK_N:
            break
        N = min(2 * N, MAX_FOCK_N)
    # truncation-limited sanity threshold, not the acceptance tolerance
    return digest, report, {"model_residuals_small": worst <= MODEL_GATE}


def cmd_poly_eval(args):
    Z, digest = load_tuple(args.input)
    ast = parse_poly(args.expr)
    value = eval_poly(ast, Z)
    report = {
        "normal_form": format_poly(ast),
        "value": _matrix_to_json(value),
    }
    return digest, report, {"evaluated": True}


# every option but --input and --out, with its argparse settings
OPTIONS = {
    "points": {"type": int, "default": 10},
    "radius": {"type": float, "default": 0.7},
    "seed": {"type": int, "default": 42},
    "max_len": {"type": int, "default": None},
    "tol": {"type": float, "default": None},
    "expr": {"required": True},
}

# each command and the options it reads beyond --input and --out
_SAMPLED = ("points", "radius", "seed")
COMMANDS = {
    "cnc-check": (cmd_cnc_check, ()),
    "charfn": (cmd_charfn, _SAMPLED),
    "compare-popescu": (cmd_compare_popescu, _SAMPLED + ("tol",)),
    "kernel-psd": (cmd_kernel_psd, _SAMPLED),
    "frostman": (cmd_frostman, _SAMPLED + ("tol",)),
    "roundtrip": (cmd_roundtrip, ("seed",)),
    "model-verify": (cmd_model_verify, ("seed", "max_len")),
    "poly-eval": (cmd_poly_eval, ("expr",)),
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncdbr", description="Batch experiments for the NC model toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, options) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--input", required=True)
        for option in options:
            p.add_argument("--" + option.replace("_", "-"), **OPTIONS[option])
        p.add_argument("--out", default=None)
    return parser


def _check_args(args):
    """Take --tol from NCDBR_TOL (default 1e-8) when the command reads a
    tolerance and none is given, and reject a tolerance that is not finite
    and positive and a point count below 1, with which no verdict would
    check anything."""
    if "tol" in vars(args):
        if args.tol is None:
            text = os.environ.get("NCDBR_TOL", "1e-8")
            try:
                args.tol = float(text)
            except ValueError:
                raise ValueError("NCDBR_TOL=%r is not a number" % text) from None
        if not (math.isfinite(args.tol) and args.tol > 0):
            raise ValueError("tolerance must be finite and positive, got %r" % args.tol)
    if "points" in vars(args) and args.points < 1:
        raise ValueError("--points must be at least 1, got %d" % args.points)


def main(argv=None):
    args = build_parser().parse_args(argv)
    command, options = COMMANDS[args.command]
    start = time.monotonic()
    try:
        _check_args(args)
        digest, results, verdicts = command(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, NcdbrError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except Exception as exc:
        print("internal error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    report = {
        "command": args.command,
        "inputs": {"path": args.input, "sha256": digest},
        "params": {name: getattr(args, name) for name in options},
        "results": results,
        "verdicts": verdicts,
        "wall_time_ms": round(1000.0 * (time.monotonic() - start), 3),
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if all(verdicts.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
