"""Seeded generator of the committed `cli` workload fixtures.

    python3 bench/fixtures/make_fixtures.py          # rewrite the fixtures
    python3 bench/fixtures/make_fixtures.py --check  # regenerate in memory and
                                                     # compare byte for byte

The fixtures are three row contractions of row norm 0.5, with
(d, m) = (1, 4), (2, 3), (3, 2), and one level-3 point with d = 2 for
`poly-eval`.  They are written in the JSON layout that `ncdbr.cli` reads:
complex entries as [real, imag] pairs.
"""

import argparse
import json
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SEED = 20260301
ROW_NORM = 0.5
SHAPES = ((1, 4), (2, 3), (3, 2))
POINT_D, POINT_N, POINT_RADIUS = 2, 3, 0.7


def _matrix(M):
    return [[[float(v.real), float(v.imag)] for v in row] for row in M]


def _gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def fixtures():
    """File name -> exact file text, generated from SEED."""
    rng = np.random.default_rng(SEED)
    out = {}
    for d, m in SHAPES:
        row = _gaussian(rng, m, m * d)
        row *= ROW_NORM / np.linalg.norm(row, 2)
        ops = [_matrix(row[:, j * m : (j + 1) * m]) for j in range(d)]
        out["contraction_d%d.json" % d] = {"d": d, "m": m, "ops": ops}
    coords = [_gaussian(rng, POINT_N, POINT_N) for _ in range(POINT_D)]
    scale = POINT_RADIUS / np.linalg.norm(np.hstack(coords), 2)
    out["point_d2.json"] = {
        "d": POINT_D,
        "n": POINT_N,
        "matrices": [_matrix(c * scale) for c in coords],
    }
    return {name: json.dumps(obj, indent=1) + "\n" for name, obj in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args(argv)
    stale = []
    for name, text in fixtures().items():
        path = os.path.join(HERE, name)
        if args.check:
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    same = fh.read() == text
            except OSError:
                same = False
            if not same:
                stale.append(name)
        else:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
    if stale:
        print("fixtures differ from their generator: %s" % ", ".join(stale), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
