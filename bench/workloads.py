"""The four workloads: inputs made from the seed, one round of operations,
and the checkers of their outputs.

Every workload object has
  * `warm_up()`, run once in set-up before timing;
  * `round()`, the list of (label, operation) pairs of one round; every
    round of a run has the same operations, so a run of whole rounds has a
    fixed mix;
  * `check(results)`, which takes the [(label, output)] of one round and
    returns the list of failed checks;
  * `peak_rss_mb()`.

The program is called through the `ncdbr` package attributes at call time,
so that the traced run sees the calls the benchmark makes.  The checkers are
plain functions of the outputs, so the self-tests can feed them wrong ones.
"""

import collections
import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

import ncdbr

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")


# ---------------------------------------------------------------- inputs


def contraction(rng, d, m, norm):
    """Row contraction with a complex Gaussian row scaled to the row norm."""
    row = rng.standard_normal((m, m * d)) + 1j * rng.standard_normal((m, m * d))
    row *= norm / np.linalg.norm(row, 2)
    return ncdbr.RowContraction(tuple(row[:, j * m : (j + 1) * m] for j in range(d)))


def unitary(rng, m):
    Q, R = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))
    return Q * (np.diag(R) / np.abs(np.diag(R)))


def ball_point(d, n, radius, seed):
    """Complex Gaussian tuple scaled to the row norm `radius`; the same
    construction as the test suite's points."""
    rng = np.random.default_rng(seed)
    coords = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        for _ in range(d)
    ]
    scale = radius / np.linalg.norm(np.hstack(coords), 2)
    return ncdbr.MatrixTuple(tuple(c * scale for c in coords))


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ------------------------------------------------------------ coincidence

KINDS = ("popescu", "unitary", "negative")


def check_fit(kind, result):
    """Positive pairs coincide with unitary U_out, U_in; negative ones do not."""
    U_out, U_in, residual, verdict = result
    if kind == "negative":
        if verdict or not residual >= 1e-3:
            return "negative pair coincides: verdict %s, residual %.3e" % (verdict, residual)
        return None
    if not verdict or not residual <= 1e-8:
        return "%s pair: verdict %s, residual %.3e" % (kind, verdict, residual)
    for U in (U_out, U_in):
        U = np.asarray(U)
        gap = np.linalg.norm(U.conj().T @ U - np.eye(U.shape[1]), 2) if U.size else 0.0
        if not gap <= 1e-10:
            return "%s pair: fitted map is %.3e from unitary" % (kind, gap)
    return None


class Coincidence:
    """One `weak_coincidence_fit` per operation on freshly built samplers,
    over every (d, m) with d = 1..3 and m = 2..6 at row norm 0.9.  The pair
    kind is (d + m) mod 3, which gives each kind five shapes spread over
    d and m."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.cases = []
        for d in (1, 2, 3):
            fit = [ball_point(d, 1 + k % 2, 0.5, 100 + k) for k in range(6)]
            hold = [ball_point(d, 1 + k % 2, 0.5, 900 + k) for k in range(4)]
            for m in range(2, 7):
                kind = KINDS[(d + m) % 3]
                T = contraction(rng, d, m, 0.9)
                if kind == "unitary":
                    U = unitary(rng, m)
                    other = ncdbr.RowContraction(tuple(U @ Tj @ U.conj().T for Tj in T.ops))
                else:
                    other = contraction(rng, d, m, 0.9)
                self.cases.append((kind, d, m, T, other, fit, hold))

    @staticmethod
    def _fit(kind, T, other, fit, hold):
        B2 = ncdbr.popescu_char(T) if kind == "popescu" else ncdbr.char_fn(other)
        return ncdbr.weak_coincidence_fit(ncdbr.char_fn(T), B2, fit, hold)

    def warm_up(self):
        kind, d, m, T, other, fit, hold = self.cases[0]
        error = check_fit(kind, self._fit(kind, T, other, fit, hold))
        return [error] if error else []

    def round(self):
        return [(c[:3], lambda c=c: self._fit(c[0], *c[3:])) for c in self.cases]

    def check(self, results):
        errors = []
        for (kind, d, m), result in results:
            error = check_fit(kind, result)
            if error:
                errors.append("coincidence d=%d m=%d: %s" % (d, m, error))
        return errors

    def peak_rss_mb(self):
        return rss_mb()


# ------------------------------------------------------------------ model

RESIDUALS = ("frame_residual", "intertwine_residual", "kernel_identity_residual")
SCALAR_R = 0.5


def scalar_rate(r, N):
    """Closed-form intertwining residual of T = r at truncation N."""
    return r ** (2 * N + 1) * (1.0 - r * r) / (1.0 - r ** (2 * N + 2))


def check_model(m, report):
    if report["model_dim"] != m:
        return "model_dim %d, expected %d" % (report["model_dim"], m)
    worst = max(report[key] for key in RESIDUALS)
    if not worst <= 1e-3:
        return "residual %.3e above 1e-3 at N=%d" % (worst, report["N"])
    return None


def check_model_step(low, high):
    """Every residual at N+1 is below the one at N."""
    for key in RESIDUALS:
        if not high[key] < low[key]:
            return "%s does not decrease from N=%d to N=%d" % (key, low["N"], high["N"])
    return None


def check_scalar(r, report):
    exact = scalar_rate(r, report["N"])
    gap = abs(report["intertwine_residual"] - exact)
    if not gap <= exact * report["frame_residual"] + 1e-13:
        return "T=%g N=%d: intertwine residual %.6e, closed form %.6e" % (
            r,
            report["N"],
            report["intertwine_residual"],
            exact,
        )
    return None


class Model:
    """One `model_verify(T, N)` per operation at row norm 0.5: the scalar
    T = 0.5 at N = 6, 7; (d, m) = (1, 4) at N = 8, 9 and (2, 3) at N = 5, 6,
    each pair on one T; (2, 3) at N = 5 on four more T; (3, 2) at N = 5;
    (2, 2) at N = 7; and (2, 4) at N = 7, whose ambient dimension W p is
    255 * 4 = 1020.  Four calls are faster and four slower than the five
    (2, 3, 5) calls, so the median stays on those, and the round order
    spreads those five over the round."""

    SHAPES = {
        "scalar": (1, 1),
        "a": (1, 4),
        "b": (2, 3),
        "b2": (2, 3),
        "b3": (2, 3),
        "b4": (2, 3),
        "b5": (2, 3),
        "c": (3, 2),
        "d": (2, 2),
        "e": (2, 4),
    }
    ORDER = (
        ("b", 5), ("e", 7), ("a", 8), ("b2", 5), ("c", 5), ("scalar", 6), ("b3", 5),
        ("d", 7), ("a", 9), ("b4", 5), ("b", 6), ("scalar", 7), ("b5", 5),
    )

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        T = {"scalar": ncdbr.RowContraction((np.array([[SCALAR_R]]),))}
        for key, (d, m) in self.SHAPES.items():
            if key != "scalar":
                T[key] = contraction(rng, d, m, 0.5)
        self.cases = [(key, self.SHAPES[key][1], N, T[key]) for key, N in self.ORDER]

    def warm_up(self):
        report = ncdbr.model_verify(contraction(np.random.default_rng(0), 1, 2, 0.5), 4)
        error = check_model(2, report)
        return [error] if error else []

    def round(self):
        return [
            ((key, m, N), lambda T=T, N=N: ncdbr.model_verify(T, N))
            for key, m, N, T in self.cases
        ]

    def check(self, results):
        errors = []
        reports = {(key, N): report for (key, _, N), report in results}
        for (key, m, N), report in results:
            error = check_model(m, report)
            if key == "scalar" and not error:
                error = check_scalar(SCALAR_R, report)
            if not error and (key, N - 1) in reports:
                error = check_model_step(reports[(key, N - 1)], report)
            if error:
                errors.append("model %s m=%d N=%d: %s" % (key, m, N, error))
        return errors

    def peak_rss_mb(self):
        return rss_mb()


# --------------------------------------------------------------- sampling

# (level of Z, level of W); Z + W then covers the levels 2..8
LEVEL_PAIRS = ((1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4), (4, 4))
SAMPLING_SHAPES = ((1, 4), (2, 3), (3, 2))
SAMPLERS = ("char_fn", "popescu", "frostman")


def block_diag(A, B):
    out = np.zeros((A.shape[0] + B.shape[0], A.shape[1] + B.shape[1]), dtype=complex)
    out[: A.shape[0], : A.shape[1]] = A
    out[A.shape[0] :, A.shape[1] :] = B
    return out


def check_values(values, S, p, q):
    """Contractive values, B(Z + W) = B(Z) + B(W) and
    B(S^-1 Z S) = (S^-1 (x) I) B(Z) (S (x) I), in the layout with the
    level as the slow index."""
    for name, value in values.items():
        norm = np.linalg.norm(value, 2)
        if not norm <= 1.0 + 1e-8:
            return "value at %s has norm %.12f" % (name, norm)
    gap = np.linalg.norm(values["sum"] - block_diag(values["Z"], values["W"]), 2)
    if not gap <= 1e-10:
        return "direct sums not respected by %.3e" % gap
    S_inv = np.linalg.inv(S)
    expected = np.kron(S_inv, np.eye(p)) @ values["Z"] @ np.kron(S, np.eye(q))
    gap = np.linalg.norm(values["sim"] - expected, 2)
    if not gap <= 1e-10:
        return "similarities not respected by %.3e" % gap
    return None


def check_frostman(shifted, original):
    gap = np.linalg.norm(shifted - original, 2)
    if not gap <= 1e-9:
        return "Frostman fixed point misses by %.3e" % gap
    return None


def check_cp(result):
    min_eig, psd = result
    if not (psd and min_eig >= -1e-9):
        return "Choi matrix has eigenvalue %.3e (psd %s)" % (min_eig, psd)
    return None


class Sampling:
    """One sampler value, or one `cp_check`, per operation.  For each
    (d, m) in SAMPLING_SHAPES at row norm 0.9 the samplers are `char_fn(T)`,
    `popescu_char(T)` and `frostman_shift(B, B(0))`, built in set-up.  Each
    sampler is evaluated at Z, W, Z + W and S^-1 Z S for every level pair,
    at radius 0.7; `cp_check(char_fn(T), Z)` runs at every Z."""

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.shapes = []
        for d, m in SAMPLING_SHAPES:
            T = contraction(rng, d, m, 0.9)
            B = ncdbr.char_fn(T)
            samplers = {
                "char_fn": B,
                "popescu": ncdbr.popescu_char(T),
                "frostman": ncdbr.frostman_shift(B, B.at_zero()),
            }
            pairs = []
            for a, b in LEVEL_PAIRS:
                Z = ball_point(d, a, 0.7, int(rng.integers(2**31)))
                W = ball_point(d, b, 0.7, int(rng.integers(2**31)))
                G = rng.standard_normal((a, a)) + 1j * rng.standard_normal((a, a))
                S = np.eye(a) + 0.25 * G / np.linalg.norm(G, 2)
                points = {
                    "Z": Z,
                    "W": W,
                    "sum": ncdbr.direct_sum(Z, W),
                    "sim": ncdbr.MatrixTuple(tuple(np.linalg.solve(S, c @ S) for c in Z.coords)),
                }
                pairs.append((S, points))
            self.shapes.append((d, samplers, pairs))
        order = []
        for i, (d, samplers, pairs) in enumerate(self.shapes):
            for j, (S, points) in enumerate(pairs):
                order += [(i, name, j, where) for name in SAMPLERS for where in points]
                order.append((i, "cp_check", j, "Z"))
        self.ops = [(order[k], self._op(*order[k])) for k in rng.permutation(len(order))]

    def _op(self, i, name, j, where):
        samplers = self.shapes[i][1]
        Z = self.shapes[i][2][j][1][where]
        if name == "cp_check":
            return lambda: ncdbr.cp_check(samplers["char_fn"], Z)
        sampler = samplers[name]
        return lambda: sampler(Z)

    def warm_up(self):
        return self.check([(label, op()) for label, op in self.ops])

    def round(self):
        return self.ops

    def check(self, results):
        got = {label: out for label, out in results}
        errors = []
        for i, (d, samplers, pairs) in enumerate(self.shapes):
            for j, (S, points) in enumerate(pairs):
                where = "d=%d levels %s" % (d, LEVEL_PAIRS[j])
                for name in SAMPLERS:
                    values = {w: got.get((i, name, j, w)) for w in points}
                    if any(v is None for v in values.values()):
                        continue  # a failed operation, counted by the harness
                    B = samplers[name]
                    error = check_values(values, S, B.output_dim, B.input_dim)
                    if not error and name == "frostman":
                        for w in points:
                            plain = got.get((i, "char_fn", j, w))
                            if plain is not None:
                                error = error or check_frostman(values[w], plain)
                    if error:
                        errors.append("%s %s: %s" % (name, where, error))
                cp = got.get((i, "cp_check", j, "Z"))
                error = check_cp(cp) if cp is not None else None
                if error:
                    errors.append("cp_check %s: %s" % (where, error))
        return errors

    def peak_rss_mb(self):
        return rss_mb()


# -------------------------------------------------------------------- cli

CLI_COMMANDS = (
    "cnc-check",
    "charfn",
    "compare-popescu",
    "kernel-psd",
    "frostman",
    "roundtrip",
    "model-verify",
)
POLY_EXPR = "z1*z2 - 2*z2*z1 + 0.5*z1^2 + 2i*z2^3 + 3"
POINT_FIXTURE = "point_d2.json"


def fixture_digest(path):
    """sha256 of the fixture's canonical JSON: sorted keys, no spaces."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    canon = json.dumps(data, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def matrix_from_json(rows):
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=complex)


def poly_value(path):
    """POLY_EXPR evaluated at the fixture point with numpy."""
    with open(path, "r", encoding="utf-8") as fh:
        Z1, Z2 = (matrix_from_json(M) for M in json.load(fh)["matrices"])
    return Z1 @ Z2 - 2 * Z2 @ Z1 + 0.5 * Z1 @ Z1 + 2j * Z2 @ Z2 @ Z2 + 3 * np.eye(len(Z1))


def check_cli(command, rc, stdout, digest, expected_value=None):
    if rc != 0:
        return "exit code %d" % rc
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    if report.get("command") != command:
        return "report is for %r" % report.get("command")
    failed = [name for name, ok in report["verdicts"].items() if ok is not True]
    if failed or not report["verdicts"]:
        return "verdicts failed: %s" % ", ".join(failed)
    if report["inputs"]["sha256"] != digest:
        return "inputs.sha256 %s differs from the fixture digest" % report["inputs"]["sha256"]
    if expected_value is not None:
        value = matrix_from_json(report["results"]["value"])
        gap = np.linalg.norm(value - expected_value, 2)
        if not gap <= 1e-12 * max(1.0, np.linalg.norm(expected_value, 2)):
            return "poly-eval value differs from numpy by %.3e" % gap
    return None


# what one CLI process left
CliRun = collections.namedtuple("CliRun", "rc stdout stderr wall_s")


class Cli:
    """One `python -m ncdbr.cli <command>` process per operation, one at a
    time, with default flags: the seven contraction commands on each
    committed contraction fixture, and `poly-eval` on the point fixture.
    The seed only shuffles the order within a round."""

    def __init__(self, seed, root, out_dir, env):
        rng = np.random.default_rng(seed)
        self.root, self.out_dir = root, out_dir
        self.env = dict(env, PYTHONPATH=os.path.join(root, "src"))
        self.traced = False
        self.cases = []
        for name in sorted(os.listdir(FIXTURES)):
            if name.startswith("contraction_"):
                self.cases += [(command, name) for command in CLI_COMMANDS]
        self.cases.append(("poly-eval", POINT_FIXTURE))
        self.cases = [self.cases[k] for k in rng.permutation(len(self.cases))]
        self.digests = {
            name: fixture_digest(os.path.join(FIXTURES, name)) for _, name in self.cases
        }
        self.poly = poly_value(os.path.join(FIXTURES, POINT_FIXTURE))
        self.max_rss_kb = 0
        self.spans = []

    def _argv(self, command, fixture):
        args = [command, "--input", os.path.join(FIXTURES, fixture)]
        if command == "poly-eval":
            args += ["--expr", POLY_EXPR]
        if not self.traced:
            return [sys.executable, "-m", "ncdbr.cli"] + args
        spans = os.path.join(self.out_dir, "cli-spans-%d.json" % len(self.spans))
        self.spans.append(spans)
        child = os.path.join(HERE, "cli_child.py")
        return [sys.executable, "-X", "importtime", child, spans] + args

    def run(self, command, fixture):
        stdout_path = os.path.join(self.out_dir, "cli-stdout.txt")
        stderr_path = os.path.join(self.out_dir, "cli-stderr.txt")
        start = time.perf_counter()
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            proc = subprocess.Popen(
                self._argv(command, fixture),
                stdout=out,
                stderr=err,
                env=self.env,
                cwd=self.root,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        wall = time.perf_counter() - start
        with open(stdout_path, "r", encoding="utf-8") as fh:
            stdout = fh.read()
        with open(stderr_path, "r", encoding="utf-8", errors="replace") as fh:
            stderr = fh.read()
        self.max_rss_kb = max(self.max_rss_kb, usage.ru_maxrss)
        return CliRun(proc.returncode, stdout, stderr, wall)

    def warm_up(self):
        command, fixture = next(case for case in self.cases if case[0] != "poly-eval")
        run = self.run(command, fixture)
        error = check_cli(command, run.rc, run.stdout, self.digests[fixture])
        self.max_rss_kb = 0
        return [error] if error else []

    def round(self):
        return [((c, f), lambda c=c, f=f: self.run(c, f)) for c, f in self.cases]

    def check(self, results):
        errors = []
        for (command, fixture), run in results:
            expected = self.poly if command == "poly-eval" else None
            error = check_cli(command, run.rc, run.stdout, self.digests[fixture], expected)
            if error:
                errors.append("cli %s %s: %s" % (command, fixture, error))
        return errors

    def peak_rss_mb(self):
        return self.max_rss_kb / 1024.0
