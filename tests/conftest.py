"""Shared fixtures: seeded random row contractions, partial isometries,
and ball-point samplers used across the test modules."""

import sys

import numpy as np
import pytest

from ncdbr import RowContraction, sample_ball_point
from ncdbr.numerics import psd_sqrt


def random_contraction(seed, d, m, norm=0.9):
    """Seeded random strict row contraction with exact row norm."""
    rng = np.random.default_rng(seed)
    row = rng.standard_normal((m, m * d)) + 1j * rng.standard_normal((m, m * d))
    row *= norm / np.linalg.norm(row, 2)
    return RowContraction(tuple(row[:, j * m : (j + 1) * m] for j in range(d)))


def random_partial_isometry(seed, d, m, rank):
    """Seeded random row partial isometry of the given rank (0 allowed)."""
    rng = np.random.default_rng(seed)
    if rank == 0:
        row = np.zeros((m, m * d), dtype=complex)
    else:
        K = np.linalg.qr(
            rng.standard_normal((m * d, rank)) + 1j * rng.standard_normal((m * d, rank))
        )[0]
        W = np.linalg.qr(
            rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        )[0]
        row = W @ K.conj().T
    return RowContraction(tuple(row[:, j * m : (j + 1) * m] for j in range(d)))


def spy_decompositions(monkeypatch):
    """Record each np.linalg.svd, np.linalg.eigh and np.linalg.eigvalsh call,
    each matrix 2-norm taken by np.linalg.norm (an SVD that np.linalg.svd
    does not see) as an svd, and each psd_sqrt call through an ncdbr module,
    as (name, argument, caller's name)."""
    calls = []

    def spy(name, fn):
        def recorded(A, *args, **kwargs):
            calls.append((name, np.array(A), sys._getframe(1).f_code.co_name))
            return fn(A, *args, **kwargs)

        return recorded

    def norm(x, ord=None, *args, **kwargs):
        if ord in (2, -2) and np.ndim(x) == 2:
            calls.append(("svd", np.array(x), sys._getframe(1).f_code.co_name))
        return matrix_norm(x, ord, *args, **kwargs)

    matrix_norm = np.linalg.norm
    monkeypatch.setattr(np.linalg, "norm", norm)
    for name in ("svd", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, spy(name, getattr(np.linalg, name)))
    for modname, module in list(sys.modules.items()):
        if modname.startswith("ncdbr") and getattr(module, "psd_sqrt", None) is psd_sqrt:
            monkeypatch.setattr(module, "psd_sqrt", spy("psd_sqrt", psd_sqrt))
    return calls


def same_matrix(A, B):
    """Whether A and B have one shape and agree entrywise within 1e-12."""
    return A.shape == B.shape and np.allclose(A, B, atol=1e-12)


def decomposes_row(A, T):
    """Whether A is T's row, its adjoint, one of its Grams or one of its
    defects I - T*T and I - TT*."""
    R = T.row()
    grams = (R @ R.conj().T, R.conj().T @ R)
    candidates = (R, R.conj().T) + grams + tuple(np.eye(G.shape[0]) - G for G in grams)
    return any(same_matrix(A, B) for B in candidates)


def ball_points(d, count, radius=0.5, seed=100, levels=(1, 2)):
    return [
        sample_ball_point(d, levels[k % len(levels)], radius, seed + k)
        for k in range(count)
    ]


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def pytest_terminal_summary(terminalreporter):
    # surface the per-criterion verdict lines even when capture is on
    try:
        from test_acceptance import CRITERION_LINES
    except ImportError:
        return
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(CRITERION_LINES):
            terminalreporter.write_line(line)
