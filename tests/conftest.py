"""Shared fixtures: seeded random row contractions, partial isometries,
and ball-point samplers used across the test modules."""

import sys

import numpy as np
import pytest

from ncdbr import RowContraction, canonical_frames, reconstruct, sample_ball_point
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


# (delta, theta) where G_1 of rotated_defect has an eigenvalue below the
# PSD policy's cutoff although O_1 has rank 2
SMALL_DEFECTS = [(1e-4, 1e-2), (1e-3, 1e-3), (1e-4, 1e-1)]


def rotated_defect(delta, theta):
    """R(theta) diag(sqrt(1 - delta^2), 1): D_T* has rank 1, with root delta."""
    c, s = np.cos(theta), np.sin(theta)
    return RowContraction((np.array([[c, -s], [s, c]]) @ np.diag([np.sqrt(1 - delta**2), 1.0]),))


def cnc_grid():
    """Row contractions whose D_T* has every rank from 0 to m: strict T at
    row norms 0.3, 0.9 and 0.999, partial isometries V and the mixes
    reconstruct(V, delta), Jordan blocks, and two non-CNC T, a unitary and
    a unitary summed with a strict part."""
    cases = [
        random_contraction(seed, d, m, norm)
        for seed, (d, m) in enumerate([(1, 3), (2, 3), (3, 2), (2, 5)])
        for norm in (0.3, 0.9, 0.999)
    ]
    for d, m in [(1, 3), (2, 3), (3, 2)]:
        for rank in range(1, m):
            V = random_partial_isometry(20 * d + m + rank, d, m, rank)
            frames = canonical_frames(V)
            p, q = frames.gamma0.shape[1], frames.gammaInf.shape[1]
            delta = np.random.default_rng(rank).standard_normal((p, q))
            cases += [V, reconstruct(V, 0.5 * delta / np.linalg.norm(delta, 2))]
    cases += [
        RowContraction(tuple(np.eye(m, k=-1) / np.sqrt(d) for _ in range(d)))
        for d in (1, 2)
        for m in (2, 4, 6)
    ]
    flip = np.array([[0.0, 1.0], [1.0, 0.0]])
    mixed = np.block([[flip, np.zeros((2, 1))], [np.zeros((1, 2)), 0.5 * np.eye(1)]])
    return cases + [RowContraction((flip,)), RowContraction((mixed,))]


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
