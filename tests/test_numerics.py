import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncdbr.errors import NotHermitian, NotPSD
from ncdbr.numerics import (
    DEFAULT_TOL,
    Tolerance,
    _fix_column_phases,
    _svd_rank,
    orthonormal_range,
    psd_sqrt,
    stabilized_span,
    subspace_stable_basis,
)


def test_tolerance_validation():
    Tolerance(rank_rel=1e-12, eq_abs=1e-9)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(eq_abs=1e-2)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=-1e-10)


def test_psd_sqrt_known_value():
    A = np.array([[4.0, 0.0], [0.0, 9.0]], dtype=complex)
    S = psd_sqrt(A)
    assert np.allclose(S, np.diag([2.0, 3.0]))


def test_psd_sqrt_squares_back(rng):
    X = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    A = X @ X.conj().T
    S = psd_sqrt(A)
    assert np.linalg.norm(S @ S - A) < 1e-10 * np.linalg.norm(A)
    assert np.linalg.norm(S - S.conj().T) < 1e-12


def test_psd_sqrt_rejects_non_hermitian(rng):
    A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    with pytest.raises(NotHermitian):
        psd_sqrt(A)


def test_psd_sqrt_rejects_indefinite():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, -1.0]).astype(complex))


def test_psd_sqrt_clamps_tiny_negatives():
    A = np.diag([1.0, -1e-14]).astype(complex)
    S = psd_sqrt(A)
    assert S[1, 1] == 0.0


def test_psd_sqrt_rank_of_projection():
    # the root of a projector must keep the projector's rank: sqrt noise
    # on zero eigenvalues must not create spurious directions
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2)))[0]
    P = np.eye(6) - Q @ Q.conj().T
    S = psd_sqrt(P)
    assert orthonormal_range(S).shape[1] == 4


def test_orthonormal_range_and_kernel(rng):
    A = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    A = np.hstack([A, A[:, :1]])  # rank 3
    R = orthonormal_range(A)
    assert R.shape == (5, 3)
    assert np.linalg.norm(R.conj().T @ R - np.eye(3)) < 1e-12
    # deterministic sign convention: first significant entry real positive
    for col in R.T:
        pivot = col[np.argmax(np.abs(col) > 1e-10)]
        assert abs(pivot.imag) < 1e-12 and pivot.real > 0


@pytest.mark.parametrize("shape", [(5, 300), (300, 5)])
def test_orthonormal_range_of_wide_and_tall_rank_three(rng, shape):
    # the thin SVD spans what the full one does, on either side of square
    left = rng.standard_normal((shape[0], 3)) + 1j * rng.standard_normal((shape[0], 3))
    right = rng.standard_normal((3, shape[1])) + 1j * rng.standard_normal((3, shape[1]))
    A = left @ right
    U, s, _ = np.linalg.svd(A)
    ref = U[:, : _svd_rank(s, DEFAULT_TOL)]
    R = orthonormal_range(A)
    assert R.shape == ref.shape == (shape[0], 3)
    assert np.linalg.norm(R @ R.conj().T - ref @ ref.conj().T, 2) <= 1e-12


def test_orthonormal_range_deterministic(rng):
    A = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
    assert np.array_equal(orthonormal_range(A), orthonormal_range(A.copy()))


def test_stabilized_span_cyclic():
    # companion-type matrix makes e1 cyclic: span must reach everything
    A = np.diag(np.ones(3), -1)
    frame, steps = stabilized_span([A], np.eye(4)[:, :1])
    assert frame.shape[1] == 4
    assert steps <= 4


def test_stabilized_span_invariant_subspace():
    A = np.diag([1.0, 2.0, 3.0]).astype(complex)
    frame, _ = stabilized_span([A], np.eye(3)[:, :1])
    assert frame.shape[1] == 1


def test_subspace_stable_basis_perturbation_stable(rng):
    # bases of the same subspace computed from slightly different inputs
    # must agree far better than raw SVD bases of a degenerate subspace
    A = rng.standard_normal((8, 3)) + 1j * rng.standard_normal((8, 3))
    Q = orthonormal_range(A)
    phase = np.exp(1j * rng.standard_normal(3))
    rot = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    Q2 = (Q * phase) @ rot  # same subspace, different frame
    B1 = subspace_stable_basis(Q)
    B2 = subspace_stable_basis(Q2)
    assert np.linalg.norm(B1 - B2) < 1e-10
    assert np.linalg.norm(B1.conj().T @ B1 - np.eye(3)) < 1e-12


def test_subspace_stable_basis_of_everything_is_identity(rng):
    # a square frame spans everything, and its basis is exactly I
    for _ in range(200):
        Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        assert np.array_equal(subspace_stable_basis(Q), np.eye(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=1, max_value=6))
def test_psd_sqrt_property(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A = X @ X.conj().T
    S = psd_sqrt(A)
    assert np.linalg.norm(S @ S - A) < 1e-9 * max(1.0, np.linalg.norm(A))
    assert np.all(np.linalg.eigvalsh((S + S.conj().T) / 2) > -1e-10)


def _fix_column_phases_loop(B, tol):
    """The per-column loop that _fix_column_phases vectorizes, kept as its
    oracle; it cannot take an input with no rows."""
    B = B.copy()
    for k in range(B.shape[1]):
        col = B[:, k]
        idx = np.flatnonzero(np.abs(col) > tol.rank_rel * max(1.0, np.abs(col).max()))
        if idx.size == 0:
            continue
        pivot = col[idx[0]]
        B[:, k] = col * (np.conj(pivot) / np.abs(pivot))
    return B


def _pivot_rows(B, tol):
    """Row of each column's first significant entry, None where it has none."""
    mag = np.abs(B)
    rows = []
    for k in range(B.shape[1]):
        idx = np.flatnonzero(mag[:, k] > tol.rank_rel * max(1.0, mag[:, k].max()))
        rows.append(int(idx[0]) if idx.size else None)
    return rows


@pytest.mark.parametrize("rows", [1, 2, 5, 36])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fix_column_phases_matches_loop(rows, seed):
    rng = np.random.default_rng(10 * rows + seed)
    B = rng.standard_normal((rows, 7)) + 1j * rng.standard_normal((rows, 7))
    B[:, 1] = 0.0
    B[:, 2] *= 1e-12  # every entry below the absolute floor rank_rel
    B[:2, 3] *= 1e-12  # pivot past the leading entries
    B[:, 4] *= 1e3
    B[:2, 4] *= 1e-11  # below rank_rel times the column's largest modulus
    B[:, 5] *= 0.5 / np.abs(B[:, 5]).max()
    B[0, 5] = 1e-10  # at the cutoff rank_rel * max(1, 0.5), not significant
    got = _fix_column_phases(B, DEFAULT_TOL)
    want = _fix_column_phases_loop(B, DEFAULT_TOL)
    assert got.shape == B.shape
    assert np.all(np.abs(got - want) <= 4 * np.finfo(float).eps * np.abs(want))
    # columns with no significant entry are returned unchanged
    assert np.array_equal(got[:, 1], B[:, 1]) and np.array_equal(got[:, 2], B[:, 2])
    # both make the input's first significant entry of each column real
    # positive, so they picked the same pivot rows
    pivots = _pivot_rows(B, DEFAULT_TOL)
    assert pivots[1] is pivots[2] is None and pivots[3] == (2 if rows > 2 else None)
    for k, r in enumerate(pivots):
        for out in (got, want):
            if r is not None:
                assert out[r, k].real > 0 and abs(out[r, k].imag) <= 4 * np.finfo(float).eps * abs(out[r, k])


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (0, 0)])
def test_fix_column_phases_of_empty_input(shape):
    B = np.zeros(shape, dtype=complex)
    got = _fix_column_phases(B, DEFAULT_TOL)
    assert got.shape == shape and got is not B
