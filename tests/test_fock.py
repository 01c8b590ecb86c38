import numpy as np
import pytest

from conftest import random_contraction
from ncdbr.errors import DimensionMismatch, NotCNC
from ncdbr.fock import (
    TruncatedFock,
    dbr_space,
    eval_vector,
    gleason_extremal,
    kernel_vector,
    model_verify,
    mult_operator,
    shifts,
    transpose_unitary,
)
from ncdbr.ncspace import FreeWord, sample_ball_point, word_apply
from ncdbr.numerics import orthonormal_range, pinv, psd_sqrt
from ncdbr.rowcontraction import RowContraction

JORDAN = RowContraction((np.array([[0.0, 0.0], [1.0, 0.0]]),))


def test_truncated_fock_counts():
    f = TruncatedFock(d=2, N=3, coeff_dim=2)
    assert f.num_words == 1 + 2 + 4 + 8
    assert f.total_dim == 15 * 2
    with pytest.raises(DimensionMismatch):
        TruncatedFock(d=0, N=1, coeff_dim=1)


def test_shift_relations():
    f = TruncatedFock(d=2, N=4, coeff_dim=1)
    L, R = shifts(f)
    # row isometry relations L_j* L_k = delta_jk I, exact away from the
    # words of maximal length that the truncation kills
    interior = [i for i, w in enumerate(f.words) if len(w) < f.N]
    for j in range(2):
        for k in range(2):
            G = L[j].conj().T @ L[k]
            want = np.eye(f.num_words) if j == k else np.zeros((f.num_words, f.num_words))
            assert np.allclose(G[np.ix_(interior, interior)], want[np.ix_(interior, interior)])
    # left and right shifts commute on words short enough to take both
    short = [i for i, w in enumerate(f.words) if len(w) <= f.N - 2]
    for j in range(2):
        for k in range(2):
            C = L[j] @ R[k] - R[k] @ L[j]
            assert np.allclose(C[:, short], 0)


def test_transpose_unitary_swaps_shifts():
    f = TruncatedFock(d=2, N=3, coeff_dim=1)
    L, R = shifts(f)
    W = transpose_unitary(f)
    assert np.allclose(W @ W.conj().T, np.eye(f.num_words))
    for Lj, Rj in zip(L, R):
        assert np.allclose(W @ Lj @ W.conj().T, Rj)


def test_mult_operator_oracle():
    f = TruncatedFock(d=2, N=2, coeff_dim=1)
    coeffs = {FreeWord(()): np.array([[2.0]]), FreeWord((1,)): np.array([[3.0]])}
    M = mult_operator(coeffs, f)
    # image of the empty word is 2*1 + 3*z1
    e0 = np.zeros(f.num_words)
    e0[f.word_index[()]] = 1.0
    out = M @ e0
    assert out[f.word_index[()]] == 2.0
    assert out[f.word_index[(1,)]] == 3.0
    # multiplying z2 by z1 lands on the word (1, 2)
    e2 = np.zeros(f.num_words)
    e2[f.word_index[(2,)]] = 1.0
    out = M @ e2
    assert out[f.word_index[(1, 2)]] == 3.0
    with pytest.raises(DimensionMismatch):
        mult_operator({}, f)
    with pytest.raises(DimensionMismatch):
        mult_operator({(): np.eye(1), (1,): np.eye(2)}, f)


def test_dbr_space_of_zero_multiplier_is_full():
    f = TruncatedFock(d=1, N=3, coeff_dim=1)
    space = dbr_space(np.zeros((f.total_dim, f.total_dim)), f)
    assert space.dim == f.total_dim
    # inner product reduces to the ambient one
    a = np.arange(1.0, f.total_dim + 1.0) + 0j
    assert abs(space.inner(a, a) - np.vdot(a, a)) < 1e-10
    # kernel vectors reduce to untruncated Szego vectors
    Z = sample_ball_point(1, 1, 0.5, 3)
    g = np.ones(1)
    kv = kernel_vector(space, Z, g, np.ones(1), np.ones(1))
    for i, w in enumerate(f.words):
        expected = np.conj(word_apply(Z.coords, w)[0, 0])
        assert abs(kv[i] - expected) < 1e-12
    with pytest.raises(ValueError):
        dbr_space(2.0 * np.eye(f.total_dim), f)


def _four_step_space(B_L):
    """Reference construction of the space: the PSD root of I - B_L B_L*,
    an orthonormal frame of its range, and the Gram matrix of that frame
    lifted through the root's pseudo-inverse."""
    factor = psd_sqrt(np.eye(B_L.shape[0]) - B_L @ B_L.conj().T)
    frame = orthonormal_range(factor)
    lift = pinv(factor) @ frame
    return frame, lift.conj().T @ lift


def _assert_matches_reference(space, B_L):
    frame, gram = _four_step_space(B_L)
    F = space.range_frame
    assert space.dim == frame.shape[1]
    assert np.allclose(F.conj().T @ F, np.eye(space.dim), atol=1e-12)
    gap = F @ space.gram @ F.conj().T - frame @ gram @ frame.conj().T
    assert np.abs(gap).max() <= 1e-10


def test_dbr_space_matches_four_step_reference():
    # B_L with `ones` unit singular values, so that I - B_L B_L* has a
    # kernel of that dimension, and the other singular values in [0, 0.9]
    f = TruncatedFock(d=2, N=2, coeff_dim=2)
    n = f.total_dim
    for seed in range(8):
        rng = np.random.default_rng(seed)
        cols = (5, n, 20)[seed % 3]
        ones = seed % 4
        U = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
        V = np.linalg.qr(
            rng.standard_normal((cols, cols)) + 1j * rng.standard_normal((cols, cols))
        )[0]
        k = min(n, cols)
        s = rng.uniform(0.0, 0.9, k)
        s[:ones] = 1.0
        B_L = U[:, :k] @ np.diag(s) @ V[:, :k].conj().T
        space = dbr_space(B_L, f)
        assert space.dim == n - ones
        _assert_matches_reference(space, B_L)


def test_dbr_space_edge_cases():
    f = TruncatedFock(d=2, N=2, coeff_dim=2)
    n = f.total_dim
    # rank 0: a co-isometric multiplier leaves nothing
    space = dbr_space(np.eye(n), f)
    assert space.dim == 0 and space.gram.shape == (0, 0)
    _assert_matches_reference(space, np.eye(n))
    # full rank: the zero multiplier gives the ambient space, gram I
    space = dbr_space(np.zeros((n, 3)), f)
    assert space.dim == n
    assert np.allclose(space.gram, np.eye(n))
    _assert_matches_reference(space, np.zeros((n, 3)))
    # contractivity boundary: 1e-8 of slack in the norm, no more
    space = dbr_space((1.0 + 1e-9) * np.eye(n), f)
    assert space.dim == 0
    with pytest.raises(ValueError):
        dbr_space((1.0 + 2e-8) * np.eye(n), f)
    bad = np.zeros((n, 3))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError):
        dbr_space(bad, f)


def test_eval_vector_oracle():
    f = TruncatedFock(d=2, N=2, coeff_dim=1)
    vec = np.zeros(f.total_dim, dtype=complex)
    vec[f.word_index[(1, 2)]] = 1.0
    Z = sample_ball_point(2, 2, 0.5, 11)
    assert np.allclose(eval_vector(vec, f, Z), Z.coords[0] @ Z.coords[1])


def test_gleason_extremal_row_contraction():
    T = random_contraction(5, 2, 3)
    rep = model_verify(T, 4)
    assert rep["model_dim"] > 0
    # rebuild the space to inspect the tuple directly
    from ncdbr import char_fn  # noqa: F401  (import check)

    f = TruncatedFock(d=1, N=4, coeff_dim=1)
    space = dbr_space(np.zeros((f.total_dim, f.total_dim)), f)
    X = gleason_extremal(space)
    # on the full space the Gleason tuple is the adjoint right shift,
    # which is a row contraction in the ambient inner product
    row = np.hstack(X)
    assert np.linalg.norm(row, 2) <= 1.0 + 1e-8


def test_kernel_vector_reproduces_evaluation():
    # f in the space of the zero multiplier: reproducing identity holds
    # up to the truncation tail
    f = TruncatedFock(d=2, N=6, coeff_dim=1)
    space = dbr_space(np.zeros((f.total_dim, f.total_dim)), f)
    rng = np.random.default_rng(0)
    vec = rng.standard_normal(f.total_dim) + 1j * rng.standard_normal(f.total_dim)
    vec /= np.linalg.norm(vec)
    r = 0.4
    Z = sample_ball_point(2, 1, r, 9)
    kv = kernel_vector(space, Z, np.ones(1), np.ones(1), np.ones(1))
    lhs = space.inner(kv, vec)
    rhs = complex(eval_vector(vec, f, Z)[0, 0])
    assert abs(lhs - rhs) < 10 * r ** (f.N + 1)


def test_model_verify_jordan_exact():
    rep = model_verify(JORDAN, 6)
    assert rep["frame_residual"] < 1e-12
    assert rep["intertwine_residual"] < 1e-12
    assert rep["kernel_identity_residual"] < 1e-12


def test_model_verify_residuals_decay():
    T = RowContraction((np.array([[0.5]]),))
    resid = lambda rep: max(
        rep["frame_residual"], rep["intertwine_residual"], rep["kernel_identity_residual"]
    )
    r1 = resid(model_verify(T, 4))
    r2 = resid(model_verify(T, 8))
    assert r2 < r1 * 1e-2


def test_model_verify_scalar_closed_form():
    # T = r: the model space is spanned by k_N = (1, r, ..., r^N) and the
    # intertwining error |r - X| times ||G^(1/2) U|| has the closed form
    # below; ||G^(1/2) U||^2 is within frame_residual of 1.
    for r in (0.3, 0.5, 0.7):
        T = RowContraction((np.array([[r]]),))
        for N in (3, 4, 6, 8):
            rep = model_verify(T, N)
            assert rep["model_dim"] == 1
            exact = r ** (2 * N + 1) * (1 - r * r) / (1 - r ** (2 * N + 2))
            gap = abs(rep["intertwine_residual"] - exact)
            assert gap <= exact * rep["frame_residual"] + 1e-13


def test_model_verify_rejects_non_cnc():
    U = RowContraction((np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),))
    with pytest.raises(NotCNC):
        model_verify(U, 3)
