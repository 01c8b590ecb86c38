import sys

import numpy as np
import pytest

from conftest import (
    SMALL_DEFECTS,
    cnc_grid,
    decomposes_row,
    random_contraction,
    random_partial_isometry,
    rotated_defect,
    same_matrix,
    spy_decompositions,
)
from dense_fock import (
    TruncatedFock,
    _kernel_coords,
    _model_space,
    _word_blocks,
    dbr_space,
    eval_vector,
    gleason_extremal,
    kernel_vector,
    mult_operator,
    shifts,
    transpose_unitary,
    word_route_report,
    words_up_to,
)
from ncdbr.errors import DimensionMismatch, NotCNC, TruncationTooShort
from ncdbr.fock import _kernel_probes, model_verify
from ncdbr.ncspace import (
    FreeWord,
    MatrixTuple,
    pencil_tz_star,
    sample_ball_point,
    word_apply,
)
from ncdbr.numerics import DEFAULT_TOL, orthonormal_range, psd_sqrt
from ncdbr.realization import taylor_coeff
from ncdbr.rowcontraction import (
    RowContraction,
    _defect_star_frame,
    canonical_frames,
    cnc_rank,
    defects,
    julia_matrix,
    reconstruct,
)

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
    assert abs(a.conj() @ space.gram @ a - np.vdot(a, a)) < 1e-10
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
    lift = np.linalg.pinv(factor, rcond=1e-10) @ frame
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
    # a random unitary is co-isometric too; its defect is round-off only
    rng = np.random.default_rng(14)
    Q = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]
    space = dbr_space(Q, f)
    assert space.dim == 0 and space.gram.shape == (0, 0)
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


def test_eval_vector_matches_kron_sum():
    f = TruncatedFock(d=2, N=3, coeff_dim=2)
    rng = np.random.default_rng(4)
    vec = rng.standard_normal(f.total_dim) + 1j * rng.standard_normal(f.total_dim)
    Z = sample_ball_point(2, 3, 0.6, 12)
    want = sum(
        np.kron(word_apply(Z.coords, w), vec[2 * i : 2 * i + 2].reshape(2, 1))
        for i, w in enumerate(f.words)
    )
    assert np.abs(eval_vector(vec, f, Z) - want).max() <= 1e-13


def test_word_blocks_prefix_recursion():
    rng = np.random.default_rng(5)
    ops = [rng.standard_normal((3, 3)) for _ in range(3)]
    first = rng.standard_normal((2, 3))
    blocks = _word_blocks(first, ops, 3)
    words = words_up_to(3, 3)
    assert blocks.shape == (len(words), 2, 3)
    for block, w in zip(blocks, words):
        assert np.allclose(block, first @ word_apply(ops, w), atol=1e-13)


# (d, m, N) shapes for the observability-map construction, at row norm 0.9
OBSERVABILITY_SHAPES = [(1, 3, 6), (2, 3, 5), (3, 2, 4), (2, 4, 4)]


def _dense_multiplier(T, N):
    """The truncated multiplier B_L of T's Julia colligation compressed to
    the defect ranges, as a dense (W p) x (W q) matrix, and its truncation."""
    colligation = julia_matrix(T)
    D_T, D_Tstar = defects(T)
    F_in = orthonormal_range(D_T)
    F_out = orthonormal_range(D_Tstar)
    coeffs = {
        w: F_out.conj().T @ taylor_coeff(colligation, w) @ F_in for w in words_up_to(T.d, N)
    }
    f = TruncatedFock(d=T.d, N=N, coeff_dim=F_out.shape[1])
    return mult_operator(coeffs, f), f


@pytest.mark.parametrize("d,m,N", OBSERVABILITY_SHAPES)
def test_defect_of_multiplier_is_observability_gramian(d, m, N):
    T = random_contraction(17 + d, d, m)
    B_L, f = _dense_multiplier(T, N)
    _, D_Tstar = defects(T)
    F_out = orthonormal_range(D_Tstar)
    # O_N stacks F_out* D_T* (T*)^w over the words, built here word by word
    star = [Tj.conj().T for Tj in T.ops]
    O_N = np.vstack([F_out.conj().T @ D_Tstar @ word_apply(star, w) for w in f.words])
    gap = np.eye(f.total_dim) - B_L @ B_L.conj().T - O_N @ O_N.conj().T
    assert np.linalg.norm(gap, 2) <= 1e-12


@pytest.mark.parametrize("d,m,N", OBSERVABILITY_SHAPES)
def test_observability_space_matches_dense_space(d, m, N):
    T = random_contraction(17 + d, d, m)
    B_L, f = _dense_multiplier(T, N)
    dense = dbr_space(B_L, f)
    space, _ = _model_space(T, N, DEFAULT_TOL)
    assert space.dim == dense.dim == m

    def ambient(S, M):
        return S.range_frame @ M @ S.range_frame.conj().T

    defect = lambda S: ambient(S, np.diag(1.0 / S.gram.diagonal()))
    assert np.abs(defect(space) - defect(dense)).max() <= 1e-12
    for X, Xd in zip(gleason_extremal(space), gleason_extremal(dense)):
        assert np.abs(ambient(space, X) - ambient(dense, Xd)).max() <= 1e-12
    # the kernel vector F diag(w) F* s is (I - B_L B_L*) s for the Szego
    # vector s with coefficients conj(x* Z^w u) (x) g
    Z = sample_ball_point(d, 2, 0.5, 3)
    g, x, u = np.eye(f.coeff_dim)[0], np.ones(2), np.array([1.0, 1j])
    s = np.kron([np.conj(x @ word_apply(Z.coords, w) @ u) for w in f.words], g)
    want = s - B_L @ (B_L.conj().T @ s)
    assert np.abs(kernel_vector(space, Z, g, x, u) - want).max() <= 1e-12


@pytest.mark.parametrize("d,m,N", OBSERVABILITY_SHAPES)
def test_gleason_index_slice_matches_shift_compression(d, m, N):
    T = random_contraction(17 + d, d, m)
    space, _ = _model_space(T, N, DEFAULT_TOL)
    f = space.ambient
    F = space.range_frame
    w = 1.0 / space.gram.diagonal()
    _, R = shifts(f)
    for Rj, X in zip(R, gleason_extremal(space)):
        Xstar = F.conj().T @ np.kron(Rj.conj().T, np.eye(f.coeff_dim)) @ F
        assert np.abs(X - w[:, None] * Xstar.conj().T / w).max() <= 1e-12


def test_model_verify_long_truncation():
    # 88,573 words: the dense multiplier would be 177146 x 531438
    rep = model_verify(random_contraction(0, 3, 2, 0.5), 10)
    assert rep["model_dim"] == 2
    worst = max(
        rep["frame_residual"], rep["intertwine_residual"], rep["kernel_identity_residual"]
    )
    assert worst <= 1e-3


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
    lhs = kv.conj() @ space.gram @ vec
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
    # below; ||G^(1/2) U|| = 1, since U = F* O_N has U* G U = I.
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


@pytest.mark.parametrize("d, m", [(1, 3), (2, 3), (3, 2)])
def test_model_verify_roots_one_defect(monkeypatch, d, m):
    # the CNC check and the model space share one frame of Ran D_T*, read
    # off the SVD that T took when it was built: nothing is rooted, no eigh
    # runs, and neither T's row nor D_T* itself is decomposed; one eigvalsh
    # of the m x m Gram G_N gives frame_residual
    T = random_contraction(40 + d, d, m, norm=0.8)
    D_Tstar = defects(T)[1]
    calls = spy_decompositions(monkeypatch)
    rep = model_verify(T, 3)
    assert [c for c in calls if c[0] in ("psd_sqrt", "eigh")] == []
    assert [A.shape for name, A, _ in calls if name == "eigvalsh"] == [(m, m)]
    assert not any(decomposes_row(A, T) or same_matrix(A, D_Tstar) for _, A, _ in calls)
    monkeypatch.undo()
    assert rep == model_verify(T, 3)


@pytest.mark.parametrize("d", [1, 2])
def test_model_verify_of_the_empty_contraction(d):
    # m = 0: the model space is empty, and every residual is zero
    rep = model_verify(RowContraction((np.zeros((0, 0)),) * d), 3)
    assert rep["model_dim"] == rep["rank_O_N"] == 0
    for key in ("frame_residual", "intertwine_residual", "kernel_identity_residual"):
        assert rep[key] == 0.0, key


def jordan(m):
    """The m x m nilpotent Jordan block, e_k -> e_(k+1): CNC with p = 1."""
    return np.eye(m, k=-1)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("m", range(4, 13))
def test_model_verify_nilpotent_jordan(d, m):
    # J^m = 0, so O_N reaches all of H at N = m - 1 and the truncation is
    # exact; the number of output vectors, p = 1, does not limit the check
    T = RowContraction(tuple(jordan(m) / np.sqrt(d) for _ in range(d)))
    rep = model_verify(T, max(8, m - 1))
    assert rep["rank_O_N"] == rep["model_dim"] == m
    for key in ("frame_residual", "intertwine_residual", "kernel_identity_residual"):
        assert rep[key] <= 1e-12, key


def test_model_verify_rejects_short_truncation():
    # O_3 of J_6 spans e_1..e_4 only; O_N first spans C^6 at N = 5
    with pytest.raises(TruncationTooShort, match="N = 3 < 5, "):
        model_verify(RowContraction((jordan(6),)), 3)


def test_model_verify_rejects_negative_truncation():
    # stabilized_at is at least 0, so no N < 0 passes
    with pytest.raises(TruncationTooShort, match="N = -1 < 0, "):
        model_verify(RowContraction((np.array([[0.5]]),)), -1)


@pytest.mark.parametrize("delta, theta", SMALL_DEFECTS)
def test_model_verify_at_the_span_floor_of_a_small_defect(delta, theta):
    # Ran D_T* and T Ran D_T* span C^2, so stabilized_at = 1, though the
    # smallest eigenvalue of G_1 is below the PSD policy's cutoff
    T = rotated_defect(delta, theta)
    assert cnc_rank(T).stabilized_at == 1
    rep = model_verify(T, 1)
    assert rep["rank_O_N"] == rep["model_dim"] == 2
    assert all(np.isfinite(rep[key]) for key in rep)


def test_model_verify_raises_exactly_below_the_span_floor():
    # TruncationTooShort iff N < stabilized_at, on the CNC grid and the
    # small defects at every N = 0..m, and on the cross-route cases at their N
    grid = cnc_grid() + [rotated_defect(*args) for args in SMALL_DEFECTS]
    cases = [(T, N) for T in grid if cnc_rank(T).is_cnc for N in range(T.m + 1)]
    for T, N in cases + _cross_route_cases():
        if N < cnc_rank(T).stabilized_at:
            with pytest.raises(TruncationTooShort):
                model_verify(T, N)
        else:
            assert model_verify(T, N)["rank_O_N"] == T.m


def looped_kernel_residual(space, X, seed):
    """Reference kernel_identity_residual: one Szego vector, built word by
    word, and one X-pencil solve per output basis vector g, with K_0 from
    the level-1 zero point."""
    f = space.ambient
    p = f.coeff_dim
    w = 1.0 / space.gram.diagonal()
    G_half = np.diag(np.sqrt(space.gram.diagonal()))

    def coords(Z, g, x, u):
        rows = np.stack([np.conj(x) @ word_apply(Z.coords, word) for word in f.words])
        s = np.outer(np.conj(rows @ u), g).ravel()
        return w * (space.range_frame.conj().T @ s)

    Z0 = sample_ball_point(f.d, 1, 0.0, 0)
    K0 = np.column_stack([coords(Z0, g, np.ones(1), np.ones(1)) for g in np.eye(p)])
    resid = 0.0
    for s, n in enumerate([1, 2, 2, 1, 2]):
        Z = sample_ball_point(f.d, n, 0.45, seed + s)
        pencil = pencil_tz_star(X, Z)
        rng = np.random.default_rng(seed + 100 + s)
        for gi in range(p):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            solved = np.linalg.solve(pencil, np.outer(x, K0[:, gi]).ravel())
            via_X = u.conj() @ solved.reshape(n, space.dim)
            direct = coords(Z, np.eye(p)[gi], x, u)
            resid = max(resid, float(np.linalg.norm(G_half @ (via_X - direct))))
    return resid


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("m", [2, 3, 4])
def test_model_verify_matches_looped_oracle(d, m):
    T = random_contraction(60 + 3 * d + m, d, m, norm=0.7)
    N = 4
    rep = model_verify(T, N)
    space, O_N = _model_space(T, N, DEFAULT_TOL)
    X = gleason_extremal(space)
    want = looped_kernel_residual(space, X, 2024)
    assert abs(rep["kernel_identity_residual"] - want) <= 1e-14
    # the model unitary is isometric in the operator-range inner product
    G = space.gram
    U = space.range_frame.conj().T @ O_N
    assert np.linalg.norm(U.conj().T @ G @ U - np.eye(m), 2) <= 1e-12
    G_half = np.sqrt(G)
    intertwine = max(
        np.linalg.norm(G_half @ (U @ Tj - Xj @ U), 2) for Tj, Xj in zip(T.ops, X)
    )
    assert intertwine == pytest.approx(rep["intertwine_residual"], rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("d, m", [(1, 3), (2, 3), (3, 2)])
def test_model_verify_solves_once_per_level(monkeypatch, d, m):
    # one m x m solve for E = P_N G_N^-1, then one stacked pencil solve for
    # all five probes, the level-1 ones padded to level 2, with the p kernel
    # right-hand sides as columns.  It takes one kron sum, of T itself; the
    # pencil is I - that kron sum times I (x) (I - E), and T's kron sum is
    # multiplied, never solved against.  No pinv is taken.
    T = random_contraction(50 + d, d, m, norm=0.8)
    solves = []
    kron_sums = []
    solve = np.linalg.solve
    fock = sys.modules["ncdbr.fock"]
    kron_sum = fock._kron_sum
    monkeypatch.setattr(
        np.linalg, "solve", lambda A, b: solves.append((np.array(A), b.shape)) or solve(A, b)
    )
    monkeypatch.setattr(np.linalg, "pinv", lambda *a, **k: pytest.fail("pinv called"))
    monkeypatch.setattr(
        fock, "_kron_sum", lambda L, R: kron_sums.append((R, kron_sum(L, R))) or kron_sums[-1][1]
    )
    rep = model_verify(T, 3)
    # D_T* has full rank, so p = m, and the model space has dimension m
    assert [shape for _, shape in solves] == [(m, m), (5, 2 * m, m)]
    assert [ops is T.ops for ops, _ in kron_sums] == [True]
    (A, _), (_, K) = solves[1], kron_sums[0]
    assert not np.allclose(A, np.eye(A.shape[-1]) - K.reshape(A.shape))
    monkeypatch.undo()
    assert rep == model_verify(T, 3)


def _phase_cases():
    """Strict T at row norms 0.3, 0.9 and 0.999, partial-isometry mixes
    reconstruct(V, delta), and the Jordan blocks J_4..J_8 at N = m - 1."""
    cases = [
        (random_contraction(80 + 10 * d + m, d, m, norm), 6)
        for norm in (0.3, 0.9, 0.999)
        for d, m in [(1, 3), (2, 3), (3, 2), (2, 4)]
    ]
    for d, m in [(1, 3), (2, 3), (3, 2)]:
        for rank in range(1, m):
            V = random_partial_isometry(20 * d + m + rank, d, m, rank)
            frames = canonical_frames(V)
            p, q = frames.gamma0.shape[1], frames.gammaInf.shape[1]
            delta = np.random.default_rng(rank).standard_normal((p, q))
            cases.append((reconstruct(V, 0.5 * delta / np.linalg.norm(delta, 2)), 6))
    cases += [(RowContraction((jordan(m),)), m - 1) for m in range(4, 9)]
    return cases


def test_model_verify_and_cnc_rank_ignore_the_frame_phases(monkeypatch):
    # no caller sees the column phases of the Ran D_T* frame: model_verify
    # fixes none on a strict T, whose CNC check takes no span, and seeded
    # unimodular phases on the frame leave cnc_rank identical and every
    # model_verify field within 1e-15.  frame_residual is 1 - lambda for an
    # eigenvalue lambda of G_N <= I, so eigvalsh's round-off is a few ulps
    # of 1 there (at most 5.5 over 200 phase draws of these cases), and it
    # gets 8 ulps of 1
    cases = _phase_cases()
    fixed = []
    fix = sys.modules["ncdbr.numerics"]._fix_column_phases
    for name, module in list(sys.modules.items()):
        if name.startswith("ncdbr") and getattr(module, "_fix_column_phases", None) is fix:
            monkeypatch.setattr(
                module, "_fix_column_phases", lambda B, tol: fixed.append(B.shape) or fix(B, tol)
            )
    # the first twelve cases are strict
    for T, N in cases[:12]:
        model_verify(T, N)
    assert fixed == []
    want = [(cnc_rank(T), model_verify(T, N)) for T, N in cases]
    for seed in range(5):
        rng = np.random.default_rng(seed)

        def phased(T, tol):
            F, roots = _defect_star_frame(T, tol)
            return F * np.exp(2j * np.pi * rng.random(F.shape[1])), roots

        for module in ("ncdbr.fock", "ncdbr.rowcontraction"):
            monkeypatch.setattr(sys.modules[module], "_defect_star_frame", phased)
        for (T, N), (rank, rep) in zip(cases, want):
            assert cnc_rank(T) == rank
            got = model_verify(T, N)
            assert got.keys() == rep.keys()
            for key in rep:
                bound = 8 * np.finfo(float).eps if key == "frame_residual" else 1e-15
                assert abs(got[key] - rep[key]) <= bound, key


def _cross_route_cases():
    """test_fock's grids, the Jordan blocks J_4..J_12 at their exact and
    at too short truncations, and the empty contraction."""
    cases = [(random_contraction(17 + d, d, m), N) for d, m, N in OBSERVABILITY_SHAPES]
    for d in (1, 2, 3):
        for m in (2, 3, 4):
            cases.append((random_contraction(60 + 3 * d + m, d, m, norm=0.7), 4))
    for d, m in [(1, 3), (2, 3), (3, 2)]:
        cases.append((random_contraction(40 + d, d, m, norm=0.8), 3))
        cases.append((random_contraction(50 + d, d, m, norm=0.8), 3))
    for d in (1, 2):
        for m in range(4, 13):
            T = RowContraction(tuple(jordan(m) / np.sqrt(d) for _ in range(d)))
            cases += [(T, N) for N in (m - 2, m - 1, max(8, m - 1))]
        cases.append((RowContraction((np.zeros((0, 0)),) * d), 3))
    return cases


def test_model_verify_matches_the_word_route():
    # the m x m Gram recursion against the model space built over the
    # words: equal ranks and raises, and residuals within round-off
    for T, N in _cross_route_cases():
        try:
            want = word_route_report(T, N)
        except TruncationTooShort as short:
            with pytest.raises(TruncationTooShort) as raised:
                model_verify(T, N)
            assert str(raised.value) == str(short)
            continue
        rep = model_verify(T, N)
        assert rep["model_dim"] == rep["rank_O_N"] == want["model_dim"] == T.m
        for key in ("frame_residual", "intertwine_residual", "kernel_identity_residual"):
            assert abs(rep[key] - want[key]) <= 1e-14, key


def test_model_verify_beyond_the_word_route():
    # N = 24 at d = 3 has 4.2e11 words, which the word route could not
    # hold; the Gram recursion meets the CLI's 1e-3 gate at row norm 0.9
    for seed in (1, 2, 3):
        rep = model_verify(random_contraction(seed, 3, 2, 0.9), 24)
        assert rep["model_dim"] == 2
        worst = max(
            rep["frame_residual"], rep["intertwine_residual"], rep["kernel_identity_residual"]
        )
        assert worst <= 1e-3


def test_model_verify_scalar_closed_form_to_round_off():
    # ||T E|| for T = r is the closed form itself, with no cancellation, so
    # it holds to round-off relative to its size at every N
    for r in (0.3, 0.5, 0.7, 0.9):
        T = RowContraction((np.array([[r]]),))
        for N in range(1, 21):
            exact = r ** (2 * N + 1) * (1 - r * r) / (1 - r ** (2 * N + 2))
            assert abs(model_verify(T, N)["intertwine_residual"] - exact) <= 1e-12 * exact


def test_kernel_probes_drawn_once_per_key(monkeypatch):
    # the probes are constants of (d, p, seed): a second call with the same
    # key draws no point, a new seed draws all five
    _kernel_probes.cache_clear()
    drawn = []
    monkeypatch.setattr(
        sys.modules["ncdbr.fock"],
        "sample_ball_point",
        lambda *a: drawn.append(a) or sample_ball_point(*a),
    )
    first = _kernel_probes(2, 3, 11)
    assert len(drawn) == 5
    assert _kernel_probes(2, 3, 11) is first
    assert len(drawn) == 5
    _kernel_probes(2, 3, 12)
    assert len(drawn) == 10
    n, Z, x, u = first
    assert (n, Z.shape, x.shape, u.shape) == (2, (5, 2, 2, 2), (5, 3, 2), (5, 3, 2))
    # point s is the level-n draw at seed 11 + s, a level-1 draw stored as
    # Z (+) 0 with x and u padded by a zero column
    for s, level in enumerate([1, 2, 2, 1, 2]):
        point = np.stack(sample_ball_point(2, level, 0.45, 11 + s).coords)
        draws = np.random.default_rng(111 + s).standard_normal((3, 4, level))
        assert np.array_equal(Z[s, :, :level, :level], point)
        assert np.array_equal(x[s, :, :level], draws[:, 0] + 1j * draws[:, 1])
        assert np.array_equal(u[s, :, :level], draws[:, 2] + 1j * draws[:, 3])
        for a in (Z[s, :, level:], Z[s, :, :, level:], x[s, :, level:], u[s, :, level:]):
            assert not a.any()


def test_kernel_probes_are_read_only():
    _, Z, x, u = _kernel_probes(2, 2, 2024)
    for a in (Z, x, u):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("d, m", [(1, 3), (2, 2), (3, 2)])
def test_model_verify_seed_moves_the_probes(d, m):
    # another seed gives other probes and another kernel residual, and both
    # match the looped oracle
    T = random_contraction(70 + d, d, m, norm=0.7)
    N = 4
    space, _ = _model_space(T, N, DEFAULT_TOL)
    X = gleason_extremal(space)
    resid = {}
    for seed in (7, 2024):
        resid[seed] = model_verify(T, N, seed=seed)["kernel_identity_residual"]
        assert abs(resid[seed] - looped_kernel_residual(space, X, seed)) <= 1e-14
    assert resid[7] != resid[2024]


def test_kernel_vector_is_a_stacked_column():
    # kernel_vector at one point is that point's column of the stacked
    # coordinates, mapped to the ambient space
    T = random_contraction(5, 2, 3, norm=0.7)
    space, _ = _model_space(T, 3, DEFAULT_TOL)
    p = space.ambient.coeff_dim
    _, Z, x, u = _kernel_probes(2, p, 9)
    coords = _kernel_coords(space, Z, x, u)
    g = np.eye(p)[1]
    for i in range(len(Z)):
        point = MatrixTuple(tuple(Z[i]))
        kv = kernel_vector(space, point, g, x[i], u[i])
        assert np.array_equal(kv, space.range_frame @ (coords[i] @ g))
