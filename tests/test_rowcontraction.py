import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import cnc_grid, random_contraction, random_partial_isometry
from dense_fock import TruncatedFock, dbr_space
from ncdbr.charfn import char_fn_partial_isometry
from ncdbr.errors import (
    DimensionMismatch,
    NcdbrError,
    NotContraction,
    NotFinite,
    NotPartialIsometry,
    NotPure,
)
from ncdbr.numerics import (
    DEFAULT_TOL,
    _defect_roots,
    orthonormal_range,
    psd_sqrt,
    stabilized_span,
)
from ncdbr.rowcontraction import (
    RowContraction,
    _defect_star_frame,
    _isometric_frames,
    canonical_frames,
    cnc_rank,
    defect_point,
    defects,
    iso_pure_decompose,
    julia_matrix,
    reconstruct,
)

JORDAN = RowContraction((np.array([[0.0, 0.0], [1.0, 0.0]]),))


def test_row_contraction_validation():
    with pytest.raises(DimensionMismatch):
        RowContraction(())
    with pytest.raises(DimensionMismatch):
        RowContraction((np.zeros((2, 3)),))
    with pytest.raises(ValueError):
        RowContraction((np.eye(2) * 1.5,))
    for bad in (np.inf, -np.inf, np.nan, complex(0.1, np.nan)):
        with pytest.raises(NotFinite):
            RowContraction((np.zeros((2, 2)), np.array([[0.1, 0.0], [bad, 0.0]])))
    T = random_contraction(0, 2, 3)
    assert T.d == 2 and T.m == 3 and T.row().shape == (3, 6)


def test_defects_scalar_oracle():
    T = RowContraction((np.array([[0.5]]),))
    D_T, D_Ts = defects(T)
    assert abs(D_T[0, 0] - np.sqrt(0.75)) < 1e-12
    assert abs(D_Ts[0, 0] - np.sqrt(0.75)) < 1e-12


def test_iso_pure_decompose_properties():
    for seed in range(4):
        T = random_contraction(seed, 1 + seed % 2, 3, norm=1.0)
        parts = iso_pure_decompose(T)
        V_row = parts.V.row()
        # V is a partial isometry and T = V + C
        G = V_row.conj().T @ V_row
        assert np.linalg.norm(G @ G - G) < 1e-8
        assert np.allclose(V_row + parts.C.row(), T.row())
        # Ker V contains the range of D_T (the pure directions)
        D_T, _ = defects(T)
        assert np.linalg.norm(V_row @ D_T) < 1e-7


def test_cnc_rank_examples():
    # unitary: no defect, nothing to propagate
    U = RowContraction((np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),))
    rep = cnc_rank(U)
    assert rep.dim == 0 and not rep.is_cnc
    # strict contraction: full defect from the start
    T = random_contraction(1, 2, 3)
    rep = cnc_rank(T)
    assert rep.dim == 3 and rep.is_cnc
    # Jordan nilpotent is CNC
    rep = cnc_rank(JORDAN)
    assert rep.is_cnc and rep.dim == 2
    # random unitaries: I - UU* is round-off, whose roots must not count
    rng = np.random.default_rng(11)
    for m in (3, 4, 6):
        Q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
        rep = cnc_rank(RowContraction((Q,)))
        assert rep.dim == 0 and not rep.is_cnc


def test_cnc_rank_unitarily_invariant(rng):
    T = random_contraction(7, 2, 4)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    T2 = RowContraction(tuple(Q @ Tj @ Q.conj().T for Tj in T.ops))
    assert cnc_rank(T).dim == cnc_rank(T2).dim


def test_cnc_rank_matches_iso_part():
    for seed in range(3):
        V = random_partial_isometry(40 + seed, 2, 3, 1)
        frames = canonical_frames(V)
        p, q = frames.gamma0.shape[1], frames.gammaInf.shape[1]
        rng = np.random.default_rng(90 + seed)
        delta = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        delta *= 0.5 / np.linalg.norm(delta, 2)
        T = reconstruct(V, delta)
        assert cnc_rank(T).is_cnc == cnc_rank(V).is_cnc


def test_cnc_rank_spans_only_below_full_defect_rank(monkeypatch):
    # a frame of Ran D_T* with m columns already spans C^m, so a strict T
    # takes no stabilized_span; partial-isometry mixes and Jordan blocks,
    # whose D_T* has rank between 0 and m, still run it, and every report
    # is stabilized_span's own
    spans = []
    monkeypatch.setattr(
        sys.modules["ncdbr.rowcontraction"],
        "stabilized_span",
        lambda ops, seed, tol: spans.append(seed.shape[1]) or stabilized_span(ops, seed, tol),
    )
    cases = cnc_grid()
    for T in cases:
        spans.clear()
        rep = cnc_rank(T)
        seed = _defect_star_frame(T, DEFAULT_TOL)[0]
        frame, steps = stabilized_span(T.ops, seed)
        assert (rep.dim, rep.is_cnc, rep.stabilized_at) == (
            frame.shape[1],
            frame.shape[1] == T.m,
            steps,
        )
        assert spans == ([] if seed.shape[1] in (0, T.m) else [seed.shape[1]])
    # the cases hold both verdicts
    assert {cnc_rank(T).is_cnc for T in cases} == {True, False}


def test_canonical_frames_jordan():
    frames = canonical_frames(JORDAN)
    # range of V is span(e2), so gamma0 spans e1
    assert frames.gamma0.shape == (2, 1)
    assert np.allclose(frames.gamma0[:, 0], [1.0, 0.0])
    # kernel of V is span(e2) in the domain
    assert frames.gammaInf.shape == (2, 1)
    assert np.allclose(np.abs(frames.gammaInf[:, 0]), [0.0, 1.0])


def test_canonical_frames_isometry_gives_empty_gamma0():
    V = RowContraction((np.eye(2, dtype=complex),))
    frames = canonical_frames(V)
    assert frames.gamma0.shape == (2, 0)


def test_canonical_frames_rejects_non_partial_isometry():
    with pytest.raises(NotPartialIsometry):
        canonical_frames(random_contraction(2, 1, 3, norm=0.9))


def test_defect_point_examples():
    # partial isometry: pure part absent
    V = random_partial_isometry(5, 2, 3, 1)
    assert np.linalg.norm(defect_point(V)) < 1e-10
    # scalar T = 1/2: V = 0, frames are identities, delta = -T
    T = RowContraction((np.array([[0.5]]),))
    assert abs(defect_point(T)[0, 0] + 0.5) < 1e-12
    # T = alpha V: defect point recomputed from the pure part directly
    V = random_partial_isometry(6, 1, 3, 2)
    T = RowContraction(tuple(0.6 * Vj for Vj in V.ops))
    parts = iso_pure_decompose(T)
    frames = canonical_frames(parts.V)
    oracle = -frames.gamma0.conj().T @ parts.C.row() @ frames.gammaInf
    assert np.allclose(defect_point(T), oracle)


def test_reconstruct_roundtrip_population():
    worst = 0.0
    for seed in range(25):
        d = 1 + seed % 3
        m = 2 + seed % 4
        rank = seed % min(m, 3)
        V = random_partial_isometry(300 + seed, d, m, rank)
        frames = canonical_frames(V)
        p, q = frames.gamma0.shape[1], frames.gammaInf.shape[1]
        rng = np.random.default_rng(300 + seed)
        delta = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        if delta.size:
            delta *= 0.7 / np.linalg.norm(delta, 2)
        T = reconstruct(V, delta)
        if delta.size:
            worst = max(worst, float(np.linalg.norm(defect_point(T) - delta, 2)))
    assert worst < 1e-10


def test_reconstruct_edge_cases():
    V = random_partial_isometry(8, 2, 3, 1)
    frames = canonical_frames(V)
    p, q = frames.gamma0.shape[1], frames.gammaInf.shape[1]
    # delta = 0 gives back V
    assert np.allclose(reconstruct(V, np.zeros((p, q))).row(), V.row())
    with pytest.raises(NotPure):
        reconstruct(V, np.eye(p, q))
    with pytest.raises(DimensionMismatch):
        reconstruct(V, np.zeros((p + 1, q)))


def test_reconstruct_stays_contractive():
    for seed in range(5):
        V = random_partial_isometry(60 + seed, 2, 4, 2)
        frames = canonical_frames(V)
        p, q = frames.gamma0.shape[1], frames.gammaInf.shape[1]
        rng = np.random.default_rng(seed)
        delta = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        delta *= 0.95 / np.linalg.norm(delta, 2)
        T = reconstruct(V, delta)  # constructor validates the row norm
        assert np.linalg.norm(T.row(), 2) <= 1.0 + 1e-8


def test_julia_matrix_scalar_zero():
    J = julia_matrix(RowContraction((np.zeros((1, 1)),)))
    assert np.allclose(J.block_matrix(), np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_julia_matrix_unitary():
    for seed in range(4):
        T = random_contraction(seed, 1 + seed % 3, 2 + seed % 3)
        M = julia_matrix(T).block_matrix()
        assert np.linalg.norm(M @ M.conj().T - np.eye(M.shape[0]), 2) < 1e-9
        assert np.linalg.norm(M.conj().T @ M - np.eye(M.shape[1]), 2) < 1e-9


def _unitary(rng, n):
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def _from_row(row, d):
    m = row.shape[0]
    return RowContraction(tuple(row[:, j * m : (j + 1) * m] for j in range(d)))


def _sample(kind, d, m, seed):
    """A row contraction of the given kind: zero, unitary (d = 1),
    coisometric, strict, or a reconstruct(V, delta) mix with rank V = 0..m
    and ||delta|| <= 0.9."""
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return _from_row(np.zeros((m, m * d)), d)
    if kind == "unitary":
        return RowContraction((_unitary(rng, m),))
    if kind == "coisometric":
        return _from_row(_unitary(rng, m * d)[:m], d)
    if kind == "strict":
        return random_contraction(seed, d, m, norm=rng.uniform(0.0, 0.99))
    V = random_partial_isometry(seed, d, m, seed % (m + 1))
    frames = canonical_frames(V)
    shape = (frames.gamma0.shape[1], frames.gammaInf.shape[1])
    delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if delta.size:
        delta *= rng.uniform(0.0, 0.9) / np.linalg.norm(delta, 2)
    return reconstruct(V, delta)


KINDS = st.sampled_from(["zero", "unitary", "coisometric", "strict", "mix"])


def _alpha_case(R, d, m, seed):
    """A contraction alpha for the defect primitive, by seed % 6: the shapes
    (0, 2) and (2, 0), alpha = 0, a partial isometry with sigma = 1 exactly,
    a random alpha of norm 0.9999, and a column block of T's row."""
    rng = np.random.default_rng(seed)
    case = seed % 6
    if case < 2:
        return np.zeros(((0, 2), (2, 0))[case])
    if case == 2:
        return np.zeros((m, m + d))
    if case == 3:
        return np.eye(m, m + d, k=d)
    if case == 4:
        alpha = rng.standard_normal((m + d, m)) + 1j * rng.standard_normal((m + d, m))
        return 0.9999 * alpha / np.linalg.norm(alpha, 2)
    return R[:, : seed % (R.shape[1] + 1)]


@settings(max_examples=60, deadline=None)
@given(KINDS, st.integers(1, 3), st.integers(1, 5), st.integers(0, 10_000))
@example("strict", 2, 3, 0)
@example("strict", 2, 3, 1)
@example("zero", 1, 2, 2)
@example("mix", 3, 2, 3)
@example("strict", 1, 4, 4)
@example("coisometric", 2, 3, 5)
def test_defects_match_psd_sqrt_oracle(kind, d, m, seed):
    # psd_sqrt of the defect matrices is the reference for the roots read
    # off the row's SVD, and for the primitive on a non-square alpha
    T = _sample(kind, d, m, seed)
    R = T.row()
    D_T, D_Tstar = defects(T)
    assert np.abs(D_T - psd_sqrt(np.eye(R.shape[1]) - R.conj().T @ R)).max() <= 1e-13
    assert np.abs(D_Tstar - psd_sqrt(np.eye(R.shape[0]) - R @ R.conj().T)).max() <= 1e-13
    alpha = _alpha_case(R, d, m, seed)
    D_a, D_a_star = _defect_roots(np.linalg.svd(alpha), DEFAULT_TOL)
    for D, G in ((D_a, alpha.conj().T @ alpha), (D_a_star, alpha @ alpha.conj().T)):
        assert np.abs(D - psd_sqrt(np.eye(len(G)) - G)).max(initial=0.0) <= 1e-13


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10_000))
def test_iso_pure_cutoff_is_the_psd_policy(d, m, k, seed):
    # k singular values with 1 - sigma^2 at half the cutoff are isometric;
    # at twice the cutoff, T is pure
    k = min(k, m)
    rng = np.random.default_rng(seed)
    U, W = _unitary(rng, m), _unitary(rng, m * d)
    rest = rng.uniform(0.0, 0.5, m - k)
    for gap, rank in ((DEFAULT_TOL.rank_rel / 2, k), (2 * DEFAULT_TOL.rank_rel, 0)):
        sigma = np.concatenate([np.full(k, np.sqrt(1.0 - gap)), rest])
        T = _from_row((U * sigma) @ W[:, :m].conj().T, d)
        parts = iso_pure_decompose(T)
        frames = canonical_frames(parts.V)
        assert frames.gamma0.shape == (m, m - rank)
        assert frames.gammaInf.shape == (m * d, m * d - rank)
        if rank == 0:
            assert np.array_equal(parts.C.row(), T.row())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.integers(1, 5), st.integers(0, 5), st.integers(0, 10_000))
def test_canonical_frames_sizes_from_one_rank(d, m, rank, seed):
    rank = min(rank, m)
    V = random_partial_isometry(seed, d, m, rank)
    frames = canonical_frames(V)
    g0, gi = frames.gamma0, frames.gammaInf
    assert g0.shape == (m, m - rank) and gi.shape == (m * d, m * d - rank)
    assert np.linalg.norm(g0.conj().T @ g0 - np.eye(m - rank)) < 1e-12
    assert np.linalg.norm(gi.conj().T @ gi - np.eye(m * d - rank)) < 1e-12
    assert np.linalg.norm(g0.conj().T @ V.row()) < 1e-12
    assert np.linalg.norm(V.row() @ gi) < 1e-12


@pytest.mark.parametrize("d", [1, 3])
def test_empty_contraction_constructs(d):
    T = RowContraction((np.zeros((0, 0)),) * d)
    assert T.m == 0 and T.row_svd[1].shape == (0,)
    assert [D.shape for D in defects(T)] == [(0, 0), (0, 0)]
    frames = canonical_frames(iso_pure_decompose(T).V)
    assert frames.gamma0.shape == frames.gammaInf.shape == (0, 0)


def test_typed_errors_for_non_contractions_and_non_finite_input():
    for error in (NotContraction, NotFinite):
        assert issubclass(error, NcdbrError) and issubclass(error, ValueError)
    with pytest.raises(NotContraction):
        RowContraction((np.eye(2) * 1.5,))
    with pytest.raises(NotContraction):
        RowContraction((np.eye(2) * 0.8, np.eye(2) * 0.8))
    f = TruncatedFock(d=1, N=2, coeff_dim=1)
    with pytest.raises(NotContraction):
        dbr_space((1.0 + 2e-8) * np.eye(f.total_dim), f)
    bad = np.eye(2, dtype=complex)
    for value in (np.nan, np.inf):
        bad[1, 0] = value
        for fn in (psd_sqrt, orthonormal_range):
            with pytest.raises(NotFinite):
                fn(bad)
        with pytest.raises(NotFinite):
            dbr_space(np.vstack([bad, bad[:1]]), f)


def test_canonical_frames_rank_is_absolute():
    # sigma^2 of 9e-10 and 1e-10 pass the partial-isometry check, so they
    # count as zero singular values, not as rank relative to sigma_max
    frames = canonical_frames(RowContraction((np.diag([1.0, 3e-5]),)))
    assert frames.gamma0.shape == frames.gammaInf.shape == (2, 1)
    rng = np.random.default_rng(31)
    X = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    tiny = RowContraction((1e-5 * X,))
    frames = canonical_frames(tiny)
    assert frames.gamma0.shape == frames.gammaInf.shape == (2, 2)
    assert char_fn_partial_isometry(tiny).at_zero().shape == (2, 2)


def test_canonical_frames_keep_ties_under_round_off():
    # V = [J, 0] has Ker V = span(e1, e3, e4): the projector's columns tie
    # exactly, and a conjugation by a unitary within 1e-13 of I must move
    # gammaInf by round-off only, not permute it
    J = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    V = RowContraction((J, np.zeros((2, 2))))
    want = canonical_frames(V).gammaInf
    rng = np.random.default_rng(32)
    for _ in range(200):
        H = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        w, Q = np.linalg.eigh(H + H.conj().T)
        U = (Q * np.exp(1e-13j * w)) @ Q.conj().T
        conjugated = RowContraction(tuple(U @ Vj @ U.conj().T for Vj in V.ops))
        assert np.linalg.norm(canonical_frames(conjugated).gammaInf - want, 2) <= 1e-10


def _frame_cases():
    """Random T at row norms 0.3, 0.9, 0.999 and 1.0, partial isometries V
    of every rank and the mixes reconstruct(V, delta)."""
    cases = []
    for d in (1, 2, 3):
        for m in (1, 2, 3, 4, 6):
            cases += [
                random_contraction(seed, d, m, norm)
                for seed in (1, 2, 3)
                for norm in (0.3, 0.9, 0.999, 1.0)
            ]
            for rank in range(m + 1):
                V = random_partial_isometry(10 * d + m + rank, d, m, rank)
                frames = canonical_frames(V)
                shape = (frames.gamma0.shape[1], frames.gammaInf.shape[1])
                delta = np.random.default_rng(rank).standard_normal(shape)
                cases += [V, reconstruct(V, 0.5 * delta / max(1.0, np.linalg.norm(delta)))]
    return cases


def test_isometric_frames_are_the_canonical_frames_of_v():
    # the frames of T's isometric part read off T's own SVD span the same
    # subspaces as V's, and subspace_stable_basis picks one basis of each;
    # a strict T has r = 0, where both sides are identities
    for T in _frame_cases():
        got = _isometric_frames(T, DEFAULT_TOL)
        want = canonical_frames(iso_pure_decompose(T).V)
        for a, b in ((got.gamma0, want.gamma0), (got.gammaInf, want.gammaInf)):
            assert a.shape == b.shape
            if got.gamma0.shape[1] == T.m:
                assert np.array_equal(a, b)
            assert np.linalg.norm(a - b) <= 1e-13
