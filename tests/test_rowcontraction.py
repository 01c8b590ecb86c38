import numpy as np
import pytest

from conftest import random_contraction, random_partial_isometry
from ncdbr.errors import DimensionMismatch, NotFinite, NotPartialIsometry, NotPure
from ncdbr.rowcontraction import (
    RowContraction,
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
