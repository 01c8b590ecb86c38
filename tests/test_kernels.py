import numpy as np
import pytest

from conftest import random_contraction
from ncdbr import RowContraction, char_fn
from ncdbr.charfn import SchurSampler
from ncdbr.errors import DimensionMismatch, NearBoundary
from ncdbr.kernels import (
    _szego_system,
    ad_map,
    cp_check,
    dbr_kernel,
    szego_kernel,
    szego_series,
)
from ncdbr.ncspace import MatrixTuple, sample_ball_point


def test_ad_map_oracle():
    Z = sample_ball_point(2, 2, 0.5, 1)
    W = sample_ball_point(2, 3, 0.5, 2)
    P = np.arange(6.0).reshape(2, 3) + 0j
    expected = sum(Zj @ P @ Wj.conj().T for Zj, Wj in zip(Z.coords, W.coords))
    assert np.allclose(ad_map(Z, W, P), expected)
    with pytest.raises(DimensionMismatch):
        ad_map(Z, W, np.eye(2))


def test_szego_scalar_oracle():
    z, w = 0.3 + 0.2j, -0.4 + 0.1j
    Z = MatrixTuple((np.array([[z]]),))
    W = MatrixTuple((np.array([[w]]),))
    K = szego_kernel(Z, W, np.array([[1.0]]))
    assert abs(K[0, 0] - 1.0 / (1.0 - z * np.conj(w))) < 1e-14


def test_szego_solves_fixed_point():
    Z = sample_ball_point(3, 2, 0.6, 4)
    W = sample_ball_point(3, 2, 0.6, 5)
    P = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    K = szego_kernel(Z, W, P)
    assert np.linalg.norm(K - ad_map(Z, W, K) - P) < 1e-12


def test_szego_series_agrees_with_tail_bound():
    for seed in range(20):
        d = 1 + seed % 3
        n = 1 + seed % 2
        Z = sample_ball_point(d, n, 0.5, seed)
        W = sample_ball_point(d, n, 0.5, seed + 50)
        rng = np.random.default_rng(seed)
        P = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        L = 12
        r = 0.25  # row_norm(Z) * row_norm(W)
        bound = np.linalg.norm(P, 2) * r ** (L + 1) / (1 - r)
        gap = np.linalg.norm(szego_kernel(Z, W, P) - szego_series(Z, W, P, L), 2)
        assert gap <= bound * (1 + 1e-8)
    with pytest.raises(ValueError):
        szego_series(Z, W, P, -1)


def test_szego_near_boundary_warns():
    Z = sample_ball_point(1, 1, 0.9999999, 0)
    with pytest.warns(NearBoundary):
        szego_kernel(Z, Z, np.array([[1.0]]))


def test_dbr_kernel_diag_psd_for_char_fn():
    T = random_contraction(3, 2, 3)
    B = char_fn(T)
    for j in range(3):
        Z = sample_ball_point(2, 1 + j % 2, 0.6, 20 + j)
        K = dbr_kernel(B, Z, Z, np.eye(Z.n))
        K = (K + K.conj().T) / 2
        assert np.linalg.eigvalsh(K)[0] > -1e-10


def test_cp_check_psd_and_negative_control():
    T = random_contraction(4, 2, 3)
    B = char_fn(T)
    Z = sample_ball_point(2, 2, 0.6, 31)
    min_eig, ok = cp_check(B, Z)
    assert ok and min_eig > -1e-9
    # non-Schur fixture: twice the coordinate exceeds the ball
    bad = SchurSampler(
        d=1, input_dim=1, output_dim=1, evaluator=lambda Z: 2.0 * Z.coords[0], tag="bad"
    )
    Zb = sample_ball_point(1, 2, 0.8, 7)
    min_eig, ok = cp_check(bad, Zb)
    assert not ok and min_eig < -1e-6


COISOMETRIES = {
    "flip": (np.array([[0.0, 1.0], [1.0, 0.0]]),),
    "halves": (np.eye(3) / np.sqrt(2), np.eye(3) / np.sqrt(2)),
}


@pytest.mark.parametrize("name", sorted(COISOMETRIES))
def test_cp_check_on_coisometry_is_empty_and_psd(name):
    # B_T of a coisometric T has output dimension 0, so the Choi matrix is
    # 0 x 0: PSD, with no eigenvalue to report
    ops = COISOMETRIES[name]
    B = char_fn(RowContraction(ops))
    assert B.output_dim == 0
    for n in (1, 2):
        assert cp_check(B, sample_ball_point(len(ops), n, 0.5, 7)) == (None, True)


def test_cp_check_evaluates_sampler_once():
    T = random_contraction(4, 2, 3)
    B = char_fn(T)
    calls = []

    def counted(Z):
        calls.append(Z)
        return B(Z)

    C = SchurSampler(d=2, input_dim=B.input_dim, output_dim=B.output_dim, evaluator=counted)
    Z = sample_ball_point(2, 3, 0.6, 31)
    min_eig, ok = cp_check(C, Z)
    assert len(calls) == 1 and ok
    # reference: the Choi matrix assembled block by block from dbr_kernel
    n, k = Z.n, B.output_dim * Z.n
    choi = np.zeros((n * k, n * k), dtype=complex)
    for p in range(n):
        for q in range(n):
            E = np.zeros((n, n))
            E[p, q] = 1.0
            choi[p * k : (p + 1) * k, q * k : (q + 1) * k] = dbr_kernel(B, Z, Z, E)
    expected = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0]
    assert abs(min_eig - expected) < 1e-12


@pytest.mark.parametrize("d", [1, 2, 3])
def test_szego_system_matches_kron_reference(d):
    # mixed levels: Z and W need not share a level
    for n, k in ((1, 1), (1, 3), (2, 3), (4, 2)):
        Z = sample_ball_point(d, n, 0.6, 60 + n)
        W = sample_ball_point(d, k, 0.6, 70 + k)
        ref = np.eye(n * k) - sum(np.kron(Wj.conj(), Zj) for Zj, Wj in zip(Z.coords, W.coords))
        gap = np.linalg.norm(_szego_system(Z, W) - ref)
        assert gap <= 1e-15 * np.linalg.norm(ref)


def _dbr_kernel_kron(B, Z, W, P):
    """The de Branges-Rovnyak kernel with its K (x) I lifts and the Szego
    system written with np.kron."""
    M = np.eye(Z.n * W.n) - sum(np.kron(Wj.conj(), Zj) for Zj, Wj in zip(Z.coords, W.coords))
    K = np.linalg.solve(M, P.ravel(order="F")).reshape(P.shape, order="F")
    lifted_out = np.kron(K, np.eye(B.output_dim))
    lifted_in = np.kron(K, np.eye(B.input_dim))
    return lifted_out - B(Z) @ lifted_in @ B(W).conj().T


@pytest.mark.parametrize("d, m", [(1, 3), (2, 2), (3, 2)])
def test_dbr_kernel_and_cp_check_match_kron_reference(d, m):
    B = char_fn(random_contraction(80 + d, d, m))
    rng = np.random.default_rng(d)
    for n, k in ((1, 2), (2, 2), (3, 1)):
        Z = sample_ball_point(d, n, 0.6, 90 + n)
        W = sample_ball_point(d, k, 0.6, 95 + k)
        P = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
        assert np.abs(dbr_kernel(B, Z, W, P) - _dbr_kernel_kron(B, Z, W, P)).max() <= 1e-14
        o = B.output_dim * n
        choi = np.zeros((n * o, n * o), dtype=complex)
        for p in range(n):
            for q in range(n):
                E = np.zeros((n, n))
                E[p, q] = 1.0
                choi[p * o : (p + 1) * o, q * o : (q + 1) * o] = _dbr_kernel_kron(B, Z, Z, E)
        expected = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)[0]
        assert abs(cp_check(B, Z)[0] - expected) <= 1e-14
