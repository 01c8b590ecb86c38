import numpy as np
import pytest

import ncdbr.realization as realization_module
from conftest import random_contraction
from ncdbr.errors import DimensionMismatch, SingularPencil
from ncdbr.ncspace import (
    MatrixTuple,
    coeff_lift,
    point_block,
    sample_ball_point,
    word_apply,
    words_up_to,
)
from ncdbr.numerics import DEFAULT_TOL, _ill_condition, orthonormal_range
from ncdbr.realization import (
    Colligation,
    is_coisometric,
    is_observable,
    taylor_coeff,
    transfer_eval,
)
from ncdbr.rowcontraction import cnc_rank, defects, julia_matrix
from ncdbr import popescu_char


def _random_colligation(seed, d, s, p, q):
    rng = np.random.default_rng(seed)
    cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
    A = tuple(0.4 * cm(s, s) / np.sqrt(s) for _ in range(d))
    B = tuple(cm(s, q) for _ in range(d))
    return Colligation(A=A, B=B, C=cm(p, s), D=cm(p, q))


def test_colligation_validation():
    with pytest.raises(DimensionMismatch):
        Colligation(A=(), B=(), C=np.eye(1), D=np.eye(1))
    with pytest.raises(DimensionMismatch):
        Colligation(A=(np.eye(2),), B=(np.zeros((3, 1)),), C=np.eye(2), D=np.eye(2))
    c = _random_colligation(0, 2, 3, 2, 2)
    assert c.d == 2 and c.state_dim == 3
    assert c.block_matrix().shape == (2 * 3 + 2, 3 + 2)


def test_transfer_matches_taylor_on_nilpotent_point():
    # strictly upper-triangular coordinates are jointly nilpotent, so the
    # Taylor series terminates and reassembly is exact
    c = _random_colligation(1, 2, 3, 2, 2)
    n = 3
    rng = np.random.default_rng(5)
    coords = []
    for _ in range(2):
        M = np.zeros((n, n), dtype=complex)
        M[np.triu_indices(n, 1)] = 0.3 * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n)
        )
        coords.append(M)
    Z = MatrixTuple(tuple(coords))
    direct = transfer_eval(c, Z)
    series = sum(
        np.kron(word_apply(Z.coords, w), taylor_coeff(c, w)) for w in words_up_to(2, n)
    )
    assert np.linalg.norm(direct - series) < 1e-12


def test_taylor_coeff_formulas():
    c = _random_colligation(2, 2, 3, 2, 2)
    assert np.allclose(taylor_coeff(c, ()), c.D)
    assert np.allclose(taylor_coeff(c, (2,)), c.C @ c.B[1])
    assert np.allclose(taylor_coeff(c, (1, 2)), c.C @ c.A[0] @ c.B[1])


def test_transfer_singular_pencil():
    c = Colligation(A=(np.eye(1),), B=(np.eye(1),), C=np.eye(1), D=np.zeros((1, 1)))
    Z = MatrixTuple((np.array([[1.0]]),))
    with pytest.raises(SingularPencil):
        transfer_eval(c, Z)
    with pytest.raises(DimensionMismatch):
        transfer_eval(c, sample_ball_point(2, 1, 0.5, 0))


def _svd_checked_transfer(c, X):
    """transfer_eval with the SVD condition check on every pencil: the
    value, or the error type it raises."""
    pencil = np.eye(c.state_dim * X.n) - point_block(X, c.A)
    if _ill_condition(pencil, DEFAULT_TOL) is not None:
        return SingularPencil
    rhs = point_block(X, c.B)
    return coeff_lift(c.D, X.n) + coeff_lift(c.C, X.n) @ np.linalg.solve(pencil, rhs)


def _point_of_row_norm(rng, d, n, rho):
    coords = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
    scale = rho / np.linalg.norm(np.hstack(coords), 2)
    return MatrixTuple(tuple(c * scale for c in coords))


RHOS = (0.5, 1 - 1e-6, 1 - 3e-10, 1 - 1.5e-10, 1 - 1e-11, 1.0, 1 + 1e-11, 1.5)


@pytest.mark.parametrize("seed", range(4))
def test_transfer_eval_checks_condition_only_past_norm_bound(monkeypatch, seed):
    # cond(pencil) <= (1 + rho) / (1 - rho) with rho = ||X||_row ||A||_col:
    # the SVD check is skipped where that bound rules out a singular pencil,
    # and the value or error equals that of a check on every pencil
    checks = []

    def counted(M, tol):
        checks.append(M.shape)
        return _ill_condition(M, tol)

    monkeypatch.setattr(realization_module, "_ill_condition", counted)
    rng = np.random.default_rng(seed)
    d = 1 + seed % 3
    c = _random_colligation(60 + seed, d, 3, 2, 2)
    # a random colligation at ||A||_col = 1, and one whose pencil at the
    # scalar point rho is diag(1 - rho, 1 - rho / 2), singular at rho = 1
    aligned = Colligation(
        A=(np.diag([1.0, 0.5]),) + (np.zeros((2, 2)),) * (d - 1),
        B=(np.ones((2, 1)),) * d,
        C=np.ones((1, 2)),
        D=np.zeros((1, 1)),
    )
    c = Colligation(A=tuple(a / c.A_norm for a in c.A), B=c.B, C=c.C, D=c.D)
    assert abs(c.A_norm - 1.0) <= 1e-14 and aligned.A_norm == 1.0
    singular = 0
    for rho in RHOS:
        scalar = MatrixTuple((np.array([[rho]]),) + (np.zeros((1, 1)),) * (d - 1))
        for colligation, X in ((c, _point_of_row_norm(rng, d, 1 + seed % 2, rho)), (aligned, scalar)):
            checks.clear()
            want = _svd_checked_transfer(colligation, X)
            if want is SingularPencil:
                singular += 1
                with pytest.raises(SingularPencil):
                    transfer_eval(colligation, X)
            else:
                assert np.array_equal(transfer_eval(colligation, X), want)
            bound = X.row_norm * colligation.A_norm
            if 1.0 - bound > DEFAULT_TOL.rank_rel * (1.0 + bound) + 1e-12:
                assert not checks
            if rho >= 1.0:
                assert checks
    # the aligned pencil is singular to rank_rel at 1 - 1e-11 and at 1
    assert singular >= 2


def test_julia_transfer_equals_popescu():
    for seed in range(5):
        d = 1 + seed % 3
        T = random_contraction(seed, d, 2 + seed % 3)
        J = julia_matrix(T)
        assert is_coisometric(J)
        D_T, D_Ts = defects(T)
        F_in = orthonormal_range(D_T)
        F_out = orthonormal_range(D_Ts)
        P = popescu_char(T)
        for j in range(4):
            Z = sample_ball_point(d, 1 + j % 2, 0.6, 40 + j)
            compressed = (
                coeff_lift(F_out.conj().T, Z.n)
                @ transfer_eval(J, Z)
                @ coeff_lift(F_in, Z.n)
            )
            assert np.linalg.norm(compressed - P(Z), 2) < 1e-10


def test_observability_tracks_cnc():
    T = random_contraction(3, 2, 3)
    assert is_observable(julia_matrix(T)) == cnc_rank(T).is_cnc
    U = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    from ncdbr.rowcontraction import RowContraction

    TU = RowContraction((U,))
    assert is_observable(julia_matrix(TU)) == cnc_rank(TU).is_cnc == False
