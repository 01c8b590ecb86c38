import numpy as np
import pytest

from ncdbr.errors import DimensionMismatch, NotFinite, SingularSimilarity
from ncdbr.ncspace import (
    FreeWord,
    MatrixTuple,
    coeff_lift,
    conjugate,
    direct_sum,
    in_row_ball,
    op_tensor,
    pencil_tz_star,
    pencil_zt_star,
    point_block,
    row_norm,
    sample_ball_point,
    word_apply,
    words_up_to,
    zero_tuple,
)


def test_matrix_tuple_validation():
    with pytest.raises(DimensionMismatch):
        MatrixTuple(())
    with pytest.raises(DimensionMismatch):
        MatrixTuple((np.zeros((2, 2)), np.zeros((3, 3))))
    Z = MatrixTuple((np.eye(2), np.zeros((2, 2))))
    assert Z.d == 2 and Z.n == 2
    for bad in (np.nan, np.inf, -np.inf, complex(np.inf, 0.0)):
        with pytest.raises(NotFinite):
            MatrixTuple((np.eye(2), np.array([[0.0, bad], [0.0, 0.0]])))


def test_free_word_monoid():
    w = FreeWord((1, 2))
    v = FreeWord((3,))
    assert (w * v).letters == (1, 2, 3)
    assert len(w) == 2
    assert w.transpose.letters == (2, 1)
    assert FreeWord(()).letters == ()
    with pytest.raises(ValueError):
        FreeWord((0,))


def test_row_norm_and_ball():
    Z = MatrixTuple((np.array([[0.3]]), np.array([[0.4]])))
    assert abs(row_norm(Z) - 0.5) < 1e-14
    assert in_row_ball(Z)
    assert not in_row_ball(Z, margin=0.6)
    with pytest.raises(ValueError):
        in_row_ball(Z, margin=-1.0)


def test_direct_sum_blocks():
    Z = sample_ball_point(2, 2, 0.5, 1)
    W = sample_ball_point(2, 3, 0.5, 2)
    S = direct_sum(Z, W)
    assert S.n == 5
    assert np.allclose(S.coords[0][:2, :2], Z.coords[0])
    assert np.allclose(S.coords[1][2:, 2:], W.coords[1])
    assert np.allclose(S.coords[0][:2, 2:], 0)


def test_conjugate_and_errors(rng):
    Z = sample_ball_point(2, 3, 0.5, 3)
    S = np.eye(3) + 0.1 * (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    C = conjugate(Z, S)
    assert np.allclose(S @ C.coords[0], Z.coords[0] @ S)
    with pytest.raises(SingularSimilarity):
        conjugate(Z, np.zeros((3, 3)))
    with pytest.raises(DimensionMismatch):
        conjugate(Z, np.eye(2))


def test_sample_ball_point_exact_radius_and_determinism():
    Z = sample_ball_point(3, 2, 0.7, 42)
    assert abs(row_norm(Z) - 0.7) < 1e-12
    Z2 = sample_ball_point(3, 2, 0.7, 42)
    assert all(np.array_equal(a, b) for a, b in zip(Z.coords, Z2.coords))
    assert row_norm(sample_ball_point(2, 2, 0.0, 5)) == 0.0
    with pytest.raises(ValueError):
        sample_ball_point(1, 1, 1.0, 0)


def test_word_apply_oracle():
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    B = np.array([[1.0, 0.0], [0.0, 2.0]])
    assert np.allclose(word_apply([A, B], FreeWord((1, 2))), A @ B)
    assert np.allclose(word_apply([A, B], ()), np.eye(2))
    with pytest.raises(DimensionMismatch):
        word_apply([A], FreeWord((2,)))


def test_words_up_to_graded_lex():
    ws = words_up_to(2, 2)
    assert [w.letters for w in ws] == [
        (), (1,), (2,), (1, 1), (1, 2), (2, 1), (2, 2),
    ]


def test_layout_helpers():
    A = np.array([[1.0, 2.0], [3.0, 4.0]])
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.array_equal(op_tensor(A, M), np.kron(M, A))
    assert np.array_equal(coeff_lift(A, 2), np.kron(np.eye(2), A))


def test_pencils_scalar_oracle():
    T = [np.array([[0.5]])]
    Z = MatrixTuple((np.array([[0.3 + 0.1j]]),))
    assert np.allclose(pencil_tz_star(T, Z), 1 - 0.5 * (0.3 - 0.1j))
    assert np.allclose(pencil_zt_star(T, Z), 1 - 0.5 * (0.3 + 0.1j))
    assert np.allclose(
        pencil_zt_star(T, Z), pencil_tz_star(T, Z).conj().T
    )


def test_point_block_matches_lift():
    # applying [I (x) Z] to a lifted stack equals the kron sum by blocks
    Z = sample_ball_point(2, 2, 0.5, 9)
    b1 = np.array([[1.0, 0.0]])
    b2 = np.array([[0.0, 1.0]])
    out = point_block(Z, [b1, b2])
    expected = np.kron(Z.coords[0], b1) + np.kron(Z.coords[1], b2)
    assert np.allclose(out, expected)


def test_zero_tuple():
    Z = zero_tuple(2, 3)
    assert Z.d == 2 and Z.n == 3 and row_norm(Z) == 0.0
