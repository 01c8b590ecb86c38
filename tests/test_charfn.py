import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ncdbr.charfn as charfn_module
from conftest import ball_points, random_contraction, random_partial_isometry
from dense_coincidence import constraint_rows, dense_null
from ncdbr.charfn import (
    SchurSampler,
    _apply_constraints,
    _constraint_gram,
    _null_vectors,
    char_fn,
    char_fn_partial_isometry,
    frostman_shift,
    model_gamma,
    moebius,
    moebius_inv,
    popescu_char,
    pure_unitary_split,
    support_frames,
    theta_map,
    weak_coincidence_fit,
    xi_map,
)
from ncdbr.errors import ConstancyViolated, DimensionMismatch, NotStrict, OutsideBall
from ncdbr.ncspace import (
    MatrixTuple,
    coeff_lift,
    conjugate,
    direct_sum,
    point_block,
    row_norm,
    sample_ball_point,
)
from ncdbr.numerics import DEFAULT_TOL, _svd_rank
from ncdbr.realization import transfer_eval
from ncdbr.rowcontraction import (
    RowContraction,
    canonical_frames,
    defect_point,
    iso_pure_decompose,
    reconstruct,
)

JORDAN = RowContraction((np.array([[0.0, 0.0], [1.0, 0.0]]),))
HALF = RowContraction((np.array([[0.5]]),))


def scalar_point(z):
    return MatrixTuple((np.array([[complex(z)]]),))


def test_scalar_classical_reduction():
    B = char_fn(HALF)
    for z in np.linspace(-0.8, 0.8, 10):
        expected = (z - 0.5) / (1.0 - 0.5 * z)
        assert abs(B(scalar_point(z))[0, 0] - expected) < 1e-10


def test_jordan_char_is_z_squared():
    B = char_fn_partial_isometry(JORDAN)
    for z in (0.3, -0.5, 0.2 + 0.4j):
        assert abs(B(scalar_point(z))[0, 0] - z * z) < 1e-10
    # level 2: the same identity holds entrywise
    Z = sample_ball_point(1, 2, 0.6, 3)
    assert np.linalg.norm(B(Z) - Z.coords[0] @ Z.coords[0]) < 1e-10


def test_char_fn_zero_values():
    V = random_partial_isometry(1, 2, 3, 1)
    BV = char_fn_partial_isometry(V)
    assert np.linalg.norm(BV.at_zero()) < 1e-12
    T = random_contraction(2, 2, 3)
    assert np.linalg.norm(char_fn(T).at_zero() - defect_point(T), 2) < 1e-10


def test_char_fn_of_partial_isometry_is_bv():
    V = random_partial_isometry(4, 2, 3, 2)
    B1 = char_fn(V)
    B2 = char_fn_partial_isometry(V)
    for Z in ball_points(2, 4, seed=10):
        assert np.linalg.norm(B1(Z) - B2(Z), 2) < 1e-10


def test_char_fn_zero_operator_is_coordinate_row():
    T = RowContraction((np.zeros((1, 1)), np.zeros((1, 1))))
    B = char_fn(T)
    Z = sample_ball_point(2, 2, 0.6, 8)
    # input coefficient index is fast, so the row interleaves coordinates
    expected = np.kron(Z.coords[0], [[1.0, 0.0]]) + np.kron(Z.coords[1], [[0.0, 1.0]])
    assert np.linalg.norm(B(Z) - expected) < 1e-12


def test_model_gamma_examples():
    frames = canonical_frames(JORDAN)
    Z0 = MatrixTuple((np.zeros((1, 1)),))
    assert np.allclose(model_gamma(JORDAN, Z0), frames.gamma0)
    # scalar z: the resolvent applied to e1 gives (1, z) for the Jordan block
    Z = scalar_point(0.4)
    assert np.allclose(model_gamma(JORDAN, Z), [[1.0], [0.4]])
    V0 = RowContraction((np.zeros((2, 2)),))
    f0 = canonical_frames(V0)
    Z = sample_ball_point(1, 2, 0.5, 2)
    assert np.allclose(model_gamma(V0, Z), coeff_lift(f0.gamma0, 2))


def test_nc_function_axioms():
    T = random_contraction(5, 2, 3)
    B = char_fn(T)
    Z = sample_ball_point(2, 1, 0.5, 21)
    W = sample_ball_point(2, 2, 0.5, 22)
    # direct sums are respected
    val = B(direct_sum(Z, W))
    blocks = val.reshape(3, B.output_dim, 3, B.input_dim)
    gz = B(Z).reshape(1, B.output_dim, 1, B.input_dim)
    gw = B(W).reshape(2, B.output_dim, 2, B.input_dim)
    assert np.linalg.norm(blocks[:1, :, :1, :] - gz) < 1e-9
    assert np.linalg.norm(blocks[1:, :, 1:, :] - gw) < 1e-9
    assert np.linalg.norm(blocks[:1, :, 1:, :]) < 1e-9
    # unitary similarity is respected
    rng = np.random.default_rng(9)
    Q = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    Wq = conjugate(W, Q)
    lhs = B(Wq)
    rhs = (
        np.kron(np.linalg.inv(Q), np.eye(B.output_dim))
        @ B(W)
        @ np.kron(Q, np.eye(B.input_dim))
    )
    assert np.linalg.norm(lhs - rhs) < 1e-9


def test_nc_schwarz_for_bv():
    for seed in range(4):
        V = random_partial_isometry(70 + seed, 1 + seed % 3, 3, 1)
        B = char_fn_partial_isometry(V)
        for Z in ball_points(V.d, 4, radius=0.6, seed=33):
            val = B(Z)
            if val.size:
                assert np.linalg.norm(val, 2) <= row_norm(Z) + 1e-8


def test_moebius_inverse_composition(rng):
    for trial in range(10):
        p, q = 2 + trial % 2, 3 - trial % 2
        alpha = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        alpha *= 0.6 / np.linalg.norm(alpha, 2)
        zeta = rng.standard_normal((2 * p, 2 * q)) + 1j * rng.standard_normal((2 * p, 2 * q))
        zeta *= 0.8 / np.linalg.norm(zeta, 2)
        w = moebius(alpha, zeta)
        assert np.linalg.norm(w, 2) < 1.0
        assert np.linalg.norm(moebius_inv(alpha, w) - zeta) < 1e-10
        assert np.linalg.norm(moebius(alpha, coeff_lift(alpha, 2))) < 1e-12


def test_moebius_factorization_and_adjunction(rng):
    for trial in range(10):
        p, q, m, n = 2, 3, 2, 3
        cm = lambda r, c: rng.standard_normal((r, c)) + 1j * rng.standard_normal((r, c))
        alpha = cm(p, q)
        alpha *= 0.6 / np.linalg.norm(alpha, 2)
        beta = cm(p * m, q * m)
        beta *= 0.8 / np.linalg.norm(beta, 2)
        gamma = cm(p * n, q * n)
        gamma *= 0.8 / np.linalg.norm(gamma, 2)
        assert (
            np.linalg.norm(xi_map(alpha, beta) @ theta_map(alpha, beta) - moebius(alpha, beta))
            < 1e-10
        )
        A = cm(m, n)
        lhs = np.kron(A, np.eye(p)) - moebius(alpha, beta) @ np.kron(A, np.eye(q)) @ moebius(
            alpha, gamma
        ).conj().T
        rhs = (
            xi_map(alpha, beta)
            @ (np.kron(A, np.eye(p)) - beta @ np.kron(A, np.eye(q)) @ gamma.conj().T)
            @ xi_map(alpha, gamma).conj().T
        )
        assert np.linalg.norm(lhs - rhs) < 1e-9


def test_moebius_rejects_non_strict():
    with pytest.raises(NotStrict):
        moebius(np.eye(2), np.zeros((2, 2)))
    # a defect 1 - ||alpha||^2 at or below rank_rel would be rooted to zero
    with pytest.raises(NotStrict):
        moebius(np.array([[1.0 - 1e-11]]), np.array([[0.5]]))
    assert abs(moebius(np.array([[1.0 - 1e-9]]), np.array([[0.5]]))[0, 0] + 1.0) < 1e-6


def test_frostman_fixed_point():
    for seed in range(4):
        T = random_contraction(seed, 1 + seed % 3, 2 + seed % 2)
        B = char_fn(T)
        shifted = frostman_shift(B, B.at_zero())
        for Z in ball_points(T.d, 3, seed=44):
            assert np.linalg.norm(B(Z) - shifted(Z), 2) < 1e-9


def test_frostman_moves_value_at_zero():
    T = random_contraction(6, 2, 2)
    B = char_fn(T)
    p, q = B.output_dim, B.input_dim
    rng = np.random.default_rng(7)
    alpha = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
    alpha *= 0.5 / np.linalg.norm(alpha, 2)
    shifted = frostman_shift(B, alpha)
    assert np.linalg.norm(shifted.at_zero() - alpha, 2) < 1e-9
    with pytest.raises(DimensionMismatch):
        frostman_shift(B, np.zeros((p + 1, q)))


def _defect_roots(alpha):
    """D_a, D_a^{-1}, D_{a*} and D_{a*}^{-1} from two eigh calls."""

    def roots(M):
        w, U = np.linalg.eigh(M)
        return (U * np.sqrt(w)) @ U.conj().T, (U / np.sqrt(w)) @ U.conj().T

    p, q = alpha.shape
    return roots(np.eye(q) - alpha.conj().T @ alpha) + roots(np.eye(p) - alpha @ alpha.conj().T)


def _moebius_quotients(alpha, zeta, ell):
    """The paper's quotient forms of the Moebius map and its inverse,
    D_{a*} (I - zeta a*)^{-1} (zeta - a) D_a^{-1} and
    D_{a*}^{-1} (zeta + a)(I + a* zeta)^{-1} D_a, amplified by np.kron."""
    lift = lambda M: np.kron(np.eye(ell), M)
    D_a, D_a_inv, D_as, D_as_inv = map(lift, _defect_roots(alpha))
    a, a_star = lift(alpha), lift(alpha.conj().T)
    I_out, I_in = np.eye(zeta.shape[0]), np.eye(zeta.shape[1])
    forward = D_as @ np.linalg.inv(I_out - zeta @ a_star) @ (zeta - a) @ D_a_inv
    inverse = D_as_inv @ (zeta + a) @ np.linalg.inv(I_in + a_star @ zeta) @ D_a
    return forward, inverse


def _moebius_cases(rng, norm, count):
    for trial in range(count):
        p, q, ell = 1 + trial % 3, 1 + (trial // 3) % 3, 1 + trial % 4
        alpha = rng.standard_normal((p, q)) + 1j * rng.standard_normal((p, q))
        alpha *= norm / np.linalg.norm(alpha, 2)
        shape = (p * ell, q * ell)
        zeta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zeta *= 0.9 / np.linalg.norm(zeta, 2)
        yield alpha, zeta, ell


@pytest.mark.parametrize("norm", [0.0, 0.3, 0.6, 0.9, 0.99])
def test_moebius_matches_quotient_forms(rng, norm):
    for alpha, zeta, ell in _moebius_cases(rng, norm, 36):
        forward, inverse = _moebius_quotients(alpha, zeta, ell)
        assert np.linalg.norm(moebius(alpha, zeta) - forward, 2) <= 1e-12
        assert np.linalg.norm(moebius_inv(alpha, zeta) - inverse, 2) <= 1e-12


@pytest.mark.parametrize("norm", [0.99, 0.999, 0.9999])
def test_moebius_round_trip_near_the_boundary(rng, norm):
    for alpha, zeta, ell in _moebius_cases(rng, norm, 100):
        assert np.linalg.norm(moebius_inv(alpha, moebius(alpha, zeta)) - zeta, 2) <= 1e-10
        assert np.linalg.norm(moebius(alpha, moebius_inv(alpha, zeta)) - zeta, 2) <= 1e-10


@pytest.mark.parametrize("shape", [(0, 2), (2, 0), (0, 0)])
def test_moebius_of_empty_alpha(shape):
    alpha = np.zeros(shape)
    p, q = shape
    for ell in (1, 2, 3):
        zeta = np.zeros((p * ell, q * ell))
        for f in (moebius, moebius_inv, theta_map):
            assert f(alpha, zeta).shape == zeta.shape
        assert xi_map(alpha, zeta).shape == (p * ell, p * ell)
    # a zero side that grows, or a width that is no multiple of alpha's
    for f in (moebius, moebius_inv, xi_map, theta_map):
        for bad in ((p + 1, q), (p, q + 1)):
            with pytest.raises(DimensionMismatch):
                f(alpha, np.zeros(bad))


def _frostman_case(seed, norm):
    T = random_contraction(seed, 2, 3)
    B = char_fn(T)
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal(B.at_zero().shape) + 1j * rng.standard_normal(B.at_zero().shape)
    return B, alpha * norm / np.linalg.norm(alpha, 2)


def test_frostman_takes_no_pinv_and_two_solves_per_value(monkeypatch):
    import ncdbr.numerics

    B, alpha = _frostman_case(21, 0.7)
    points = ball_points(2, 4, radius=0.6, seed=71, levels=(1, 2, 3))
    pinvs, solves = [], []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    for module in (charfn_module, ncdbr.numerics):
        real = module.pinv
        monkeypatch.setattr(module, "pinv", lambda *a, real=real: pinvs.append(a) or real(*a))
    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    shifted = frostman_shift(B, alpha)
    for Z in points:
        solves.clear()
        B(Z)
        own = len(solves)
        solves.clear()
        shifted(Z)
        assert len(solves) == own + 2
    assert not pinvs


def test_frostman_at_zero_alpha_is_one_moebius_map():
    B = char_fn(random_contraction(22, 2, 3))
    shifted = frostman_shift(B, np.zeros_like(B.at_zero()))
    for Z in ball_points(2, 4, radius=0.6, seed=72, levels=(1, 2, 3)):
        assert np.array_equal(shifted(Z), moebius(B.at_zero(), B(Z)))
    assert np.abs(shifted.at_zero()).max() <= 1e-14


@pytest.mark.parametrize("norm", [1.0, 1.5])
def test_frostman_rejects_non_strict_alpha(norm):
    B, alpha = _frostman_case(23, norm)
    with pytest.raises(NotStrict):
        frostman_shift(B, alpha)


def test_weak_coincidence_positive_and_negative():
    T = random_contraction(11, 2, 3)
    fit = ball_points(2, 6, seed=100)
    hold = ball_points(2, 4, seed=900)
    _, _, res, ok = weak_coincidence_fit(char_fn(T), popescu_char(T), fit, hold)
    assert ok and res < 1e-8
    # z against z^2 admits no constant-unitary intertwining
    b1 = SchurSampler(d=1, input_dim=1, output_dim=1, evaluator=lambda Z: Z.coords[0], tag="z")
    b2 = SchurSampler(
        d=1, input_dim=1, output_dim=1, evaluator=lambda Z: Z.coords[0] @ Z.coords[0], tag="zz"
    )
    fit1 = ball_points(1, 6, seed=100)
    hold1 = ball_points(1, 4, seed=900)
    _, _, res, ok = weak_coincidence_fit(b1, b2, fit1, hold1)
    assert not ok and res > 1e-3


def _assert_unitary(U):
    assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), 2) < 1e-10


def _direct_sum_contraction(A, B):
    ops = []
    for a, b in zip(A.ops, B.ops):
        blk = np.zeros((A.m + B.m, A.m + B.m), dtype=complex)
        blk[: A.m, : A.m] = a
        blk[A.m :, A.m :] = b
        ops.append(blk)
    return RowContraction(tuple(ops))


@pytest.mark.parametrize("d", [1, 2])
def test_weak_coincidence_reducible_direct_sum(d):
    # a reducible pair has several intertwiners; only a generic
    # combination of them is invertible
    T = _direct_sum_contraction(
        random_contraction(30 + d, d, 2), random_contraction(40 + d, d, 2, norm=0.6)
    )
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
    T2 = RowContraction(tuple(Q @ op @ Q.conj().T for op in T.ops))
    fit = ball_points(d, 6, seed=100)
    hold = ball_points(d, 4, seed=900)
    for B2 in (char_fn(T2), popescu_char(T)):
        U_out, U_in, res, ok = weak_coincidence_fit(char_fn(T), B2, fit, hold)
        assert ok and res < 1e-8
        _assert_unitary(U_out)
        _assert_unitary(U_in)


@pytest.mark.parametrize("d, m", [(1, 3), (2, 5), (3, 3)])
def test_weak_coincidence_one_fit_point(d, m):
    # Z = 0 and one level-1 point identify the pair once the adjoint
    # relation is stacked with the direct one
    T = random_contraction(10 * d + m, d, m)
    rng = np.random.default_rng(d * 100 + m)
    Q = np.linalg.qr(rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m)))[0]
    T2 = RowContraction(tuple(Q @ op @ Q.conj().T for op in T.ops))
    fit = ball_points(d, 1, seed=100)
    hold = ball_points(d, 4, seed=900)
    for B2 in (char_fn(T2), popescu_char(T)):
        _, _, res, ok = weak_coincidence_fit(char_fn(T), B2, fit, hold)
        assert ok and res < 1e-8
    _, _, res, ok = weak_coincidence_fit(
        char_fn(T), char_fn(random_contraction(500 + m, d, m)), fit, hold
    )
    assert not ok and res > 1e-3


def test_null_vectors_with_fewer_rows_than_unknowns():
    rng = np.random.default_rng(4)
    # full row rank 3 in 5 unknowns: the null space is the 2-dimensional
    # complement of the row space, which a reduced SVD does not return
    A = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
    N = _null_vectors(A, DEFAULT_TOL)
    assert N.shape == (5, 2)
    assert np.linalg.norm(A @ N) < 1e-12
    assert np.linalg.norm(N.conj().T @ N - np.eye(2)) < 1e-12
    # full column rank: still one vector, the least singular direction
    A = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    N = _null_vectors(A, DEFAULT_TOL)
    s = np.linalg.svd(A, compute_uv=False)
    assert N.shape == (4, 1)
    assert abs(np.linalg.norm(A @ N) - s[-1]) < 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_null_vectors_of_tall_matrix_match_full_svd(k):
    # planted null space of dimension k: one singular value at 0.1 x the
    # cutoff and k - 1 zeros, with a kept one at 10 x the cutoff
    cut = DEFAULT_TOL.rank_rel
    for seed in range(4):
        rng = np.random.default_rng(10 * seed + k)
        rows, cols = 150, 24
        U, V = (
            np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
            for shape in ((rows, cols), (cols, cols))
        )
        s = np.concatenate(
            [[1.0], rng.uniform(0.1, 1.0, cols - k - 2), [10 * cut, 0.1 * cut], np.zeros(k - 1)]
        )
        A = (U * s) @ V.conj().T
        _, sr, Vh = np.linalg.svd(A)
        ref = Vh[_svd_rank(sr, DEFAULT_TOL) :].conj().T
        N = _null_vectors(A, DEFAULT_TOL)
        assert N.shape == ref.shape == (cols, k)
        assert np.linalg.norm(N @ N.conj().T - ref @ ref.conj().T, 2) <= 1e-12
        # both sit within round-off over the 1e-9 gap of the planted space
        planted = V[:, cols - k :]
        assert np.linalg.norm(N @ N.conj().T - planted @ planted.conj().T, 2) <= 1e-6


def test_weak_coincidence_support_mismatch():
    b1 = SchurSampler(d=1, input_dim=1, output_dim=1, evaluator=lambda Z: Z.coords[0], tag="z")
    zero = SchurSampler(
        d=1,
        input_dim=1,
        output_dim=1,
        evaluator=lambda Z: np.zeros((Z.n, Z.n), dtype=complex),
        tag="0",
    )
    fit = ball_points(1, 5, seed=100)
    hold = ball_points(1, 3, seed=900)
    _, _, res, ok = weak_coincidence_fit(b1, zero, fit, hold)
    assert not ok and res == float("inf")


def _random_values(rng, n, p, q):
    shape = (n, p, n, q)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("p, q", [(2, 3), (3, 1), (1, 1), (4, 0)])
def test_constraint_gram_matches_dense_rows(p, q):
    # values at levels 1..3; (4, 0) is an empty input support, where every
    # constraint row is empty and the Gram is zero
    rng = np.random.default_rng(10 * p + q)
    pairs = [(_random_values(rng, n, p, q), _random_values(rng, n, p, q)) for n in (1, 2, 3, 2)]
    rows = constraint_rows(pairs)
    ref = rows.conj().T @ rows
    A, C = (
        np.concatenate([M.transpose(0, 2, 1, 3).reshape(len(M) ** 2, p, q) for M in stack])
        for stack in zip(*pairs)
    )
    # G assembled from the returned blocks: G_YY from its eigenpairs and
    # the cross block rotated back
    G_XX, (lam_X, X_top), gamma, Q_C, delta, Q_A, H = _constraint_gram(A, C)
    R = np.kron(Q_C, Q_A)
    G_YY = (R * np.add.outer(gamma, delta).ravel()) @ R.conj().T
    G = np.block([[G_XX, H @ R.conj().T], [R @ H.conj().T, G_YY]])
    assert G.shape == ref.shape == (p * p + q * q, p * p + q * q)
    assert np.linalg.norm(G - ref, 2) <= 1e-12 * max(np.linalg.norm(ref, 2), 1.0)
    # G_XX's top eigenpair, from its two p x p factors
    scale = max(np.linalg.norm(G_XX, 2), 1.0)
    assert abs(lam_X - np.linalg.eigvalsh(G_XX)[-1]) <= 1e-12 * scale
    x = X_top.ravel()
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert np.linalg.norm(G_XX @ x - lam_X * x) <= 1e-12 * scale
    # the constraints applied to a batch of unknowns have the dense rows'
    # Gram on the batch, whatever the row order
    basis = rng.standard_normal((p * p + q * q, 3)) + 1j * rng.standard_normal((p * p + q * q, 3))
    applied = _apply_constraints(A, C, basis)
    assert applied.shape == (rows.shape[0], 3)
    gram = applied.conj().T @ applied
    want = basis.conj().T @ ref @ basis
    assert np.linalg.norm(gram - want, 2) <= 1e-12 * max(np.linalg.norm(want, 2), 1.0)


def _split(blocks, tol=DEFAULT_TOL):
    """(lam, p^2 + q^2, p^2 + #weak) of _constraint_gram's blocks: the
    preselection scale, the unknown count and the reduced size."""
    G_XX, (lam_X, _), gamma, _, delta, _, _ = blocks
    eig_Y = np.add.outer(gamma, delta).ravel()
    lam = max(lam_X, eig_Y.max(initial=0.0))
    weak = int(np.count_nonzero(eig_Y <= np.sqrt(tol.rank_rel) * lam))
    return lam, G_XX.shape[0] + eig_Y.size, G_XX.shape[0] + weak


def _spy_null_vectors(monkeypatch):
    """Record (columns passed, null vectors returned, unknowns p^2 + q^2) of
    every _null_vectors call.  Require that the eigh just before it is the
    (p^2 + #weak)-square reduced one, and that the call gets at most one
    column more than that eigh's candidates, eigenvalue at most
    rank_rel * lam."""
    calls = []
    eigenvalues = []
    splits = []
    eigh = np.linalg.eigh
    null_vectors = charfn_module._null_vectors
    constraint_gram = charfn_module._constraint_gram

    def spy_eigh(M):
        w, E = eigh(M)
        eigenvalues.append(w)
        return w, E

    def spy_gram(A, C):
        blocks = constraint_gram(A, C)
        splits.append(_split(blocks))
        return blocks

    def spy_null(A, tol):
        lam, unknowns, reduced = splits[-1]
        w = eigenvalues[-1]
        assert w.size == reduced
        candidates = max(1, int(np.count_nonzero(w <= tol.rank_rel * lam)))
        assert A.shape[1] <= candidates + 1
        N = null_vectors(A, tol)
        calls.append((A.shape[1], N.shape[1], unknowns))
        return N

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(charfn_module, "_constraint_gram", spy_gram)
    monkeypatch.setattr(charfn_module, "_null_vectors", spy_null)
    return calls


def _assert_tight_fit(U_out, U_in, res, ok):
    assert ok and res <= 1e-12
    for U in (U_out, U_in):
        assert np.linalg.norm(U.conj().T @ U - np.eye(U.shape[0]), 2) <= 1e-10


def test_weak_coincidence_largest_popescu_fit(monkeypatch):
    # d = 3, m = 6: the largest shape of the coincidence workload, with
    # p = 6 and q = 18 unknown coefficient dimensions
    calls = _spy_null_vectors(monkeypatch)
    T = random_contraction(36, 3, 6)
    U_out, U_in, res, ok = weak_coincidence_fit(
        char_fn(T), popescu_char(T), ball_points(3, 6, seed=100), ball_points(3, 4, seed=900)
    )
    assert U_out.shape == (6, 6) and U_in.shape == (18, 18)
    _assert_tight_fit(U_out, U_in, res, ok)
    assert [null for _, null, _ in calls] == [1]


def test_weak_coincidence_largest_fit_eigh_sizes(monkeypatch):
    # no eigh of the (3, 6) fit exceeds the reduced p^2 + #weak, here 36:
    # G_YY is diagonalized from two 18 x 18 factors, never as 324 x 324
    T = random_contraction(36, 3, 6)
    B1, B2 = char_fn(T), popescu_char(T)
    sizes = []
    splits = []
    eigh = np.linalg.eigh
    constraint_gram = charfn_module._constraint_gram

    def spy_eigh(M):
        sizes.append(M.shape[0])
        return eigh(M)

    def spy_gram(A, C):
        blocks = constraint_gram(A, C)
        splits.append(_split(blocks))
        return blocks

    monkeypatch.setattr(np.linalg, "eigh", spy_eigh)
    monkeypatch.setattr(charfn_module, "_constraint_gram", spy_gram)
    _, _, _, ok = weak_coincidence_fit(B1, B2, ball_points(3, 6, seed=100), ball_points(3, 4, seed=900))
    assert ok
    [(_, unknowns, reduced)] = splits
    assert unknowns == 36 + 324
    assert max(sizes) <= reduced and max(sizes) <= 36


def test_weak_coincidence_reducible_null_space_of_dimension_two(monkeypatch):
    # T = A (+) B with m = 3 + 3: each summand's identity is an
    # intertwiner, so the null space has dimension 2
    calls = _spy_null_vectors(monkeypatch)
    T = _direct_sum_contraction(random_contraction(32, 2, 3), random_contraction(42, 2, 3, norm=0.6))
    rng = np.random.default_rng(5)
    Q = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))[0]
    T2 = RowContraction(tuple(Q @ op @ Q.conj().T for op in T.ops))
    fit = ball_points(2, 6, seed=100)
    hold = ball_points(2, 4, seed=900)
    for B2 in (char_fn(T2), popescu_char(T)):
        _assert_tight_fit(*weak_coincidence_fit(char_fn(T), B2, fit, hold))
    assert [null for _, null, _ in calls] == [2, 2]


@pytest.mark.parametrize("negative", [False, True])
def test_weak_coincidence_decides_rank_on_gram_candidates(monkeypatch, negative):
    # the rank decision sees the candidates of the reduced eigenvalue
    # preselection and the top direction, never the full unknown space
    calls = _spy_null_vectors(monkeypatch)
    T = random_contraction(13, 2, 4)
    B2 = char_fn(random_contraction(14, 2, 4)) if negative else popescu_char(T)
    fit = ball_points(2, 6, seed=100)
    hold = ball_points(2, 4, seed=900)
    _, _, _, ok = weak_coincidence_fit(char_fn(T), B2, fit, hold)
    assert ok != negative
    assert len(calls) == 1
    columns, _, unknowns = calls[0]
    assert columns < unknowns


def _fit_against_dense_oracle(monkeypatch, B1, B2, fit, hold):
    """weak_coincidence_fit with the library's solve and with the dense
    full-Gram oracle in its place: the verdicts and null-space dimensions
    must agree, and a positive fit must hold to 1e-12.  Returns the
    verdict."""
    results = []
    for solve in (charfn_module._coincidence_null, dense_null):
        dims = []

        def recorded(A, C, tol, solve=solve, dims=dims):
            N = solve(A, C, tol)
            dims.append(N.shape[1])
            return N

        monkeypatch.setattr(charfn_module, "_coincidence_null", recorded)
        _, _, res, ok = weak_coincidence_fit(B1, B2, fit, hold)
        results.append((ok, dims))
        if ok:
            assert res <= 1e-12
    monkeypatch.undo()
    assert results[0] == results[1]
    return results[0][0]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_weak_coincidence_matches_dense_oracle(monkeypatch, d):
    fit = ball_points(d, 6, seed=100)
    hold = ball_points(d, 4, seed=900)
    for m in range(2, 7):
        T = random_contraction(600 + 10 * d + m, d, m)
        B1 = char_fn(T)
        assert _fit_against_dense_oracle(monkeypatch, B1, popescu_char(T), fit, hold)
        other = char_fn(random_contraction(700 + 10 * d + m, d, m))
        assert not _fit_against_dense_oracle(monkeypatch, B1, other, fit, hold)


def test_weak_coincidence_reducible_matches_dense_oracle(monkeypatch):
    T = _direct_sum_contraction(random_contraction(32, 2, 3), random_contraction(42, 2, 3, norm=0.6))
    fit = ball_points(2, 6, seed=100)
    hold = ball_points(2, 4, seed=900)
    assert _fit_against_dense_oracle(monkeypatch, char_fn(T), popescu_char(T), fit, hold)


@pytest.mark.parametrize("p, q", [(0, 3), (3, 0)])
def test_coincidence_null_of_empty_support(p, q):
    # with p = 0 or q = 0 every constraint row is empty and every unknown
    # is null
    rng = np.random.default_rng(p + 7 * q)
    A, C = (rng.standard_normal((4, p, q)) + 1j * rng.standard_normal((4, p, q)) for _ in range(2))
    N = charfn_module._coincidence_null(A, C, DEFAULT_TOL)
    ref = dense_null(A, C, DEFAULT_TOL)
    assert N.shape == ref.shape == (p * p + q * q, p * p + q * q)
    assert np.linalg.norm(N.conj().T @ N - np.eye(N.shape[1]), 2) <= 1e-12


def _linear_sampler(M):
    """Z -> sum_j Z_j (x) M_j for a (d, p, q) stack of coefficient maps."""
    d, p, q = M.shape
    return SchurSampler(d=d, input_dim=q, output_dim=p, evaluator=lambda Z: point_block(Z, M))


def _weak_support_pair(weight, miss=0.0, seed=0):
    """A linear sampler with d = 3, p = 2, q = 5 whose last input column is
    scaled by weight, and its unitary rotation; miss perturbs one entry of
    the rotated copy."""
    rng = np.random.default_rng(seed)
    cm = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    M = cm(3, 2, 5)
    M /= 2.0 * np.linalg.norm(M.reshape(-1, 5), 2)
    M[:, :, -1] *= weight
    U_out, U_in = (np.linalg.qr(cm(k, k))[0] for k in (2, 5))
    M2 = M.copy()
    M2[0, 0, 0] += miss
    return _linear_sampler(M), _linear_sampler(U_out @ M2 @ U_in.conj().T)


@pytest.mark.parametrize("weight", [1e-5, 1e-8, 1e-9])
def test_weak_coincidence_weak_support_matches_dense_oracle(monkeypatch, weight):
    # the weak input column keeps G_YY eigenvalues at round-off; those
    # directions stay unknowns of the reduced problem
    fit = ball_points(3, 6, seed=100)
    hold = ball_points(3, 4, seed=900)
    assert _fit_against_dense_oracle(monkeypatch, *_weak_support_pair(weight), fit, hold)
    near_miss = _weak_support_pair(weight, miss=1e-3)
    assert not _fit_against_dense_oracle(monkeypatch, *near_miss, fit, hold)


def test_full_elimination_fails_on_weak_support(monkeypatch):
    # eliminating every Y direction, weak ones included, divides by a G_YY
    # eigenvalue that round-off put at or below 0: the reduced matrix is not
    # finite, while the kept weak direction gives the right fit
    stacks = []
    solve = charfn_module._coincidence_null

    def captured(A, C, tol):
        stacks.append((A, C))
        return solve(A, C, tol)

    monkeypatch.setattr(charfn_module, "_coincidence_null", captured)
    B1, B2 = _weak_support_pair(1e-9)
    _assert_tight_fit(*weak_coincidence_fit(B1, B2, ball_points(3, 6), ball_points(3, 4, seed=900)))
    [(A, C)] = stacks
    G_XX, _, gamma, _, delta, _, H = _constraint_gram(A, C)
    eig_Y = np.add.outer(gamma, delta).ravel()
    assert eig_Y.min() <= 0.0
    with np.errstate(invalid="ignore", divide="ignore"):
        K = H / np.sqrt(eig_Y)
        try:
            w = np.linalg.eigh(G_XX - K @ K.conj().T)[0]
        except np.linalg.LinAlgError:
            w = np.array([np.nan])
    assert not np.all(np.isfinite(w))


def _commutator_sampler(c):
    """0.3 (z1 (x) e1 + c [z1, z2] (x) e2): d = 2, input 1, output 2; the
    commutator vanishes at level 1, so e2 shows only at higher levels."""

    def ev(Z):
        Z1, Z2 = Z.coords
        out = np.zeros((Z.n, 2, Z.n, 1), dtype=complex)
        out[:, 0, :, 0] = Z1
        out[:, 1, :, 0] = c * (Z1 @ Z2 - Z2 @ Z1)
        return 0.3 * out.reshape(2 * Z.n, Z.n)

    return SchurSampler(d=2, input_dim=1, output_dim=2, evaluator=ev, tag="commutator")


def test_support_frames_span_blocks_past_repeated_ranks():
    # three level-1 points agree on rank 1; the level-2 point after them
    # adds the commutator's direction
    B = _commutator_sampler(1.0)
    supp_in, supp_out = support_frames(B, ball_points(2, 4, 0.5, 100, levels=(1, 1, 1, 2)))
    assert supp_in.shape == (1, 1)
    assert supp_out.shape == (2, 2)


def test_weak_coincidence_rejects_commutator_seen_after_level_one():
    # B2 has -2 in place of the commutator's coefficient: no constant
    # unitaries intertwine the pair, though the first three fit points,
    # all at level 1, cannot tell them apart
    fit = ball_points(2, 6, 0.5, 100, levels=(1, 1, 1, 2, 2, 2))
    hold = ball_points(2, 3, 0.5, 900, levels=(2,))
    B1 = _commutator_sampler(1.0)
    _, _, res, ok = weak_coincidence_fit(B1, _commutator_sampler(-2.0), fit, hold)
    assert not ok and res > 1e-3
    U_out, U_in, res, ok = weak_coincidence_fit(B1, B1, fit, hold)
    _assert_tight_fit(U_out, U_in, res, ok)
    assert U_out.shape == (2, 2) and U_in.shape == (1, 1)


def test_support_frames_full_for_strict_contraction():
    T = random_contraction(12, 2, 3)
    B = char_fn(T)
    supp_in, supp_out = support_frames(B, ball_points(2, 6, seed=100))
    assert supp_in.shape == (B.input_dim, B.input_dim)
    assert supp_out.shape == (B.output_dim, B.output_dim)
    with pytest.raises(ValueError):
        support_frames(B, [])


def _block_sampler(b, U):
    """Coefficient-wise direct sum of a sampler and a constant unitary."""
    p, q = b.output_dim, b.input_dim
    u = U.shape[0]

    def ev(Z):
        n = Z.n
        out = np.zeros((n, p + u, n, q + u), dtype=complex)
        out[:, :p, :, :q] = b(Z).reshape(n, p, n, q)
        lift = coeff_lift(U, n).reshape(n, u, n, u)
        out[:, p:, :, q:] = lift
        return out.reshape(n * (p + u), n * (q + u))

    return SchurSampler(d=b.d, input_dim=q + u, output_dim=p + u, evaluator=ev, tag="blk")


def test_pure_unitary_split_cases(rng):
    # strictly contractive: no unitary part
    T = random_contraction(13, 2, 3)
    (pure_in, pure_out), (uni_in, uni_out) = pure_unitary_split(char_fn(T))
    assert uni_in.shape[1] == 0 and uni_out.shape[1] == 0
    assert pure_in.shape[1] == char_fn(T).input_dim
    # constant unitary: no pure part
    U = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    const = SchurSampler(
        d=1, input_dim=2, output_dim=2, evaluator=lambda Z: coeff_lift(U, Z.n), tag="u"
    )
    (pure_in, _), (uni_in, uni_out) = pure_unitary_split(const)
    assert pure_in.shape[1] == 0 and uni_in.shape[1] == 2
    # block fixture recovers the split dimensions
    B = _block_sampler(char_fn(T), U)
    (pure_in, pure_out), (uni_in, uni_out) = pure_unitary_split(B)
    assert uni_in.shape[1] == 2 and uni_out.shape[1] == 2
    assert pure_in.shape[1] == B.input_dim - 2
    assert pure_out.shape[1] == B.output_dim - 2


def test_pure_unitary_split_flags_nonconstant():
    # value at 0 is unitary but the function moves: not Schur
    fake = SchurSampler(
        d=1,
        input_dim=1,
        output_dim=1,
        evaluator=lambda Z: np.eye(Z.n, dtype=complex) - Z.coords[0] @ Z.coords[0],
        tag="fake",
    )
    with pytest.raises(ConstancyViolated):
        pure_unitary_split(fake)


def test_sampler_shape_guard():
    bad = SchurSampler(
        d=1, input_dim=2, output_dim=1, evaluator=lambda Z: np.eye(Z.n), tag="bad"
    )
    with pytest.raises(DimensionMismatch):
        bad(sample_ball_point(1, 1, 0.5, 0))


def test_sampler_rejects_points_outside_ball():
    B = char_fn(HALF)
    for z in (1.5, 2.0, 1.0):
        with pytest.raises(OutsideBall):
            B(scalar_point(z))
    Z = scalar_point(0.999)
    assert abs(B(Z)[0, 0] - (0.999 - 0.5) / (1.0 - 0.5 * 0.999)) < 1e-10
    # the row norm is computed once and kept on the point
    assert vars(Z)["row_norm"] == row_norm(Z) == 0.999


def test_char_fn_builds_canonical_frames_once(monkeypatch):
    import ncdbr.charfn
    import ncdbr.rowcontraction

    calls = []

    def counted(V, tol=DEFAULT_TOL):
        calls.append(V)
        return canonical_frames(V, tol)

    monkeypatch.setattr(ncdbr.charfn, "canonical_frames", counted)
    monkeypatch.setattr(ncdbr.rowcontraction, "canonical_frames", counted)
    T = random_contraction(2, 2, 3)
    B = char_fn(T)
    assert len(calls) == 1
    monkeypatch.undo()
    assert np.linalg.norm(B.at_zero() - defect_point(T), 2) < 1e-10


def test_frostman_values_reuse_hoisted_defects(monkeypatch):
    import ncdbr.charfn

    T = random_contraction(8, 2, 3)
    B = char_fn(T)
    b0 = B.at_zero()
    rng = np.random.default_rng(9)
    alpha = rng.standard_normal(b0.shape) + 1j * rng.standard_normal(b0.shape)
    alpha *= 0.4 / np.linalg.norm(alpha, 2)
    calls = []

    def counting(f):
        def wrapped(*args, **kwargs):
            calls.append(f.__name__)
            return f(*args, **kwargs)

        return wrapped

    for name in ("psd_sqrt", "pinv"):
        monkeypatch.setattr(ncdbr.charfn, name, counting(getattr(ncdbr.charfn, name)))
    # the defects are built with the sampler, and never again per value
    shifted = frostman_shift(B, alpha)
    assert calls
    calls.clear()
    points = ball_points(2, 4, radius=0.6, seed=70, levels=(1, 2, 3))
    values = [shifted(Z) for Z in points]
    assert not calls
    monkeypatch.undo()
    for Z, value in zip(points, values):
        want = moebius_inv(alpha, moebius(b0, B(Z)))
        assert np.abs(value - want).max() <= 1e-12


def test_weak_coincidence_evaluates_once_per_point():
    T = random_contraction(11, 2, 3)
    calls = []

    def counted(B, tag):
        def ev(Z):
            calls.append(tag)
            return B(Z)

        return SchurSampler(B.d, B.input_dim, B.output_dim, ev, tag)

    fit = ball_points(2, 6, seed=100)
    hold = ball_points(2, 4, seed=900)
    _, _, res, ok = weak_coincidence_fit(
        counted(char_fn(T), "B1"), counted(popescu_char(T), "B2"), fit, hold
    )
    assert ok and res < 1e-8
    # Z = 0, six fit points and four holdout points
    assert calls.count("B1") == calls.count("B2") == 11


def _bv_quotient(V, Z):
    """The paper's D(Z) and D(Z)^{-1} N(Z), with
    D(Z) = gamma0* [I - Z V^*]^{-1} gamma0 and
    N(Z) = gamma0* [I - Z V^*]^{-1} [I (x) Z] gammaInf."""
    frames = canonical_frames(V)
    m, n = V.m, Z.n
    pencil = np.eye(m * n, dtype=complex)
    for Zj, Vj in zip(Z.coords, V.ops):
        pencil -= np.kron(Zj, Vj.conj().T)
    G0 = coeff_lift(frames.gamma0, n)
    blocks = [frames.gammaInf[j * m : (j + 1) * m] for j in range(V.d)]
    D = G0.conj().T @ np.linalg.solve(pencil, G0)
    N = G0.conj().T @ np.linalg.solve(pencil, point_block(Z, blocks))
    return D, np.linalg.solve(D, N)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("rank", [0, 1, 3])
def test_bv_denominator_is_identity(d, rank):
    # gamma0 spans Ker V*, so [I - Z V^*]^{-1} fixes gamma0 (x) I and the
    # denominator D(Z) is the identity; B_V is the numerator alone
    m = 3
    for seed in range(3):
        V = random_partial_isometry(200 + 10 * d + seed, d, m, rank)
        B = char_fn_partial_isometry(V)
        for n in (1, 2, 3, 4):
            Z = sample_ball_point(d, n, 0.7, 300 + 10 * seed + n)
            D, want = _bv_quotient(V, Z)
            if D.size:
                assert np.linalg.norm(D - np.eye(D.shape[0]), 2) <= 1e-13
            value = B(Z)
            assert value.shape == want.shape
            if want.size:
                assert np.abs(value - want).max() <= 1e-12


@pytest.mark.parametrize("d, m, rank", [(1, 3, 1), (2, 2, 1), (2, 3, 2), (3, 2, 1)])
def test_char_fn_of_mixed_is_moebius_of_bv(d, m, rank):
    V = random_partial_isometry(400 + d, d, m, rank)
    frames = canonical_frames(V)
    shape = (frames.gamma0.shape[1], frames.gammaInf.shape[1])
    rng = np.random.default_rng(d + m)
    delta = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    delta *= 0.6 / np.linalg.norm(delta, 2)
    T = reconstruct(V, delta)
    assert np.linalg.norm(iso_pure_decompose(T).V.row() - V.row(), 2) < 1e-12
    B = char_fn(T)
    B_V = char_fn_partial_isometry(V)
    alpha = -defect_point(T)
    assert np.linalg.norm(alpha + delta, 2) < 1e-12
    for Z in ball_points(d, 6, radius=0.6, seed=500, levels=(1, 2, 3)):
        assert np.abs(B(Z) - moebius(alpha, B_V(Z))).max() <= 1e-12


def test_empty_frames_evaluate_through_transfer_eval(monkeypatch):
    import ncdbr.charfn

    calls = []

    def counted(c, X, tol=DEFAULT_TOL):
        calls.append((c.output_dim, c.input_dim))
        return transfer_eval(c, X, tol)

    monkeypatch.setattr(ncdbr.charfn, "transfer_eval", counted)
    rng = np.random.default_rng(12)
    U = np.linalg.qr(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))[0]
    unitary = RowContraction((U,))
    coisometry = random_partial_isometry(13, 2, 2, 2)
    zero = RowContraction((np.zeros((2, 2)), np.zeros((2, 2))))
    # (p, q) = (m - rank, md - rank)
    for V, p, q in ((unitary, 0, 0), (coisometry, 0, 2), (zero, 2, 4)):
        for Z in ball_points(V.d, 2, radius=0.6, seed=600):
            calls.clear()
            value = char_fn_partial_isometry(V)(Z)
            assert calls == [(p, q)]
            assert value.shape == (p * Z.n, q * Z.n)
            calls.clear()
            assert char_fn(V)(Z).shape == value.shape
            assert calls == [(p, q)]


def test_char_fn_value_is_one_pencil_solve(monkeypatch):
    import ncdbr.realization

    T = random_contraction(14, 3, 4)
    B = char_fn(T)
    Z = sample_ball_point(3, 3, 0.9, 15)
    want = B(Z)
    solves, checks = [], []
    solve = np.linalg.solve

    def counted_solve(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted_solve)
    monkeypatch.setattr(ncdbr.realization, "_ill_condition", lambda M, tol: checks.append(M.shape))
    value = B(Z)
    monkeypatch.undo()
    # the pencil I - Z T^* alone: no Moebius solve, and rho = 0.81 rules
    # out a singular pencil without the SVD check
    assert solves == [(T.m * Z.n, T.m * Z.n)]
    assert not checks
    assert np.array_equal(value, want)


def _char_fn_colligation(T):
    """char_fn(T) and the colligation its values are evaluated from."""
    seen = []

    def spy(c, X, tol=DEFAULT_TOL):
        seen.append(c)
        return transfer_eval(c, X, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(charfn_module, "transfer_eval", spy)
        B = char_fn(T)
        B.at_zero()
    return B, seen[0]


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(1, 3),
    m=st.integers(1, 5),
    rank=st.integers(0, 5),
    scale=st.floats(0.0, 0.9),
    seed=st.integers(0, 10_000),
)
@example(d=1, m=3, rank=3, scale=0.0, seed=0)  # p = q = 0
@example(d=2, m=2, rank=2, scale=0.5, seed=1)  # p = 0
@example(d=3, m=2, rank=0, scale=0.9, seed=2)  # V = 0
def test_char_fn_colligation_is_unitary_moebius_of_bv(d, m, rank, scale, seed):
    rank = min(rank, m)
    V = random_partial_isometry(seed, d, m, rank)
    rng = np.random.default_rng(seed + 1)
    delta = rng.standard_normal((m - rank, m * d - rank)) + 1j * rng.standard_normal(
        (m - rank, m * d - rank)
    )
    if delta.size:
        delta *= scale / np.linalg.norm(delta, 2)
    T = reconstruct(V, delta)
    B, c = _char_fn_colligation(T)
    M = c.block_matrix()
    assert np.linalg.norm(M.conj().T @ M - np.eye(M.shape[1]), 2) <= 1e-12
    assert np.linalg.norm(M @ M.conj().T - np.eye(M.shape[0]), 2) <= 1e-12
    assert c.A_norm <= np.linalg.norm(T.row(), 2) + 1e-12
    alpha = -defect_point(T)
    for n in (1, 2, 3, 4):
        Z = sample_ball_point(d, n, 0.7, seed + n)
        value = B(Z)
        _, bv = _bv_quotient(V, Z)
        assert value.shape == bv.shape == (delta.shape[0] * n, delta.shape[1] * n)
        if value.size:
            assert np.abs(value - moebius(alpha, bv)).max() <= 1e-12


@pytest.mark.parametrize("k", range(1, 10))
def test_char_fn_jordan_mix_closed_form(k):
    # T = J - e1 delta e2*, so B_T(z) = (z^2 + delta) / (1 + delta z^2)
    delta = 1.0 - 10.0**-k
    B = char_fn(reconstruct(JORDAN, [[delta]]))
    for z in (0.0, 0.3, -0.5, 0.2 + 0.4j, 0.9j, -0.95):
        want = (z * z + delta) / (1.0 + delta * z * z)
        assert abs(B(scalar_point(z))[0, 0] - want) <= 1e-14
