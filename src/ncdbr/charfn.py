"""Characteristic functions, operator Moebius calculus, Frostman shifts,
Popescu's characteristic function, supports and weak coincidence.

Every operator-valued function of a ball point is wrapped as a
SchurSampler, which records the coefficient-space dimensions and a
provenance tag and evaluates in the fixed tensor layout: a value at a
level-n point is an (output_dim*n) x (input_dim*n) matrix whose (p, q)
coefficient block has size output_dim x input_dim.  One operator Moebius
map, in a form that inverts no defect, serves moebius, moebius_inv
(M_a^{-1} = M_{-a}) and frostman_shift.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConstancyViolated,
    DimensionMismatch,
    NotStrict,
    OutsideBall,
    SingularPencil,
)
from .ncspace import (
    _kron_sum,
    coeff_lift,
    pencil_tz_star,
    row_norm,
    sample_ball_point,
    zero_tuple,
)
from .numerics import DEFAULT_TOL, _ill_condition, _svd_rank, orthonormal_range, pinv
from .numerics import psd_sqrt
from .realization import Colligation, transfer_eval
from .rowcontraction import (
    _frames_defect_point,
    canonical_frames,
    iso_pure_decompose,
    julia_matrix,
)

__all__ = [
    "SchurSampler",
    "model_gamma",
    "char_fn_partial_isometry",
    "char_fn",
    "popescu_char",
    "moebius",
    "moebius_inv",
    "xi_map",
    "theta_map",
    "frostman_shift",
    "support_frames",
    "weak_coincidence_fit",
    "pure_unitary_split",
]


@dataclass(frozen=True)
class SchurSampler:
    """Evaluatable operator-valued function on the row-ball; a point with
    row norm >= 1 raises OutsideBall before the evaluator runs."""

    d: int
    input_dim: int
    output_dim: int
    evaluator: Callable
    tag: str = "literal"

    def __call__(self, Z):
        if Z.d != self.d:
            raise DimensionMismatch("point has d=%d, sampler expects %d" % (Z.d, self.d))
        if row_norm(Z) >= 1.0:
            raise OutsideBall("point has row norm %.6g >= 1" % row_norm(Z))
        value = np.asarray(self.evaluator(Z), dtype=complex)
        expected = (self.output_dim * Z.n, self.input_dim * Z.n)
        if value.shape != expected:
            raise DimensionMismatch(
                "evaluator returned %s, expected %s" % (value.shape, expected)
            )
        return value

    def at_zero(self):
        """The coefficient-space value B(0) as an output_dim x input_dim matrix."""
        return self(zero_tuple(self.d, 1))


def model_gamma(V, Z, tol=DEFAULT_TOL):
    """Canonical model map value [I - V Z^*]^{-1} (gamma0 (x) I_n)."""
    frames = canonical_frames(V, tol)
    pencil = pencil_tz_star(V.ops, Z)
    cond = _ill_condition(pencil, tol)
    if cond is not None:
        raise SingularPencil("pencil condition %.3e" % cond)
    return np.linalg.solve(pencil, coeff_lift(frames.gamma0, Z.n))


def _transfer_sampler(c, tol, tag):
    return SchurSampler(
        d=c.d,
        input_dim=c.input_dim,
        output_dim=c.output_dim,
        evaluator=lambda Z: transfer_eval(c, Z, tol),
        tag=tag,
    )


def char_fn_partial_isometry(V, tol=DEFAULT_TOL):
    """Characteristic function B_V of a row partial isometry.

    The transfer function gamma0* [I - Z V^*]^{-1} [I (x) Z] gammaInf of
    the colligation (A_j = V_j^*, B_j = the j-th block of gammaInf,
    C = gamma0*, D = 0), amplified to the level of Z: char_fn's
    realization at T = V and delta = 0, where D_delta and D_delta* are
    exact identities.  The paper's denominator
    gamma0* [I - Z V^*]^{-1} gamma0 is the identity, since V_j^* gamma0 = 0
    for every j.  Satisfies B_V(0) = 0.
    """
    frames = canonical_frames(V, tol)
    delta = np.zeros((frames.gamma0.shape[1], frames.gammaInf.shape[1]))
    return _frames_char_fn(V, frames, delta, tol)


def _frames_char_fn(T, frames, delta, tol):
    """The one builder of B_T and B_V: the transfer sampler
    of the colligation (A_j = T_j^*, B_j = gammaInf_j D_delta,
    C = D_delta* gamma0*, D = delta), for the canonical frames of T's
    isometric part and T's defect point delta.  The node is unitary and
    its column [A_1; ...; A_d] has norm ||T||_row <= 1."""
    _, D_delta, D_delta_star = _moebius_defects(-delta, tol)
    m = T.m
    g_inf = frames.gammaInf
    colligation = Colligation(
        A=tuple(Tj.conj().T for Tj in T.ops),
        B=tuple(g_inf[j * m : (j + 1) * m, :] @ D_delta for j in range(T.d)),
        C=D_delta_star @ frames.gamma0.conj().T,
        D=delta,
    )
    return _transfer_sampler(colligation, tol, "char_fn")


def char_fn(T, tol=DEFAULT_TOL):
    """Characteristic function B_T of a row contraction.

    The operator-Moebius map of B_V at minus the defect point,
    B_T(Z) = D_{delta*} (I + B_V(Z) delta*)^{-1} (B_V(Z) + delta)
    D_delta^{-1}, realized on the NC resolvent of T itself:
    B_T(Z) = delta + D_{delta*} gamma0* [I - Z T^*]^{-1} [I (x) Z]
    gammaInf D_delta, the transfer function of the unitary colligation
    (A_j = T_j^*, B_j = gammaInf_j D_delta, C = D_{delta*} gamma0*,
    D = delta), amplified per level.  One pencil solve per value.

    Derivation: the Moebius map in moebius's inverse-free form is
    delta + D_{delta*} (I + B_V delta*)^{-1} B_V D_delta.  With
    B_V = gamma0* R_V K, R_V = [I - Z V^*]^{-1} and K = [I (x) Z] gammaInf,
    push-through gives (I + B_V delta*)^{-1} B_V
    = gamma0* [R_V^{-1} + K delta* gamma0*]^{-1} K, and
    R_V^{-1} + K delta* gamma0* = I - Z T^*, because
    T_j^* = V_j^* - gammaInf_j delta* gamma0* by T = V - gamma0 delta
    gammaInf*.  Satisfies B_T(0) = delta.
    """
    V = iso_pure_decompose(T, tol).V
    frames = canonical_frames(V, tol)
    return _frames_char_fn(T, frames, _frames_defect_point(T, frames), tol)


def popescu_char(T, tol=DEFAULT_TOL):
    """Sz.-Nagy--Foias--Popescu characteristic function Theta_T.

    Theta_T(Z) = (-T + D_{T*} [I - Z T^*]^{-1} [I (x) Z] D_T) compressed to
    the defect ranges, amplified per level: the transfer function of the
    Julia colligation with input maps B_j F_in, output map F_out* C and
    feedthrough F_out* D F_in.
    """
    julia = julia_matrix(T, tol)
    F_in = orthonormal_range(np.vstack(julia.B), tol)
    F_out = orthonormal_range(julia.C, tol)
    colligation = Colligation(
        A=julia.A,
        B=tuple(Bj @ F_in for Bj in julia.B),
        C=F_out.conj().T @ julia.C,
        D=F_out.conj().T @ julia.D @ F_in,
    )
    return _transfer_sampler(colligation, tol, "popescu")


def _moebius_defects(alpha, tol):
    # psd_sqrt zeroes defect eigenvalues at or below rank_rel, so alpha
    # must keep 1 - ||alpha||^2 above it for D_a to be invertible
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.size and 1.0 - np.linalg.norm(alpha, 2) ** 2 <= tol.rank_rel:
        raise NotStrict("alpha must be a strict contraction")
    D_a = psd_sqrt(np.eye(alpha.shape[1]) - alpha.conj().T @ alpha, tol)
    D_a_star = psd_sqrt(np.eye(alpha.shape[0]) - alpha @ alpha.conj().T, tol)
    return alpha, D_a, D_a_star


def _lift_level(alpha, zeta):
    """The level ell of a (p ell) x (q ell) zeta over the p x q alpha; a zero
    side of alpha must stay zero in zeta, and ell is 1 when both are zero."""
    zeta = np.asarray(zeta, dtype=complex)
    sides = tuple(zip(zeta.shape, alpha.shape))
    levels = {n // k for n, k in sides if k}
    if zeta.ndim != 2 or len(levels) > 1 or any(n % k if k else n for n, k in sides):
        raise DimensionMismatch(
            "zeta shape %s is not an amplification of alpha shape %s" % (zeta.shape, alpha.shape)
        )
    return (levels.pop() if levels else 1), zeta


def _moebius_map(alpha, tol):
    """The Moebius map at alpha as a function of a value zeta at level ell,
    in its inverse-free form
    -(a (x) I) + (D_{a*} (x) I)(I - zeta (a* (x) I))^{-1} zeta (D_a (x) I).
    The defects are built once, and neither is inverted."""
    alpha, D_a, D_a_star = _moebius_defects(alpha, tol)

    def moebius_at(zeta, ell):
        denom = np.eye(zeta.shape[0], dtype=complex) - zeta @ coeff_lift(alpha.conj().T, ell)
        core = np.linalg.solve(denom, zeta)
        return coeff_lift(D_a_star, ell) @ core @ coeff_lift(D_a, ell) - coeff_lift(alpha, ell)

    return moebius_at


def moebius(alpha, zeta, tol=DEFAULT_TOL):
    """Operator Moebius map M_a(zeta) = D_{a*} (I - zeta a*)^{-1} (zeta - a)
    D_a^{-1}, with zeta allowed at any amplification level of alpha.

    No defect is inverted: a D_a = D_{a*} a gives a = D_{a*} a D_a^{-1}, and
    (zeta - a) + (I - zeta a*) a = zeta D_a^2, so
    M_a(zeta) = -a + D_{a*} (I - zeta a*)^{-1} zeta D_a.  Likewise, from
    a = D_{a*}^{-1} a D_a, M_a^{-1}(zeta) = D_{a*}^{-1} (zeta + a)
    (I + a* zeta)^{-1} D_a = a + D_{a*} zeta (I + a* zeta)^{-1} D_a, which
    push-through and D_{-a} = D_a turn into M_{-a}(zeta): M_a^{-1} = M_{-a}.
    """
    alpha = np.asarray(alpha)
    ell, zeta = _lift_level(alpha, zeta)
    return _moebius_map(alpha, tol)(zeta, ell)


def moebius_inv(alpha, zeta, tol=DEFAULT_TOL):
    """Inverse Moebius map D_{a*}^{-1} (zeta + a)(I + a* zeta)^{-1} D_a,
    which is the Moebius map at -alpha."""
    return moebius(-np.asarray(alpha), zeta, tol)


def xi_map(alpha, beta, tol=DEFAULT_TOL):
    """Xi factor (D_{a*} (x) I)(I - beta (a* (x) I))^{-1} of the Moebius map."""
    alpha, _, D_a_star = _moebius_defects(alpha, tol)
    ell, beta = _lift_level(alpha, beta)
    denom = np.eye(beta.shape[0], dtype=complex) - beta @ coeff_lift(alpha.conj().T, ell)
    return np.linalg.solve(denom.conj().T, coeff_lift(D_a_star, ell).conj().T).conj().T


def theta_map(alpha, beta, tol=DEFAULT_TOL):
    """Theta factor (beta - a (x) I)(D_a^{-1} (x) I) of the Moebius map."""
    alpha, D_a, _ = _moebius_defects(alpha, tol)
    ell, beta = _lift_level(alpha, beta)
    return (beta - coeff_lift(alpha, ell)) @ coeff_lift(pinv(D_a, tol), ell)


def frostman_shift(B, alpha, tol=DEFAULT_TOL):
    """Moebius renormalization of B moving its value at 0 to alpha.

    First normalizes to B0 with B0(0) = 0 via the Moebius map at B(0),
    then applies the inverse Moebius map at alpha, the Moebius map at
    -alpha; at alpha = 0 that map is the identity.
    """
    b0 = B.at_zero()
    alpha = np.asarray(alpha, dtype=complex)
    if alpha.shape != b0.shape:
        raise DimensionMismatch("alpha must match the coefficient spaces of B")
    to_zero = _moebius_map(b0, tol)
    from_zero = _moebius_map(-alpha, tol)

    return SchurSampler(
        d=B.d,
        input_dim=B.input_dim,
        output_dim=B.output_dim,
        evaluator=lambda Z: from_zero(to_zero(B(Z), Z.n), Z.n),
        tag="frostman",
    )


def support_frames(B, sample_points, tol=DEFAULT_TOL):
    """Numerical support frames (supp_in, supp_out) of a sampler.

    The spans of all coefficient blocks of B's values at the sample points
    and of their adjoints, one SVD per frame.  Sampling more points can
    only grow the spans, so the result is a certified lower bound on the
    supports.  weak_coincidence_fit takes them with Z = 0 included.
    """
    points = list(sample_points)
    if not points:
        raise ValueError("need at least one sample point")
    return _stack_supports(_block_stack(B, points), tol)


def _block_stack(B, points):
    """Every coefficient block of B's values at the points, one evaluation
    per point, as one (sum of n^2, output_dim, input_dim) stack."""
    o, i = B.output_dim, B.input_dim
    return np.concatenate(
        [B(Z).reshape(Z.n, o, Z.n, i).transpose(0, 2, 1, 3).reshape(Z.n**2, o, i) for Z in points]
    )


def _stack_supports(S, tol):
    """(supp_in, supp_out) of a (k, o, i) block stack: the ranges of the
    blocks side by side (o x k i) and of their adjoints (i x k o)."""
    k, o, i = S.shape
    supp_out = orthonormal_range(S.transpose(1, 0, 2).reshape(o, k * i), tol)
    supp_in = orthonormal_range(S.conj().transpose(2, 0, 1).reshape(i, k * o), tol)
    return supp_in, supp_out


def _compress(value, supp_in, supp_out, n):
    return coeff_lift(supp_out, n).conj().T @ value @ coeff_lift(supp_in, n)


def _polar_unitary(M):
    W, _, Vh = np.linalg.svd(M)
    return W @ Vh


def _constraint_gram(A, C):
    """Blocks of the Gram L*L of the constraint map
    L(X, Y) = (X A_k - C_k Y, Y A_k* - C_k* X)_k on the row-major
    (vec X, vec Y), for stacks A, C of p x q blocks, in closed form:
    G_XX = I (x) (sum A_k A_k*)^T + (sum C_k C_k*) (x) I,
    G_YY = (sum C_k* C_k) (x) I + I (x) (sum A_k* A_k)^T and
    G_XY = -2 sum_k C_k (x) conj(A_k), where the direct and the adjoint
    relation contribute one cross term each.

    These are the blocks of the partial Schur complement that
    weak_coincidence_fit takes, and no (p^2 + q^2)- or q^2-square matrix is
    formed.  With (gamma, Q_C) the eigenpairs of sum C_k* C_k and
    (delta, Q_A) those of (sum A_k* A_k)^T,
    G_YY = R diag(gamma_i + delta_j) R* for R = Q_C (x) Q_A, and the cross
    block enters rotated, as H = G_XY R = -2 sum_k (C_k Q_C) (x) (conj(A_k) Q_A).
    G_XX's top eigenpair comes from its two p x p factors.  Returns
    (G_XX, (lambda_max(G_XX), its eigenvector as a p x p X, None if p = 0),
    gamma, Q_C, delta, Q_A, H)."""
    k, p, q = A.shape
    A_rows = A.transpose(1, 0, 2).reshape(p, k * q)
    C_rows = C.transpose(1, 0, 2).reshape(p, k * q)
    A_cols = A.reshape(k * p, q)
    C_cols = C.reshape(k * p, q)
    AA = (A_rows @ A_rows.conj().T).T
    CC = C_rows @ C_rows.conj().T
    G_XX = _kron_sum([np.eye(p), CC], [AA, np.eye(p)])
    w_C, V_C = np.linalg.eigh(CC)
    w_A, V_A = np.linalg.eigh(AA)
    top_X = (w_C[-1] + w_A[-1], np.outer(V_C[:, -1], V_A[:, -1])) if p else (0.0, None)
    gamma, Q_C = np.linalg.eigh(C_cols.conj().T @ C_cols)
    delta, Q_A = np.linalg.eigh((A_cols.conj().T @ A_cols).T)
    H = -2.0 * _kron_sum(C @ Q_C, A.conj() @ Q_A)
    return G_XX, top_X, gamma, Q_C, delta, Q_A, H


def _coincidence_null(A, C, tol):
    """Null vectors of the constraint map L of _constraint_gram, as columns
    of the row-major (vec X, vec Y), from the partial Schur complement of
    its Gram that weak_coincidence_fit describes.  Q_C (x) Q_A is applied
    by einsum, never formed."""
    _, p, q = A.shape
    G_XX, (lam_X, X_top), gamma, Q_C, delta, Q_A, H = _constraint_gram(A, C)
    eig_Y = np.add.outer(gamma, delta).ravel()
    lam_Y = eig_Y.max(initial=0.0)
    lam = max(lam_X, lam_Y)
    strong = eig_Y > np.sqrt(tol.rank_rel) * lam
    H_s, H_w, D_s = H[:, strong], H[:, ~strong], eig_Y[strong]
    w, E = np.linalg.eigh(
        np.block([[G_XX - (H_s / D_s) @ H_s.conj().T, H_w], [H_w.conj().T, np.diag(eig_Y[~strong])]])
    )
    keep = max(1, int(np.count_nonzero(w <= tol.rank_rel * lam)))
    # lifted candidates, then the top direction, in G_YY's eigenbasis for Y
    X = np.zeros((p * p, keep + 1), dtype=complex)
    Y = np.zeros((q * q, keep + 1), dtype=complex)
    X[:, :keep] = E[: p * p, :keep]
    Y[~strong, :keep] = E[p * p :, :keep]
    Y[strong, :keep] = -(H_s.conj().T @ X[:, :keep]) / D_s[:, None]
    if p and lam_X >= lam_Y:
        X[:, keep] = X_top.ravel()
    else:
        Y[np.argmax(eig_Y), keep] = 1.0
    Y = np.einsum("ia,abc,jb->ijc", Q_C, Y.reshape(q, q, keep + 1), Q_A).reshape(q * q, keep + 1)
    basis = np.linalg.qr(np.vstack([X, Y]))[0]
    return basis @ _null_vectors(_apply_constraints(A, C, basis), tol)


def _apply_constraints(A, C, V):
    """L applied to the columns of V, unknowns on the row-major
    (vec X, vec Y), as the columns of a (2 k p q) x (columns of V) matrix."""
    _, p, q = A.shape
    c = V.shape[1]
    X = V[: p * p].T.reshape(c, p, p)
    Y = V[p * p :].T.reshape(c, q, q)
    direct = np.einsum("cab,kbe->kaec", X, A) - np.einsum("kab,cbe->kaec", C, Y)
    adjoint = np.einsum("cab,keb->kaec", Y, A.conj()) - np.einsum("kba,cbe->kaec", C.conj(), X)
    return np.concatenate([direct.reshape(-1, c), adjoint.reshape(-1, c)])


def _null_vectors(A, tol):
    """Right singular vectors of A with sigma <= rank_rel * sigma_max, at
    least one.  With fewer rows than columns every direction outside the
    row space is null too, so V is then computed complete.  A taller A is
    first reduced to the square R of its QR factorization, which has the
    same singular values and right singular vectors."""
    if A.shape[0] > A.shape[1]:
        A = np.linalg.qr(A, mode="r")
    _, s, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    return Vh[min(_svd_rank(s, tol), A.shape[1] - 1) :].conj().T


def weak_coincidence_fit(B1, B2, fit_points, holdout_points, tol=1e-8, num_tol=DEFAULT_TOL):
    """Fit constant unitaries with (U_out (x) I) B1(Z) = B2(Z) (U_in (x) I)
    after restricting both samplers to their supports.

    Each sampler's supports are the spans of all its sampled coefficient
    blocks, Z = 0 included, and of their adjoints: a lower bound that more
    fit points can only grow.

    One linear solve: at Z = 0 and at each fit point the relation and its
    adjoint (U_in (x) I) B1(Z)* = B2(Z)* (U_out (x) I) are linear in the
    pair (X, Y) = (U_out, U_in), so X (+) Y intertwines the self-adjoint
    dilations [[0, Bi], [Bi*, 0]].  Blockwise the constraints read
    X A_k = C_k Y and Y A_k* = C_k* X for the compressed coefficient
    blocks A_k of B1 and C_k of B2, p x q each.  Neither the tall
    constraint matrix L nor its (p^2 + q^2)-square Gram G is formed:
    _constraint_gram gives G's blocks in closed form, with G_YY
    diagonalized by two q x q eigh calls.  Let lam be the larger of the top
    eigenvalues of G_XX and G_YY, so lam <= lambda_max(G) <= 2 lam.  The Y
    directions whose G_YY eigenvalue exceeds sqrt(rank_rel) * lam are
    strong and eliminated by a Schur complement; the weak rest stay
    unknowns beside vec X.  A support reached only weakly puts G_YY
    eigenvalues at round-off, even at or below 0, where eliminating would
    divide by noise; above the floor the elimination errs by about
    rank_rel^(-1/4) eps lam, far below the preselection level.  The
    eigenvectors of the (p^2 + #weak)-square reduced matrix with
    eigenvalue at most rank_rel * lam (at least one), lifted back, are the
    candidates: a superset of the directions with singular value at most
    rank_rel * sigma_max.  L applied to the orthonormalized candidates and
    the top eigenvector of the larger block has L's singular values on
    that span, and a sigma_max at least sqrt(lam), within a factor sqrt(2)
    of L's; the null vectors (singular values at most rank_rel times that
    sigma_max, at least one) are decided there, and they span
    the intertwiners.  A fixed-seed complex combination of them is
    invertible, and since the intertwiners are closed under adjoint its
    polar factors are unitary intertwiners.  The residual is the worst
    holdout mismatch and the verdict compares it to tol.
    """
    # each sampler is evaluated once per point: at Z = 0 and the fit points
    # here, for the supports and the constraint blocks alike
    points = [zero_tuple(B1.d, 1)] + list(fit_points)
    S1 = _block_stack(B1, points)
    S2 = _block_stack(B2, points)
    s1_in, s1_out = _stack_supports(S1, num_tol)
    s2_in, s2_out = _stack_supports(S2, num_tol)
    if s1_in.shape[1] != s2_in.shape[1] or s1_out.shape[1] != s2_out.shape[1]:
        return None, None, float("inf"), False
    p = s1_out.shape[1]
    q = s1_in.shape[1]
    if p == 0 and q == 0:
        return np.zeros((0, 0)), np.zeros((0, 0)), 0.0, True

    A = s1_out.conj().T @ S1 @ s1_in
    C = s2_out.conj().T @ S2 @ s2_in
    null = _coincidence_null(A, C, num_tol)
    vec = null @ (np.random.default_rng(0).standard_normal((null.shape[1], 2)) @ [1.0, 1j])
    U_out = _polar_unitary(vec[: p * p].reshape(p, p))
    U_in = _polar_unitary(vec[p * p :].reshape(q, q))
    residual = 0.0
    for Z in holdout_points:
        lhs = coeff_lift(U_out, Z.n) @ _compress(B1(Z), s1_in, s1_out, Z.n)
        rhs = _compress(B2(Z), s2_in, s2_out, Z.n) @ coeff_lift(U_in, Z.n)
        if lhs.size:
            residual = max(residual, float(np.linalg.norm(lhs - rhs, 2)))
    return U_out, U_in, residual, bool(residual <= tol)


def pure_unitary_split(B, tol=DEFAULT_TOL, sample_points=None):
    """Split the coefficient spaces into the subspace where B is a unitary
    constant and its pure complement.

    Returns ((pure_in, pure_out), (unitary_in, unitary_out)); raises
    ConstancyViolated when B fails to be constant on the detected
    unitary subspace at the sampled points.
    """
    b0 = B.at_zero()
    w_in, Q_in = np.linalg.eigh(b0.conj().T @ b0)
    w_out, Q_out = np.linalg.eigh(b0 @ b0.conj().T)
    uni_in = Q_in[:, np.abs(w_in - 1.0) <= 100 * tol.eq_abs]
    uni_out = Q_out[:, np.abs(w_out - 1.0) <= 100 * tol.eq_abs]
    pure_in = Q_in[:, np.abs(w_in - 1.0) > 100 * tol.eq_abs]
    pure_out = Q_out[:, np.abs(w_out - 1.0) > 100 * tol.eq_abs]
    if uni_in.shape[1] != uni_out.shape[1]:
        raise ConstancyViolated("unitary eigenspaces have mismatched dimensions")
    if sample_points is None:
        sample_points = [
            sample_ball_point(B.d, n, 0.6, seed) for n, seed in ((1, 11), (2, 12), (2, 13))
        ]
    if uni_in.shape[1]:
        for Z in sample_points:
            diff = B(Z) @ coeff_lift(uni_in, Z.n) - coeff_lift(b0 @ uni_in, Z.n)
            if np.linalg.norm(diff, 2) > 1e-9:
                raise ConstancyViolated("B is not constant on the unitary subspace")
    return (pure_in, pure_out), (uni_in, uni_out)
