"""Characteristic functions, operator Moebius calculus, Frostman shifts,
Popescu's characteristic function, supports and weak coincidence.

Every operator-valued function of a ball point is wrapped as a
SchurSampler, which records the coefficient-space dimensions and a
provenance tag and evaluates in the fixed tensor layout: a value at a
level-n point is an (output_dim*n) x (input_dim*n) matrix whose (p, q)
coefficient block has size output_dim x input_dim.  One operator Moebius
map, which inverts no defect and roots both from one SVD of a, serves
moebius, moebius_inv (M_a^{-1} = M_{-a}) and frostman_shift.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import (
    ConstancyViolated,
    DimensionMismatch,
    NotStrict,
    OutsideBall,
)
from .ncspace import (
    coeff_lift,
    pencil_tz_star,
    row_norm,
    sample_ball_point,
    zero_tuple,
)
from .numerics import DEFAULT_TOL, _as_complex, _defect_roots, _isometric, _svd_rank
from .numerics import orthonormal_range
from .realization import Colligation, _check_pencil, transfer_eval, transfer_values
from .rowcontraction import _check_partial_isometry, _isometric_frames, julia_matrix
from .rowcontraction import canonical_frames

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
    row norm >= 1 raises OutsideBall before the evaluator runs.

    A realized sampler carries its colligation as the pair (c, tol) whose
    transfer_eval(c, Z, tol) the evaluator returns; a literal one carries
    None."""

    d: int
    input_dim: int
    output_dim: int
    evaluator: Callable
    tag: str = "literal"
    colligation: tuple = None

    def _check(self, Z):
        if Z.d != self.d:
            raise DimensionMismatch("point has d=%d, sampler expects %d" % (Z.d, self.d))
        if row_norm(Z) >= 1.0:
            raise OutsideBall("point has row norm %.6g >= 1" % row_norm(Z))

    def __call__(self, Z):
        self._check(Z)
        value = np.asarray(self.evaluator(Z), dtype=complex)
        expected = (self.output_dim * Z.n, self.input_dim * Z.n)
        if value.shape != expected:
            raise DimensionMismatch(
                "evaluator returned %s, expected %s" % (value.shape, expected)
            )
        return value

    def values(self, points):
        """The values at the points, in point order, after every point is
        checked: a realized sampler takes one stacked solve per level
        (transfer_values), a literal one one evaluator call per point."""
        points = list(points)
        for Z in points:
            self._check(Z)
        if self.colligation is None:
            return [self(Z) for Z in points]
        c, tol = self.colligation
        return transfer_values(c, points, tol)

    def at_zero(self):
        """The coefficient-space value B(0) as an output_dim x input_dim matrix."""
        return self(zero_tuple(self.d, 1))


def model_gamma(V, Z, tol=DEFAULT_TOL):
    """Canonical model map value [I - V Z^*]^{-1} (gamma0 (x) I_n).  The
    pencil is checked as in transfer_eval, with
    ||sum_j Z_j^* (x) V_j|| <= rho = ||Z||_row ||V||_row."""
    frames = canonical_frames(V, tol)
    pencil = pencil_tz_star(V.ops, Z)
    sigma = V.row_svd[1]
    _check_pencil(pencil, Z.row_norm * (sigma[0] if sigma.size else 0.0), tol)
    return np.linalg.solve(pencil, coeff_lift(frames.gamma0, Z.n))


def _julia_compression(julia, F_in, F_out, tol, tag):
    """The one builder of the characteristic functions: the transfer
    sampler of the Julia colligation [[T*, D_T], [D_Tstar, -T]] compressed
    to an input frame F_in and an output frame F_out, that is of the
    colligation (A_j = T_j^*, B_j F_in, F_out* C, F_out* D F_in)."""
    c = Colligation(
        A=julia.A,
        B=tuple(Bj @ F_in for Bj in julia.B),
        C=F_out.conj().T @ julia.C,
        D=F_out.conj().T @ julia.D @ F_in,
    )
    # the state maps are the Julia colligation's, and so is their norm
    vars(c)["A_norm"] = julia.A_norm
    return SchurSampler(
        d=c.d,
        input_dim=c.input_dim,
        output_dim=c.output_dim,
        evaluator=lambda Z: transfer_eval(c, Z, tol),
        tag=tag,
        colligation=(c, tol),
    )


def char_fn_partial_isometry(V, tol=DEFAULT_TOL):
    """Characteristic function B_V of a row partial isometry: the check, then
    char_fn(V).  At delta = 0 the colligation is (V_j^*, blocks of gammaInf,
    gamma0*, 0) up to round-off: V_j^* gamma0 = 0 makes the paper's denominator
    gamma0* [I - Z V^*]^{-1} gamma0 the identity.  ||B_V(0)|| is V's largest
    non-isometric singular value, at most eq_abs."""
    _check_partial_isometry(V, tol)
    return char_fn(V, tol)


def char_fn(T, tol=DEFAULT_TOL):
    """Characteristic function B_T of a row contraction: the Moebius map of
    B_V at minus the defect point delta, realized as T's Julia colligation
    compressed to the canonical frames gammaInf (input) and gamma0 (output)
    of T's isometric part V, read off T's SVD.  One pencil solve per value.

    Derivation: in moebius's inverse-free form the map is
    delta + D_{delta*} (I + B_V delta*)^{-1} B_V D_delta, and push-through
    with T_j^* = V_j^* - gammaInf_j delta* gamma0* turns it into
    delta + D_{delta*} gamma0* [I - Z T^*]^{-1} [I (x) Z] gammaInf D_delta.
    As V gammaInf = 0 and V* gamma0 = 0, T gammaInf = -gamma0 delta and
    T* gamma0 = -gammaInf delta*, so D_T gammaInf = gammaInf D_delta and
    gamma0* D_T* = D_{delta*} gamma0*.  Satisfies B_T(0) = delta.
    """
    frames = _isometric_frames(T, tol)
    return _julia_compression(julia_matrix(T, tol), frames.gammaInf, frames.gamma0, tol, "char_fn")


def popescu_char(T, tol=DEFAULT_TOL):
    """Sz.-Nagy--Foias--Popescu characteristic function Theta_T.

    Theta_T(Z) = (-T + D_{T*} [I - Z T^*]^{-1} [I (x) Z] D_T) compressed to
    the defect ranges, amplified per level: T's Julia colligation
    compressed to orthonormal frames of Ran D_T and Ran D_T*.
    """
    julia = julia_matrix(T, tol)
    F_in = orthonormal_range(np.vstack(julia.B), tol)
    F_out = orthonormal_range(julia.C, tol)
    return _julia_compression(julia, F_in, F_out, tol, "popescu")


def _moebius_defects(alpha, tol):
    """(alpha, D_a, D_{a*}) from one SVD of the checked alpha.  D_a is invertible
    only if no singular value of alpha is isometric."""
    alpha = _as_complex(alpha)
    svd = np.linalg.svd(alpha)
    if svd[1].size and _isometric(svd[1][0], tol):
        raise NotStrict("alpha must be a strict contraction")
    return (alpha, *_defect_roots(svd, tol))


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
    """Theta factor (beta - a (x) I)(D_a^{-1} (x) I) of the Moebius map: one
    solve against the lifted D_a, Hermitian and, as alpha is strict, invertible."""
    alpha, D_a, _ = _moebius_defects(alpha, tol)
    ell, beta = _lift_level(alpha, beta)
    numer = beta - coeff_lift(alpha, ell)
    return np.linalg.solve(coeff_lift(D_a, ell), numer.conj().T).conj().T


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
    """Every coefficient block of B's values at the points, taken by one
    B.values call, as one (sum of n^2, output_dim, input_dim) stack."""
    o, i = B.output_dim, B.input_dim
    return np.concatenate(
        [
            value.reshape(Z.n, o, Z.n, i).transpose(0, 2, 1, 3).reshape(Z.n**2, o, i)
            for Z, value in zip(points, B.values(points))
        ]
    )


def _stack_supports(S, tol):
    """(supp_in, supp_out) of a (k, o, i) block stack: the ranges of the
    blocks side by side (o x k i) and of their adjoints (i x k o)."""
    k, o, i = S.shape
    supp_out = orthonormal_range(S.transpose(1, 0, 2).reshape(o, k * i), tol)
    supp_in = orthonormal_range(S.conj().transpose(2, 0, 1).reshape(i, k * o), tol)
    return supp_in, supp_out


def _polar_unitary(M):
    W, _, Vh = np.linalg.svd(M)
    return W @ Vh


def _coincidence_unitaries(A, C, tol):
    """Constant unitaries (U_out, U_in) with U_out A_k = C_k U_in for the
    (k, p, q) block stacks A and C, when any exist, read off the eigenbases
    of the two output algebras.

    Such an X = U_out carries the *-algebra generated by the A_k A_l* onto
    the one generated by the C_k C_l*: X A_k A_l* X* = C_k C_l*.  So X maps
    H1 = sum w_k A_k A_k* onto H2 = sum w_k C_k C_k* for fixed-seed weights
    w_k in [1, 2], and X = V2 U V1* for their eigenbases V1, V2 (ascending)
    and a U block diagonal over the clusters of H1's spectrum, cut wherever
    a gap exceeds sqrt(rank_rel) * lambda_max(H1).  U intertwines one
    fixed-seed complex combination N1 = sum c_kl A_k A_l* and its adjoint
    with the same combination N2 of the C's, both rotated into the
    eigenbases: U N1 = N2 U and U N1* = N2* U, in sum k_i^2 unknowns for
    clusters of sizes k_i, whose null vectors _null_vectors decides.  A
    solution has U*U N1 = U* N2 U = N1 U*U, and likewise for N1*, so the
    polar factor of an invertible solution is a unitary one; a fixed-seed
    complex combination of the null vectors is invertible when any
    solution is.

    Y = U_in follows from X: X A_k A_l* X* = C_k C_l* makes
    sum_k A_k* X* u_k -> sum_k C_k* u_k an isometry of the input support,
    and that isometry is Y.  Then sum_k C_k* X A_k = (sum_k C_k* C_k) Y,
    whose left factor is positive definite on the input support, so Y is
    the polar factor of sum_k C_k* X A_k.
    """
    k, p, q = A.shape
    rng = np.random.default_rng(0)
    sqrt_w = np.sqrt(rng.uniform(1.0, 2.0, k))[:, None, None]
    c = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    # the blocks side by side, p x k q, and sum_k S_k R_k* of two stacks
    rows = lambda S: S.transpose(1, 0, 2).reshape(p, k * q)
    outer = lambda S, R: rows(S) @ rows(R).conj().T
    lam, V1 = np.linalg.eigh(outer(sqrt_w * A, sqrt_w * A))
    V2 = np.linalg.eigh(outer(sqrt_w * C, sqrt_w * C))[1]
    A1 = V1.conj().T @ A
    C2 = V2.conj().T @ C
    N1 = outer(A1, np.tensordot(c.conj(), A1, 1))
    N2 = outer(C2, np.tensordot(c.conj(), C2, 1))
    cut = np.sqrt(tol.rank_rel) * lam.max(initial=0.0)
    cluster = np.cumsum(np.diff(lam, prepend=lam[:1]) > cut)
    a, b = np.nonzero(cluster[:, None] == cluster[None, :])
    # the columns of U -> (U N1 - N2 U, U N1* - N2* U) at U = E_ab
    L = np.zeros((a.size, 2, p, p), dtype=complex)
    for side, (M1, M2) in enumerate(((N1, N2), (N1.conj().T, N2.conj().T))):
        L[np.arange(a.size), side, a, :] = M1[b, :]
        L[np.arange(a.size), side, :, b] -= M2[:, a].T
    null = _null_vectors(L.reshape(a.size, 2 * p * p).T, tol)
    U = np.zeros((p, p), dtype=complex)
    U[a, b] = null @ (rng.standard_normal((null.shape[1], 2)) @ [1.0, 1j])
    U = _polar_unitary(U)
    U_in = _polar_unitary(C2.reshape(k * p, q).conj().T @ (U @ A1).reshape(k * p, q))
    return V2 @ U @ V1.conj().T, U_in


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
    fit points can only grow.  Blockwise the relation reads X A_k = C_k Y
    for the compressed coefficient blocks A_k of B1 and C_k of B2, p x q
    each, and _coincidence_unitaries solves it for (X, Y) = (U_out, U_in).
    The residual is the worst holdout mismatch, compressed the same way,
    and the verdict compares it to tol.
    """
    hold = list(holdout_points)
    if not hold:
        raise ValueError("need at least one holdout point")
    # each sampler is evaluated once per point, by one values call for
    # Z = 0 and the fit points, for the supports and the constraint blocks
    # alike, and one for the holdout points
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

    compress1 = lambda S: s1_out.conj().T @ S @ s1_in
    compress2 = lambda S: s2_out.conj().T @ S @ s2_in
    U_out, U_in = _coincidence_unitaries(compress1(S1), compress2(S2), num_tol)
    mismatch = U_out @ compress1(_block_stack(B1, hold)) - compress2(_block_stack(B2, hold)) @ U_in
    residual = 0.0
    for Z, M in zip(hold, np.split(mismatch, np.cumsum([Z.n**2 for Z in hold])[:-1])):
        if M.size:
            value = M.reshape(Z.n, Z.n, p, q).transpose(0, 2, 1, 3).reshape(Z.n * p, Z.n * q)
            residual = max(residual, float(np.linalg.norm(value, 2)))
    return U_out, U_in, residual, bool(residual <= tol)


def pure_unitary_split(B, tol=DEFAULT_TOL, sample_points=None):
    """Split the coefficient spaces into the subspace where B is a unitary
    constant, spanned by B(0)'s isometric singular pairs, and its pure
    complement, zero padding too.

    Returns ((pure_in, pure_out), (unitary_in, unitary_out)); raises
    ConstancyViolated when B fails to be constant on the detected
    unitary subspace at the sampled points.
    """
    b0 = B.at_zero()
    U, s, Wh = np.linalg.svd(b0)
    unitary = np.flatnonzero(_isometric(s, tol))
    split = lambda Q: (Q[:, unitary], np.delete(Q, unitary, 1))
    uni_in, pure_in = split(Wh.conj().T)
    uni_out, pure_out = split(U)
    if sample_points is None:
        sample_points = [
            sample_ball_point(B.d, n, 0.6, seed) for n, seed in ((1, 11), (2, 12), (2, 13))
        ]
    if uni_in.shape[1]:
        for Z in sample_points:
            diff = B(Z) @ coeff_lift(uni_in, Z.n) - coeff_lift(b0 @ uni_in, Z.n)
            if np.linalg.norm(diff, 2) > 10.0 * tol.eq_abs:
                raise ConstancyViolated("B is not constant on the unitary subspace")
    return (pure_in, pure_out), (uni_in, uni_out)
