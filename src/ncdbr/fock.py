"""Truncated free Hardy space: shifts, multiplication operators,
operator-range de Branges-Rovnyak spaces, extremal Gleason solutions,
and the numerical verification of the model theorem.

Vectors of the truncated space are stored word-major with the coefficient
space as the fast index: entry (w, c) sits at position
word_index(w) * coeff_dim + c.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotCNC
from .ncspace import (
    FreeWord,
    pencil_tz_star,
    sample_ball_point,
    word_apply,
    words_up_to,
)
from .numerics import DEFAULT_TOL, orthonormal_range, pinv
from .numerics import _as_complex, _fix_column_phases, _psd_eigenvalues
from .realization import taylor_coeff
from .rowcontraction import cnc_rank, defects, julia_matrix

__all__ = [
    "TruncatedFock",
    "DbrSpace",
    "shifts",
    "transpose_unitary",
    "mult_operator",
    "dbr_space",
    "gleason_extremal",
    "kernel_vector",
    "eval_vector",
    "model_verify",
]


@dataclass(frozen=True)
class TruncatedFock:
    """Finite section of the free Hardy space over words of length <= N,
    tensored with a coefficient space."""

    d: int
    N: int
    coeff_dim: int

    def __post_init__(self):
        if self.d < 1 or self.N < 0 or self.coeff_dim < 0:
            raise DimensionMismatch("invalid truncated Fock parameters")
        words = words_up_to(self.d, self.N)
        object.__setattr__(self, "words", tuple(words))
        object.__setattr__(self, "word_index", {w.letters: i for i, w in enumerate(words)})

    @property
    def num_words(self):
        return len(self.words)

    @property
    def total_dim(self):
        return self.num_words * self.coeff_dim


def _word_matrix(f, mapper):
    """Matrix on the word space sending basis word v to mapper(v) or to 0."""
    W = f.num_words
    M = np.zeros((W, W), dtype=complex)
    for col, w in enumerate(f.words):
        target = mapper(w)
        if target is not None and target in f.word_index:
            M[f.word_index[target], col] = 1.0
    return M


def shifts(f):
    """Left and right shift matrices on the word space; words that would
    exceed length N are mapped to 0 by the truncation."""
    L = []
    R = []
    for j in range(1, f.d + 1):
        L.append(_word_matrix(f, lambda w, j=j: (j,) + w.letters if len(w) < f.N else None))
        R.append(_word_matrix(f, lambda w, j=j: w.letters + (j,) if len(w) < f.N else None))
    return L, R


def transpose_unitary(f):
    """Permutation matrix of the word transpose, which swaps L and R."""
    return _word_matrix(f, lambda w: w.transpose.letters)


def mult_operator(coeffs, f):
    """Matrix of truncated left multiplication by sum_w z^w (x) coeff(w).

    coeffs maps FreeWord (or letter tuples) to uniform (K x J) matrices;
    f fixes d and N.  The result maps the J-coefficient truncation to the
    K-coefficient truncation.
    """
    items = [
        (w.letters if isinstance(w, FreeWord) else tuple(w), np.asarray(c, dtype=complex))
        for w, c in coeffs.items()
    ]
    if not items:
        raise DimensionMismatch("need at least one coefficient")
    K, J = items[0][1].shape
    for _, c in items:
        if c.shape != (K, J):
            raise DimensionMismatch("coefficient shapes must be uniform")
    out = np.zeros((f.num_words * K, f.num_words * J), dtype=complex)
    for letters, c in items:
        if len(letters) > f.N:
            continue
        for col, v in enumerate(f.words):
            u = letters + v.letters
            if len(u) > f.N:
                continue
            row = f.word_index[u]
            out[row * K : (row + 1) * K, col * J : (col + 1) * J] += c
    return out


@dataclass(frozen=True)
class DbrSpace:
    """Operator-range space Ran (I - B(L) B(L)*)^(1/2) on the truncation.

    range_frame holds the ambient-orthonormal eigenvectors of I - B(L) B(L)*
    for its kept eigenvalues w; gram = diag(1/w) is their operator-range Gram
    matrix, which defines the space's inner product <a, b> = a* gram b.
    """

    ambient: TruncatedFock
    mult: np.ndarray
    range_frame: np.ndarray
    gram: np.ndarray

    @property
    def dim(self):
        return self.range_frame.shape[1]

    def inner(self, a, b):
        return complex(a.conj() @ self.gram @ b)


def dbr_space(B_L, ambient, tol=DEFAULT_TOL):
    """Build the de Branges-Rovnyak space of a truncated multiplier from
    one eigendecomposition I - B_L B_L* = Q diag(w) Q*: an eigenvector q_k
    is (I - B_L B_L*)^(1/2) q_k / sqrt(w_k), of operator-range norm 1/sqrt(w_k).
    """
    B_L = _as_complex(B_L)
    if B_L.shape[0] != ambient.total_dim:
        raise DimensionMismatch("multiplier rows must match the ambient dimension")
    H = np.eye(B_L.shape[0]) - B_L @ B_L.conj().T
    w, Q = np.linalg.eigh((H + H.conj().T) / 2.0)
    # the smallest eigenvalue is 1 - ||B_L||^2
    if w.size and 1.0 - w[0] > (1.0 + 1e-8) ** 2:
        raise ValueError("truncated multiplier is not contractive")
    w = _psd_eigenvalues(w, tol)
    keep = w > 0.0
    frame = _fix_column_phases(Q[:, keep], tol)
    return DbrSpace(ambient=ambient, mult=B_L, range_frame=frame, gram=np.diag(1 / w[keep]))


def gleason_extremal(space):
    """The Gleason tuple X whose adjoints are the restricted right
    backward shifts, in range-frame coordinates.

    X_j* is the compression of R_j* (x) I to the space; X_j is its adjoint
    in the operator-range inner product.
    """
    f = space.ambient
    _, R = shifts(f)
    F = space.range_frame
    # gram is diag(1/w), so X_j = diag(w) Xstar_j* diag(1/w)
    w = 1.0 / space.gram.diagonal()
    X = []
    for Rj in R:
        back = np.kron(Rj.conj().T, np.eye(f.coeff_dim))
        Xstar = F.conj().T @ back @ F
        X.append(w[:, None] * Xstar.conj().T / w)
    return X


def _szego_vector(f, Z, g, x, u):
    x = np.asarray(x, dtype=complex)
    u = np.asarray(u, dtype=complex)
    coeffs = [np.conj(x.conj() @ word_apply(Z.coords, w) @ u) for w in f.words]
    return np.kron(coeffs, np.asarray(g, dtype=complex))


def kernel_vector(space, Z, g, x, u):
    """Truncated kernel vector K^B{Z, g (x) x, u} of the space.

    Its operator-range inner product against f in the space reproduces
    <g (x) x, f(Z) u> up to the truncation tail.
    """
    sz = _szego_vector(space.ambient, Z, g, x, u)
    # (sz* B_L)* is B_L* sz without copying the conjugate of B_L
    return sz - space.mult @ (sz.conj() @ space.mult).conj()


def eval_vector(vec, f, Z):
    """Evaluate an ambient vector as a function at a level-n point.

    Returns the (coeff_dim * n) x n matrix sum_w kron(Z^w, f_w).
    """
    K = f.coeff_dim
    out = np.zeros((K * Z.n, Z.n), dtype=complex)
    for i, w in enumerate(f.words):
        fw = vec[i * K : (i + 1) * K].reshape(K, 1)
        out += np.kron(word_apply(Z.coords, w), fw)
    return out


def _contract_level(vec, n, dim, u):
    """Apply [I_dim (x) u*] to a vector of C^dim (x) C^n."""
    return u.conj() @ vec.reshape(n, dim)


def model_verify(T, N, tol=DEFAULT_TOL, seed=2024):
    """Check that T is unitarily equivalent to the extremal Gleason tuple
    of the truncated model space built from its characteristic function.

    Returns a report with the frame (unitarity), intertwining, and
    kernel-identity residuals of the candidate equivalence; all three are
    expected to decay geometrically in the truncation length N.

    For a scalar strict contraction T = r the model space is spanned by
    k_N = (1, r, ..., r^N), X = r - r^(2N+1) (1 - r^2)/(1 - r^(2N+2)), and
    the intertwining residual is r^(2N+1) (1 - r^2)/(1 - r^(2N+2)) up to a
    relative error of at most the frame residual, so it decays like r^(2N).
    """
    report_cnc = cnc_rank(T, tol)
    if not report_cnc.is_cnc:
        raise NotCNC("model verification needs a CNC row contraction")
    colligation = julia_matrix(T, tol)
    D_T, D_Tstar = defects(T, tol)
    F_in = orthonormal_range(D_T, tol)
    F_out = orthonormal_range(D_Tstar, tol)
    q = F_in.shape[1]
    p = F_out.shape[1]
    m = T.m
    d = T.d

    coeffs = {}
    for w in words_up_to(d, N):
        coeffs[w] = F_out.conj().T @ taylor_coeff(colligation, w) @ F_in
    ambient = TruncatedFock(d=d, N=N, coeff_dim=p)
    B_L = mult_operator(coeffs, ambient)
    assert B_L.shape == (ambient.total_dim, ambient.num_words * q)
    space = dbr_space(B_L, ambient, tol)
    X = gleason_extremal(space)
    F = space.range_frame
    G = space.gram
    G_half = np.diag(np.sqrt(G.diagonal()))

    # coordinates of K_0 g for the basis vectors g of the output space
    Z0 = sample_ball_point(d, 1, 0.0, 0)
    K0 = [kernel_vector(space, Z0, g, np.ones(1), np.ones(1)) for g in np.eye(p)]
    K0_coord = F.conj().T @ np.column_stack(K0)

    seed_vec = D_Tstar @ F_out
    levels = [1, 2, 2, 1, 2]
    sources = []
    targets = []
    kernel_resid = 0.0
    for s, n in enumerate(levels):
        Z = sample_ball_point(d, n, 0.45, seed + s)
        pencil_T = pencil_tz_star(T.ops, Z)
        pencil_X = pencil_tz_star(X, Z)
        rng = np.random.default_rng(seed + 100 + s)
        for gi in range(p):
            x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            u = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            rhs_T = np.kron(x, seed_vec[:, gi])
            v = _contract_level(np.linalg.solve(pencil_T, rhs_T), n, m, u)
            rhs_X = np.kron(x, K0_coord[:, gi])
            w = _contract_level(np.linalg.solve(pencil_X, rhs_X), n, space.dim, u)
            sources.append(v)
            targets.append(w)
            direct = F.conj().T @ kernel_vector(space, Z, np.eye(p)[gi], x, u)
            kernel_resid = max(kernel_resid, float(np.linalg.norm(G_half @ (w - direct))))
    V_mat = np.array(sources).T
    W_mat = np.array(targets).T
    U = W_mat @ pinv(V_mat, tol)

    frame_resid = float(np.linalg.norm(U.conj().T @ G @ U - np.eye(m), 2))
    intertwine_resid = max(
        float(np.linalg.norm(G_half @ (U @ Tj - Xj @ U), 2))
        for Tj, Xj in zip(T.ops, X)
    )
    return {
        "N": N,
        "model_dim": space.dim,
        "frame_residual": frame_resid,
        "intertwine_residual": intertwine_resid,
        "kernel_identity_residual": kernel_resid,
    }
