"""Truncated free Hardy space: operator-range de Branges-Rovnyak spaces,
extremal Gleason solutions, and the numerical verification of the model
theorem.

Vectors of the truncated space are stored word-major with the coefficient
space as the fast index: entry (w, c) sits at position
word_index(w) * coeff_dim + c.
"""

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DimensionMismatch, NotCNC, NotContraction, TruncationTooShort
from .ncspace import _kron_sum, sample_ball_point, words_up_to
from .numerics import DEFAULT_TOL, _as_complex, _fix_column_phases, _psd_eigenvalues
from .rowcontraction import _cnc_report, _defect_star_frame

__all__ = [
    "TruncatedFock",
    "DbrSpace",
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

    @cached_property
    def words(self):
        """The words of length <= N in graded-lex order, built on first use."""
        return tuple(words_up_to(self.d, self.N))

    @cached_property
    def word_index(self):
        return {w.letters: i for i, w in enumerate(self.words)}

    @property
    def num_words(self):
        return sum(self.d**k for k in range(self.N + 1))

    @property
    def total_dim(self):
        return self.num_words * self.coeff_dim


def _word_blocks(first, ops, N):
    """Stack of first @ ops^w over the words w of length <= N in graded-lex
    order, one level at a time: block(w j) = block(w) @ ops[j]."""
    ops = np.stack([np.asarray(A, dtype=complex) for A in ops])
    level = np.asarray(first, dtype=complex)[None]
    levels = [level]
    for _ in range(N):
        level = (level[:, None] @ ops).reshape(len(level) * len(ops), *level.shape[1:])
        levels.append(level)
    return np.concatenate(levels)


@dataclass(frozen=True)
class DbrSpace:
    """Operator-range space Ran (I - B(L) B(L)*)^(1/2) on the truncation.

    range_frame holds the ambient-orthonormal eigenvectors of I - B(L) B(L)*
    for its kept eigenvalues w; gram = diag(1/w) is their operator-range Gram
    matrix, which defines the space's inner product <a, b> = a* gram b.
    """

    ambient: TruncatedFock
    range_frame: np.ndarray
    gram: np.ndarray

    @property
    def dim(self):
        return self.range_frame.shape[1]

    def inner(self, a, b):
        return complex(a.conj() @ self.gram @ b)


def _space(ambient, w, Q, tol):
    """The space of the ascending eigenpairs (w, Q) of I - B(L) B(L)*: an
    eigenvector q_k is (I - B(L) B(L)*)^(1/2) q_k / sqrt(w_k), of
    operator-range norm 1/sqrt(w_k)."""
    w = _psd_eigenvalues(w, tol)
    keep = w > 0.0
    frame = _fix_column_phases(Q[:, keep], tol)
    return DbrSpace(ambient=ambient, range_frame=frame, gram=np.diag(1 / w[keep]))


def dbr_space(B_L, ambient, tol=DEFAULT_TOL):
    """Build the de Branges-Rovnyak space of a truncated multiplier from
    one eigendecomposition I - B_L B_L* = Q diag(w) Q*."""
    B_L = _as_complex(B_L)
    if B_L.shape[0] != ambient.total_dim:
        raise DimensionMismatch("multiplier rows must match the ambient dimension")
    H = np.eye(B_L.shape[0]) - B_L @ B_L.conj().T
    w, Q = np.linalg.eigh((H + H.conj().T) / 2.0)
    # the smallest eigenvalue is 1 - ||B_L||^2
    if w.size and 1.0 - w[0] > (1.0 + 1e-8) ** 2:
        raise NotContraction("truncated multiplier is not contractive")
    return _space(ambient, w, Q, tol)


def gleason_extremal(space):
    """The Gleason tuple X whose adjoints are the restricted right
    backward shifts, in range-frame coordinates.

    X_j* is the compression of R_j* (x) I to the space; X_j is its adjoint
    in the operator-range inner product.
    """
    f = space.ambient
    F = space.range_frame
    p = f.coeff_dim
    # R_j* sends the word v j, at word index 1 + d index(v) + j - 1, to v
    inner = (f.num_words - 1) // f.d
    parents = F[: inner * p].conj().T
    children = F[p:].reshape(inner, f.d, p, space.dim)
    # gram is diag(1/w), so X_j = diag(w) Xstar_j* diag(1/w)
    w = 1.0 / space.gram.diagonal()
    X = []
    for j in range(f.d):
        Xstar = parents @ children[:, j].reshape(inner * p, space.dim)
        X.append(w[:, None] * Xstar.conj().T / w)
    return X


def kernel_vector(space, Z, g, x, u):
    """Truncated kernel vector K^B{Z, g (x) x, u} = (I - B(L) B(L)*) s of
    the space, with s the Szego vector, computed as F diag(w) F* s.

    Its operator-range inner product against f in the space reproduces
    <g (x) x, f(Z) u> up to the truncation tail.
    """
    p = space.ambient.coeff_dim
    x, u = (np.broadcast_to(np.asarray(v, dtype=complex), (1, p, Z.n)) for v in (x, u))
    coords = _kernel_coords(space, np.stack(Z.coords)[None], x, u)[0]
    return space.range_frame @ (coords @ np.asarray(g, dtype=complex))


def _kernel_coords(space, Z, x, u):
    """Range-frame coordinates diag(w) F* s_g of the kernel vectors
    K^B{Z^i, e_g (x) x_g^i, u_g^i} at k stacked points Z of shape
    (k, d, n, n), with x and u of shape (k, p, n): one (dim, p) block per
    point, a column per output basis vector e_g.  One Szego recursion runs
    over the rows conj(x_g^i) of all k points: the Szego vector s_g has
    coefficient conj(x_g* Z^w u_g) at (w, g)."""
    f = space.ambient
    rows = _word_blocks(np.conj(x), Z.swapaxes(0, 1), f.N)
    coeffs = np.einsum("wign,ign->wig", rows, u).conj()
    F = space.range_frame.reshape(f.num_words, f.coeff_dim, space.dim)
    return np.einsum("wgc,wig->icg", F.conj(), coeffs) / space.gram.diagonal()[:, None]


def eval_vector(vec, f, Z):
    """Evaluate an ambient vector as a function at a level-n point.

    Returns the (coeff_dim * n) x n matrix sum_w kron(Z^w, f_w).
    """
    powers = _word_blocks(np.eye(Z.n), Z.coords, f.N)
    coeffs = np.asarray(vec, dtype=complex).reshape(f.num_words, f.coeff_dim)
    return np.einsum("wab,wk->akb", powers, coeffs).reshape(f.coeff_dim * Z.n, Z.n)


# the levels of model_verify's kernel probes, one point each
_PROBE_LEVELS = (1, 2, 2, 1, 2)


@lru_cache(maxsize=16)
def _kernel_probes(d, p, seed):
    """model_verify's seeded kernel probes as one read-only stack at level
    2: a tuple (2, Z, x, u) with Z of shape (5, d, 2, 2) and x, u of shape
    (5, p, 2).  Point s is sample_ball_point(d, n, 0.45, seed + s) with n
    from _PROBE_LEVELS, and x and u are drawn from
    default_rng(seed + 100 + s); a level-1 point is stored as Z (+) 0, with
    x and u padded by a zero column.  NC kernels respect direct sums, so
    the padded probe checks the same identity: over the level index every
    pencil is block diagonal with I in the padded block, and the padded
    right-hand side is 0 there.  The probes are constants of (d, p, seed),
    so they are drawn once per process, and the arrays are read-only
    because every caller shares them."""
    k, n = len(_PROBE_LEVELS), max(_PROBE_LEVELS)
    Z = np.zeros((k, d, n, n), dtype=complex)
    x, u = np.zeros((k, p, n), dtype=complex), np.zeros((k, p, n), dtype=complex)
    for s, level in enumerate(_PROBE_LEVELS):
        Z[s, :, :level, :level] = sample_ball_point(d, level, 0.45, seed + s).coords
        draws = np.random.default_rng(seed + 100 + s).standard_normal((p, 4, level))
        x[s, :, :level] = draws[:, 0] + 1j * draws[:, 1]
        u[s, :, :level] = draws[:, 2] + 1j * draws[:, 3]
    for a in (Z, x, u):
        a.flags.writeable = False
    return n, Z, x, u


def model_verify(T, N, tol=DEFAULT_TOL, seed=2024):
    """Check that T is unitarily equivalent to the extremal Gleason tuple
    X of the truncated model space built from its characteristic function.

    The unitary is the truncated NC resolvent h -> D_T* [I - Z T*]^(-1) h,
    and every field is read off m x m matrices: the Gram of its observability
    map, G_N = O_N* O_N = P_0 + ... + P_N with P_0 = D_T*^2 and
    P_k = sum_j T_j P_(k-1) T_j*, and E = P_N G_N^(-1).  In range-frame
    coordinates U = F* O_N, G^(1/2) U is unitary and X_j = U T~_j U^(-1) with
    T~_j = T_j (I - E).  O_N reaches all of H from N = stabilized_at of T's
    CNC span on, and TruncationTooShort is raised below it; the report holds
    rank_O_N = m and three residuals that decay geometrically in N:
    frame_residual ||I - G_N||, which is ||sum_{|w|=N+1} T^w T^w*||;
    intertwine_residual max_j ||G^(1/2) (U T_j - X_j U)|| = max_j ||T_j E||;
    and kernel_identity_residual, the largest gap in
    (I - Z X*)^(-1) K_0 g = K^B{Z, g (x) x, u} over five seeded probes
    (Z, x, u).  In T's coordinates K_0 g is f_g = F_out diag(roots) e_g and
    the kernel vector is T's truncated resolvent at x (x) f_g, so the gap is
    the norm of (u* (x) I) [(I - sum_j Z_j* (x) T~_j)^(-1) - S_N] (x (x) f_g)
    with S_N = sum_{k<=N} (sum_j Z_j* (x) T_j)^k, at the level-2 stack of
    _kernel_probes.  The check forms one kron sum of T, multiplies by it N
    times and makes one stacked solve of the five T~ pencils.  No field sees
    the column phases of F_out: P_0 is D_T*^2 for any of them, and gap
    column g only takes on column g's phase.

    For a scalar strict contraction T = r the model space is spanned by
    k_N = (1, r, ..., r^N), X = r - r^(2N+1) (1 - r^2)/(1 - r^(2N+2)), and
    the intertwining residual is exactly r^(2N+1) (1 - r^2)/(1 - r^(2N+2)).
    """
    # one frame of Ran D_T*, with F_out* D_T* = diag(roots) F_out*, serves both
    F_out, roots = _defect_star_frame(T, tol)
    cnc = _cnc_report(T, F_out, tol)
    if not cnc.is_cnc:
        raise NotCNC("model verification needs a CNC row contraction")
    if N < cnc.stabilized_at:
        raise TruncationTooShort("N = %d < %d, where rank O_N reaches m" % (N, cnc.stabilized_at))
    row = T.row()
    star = row.conj().T.reshape(T.d, T.m, T.m)
    # P_k is the Gram of O_N's blocks at the words of length k
    P = (F_out * roots**2) @ F_out.conj().T
    G = P
    for _ in range(N):
        # sum_j T_j P T_j* = [T_1 ... T_d] [P T_1*; ...; P T_d*]
        P = row @ (P @ star).reshape(T.d * T.m, T.m)
        G = G + P
    # E = P_N G_N^-1 = (G_N^-1 P_N)*, as G_N and P_N are Hermitian
    E = np.linalg.solve(G, P).conj().T
    intertwine = np.linalg.svd(E.conj().T @ star, compute_uv=False)
    I_E = np.eye(T.m) - E

    f, p = F_out * roots, roots.size
    n, Z, x, u = _kernel_probes(T.d, p, seed)
    k, size = len(Z), n * T.m
    # the k kron sums sum_j Z^i_j* (x) T_j from one kron sum on the stacked
    # Z^i*, since kron([Z^1*; Z^2*], T_j) = [kron(Z^1*, T_j); ...]
    Zstar = Z.conj().transpose(1, 0, 3, 2).reshape(T.d, k * n, n)
    K = _kron_sum(Zstar, T.ops).reshape(k, size, size)
    pencils = np.eye(size) - (K.reshape(k, n, T.m, n, T.m) @ I_E).reshape(k, size, size)
    # right-hand side x_g (x) f_g per column, one solve for all probes
    rhs = np.einsum("iga,cg->iacg", x, f).reshape(k, size, p)
    series = rhs
    for _ in range(N):
        series = rhs + K @ series
    gap = (np.linalg.solve(pencils, rhs) - series).reshape(k, n, T.m, p)
    gap = np.einsum("iga,iacg->icg", u.conj(), gap)
    kernel_resid = float(np.linalg.norm(gap, axis=1).max(initial=0.0))

    return {
        "N": N,
        "model_dim": T.m,
        "rank_O_N": T.m,
        "frame_residual": float(np.abs(1.0 - np.linalg.eigvalsh(G)).max(initial=0.0)),
        "intertwine_residual": float(intertwine.max(initial=0.0)),
        "kernel_identity_residual": kernel_resid,
    }
