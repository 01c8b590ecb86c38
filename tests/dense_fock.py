"""Dense reference model on the truncated free Hardy space: the words and
their word-major layout, the shift matrices, the word transpose, truncated
left multiplication, operator-range de Branges-Rovnyak spaces with their
extremal Gleason tuples and kernel vectors, and the model space of a row
contraction built over its words.

Vectors of the truncated space are stored word-major with the coefficient
space as the fast index: entry (w, c) sits at position
word_index(w) * coeff_dim + c.

The library checks the model theorem in T's own m-dimensional coordinates
and never forms these (W*p) x (W*q) matrices or the (W*p) x m observability
map; the tests use them as an oracle.
"""

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from ncdbr.errors import DimensionMismatch, NotCNC, NotContraction, TruncationTooShort
from ncdbr.fock import _kernel_probes
from ncdbr.ncspace import FreeWord, _kron_sum
from ncdbr.numerics import DEFAULT_TOL, _as_complex, _fix_column_phases, _psd_eigenvalues
from ncdbr.rowcontraction import _cnc_report, _defect_star_frame


def words_up_to(d, N):
    """All free words of length <= N in graded lexicographic order."""
    out = []
    for k in range(N + 1):
        for letters in product(range(1, d + 1), repeat=k):
            out.append(FreeWord(letters))
    return out


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


def _model_space(T, N, tol):
    """The truncated model space of T and its observability map O_N, laid
    out (W p) x m, from one thin SVD of O_N; raises NotCNC first when T is
    not CNC.

    I - B_L B_L* = O_N O_N* for the truncated multiplier B_L of the Julia
    colligation; the block of O_N at word w is F_out* D_T* (T*)^w, the
    Taylor coefficient of the NC resolvent D_T* [I - Z T*]^(-1).  The
    coefficient coordinates are compared with dense spaces built on
    orthonormal_range(D_T*), so F_out takes that frame's phase convention.
    """
    # one frame of Ran D_T*, with F_out* D_T* = diag(roots) F_out*, serves both
    F_out, roots = _defect_star_frame(T, tol)
    F_out = _fix_column_phases(F_out, tol)
    if not _cnc_report(T, F_out, tol).is_cnc:
        raise NotCNC("model verification needs a CNC row contraction")
    ambient = TruncatedFock(d=T.d, N=N, coeff_dim=F_out.shape[1])
    first = roots[:, None] * F_out.conj().T
    O_N = _word_blocks(first, [Tj.conj().T for Tj in T.ops], N).reshape(ambient.total_dim, T.m)
    Q, sigma, _ = np.linalg.svd(O_N, full_matrices=False)
    return _space(ambient, sigma[::-1] ** 2, Q[:, ::-1], tol), O_N


def word_route_report(T, N, tol=DEFAULT_TOL, seed=2024):
    """model_verify's report computed over the words: the model space from
    O_N's SVD, X from gleason_extremal, U = F* O_N, and the kernel identity
    against the Szego vectors' range-frame coordinates, with the same
    stacked probes, raises and messages."""
    space, O_N = _model_space(T, N, tol)
    # the rank decision is O_N's own SVD; only the message names the span's floor
    if space.dim < T.m:
        floor = _cnc_report(T, _defect_star_frame(T, tol)[0], tol).stabilized_at
        raise TruncationTooShort("N = %d < %d, where rank O_N reaches m" % (N, floor))
    F = space.range_frame
    p = space.ambient.coeff_dim
    sigma2 = 1.0 / space.gram.diagonal()
    G_half = np.sqrt(space.gram.diagonal())[:, None]
    X = gleason_extremal(space)
    U = F.conj().T @ O_N
    # K_0 g = (I - B(L) B(L)*) g at the empty word, for the basis vectors g
    K0 = sigma2[:, None] * F[:p].conj().T
    n, Z, x, u = _kernel_probes(T.d, p, seed)
    k, size = len(Z), n * space.dim
    Zstar = Z.conj().transpose(1, 0, 3, 2).reshape(T.d, k * n, n)
    pencils = np.eye(size) - _kron_sum(Zstar, X).reshape(k, size, size)
    rhs = np.einsum("iga,cg->iacg", x, K0).reshape(k, size, p)
    solved = np.linalg.solve(pencils, rhs).reshape(k, n, space.dim, p)
    via_X = np.einsum("iga,iacg->icg", u.conj(), solved)
    gap = G_half * (via_X - _kernel_coords(space, Z, x, u))
    kernel_resid = float(np.linalg.norm(gap, axis=1).max(initial=0.0))
    mismatch = G_half * (U @ np.stack(T.ops) - np.stack(X) @ U)
    return {
        "N": N,
        "model_dim": space.dim,
        "rank_O_N": space.dim,
        "frame_residual": float(np.abs(1.0 - sigma2).max(initial=0.0)),
        "intertwine_residual": float(np.linalg.norm(mismatch, 2, axis=(1, 2)).max(initial=0.0)),
        "kernel_identity_residual": kernel_resid,
    }
