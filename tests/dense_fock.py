"""Dense reference operators on the truncated free Hardy space: the shift
matrices, the word transpose, truncated left multiplication, and the model
space of a row contraction built over its words.

The library checks the model theorem in T's own m-dimensional coordinates
and never forms these (W*p) x (W*q) matrices or the (W*p) x m observability
map; the tests use them as an oracle.
"""

import numpy as np

from ncdbr.errors import DimensionMismatch, NotCNC, TruncationTooShort
from ncdbr.fock import (
    TruncatedFock,
    _kernel_coords,
    _kernel_probes,
    _space,
    _word_blocks,
    gleason_extremal,
)
from ncdbr.ncspace import FreeWord, _kron_sum
from ncdbr.numerics import DEFAULT_TOL, _fix_column_phases
from ncdbr.rowcontraction import _cnc_report, _defect_star_frame


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
