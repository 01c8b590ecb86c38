"""Dense complex linear-algebra primitives with an explicit tolerance policy.

All higher modules route their rank decisions and defect roots, each from
its contraction's one SVD, through this module so that one pair of cutoffs
(relative rank cutoff, absolute equality tolerance) governs the toolkit.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotHermitian, NotPSD

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "psd_sqrt",
    "orthonormal_range",
    "stabilized_span",
    "subspace_stable_basis",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical policy: relative singular-value cutoff and absolute equality
    tolerance. Both must sit strictly between 0 and 1e-3."""

    rank_rel: float = 1e-10
    eq_abs: float = 1e-10

    def __post_init__(self):
        if not (0.0 < self.rank_rel < 1e-3):
            raise ValueError("rank_rel out of range (0, 1e-3)")
        if not (0.0 < self.eq_abs < 1e-3):
            raise ValueError("eq_abs out of range (0, 1e-3)")


DEFAULT_TOL = Tolerance()


def _as_complex(A):
    A = np.asarray(A, dtype=complex)
    if A.ndim != 2:
        raise DimensionMismatch("expected a 2-d array, got ndim=%d" % A.ndim)
    if not np.all(np.isfinite(A)):
        raise NotFinite("matrix contains NaN or Inf entries")
    return A


def psd_sqrt(A, tol=DEFAULT_TOL):
    """Hermitian PSD square root via eigendecomposition of (A + A*)/2.

    Negative eigenvalues within the tolerance are clamped to zero; a
    genuinely indefinite input raises NotPSD.  A is taken at the scale
    of the identity: every caller roots a defect I - X*X or I - XX*, so
    eigenvalues at or below rank_rel * max(w_max, 1) are zeroed.
    """
    A = _as_complex(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatch("psd_sqrt needs a square matrix")
    herm_defect = np.linalg.norm(A - A.conj().T, 2) if A.size else 0.0
    if herm_defect > tol.eq_abs:
        raise NotHermitian("Hermitian defect %.3e exceeds eq_abs" % herm_defect)
    return _psd_root(*np.linalg.eigh((A + A.conj().T) / 2.0), tol)


def _psd_root(w, Q, tol):
    """The Hermitian root Q diag(w)^(1/2) Q* of ascending eigenvalues w with
    orthonormal eigenvectors Q, under the PSD policy."""
    S = (Q * np.sqrt(_psd_eigenvalues(w, tol))) @ Q.conj().T
    return (S + S.conj().T) / 2.0


def _defect_roots(svd, tol):
    """The defects (D_A, D_A*) of a contraction A from its full SVD
    (U, sigma, W*): W diag(1 - sigma^2)^(1/2) W* and U diag(1 - sigma^2)^(1/2) U*,
    sigma padded by zeros to each side's length, rooted under the PSD policy."""
    U, s, Wh = svd
    w = 1.0 - np.concatenate([s, np.zeros(max(U.shape[0], Wh.shape[0]) - s.size)]) ** 2
    return _psd_root(w[: Wh.shape[0]], Wh.conj().T, tol), _psd_root(w[: U.shape[0]], U, tol)


def _psd_eigenvalues(w, tol):
    """PSD policy on ascending Hermitian eigenvalues: NotPSD below -100*eq_abs,
    else zero every value at or below rank_rel * max(w_max, 1), so that roots
    and inverses of noise cannot inflate the rank, also when the whole matrix
    is noise; the nonzero values are kept."""
    if w.size and w[0] < -100.0 * tol.eq_abs:
        raise NotPSD("minimal eigenvalue %.3e below -100*eq_abs" % w[0])
    w = np.clip(w, 0.0, None)
    w[w <= tol.rank_rel * w.max(initial=1.0)] = 0.0
    return w


def _isometric(s, tol):
    """The singular values s of a contraction that count as 1: the PSD policy zeroes 1 - s^2."""
    return 1.0 - s**2 <= tol.rank_rel


def _fix_column_phases(B, tol):
    """Make each column's first significant entry real positive.

    This is the deterministic sign convention: SVD bases are unique only
    up to per-column phases, so we normalize them for reproducibility.
    An entry is significant above rank_rel * max(1, its column's largest
    modulus); a column with no significant entry is left as it is.
    """
    if B.size == 0:
        return B.copy()
    mag = np.abs(B)
    significant = mag > tol.rank_rel * np.maximum(1.0, mag.max(axis=0))
    cols = np.arange(B.shape[1])
    rows = np.argmax(significant, axis=0)
    has_pivot = significant[rows, cols]
    pivots = np.where(has_pivot, B[rows, cols], 1.0)
    return B * (np.conj(pivots) / np.abs(pivots))


def _svd_rank(s, tol):
    if s.size == 0 or s[0] <= 0.0:
        return 0
    return int(np.sum(s > tol.rank_rel * s[0]))


def _ill_condition(M, tol):
    """The condition number of a square M that is too ill conditioned to
    invert (sigma_min <= rank_rel * sigma_max), else None; the caller
    raises its own error type on it."""
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= tol.rank_rel * s[0]:
        return s[0] / max(s[-1], 1e-300)
    return None


def orthonormal_range(A, tol=DEFAULT_TOL):
    """Orthonormal columns spanning the numerical range of A."""
    A = _as_complex(A)
    if A.size == 0:
        return np.zeros((A.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    r = _svd_rank(s, tol)
    return _fix_column_phases(U[:, :r], tol)


def subspace_stable_basis(frame, tol=DEFAULT_TOL):
    """Canonical orthonormal basis depending only on the spanned subspace.

    SVD bases of a degenerate singular subspace can rotate arbitrarily
    under entry-level perturbations; a column-pivoted Gram-Schmidt of the
    orthogonal projector varies continuously with the subspace instead,
    which makes downstream frame-dependent quantities reproducible.  Each
    step takes the first column whose residual norm is within a relative
    rank_rel of the largest, so that round-off cannot break exact ties.
    An r x r frame spans its whole space and gets the identity, which the
    loop returns too where the projector is exactly I.
    """
    frame = _as_complex(frame)
    r = frame.shape[1]
    if r == 0:
        return frame
    if frame.shape[0] == r:
        return np.eye(r, dtype=complex)
    residual = frame @ frame.conj().T
    Q = np.zeros_like(frame)
    for k in range(r):
        norms = np.linalg.norm(residual, axis=0)
        j = int(np.argmax(norms >= (1.0 - tol.rank_rel) * norms.max()))
        Q[:, k] = residual[:, j] / np.linalg.norm(residual[:, j])
        residual -= np.outer(Q[:, k], Q[:, k].conj() @ residual)
    return _fix_column_phases(Q, tol)


def stabilized_span(ops, seed, tol=DEFAULT_TOL):
    """Smallest subspace containing Ran(seed) and invariant under each op.

    Iterates S <- S + sum_j ops[j] S and stops as soon as the dimension is
    unchanged for one step; termination within dim steps is guaranteed
    because the dimension strictly grows until saturation.  Returns
    (orthonormal frame, stabilization step count).
    """
    frame = orthonormal_range(_as_complex(seed), tol)
    steps = 0
    while True:
        enlarged = np.hstack([frame] + [np.asarray(A, dtype=complex) @ frame for A in ops])
        new_frame = orthonormal_range(enlarged, tol)
        if new_frame.shape[1] == frame.shape[1]:
            return new_frame, steps
        frame = new_frame
        steps += 1
