"""NC Szego kernel, adjunction maps, de Branges-Rovnyak kernels, and a
Choi-matrix complete-positivity check."""

import warnings

import numpy as np

from .errors import DimensionMismatch, NearBoundary
from .ncspace import _kron_sum, row_norm

__all__ = [
    "ad_map",
    "szego_kernel",
    "szego_series",
    "dbr_kernel",
    "cp_check",
]


def _check_shapes(Z, W, P):
    P = np.asarray(P, dtype=complex)
    if Z.d != W.d:
        raise DimensionMismatch("points must share the coordinate count")
    if P.shape != (Z.n, W.n):
        raise DimensionMismatch("P must be (level of Z) x (level of W)")
    return P


def ad_map(Z, W, P):
    """Adjunction map sum_j Z_j P W_j*."""
    P = _check_shapes(Z, W, P)
    out = np.zeros_like(P)
    for Zj, Wj in zip(Z.coords, W.coords):
        out += Zj @ P @ Wj.conj().T
    return out


def _szego_system(Z, W):
    """Matrix of K -> K - sum_j Z_j K W_j* on the column-major vec(K):
    vectorization turns Z_j K W_j* into kron(conj(W_j), Z_j)."""
    r = row_norm(Z) * row_norm(W)
    if r >= (1.0 - 1e-6) ** 2:
        warnings.warn("kernel solve near the row-ball boundary", NearBoundary)
    return np.eye(Z.n * W.n) - _kron_sum([Wj.conj() for Wj in W.coords], Z.coords)


def szego_kernel(Z, W, P):
    """Value of the NC Szego kernel, the solution K of K - Ad_{Z,W*}(K) = P,
    solved as one dense linear system."""
    P = _check_shapes(Z, W, P)
    vec = np.linalg.solve(_szego_system(Z, W), P.ravel(order="F"))
    return vec.reshape(P.shape, order="F")


def szego_series(Z, W, P, L):
    """Partial sum sum_{l<=L} Ad_{Z,W*}^{(l)}(P) of the kernel series.

    Tail bound: the omitted remainder has norm at most
    ||P|| (rZ rW)^{L+1} / (1 - rZ rW) for row norms rZ, rW below 1.
    """
    if L < 0:
        raise ValueError("L must be nonnegative")
    P = _check_shapes(Z, W, P)
    term = P.copy()
    out = P.copy()
    for _ in range(L):
        term = ad_map(Z, W, term)
        out += term
    return out


def dbr_kernel(B, Z, W, P):
    """de Branges-Rovnyak kernel value K (x) I - B(Z) (K (x) I) B(W)*
    with K the Szego kernel value at (Z, W, P)."""
    K = szego_kernel(Z, W, P)
    lifted_out = _kron_sum([K], [np.eye(B.output_dim)])
    lifted_in = _kron_sum([K], [np.eye(B.input_dim)])
    return lifted_out - B(Z) @ lifted_in @ B(W).conj().T


def cp_check(B, Z, threshold=-1e-9):
    """Assemble the Choi block matrix of the kernel at (Z, Z) over matrix
    units of C^n and report its minimal eigenvalue; psd iff above the
    absolute threshold.  A B with output dimension 0 has an empty Choi
    matrix, reported as (None, True).

    Block (p, q) is dbr_kernel(B, Z, Z, E_pq).  The column-major vec of E_pq
    is e_{p+qn}, so one inverse of the Szego system gives every kernel value
    K[:, :, p, q], and B(Z) is evaluated once.
    """
    n = Z.n
    o = B.output_dim
    K = np.linalg.inv(_szego_system(Z, Z)).reshape(n, n, n, n, order="F")
    BZ = B(Z).reshape(n, o, n, B.input_dim)
    # B(Z) (K_pq (x) I) B(Z)* in two fixed tensordot steps: sum over j,
    # then over (l, b), giving the axes (i, a, p, q, k, c)
    BK = np.tensordot(BZ, K, axes=([2], [0]))
    BKB = np.tensordot(BK, BZ.conj(), axes=([2, 3], [3, 2])).transpose(2, 0, 1, 3, 4, 5)
    choi = np.einsum("ikpq,ac->piaqkc", K, np.eye(o)) - BKB
    choi = choi.reshape(n * n * o, n * n * o)
    choi = (choi + choi.conj().T) / 2.0
    if not choi.size:
        # an empty Choi matrix is PSD and has no eigenvalue
        return None, True
    min_eig = float(np.linalg.eigvalsh(choi)[0])
    return min_eig, min_eig >= threshold
