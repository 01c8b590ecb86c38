"""The model theorem checked in T's own m x m coordinates.

The model space H(B_T) of a CNC row contraction T is the image of the NC
resolvent h -> D_T* [I - Z T*]^(-1) h.  Its truncation O_N has block
F_out* D_T* (T*)^w at the word w, and I - B_L B_L* = O_N O_N* for the
truncated multiplier B_L of T's Julia colligation (Ball, Bolotnikov and
Fang).  So model_verify reads every field of its report off the m x m Gram
G_N = O_N* O_N and the 2m x 2m pencils of its kernel probes, and no array
grows with the d^N words.
"""

from functools import lru_cache

import numpy as np

from .errors import NotCNC, TruncationTooShort
from .ncspace import _kron_sum, sample_ball_point
from .numerics import DEFAULT_TOL
from .rowcontraction import _cnc_report, _defect_star_frame

__all__ = ["model_verify"]


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
