"""Row contractions: defects, isometric-pure split, CNC detection,
canonical frames, defect points, and the Julia colligation."""

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotFinite, NotPartialIsometry, NotPure
from .numerics import (
    DEFAULT_TOL,
    orthonormal_kernel,
    orthonormal_range,
    psd_sqrt,
    stabilized_span,
    subspace_stable_basis,
)
from .realization import Colligation

__all__ = [
    "RowContraction",
    "IsoPureParts",
    "CanonicalModelFrames",
    "CncReport",
    "defects",
    "iso_pure_decompose",
    "cnc_rank",
    "canonical_frames",
    "defect_point",
    "reconstruct",
    "julia_matrix",
]


@dataclass(frozen=True)
class RowContraction:
    """A row operator T = [T_1 ... T_d] from d copies of an m-dimensional
    space to one copy, with || sum T_j T_j* || <= 1 up to tolerance."""

    ops: tuple

    def __post_init__(self):
        ops = tuple(np.asarray(T, dtype=complex) for T in self.ops)
        if not ops:
            raise DimensionMismatch("need at least one operator")
        m = ops[0].shape[0]
        for T in ops:
            if T.ndim != 2 or T.shape != (m, m):
                raise DimensionMismatch("operators must be square of equal size")
            if not np.all(np.isfinite(T)):
                raise NotFinite("operators contain NaN or Inf entries")
        gram = sum(T @ T.conj().T for T in ops)
        if np.linalg.norm(gram, 2) > 1.0 + 1e-8:
            raise ValueError("row norm exceeds 1 beyond tolerance")
        object.__setattr__(self, "ops", ops)

    @property
    def d(self):
        return len(self.ops)

    @property
    def m(self):
        return self.ops[0].shape[0]

    def row(self):
        """The m x md block row [T_1 ... T_d]."""
        return np.hstack(self.ops)


@dataclass(frozen=True)
class IsoPureParts:
    V: RowContraction
    C: RowContraction


@dataclass(frozen=True)
class CanonicalModelFrames:
    """gamma0: isometry onto (Ran V)^perp, m x p.
    gammaInf: isometry onto Ker V inside the md-dimensional domain, md x q."""

    gamma0: np.ndarray
    gammaInf: np.ndarray


@dataclass(frozen=True)
class CncReport:
    dim: int
    is_cnc: bool
    stabilized_at: int


def defects(T, tol=DEFAULT_TOL):
    """Defect operators (D_T, D_Tstar): PSD square roots of I - T*T (md x md)
    and I - TT* (m x m)."""
    row = T.row()
    D_T = psd_sqrt(np.eye(T.m * T.d) - row.conj().T @ row, tol)
    D_Tstar = psd_sqrt(np.eye(T.m) - row @ row.conj().T, tol)
    return D_T, D_Tstar


def iso_pure_decompose(T, tol=DEFAULT_TOL):
    """Unique split T = V + C with V a row partial isometry and C pure.

    V is T compressed to the kernel of D_T, where T acts isometrically.
    """
    D_T, _ = defects(T, tol)
    ker = orthonormal_kernel(D_T, tol)
    P = ker @ ker.conj().T
    m = T.m
    V_row = T.row() @ P
    C_row = T.row() @ (np.eye(m * T.d) - P)
    V = RowContraction(tuple(V_row[:, j * m : (j + 1) * m] for j in range(T.d)))
    C = RowContraction(tuple(C_row[:, j * m : (j + 1) * m] for j in range(T.d)))
    return IsoPureParts(V=V, C=C)


def cnc_rank(T, tol=DEFAULT_TOL):
    """Dimension of the span of T^w Ran D_Tstar over all words.

    T is completely non-coisometric exactly when this span is everything.
    """
    _, D_Tstar = defects(T, tol)
    seed = orthonormal_range(D_Tstar, tol)
    if seed.shape[1] == 0:
        return CncReport(dim=0, is_cnc=(T.m == 0), stabilized_at=0)
    frame, steps = stabilized_span(T.ops, seed, tol)
    return CncReport(dim=frame.shape[1], is_cnc=(frame.shape[1] == T.m), stabilized_at=steps)


def _check_partial_isometry(V, tol):
    row = V.row()
    G = row.conj().T @ row
    defect = np.linalg.norm(G @ G - G, 2)
    if defect > 100.0 * tol.eq_abs:
        raise NotPartialIsometry("V*V fails idempotence by %.3e" % defect)


def canonical_frames(V, tol=DEFAULT_TOL):
    """Deterministic isometries onto (Ran V)^perp and Ker V."""
    _check_partial_isometry(V, tol)
    row = V.row()
    # stabilize the kernel bases so the frames depend only on the
    # subspaces, not on perturbations at machine precision
    gamma0 = subspace_stable_basis(orthonormal_kernel(row.conj().T, tol), tol)
    gammaInf = subspace_stable_basis(orthonormal_kernel(row, tol), tol)
    return CanonicalModelFrames(gamma0=gamma0, gammaInf=gammaInf)


def defect_point(T, tol=DEFAULT_TOL):
    """The pure contraction -gamma0* T gammaInf against V's canonical frames."""
    parts = iso_pure_decompose(T, tol)
    frames = canonical_frames(parts.V, tol)
    return -frames.gamma0.conj().T @ T.row() @ frames.gammaInf


def reconstruct(V, delta, tol=DEFAULT_TOL):
    """Row contraction with isometric part V and defect point delta.

    Inverse of defect_point: the pure part is -gamma0 delta gammaInf*,
    so defect_point(reconstruct(V, delta)) returns delta.
    """
    _check_partial_isometry(V, tol)
    delta = np.asarray(delta, dtype=complex)
    if delta.size and np.linalg.norm(delta, 2) >= 1.0:
        raise NotPure("delta must be a strict contraction")
    frames = canonical_frames(V, tol)
    if delta.shape != (frames.gamma0.shape[1], frames.gammaInf.shape[1]):
        raise DimensionMismatch("delta shape must match the canonical frames")
    row = V.row() - frames.gamma0 @ delta @ frames.gammaInf.conj().T
    m = V.m
    return RowContraction(tuple(row[:, j * m : (j + 1) * m] for j in range(V.d)))


def julia_matrix(T, tol=DEFAULT_TOL):
    """The unitary colligation [[T*, D_T], [D_Tstar, -T]].

    State maps are the adjoints T_j*, the input space is the full
    md-dimensional domain of T, the output space is the m-dimensional range.
    """
    D_T, D_Tstar = defects(T, tol)
    m = T.m
    A = tuple(Tj.conj().T for Tj in T.ops)
    B = tuple(D_T[j * m : (j + 1) * m, :] for j in range(T.d))
    return Colligation(A=A, B=B, C=D_Tstar, D=-T.row())
