"""Row contractions: defects, isometric-pure split, CNC detection,
canonical frames, defect points, and the Julia colligation, all read off
the one full SVD of T's row taken at construction."""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotContraction, NotFinite, NotPartialIsometry, NotPure
from .numerics import (
    DEFAULT_TOL,
    _defect_roots,
    _psd_eigenvalues,
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
    space to one copy, with || sum T_j T_j* || <= 1 up to tolerance.

    row_svd is the full SVD (U, sigma, W*) of the row, taken at
    construction and kept; the operators must not change in place.
    """

    ops: tuple
    row_svd: tuple = field(init=False, repr=False, compare=False)

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
        svd = np.linalg.svd(np.hstack(ops))
        if svd[1].size and svd[1][0] ** 2 > 1.0 + 1e-8:
            raise NotContraction("row norm exceeds 1 beyond tolerance")
        object.__setattr__(self, "ops", ops)
        object.__setattr__(self, "row_svd", svd)

    @cached_property
    def d(self):
        return len(self.ops)

    @cached_property
    def m(self):
        return self.ops[0].shape[0]

    def row(self):
        """The m x md block row [T_1 ... T_d]."""
        return np.hstack(self.ops)


def _from_row(row, d):
    """The RowContraction of an m x md block row."""
    m = row.shape[0]
    return RowContraction(tuple(row[:, j * m : (j + 1) * m] for j in range(d)))


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
    """dim of the span of the T^w Ran D_Tstar over all words, and
    stabilized_at, the smallest N whose words of length <= N span it: for
    a CNC T, the smallest N with rank O_N = m."""

    dim: int
    is_cnc: bool
    stabilized_at: int


def defects(T, tol=DEFAULT_TOL):
    """Defect operators (D_T, D_Tstar): PSD square roots of I - T*T (md x md)
    and I - TT* (m x m), read off the row's SVD by _defect_roots."""
    return _defect_roots(T.row_svd, tol)


def _defect_star_frame(T, tol):
    """A frame F_out of Ran D_Tstar and roots r with F_out* D_Tstar = diag(r) F_out*:
    the left singular vectors whose 1 - sigma^2 the PSD policy keeps, largest
    first (ties in SVD order), with the SVD's own column phases.  No library
    caller sees those phases: cnc_rank uses the span, P_0 = F_out diag(r^2)
    F_out* is D_Tstar^2 for any of them, and a kernel gap column only takes
    on its column's phase.  A caller that compares coordinates applies
    _fix_column_phases itself."""
    U, s, _ = T.row_svd
    w = _psd_eigenvalues(1.0 - s**2, tol)
    keep = np.argsort(-w, kind="stable")[: np.count_nonzero(w)]
    return U[:, keep], np.sqrt(w[keep])


def iso_pure_decompose(T, tol=DEFAULT_TOL):
    """Unique split T = V + C with V a row partial isometry and C pure: the
    one builder of V, with C = T gammaInf gammaInf* for V's frames."""
    gammaInf = _isometric_frames(T, tol).gammaInf
    C = _from_row(T.row() @ gammaInf @ gammaInf.conj().T, T.d)
    return IsoPureParts(V=_from_row(T.row() - C.row(), T.d), C=C)


def cnc_rank(T, tol=DEFAULT_TOL):
    """The CncReport of T, which is completely non-coisometric exactly when
    the span of the T^w Ran D_Tstar is everything."""
    return _cnc_report(T, _defect_star_frame(T, tol)[0], tol)


def _cnc_report(T, seed, tol):
    """cnc_rank from an orthonormal frame seed of Ran D_Tstar; rank 0 or m needs no span."""
    if seed.shape[1] in (0, T.m):
        return CncReport(dim=seed.shape[1], is_cnc=(seed.shape[1] == T.m), stabilized_at=0)
    frame, steps = stabilized_span(T.ops, seed, tol)
    return CncReport(dim=frame.shape[1], is_cnc=(frame.shape[1] == T.m), stabilized_at=steps)


def _check_partial_isometry(V, tol):
    # G = V*V has eigenvalues sigma^2, so ||G^2 - G|| = max |sigma^4 - sigma^2|
    s = V.row_svd[1]
    defect = np.max(np.abs(s**4 - s**2), initial=0.0)
    if defect > 100.0 * tol.eq_abs:
        raise NotPartialIsometry("V*V fails idempotence by %.3e" % defect)


def _frames_past(svd, r, tol):
    """The spans of a row SVD's left and right singular vectors past its
    first r, in bases that depend only on the spans, not on round-off."""
    U, _, Wh = svd
    stable = (subspace_stable_basis(F, tol) for F in (U[:, r:], Wh[r:].conj().T))
    return CanonicalModelFrames(*stable)


def canonical_frames(V, tol=DEFAULT_TOL):
    """Deterministic isometries onto (Ran V)^perp and Ker V for a row
    partial isometry V: its singular vectors past its one rank decision."""
    _check_partial_isometry(V, tol)
    # the check bounds sigma^2 |1 - sigma^2| by 100 eq_abs < 0.1, so each
    # sigma^2 sits near 0 or near 1 and the rank counts sigma^2 > 1/2; a
    # cutoff relative to sigma_max would count a V of tiny norm as full rank
    return _frames_past(V.row_svd, int(np.count_nonzero(V.row_svd[1] ** 2 > 0.5)), tol)


def _isometric_frames(T, tol):
    """canonical_frames of T's isometric part V, off T's own SVD: V keeps
    T's leading singular triples whose 1 - sigma^2 the PSD policy zeroes."""
    r = np.count_nonzero(_psd_eigenvalues(1.0 - T.row_svd[1] ** 2, tol) == 0.0)
    return _frames_past(T.row_svd, r, tol)


def defect_point(T, tol=DEFAULT_TOL):
    """The pure contraction -gamma0* T gammaInf against V's canonical frames."""
    frames = _isometric_frames(T, tol)
    return -frames.gamma0.conj().T @ T.row() @ frames.gammaInf


def reconstruct(V, delta, tol=DEFAULT_TOL):
    """Row contraction with isometric part V and defect point delta.

    Inverse of defect_point: the pure part is -gamma0 delta gammaInf*,
    so defect_point(reconstruct(V, delta)) returns delta.
    """
    frames = canonical_frames(V, tol)
    delta = np.asarray(delta, dtype=complex)
    if delta.size and np.linalg.norm(delta, 2) >= 1.0:
        raise NotPure("delta must be a strict contraction")
    if delta.shape != (frames.gamma0.shape[1], frames.gammaInf.shape[1]):
        raise DimensionMismatch("delta shape must match the canonical frames")
    return _from_row(V.row() - frames.gamma0 @ delta @ frames.gammaInf.conj().T, V.d)


def julia_matrix(T, tol=DEFAULT_TOL):
    """The unitary colligation [[T*, D_T], [D_Tstar, -T]].

    State maps are the adjoints T_j*, the input space is the full
    md-dimensional domain of T, the output space is the m-dimensional range.
    Its A_norm, the norm of [T_1*; ...; T_d*], is T's row norm, read off
    the SVD T took when it was built.
    """
    D_T, D_Tstar = defects(T, tol)
    m = T.m
    A = tuple(Tj.conj().T for Tj in T.ops)
    B = tuple(D_T[j * m : (j + 1) * m, :] for j in range(T.d))
    julia = Colligation(A=A, B=B, C=D_Tstar, D=-T.row())
    sigma = T.row_svd[1]
    vars(julia)["A_norm"] = float(sigma[0]) if sigma.size else 0.0
    return julia
