"""Colligations, transfer functions, and Taylor coefficient extraction.

A colligation packs the state-space data (A, B, C, D) of a transfer
function B(X) = I_n (x) D + I_n (x) C L_A(X)^{-1} X (x) B with
L_A(X) = I - sum_j X_j (x) A_j, all in the fixed tensor layout.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, SingularPencil
from .ncspace import FreeWord, coeff_lift, point_block
from .numerics import DEFAULT_TOL, _ill_condition, stabilized_span

__all__ = [
    "Colligation",
    "transfer_eval",
    "taylor_coeff",
    "is_coisometric",
    "is_observable",
]

# absolute margin for the rounding of rho and of the pencil's singular values
_RHO_ROUNDING = 4096 * np.finfo(float).eps


@dataclass(frozen=True)
class Colligation:
    """State-space node: A is a d-list of state maps, B a d-list of
    input-to-state maps, C the state-to-output map, D the feedthrough.
    A_norm, the norm of the column [A_1; ...; A_d], is computed once."""

    A: tuple
    B: tuple
    C: np.ndarray
    D: np.ndarray
    A_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = tuple(np.asarray(a, dtype=complex) for a in self.A)
        B = tuple(np.asarray(b, dtype=complex) for b in self.B)
        C = np.asarray(self.C, dtype=complex)
        D = np.asarray(self.D, dtype=complex)
        if len(A) != len(B) or not A:
            raise DimensionMismatch("A and B must be d-lists of equal length")
        s = A[0].shape[0]
        for a in A:
            if a.shape != (s, s):
                raise DimensionMismatch("state maps must be square of equal size")
        for b in B:
            if b.shape[0] != s or b.shape[1] != D.shape[1]:
                raise DimensionMismatch("input maps inconsistent with D")
        if C.shape != (D.shape[0], s):
            raise DimensionMismatch("C inconsistent with D")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "A_norm", float(np.linalg.norm(np.vstack(A), 2)) if s else 0.0)

    @property
    def d(self):
        return len(self.A)

    @property
    def state_dim(self):
        return self.A[0].shape[0]

    @property
    def input_dim(self):
        return self.D.shape[1]

    @property
    def output_dim(self):
        return self.D.shape[0]

    def block_matrix(self):
        """The node [[A, B], [C, D]] with A, B stacked over the d copies."""
        top = np.hstack([np.vstack(self.A), np.vstack(self.B)])
        bottom = np.hstack([self.C, self.D])
        return np.vstack([top, bottom])


def transfer_eval(c, X, tol=DEFAULT_TOL):
    """Evaluate the transfer function of the colligation at a tuple X."""
    if X.d != c.d:
        raise DimensionMismatch("tuple and colligation disagree on d")
    n = X.n
    pencil = np.eye(c.state_dim * n) - point_block(X, c.A)
    # ||sum X_j (x) A_j|| <= rho = ||X||_row ||A||_col, so the pencil's
    # condition is at most (1 + rho) / (1 - rho); the SVD check runs only
    # where that bound, with a margin for the rounding of rho, cannot rule
    # out sigma_min <= rank_rel * sigma_max
    rho = X.row_norm * c.A_norm
    if 1.0 - rho <= tol.rank_rel * (1.0 + rho) + _RHO_ROUNDING:
        cond = _ill_condition(pencil, tol)
        if cond is not None:
            raise SingularPencil("pencil condition %.3e" % cond)
    rhs = point_block(X, c.B)
    return coeff_lift(c.D, n) + coeff_lift(c.C, n) @ np.linalg.solve(pencil, rhs)


def taylor_coeff(c, w):
    """Coefficient of X^w in the expansion B(X) = sum_w X^w (x) B_w.

    The empty word gives D; a word i_1 ... i_k gives
    C A_{i_1} ... A_{i_{k-1}} B_{i_k}.  Validated in the test suite
    against exact reassembly at jointly nilpotent tuples.
    """
    letters = w.letters if isinstance(w, FreeWord) else tuple(w)
    if not letters:
        return c.D.copy()
    out = c.C
    for i in letters[:-1]:
        out = out @ c.A[i - 1]
    return out @ c.B[letters[-1] - 1]


def is_coisometric(c, tol=DEFAULT_TOL):
    """True when the node matrix M satisfies M M* = I within 10*eq_abs."""
    M = c.block_matrix()
    defect = np.linalg.norm(M @ M.conj().T - np.eye(M.shape[0]), 2)
    return bool(defect <= 10.0 * tol.eq_abs)


def is_observable(c, tol=DEFAULT_TOL):
    """True when the span of A^{*w} C* over all words fills the state space."""
    frame, _ = stabilized_span([a.conj().T for a in c.A], c.C.conj().T, tol)
    return frame.shape[1] == c.state_dim
