"""Points of the matrix row-ball, free words, and the tensor layout.

Layout convention, fixed once for the whole toolkit: an operator on
X (x) C^n is stored with the coefficient space X as the fast index, so
the matrix of sum_j T_j (x) M_j is sum_j kron(M_j, T_j). Every formula
below and in the higher modules is normalized into this single layout.

Every level lift is built by one of two primitives and never by np.kron:
`coeff_lift` places a coefficient map on the block diagonal (I_n (x) A),
and `_kron_sum` forms sum_j kron(L_j, R_j) as one einsum, which serves
`point_block`, `pencil_tz_star`, the level pencils of the transfer
functions and the kernel systems.
"""

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotFinite, SingularSimilarity
from .numerics import DEFAULT_TOL, _ill_condition

__all__ = [
    "MatrixTuple",
    "FreeWord",
    "row_norm",
    "in_row_ball",
    "direct_sum",
    "conjugate",
    "sample_ball_point",
    "word_apply",
    "zero_tuple",
    "coeff_lift",
    "pencil_tz_star",
    "point_block",
]


@dataclass(frozen=True)
class MatrixTuple:
    """A point Z = (Z_1, ..., Z_d) of d square matrices of equal size n."""

    coords: tuple

    def __post_init__(self):
        coords = tuple(np.asarray(c, dtype=complex) for c in self.coords)
        if not coords:
            raise DimensionMismatch("need at least one coordinate")
        n = coords[0].shape[0]
        for c in coords:
            if c.ndim != 2 or c.shape != (n, n):
                raise DimensionMismatch("coordinates must be square of equal size")
            if not np.all(np.isfinite(c)):
                raise NotFinite("coordinates contain NaN or Inf entries")
        object.__setattr__(self, "coords", coords)

    @property
    def d(self):
        return len(self.coords)

    @property
    def n(self):
        return self.coords[0].shape[0]

    @cached_property
    def row_norm(self):
        """Largest singular value of the block row [Z_1 ... Z_d], computed on
        first use and kept; the coordinates must not change in place."""
        return float(np.linalg.norm(np.hstack(self.coords), 2))


@dataclass(frozen=True)
class FreeWord:
    """A word over the letters 1..d; the empty word is the monoid unit."""

    letters: tuple = field(default_factory=tuple)

    def __post_init__(self):
        letters = tuple(int(i) for i in self.letters)
        if any(i < 1 for i in letters):
            raise ValueError("letters are 1-based positive indices")
        object.__setattr__(self, "letters", letters)

    def __len__(self):
        return len(self.letters)

    def __mul__(self, other):
        return FreeWord(self.letters + other.letters)

    @property
    def transpose(self):
        return FreeWord(self.letters[::-1])


def zero_tuple(d, n):
    return MatrixTuple(tuple(np.zeros((n, n), dtype=complex) for _ in range(d)))


def row_norm(Z):
    """Largest singular value of the block row [Z_1 ... Z_d], computed once
    per point."""
    return Z.row_norm


def in_row_ball(Z, margin=0.0):
    if margin < 0:
        raise ValueError("margin must be nonnegative")
    return row_norm(Z) < 1.0 - margin


def direct_sum(Z, W):
    """Coordinate-wise block-diagonal sum of two points with equal d."""
    if Z.d != W.d:
        raise DimensionMismatch("direct_sum needs equal coordinate counts")
    coords = []
    for Zj, Wj in zip(Z.coords, W.coords):
        blk = np.zeros((Z.n + W.n, Z.n + W.n), dtype=complex)
        blk[: Z.n, : Z.n] = Zj
        blk[Z.n :, Z.n :] = Wj
        coords.append(blk)
    return MatrixTuple(tuple(coords))


def conjugate(Z, S, tol=DEFAULT_TOL):
    """Coordinate-wise similarity S^{-1} Z_j S; S must be well conditioned."""
    S = np.asarray(S, dtype=complex)
    if S.shape != (Z.n, Z.n):
        raise DimensionMismatch("similarity size must match the point level")
    cond = _ill_condition(S, tol)
    if cond is not None:
        raise SingularSimilarity("condition number %.3e" % cond)
    return MatrixTuple(tuple(np.linalg.solve(S, Zj @ S) for Zj in Z.coords))


def sample_ball_point(d, n, radius, seed):
    """Deterministic complex-Gaussian tuple rescaled to exact row norm."""
    if radius < 0 or radius >= 1:
        raise ValueError("radius must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    coords = [
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
        for _ in range(d)
    ]
    Z = MatrixTuple(tuple(coords))
    if radius == 0:
        return zero_tuple(d, n)
    return MatrixTuple(tuple(c * (radius / row_norm(Z)) for c in Z.coords))


def word_apply(ops, w):
    """Product T_{i_1} ... T_{i_k} for a word w; the empty word gives I."""
    ops = [np.asarray(T, dtype=complex) for T in ops]
    n = ops[0].shape[0]
    out = np.eye(n, dtype=complex)
    letters = w.letters if isinstance(w, FreeWord) else tuple(w)
    for i in letters:
        if i > len(ops):
            raise DimensionMismatch("word letter %d exceeds tuple length" % i)
        out = out @ ops[i - 1]
    return out


# Layout helpers: the coefficient operator acts on the fast index.

def coeff_lift(A, n):
    """Matrix of A (x) I_n (amplification of a coefficient operator): A is
    written into the n diagonal blocks of a zero (n, p, n, q) tensor."""
    A = np.asarray(A, dtype=complex)
    out = np.zeros((n, A.shape[0], n, A.shape[1]), dtype=complex)
    idx = np.arange(n)
    out[idx, :, idx, :] = A
    return out.reshape(n * A.shape[0], n * A.shape[1])


def _kron_sum(lefts, rights):
    """sum_j kron(lefts[j], rights[j]) for d-stacks of equal-shape
    matrices, as one einsum over the stacks."""
    L = np.asarray(lefts, dtype=complex)
    R = np.asarray(rights, dtype=complex)
    _, a, b = L.shape
    _, c, e = R.shape
    return np.einsum("jab,jce->acbe", L, R).reshape(a * c, b * e)


def pencil_tz_star(ops, Z):
    """I - sum_j T_j (x) Z_j^*, the pencil written [I - T Z^*]."""
    m = np.asarray(ops[0]).shape[0]
    return np.eye(m * Z.n) - _kron_sum([Zj.conj().T for Zj in Z.coords], ops)


def point_block(Z, blocks):
    """sum_j kron(Z_j, blocks[j]); the lift of [I_H (x) Z] applied to a
    d-stack of coefficient maps."""
    return _kron_sum(Z.coords, blocks)
