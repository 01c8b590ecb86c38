"""Points of the matrix row-ball, free words, and the tensor layout.

Layout convention, fixed once for the whole toolkit: an operator on
X (x) C^n is stored with the coefficient space X as the fast index, so
the matrix of sum_j T_j (x) M_j is sum_j kron(M_j, T_j). Every formula
below and in the higher modules is normalized into this single layout.
"""

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DimensionMismatch, NotFinite, SingularSimilarity
from .numerics import DEFAULT_TOL

__all__ = [
    "MatrixTuple",
    "FreeWord",
    "row_norm",
    "in_row_ball",
    "direct_sum",
    "conjugate",
    "sample_ball_point",
    "word_apply",
    "words_up_to",
    "zero_tuple",
    "coeff_lift",
    "op_tensor",
    "pencil_zt_star",
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
    """Largest singular value of the block row [Z_1 ... Z_d]."""
    row = np.hstack(Z.coords)
    return float(np.linalg.norm(row, 2))


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
    s = np.linalg.svd(S, compute_uv=False)
    if s[-1] <= tol.rank_rel * s[0]:
        raise SingularSimilarity("condition number %.3e" % (s[0] / max(s[-1], 1e-300)))
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


def words_up_to(d, N):
    """All free words of length <= N in graded lexicographic order."""
    out = []
    for k in range(N + 1):
        for letters in product(range(1, d + 1), repeat=k):
            out.append(FreeWord(letters))
    return out


# Layout helpers.  op_tensor(A, M) is the matrix of A (x) M with A acting
# on the fast coefficient index.

def op_tensor(A, M):
    return np.kron(np.asarray(M, dtype=complex), np.asarray(A, dtype=complex))


def coeff_lift(A, n):
    """Matrix of A (x) I_n (amplification of a coefficient operator)."""
    return np.kron(np.eye(n), np.asarray(A, dtype=complex))


def pencil_zt_star(ops, Z):
    """I - sum_j T_j^* (x) Z_j, the resolvent pencil written [I - Z T^*]."""
    m = np.asarray(ops[0]).shape[0]
    out = np.eye(m * Z.n, dtype=complex)
    for Tj, Zj in zip(ops, Z.coords):
        out -= np.kron(Zj, np.asarray(Tj, dtype=complex).conj().T)
    return out


def pencil_tz_star(ops, Z):
    """I - sum_j T_j (x) Z_j^*, the pencil written [I - T Z^*]."""
    m = np.asarray(ops[0]).shape[0]
    out = np.eye(m * Z.n, dtype=complex)
    for Tj, Zj in zip(ops, Z.coords):
        out -= np.kron(Zj.conj().T, np.asarray(Tj, dtype=complex))
    return out


def point_block(Z, blocks):
    """sum_j kron(Z_j, blocks[j]); the lift of [I_H (x) Z] applied to a
    d-stack of coefficient maps."""
    first = np.asarray(blocks[0], dtype=complex)
    out = np.zeros((first.shape[0] * Z.n, first.shape[1] * Z.n), dtype=complex)
    for Zj, Bj in zip(Z.coords, blocks):
        out += np.kron(Zj, np.asarray(Bj, dtype=complex))
    return out
