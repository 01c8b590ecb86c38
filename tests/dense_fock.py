"""Dense reference operators on the truncated free Hardy space: the shift
matrices, the word transpose and truncated left multiplication.

The library builds its model space from the observability map and never
forms these (W*p) x (W*q) matrices; the tests use them as an oracle.
"""

import numpy as np

from ncdbr.errors import DimensionMismatch
from ncdbr.ncspace import FreeWord


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
