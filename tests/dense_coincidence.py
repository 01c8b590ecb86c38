"""Dense reference for the weak-coincidence constraints: the tall matrix
whose rows are the relations X A = C Y and Y A* = C* X, blockwise, on the
row-major (vec X, vec Y).

The library forms only the Gram matrix of these rows, in closed form; the
tests use the rows as an oracle.
"""

import numpy as np


def left_rows(A):
    """Matrix of U -> (U (x) I) A on the row-major vec(U), for a value A
    given as its 4-d block view (n, r, n, s)."""
    r = A.shape[1]
    return np.einsum("xy,icjb->ixjbyc", np.eye(r), A).reshape(A.size, r * r)


def right_rows(A):
    """Matrix of U -> A (U (x) I) on the row-major vec(U)."""
    s = A.shape[3]
    return np.einsum("iajc,xy->iajxcy", A, np.eye(s)).reshape(A.size, s * s)


def constraint_rows(pairs):
    """Stacked constraint rows of (M1, M2) value pairs given as 4-d block
    views (n, p, n, q): the direct relation, then its adjoint."""
    rows = []
    for M1, M2 in pairs:
        N1 = M1.conj().transpose(2, 3, 0, 1)
        N2 = M2.conj().transpose(2, 3, 0, 1)
        rows.append(np.hstack([left_rows(M1), -right_rows(M2)]))
        rows.append(np.hstack([-right_rows(N2), left_rows(N1)]))
    return np.vstack(rows)
