"""Dense reference for the weak-coincidence fit: the tall matrix whose rows
are the relations X A = C Y and Y A* = C* X, blockwise, on the row-major
(vec X, vec Y), and a joint solve for the pair on it.

The library never forms these rows: it reads X off the eigenbases of the
two output algebras, in sum k_i^2 unknowns for clusters of sizes k_i, and
takes Y as a polar factor.  The tests use the rows, one eigh of their full
(p^2 + q^2)-square Gram and the polar factors of a fixed-seed combination
of its null vectors as the oracle.
"""

import numpy as np

import ncdbr.charfn as charfn


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


def dense_null(A, C, tol):
    """Null vectors of the constraints of (k, p, q) block stacks A, C from
    one eigh of the full Gram of their rows: the eigenvectors with
    eigenvalue at most rank_rel * lambda_max (at least one) and the top
    one, with the rank decided by the library's _null_vectors on the rows."""
    L = constraint_rows([(a[None, :, None, :], c[None, :, None, :]) for a, c in zip(A, C)])
    w, E = np.linalg.eigh(L.conj().T @ L)
    keep = max(1, int(np.count_nonzero(w <= tol.rank_rel * w[-1])))
    basis = E[:, np.r_[: min(keep, w.size - 1), w.size - 1]]
    return basis @ charfn._null_vectors(L @ basis, tol)


def dense_unitaries(A, C, tol):
    """(U_out, U_in) from dense_null: the polar factors of the X and Y parts
    of a fixed-seed complex combination of the null vectors."""
    _, p, q = A.shape
    null = dense_null(A, C, tol)
    vec = null @ (np.random.default_rng(0).standard_normal((null.shape[1], 2)) @ [1.0, 1j])
    polar = charfn._polar_unitary
    return polar(vec[: p * p].reshape(p, p)), polar(vec[p * p :].reshape(q, q))
