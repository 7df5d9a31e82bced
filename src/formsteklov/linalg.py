"""The one sparse factor and the one boundary eigen-core of the Steklov
and scalar solvers."""

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigsh, splu)

from .errors import ConvergenceError


def symmetric_lu(S):
    """Sparse LU of a symmetric matrix under one minimum-degree ordering of
    S + S^T, applied to rows and columns alike, without pivoting: stable for
    symmetric positive definite and symmetric quasi-definite S (Vanderbei,
    SIAM J. Optim. 5, 1995)."""
    return splu(sparse.csc_matrix(S), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0, options={"SymmetricMode": True})


def top_eigenpairs(apply, MS, k, what):
    """Largest k eigenpairs (theta ascending, G) of T g = theta MS g for
    symmetric T, applied as apply(Y) = T Y, and SPD MS (nb x nb): seeded
    Lanczos in the MS inner product (Lehoucq, Sorensen & Yang, ARPACK
    Users' Guide, 1998), or a dense solve on the nb columns of T when
    k >= nb - 1 leaves too few directions for a Lanczos basis.  Raises
    ConvergenceError when Lanczos fails."""
    nb = MS.shape[0]
    if k >= nb - 1:
        T = apply(np.eye(nb))
        return eigh(0.5 * (T + T.T), MS.toarray(),
                    subset_by_index=[nb - k, nb - 1])
    op, MSinv = (LinearOperator((nb, nb), matvec=f, dtype=float)
                 for f in (apply, symmetric_lu(MS).solve))
    try:
        return eigsh(op, k, M=MS, Minv=MSinv, which="LA",
                     v0=np.random.default_rng(0).normal(size=nb))
    except (ArpackNoConvergence, ArpackError) as exc:
        raise ConvergenceError(f"Lanczos failed for {what}: {exc}") from exc
