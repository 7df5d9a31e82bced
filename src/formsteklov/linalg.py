"""The one sparse factor and the one boundary eigen-core of the Steklov
and scalar solvers."""

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import (ArpackError, ArpackNoConvergence,
                                 LinearOperator, eigsh, splu)

from .errors import ConvergenceError

_PIVOT_THRESH = 1e-8    # share of its column's largest entry below which
                        # a diagonal pivot is traded off the diagonal
RESIDUAL_TOL = 1e-8     # relative eigenpair residual the solvers accept


def symmetric_lu(S):
    """Sparse LU of a symmetric matrix under one minimum-degree ordering of
    S + S^T, applied to rows and columns alike, with threshold partial
    pivoting at _PIVOT_THRESH (Duff, Erisman & Reid, Direct Methods for
    Sparse Matrices, ch. 7) and no relaxed supernodes.  The positive
    definite and quasi-definite matrices of this package (Vanderbei, SIAM
    J. Optim. 5, 1995) keep every pivot on the diagonal; a saddle-point S
    trades only its rounding-noise pivots off it."""
    return splu(sparse.csc_matrix(S), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=_PIVOT_THRESH, relax=1,
                options={"SymmetricMode": True})


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
