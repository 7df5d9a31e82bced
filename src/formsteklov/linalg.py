"""The one sparse factor policy of the Steklov and scalar solvers."""

from scipy import sparse
from scipy.sparse.linalg import splu


def symmetric_lu(S):
    """Sparse LU of a symmetric matrix under one minimum-degree ordering of
    S + S^T, applied to rows and columns alike, without pivoting: stable for
    symmetric positive definite and symmetric quasi-definite S (Vanderbei,
    SIAM J. Optim. 5, 1995)."""
    return splu(sparse.csc_matrix(S), permc_spec="MMD_AT_PLUS_A",
                diag_pivot_thresh=0, options={"SymmetricMode": True})
