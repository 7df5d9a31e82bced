"""Dense Schur reduction of the Dirichlet-to-Neumann pencils: the test
oracle for the boundary Lanczos path of ``formsteklov.steklov``.

One sparse factorization of the interior block and one solve per boundary
DOF build the nb x nb reduced matrix; a dense symmetric eigensolve against
the boundary mass gives the spectrum.  Affordable on small meshes only.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from formsteklov import feec, mesh, steklov


def dtn_matrix(K, p):
    """Dense primal Dirichlet-to-Neumann matrix and boundary mass, both in
    the boundary-complex ordering."""
    D_p = mesh.coboundary(K, p).astype(float)
    Kst = (D_p.T @ feec.mass_matrix(K, p + 1) @ D_p).tocsr()
    MS = feec.mass_matrix(K.boundary_complex(), p).toarray()
    Tr = feec.tangential_trace(K, p)
    b = Tr.indices
    s = Tr.data
    mask = np.ones(Kst.shape[0], dtype=bool)
    mask[b] = False
    i = np.flatnonzero(mask)
    K_bb = Kst[np.ix_(b, b)].toarray() * s[None, :] * s[:, None]
    if len(i) == 0 and p == 0:
        return K_bb, MS
    K_ib = Kst[np.ix_(i, b)].multiply(s[None, :]).toarray()
    K_bi = Kst[np.ix_(b, i)]
    if p == 0:
        lam = K_bb + s[:, None] * (K_bi @ splu(Kst[np.ix_(i, i)].tocsc())
                                   .solve(-K_ib))
        return lam, MS
    M_sig = feec.mass_matrix(K, p - 1)
    C = (feec.mass_matrix(K, p)
         @ mesh.coboundary(K, p - 1).astype(float)).tocsr()
    P = sparse.bmat([[-M_sig, C[i, :].T], [C[i, :], Kst[np.ix_(i, i)]]],
                    format="csc")
    rhs = np.vstack([-C[b, :].T.multiply(s[None, :]).toarray(), -K_ib])
    sol = splu(P).solve(rhs)
    n_sig = M_sig.shape[0]
    sig, u_i = sol[:n_sig], sol[n_sig:]
    lam = K_bb + s[:, None] * (K_bi @ u_i) + s[:, None] * (C[b, :] @ sig)
    return lam, MS


def dual_matrix(K, p):
    """Dense dual reduced matrix  -E^T (P^{-1})_{sigma sigma} E  and the
    boundary p-form mass."""
    q = p + 1
    free_q = np.ones(K.n_simplices(q), dtype=bool)
    if q <= K.dim - 1:
        free_q[K.boundary_simplices[q]] = False
    W = np.flatnonzero(free_q)
    M_sig = feec.mass_matrix(K, q - 1)
    C_W = (feec.mass_matrix(K, q)
           @ mesh.coboundary(K, q - 1).astype(float))[W, :]
    if q <= K.dim - 1:
        D_q = mesh.coboundary(K, q).astype(float)
        Kst = (D_q.T @ feec.mass_matrix(K, q + 1) @ D_q)[np.ix_(W, W)]
    else:
        Kst = sparse.csr_matrix((len(W), len(W)))
    Tr = feec.tangential_trace(K, q - 1)
    MS = feec.mass_matrix(K.boundary_complex(), q - 1)
    E = (Tr.T @ MS).toarray()
    P = sparse.bmat([[-M_sig, C_W.T], [C_W, Kst]], format="csc")
    rhs = np.vstack([-E, np.zeros((len(W), E.shape[1]))])
    sig = splu(P).solve(rhs)[:M_sig.shape[0]]
    return MS @ (Tr @ sig), MS.toarray()


def spectrum(lam, B, k):
    """Lowest k eigenvalues of the reduced pencil, the symmetry defect of
    the reduced matrix and the kernel count."""
    k = min(k, lam.shape[0])
    sym = np.abs(lam - lam.T).max() / np.abs(lam).max()
    vals = eigh(0.5 * (lam + lam.T), B, subset_by_index=[0, k - 1],
                eigvals_only=True)
    return vals, sym, steklov._kernel_count(vals)[0]
