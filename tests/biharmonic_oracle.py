"""Dense routes to the biharmonic Steklov eigenvalues: the test oracles for
the matrix-free Lanczos path of ``formsteklov.scalar.biharmonic_spectrum``.

``harmonic_extension_gram`` builds the n x nb discrete harmonic extension H
with one stiffness solve per boundary vertex and forms R = H^T M H;
``biharmonic_mu1_mixed_oracle`` takes a different route through the flux
map, with one solve per vertex.  Affordable on small meshes only.
"""

import numpy as np
from scipy.linalg import eigh

from formsteklov import feec, scalar
from formsteklov.linalg import symmetric_lu


def harmonic_extension_gram(K):
    """Dense Gram matrix R of discrete harmonic extensions of boundary
    vertex data, in the volume L2 inner product, plus the boundary mass."""
    stiff, bv, interior = scalar._scalar_operators(K)
    M0 = feec.mass_matrix(K, 0)
    n, nb = K.n_simplices(0), len(bv)
    lu = symmetric_lu(stiff[np.ix_(interior, interior)])
    H = np.zeros((n, nb))
    H[bv, np.arange(nb)] = 1.0
    H[interior] = lu.solve(-stiff[np.ix_(interior, bv)].toarray())
    R = H.T @ (M0 @ H)
    MS0 = feec.mass_matrix(K.boundary_complex(), 0).toarray()
    return 0.5 * (R + R.T), MS0


def biharmonic_spectrum(K, k=4):
    """First k biharmonic Steklov eigenvalues, ascending, from a dense
    eigensolve of the harmonic-extension Gram pencil."""
    R, MS0 = harmonic_extension_gram(K)
    nb = R.shape[0]
    k = min(k, nb)
    vals = eigh(R, MS0, subset_by_index=[nb - k, nb - 1], eigvals_only=True)
    return np.sort(1.0 / vals)


def biharmonic_mu1_mixed_oracle(K, k=3):
    """Independent route to the same eigenvalues: minimize the L2 norm of a
    free source w against the consistent flux of the Poisson solve it
    drives.  Finite eigenvalues of (M, F^T MS F) with F the flux map."""
    stiff, bv, interior = scalar._scalar_operators(K)
    M0 = feec.mass_matrix(K, 0)
    n, nb = K.n_simplices(0), len(bv)
    lu = symmetric_lu(stiff[np.ix_(interior, interior)])
    MS0 = feec.mass_matrix(K.boundary_complex(), 0)
    lu_ms = symmetric_lu(MS0)

    # flux map F: w -> consistent normal derivative of the Poisson solve
    M0d = M0.toarray()
    F = np.zeros((nb, n))
    for j in range(n):
        load = M0d[:, j]
        f = np.zeros(n)
        f[interior] = lu.solve(load[interior])
        F[:, j] = lu_ms.solve(load[bv] - (stiff @ f)[bv])
    Q = F.T @ (MS0 @ F)
    Q = 0.5 * (Q + Q.T)
    vals, vecs = eigh(Q, M0d + 0.0)
    # largest eigenvalues of the flux form give the smallest mu
    theta = vals[::-1][:k]
    theta = theta[theta > 1e-12 * max(theta[0], 1e-300)]
    return np.sort(1.0 / theta)
