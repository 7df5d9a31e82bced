"""Scalar companion solvers: mean-exit time, mean-value property of
harmonic functions, and the fourth-order (biharmonic) Steklov eigenvalue.

Sign conventions: the Laplacian is delta.d (positive on functions, so the
exit time solves  Delta E = 1, E = 0 on the boundary) and normal
derivatives are taken with the inner unit normal.

Biharmonic reformulation.  For an eigenpair (f, mu) of

    Delta^2 f = 0,   f = 0 on the boundary,   Delta f = mu dF/dN,

put w = Delta f; w is harmonic and its boundary trace is phi = mu dF/dN.
For any harmonic w' and any f vanishing on the boundary, the Green
identity gives  <w', Delta f>_Omega = <w'|_Sigma, dF/dN>_Sigma.  Applied
to w' ranging over harmonic extensions this reads  R phi = (1/mu) phi in
L^2 of the boundary, where  <R phi, psi> = <W phi, W psi>_Omega  and W is
the harmonic extension.  Discretely R = H^T M H with H the discrete
harmonic extension, and mu are the reciprocals of the eigenvalues of
(R, boundary mass), largest first.  The identity holds exactly at the
discrete level when the flux is recovered consistently, which is why the
flux here is never a pointwise gradient sample.
"""

from dataclasses import dataclass

import numpy as np

from . import feec, mesh
from .errors import SingularSystemError
from .linalg import symmetric_lu
from .quadrature import simplex_rule


@dataclass
class ExitTimeResult:
    """Mean-exit time solve with consistently recovered boundary flux."""

    E: np.ndarray            # vertex cochain
    flux: np.ndarray         # per-boundary-vertex normal derivative
    mean_flux: float
    defect: float            # relative standard deviation of the flux
    vol_ratio: float         # vol_omega / vol_sigma


def _scalar_operators(K: mesh.SimplicialComplex):
    D0 = mesh.coboundary(K, 0).astype(float)
    M1 = feec.mass_matrix(K, 1)
    stiff = (D0.T @ M1 @ D0).tocsr()
    M0 = feec.mass_matrix(K, 0)
    return stiff, M0


def mean_exit_time(K: mesh.SimplicialComplex) -> ExitTimeResult:
    """Solve Delta E = 1 with zero boundary values; recover the flux from
    the residual of the boundary rows so that the discrete divergence
    theorem holds exactly (mean flux equals vol/area to solver precision)."""
    stiff, M0 = _scalar_operators(K)
    bc = K.boundary_complex()
    bv = bc.parent_index[0]
    n = K.n_simplices(0)
    interior = np.setdiff1d(np.arange(n), bv)
    load = M0 @ np.ones(n)
    E = np.zeros(n)
    A = stiff[np.ix_(interior, interior)]
    if len(interior) > 30000:
        # direct factorization fill-in gets heavy for large 3-d solves
        from scipy import sparse as _sp
        from scipy.sparse.linalg import cg
        x, info = cg(A.tocsr(), load[interior], rtol=1e-12, maxiter=20000,
                     M=_sp.diags(1.0 / A.diagonal()))
        if info != 0:  # pragma: no cover
            raise SingularSystemError(f"cg failed (info={info})")
        E[interior] = x
    else:
        try:
            lu = symmetric_lu(A)
        except RuntimeError as exc:  # pragma: no cover
            raise SingularSystemError(str(exc)) from exc
        E[interior] = lu.solve(load[interior])
    resid = load - stiff @ E
    MS0 = feec.boundary_mass(bc, 0)
    flux = symmetric_lu(MS0).solve(resid[bv])
    area = float(np.ones(len(bv)) @ (MS0 @ np.ones(len(bv))))
    vol = float(K.top_volumes().sum())
    mean_flux = float(np.ones(len(bv)) @ (MS0 @ flux)) / area
    var = float(flux @ (MS0 @ flux)) / area - mean_flux ** 2
    defect = np.sqrt(max(var, 0.0)) / abs(mean_flux)
    return ExitTimeResult(E=E, flux=flux, mean_flux=mean_flux,
                          defect=float(defect), vol_ratio=vol / area)


def _quadrature_table(C: mesh.SimplicialComplex):
    """Degree-5 quadrature points of every top simplex of C, flattened to
    (nt * q, ambient), with the reference weights and the top measures."""
    pts_ref, w_ref = simplex_rule(C.dim, 5)
    v = C.vertices[C.tops]
    pts = np.einsum("qk,nkm->nqm", pts_ref[:, 1:], v[:, 1:, :] - v[:, :1, :]) \
        + v[:, :1, :]
    return pts.reshape(-1, C.vertices.shape[1]), w_ref, C.top_volumes()


def _average(f, table) -> float:
    """Mean of f over the mesh whose quadrature table is given."""
    pts, w_ref, vols = table
    vals = f(pts).reshape(len(vols), -1)
    return float((vals @ w_ref) @ vols / vols.sum())


def mean_value_gap(K: mesh.SimplicialComplex, family=None) -> float:
    """Largest relative gap between the volume and boundary averages of a
    family of harmonic polynomials (default: forms.harmonic_polynomials of
    the ambient dimension)."""
    from .forms import harmonic_polynomials

    if family is None:
        family = [(name, f) for name, f, _ in harmonic_polynomials(K.dim)]
    bc = K.boundary_complex()
    volume, boundary = _quadrature_table(K), _quadrature_table(bc)
    worst = 0.0
    for _, f in family:
        va = _average(f, volume)
        ba = _average(f, boundary)
        scale = float(np.abs(f(bc.vertices)).max())
        worst = max(worst, abs(va - ba) / max(scale, 1e-300))
    return worst


def harmonic_extension_gram(K: mesh.SimplicialComplex):
    """Dense Gram matrix R of discrete harmonic extensions of boundary
    vertex data, in the volume L2 inner product, plus the boundary mass."""
    stiff, M0 = _scalar_operators(K)
    bc = K.boundary_complex()
    bv = bc.parent_index[0]
    n = K.n_simplices(0)
    interior = np.setdiff1d(np.arange(n), bv)
    lu = symmetric_lu(stiff[np.ix_(interior, interior)])
    nb = len(bv)
    H = np.zeros((n, nb))
    H[bv, np.arange(nb)] = 1.0
    rhs = -stiff[np.ix_(interior, bv)].toarray()
    H[interior] = lu.solve(rhs)
    R = H.T @ (M0 @ H)
    MS0 = feec.boundary_mass(bc, 0).toarray()
    return 0.5 * (R + R.T), MS0


def biharmonic_spectrum(K: mesh.SimplicialComplex, k: int = 4) -> np.ndarray:
    """First k biharmonic Steklov eigenvalues, ascending: reciprocals of the
    largest eigenvalues of the harmonic-extension Gram pencil."""
    from scipy.linalg import eigh

    R, MS0 = harmonic_extension_gram(K)
    nb = R.shape[0]
    k = min(k, nb)
    vals = eigh(R, MS0, subset_by_index=[nb - k, nb - 1], eigvals_only=True)
    return np.sort(1.0 / vals[::-1])


def biharmonic_mu1_mixed_oracle(K: mesh.SimplicialComplex, k: int = 3) -> np.ndarray:
    """Independent route to the same eigenvalues: minimize the L2 norm of a
    free source w against the consistent flux of the Poisson solve it
    drives.  Finite eigenvalues of (M, F^T MS F) with F the flux map."""
    from scipy.linalg import eigh

    stiff, M0 = _scalar_operators(K)
    bc = K.boundary_complex()
    bv = bc.parent_index[0]
    n = K.n_simplices(0)
    interior = np.setdiff1d(np.arange(n), bv)
    lu = symmetric_lu(stiff[np.ix_(interior, interior)])
    MS0 = feec.boundary_mass(bc, 0)
    lu_ms = symmetric_lu(MS0)
    nb = len(bv)

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
