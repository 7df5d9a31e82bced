"""Scalar companion solvers: mean-exit time (one Jacobi-preconditioned CG
solve at every mesh size), mean-value property of harmonic functions, and
the fourth-order (biharmonic) Steklov eigenvalue.  The P1 stiffness is
feec.stiffness at degree 0.  The exit-time load is the volume share: each
vertex takes 1/(d+1) of the volume of every top it lies on, which is the
P1 mass applied to the constant 1, so no P1 mass is assembled for it.
Both take the volumes and gradients of the tops in closed form (see
mesh.simplex_gradients).  Like the feec assembly, the mean-value
quadrature runs over chunks of feec._CHUNK tops, and its points are
built coordinate-major, so each coordinate a polynomial reads is one
contiguous column.

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
(R, boundary mass), largest first; R is applied, never formed, and the
boundary eigen-core of linalg finds them as it finds the Steklov spectra
(see biharmonic_spectrum).  The identity holds exactly at the discrete level
when the flux is recovered consistently, which is why the flux here is
never a pointwise gradient sample.
"""

from dataclasses import dataclass

import numpy as np

from . import feec, mesh
from .errors import ConvergenceError, SingularSystemError
from .forms import harmonic_polynomials
from .linalg import RESIDUAL_TOL, symmetric_lu, top_eigenpairs
from .quadrature import simplex_rule


@dataclass
class ExitTimeResult:
    """Mean-exit time solve with consistently recovered boundary flux."""

    E: np.ndarray            # vertex cochain
    flux: np.ndarray         # per-boundary-vertex normal derivative
    mean_flux: float
    defect: float            # relative standard deviation of the flux
    vol_ratio: float         # vol_omega / vol_sigma
    cg_iterations: int       # CG iterations of the interior solve


def _scalar_operators(K: mesh.SimplicialComplex):
    """P1 stiffness, the boundary vertices in boundary-complex order and
    the interior vertices."""
    stiff = feec.stiffness(K, 0)
    bv = K.boundary_simplices[0]
    interior = np.setdiff1d(np.arange(K.n_simplices(0)), bv)
    return stiff, bv, interior


def _volume_shares(K: mesh.SimplicialComplex, vols):
    """P1 load of the constant 1: each vertex takes 1/(d+1) of the volume
    ``vols`` of every top it lies on (the P1 mass times the ones vector,
    up to rounding)."""
    d = K.dim
    return np.bincount(K.tops.ravel(), np.repeat(vols / (d + 1), d + 1),
                       minlength=K.n_simplices(0))


def mean_exit_time(K: mesh.SimplicialComplex) -> ExitTimeResult:
    """Solve Delta E = 1 with zero boundary values by Jacobi-preconditioned
    conjugate gradients to ||r|| <= 1e-12 ||b||, with the volume shares of
    the tops as the load; recover the flux from the residual of the
    boundary rows so that the discrete divergence theorem holds exactly
    (mean flux equals vol/area to solver precision).
    Every inner product is a numpy reduction, never a BLAS dot product, so
    E and the flux do not depend on the BLAS thread count.  Raises
    SingularSystemError when CG needs more than 20000 iterations."""
    stiff, bv, interior = _scalar_operators(K)
    vols = K.top_volumes()
    load = _volume_shares(K, vols)
    A, b = stiff[np.ix_(interior, interior)], load[interior]
    inv_diag = 1.0 / A.diagonal()
    x, r = np.zeros_like(b), b.copy()
    p = z = inv_diag * r
    rho, stop = (r * z).sum(), 1e-12 * np.sqrt((b * b).sum())
    iterations = 0
    while not np.sqrt((r * r).sum()) <= stop:     # a NaN residual fails too
        if iterations == 20000:
            raise SingularSystemError(
                f"exit-time CG did not converge after {iterations} iterations "
                f"({len(interior)} interior vertices)")
        q = A @ p
        alpha = rho / (p * q).sum()
        x += alpha * p
        r -= alpha * q
        z = inv_diag * r
        rho, rho_prev = (r * z).sum(), rho
        p = z + (rho / rho_prev) * p
        iterations += 1
    E = np.zeros(K.n_simplices(0))
    E[interior] = x
    resid = load - stiff @ E
    MS0 = feec.mass_matrix(K.boundary_complex(), 0)
    flux = symmetric_lu(MS0).solve(resid[bv])
    area = float((MS0 @ np.ones(len(bv))).sum())
    vol = float(vols.sum())
    mean_flux = float((MS0 @ flux).sum()) / area
    var = float((flux * (MS0 @ flux)).sum()) / area - mean_flux ** 2
    defect = np.sqrt(max(var, 0.0)) / abs(mean_flux)
    return ExitTimeResult(E=E, flux=flux, mean_flux=mean_flux,
                          defect=float(defect), vol_ratio=vol / area,
                          cg_iterations=iterations)


def _quadrature_points(C: mesh.SimplicialComplex, tops):
    """Degree-5 simplex-rule points of C.tops[tops], point-major: the q-th
    point of every top, then the (q+1)-th.  They are built
    coordinate-major and returned as the transposed view, so each
    coordinate column a polynomial reads is contiguous."""
    pts_ref, _ = simplex_rule(C.dim, 5)
    v = C.vertices.T[:, C.tops[tops].T]           # (ambient, k+1, nt)
    edges = v[:, 1:] - v[:, :1]
    pts = np.empty((len(v), len(pts_ref), v.shape[2]))
    # one einsum per point is 2-4x faster than one over all points
    for q, lam in enumerate(pts_ref[:, 1:]):
        np.einsum("k,akn->an", lam, edges, out=pts[:, q])
        pts[:, q] += v[:, 0]
    return pts.reshape(len(v), -1).T


def _top_means(C: mesh.SimplicialComplex, family):
    """(len(family), nt) means of each function of ``family`` over each
    top simplex of C by the degree-5 simplex rule, evaluated one chunk of
    tops at a time.  The weighted values are summed one quadrature point
    after another, so each mean rounds alike at every chunk size and BLAS
    thread count (BLAS gemv does not)."""
    w_ref = simplex_rule(C.dim, 5)[1]
    nt = len(C.tops)
    means = np.zeros((len(family), nt))
    for start in range(0, nt, feec._CHUNK):
        chunk = slice(start, start + feec._CHUNK)
        pts = _quadrature_points(C, chunk)
        for i, f in enumerate(family):
            for w, row in zip(w_ref, f(pts).reshape(len(w_ref), -1)):
                means[i, chunk] += w * row
    return means


def mean_value_gap(K: mesh.SimplicialComplex) -> float:
    """Largest relative gap between the volume and boundary averages of the
    harmonic polynomials of forms.harmonic_polynomials, each gap relative
    to the largest |f| at the boundary vertices and boundary quadrature
    points.  The averages are numpy reductions, never BLAS dot products,
    so the gap does not depend on the BLAS thread count."""
    fs = [f for _, f, _ in harmonic_polynomials(K.dim)]
    bc = K.boundary_complex()
    averages = []
    for C in (K, bc):
        vols = C.top_volumes()
        averages.append([float((row * vols).sum() / vols.sum())
                         for row in _top_means(C, fs)])
    # on coarse meshes a polynomial can vanish at every boundary vertex
    pts = np.vstack([bc.vertices, _quadrature_points(bc, slice(None))])
    worst = 0.0
    for f, va, ba in zip(fs, *averages):
        scale = float(np.abs(f(pts)).max())
        worst = max(worst, abs(va - ba) / max(scale, 1e-300))
    return worst


def biharmonic_spectrum(K: mesh.SimplicialComplex, k: int = 4) -> np.ndarray:
    """First k biharmonic Steklov eigenvalues, ascending: mu = 1/theta for
    the k largest theta of  R g = theta MS0 g  (see the module docstring).

    R is applied, never formed.  With one factor of the interior stiffness
    S_II, R phi extends phi harmonically (u_B = phi, u_I = -S_II^-1 S_IB
    phi), takes y = M0 u and returns y_B - S_BI S_II^-1 y_I: two solves per
    vector.  linalg.top_eigenpairs finds the largest theta, by Lanczos in
    the MS0 inner product or, when k >= nb - 1, densely from the nb
    columns of R.  Raises ConvergenceError when Lanczos fails or a
    relative residual
    ||R g - theta MS0 g|| / (theta ||MS0 g||) (infinity norms) exceeds
    linalg.RESIDUAL_TOL.
    """
    stiff, bv, interior = _scalar_operators(K)
    M0 = feec.mass_matrix(K, 0)
    n, nb = K.n_simplices(0), len(bv)
    S_IB = stiff[np.ix_(interior, bv)]
    lu = symmetric_lu(stiff[np.ix_(interior, interior)])
    MS0 = feec.mass_matrix(K.boundary_complex(), 0)
    k = min(k, nb)
    what = f"biharmonic Steklov pencil ({n} vertices, {nb} on the boundary)"

    def gram(phi):
        u = np.empty((n,) + phi.shape[1:])
        u[bv] = phi
        u[interior] = -lu.solve(S_IB @ phi)
        y = M0 @ u
        return y[bv] - S_IB.T @ lu.solve(y[interior])

    theta, G = top_eigenpairs(gram, MS0, k, f"the {what}")
    RG = gram(G)
    MG = MS0 @ G
    res = (np.abs(RG - MG * theta[None, :]).max(axis=0)
           / (np.abs(theta) * np.abs(MG).max(axis=0)))
    if not res.max() <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpairs of the {what} not converged: relative residual "
            f"{res.max():.2e} > {RESIDUAL_TOL:.0e}")
    return np.sort(1.0 / theta)
