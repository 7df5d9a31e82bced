"""Discrete Dirichlet-to-Neumann eigenproblems for differential forms.

Primal problem (tangential boundary data, degree p of the boundary): the
energy  |d u|^2 + |delta_h u|^2  of Whitney p-forms on the volume, with the
codifferential realized weakly through a mixed variable sigma.  Its Schur
complement onto the tangential boundary DOFs is the discrete operator:
symmetric, positive semidefinite, with kernel dimension equal to the Betti
number of the domain in that degree.  It is never formed; its eigenpairs
are the finite eigenpairs of the volume pencil
    A = [[-M_sigma, C^T], [C, K]],   B = R^T MS R   (R: signed boundary rows).

Dual problem (normal boundary data): the same energy one degree up
(q = p + 1) over sigma and the free q-DOFs W (tangential boundary q-DOFs
zeroed), bordered by the normal-trace cochain g through E = Tr^T MS:
    A = [[-M, C_W^T, E], [C_W, K, 0], [E^T, 0, 0]],   B = diag(0, 0, MS),
so that eliminating (sigma, W) leaves  -E^T (P^{-1})_{sigma sigma} E g =
nu MS g  with  P = [[-M, C_W^T], [C_W, K]].

Both pencils share one eigen-core: one sparse factor of S = A + B (shift
-1, nonsingular whenever the interior block is) applies the boundary
operator T = MS R S^-1 R^T MS, and the finite eigenpairs are those of
T g = theta MS g with theta = 1/(nu + 1), the largest theta first; the
boundary Lanczos of linalg.top_eigenpairs finds them in the MS inner
product.  S is symmetric and saddle-shaped: its sigma block -M
is negative definite, the rest only semidefinite.  It is factored once,
under one symmetric minimum-degree ordering, with threshold partial
pivoting (linalg.symmetric_lu): a pivot stays on the diagonal unless it
is below 1e-8 of its column's largest entry, so only the rounding-noise
pivots of the semidefinite block's kernel leave it (none on the plane, at
most 74 rows of a 3-d pencil at the default levels, for at most a third
more fill than the unpivoted factor on shell level 2).  Only a zero
diagonal outside sigma, the W block of the top-degree dual, takes a
diagonal shift of relative size 1e-8, which makes S symmetric
quasi-definite and so stably factorable without pivoting (Vanderbei,
SIAM J. Optim. 5, 1995).  The factor's L and U are never read: SciPy
would keep CSC copies of both.  Every solve is refined with the same
factor to a backward error of 1e-14 (Higham, Accuracy and Stability of
Numerical Algorithms, 2002, ch. 12), and the eigenvalues are Rayleigh
quotients in the exact pencil, so neither pivot noise nor the shift
reaches them.  Against a pivoted COLAMD LU this halves the nonzeros of L
and U of a 3-d verify pass.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import feec, mesh
from .errors import ConvergenceError, SingularSystemError
from .linalg import RESIDUAL_TOL, symmetric_lu, top_eigenpairs

_SHIFT = -1.0
_KERNEL_TOL = 1e-9       # |nu| below this share of max(1, |nu_k|) is kernel
_DELTA = 1e-8            # quasi-definite diagonal shift of the non-sigma rows
_REFINE_TOL = 1e-14      # backward error every solve is refined to
_REFINE_RATE = 0.5       # each refinement step must halve the backward error


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of one Dirichlet-to-Neumann problem, with the
    work that produced them: pencil size n, boundary size nb, factor fill
    (the entries SuperLU stores for L and U), the rows it pivoted off the
    diagonal, the number of triangular solves, the diagonal shift delta of
    the factor (0 unless the pencil has a zero diagonal outside sigma) and
    the worst backward error ||b - S x|| / (||S|| ||x|| + ||b||) of any
    solve after refinement."""

    degree: int
    dual: bool
    eigenvalues: np.ndarray
    eigencochains: np.ndarray | None
    kernel_dim: int
    gap_ratio: float
    residuals: np.ndarray
    level: int | None = None
    sym_defect: float = 0.0
    n: int = 0
    nb: int = 0
    fill: int = 0
    pivots: int = 0
    solves: int = 0
    delta: float = 0.0
    solve_residual: float = 0.0

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "dual": self.dual,
            "level": self.level,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "kernel_dim": int(self.kernel_dim),
            "residuals": [float(r) for r in self.residuals],
            "n": int(self.n),
            "nb": int(self.nb),
            "fill": int(self.fill),
            "pivots": int(self.pivots),
            "solves": int(self.solves),
            "delta": float(self.delta),
            "solve_residual": float(self.solve_residual),
        }


def _coupling(K: mesh.SimplicialComplex, q: int):
    """M_q D_{q-1}: the weak codifferential of a q-form against the
    (q-1)-form mixed variable."""
    return (feec.mass_matrix(K, q)
            @ mesh.coboundary(K, q - 1).astype(float)).tocsr()


def _factor(S, what):
    """Threshold-pivoted symmetric LU of S (linalg.symmetric_lu) and the
    delta it took.  The sigma rows are those with S_ii < 0: the sigma block
    -M is negative definite, and every other diagonal entry of S = A + B is
    >= 0.  Only a zero diagonal outside sigma (the top-degree dual's W
    block) takes a shift: the rows outside sigma gain _DELTA |S_ii|, and a
    zero-diagonal row _DELTA sum_j S_ij^2 / |S_jj| over the j with
    S_jj != 0, the diagonal of the Schur complement C_W M^-1 C_W^T it
    stands for; this makes S symmetric quasi-definite (Gill, Saunders &
    Shinnerl, SIAM J. Matrix Anal. Appl. 17, 1996).
    The per-row scale keeps that block's pivots on the diagonal: with
    _DELTA max|diag S| they leave it, for 94M fill instead of 0.44M on
    disk level 5.  Refinement and the residual gate guard every factor."""
    diag = S.diagonal()
    sig, d = diag < 0, np.abs(diag)
    delta = 0.0
    if not d[~sig].all():
        delta = _DELTA
        inv = np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)
        shift = np.where(d > 0, d, S.multiply(S) @ inv)
        shift[sig] = 0.0
        S = S + sparse.diags(delta * shift)
    try:
        return symmetric_lu(S), delta
    except RuntimeError:                 # an exactly zero pivot
        raise SingularSystemError(f"singular pencil of {what}") from None


def _pencil_spectrum(A, R, MS, k, degree, level=None,
                     dual=False) -> SpectrumResult:
    """Lowest k eigenpairs of the sparse pencil  A x = nu B x,  B = R^T MS R.

    R (nb x n) selects the signed boundary rows; the rows of A with a
    negative diagonal hold the mass block of the mixed variable.  One
    factor of the shifted matrix S = A - _SHIFT B (see _factor) serves
    every solve, and each solve is refined with it until its normwise
    backward error ||b - S x|| / (||S|| ||x|| + ||b||) is at most
    _REFINE_TOL (Higham, Accuracy and Stability of Numerical Algorithms,
    2002, ch. 12).  The largest k theta of  MS R S^-1 R^T MS g = theta MS g
    give nu = _SHIFT + 1/theta, and one block solve x = S^-1 R^T MS g /
    theta lifts them to the volume.  The eigenvalues are Rayleigh quotients
    of x in the exact pencil; the eigencochains are g = R x in the boundary
    ordering, normalized to g^T MS g = 1.  Raises ConvergenceError when
    Lanczos fails or a relative residual ||A x - nu B x|| / ((||A|| + |nu|
    ||B||) ||x||) (infinity norms) exceeds linalg.RESIDUAL_TOL,
    SingularSystemError when the factor meets a zero pivot, a refinement
    stops converging (a NaN backward error included) or a solve grows by
    ||S|| ||x|| / ||b|| > 1/eps: that ratio bounds the condition number of
    S from below, so S is singular to working precision (the test of
    LAPACK's xGESVX), which is how a pencil singular up to rounding shows
    when elimination leaves a pivot of rounding size instead of zero.
    """
    A, R = A.tocsr(), R.tocsr()
    B = (R.T @ MS @ R).tocsr()
    n, nb = A.shape[0], R.shape[0]
    k = min(k, nb)
    what = f"degree {degree}{' dual' if dual else ''} at level {level}"
    sym_defect = abs(A - A.T).max() / max(abs(A).max(), 1e-300)
    S = (A - _SHIFT * B).tocsr()
    lu, delta = _factor(S, what)
    norm_S = float(abs(S).sum(axis=1).max())
    solves, worst = 0, 0.0

    def solve(rhs):
        nonlocal solves, worst
        x, r, last = 0.0, rhs, np.inf
        while True:
            x = x + lu.solve(r)
            solves += 1 if rhs.ndim == 1 else rhs.shape[1]
            r = rhs - S @ x
            size_x, size_b = norm_S * np.abs(x).max(axis=0), np.abs(
                rhs).max(axis=0)
            res = float((np.abs(r).max(axis=0)
                         / np.maximum(size_x + size_b, 1e-300)).max())
            if res <= _REFINE_TOL:
                growth = float((size_x / np.maximum(size_b, 1e-300)).max())
                if growth * np.finfo(float).eps > 1.0:
                    raise SingularSystemError(
                        f"singular pencil of {what} to working precision: "
                        f"||S|| ||x|| / ||b|| = {growth:.2e} > 1/eps")
                worst = max(worst, res)
                return x
            if not res <= _REFINE_RATE * last:     # NaN stops here too
                raise SingularSystemError(
                    f"refinement of {what} stalled at backward error "
                    f"{res:.2e} > {_REFINE_TOL:.0e}: the shifted pencil is "
                    "numerically singular")
            last = res

    theta, G = top_eigenpairs(
        lambda g: MS @ (R @ solve(R.T @ (MS @ g))), MS, k, what)
    vals = _SHIFT + 1.0 / theta
    X = solve(R.T @ (MS @ G)) * (vals - _SHIFT)
    X /= np.sqrt(np.einsum("ij,ij->j", X, B @ X))[None, :]
    # second order in the error of X, where the Lanczos values carry the
    # refined solves' error to first order
    vals = np.einsum("ij,ij->j", X, A @ X)
    order = np.argsort(vals, kind="stable")
    vals, X = vals[order], X[:, order]
    r = A @ X - (B @ X) * vals[None, :]
    norm_A, norm_B = (float(abs(M).sum(axis=1).max()) for M in (A, B))
    res = (np.abs(r).max(axis=0)
           / ((norm_A + np.abs(vals) * norm_B) * np.abs(X).max(axis=0)))
    if not res.max() <= RESIDUAL_TOL:
        raise ConvergenceError(
            f"eigenpairs of {what} not converged: relative residual "
            f"{res.max():.2e} > {RESIDUAL_TOL:.0e}")
    kd, gap = _kernel_count(vals)
    return SpectrumResult(
        degree=degree, dual=dual, eigenvalues=vals, eigencochains=R @ X,
        kernel_dim=kd, gap_ratio=gap, residuals=res, level=level,
        sym_defect=float(sym_defect), n=n, nb=nb,
        fill=int(lu.nnz), pivots=int((lu.perm_r != lu.perm_c).sum()),
        solves=solves, delta=delta,
        solve_residual=worst)


def _kernel_count(vals: np.ndarray):
    """Kernel dimension kd (the |nu| below _KERNEL_TOL max(1, |nu_k|),
    nu_k the last computed value) and the gap ratio |nu_{kd+1}| / that
    threshold (inf when every value is kernel), never over a kernel
    value, which is rounding noise.  verify.Lab computes k = b_p + 1
    values, so a kernel of the right size has nu_k = nu_{kd+1}, a gap
    ratio of 1e9 whenever nu_{b_p+1} >= 1 and a CHK-KER margin of
    1e7 - 1; a kernel one too large or one too small leaves kd != b_p."""
    threshold = _KERNEL_TOL * max(1.0, float(abs(vals[-1])))
    kd = int(np.sum(np.abs(vals) < threshold))
    gap = abs(vals[kd]) / threshold if kd < len(vals) else float("inf")
    return kd, float(gap)


def solve_primal(K: mesh.SimplicialComplex, p: int, k: int = 8,
                 level=None) -> SpectrumResult:
    """Eigenvalues of the primal (tangential-data) problem at boundary
    degree p: the pencil of the module docstring, with the mixed variable
    sigma only for p > 0."""
    if not 0 <= p <= K.dim - 1:
        raise ValueError(f"boundary degree {p} out of range")
    A, R = feec.stiffness(K, p), feec.tangential_trace(K, p)
    if p > 0:
        M_sigma = feec.mass_matrix(K, p - 1)
        C = _coupling(K, p)
        A = sparse.bmat([[-M_sigma, C.T], [C, A]])
        R = sparse.hstack([sparse.csr_matrix((R.shape[0], C.shape[1])), R])
    MS = feec.mass_matrix(K.boundary_complex(), p)
    return _pencil_spectrum(A, R, MS, k, degree=p, level=level)


def dual_spectrum(K: mesh.SimplicialComplex, p: int, k: int = 8,
                  level=None) -> SpectrumResult:
    """Eigenvalues of the dual (normal-data) problem at boundary degree p.

    The extension one degree up (q = p + 1) carries the essential
    constraint (tangential boundary DOFs of degree q zeroed); the normal
    trace enters as an unknown boundary p-cochain g through the
    integration-by-parts pairing  <sigma, tau> = <w, d tau> + <J* tau, g>.
    The bordered pencil over (sigma, W, g) has the boundary p-form mass
    as the (SPD) block of its right-hand side, mirroring the primal
    construction.
    """
    if not 0 <= p <= K.dim - 1:
        raise ValueError(f"boundary degree {p} out of range")
    q = p + 1
    free_q = np.ones(K.n_simplices(q), dtype=bool)
    if q <= K.dim - 1:
        free_q[K.boundary_simplices[q]] = False
    W = np.flatnonzero(free_q)
    C_W = _coupling(K, q)[W, :]
    MS = feec.mass_matrix(K.boundary_complex(), p)
    E = (feec.tangential_trace(K, p).T @ MS).tocsr()    # n_p x nb
    A = sparse.bmat([[-feec.mass_matrix(K, p), C_W.T, E],
                     [C_W, feec.stiffness(K, q)[np.ix_(W, W)], None],
                     [E.T, None, None]])
    nb = E.shape[1]
    R = sparse.hstack([sparse.csr_matrix((nb, A.shape[0] - nb)),
                       sparse.identity(nb)])
    return _pencil_spectrum(A, R, MS, k, degree=p, level=level, dual=True)
