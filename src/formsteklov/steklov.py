"""Discrete Dirichlet-to-Neumann eigenproblems for differential forms.

Primal problem (tangential boundary data, degree p of the boundary):
the energy  |d u|^2 + |delta_h u|^2  of Whitney p-forms on the volume,
with the codifferential realized weakly through a mixed variable, is
Schur-reduced onto the tangential boundary degrees of freedom.  The
reduced matrix is the discrete Dirichlet-to-Neumann operator: symmetric,
positive semidefinite, with kernel dimension equal to the Betti number
of the domain in that degree.

Dual problem (normal boundary data): the same energy one degree up
(q = p + 1), with the tangential boundary q-DOFs constrained to zero,
as the bordered mixed system  P = [[-M, C_W^T], [C_W, K]]  over the
(q-1)-form mixed variable sigma and the free q-DOFs W.  The normal trace
enters as a boundary p-cochain through the load  E = Tr^T MS  on sigma;
the reduced matrix  -E^T (P^{-1})_{sigma sigma} E  (one solve per
boundary DOF) is paired with the boundary p-form mass MS.
"""

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg import eigh
from scipy.sparse.linalg import splu

from . import feec, mesh
from .errors import SingularSystemError, AmbiguousKernelError

_CHUNK = 512


@dataclass
class DtnAssembly:
    """Blocks of the mixed energy form at one degree."""

    degree: int
    M_sigma: object          # (p-1)-form mass, None for p = 0
    C: object                # M_p D_{p-1}, None for p = 0
    K_stiff: object          # D_p^T M_{p+1} D_p
    B_sigma: object          # Tr^T M^Sigma Tr (boundary mass on volume DOFs)
    MS: object               # boundary mass in boundary ordering
    boundary_dofs: np.ndarray
    boundary_signs: np.ndarray


@dataclass
class SpectrumResult:
    """Lowest eigenvalues of one Dirichlet-to-Neumann problem."""

    degree: int
    dual: bool
    eigenvalues: np.ndarray
    eigencochains: np.ndarray | None
    kernel_dim: int
    gap_ratio: float
    residuals: np.ndarray
    level: int | None = None
    sym_defect: float = 0.0

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "dual": self.dual,
            "level": self.level,
            "eigenvalues": [float(v) for v in self.eigenvalues],
            "kernel_dim": int(self.kernel_dim),
            "residuals": [float(r) for r in self.residuals],
        }


def assemble_primal(K: mesh.SimplicialComplex, p: int) -> DtnAssembly:
    """Assemble the mixed energy blocks for boundary degree p (0..dim-1)."""
    if not 0 <= p <= K.dim - 1:
        raise ValueError(f"boundary degree {p} out of range")
    bc = K.boundary_complex()
    M_p = feec.mass_matrix(K, p)
    D_p = mesh.coboundary(K, p).astype(float)
    M_up = feec.mass_matrix(K, p + 1)
    K_stiff = (D_p.T @ M_up @ D_p).tocsr()
    if p == 0:
        M_sigma, C = None, None
    else:
        M_sigma = feec.mass_matrix(K, p - 1)
        C = (M_p @ mesh.coboundary(K, p - 1).astype(float)).tocsr()
    Tr = feec.tangential_trace(K, p)
    MS = feec.boundary_mass(bc, p)
    B_sigma = (Tr.T @ MS @ Tr).tocsr()
    return DtnAssembly(
        degree=p, M_sigma=M_sigma, C=C, K_stiff=K_stiff,
        B_sigma=B_sigma, MS=MS,
        boundary_dofs=bc.parent_index[p], boundary_signs=bc.parent_sign[p])


def _check_factor(lu, what: str):
    du = np.abs(lu.U.diagonal())
    if len(du) == 0:
        return
    if du.min() <= 1e-13 * max(du.max(), 1.0):
        n = lu.shape[0]
        rng = np.random.default_rng(0)
        v = lu.solve(rng.normal(size=n))
        v /= np.linalg.norm(v)
        raise SingularSystemError(f"singular {what} block", near_null=v)


def dtn_matrix(asm: DtnAssembly):
    """Dense symmetric Dirichlet-to-Neumann matrix on boundary DOFs plus the
    boundary mass, both in the boundary-complex ordering.

    One sparse factorization of the interior mixed block, one solve per
    boundary DOF.
    """
    p = asm.degree
    n_u = asm.K_stiff.shape[0]
    b = asm.boundary_dofs
    s = asm.boundary_signs.astype(float)
    nb = len(b)
    mask = np.ones(n_u, dtype=bool)
    mask[b] = False
    i = np.flatnonzero(mask)

    Kst = asm.K_stiff
    if p == 0:
        P = Kst[np.ix_(i, i)].tocsc()
        rhs_top = None
    else:
        C = asm.C
        P = sparse.bmat(
            [[-asm.M_sigma, C[i, :].T], [C[i, :], Kst[np.ix_(i, i)]]],
            format="csc")
        rhs_top = -(C[b, :].T.multiply(s[None, :])).tocsc()  # n_sigma x nb
    if P.shape[0] == 0:
        lam = Kst[np.ix_(b, b)].toarray() * s[None, :] * s[:, None]
        return lam, asm.MS.toarray()
    lu = splu(P)
    _check_factor(lu, "interior")

    K_ib = (Kst[np.ix_(i, b)].multiply(s[None, :])).tocsc()
    K_bb = Kst[np.ix_(b, b)].toarray() * s[None, :] * s[:, None]
    C_b = None if p == 0 else asm.C[b, :].tocsr()

    lam = np.empty((nb, nb))
    for lo in range(0, nb, _CHUNK):
        hi = min(lo + _CHUNK, nb)
        if p == 0:
            rhs = -K_ib[:, lo:hi].toarray()
            sol_u = lu.solve(rhs)
            cols = K_bb[:, lo:hi] + (s[:, None] * (Kst[np.ix_(b, i)] @ sol_u))
        else:
            rhs = np.vstack([rhs_top[:, lo:hi].toarray(),
                             -K_ib[:, lo:hi].toarray()])
            sol = lu.solve(rhs)
            n_sig = asm.M_sigma.shape[0]
            sig, u_i = sol[:n_sig], sol[n_sig:]
            cols = (K_bb[:, lo:hi]
                    + s[:, None] * (Kst[np.ix_(b, i)] @ u_i)
                    + s[:, None] * (C_b @ sig))
        lam[:, lo:hi] = cols
    return lam, asm.MS.toarray()


def spectrum(lam: np.ndarray, B: np.ndarray, k: int,
             degree: int = 0, level=None, dual: bool = False,
             kernel_threshold: float = 1e-9) -> SpectrumResult:
    """First k eigenpairs of the reduced pencil (dense symmetric solve)."""
    k = min(k, lam.shape[0])
    scale = float(np.abs(lam).max())
    sym_defect = float(np.abs(lam - lam.T).max()) / max(scale, 1e-300)
    lam_sym = 0.5 * (lam + lam.T)
    vals, vecs = eigh(lam_sym, B, subset_by_index=[0, k - 1])
    fro = np.linalg.norm(lam_sym, "fro")
    res = np.linalg.norm(lam_sym @ vecs - B @ vecs * vals[None, :], axis=0)
    res = res / max(fro, 1e-300)
    kd, gap = _kernel_count(vals, kernel_threshold)
    return SpectrumResult(
        degree=degree, dual=dual, eigenvalues=vals, eigencochains=vecs,
        kernel_dim=kd, gap_ratio=gap, residuals=res, level=level,
        sym_defect=sym_defect)


def _kernel_count(vals: np.ndarray, threshold: float):
    ref = max(1.0, float(abs(vals[-1])))
    kd = int(np.sum(np.abs(vals) < threshold * ref))
    if kd == 0:
        gap = float("inf") if abs(vals[0]) > 0 else 0.0
        if len(vals):
            gap = abs(vals[0]) / (threshold * ref)
    else:
        below = abs(vals[kd - 1])
        above = abs(vals[kd]) if kd < len(vals) else float("inf")
        gap = above / max(below, 1e-300)
    return kd, float(gap)


def kernel_dimension(res: SpectrumResult, threshold: float = 1e-9) -> int:
    """Count of eigenvalues below threshold * max(1, nu_k); raises when no
    factor-100 gap separates the counted values from the rest."""
    kd, gap = _kernel_count(res.eigenvalues, threshold)
    if gap < 100.0:
        raise AmbiguousKernelError(
            f"kernel count {kd} ambiguous (gap ratio {gap:.3g})")
    return kd


def solve_primal(K: mesh.SimplicialComplex, p: int, k: int = 8,
                 level=None) -> SpectrumResult:
    asm = assemble_primal(K, p)
    lam, B = dtn_matrix(asm)
    return spectrum(lam, B, k, degree=p, level=level)


def dual_spectrum(K: mesh.SimplicialComplex, p: int, k: int = 8,
                  level=None) -> SpectrumResult:
    """Eigenvalues of the dual (normal-data) problem at boundary degree p.

    The extension one degree up (q = p + 1) carries the essential
    constraint (tangential boundary DOFs of degree q zeroed); the normal
    trace enters as an unknown boundary p-cochain g through the
    integration-by-parts pairing  <sigma, tau> = <w, d tau> + <J* tau, g>,
    and the energy is Schur-reduced onto g.  The reduced pencil has the
    boundary p-form mass as its (SPD) right-hand side, mirroring the
    primal construction.
    """
    if not 0 <= p <= K.dim - 1:
        raise ValueError(f"boundary degree {p} out of range")
    q = p + 1
    n_q = K.n_simplices(q)
    free_q = np.ones(n_q, dtype=bool)
    if q <= K.dim - 1:
        free_q[K.boundary_simplices[q]] = False
    W = np.flatnonzero(free_q)

    bc = K.boundary_complex()
    M_sig = feec.mass_matrix(K, q - 1).tocsc()
    C = (feec.mass_matrix(K, q) @ mesh.coboundary(K, q - 1).astype(float))
    C_W = C[W, :].tocsr()
    if q <= K.dim - 1:
        D_q = mesh.coboundary(K, q).astype(float)
        Kst = (D_q.T @ feec.mass_matrix(K, q + 1) @ D_q)[np.ix_(W, W)].tocsr()
    else:
        Kst = sparse.csr_matrix((len(W), len(W)))
    Tr = feec.tangential_trace(K, q - 1)
    MS = feec.boundary_mass(bc, q - 1)
    E = (Tr.T @ MS).tocsc()                    # n_{q-1} x n_Sigma

    P = sparse.bmat([[-M_sig, C_W.T], [C_W, Kst]], format="csc")
    lu = splu(P)
    _check_factor(lu, "dual extension")

    n_sig = M_sig.shape[0]
    nb = E.shape[1]
    lam = np.empty((nb, nb))
    for lo in range(0, nb, _CHUNK):
        hi = min(lo + _CHUNK, nb)
        rhs = np.vstack([-E[:, lo:hi].toarray(),
                         np.zeros((len(W), hi - lo))])
        sol = lu.solve(rhs)
        sig = sol[:n_sig]
        lam[:, lo:hi] = MS @ (Tr @ sig)
    res = spectrum(lam, MS.toarray(), k, degree=p, level=level, dual=True)
    return res
