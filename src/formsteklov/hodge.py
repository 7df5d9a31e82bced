"""Laplace-Beltrami spectra of the closed boundary and the derived
first-eigenvalue table for exact forms.

For boundaries of dimension one or two every needed form eigenvalue
reduces to the scalar spectrum: on a closed curve exact 1-forms are
differentials of functions, and on a closed surface the Hodge star
carries co-exact 1-forms (and exact 2-forms) onto the function spectrum,
so no second exterior-calculus stack is assembled on the boundary.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import feec, mesh


@dataclass
class BoundarySpectrum:
    """Scalar boundary spectrum and the form table derived from it."""

    eigenvalues: np.ndarray      # ascending, zeros included (one per component)
    lambda1: float               # first positive eigenvalue
    form_table: dict             # p -> lambda'_{1,p}
    n_components: int


def laplace_beltrami_spectrum(bc: mesh.BoundaryComplex, k: int = 12) -> np.ndarray:
    """Ascending eigenvalues of the scalar Laplacian on the boundary
    complex (Galerkin stiffness against mass, intrinsic metric)."""
    D0 = mesh.coboundary(bc, 0).astype(float)
    M1 = feec.mass_matrix(bc, 1)
    stiff = (D0.T @ M1 @ D0).toarray()
    M0 = feec.mass_matrix(bc, 0).toarray()
    n = stiff.shape[0]
    k = min(k, n)
    vals = eigh(0.5 * (stiff + stiff.T), M0, eigvals_only=True,
                subset_by_index=[0, k - 1])
    return vals


def boundary_spectrum(K: mesh.SimplicialComplex, k: int = 12) -> BoundarySpectrum:
    """Scalar spectrum of the boundary with per-component bookkeeping and
    the form-eigenvalue table for boundary dimension <= 2."""
    bc = K.boundary_complex()
    comps = bc.components()
    vals = laplace_beltrami_spectrum(bc, k=k)
    n_comp = len(comps)
    # one zero mode per component; the first positive one follows
    lam1 = float(vals[n_comp])
    n = bc.dim
    if n == 1:
        table = {1: lam1}
    elif n == 2:
        table = {1: lam1, 2: lam1}
    else:
        raise ValueError("form table only defined for boundary dimension <= 2")
    return BoundarySpectrum(eigenvalues=vals, lambda1=lam1,
                            form_table=table, n_components=n_comp)

