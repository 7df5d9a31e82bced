"""Laplace-Beltrami spectrum of the closed boundary.

For boundaries of dimension one or two every needed form eigenvalue
reduces to the scalar spectrum: on a closed curve exact 1-forms are
differentials of functions, and on a closed surface the Hodge star
carries co-exact 1-forms (and exact 2-forms) onto the function spectrum.
So the first positive scalar eigenvalue lambda1 serves every degree, and
no second exterior-calculus stack is assembled on the boundary.  The
eigenvalues come from the Lanczos core of linalg, as every other
eigenvalue of the package does.
"""

from dataclasses import dataclass

import numpy as np

from . import feec, mesh
from .linalg import symmetric_lu, top_eigenpairs


@dataclass
class BoundarySpectrum:
    """Scalar boundary spectrum with per-component bookkeeping."""

    eigenvalues: np.ndarray      # ascending, zeros included (one per component)
    lambda1: float               # first positive eigenvalue
    n_components: int


def boundary_spectrum(K: mesh.SimplicialComplex,
                      k: int | None = None) -> BoundarySpectrum:
    """Lowest k eigenvalues (by default one per boundary component and
    lambda1) of the scalar Laplacian on the boundary complex, S g =
    lambda M g with the P1 stiffness S and mass M of the intrinsic metric,
    with per-component bookkeeping.  They are the largest theta of
    M (S + M)^-1 M g = theta M g, lambda = 1/theta - 1, found by
    linalg.top_eigenpairs with one factor of S + M."""
    bc = K.boundary_complex()
    S, M = feec.stiffness(bc, 0), feec.mass_matrix(bc, 0)
    n_comp = len(bc.components())
    k = min(n_comp + 1 if k is None else k, S.shape[0])
    lu = symmetric_lu(S + M)
    theta = top_eigenpairs(
        lambda Y: M @ lu.solve(M @ Y), M, k,
        f"the boundary Laplacian ({S.shape[0]} vertices)")[0]
    vals = 1.0 / theta[::-1] - 1.0
    # one zero mode per component; the first positive one follows
    return BoundarySpectrum(eigenvalues=vals, lambda1=float(vals[n_comp]),
                            n_components=n_comp)
