"""Laplace-Beltrami spectrum of the closed boundary.

For boundaries of dimension one or two every needed form eigenvalue
reduces to the scalar spectrum: on a closed curve exact 1-forms are
differentials of functions, and on a closed surface the Hodge star
carries co-exact 1-forms (and exact 2-forms) onto the function spectrum.
So the first positive scalar eigenvalue lambda1 serves every degree, and
no second exterior-calculus stack is assembled on the boundary.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import feec, mesh


@dataclass
class BoundarySpectrum:
    """Scalar boundary spectrum with per-component bookkeeping."""

    eigenvalues: np.ndarray      # ascending, zeros included (one per component)
    lambda1: float               # first positive eigenvalue
    n_components: int


def boundary_spectrum(K: mesh.SimplicialComplex, k: int = 12) -> BoundarySpectrum:
    """Lowest k eigenvalues of the scalar Laplacian on the boundary complex
    (Galerkin stiffness against mass, intrinsic metric), with
    per-component bookkeeping."""
    bc = K.boundary_complex()
    stiff = feec.stiffness(bc, 0).toarray()
    M0 = feec.mass_matrix(bc, 0).toarray()
    vals = eigh(stiff, M0, eigvals_only=True,
                subset_by_index=[0, min(k, stiff.shape[0]) - 1])
    n_comp = len(bc.components())
    # one zero mode per component; the first positive one follows
    return BoundarySpectrum(eigenvalues=vals, lambda1=float(vals[n_comp]),
                            n_components=n_comp)
