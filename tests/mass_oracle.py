"""Test oracle: the Whitney matrices assembled in one pass.

The element products of every top are formed at once, in the same order
as in ``feec``, the face signs are applied to a copy, and the signed
products are summed into CSR through one COO matrix; the P1 stiffness
takes feec's own gradient products of every top instead.  ``feec``
streams chunks of element matrices straight into the unsummed CSR
arrays, in the order COO->CSR conversion would give them, so the mass,
the stiffness and the normal-trace form must equal this oracle entry for
entry.
"""

import itertools
import math

import numpy as np
from scipy import sparse

from formsteklov import feec, mesh


def mass_matrix(K, p):
    vols, grads = feec.barycentric_gradients(K)
    return _coo(K, p, slice(None), _products(p, grads, _lam(K.dim), vols))


def stiffness(K, q):
    """vol * grad(lambda_i) . grad(lambda_j) at q = 0, D_loc^T M_loc D_loc
    at q >= 1, on every top, scattered onto the q-simplices.  At q = 0 the
    element matrices are those of feec's own gradient kernel, so the
    comparison checks only the scatter there; the kernel itself is checked
    against D_0^T M_1 D_0 by test_feec.test_stiffness_matches_product_oracle."""
    if q == 0:
        return _coo(K, 0, slice(None), feec._gradient_products(K, slice(None)))
    vols, grads = feec.barycentric_gradients(K)
    D = mesh.local_coboundary(K.dim, q)
    local = _products(q + 1, grads, _lam(K.dim), vols)
    return _coo(K, q, slice(None), D.T @ local @ D)


def normal_trace_form(K, q):
    """Volume products over the parent top of each boundary face, listed
    once per face, minus the boundary mass of the tangential trace."""
    d = K.dim
    on_boundary = np.zeros(K.n_simplices(d - 1), dtype=bool)
    on_boundary[K.boundary_faces] = True
    fot = K.faces_of_top[d - 1]
    tops, cols = np.nonzero(on_boundary[fot])
    keep = np.arange(d + 1)[None, :] != (d - cols)[:, None]
    lam = (1.0 + np.eye(d + 1)) / (d * (d + 1)) * keep[:, :, None] * keep[:, None, :]
    areas = mesh.simplex_measures(K.vertices, K.simplices[d - 1][fot[tops, cols]])
    grads = feec.barycentric_gradients(K)[1][tops]
    F = _coo(K, q, tops, _products(q, grads, lam, areas))
    if q == d:
        return F
    Tr = feec.tangential_trace(K, q)
    return (F - Tr.T @ mass_matrix(K.boundary_complex(), q) @ Tr).tocsr()


def _lam(k):
    """Integrals of lambda_i lambda_j over a top of unit volume."""
    return (1.0 + np.eye(k + 1)) / ((k + 1) * (k + 2))


def _products(p, grads, lam, measure):
    """Element matrices of the Whitney p-form products; ``lam`` is one
    matrix for all elements or one per element."""
    g = np.einsum("nia,nja->nij", grads, grads)
    locs = list(itertools.combinations(range(grads.shape[1]), p + 1))
    nb, ne = len(locs), len(measure)
    local = np.zeros((ne, nb, nb))
    fp = math.factorial(p) ** 2
    for i, si in enumerate(locs):
        for j, sj in enumerate(locs):
            if j < i:
                continue
            acc = np.zeros(ne)
            for a in range(p + 1):
                ra = si[:a] + si[a + 1:]
                for b in range(p + 1):
                    rb = sj[:b] + sj[b + 1:]
                    acc += ((-1) ** (a + b) * lam[..., si[a], sj[b]]
                            * _minor_det(g, ra, rb))
            local[:, i, j] = fp * acc * measure
            if j != i:
                local[:, j, i] = local[:, i, j]
    return local


def _coo(K, p, tops, local):
    """Sum of the signed element matrices of ``K.tops[tops]`` by one COO
    to CSR conversion."""
    gidx = K.faces_of_top[p][tops]
    gsgn = K.face_signs_of_top[p][tops].astype(float)
    signed = local * gsgn[:, :, None] * gsgn[:, None, :]
    nb = gidx.shape[1]
    rows = np.repeat(gidx, nb, axis=1).ravel()
    cols = np.tile(gidx, (1, nb)).ravel()
    n = K.n_simplices(p)
    return sparse.coo_matrix((signed.ravel(), (rows, cols)),
                             shape=(n, n)).tocsr()


def _minor_det(g, rows, cols):
    """det of g[:, rows][:, cols], with the 0x0 minor equal to 1."""
    if not rows:
        return np.ones(g.shape[0])
    sub = g[:, np.array(rows)[:, None], np.array(cols)[None, :]]
    if len(rows) == 1:
        return sub[:, 0, 0]
    if len(rows) == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    return np.linalg.det(sub)
