"""Test oracle: the Whitney mass matrix assembled in one pass.

The element products are formed in the same order as in ``feec``, the
face signs are applied to a copy, and the signed products are summed into
CSR.  The signs are +-1, so ``feec.mass_matrix``, which applies them in
place in a separate scatter step, must equal this oracle entry for entry.
"""

import itertools
import math

import numpy as np
from scipy import sparse

from formsteklov import feec


def mass_matrix(K, p):
    k = K.dim
    vols, grads = feec.barycentric_gradients(K)
    lam = (1.0 + np.eye(k + 1)) / ((k + 1) * (k + 2))
    g = np.einsum("nia,nja->nij", grads, grads)
    locs = list(itertools.combinations(range(k + 1), p + 1))
    nb, ne = len(locs), len(vols)
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
                    acc += ((-1) ** (a + b) * lam[si[a], sj[b]]
                            * _minor_det(g, ra, rb))
            local[:, i, j] = fp * acc * vols
            if j != i:
                local[:, j, i] = local[:, i, j]
    gidx = K.faces_of_top[p]
    gsgn = K.face_signs_of_top[p].astype(float)
    signed = local * gsgn[:, :, None] * gsgn[:, None, :]
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
