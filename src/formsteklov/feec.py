"""Whitney-form finite element calculus on a simplicial complex.

Lowest-order (trimmed) Whitney elements only: mass matrices are integrated
exactly (the integrands are quadratic in the barycentric coordinates),
cochains of constant-coefficient forms are reproduced exactly, and the
cochain complex reproduces de Rham cohomology, so kernel dimensions of the
operators built downstream are exact integers.  One exact element-local
kernel, ``_local_products``, integrates the Whitney products on each top
simplex, and ``_scatter`` sums element matrices onto the mesh: the volume
mass, the boundary mass, the stiffness (the local mass pulled back
through the integer local coboundary) and the normal-trace energy all
take this path, and the stiffness never forms a global (q+1)-form matrix.
The volume element matrices are computed over chunks of ``_CHUNK`` tops,
so the gradients and products in flight stay bounded by the chunk size.
"""

import itertools
import math

import numpy as np
from scipy import sparse

from . import analytic, mesh
from .errors import DegenerateSimplexError
from .forms import FormField
from .mesh import SimplicialComplex
from .quadrature import simplex_rule


# tops per chunk of element-by-element work, here and in scalar
_CHUNK = 2 ** 15


def _edge_gram(K: SimplicialComplex, tops):
    """Edge vectors (nt, ambient, k), their Gram matrices and the volumes
    of the top simplices ``K.tops[tops]``."""
    v = K.vertices[K.tops[tops]]
    e = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)   # (nt, ambient, k)
    gram = np.einsum("nmi,nmj->nij", e, e)
    det = np.linalg.det(gram)
    if np.any(det <= 0):
        raise DegenerateSimplexError("zero-volume simplex in mass assembly")
    return e, gram, np.sqrt(det) / math.factorial(K.dim)


def barycentric_gradients(K: SimplicialComplex, tops=slice(None)):
    """Volumes and gradients of the barycentric coordinates of the top
    simplices ``K.tops[tops]`` (all of them by default).

    Works for embedded complexes (boundary surfaces/curves): gradients are
    tangential.  Returns (vols (nt,), grads (nt, k+1, ambient)).
    """
    e, gram, vols = _edge_gram(K, tops)
    ginv = np.linalg.inv(gram)
    grads_rest = np.einsum("nmi,nij->nmj", e, ginv)    # (nt, ambient, k)
    grads = np.concatenate([-grads_rest.sum(axis=2, keepdims=True), grads_rest], axis=2)
    return vols, np.swapaxes(grads, 1, 2)              # (nt, k+1, ambient)


def _batched_minor_det(g, rows, cols):
    """det of g[:, rows][:, cols] for index tuples rows/cols (possibly empty)."""
    q = len(rows)
    if q == 0:
        return np.ones(g.shape[0])
    sub = g[:, np.array(rows)[:, None], np.array(cols)[None, :]]
    if q == 1:
        return sub[:, 0, 0]
    if q == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    return np.linalg.det(sub)


def _local_products(p: int, grads, lam, measure):
    """Element matrices (ne, nb, nb) of the Whitney p-form products, in
    the local combination order of the p-faces, with barycentric gradients
    ``grads``: element e contributes the integral of the products over its
    domain, where ``lam[e, i, j] * measure[e]`` is the integral of
    lambda_i lambda_j."""
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
                    acc += ((-1) ** (a + b) * lam[:, si[a], sj[b]]
                            * _batched_minor_det(g, ra, rb))
            local[:, i, j] = fp * acc * measure
            if j != i:
                local[:, j, i] = local[:, i, j]
    return local


def _scatter(K: SimplicialComplex, p: int, tops, local):
    """Sum the element matrices ``local`` of the top simplices
    ``K.tops[tops]``, given in local combination order, onto the global
    p-simplices.  The stored face signs are applied to ``local`` in place
    (they are +-1, so the products are exact)."""
    n = K.n_simplices(p)
    gidx = K.faces_of_top[p][tops]
    if n < 2 ** 31:
        # scipy would copy int64 indices down to int32 itself
        gidx = gidx.astype(np.int32)
    gsgn = K.face_signs_of_top[p][tops]
    local *= gsgn[:, :, None]
    local *= gsgn[:, None, :]
    nb = gidx.shape[1]
    rows = np.repeat(gidx, nb, axis=1).ravel()
    cols = np.tile(gidx, (1, nb)).ravel()
    return sparse.coo_matrix((local.ravel(), (rows, cols)),
                             shape=(n, n)).tocsr()


def _volume_products(K: SimplicialComplex, p: int, D=None):
    """Element matrices of the Whitney p-form mass on every top simplex,
    pulled back to D.T @ local @ D when a local coboundary D is given;
    computed one chunk of _CHUNK tops at a time."""
    k, nt = K.dim, len(K.tops)
    # exact integrals of lambda_i * lambda_j over a top of unit volume
    lam = (1.0 + np.eye(k + 1)) / ((k + 1) * (k + 2))
    nb = math.comb(k + 1, p + 1) if D is None else D.shape[1]
    out = np.empty((nt, nb, nb))
    for start in range(0, nt, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        if p == 0:
            # the degree-0 products are lambda_i lambda_j themselves
            out[chunk] = _edge_gram(K, chunk)[2][:, None, None] * lam
            continue
        vols, grads = barycentric_gradients(K, chunk)
        local = _local_products(p, grads, lam[None], vols)
        if D is None:
            out[chunk] = local
        else:
            np.matmul(D.T @ local, D, out=out[chunk])
    return out


def mass_matrix(K: SimplicialComplex, p: int):
    """Whitney p-form mass matrix (symmetric positive definite)."""
    if not 0 <= p <= K.dim:
        raise ValueError(f"degree {p} out of range")
    return _scatter(K, p, slice(None), _volume_products(K, p))


def stiffness(K: SimplicialComplex, q: int):
    """Whitney q-form stiffness D_q^T M_{q+1} D_q; zero at the top degree.

    Assembled element by element: on each top the local (q+1)-form mass
    is pulled back through the integer local coboundary,
    D_loc^T M_loc D_loc, and scattered onto the q-simplices, so no global
    (q+1)-form matrix is built."""
    if not 0 <= q <= K.dim:
        raise ValueError(f"degree {q} out of range")
    if q == K.dim:
        return sparse.csr_matrix((K.n_simplices(q),) * 2)
    D = mesh.local_coboundary(K.dim, q)
    return _scatter(K, q, slice(None), _volume_products(K, q + 1, D))


def tangential_trace(K: SimplicialComplex, p: int):
    """Trace matrix from volume p-cochains onto boundary p-cochains.

    One signed unit entry per boundary simplex; the sign reconciles the
    stored vertex orders of the two complexes.  Pullback commutes with the
    coboundary exactly (integer identity)."""
    if not 0 <= p <= K.dim - 1:
        raise ValueError(f"degree {p} out of range for the boundary")
    bc = K.boundary_complex()
    idx = bc.parent_index[p]
    sgn = bc.parent_sign[p]
    T = sparse.coo_matrix((sgn.astype(float), (np.arange(len(idx)), idx)),
                          shape=(len(idx), K.n_simplices(p)))
    return T.tocsr()


def normal_trace_form(K: SimplicialComplex, q: int):
    """Boundary normal-trace energy of Whitney q-forms: the symmetric PSD
    matrix of x -> integral over the boundary of |i_N(interpolated x)|^2.

    Pointwise |w|^2 = |i_N w|^2 + |J* w|^2, so it is the boundary integral
    of the volume form, over the parent top of each boundary face, minus
    the boundary mass of the tangential trace (zero at q = dim).  Both
    integrands are quadratic in the barycentric coordinates, so both are
    exact."""
    if not 1 <= q <= K.dim:
        raise ValueError(f"degree {q} out of range")
    d = K.dim
    on_boundary = np.zeros(K.n_simplices(d - 1), dtype=bool)
    on_boundary[K.boundary_faces] = True
    fot = K.faces_of_top[d - 1]
    tops, cols = np.nonzero(on_boundary[fot])
    # the d-subsets of d+1 local vertices omit d, d-1, ..., 0 in turn
    keep = np.arange(d + 1)[None, :] != (d - cols)[:, None]
    lam = (1.0 + np.eye(d + 1)) / (d * (d + 1)) * keep[:, :, None] * keep[:, None, :]
    areas = mesh.simplex_measures(K.vertices, K.simplices[d - 1][fot[tops, cols]])
    grads = barycentric_gradients(K, tops)[1]
    F = _scatter(K, q, tops, _local_products(q, grads, lam, areas))
    if q == d:
        return F
    Tr = tangential_trace(K, q)
    return (F - Tr.T @ mass_matrix(K.boundary_complex(), q) @ Tr).tocsr()


def integrate_analytic(spec, field: FormField, what: str) -> float:
    """Mesh-independent quadrature of an analytic form over the analytic
    domain: squared L2 norm over the volume, or of the tangential/normal
    boundary part (``what`` in {"vol_norm", "tan_norm", "nor_norm"})."""
    if what == "vol_norm":
        return analytic.integrate_volume(spec, field.norm_sq)
    if what == "nor_norm":
        return analytic.integrate_boundary(
            spec, lambda pts, nrm: field.contract_sq(pts, nrm))
    if what == "tan_norm":
        return analytic.integrate_boundary(
            spec, lambda pts, nrm: field.norm_sq(pts) - field.contract_sq(pts, nrm))
    raise ValueError(f"unknown functional {what!r}")


def interpolate(K: SimplicialComplex, field: FormField, p: int) -> np.ndarray:
    """Whitney cochain of an analytic p-form: integrals over the stored
    p-simplices by a degree-3 simplex rule (exact for the polynomial
    coefficient fields used here)."""
    if field.degree != p:
        raise ValueError(f"field degree {field.degree} does not match {p}")
    simp = K.simplices[p]
    if p == 0:
        return field.component((), K.vertices)
    pts_ref, w_ref = simplex_rule(p, 3)
    v = K.vertices[simp]                              # (ns, p+1, m)
    edges = v[:, 1:, :] - v[:, :1, :]                 # (ns, p, m)
    pts = np.einsum("qk,nkm->nqm", pts_ref[:, 1:], edges) + v[:, :1, :]
    vals = np.zeros((len(simp), len(w_ref)))
    fact = math.factorial(p)
    for idx in itertools.combinations(range(field.dim), p):
        comp = field.component(idx, pts.reshape(-1, field.dim)).reshape(len(simp), -1)
        det = np.linalg.det(edges[:, :, np.array(idx)]) if p > 1 else edges[:, 0, idx[0]]
        vals += comp * (det / fact)[:, None]
    return vals @ w_ref
