"""Whitney-form finite element calculus on a simplicial complex.

Lowest-order (trimmed) Whitney elements only: mass matrices are integrated
exactly (the integrands are quadratic in the barycentric coordinates),
cochains of constant-coefficient forms are reproduced exactly, and the
cochain complex reproduces de Rham cohomology, so kernel dimensions of the
operators built downstream are exact integers.  One exact element-local
kernel, ``_local_products``, integrates the Whitney products on each top
simplex, and ``_assemble`` sums element matrices onto the mesh: the
volume mass, the boundary mass, the stiffness at degree q >= 1 (the local
mass pulled back through the integer local coboundary) and the
normal-trace energy all take this path, and the stiffness never forms a
global (q+1)-form matrix.  The P1 stiffness takes the gradient kernel
vol grad(lambda_i).grad(lambda_j), equal to D_0^T M_1 D_0 in exact
arithmetic; on a volume complex its gradients and volumes come in closed
form from the cofactors of the edge matrix (mesh.simplex_gradients), with
no LAPACK call per top.  The Whitney products and the embedded
(boundary) complexes keep the Gram route of barycentric_gradients bit for
bit: moving them too changed the rounding-noise pivots of the Steklov
saddle-point factors, and with them fill and a double eigenvalue found.
Element matrices are computed and scattered one chunk of ``_CHUNK`` tops
at a time, straight into the unsummed CSR arrays.
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
    """det of g[:, rows][:, cols] for nonempty index tuples rows/cols."""
    q = len(rows)
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


def _assemble(K: SimplicialComplex, p: int, element, tops=slice(None)):
    """Sum the element matrices ``element(chunk)`` of the top simplices
    ``K.tops[tops][chunk]``, in local combination order, onto the global
    p-simplices, for chunks of _CHUNK rows.  The face signs (+-1, exact)
    are applied in place, and each chunk goes straight to where COO->CSR
    conversion puts it, so the sum is the one-pass COO assembly's."""
    n = K.n_simplices(p)
    gidx, gsgn = K.faces_of_top[p][tops], K.face_signs_of_top[p][tops]
    ne, nb = gidx.shape
    m = ne * nb
    idx = np.int32 if max(m * nb, n) < 2 ** 31 else np.int64
    # COO->CSR conversion gives each occurrence (top, face) one row of nb
    # entries, by a stable counting sort of the occurrences on the face;
    # the CSR->CSC conversion of their incidence is that same sort
    occ = sparse.csr_matrix((np.ones(m, bool), gidx.ravel(), np.arange(m + 1, dtype=idx)),
                            shape=(m, n)).tocsc()
    rank = np.empty(m, dtype=idx)
    rank[occ.indices] = np.arange(m, dtype=idx)
    # rows of nb entries move as single void items; the arrays stay plain
    # numbers, or summing would keep every unsummed entry alive
    irow, drow = (np.dtype((np.void, nb * np.dtype(t).itemsize)) for t in (idx, float))
    indices, data = np.empty(m * nb, dtype=idx), np.empty(m * nb)
    np.take(np.ascontiguousarray(gidx, dtype=idx).view(irow).ravel(),
            occ.indices // nb, out=indices.view(irow))
    for start in range(0, ne, _CHUNK):
        chunk = slice(start, start + _CHUNK)
        local = element(chunk)
        local *= gsgn[chunk, :, None]
        local *= gsgn[chunk, None, :]
        data.view(drow)[rank[nb * start:nb * (start + _CHUNK)]] = local.view(drow).ravel()
    A = sparse.csr_matrix((data, indices, occ.indptr.astype(idx) * nb), shape=(n, n))
    A.sum_duplicates()
    return _owning(A)


def _owning(A):
    # scipy's prune keeps a view of arrays it fills at least half, and the
    # view would keep the whole unsummed array alive
    if A.data.base is not None:
        A.data, A.indices = A.data.copy(), A.indices.copy()
    return A


def _mass_products(K: SimplicialComplex, p: int, chunk):
    """Element matrices of the Whitney p-form mass on ``K.tops[chunk]``."""
    k = K.dim
    # exact integrals of lambda_i * lambda_j over a top of unit volume
    lam = (1.0 + np.eye(k + 1)) / ((k + 1) * (k + 2))
    if p == 0:
        # the degree-0 products are lambda_i lambda_j themselves
        return _edge_gram(K, chunk)[2][:, None, None] * lam
    vols, grads = barycentric_gradients(K, chunk)
    return _local_products(p, grads, lam[None], vols)


def _gradient_products(K: SimplicialComplex, chunk):
    """Element matrices vol grad(lambda_i).grad(lambda_j) of the P1
    stiffness on ``K.tops[chunk]``: on a volume complex from the
    closed-form cofactor gradients of mesh.simplex_gradients; on an
    embedded one from the Gram route of barycentric_gradients."""
    if K.ambient != K.dim:
        vols, grads = barycentric_gradients(K, chunk)
        local = np.einsum("nia,nja->nij", grads, grads)
        local *= vols[:, None, None]
        return local
    det, grads = mesh.simplex_gradients(K.vertices, K.tops[chunk])
    vols = det / math.factorial(K.dim)
    local = np.empty((K.dim + 1, K.dim + 1, len(vols)))
    for i, j in itertools.combinations_with_replacement(range(K.dim + 1), 2):
        local[i, j] = local[j, i] = (grads[i] * grads[j]).sum(axis=0) * vols
    return np.ascontiguousarray(local.transpose(2, 0, 1))


def mass_matrix(K: SimplicialComplex, p: int):
    """Whitney p-form mass matrix (symmetric positive definite)."""
    if not 0 <= p <= K.dim:
        raise ValueError(f"degree {p} out of range")
    return _assemble(K, p, lambda chunk: _mass_products(K, p, chunk))


def stiffness(K: SimplicialComplex, q: int):
    """Whitney q-form stiffness D_q^T M_{q+1} D_q; zero at the top degree.

    Assembled element by element and scattered onto the q-simplices, so
    no global (q+1)-form matrix is built.  At q = 0 the element matrix is
    vol grad(lambda_i).grad(lambda_j) (tangential gradients on an embedded
    complex): d of a P1 function is a Whitney 1-form, so this equals
    D_0^T M_1 D_0 in exact arithmetic, and it is symmetric by
    construction.  At q >= 1 the local (q+1)-form mass is pulled back
    through the integer local coboundary, D_loc^T M_loc D_loc."""
    if not 0 <= q <= K.dim:
        raise ValueError(f"degree {q} out of range")
    if q == K.dim:
        return sparse.csr_matrix((K.n_simplices(q),) * 2)
    if q == 0:
        return _assemble(K, 0, lambda chunk: _gradient_products(K, chunk))
    D = mesh.local_coboundary(K.dim, q)
    return _assemble(K, q, lambda chunk: D.T @ _mass_products(K, q + 1, chunk) @ D)


def tangential_trace(K: SimplicialComplex, p: int):
    """Trace matrix from volume p-cochains onto boundary p-cochains.

    One signed unit entry per boundary simplex, read from K (see
    mesh.BoundaryComplex): the sign is ``K.boundary_signs`` at the top
    boundary degree and 1 below.  Pullback commutes with the coboundary
    exactly (integer identity)."""
    if not 0 <= p <= K.dim - 1:
        raise ValueError(f"degree {p} out of range for the boundary")
    idx = K.boundary_simplices[p]
    sgn = K.boundary_signs if p == K.dim - 1 else np.ones(len(idx))
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
    F = _assemble(K, q, lambda c: _local_products(
        q, barycentric_gradients(K, tops[c])[1], lam[c], areas[c]), tops)
    if q == d:
        return F
    Tr = tangential_trace(K, q)
    return _owning((F - Tr.T @ mass_matrix(K.boundary_complex(), q) @ Tr).tocsr())


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
