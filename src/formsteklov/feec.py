"""Whitney-form finite element calculus on a simplicial complex.

Lowest-order (trimmed) Whitney elements only: mass matrices are integrated
exactly (the integrands are quadratic in the barycentric coordinates),
cochains of constant-coefficient forms are reproduced exactly, and the
cochain complex reproduces de Rham cohomology, so kernel dimensions of the
operators built downstream are exact integers.
"""

import itertools
import math

import numpy as np
from scipy import sparse

from . import analytic, mesh
from .errors import DegenerateSimplexError
from .forms import FormField
from .mesh import SimplicialComplex
from .quadrature import simplex_rule, simplex_rule_positive


def barycentric_gradients(K: SimplicialComplex):
    """Per-top-simplex volumes and gradients of the barycentric coordinates.

    Works for embedded complexes (boundary surfaces/curves): gradients are
    tangential.  Returns (vols (nt,), grads (nt, k+1, ambient)).
    """
    tops = K.tops
    k = K.dim
    v = K.vertices[tops]
    e = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)   # (nt, ambient, k)
    gram = np.einsum("nmi,nmj->nij", e, e)
    det = np.linalg.det(gram)
    if np.any(det <= 0):
        raise DegenerateSimplexError("zero-volume simplex in mass assembly")
    vols = np.sqrt(det) / math.factorial(k)
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


def mass_matrix(K: SimplicialComplex, p: int):
    """Whitney p-form mass matrix (symmetric positive definite)."""
    if not 0 <= p <= K.dim:
        raise ValueError(f"degree {p} out of range")
    k = K.dim
    nloc = k + 1
    vols, grads = barycentric_gradients(K)
    g = np.einsum("nia,nja->nij", grads, grads)
    locs = list(itertools.combinations(range(nloc), p + 1))
    nb = len(locs)
    # exact integrals of lambda_i * lambda_j
    lam_ij = (np.ones((nloc, nloc)) + np.eye(nloc)) / ((k + 1) * (k + 2))

    local = np.zeros((len(vols), nb, nb))
    fp = math.factorial(p) ** 2
    for i, si in enumerate(locs):
        for j, sj in enumerate(locs):
            if j < i:
                continue
            acc = np.zeros(len(vols))
            for a in range(p + 1):
                ra = si[:a] + si[a + 1:]
                for b in range(p + 1):
                    rb = sj[:b] + sj[b + 1:]
                    acc += ((-1) ** (a + b) * lam_ij[si[a], sj[b]]
                            * _batched_minor_det(g, ra, rb))
            local[:, i, j] = fp * acc * vols
            if j != i:
                local[:, j, i] = local[:, i, j]

    gidx = K.faces_of_top[p]
    gsgn = K.face_signs_of_top[p].astype(float)
    signed = local * gsgn[:, :, None] * gsgn[:, None, :]
    rows = np.repeat(gidx, nb, axis=1).ravel()
    cols = np.tile(gidx, (1, nb)).ravel()
    n = K.n_simplices(p)
    M = sparse.coo_matrix((signed.reshape(len(vols), -1).ravel(), (rows, cols)),
                          shape=(n, n)).tocsr()
    return M


def stiffness(K: SimplicialComplex, q: int):
    """Whitney q-form stiffness D_q^T M_{q+1} D_q; zero at the top degree."""
    if q == K.dim:
        return sparse.csr_matrix((K.n_simplices(q),) * 2)
    D = mesh.coboundary(K, q).astype(float)
    return (D.T @ mass_matrix(K, q + 1) @ D).tocsr()


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


def whitney_values(grads_elem, lam, dofs, vectors):
    """Evaluate Whitney q-form basis functions on q-tuples of vectors.

    grads_elem : (nel, k+1, m) barycentric gradients of each element
    lam : (nel, npts, k+1) barycentric coordinates of evaluation points
    dofs : sequence of local vertex tuples (the q-subsimplices)
    vectors : (nel, q, m) the argument vectors (constant per element)

    Returns values of shape (nel, npts, ndof).
    """
    nel, npts, _ = lam.shape
    q = len(dofs[0]) - 1
    fq = math.factorial(q)
    # pairings grad(lambda_i) . vector_j
    pair = np.einsum("nim,nqm->niq", grads_elem, vectors)  # (nel, k+1, q)
    out = np.zeros((nel, npts, len(dofs)))
    for d, sig in enumerate(dofs):
        acc = np.zeros((nel, npts))
        for a in range(q + 1):
            rest = sig[:a] + sig[a + 1:]
            det = _pair_det(pair, rest)
            acc += (-1) ** a * lam[:, :, sig[a]] * det[:, None]
        out[:, :, d] = fq * acc
    return out


def _pair_det(pair, rows):
    """det over the q x q block pair[rows, :] per element."""
    q = pair.shape[2]
    if q == 0:
        return np.ones(pair.shape[0])
    sub = pair[:, np.array(rows), :]              # (nel, q, q)
    if q == 1:
        return sub[:, 0, 0]
    if q == 2:
        return sub[:, 0, 0] * sub[:, 1, 1] - sub[:, 0, 1] * sub[:, 1, 0]
    return np.linalg.det(sub)


def _boundary_quadrature(K: SimplicialComplex):
    """Per-boundary-face data for trace quadrature: parent gradients,
    barycentric coordinates of the (degree-2, positive) quadrature points,
    sqrt-weights, inner unit normals and an orthonormal tangent frame."""
    d = K.dim
    bface_idx = K.boundary_faces
    nb = len(bface_idx)
    fot = K.faces_of_top[d - 1]
    parent_of_face = -np.ones(K.n_simplices(d - 1), dtype=np.int64)
    for c in range(fot.shape[1]):
        parent_of_face[fot[:, c]] = np.arange(len(fot))
    parents = parent_of_face[bface_idx]

    tops = K.tops[parents]                          # (nb, d+1)
    faces = K.simplices[d - 1][bface_idx]           # (nb, d)
    _, grads_all = barycentric_gradients(K)
    grads = grads_all[parents]                      # (nb, d+1, d)

    fverts = K.vertices[faces]                      # (nb, d, d)
    e = np.swapaxes(fverts[:, 1:, :] - fverts[:, :1, :], 1, 2)   # (nb, d, d-1)
    qmats, _ = np.linalg.qr(e)
    tang = np.swapaxes(qmats, 1, 2)                 # (nb, d-1, d)
    opp_vertex = np.array([
        next(iter(set(tops[i].tolist()) - set(faces[i].tolist())))
        for i in range(nb)
    ])
    if d == 2:
        t0 = tang[:, 0, :]
        nrm = np.column_stack([-t0[:, 1], t0[:, 0]])
    else:
        nrm = np.cross(tang[:, 0, :], tang[:, 1, :])
    to_opp = K.vertices[opp_vertex] - fverts[:, 0, :]
    flip = np.einsum("ni,ni->n", nrm, to_opp) < 0
    nrm[flip] *= -1.0

    areas = np.sqrt(np.linalg.det(np.einsum("nmi,nmj->nij", e, e))) \
        / math.factorial(d - 1)

    pts_face, w_face = simplex_rule_positive(d - 1, 2)
    npq = len(pts_face)
    pos_in_top = np.zeros((nb, d), dtype=np.int64)
    for c in range(d):
        pos_in_top[:, c] = np.argmax(tops == faces[:, c][:, None], axis=1)
    lam = np.zeros((nb, npq, d + 1))
    ii = np.arange(nb)[:, None]
    jj = np.arange(npq)[None, :]
    for c in range(d):
        lam[ii, jj, pos_in_top[:, c][:, None]] = pts_face[None, :, c]
    sqrtw = np.sqrt(w_face[None, :] * areas[:, None])   # (nb, npq)
    return parents, grads, lam, sqrtw, nrm, tang


def normal_trace_factor(K: SimplicialComplex, q: int):
    """Sparse factor G with G^T G the boundary normal-trace energy of
    Whitney q-forms: x^T (G^T G) x = integral over the boundary of
    |i_N(interpolated x)|^2, by exact per-face degree-2 quadrature.

    Rows run over (tangent-frame tuple, quadrature point, boundary face) and
    carry sqrt of the quadrature weight; the sampled quantity is the q-form
    evaluated on (normal, tangent tuple)."""
    if not 1 <= q <= K.dim:
        raise ValueError(f"degree {q} out of range")
    d = K.dim
    nb = len(K.boundary_faces)
    n = K.n_simplices(q)
    if nb == 0:
        return sparse.csr_matrix((0, n))
    parents, grads, lam, sqrtw, nrm, tang = _boundary_quadrature(K)
    npq = lam.shape[1]
    tuples = list(itertools.combinations(range(d - 1), q - 1))
    dofs = list(itertools.combinations(range(d + 1), q + 1))
    gidx = K.faces_of_top[q][parents]
    gsgn = K.face_signs_of_top[q][parents].astype(float)

    rows_i, cols_i, vals = [], [], []
    row0 = 0
    for tup in tuples:
        vectors = np.concatenate(
            [nrm[:, None, :]] + [tang[:, (t,), :] for t in tup], axis=1)
        vals_b = whitney_values(grads, lam, dofs, vectors)   # (nb, npq, ndof)
        vals_b = vals_b * sqrtw[:, :, None] * gsgn[:, None, :]
        for k in range(npq):
            rows_i.append(row0 + np.repeat(np.arange(nb), len(dofs)))
            cols_i.append(gidx.ravel())
            vals.append(vals_b[:, k, :].ravel())
            row0 += nb
    G = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows_i), np.concatenate(cols_i))),
        shape=(row0, n))
    return G.tocsr()


def normal_trace_form(K: SimplicialComplex, q: int):
    """The assembled symmetric PSD normal-trace energy matrix."""
    G = normal_trace_factor(K, q)
    return (G.T @ G).tocsr()


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
