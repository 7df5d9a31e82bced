"""Reference normal-trace energy by sampling the volume Whitney form.

Each boundary face gets its parent top simplex, an inner unit normal N and
an orthonormal tangent frame; the Whitney q-form is evaluated on
(N, tangent tuple) at the points of a positive degree-2 face rule, and the
energy is G^T G for the factor G of square-root-weighted samples.  It is
exact for Whitney forms (the squared samples are quadratic in the
barycentric coordinates) and independent of the tangential trace and the
boundary mass that ``feec.normal_trace_form`` uses, so that form is tested
against it.
"""

import itertools
import math

import numpy as np
from scipy import sparse

from formsteklov.feec import barycentric_gradients
from formsteklov.mesh import SimplicialComplex


def _positive_rule(dim: int):
    """Positive-weight rule of degree >= 2 on the reference simplex
    (barycentric points, weights summing to 1).  Needed where the square
    root of the weights enters a factored Gram matrix."""
    if dim == 1:
        r = 1.0 / (2.0 * math.sqrt(3.0))
        pts = np.array([[0.5 + r, 0.5 - r], [0.5 - r, 0.5 + r]])
        return pts, np.array([0.5, 0.5])
    if dim == 2:
        pts = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        return pts, np.full(3, 1.0 / 3.0)
    raise ValueError(f"no positive rule tabulated for dim {dim}")


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

    pts_face, w_face = _positive_rule(d - 1)
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
    """The assembled normal-trace energy G^T G."""
    G = normal_trace_factor(K, q)
    return (G.T @ G).tocsr()
