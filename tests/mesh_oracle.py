"""Row-based face topology: the test oracle for the packed-key face tables
of ``formsteklov.mesh`` and the incidences it gathers from them.

Face tables come from ``np.unique(axis=0)`` on whole vertex rows, and rows
are found through a Python dict of tuples.  Slow on deep meshes, exact on
all of them.  The parity of a sort is its own (from the cycles of the
sorting permutation), never the inversion count of the code under test.

``gram_geometry`` is the oracle of the closed-form simplex geometry: the
LAPACK Gram route that the package took before.
"""

import itertools
import math

import numpy as np
from scipy import sparse


def _sort_parity(rows):
    """Sorted copy of each row and the sign (+1/-1, int8) of the sorting
    permutation, (-1)^(width - number of its cycles)."""
    rows = np.asarray(rows)
    n, w = rows.shape
    perm = np.argsort(rows, axis=1)
    seen = np.zeros((n, w), dtype=bool)
    cycles = np.zeros(n, dtype=np.int64)
    at = np.arange(n)
    for start in range(w):
        new = ~seen[:, start]          # start opens a cycle not yet walked
        cycles += new
        j = np.full(n, start)
        for _ in range(w):             # no cycle is longer than w
            seen[at, j] |= new
            j = perm[at, j]
    sign = np.where((w - cycles) % 2 == 0, 1, -1).astype(np.int8)
    return np.take_along_axis(rows, perm, axis=1), sign


def row_lookup(table, queries):
    """Index of each query row in the table (KeyError when missing)."""
    if len(queries) == 0:
        return np.zeros(0, dtype=np.int64)
    pos = {tuple(r): i for i, r in enumerate(table.tolist())}
    return np.array([pos[tuple(r)] for r in queries.tolist()], dtype=np.int64)


def face_tables(dim, tops):
    """Ascending simplices, faces_of_top and face_signs_of_top per degree."""
    simplices = [None] * (dim + 1)
    faces_of_top = [None] * (dim + 1)
    face_signs_of_top = [None] * (dim + 1)
    nt = len(tops)
    for k in range(dim):
        subsets = list(itertools.combinations(range(dim + 1), k + 1))
        srt, sgn = _sort_parity(np.concatenate([tops[:, s] for s in subsets]))
        uniq, inverse = np.unique(srt, axis=0, return_inverse=True)
        simplices[k] = uniq
        faces_of_top[k] = inverse.reshape(len(subsets), nt).T
        face_signs_of_top[k] = sgn.reshape(len(subsets), nt).T
    simplices[dim] = tops
    faces_of_top[dim] = np.arange(nt)[:, None]
    face_signs_of_top[dim] = np.ones((nt, 1), dtype=np.int64)
    return simplices, faces_of_top, face_signs_of_top


def boundary(dim, simplices, faces_of_top, face_signs_of_top):
    """boundary_faces, boundary_signs and boundary_simplices of a volume
    complex, and whether its boundary is closed."""
    fot = faces_of_top[dim - 1]
    counts = np.bincount(fot.ravel(), minlength=len(simplices[dim - 1]))
    faces = np.flatnonzero(counts == 1)
    sign_of_face = np.zeros(len(simplices[dim - 1]), dtype=np.int64)
    for c, s in enumerate(itertools.combinations(range(dim + 1), dim)):
        omitted = (set(range(dim + 1)) - set(s)).pop()
        idx = fot[:, c]
        on_b = counts[idx] == 1
        sgn = (-1) ** omitted * face_signs_of_top[dim - 1][:, c]
        sign_of_face[idx[on_b]] = sgn[on_b]
    bfaces = simplices[dim - 1][faces]
    bset = [None] * dim
    bset[dim - 1] = faces
    for k in range(dim - 1):
        sub = list(itertools.combinations(range(dim), k + 1))
        rows = np.unique(np.concatenate([bfaces[:, s] for s in sub]), axis=0)
        bset[k] = row_lookup(simplices[k], rows)
    closed = True
    if dim >= 2 and len(faces):
        srt, _ = _sort_parity(np.concatenate(
            [bfaces[:, s] for s in itertools.combinations(range(dim), dim - 1)]))
        _, cnt = np.unique(srt, axis=0, return_counts=True)
        closed = bool(np.all(cnt == 2))
    return faces, sign_of_face[faces], bset, closed


def parent_maps(parent_simplices, used, bc_simplices):
    """For a boundary complex whose vertex i is parent vertex used[i]: the
    parent index of each boundary k-simplex (the lookup fails unless a
    lower boundary simplex keeps its ascending vertex order) and the
    parity of each boundary top against its parent face."""
    d = len(bc_simplices)
    index = [row_lookup(parent_simplices[k], used[bc_simplices[k]])
             for k in range(d - 1)]
    srt, sign = _sort_parity(used[bc_simplices[d - 1]])
    return index + [row_lookup(parent_simplices[d - 1], srt)], sign


def coboundary(simplices, p):
    """Signed incidence matrix from p-cochains to (p+1)-cochains."""
    parents = simplices[p + 1]
    w = p + 2
    rows, cols, vals = [], [], []
    for j in range(w):
        srt, sgn = _sort_parity(parents[:, [i for i in range(w) if i != j]])
        rows.append(np.arange(len(parents)))
        cols.append(row_lookup(simplices[p], srt))
        vals.append((-1) ** j * sgn)
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(len(parents), len(simplices[p])), dtype=np.int64).tocsr()


def betti(dim, tops):
    """Real Betti numbers n_p - rank D_p - rank D_{p-1} from the oracle's
    own face tables and coboundaries; each rank is that of the smaller
    Gram matrix, D^T D or D D^T, found by a dense symmetric eigensolve."""
    simplices = face_tables(dim, np.asarray(tops))[0]
    ranks = [0]                     # ranks[p] = rank D_{p-1}
    for p in range(dim):
        D = coboundary(simplices, p).astype(float)
        G = D.T @ D if D.shape[0] >= D.shape[1] else D @ D.T
        ranks.append(int(np.linalg.matrix_rank(G.toarray(), hermitian=True)))
    ranks.append(0)
    return tuple(len(simplices[p]) - ranks[p + 1] - ranks[p]
                 for p in range(dim + 1))


def gram_geometry(vertices, tops):
    """Signed volumes and barycentric gradients of full-dimensional
    simplices by the Gram route: det E by LU, grad(lambda_j), j >= 1, as
    row j of E^-T = (E E^T)^-1 E, where E has the rows e_j = v_j - v_0,
    and grad(lambda_0) = -(sum of the others).  Returns (vols (nt,),
    grads (nt, d+1, d))."""
    v = vertices[tops]
    e = v[:, 1:, :] - v[:, :1, :]
    vols = np.linalg.det(e) / math.factorial(e.shape[1])
    g = np.linalg.inv(e @ np.swapaxes(e, 1, 2)) @ e
    return vols, np.concatenate([-g.sum(axis=1, keepdims=True), g], axis=1)
