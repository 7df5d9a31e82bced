"""Row-based face topology: the test oracle for the packed-key face tables
of ``formsteklov.mesh`` and the incidences it gathers from them.

Face tables come from ``np.unique(axis=0)`` on whole vertex rows, and rows
are found through a Python dict of tuples.  Slow on deep meshes, exact on
all of them.
"""

import itertools

import numpy as np
from scipy import sparse

from formsteklov.mesh import _sort_parity


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
    """parent_index and parent_sign of a boundary complex whose vertex i is
    parent vertex used[i]."""
    d = len(bc_simplices)
    index, sign = [None] * d, [None] * d
    for k in range(d - 1):
        rows = used[bc_simplices[k]]
        index[k] = row_lookup(parent_simplices[k], rows)
        sign[k] = np.ones(len(rows), dtype=np.int64)
    srt, sign[d - 1] = _sort_parity(used[bc_simplices[d - 1]])
    index[d - 1] = row_lookup(parent_simplices[d - 1], srt)
    return index, sign


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
