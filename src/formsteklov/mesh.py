"""Simplicial meshes of the benchmark domain families.

Deterministic structured generators (no external meshers), uniform
refinement with boundary snapping, oriented boundary extraction, signed
incidence (coboundary) matrices, Betti numbers from component counts and
the Euler characteristic, and a plain-text file format.  Every vertex
lies on a top, so the vertex table is read off the tops; the face tables
of degree 1 and up are found once per degree, by one ``np.unique`` over
the packed int64 keys of the sorted local vertex subsets; every
incidence (coboundary, boundary, boundary complex) is gathered from
them, never searched for again.  ``faces_of_top`` is int32 and
``face_signs_of_top`` int8; every other index table is int64.

The volumes and barycentric gradients of full-dimensional simplices
have one closed-form kernel: the cofactor rows of the edge matrix, read
coordinate-major, with no LAPACK call per simplex.  Embedded simplices
(boundary complexes) take their measures from Gram determinants.

Conventions
-----------
* Simplices of dimension k < dim are stored with ascending vertex indices.
* Top simplices are stored so that their signed volume is positive (the
  generators swap the last two vertices where needed).
* Boundary (dim-1)-simplices carry the orientation induced by the outward
  side of their unique parent top simplex; the boundary complex stores its
  top simplices in that induced order.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSimplexError,
    InvalidDomainError,
    MeshFormatError,
    NonManifoldError,
    OrientationError,
)

# family -> names of its metric parameters, in DomainSpec.params order
PARAMS = {"disk": (), "ellipse": ("a", "b"), "annulus": ("rin", "rout"),
          "ball": (), "ellipsoid": ("a", "b", "c"), "shell": ("rin", "rout"),
          "box": ("lx", "ly", "lz")}
FAMILIES = tuple(PARAMS)


@dataclass(frozen=True)
class DomainSpec:
    """A benchmark domain family with metric parameters and refinement level."""

    family: str
    params: tuple = ()
    level: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidDomainError(f"unknown family {self.family!r}")
        if self.level < 0:
            raise InvalidDomainError("level must be >= 0")
        p = tuple(float(x) for x in self.params)
        object.__setattr__(self, "params", p)
        expected = len(PARAMS[self.family])
        if len(p) != expected:
            raise InvalidDomainError(
                f"{self.family} takes {expected} parameters, got {len(p)}")
        if not all(math.isfinite(x) and x > 0 for x in p):
            raise InvalidDomainError(
                "all metric parameters must be finite and positive")
        if self.family in ("annulus", "shell") and p[0] >= p[1]:
            raise InvalidDomainError("need r_in < r_out")
        if self.family == "ellipse" and p[0] < p[1]:
            raise InvalidDomainError("ellipse needs a >= b")
        if self.family == "ellipsoid" and not (p[0] >= p[1] >= p[2]):
            raise InvalidDomainError("ellipsoid needs a >= b >= c")

    @property
    def dim(self) -> int:
        return 2 if self.family in ("disk", "ellipse", "annulus") else 3

    def with_level(self, level: int) -> "DomainSpec":
        return DomainSpec(self.family, self.params, level)

    def label(self) -> str:
        if self.params:
            inner = ",".join(f"{x:g}" for x in self.params)
            return f"{self.family}({inner})"
        return self.family


def disk(level=0):
    return DomainSpec("disk", (), level)


def ellipse(a, b, level=0):
    return DomainSpec("ellipse", (a, b), level)


def annulus(r_in, r_out, level=0):
    return DomainSpec("annulus", (r_in, r_out), level)


def ball(level=0):
    return DomainSpec("ball", (), level)


def ellipsoid(a, b, c, level=0):
    return DomainSpec("ellipsoid", (a, b, c), level)


def shell(r_in, r_out, level=0):
    return DomainSpec("shell", (r_in, r_out), level)


def box(lx, ly, lz, level=0):
    return DomainSpec("box", (lx, ly, lz), level)


# ---------------------------------------------------------------------------
# small combinatorial helpers


def _sort_parity(rows: np.ndarray):
    """Sorted copy of each row and the int8 parity (+1/-1) of the sort."""
    rows = np.asarray(rows)
    w = rows.shape[1]
    inv = np.zeros(len(rows), dtype=np.int64)
    for i in range(w):
        for j in range(i + 1, w):
            inv += rows[:, i] > rows[:, j]
    sign = np.where(inv % 2 == 0, 1, -1).astype(np.int8)
    return np.sort(rows, axis=1), sign


def _row_keys(rows: np.ndarray, nv: int) -> np.ndarray:
    """One int64 key per row of vertex indices in [0, nv):
    ``(...(r0 * nv + r1) * nv + r2)``.  Keys sort as the rows sort
    lexicographically; a base too large for int64 raises instead of
    wrapping."""
    rows = np.asarray(rows, dtype=np.int64)
    nv, width = int(nv), rows.shape[1]
    if nv ** width >= 2 ** 63:
        raise MeshFormatError(
            f"{nv} vertices are too many to key rows of width {width} in int64")
    if rows.size and (rows.min() < 0 or rows.max() >= nv):
        raise MeshFormatError(f"vertex index out of range [0, {nv})")
    key = rows[:, 0].copy()
    for j in range(1, width):
        key *= nv
        key += rows[:, j]
    return key


def _faces(tops: np.ndarray, k: int, nv: int):
    """Ascending k-simplices of the tops (int64), and each top's local
    k-faces in combination order: global indices (int32) and the parity of
    their stored vertex order (int8).  Raises rather than overflow int32."""
    nt, nloc = tops.shape
    subsets = list(itertools.combinations(range(nloc), k + 1))
    if nt * len(subsets) >= 2 ** 31:
        raise MeshFormatError(f"{nt} tops have too many {k}-faces for int32")
    keys = np.empty((nt, len(subsets)), dtype=np.int64)
    signs = np.empty((nt, len(subsets)), dtype=np.int8)
    for j, s in enumerate(subsets):
        srt, signs[:, j] = _sort_parity(tops[:, s])
        keys[:, j] = _row_keys(srt, nv)
    keys, inverse = np.unique(keys.ravel(), return_inverse=True)
    # vertex j of a face is digit j of its base-nv key
    simp = np.stack([keys // nv ** (k - j) % nv for j in range(k + 1)], axis=1)
    return simp, inverse.reshape(nt, len(subsets)).astype(np.int32), signs


def _edges(vertices: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Edge vectors e_j = v_j - v_0 (j = 1..d) of full-dimensional
    simplices in R^d, coordinate-major: ``e[a, j - 1]`` is the row of
    coordinate a of edge j over all simplices, contiguous."""
    x = vertices.T[:, tops.T]                  # (d, d+1, nt)
    return x[:, 1:] - x[:, :1]


def _cofactor_row(e: np.ndarray, j: int) -> np.ndarray:
    """Row j of the cofactor matrix of the edge matrix E with rows
    e_1..e_d, coordinate-major like ``e``: c_j . e_i = det E if i = j and
    0 otherwise, so grad(lambda_j) = c_{j-1} / det E for j = 1..d."""
    if len(e) == 2:
        u = e[:, 1 - j]
        return (1 - 2 * j) * np.stack([u[1], -u[0]])
    u, w = e[:, (j + 1) % 3], e[:, (j + 2) % 3]
    return np.stack([u[1] * w[2] - u[2] * w[1], u[2] * w[0] - u[0] * w[2],
                     u[0] * w[1] - u[1] * w[0]])


def _signed_volumes(vertices: np.ndarray, tops: np.ndarray) -> np.ndarray:
    """Signed volumes det E / d! of full-dimensional simplices in R^2 or
    R^3, from one 2x2 or triple product (one cofactor row, never all)."""
    e = _edges(vertices, tops)
    return (e[:, 0] * _cofactor_row(e, 0)).sum(axis=0) / math.factorial(len(e))


def simplex_gradients(vertices: np.ndarray, tops: np.ndarray):
    """det E and the gradients of the barycentric coordinates of
    full-dimensional simplices in R^2 or R^3, in closed form: grad(lambda_j)
    = c_{j-1} / det E from the cofactor rows and grad(lambda_0) = -(sum of
    the others).  Returns (det (nt,), grads (d+1, d, nt)), coordinate-major:
    ``grads[i, a]`` is coordinate a of grad(lambda_i).  Raises
    DegenerateSimplexError where det E = 0.  A sum over the d <= 3
    coordinate rows adds them one after another, so every result rounds
    alike at every number of simplices."""
    e = _edges(vertices, tops)
    d = len(e)
    grads = np.empty((d + 1, d, e.shape[2]))
    for j in range(d):
        grads[j + 1] = _cofactor_row(e, j)
    det = (e[:, 0] * grads[1]).sum(axis=0)
    if np.any(det == 0):
        raise DegenerateSimplexError(
            f"zero-volume simplex at index {int(np.argmin(np.abs(det)))}")
    grads[1:] /= det
    grads[0] = -grads[1:].sum(axis=0)
    return det, grads


def simplex_measures(vertices: np.ndarray, simp: np.ndarray) -> np.ndarray:
    """Unsigned k-volumes (k >= 1) of (possibly embedded) simplices."""
    k = simp.shape[1] - 1
    v = vertices[simp]
    e = v[:, 1:, :] - v[:, :1, :]
    gram = np.einsum("nij,nkj->nik", e, e)
    det = np.linalg.det(gram)
    return np.sqrt(np.maximum(det, 0.0)) / math.factorial(k)


class SimplicialComplex:
    """An oriented simplicial complex with all face tables derived.

    Parameters
    ----------
    dim : int
        Manifold dimension of the top simplices.
    vertices : (nv, m) float array
        Vertex coordinates, m >= dim.
    tops : (nt, dim+1) int array
        Top simplices in stored (orientation-carrying) vertex order; every
        vertex must lie on one, and when m == dim each must have positive
        signed volume.
    """

    def __init__(self, dim, vertices, tops):
        self.dim = int(dim)
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        tops = np.ascontiguousarray(tops, dtype=np.int64)
        if tops.shape[1] != self.dim + 1:
            raise MeshFormatError("top simplex width does not match dimension")
        self.ambient = self.vertices.shape[1]
        nv = len(self.vertices)
        if tops.size and (tops.min() < 0 or tops.max() >= nv):
            raise MeshFormatError(f"vertex index out of range [0, {nv})")
        on_tops = np.bincount(tops.ravel(), minlength=nv)
        if not on_tops.all():
            raise MeshFormatError(
                f"vertex {int(np.argmin(on_tops))} lies on no top simplex")
        if self.ambient == self.dim:
            vols = _signed_volumes(self.vertices, tops)
            if np.any(np.abs(vols) < 1e-14):
                raise DegenerateSimplexError(
                    f"zero-volume simplex at index {int(np.argmin(np.abs(vols)))}")
            if np.any(vols <= 0):
                raise OrientationError(
                    f"non-positive simplex volume at index {int(np.argmin(vols))}")

        # face tables, local-to-global maps and relative signs per level
        self.simplices: list = [None] * (self.dim + 1)
        self.faces_of_top: list = [None] * (self.dim + 1)
        self.face_signs_of_top: list = [None] * (self.dim + 1)
        self.simplices[self.dim] = tops
        # every vertex lies on a top, so the vertices are read off the tops
        self.simplices[0] = np.arange(nv)[:, None]
        self.faces_of_top[0] = tops.astype(np.int32)
        self.face_signs_of_top[0] = np.ones(tops.shape, dtype=np.int8)
        for k in range(1, self.dim):
            (self.simplices[k], self.faces_of_top[k],
             self.face_signs_of_top[k]) = _faces(tops, k, nv)
        self.faces_of_top[self.dim] = np.arange(len(tops), dtype=np.int32)[:, None]
        self.face_signs_of_top[self.dim] = np.ones((len(tops), 1), dtype=np.int8)

        self._extract_boundary()
        self._bc = None

    # -- basic queries ------------------------------------------------------

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k])

    @property
    def tops(self) -> np.ndarray:
        return self.simplices[self.dim]

    def top_volumes(self) -> np.ndarray:
        if self.ambient == self.dim:
            return _signed_volumes(self.vertices, self.tops)
        return simplex_measures(self.vertices, self.tops)

    # -- boundary -----------------------------------------------------------

    def _extract_boundary(self):
        d = self.dim
        fot = self.faces_of_top[d - 1]          # (nt, d+1) global indices
        counts = np.bincount(fot.ravel(), minlength=self.n_simplices(d - 1))
        if np.any(counts > 2) or np.any(counts == 0):
            bad = int(np.argmax(counts))
            raise NonManifoldError(
                f"(dim-1)-simplex {bad} belongs to {int(counts[bad])} top simplices")
        # the (top, local face) pair of every boundary face, by face index
        t, c = np.nonzero(counts[fot] == 1)
        order = np.argsort(fot[t, c])
        t, c = t[order], c[order]
        self.boundary_faces = fot[t, c].astype(np.int64)
        # local face c omits local vertex d - c; the outward orientation is
        # (-1)^(d - c) composed with the parity of the stored vertex order
        omitted = d - c
        self.boundary_signs = (np.where(omitted % 2, -1, 1)
                               * self.face_signs_of_top[d - 1][t, c])

        # all lower simplices lying on the boundary: the local k-faces of
        # each boundary face, those without its omitted vertex
        bset = [None] * d
        bset[d - 1] = self.boundary_faces
        for k in range(d - 1):
            subsets = list(itertools.combinations(range(d + 1), k + 1))
            without = np.array([[j not in s for s in subsets]
                                for j in range(d + 1)])
            gathered = self.faces_of_top[k][t][without[omitted]]
            bset[k] = np.unique(gathered).astype(np.int64)
        self.boundary_simplices = bset

        # boundary of the boundary must be closed: each boundary ridge (the
        # last k gathered) lies on exactly two boundary faces
        if d >= 2 and np.any(np.bincount(gathered)[bset[d - 2]] != 2):
            raise NonManifoldError("boundary complex is not closed")

    def boundary_complex(self) -> "BoundaryComplex":
        """The induced complex of the boundary (see BoundaryComplex)."""
        if self._bc is None:
            self._bc = BoundaryComplex._build(self)
        return self._bc

    def components(self):
        """Connected components as sorted lists of top-simplex indices,
        ordered by their smallest top index; two tops are joined when
        they share a vertex, so each top takes the component of its first
        vertex in the edge graph."""
        from scipy import sparse
        from scipy.sparse.csgraph import connected_components

        nv, edges = self.n_simplices(0), self.simplices[1]
        graph = sparse.coo_matrix(
            (np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(nv, nv))
        labels = connected_components(graph, directed=False)[1][self.tops[:, 0]]
        _, first = np.unique(labels, return_index=True)
        return [np.flatnonzero(labels == labels[t]).tolist()
                for t in np.sort(first)]


class BoundaryComplex(SimplicialComplex):
    """The boundary of a volume complex K as a complex of its own.

    Boundary k-simplex j is K's k-simplex ``K.boundary_simplices[k][j]``:
    the vertex renumbering is monotone, so vertex orders agree, except that
    a top swaps its last two vertices where ``K.boundary_signs`` is -1 and
    so carries the induced (outward) orientation.
    """

    @classmethod
    def _build(cls, K: SimplicialComplex):
        used = K.boundary_simplices[0]
        new_of_old = -np.ones(K.n_simplices(0), dtype=np.int64)
        new_of_old[used] = np.arange(len(used))
        tops = new_of_old[K.simplices[K.dim - 1][K.boundary_faces]]
        flip = K.boundary_signs == -1
        tops[flip, -2:] = tops[flip, :-3:-1]
        return cls(K.dim - 1, K.vertices[used], tops)


# ---------------------------------------------------------------------------
# coboundary and Betti numbers


def local_coboundary(k: int, q: int) -> np.ndarray:
    """Incidence of the local (q+1)-faces of a k-simplex on its local
    q-faces, both in combination order: (-1)^a where the q-face drops
    position a."""
    faces = list(itertools.combinations(range(k + 1), q + 1))
    cofaces = list(itertools.combinations(range(k + 1), q + 2))
    D = np.zeros((len(cofaces), len(faces)), dtype=np.int64)
    for r, tau in enumerate(cofaces):
        for a in range(q + 2):
            D[r, faces.index(tau[:a] + tau[a + 1:])] = (-1) ** a
    return D


def coboundary(K: SimplicialComplex, p: int):
    """Signed incidence matrix mapping p-cochains to (p+1)-cochains.

    Each (p+1)-simplex is read off the first top that holds it, as its
    local coface c: the local incidence of c, composed with the stored
    face signs of c and of its p-faces in that top.  Entries are -1/0/+1.
    Returns a scipy CSR matrix with integer entries.
    """
    from scipy import sparse

    if not 0 <= p < K.dim:
        raise ValueError(f"coboundary degree {p} out of range for dim {K.dim}")
    cof = K.faces_of_top[p + 1]
    _, first = np.unique(cof, return_index=True)
    t, c = divmod(first, cof.shape[1])
    loc = local_coboundary(K.dim, p)
    faces = np.nonzero(loc)[1].reshape(len(loc), p + 2)[c]   # (n, p+2) local
    sign = (K.face_signs_of_top[p + 1][t, c][:, None] * loc[c[:, None], faces]
            * K.face_signs_of_top[p][t[:, None], faces])
    D = sparse.coo_matrix(
        (sign.ravel(), (np.repeat(np.arange(len(t)), p + 2),
                        K.faces_of_top[p][t[:, None], faces].ravel())),
        shape=(len(t), K.n_simplices(p)), dtype=np.int64)
    return D.tocsr()


def betti(K: SimplicialComplex):
    """Betti numbers of a full-dimensional manifold mesh in R^2 or R^3 (a
    mesh pinched at a vertex is outside this contract, as it is for the
    manifold checks), from component counts by Alexander duality (Hatcher,
    Algebraic Topology, 2002, sec. 3.3).  Each of the b_0 components of K
    has one outer boundary surface and every further one of the c
    components of the boundary encloses a cavity, so b_{dim-1} = c - b_0;
    in 3-d the Euler characteristic chi then fixes b_1 = c - chi."""
    if K.ambient != K.dim or K.dim not in (2, 3):
        raise ValueError("betti needs a full-dimensional complex in R^2 or "
                         f"R^3, not dimension {K.dim} in R^{K.ambient}")
    b0 = len(K.components())
    c = len(K.boundary_complex().components())
    if K.dim == 2:
        return b0, c - b0, 0
    chi = sum((-1) ** k * K.n_simplices(k) for k in range(4))
    return b0, c - chi, c - b0, 0


# ---------------------------------------------------------------------------
# generators


def _orient_tops(vertices, tops):
    tops = np.array(tops, dtype=np.int64)
    neg = _signed_volumes(np.asarray(vertices, float), tops) < 0
    tops[neg, -2:] = tops[neg, :-3:-1]
    return tops


def _base_disk():
    ang = 2 * np.pi * np.arange(8) / 8
    verts = np.vstack([[0.0, 0.0], np.column_stack([np.cos(ang), np.sin(ang)])])
    tops = [(0, 1 + k, 1 + (k + 1) % 8) for k in range(8)]
    return verts, _orient_tops(verts, tops)


def _layered_annulus(r_in, r_out, level):
    # direct layered construction per level: refining a layered mesh twice
    # would re-refine the tangential slivers at the concave inner circle
    m = 8 * 2 ** level
    layers = 2 ** level
    ang = 2 * np.pi * np.arange(m) / m
    u = np.column_stack([np.cos(ang), np.sin(ang)])
    radii = np.linspace(r_in, r_out, layers + 1)
    verts = np.vstack([r * u for r in radii])
    tops = []
    for l in range(layers):
        lo, hi = l * m, (l + 1) * m
        for k in range(m):
            k1 = (k + 1) % m
            tops.append((lo + k, hi + k, hi + k1))
            tops.append((lo + k, hi + k1, lo + k1))
    return verts, _orient_tops(verts, tops)


def _base_ball():
    verts = np.array([
        [0.0, 0.0, 0.0],
        [1, 0, 0], [-1, 0, 0],
        [0, 1, 0], [0, -1, 0],
        [0, 0, 1], [0, 0, -1],
    ], dtype=float)
    tops = []
    for i in (1, 2):
        for j in (3, 4):
            for k in (5, 6):
                tops.append((0, i, j, k))
    return verts, _orient_tops(verts, tops)


def _prism_split(bottom, top):
    """Split a triangular prism into three tets with index-consistent
    diagonals (quad (i, j) gets the diagonal through min(i, j))."""
    order = np.argsort(bottom)
    b = [bottom[i] for i in order]
    t = [top[i] for i in order]
    return [(b[0], b[1], b[2], t[2]), (b[0], b[1], t[2], t[1]), (b[0], t[1], t[2], t[0])]


def _layered_shell(r_in, r_out, level):
    # direct layered construction per level (see _layered_annulus); the
    # angular triangulation is the boundary sphere of the refined octahedron
    sphere = generate(ball(1 + level)).boundary_complex()
    dirs = sphere.vertices / np.linalg.norm(sphere.vertices, axis=1, keepdims=True)
    tris = sphere.tops
    ns = len(dirs)
    n_layers = 2 * 2 ** level
    radii = np.linspace(r_in, r_out, n_layers + 1)
    verts = np.vstack([r * dirs for r in radii])
    tops = []
    for layer in range(n_layers):
        lo, hi = layer * ns, (layer + 1) * ns
        for tri in tris.tolist():
            tops.extend(_prism_split([lo + v for v in tri], [hi + v for v in tri]))
    return verts, _orient_tops(verts, tops)


def _base_box(lx, ly, lz):
    corners = np.array(list(itertools.product((0, 1), repeat=3)), dtype=float)
    verts = corners * np.array([lx, ly, lz])

    def cidx(b):
        return b[0] * 4 + b[1] * 2 + b[2]

    tops = []
    for perm in itertools.permutations(range(3)):
        b = [0, 0, 0]
        path = [cidx(b)]
        for ax in perm:
            b[ax] = 1
            path.append(cidx(b))
        tops.append(tuple(path))
    return verts, _orient_tops(verts, tops)


def _snap_boundary(spec: DomainSpec, pts: np.ndarray) -> np.ndarray:
    """Project points onto the analytic boundary surface of the family."""
    fam, p = spec.family, spec.params
    if fam == "box":
        return pts
    if fam in ("disk", "ball"):
        return pts / np.linalg.norm(pts, axis=1, keepdims=True)
    if fam in ("ellipse", "ellipsoid"):
        scale = np.array(p)
        y = pts / scale
        y /= np.linalg.norm(y, axis=1, keepdims=True)
        return y * scale
    # annulus / shell: project to the nearer of the two radii
    r_in, r_out = p
    r = np.linalg.norm(pts, axis=1, keepdims=True)
    target = np.where(np.abs(r - r_in) <= np.abs(r - r_out), r_in, r_out)
    return pts * (target / r)


_TRI_CHILDREN = ((0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5))
# local vertex layout for a refined triangle: 0,1,2 corners; 3=m01, 4=m12, 5=m02
_TET_CHILDREN = (
    (0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
    (4, 5, 6, 8), (4, 5, 8, 7), (5, 6, 8, 9), (5, 7, 9, 8),
)
# corners 0..3; midpoints 4=m01, 5=m02, 6=m03, 7=m12, 8=m13, 9=m23


def refine(K: SimplicialComplex, spec: DomainSpec) -> SimplicialComplex:
    """Uniform subdivision (4 children per triangle, 8 per tetrahedron) with
    new boundary vertices snapped onto the analytic boundary."""
    d = K.dim
    edges = K.simplices[1]
    nv = K.n_simplices(0)
    mids = 0.5 * (K.vertices[edges[:, 0]] + K.vertices[edges[:, 1]])
    on_b = np.zeros(len(edges), dtype=bool)
    on_b[K.boundary_simplices[1]] = True
    if np.any(on_b):
        mids[on_b] = _snap_boundary(spec, mids[on_b])
    verts = np.vstack([K.vertices, mids])

    tops = K.tops
    eot = K.faces_of_top[1]  # (nt, n_local_edges) in combination order
    if d == 2:
        # local edges of (a,b,c) in combination order: (a,b), (a,c), (b,c)
        locv = np.column_stack([tops, eot[:, [0, 2, 1]]])
        pattern = _TRI_CHILDREN
    else:
        # local edges of (a,b,c,d): (a,b),(a,c),(a,d),(b,c),(b,d),(c,d)
        locv = np.column_stack([tops, eot])
        pattern = _TET_CHILDREN
    # the edge indices are int32; the midpoints are numbered in int64
    locv[:, d + 1:] += nv
    children = np.concatenate([locv[:, list(ch)] for ch in pattern], axis=0)
    return SimplicialComplex(d, verts, children)


def generate(spec: DomainSpec) -> SimplicialComplex:
    """Mesh of the requested domain at its refinement level."""
    fam, p = spec.family, spec.params
    if fam == "annulus":
        verts, tops = _layered_annulus(*p, spec.level)
        return SimplicialComplex(2, verts, tops)
    if fam == "shell":
        verts, tops = _layered_shell(*p, spec.level)
        return SimplicialComplex(3, verts, tops)
    if fam == "disk":
        verts, tops = _base_disk()
    elif fam == "ellipse":
        verts, tops = _base_disk()
        verts = verts * np.array(p)
    elif fam == "ball":
        verts, tops = _base_ball()
    elif fam == "ellipsoid":
        verts, tops = _base_ball()
        verts = verts * np.array(p)
    else:   # box; DomainSpec admits no other family
        verts, tops = _base_box(*p)
    K = SimplicialComplex(spec.dim, verts, tops)
    for _ in range(spec.level):
        K = refine(K, spec)
    return K


# ---------------------------------------------------------------------------
# file I/O


def write_mesh(path, K: SimplicialComplex) -> None:
    """Write the complex in the plain-text format (see ``read_mesh``)."""
    lines = [f"smesh {K.dim} {K.n_simplices(0)} {K.n_simplices(K.dim)}"]
    for v in K.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for t in K.tops:
        lines.append(" ".join(str(int(i)) for i in t))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


def read_mesh(path) -> SimplicialComplex:
    """Read a mesh file: ``smesh <dim> <nv> <nt>``, then nv coordinate lines
    and nt 0-based top simplex lines (positive orientation required).

    Lower simplices and boundary flags are derived, never stored.
    """
    with open(path, "r", encoding="utf-8") as f:
        txt = f.read().split("\n")
    head = txt[0].split()
    if len(head) != 4 or head[0] != "smesh":
        raise MeshFormatError(f"bad header: {txt[0]!r}")
    try:
        dim, nv, nt = (int(x) for x in head[1:])
    except ValueError as exc:
        raise MeshFormatError(f"bad header: {txt[0]!r}") from exc
    if dim not in (2, 3):
        raise MeshFormatError(f"unsupported dimension {dim}")
    if len(txt) < 1 + nv + nt:
        raise MeshFormatError("file truncated")
    try:
        verts = np.array([[float(x) for x in txt[1 + i].split()] for i in range(nv)])
        tops = np.array([[int(x) for x in txt[1 + nv + i].split()] for i in range(nt)],
                        dtype=np.int64)
    except ValueError as exc:
        raise MeshFormatError(f"unparsable body: {exc}") from exc
    if verts.shape != (nv, dim) or tops.shape != (nt, dim + 1):
        raise MeshFormatError("vertex or simplex line has wrong arity")
    if not np.isfinite(verts).all():
        raise MeshFormatError("non-finite vertex coordinate")
    return SimplicialComplex(dim, verts, tops)
