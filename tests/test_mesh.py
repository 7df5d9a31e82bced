import hashlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest

import mesh_oracle
from formsteklov import mesh
from formsteklov.errors import (InvalidDomainError, MeshFormatError,
                                NonManifoldError, OrientationError)

ALL_SPECS = [
    mesh.disk(1), mesh.ellipse(1, 0.7, 1), mesh.annulus(0.5, 1, 1),
    mesh.ball(1), mesh.ellipsoid(1, 0.8, 0.7, 1), mesh.shell(0.5, 1, 1),
    mesh.box(1, 1, 1, 1),
]

EXPECTED_BETTI = {
    "disk": (1, 0, 0),
    "ellipse(1,0.7)": (1, 0, 0),
    "annulus(0.5,1)": (1, 1, 0),
    "ball": (1, 0, 0, 0),
    "ellipsoid(1,0.8,0.7)": (1, 0, 0, 0),
    "shell(0.5,1)": (1, 0, 1, 0),
    "box(1,1,1)": (1, 0, 0, 0),
}

FAMILY_SPECS = [
    mesh.disk(), mesh.ellipse(1, 0.7), mesh.annulus(0.5, 1), mesh.ball(),
    mesh.ellipsoid(1, 0.8, 0.7), mesh.shell(0.5, 1), mesh.box(1, 1, 1),
]
LEVEL_SPECS = [s.with_level(l) for s in FAMILY_SPECS for l in range(3)]

# SHA-256 of write_mesh output, recorded before face topology moved to
# packed integer keys; the meshes must stay byte-identical
WRITE_MESH_SHA256 = {
    ("disk", 0): "109f86dd3c4b10f8cda845f9d77f0f0e8595d1cf02a6c38a5b4551280061da05",
    ("disk", 1): "3aa6f1497b48b1427f9063c4e167dd5c493c0079d43e7d7d5b30924f787de30f",
    ("disk", 2): "99017195cc119eea834779769a6f7aceed001ac4eb5ac560205b55c109789203",
    ("ellipse(1,0.7)", 0): "f085bb92b0e5c603af59018259f2711370f917e13a19e111d4e67d30521db334",
    ("ellipse(1,0.7)", 1): "f2295ef5438c3ee16e4ea4f5c98c9faf340fbb974d72edbb7890a6d3e882a6ea",
    ("ellipse(1,0.7)", 2): "538902732d28c196c51a397ad17b4fc227642c3207bd2228c54cd553f3430d55",
    ("annulus(0.5,1)", 0): "6bf60e0a0c34f05bbc891b4a3dd3b5232207a280b96e9665b705ec0990c313eb",
    ("annulus(0.5,1)", 1): "4fa4103fd399b4b9ad1b98d126f9216591cfae24fd48cb9045aea3559ed8695c",
    ("annulus(0.5,1)", 2): "8345eb13b3dd9e845e6f47f8a82cde4914d7c26def2b001d7e5cbc920900c23a",
    ("ball", 0): "beea55798859ffcd0d372c98a7050c61c481712debf3fae841f87832f21fdf90",
    ("ball", 1): "57536521a52dd4d9b7ead126660fd0fd3cf23ff94aa967b967a455a1c88bb9de",
    ("ball", 2): "d67d1197f3f37856b56cc5a6ee1033a92f1e24e402d2acdf584afd8e5e8342e8",
    ("ellipsoid(1,0.8,0.7)", 0): "1749327d4f6ea0c4c34f67d20f41ce31f9f94c49822dbff773d4ec2e791c561f",
    ("ellipsoid(1,0.8,0.7)", 1): "a5ec9c3744957557e289f5a72eceb266ab3ff2ca7b82cb43a550d7cc538aa905",
    ("ellipsoid(1,0.8,0.7)", 2): "1f67df5d809e236b35db827a6872d8669ab180606d0339bee30000f13dd0b36d",
    ("shell(0.5,1)", 0): "fc961c102a4385125f7422229c299685a62d46a7141cafd75ee502ce7d856ddc",
    ("shell(0.5,1)", 1): "e5f7f1288e0fa3fc30036f3c1c17fa9d4e17d7768049e7cce271453b2a606bb0",
    ("shell(0.5,1)", 2): "844d99602d7bdb6b25d59e0c8644c10cdbdd3de864e008dded3e07163fd065b9",
    ("box(1,1,1)", 0): "ab2634ee553c5f4ea36a0b83cd68ccc17f998260c718d5afff0a242045e0ead5",
    ("box(1,1,1)", 1): "c87cb6a46cc3b96410b746b2a7f45075f6ef1555344c528b29f94acea46a4286",
    ("box(1,1,1)", 2): "71e350e35614ab9ac508e91e4bb4cc5b97c4700aa57aba78854382c992761c84",
}


def _level_id(spec):
    return f"{spec.label()}-{spec.level}"


def test_domain_spec_validation():
    with pytest.raises(InvalidDomainError):
        mesh.annulus(1.0, 0.5)
    with pytest.raises(InvalidDomainError):
        mesh.ellipse(0.7, 1.0)
    with pytest.raises(InvalidDomainError):
        mesh.box(1, -1, 1)
    with pytest.raises(InvalidDomainError):
        mesh.DomainSpec("disk", (), -1)
    with pytest.raises(InvalidDomainError):
        mesh.DomainSpec("torus", (), 0)
    for params in ((float("nan"), 0.7), (float("inf"), 0.7),
                   (1.0, float("nan"))):
        with pytest.raises(InvalidDomainError, match="finite and positive"):
            mesh.ellipse(*params)
    with pytest.raises(InvalidDomainError, match="finite and positive"):
        mesh.box(float("nan"), 1, 1)
    with pytest.raises(InvalidDomainError, match="finite and positive"):
        mesh.shell(0.5, float("inf"))


def test_disk_level0_counts():
    K = mesh.generate(mesh.disk(0))
    assert K.n_simplices(0) == 9
    assert K.n_simplices(2) == 8


def test_ball_level0_counts():
    K = mesh.generate(mesh.ball(0))
    assert K.n_simplices(0) == 7
    assert K.n_simplices(3) == 8
    # vertices are +-e_i and the origin
    norms = np.sort(np.linalg.norm(K.vertices, axis=1))
    assert norms[0] == 0.0
    assert np.allclose(norms[1:], 1.0)


def test_refinement_counts():
    K = mesh.generate(mesh.disk(0))
    K1 = mesh.refine(K, mesh.disk(0))
    assert K1.n_simplices(2) == 32
    assert len(K1.boundary_simplices[0]) == 16
    B = mesh.generate(mesh.ball(0))
    B1 = mesh.refine(B, mesh.ball(0))
    assert B1.n_simplices(3) == 64


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_refine_multiplies_top_count(spec):
    K = mesh.generate(spec)
    K2 = mesh.refine(K, spec)
    factor = 4 if K.dim == 2 else 8
    assert K2.n_simplices(K2.dim) == factor * K.n_simplices(K.dim)


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_boundary_snapping(spec):
    K = mesh.refine(mesh.generate(spec), spec)
    bverts = K.vertices[K.boundary_simplices[0]]
    fam, p = spec.family, spec.params
    if fam in ("disk", "ball"):
        assert np.abs(np.linalg.norm(bverts, axis=1) - 1).max() < 1e-12
    elif fam in ("ellipse", "ellipsoid"):
        scaled = bverts / np.array(p)
        assert np.abs((scaled ** 2).sum(axis=1) - 1).max() < 1e-12
    elif fam in ("annulus", "shell"):
        r = np.linalg.norm(bverts, axis=1)
        near = np.minimum(np.abs(r - p[0]), np.abs(r - p[1]))
        assert near.max() < 1e-12


def test_ellipse_is_affine_image_of_disk():
    Kd = mesh.generate(mesh.disk(2))
    Ke = mesh.generate(mesh.ellipse(1, 0.7, 2))
    assert np.allclose(Kd.vertices * np.array([1.0, 0.7]), Ke.vertices)
    assert (Kd.tops == Ke.tops).all()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_coboundary_composition_vanishes(spec):
    K = mesh.generate(spec)
    for p in range(K.dim - 1):
        D1 = mesh.coboundary(K, p)
        D2 = mesh.coboundary(K, p + 1)
        assert abs(D2 @ D1).max() == 0


def test_coboundary_single_triangle():
    K = mesh.SimplicialComplex(2, np.array([[0.0, 0], [1, 0], [0, 1]]),
                               np.array([[0, 1, 2]]))
    D0 = mesh.coboundary(K, 0).toarray()
    # edges in lexicographic order: (0,1), (0,2), (1,2)
    assert (D0 == np.array([[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])).all()


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_betti_and_euler(spec):
    K = mesh.generate(spec)
    b = mesh.betti(K)
    assert b == EXPECTED_BETTI[spec.label()]
    chi = sum((-1) ** k * K.n_simplices(k) for k in range(K.dim + 1))
    assert chi == sum((-1) ** k * bk for k, bk in enumerate(b))


@pytest.mark.parametrize("spec", [s.with_level(l) for s in FAMILY_SPECS
                                  for l in (0, 1)], ids=_level_id)
def test_betti_matches_rank_oracle(spec):
    K = mesh.generate(spec)
    assert mesh.betti(K) == mesh_oracle.betti(K.dim, K.tops)


def _cube_complex(cells):
    """Unit lattice cubes at the given integer corners, each Kuhn-split
    into six tetrahedra along its main diagonal (so neighbours agree on
    their shared faces), positively oriented."""
    points, tops = {}, []
    for cell in cells:
        for perm in itertools.permutations(range(3)):
            corner = list(cell)
            path = [tuple(corner)]
            for axis in perm:
                corner[axis] += 1
                path.append(tuple(corner))
            tops.append([points.setdefault(v, len(points)) for v in path])
    verts = np.array(list(points), dtype=float)
    return mesh.SimplicialComplex(3, verts, mesh._orient_tops(verts, tops))


HAND_BUILT = {
    "solid-torus": ([(i, j, 0) for i in range(3) for j in range(3)
                     if (i, j) != (1, 1)], (1, 1, 0, 0)),
    "double-torus": ([(i, j, 0) for i in range(5) for j in range(3)
                      if (i, j) not in ((1, 1), (3, 1))], (1, 2, 0, 0)),
    "cube-with-cavity": ([c for c in itertools.product(range(3), repeat=3)
                          if c != (1, 1, 1)], (1, 0, 1, 0)),
    "two-cubes": ([(0, 0, 0), (2, 0, 0)], (2, 0, 0, 0)),
    "cubes-sharing-a-vertex": ([(0, 0, 0), (1, 1, 1)], (1, 0, 0, 0)),
}


@pytest.mark.parametrize("name", HAND_BUILT)
def test_betti_of_hand_built_complexes(name):
    """The tori are the only 3-d meshes of the tests with b_1 != 0, so
    the only check of the Euler-characteristic step b_1 = c - chi."""
    cells, expected = HAND_BUILT[name]
    K = _cube_complex(cells)
    assert mesh_oracle.betti(3, K.tops) == expected
    assert mesh.betti(K) == expected


def test_betti_refuses_an_embedded_complex():
    K = mesh.generate(mesh.ball(0))
    with pytest.raises(ValueError, match="full-dimensional"):
        mesh.betti(K.boundary_complex())


def test_betti_and_components_stay_linear(monkeypatch):
    """Betti numbers are component counts: no coboundary is built, box
    level 3 peaks below 4 MiB (417 MiB with the dense GF(2) ranks), and
    the components of the ball level-4 volume below 8 MiB (no nt x nt
    top adjacency)."""
    def refuse(*args, **kwargs):
        raise AssertionError("betti must not build a coboundary")

    box = mesh.generate(mesh.box(1, 1, 1, 3))
    ball = mesh.generate(mesh.ball(4))
    monkeypatch.setattr(mesh, "coboundary", refuse)
    for run, bound in ((lambda: mesh.betti(box), 4), (ball.components, 8)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * 2 ** 20


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_boundary_component_count(spec):
    K = mesh.generate(spec)
    ncomp = len(K.boundary_complex().components())
    assert ncomp == (2 if spec.family in ("annulus", "shell") else 1)


def test_annulus_components_split_by_radius():
    bc = mesh.generate(mesh.annulus(0.5, 1, 1)).boundary_complex()
    radius = np.linalg.norm(bc.vertices[bc.tops[:, 0]], axis=1)
    inner = np.flatnonzero(np.isclose(radius, 0.5)).tolist()
    outer = np.flatnonzero(np.isclose(radius, 1.0)).tolist()
    assert len(inner) + len(outer) == bc.n_simplices(1)
    expected = sorted([inner, outer], key=min)
    assert bc.components() == expected


@pytest.mark.parametrize("spec", ALL_SPECS, ids=lambda s: s.label())
def test_positive_volumes(spec):
    K = mesh.generate(spec)
    assert K.top_volumes().min() > 0


def test_generation_is_deterministic():
    a = mesh.generate(mesh.shell(0.5, 1, 1))
    b = mesh.generate(mesh.shell(0.5, 1, 1))
    assert (a.vertices == b.vertices).all()
    assert (a.tops == b.tops).all()


def test_mesh_io_roundtrip(tmp_path):
    K = mesh.generate(mesh.ball(1))
    p1 = tmp_path / "m1.smesh"
    p2 = tmp_path / "m2.smesh"
    mesh.write_mesh(p1, K)
    K2 = mesh.read_mesh(p1)
    for k in range(K.dim + 1):
        assert (K.simplices[k] == K2.simplices[k]).all()
    mesh.write_mesh(p2, K2)
    assert p1.read_bytes() == p2.read_bytes()


def test_mesh_io_bad_header(tmp_path):
    p = tmp_path / "bad.smesh"
    p.write_text("wrong 2 3 1\n0 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError):
        mesh.read_mesh(p)


@pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
def test_mesh_io_non_finite_coordinate(tmp_path, coord):
    """NaN volumes pass both orientation comparisons, so the reader itself
    must refuse a non-finite coordinate."""
    p = tmp_path / "nf.smesh"
    p.write_text(f"smesh 2 3 1\n{coord} 0\n1 0\n0 1\n0 1 2\n")
    with pytest.raises(MeshFormatError, match="non-finite"):
        mesh.read_mesh(p)


def test_mesh_io_nonmanifold(tmp_path):
    # a face shared by three tetrahedra
    p = tmp_path / "nm.smesh"
    lines = ["smesh 3 6 3",
             "0 0 0", "1 0 0", "0 1 0", "0 0 1", "0 0 -1", "1 1 1"]
    lines += ["0 1 2 3", "0 2 1 4", "0 1 2 5"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonManifoldError):
        mesh.read_mesh(p)


@pytest.mark.parametrize("lines", [
    # two triangles sharing only a vertex
    ["smesh 2 5 2", "0 0", "1 0", "1 1", "-1 0", "-1 -1", "0 1 2", "0 3 4"],
    # two tetrahedra sharing only an edge
    ["smesh 3 6 2", "0 0 0", "1 0 0", "0 1 0", "0 0 1", "0 -1 0", "0 0 -1",
     "0 1 2 3", "0 1 4 5"]], ids=["bowtie", "edge-sharing-tets"])
def test_mesh_io_pinched_boundary_is_not_closed(tmp_path, lines):
    """Every face lies on one top, so only the closedness check of the
    boundary can refuse these: its pinch lies on four boundary faces."""
    p = tmp_path / "pinch.smesh"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(NonManifoldError, match="not closed"):
        mesh.read_mesh(p)


@pytest.mark.parametrize("first", [False, True], ids=["last", "first"])
def test_mesh_io_vertex_on_no_top(tmp_path, first):
    """A stray vertex is refused where it is read.  It was accepted, and
    then listed last it made refine number the midpoints from a vertex
    count one short (a misleading OrientationError), and listed first it
    made the exit time fail on a numpy broadcast."""
    K = mesh.generate(mesh.disk(1))
    verts, tops = np.vstack([K.vertices, [[5.0, 5.0]]]), K.tops
    if first:
        verts, tops = np.roll(verts, 1, axis=0), tops + 1
    p = tmp_path / "stray.smesh"
    lines = [f"smesh 2 {len(verts)} {len(tops)}"]
    lines += [" ".join(f"{x:.17g}" for x in v) for v in verts]
    lines += [" ".join(str(i) for i in t) for t in tops]
    p.write_text("\n".join(lines) + "\n")
    stray = 0 if first else len(K.vertices)
    with pytest.raises(MeshFormatError, match=f"vertex {stray} lies on no top"):
        mesh.read_mesh(p)


def _sliver():
    """One tetrahedron spanned by two crossing unit segments 0.04 apart:
    shape quality 6 sqrt(2) V / l_max^3 = 0.028, the worst that refine
    reaches on the ball at level 4."""
    V = np.array([[1.0, 0, 0], [0, 1, 0.04], [-1, 0, 0], [0, -1, 0.04]])
    return mesh.SimplicialComplex(3, V, mesh._orient_tops(V, [[0, 1, 2, 3]]))


@pytest.mark.parametrize("spec", LEVEL_SPECS + [None],
                         ids=lambda s: "sliver" if s is None else _level_id(s))
def test_closed_form_geometry_matches_gram_oracle(spec):
    """The cofactor volumes and barycentric gradients agree with the Gram
    route within 1e-13 relative, simplex by simplex, and the gradients
    meet grad(lambda_i) . e_j = delta_ij (-1 for i = 0) to rounding.  The
    top volumes are the kernel's det E / d!."""
    K = _sliver() if spec is None else mesh.generate(spec)
    d, vertices, tops = K.dim, K.vertices, K.tops
    vols, grads = mesh_oracle.gram_geometry(vertices, tops)
    det, g = mesh.simplex_gradients(vertices, tops)
    g = np.moveaxis(g, 2, 0)                      # (nt, d+1, d)
    assert np.array_equal(K.top_volumes(), det / math.factorial(d))
    assert (np.abs(K.top_volumes() - vols) <= 1e-13 * np.abs(vols)).all()
    scale = np.abs(grads).max(axis=(1, 2))[:, None, None]
    assert (np.abs(g - grads) <= 1e-13 * scale).all()
    e = vertices[tops[:, 1:]] - vertices[tops[:, :1]]
    dots = np.einsum("nia,nja->nij", g, e)
    bound = 1e-15 * (np.linalg.norm(g, axis=2)[:, :, None]
                     * np.linalg.norm(e, axis=2)[:, None, :])
    assert (np.abs(dots - np.vstack([-np.ones(d), np.eye(d)])) <= bound).all()


def test_mesh_io_negative_volume(tmp_path):
    p = tmp_path / "neg.smesh"
    lines = ["smesh 3 4 1", "0 0 0", "1 0 0", "0 1 0", "0 0 1", "0 2 1 3"]
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(OrientationError):
        mesh.read_mesh(p)


@pytest.mark.parametrize("spec", LEVEL_SPECS, ids=_level_id)
def test_write_mesh_bytes_pinned(spec, tmp_path):
    path = tmp_path / "m.smesh"
    mesh.write_mesh(path, mesh.generate(spec))
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == WRITE_MESH_SHA256[(spec.label(), spec.level)]


def _assert_tables_equal(got, want, dtype=np.int64):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == dtype and g.shape == w.shape
        assert (g == w).all()


@pytest.mark.parametrize("spec", LEVEL_SPECS, ids=_level_id)
def test_packed_key_topology_matches_row_oracle(spec):
    K = mesh.generate(spec)
    d = K.dim
    simp, fot, fsgn = mesh_oracle.face_tables(d, K.tops)
    _assert_tables_equal(K.simplices, simp)
    _assert_tables_equal(K.faces_of_top, fot, np.int32)
    _assert_tables_equal(K.face_signs_of_top, fsgn, np.int8)
    faces, signs, bset, closed = mesh_oracle.boundary(d, simp, fot, fsgn)
    assert closed
    _assert_tables_equal([K.boundary_faces, K.boundary_signs], [faces, signs])
    _assert_tables_equal(K.boundary_simplices, bset)

    bc = K.boundary_complex()
    bsimp, bfot, bfsgn = mesh_oracle.face_tables(d - 1, bc.tops)
    _assert_tables_equal(bc.simplices, bsimp)
    _assert_tables_equal(bc.faces_of_top, bfot, np.int32)
    _assert_tables_equal(bc.face_signs_of_top, bfsgn, np.int8)
    used = np.unique(simp[d - 1][faces])
    index, sign = mesh_oracle.parent_maps(simp, used, bsimp)
    _assert_tables_equal(K.boundary_simplices, index)
    assert (K.boundary_signs == sign).all()

    for C, tables in ((K, simp), (bc, bsimp)):
        for p in range(C.dim):
            got, want = mesh.coboundary(C, p), mesh_oracle.coboundary(tables, p)
            for a in ("indptr", "indices", "data"):
                g, w = getattr(got, a), getattr(want, a)
                assert g.dtype == w.dtype and (g == w).all()


def test_row_keys_refuse_to_wrap():
    rows = np.array([[0, 1, 2]])
    # 2**21 vertices: 2**63 does not fit in int64 for rows of width 3
    with pytest.raises(MeshFormatError, match="too many"):
        mesh._row_keys(rows, 2 ** 21)
    assert mesh._row_keys(rows, 2 ** 21 - 1).tolist() == [(2 ** 21 - 1) + 2]
    with pytest.raises(MeshFormatError, match="out of range"):
        mesh._row_keys(np.array([[0, 5]]), 5)


def test_face_tables_refuse_to_wrap_int32(monkeypatch):
    """nt * C(d+1, k+1) local faces at or past 2**31 raise before any row
    is sorted; the tops are a broadcast view of one row, so nothing large
    is allocated."""
    def refuse(rows):
        raise AssertionError("the int32 guard must come first")

    monkeypatch.setattr(mesh, "_sort_parity", refuse)
    for d in (2, 3):
        for k in range(d):
            nt = -(-2 ** 31 // math.comb(d + 1, k + 1))
            tops = np.broadcast_to(np.arange(d + 1), (nt, d + 1))
            with pytest.raises(MeshFormatError, match="int32"):
                mesh._faces(tops, k, d + 1)


def test_ball_level4_face_tables_stay_compact():
    """Ball level 4 (32,768 tets): the stored face tables take at most
    6 MiB (10.7 MiB with int64 incidences and signs), and building the
    complex peaks below 600 B per top (779 B from one concatenated copy
    of every local face row and its sorted copy)."""
    K = mesh.generate(mesh.ball(4))
    stored = sum(a.nbytes for name in ("simplices", "faces_of_top",
                                       "face_signs_of_top")
                 for a in getattr(K, name))
    assert stored <= 6 * 2 ** 20
    tracemalloc.start()
    try:
        mesh.SimplicialComplex(3, K.vertices, K.tops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * len(K.tops)
