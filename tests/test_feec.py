import itertools
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import cholesky

import mass_oracle
import normal_trace_oracle
from formsteklov import feec, forms, mesh, scalar
from formsteklov.errors import DegenerateSimplexError

SPECS = [mesh.disk(2), mesh.ball(1), mesh.annulus(0.5, 1, 1),
         mesh.shell(0.5, 1, 0), mesh.ellipse(1, 0.7, 2), mesh.box(1, 1, 1, 1)]
FAMILIES = [mesh.disk(0), mesh.ellipse(1, 0.7, 0), mesh.annulus(0.5, 1, 0),
            mesh.ball(0), mesh.ellipsoid(1, 0.8, 0.6, 0),
            mesh.shell(0.5, 1, 0), mesh.box(1, 1, 1, 0)]


def _level_id(spec):
    return f"{spec.label()}-{spec.level}"


def single_triangle():
    return mesh.SimplicialComplex(
        2, np.array([[0.0, 0], [2, 0], [0, 1]]), np.array([[0, 1, 2]]))


def test_p0_mass_single_triangle():
    K = single_triangle()
    A = 1.0
    M = feec.mass_matrix(K, 0).toarray()
    assert np.allclose(M, A / 12 * np.array([[2, 1, 1], [1, 2, 1], [1, 1, 2]]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_mass_spd(spec):
    K = mesh.generate(spec)
    for p in range(K.dim + 1):
        M = feec.mass_matrix(K, p).toarray()
        cholesky(M)  # raises if not SPD


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_constant_form_energy_exact(spec):
    """Whitney interpolation reproduces constant-coefficient forms, so the
    mass quadratic form must return volume times the squared norm exactly."""
    K = mesh.generate(spec)
    vol = K.top_volumes().sum()
    rng = np.random.default_rng(5)
    for p in range(1, K.dim + 1):
        coeffs = {}
        nsq = 0.0
        for idx in itertools.combinations(range(K.dim), p):
            c = rng.normal()
            nsq += c * c
            coeffs[idx] = (lambda c=c: lambda pts: c * np.ones(len(pts)))()
        xi = forms.FormField(K.dim, p, coeffs)
        x = feec.interpolate(K, xi, p)
        M = feec.mass_matrix(K, p)
        assert np.isclose(x @ (M @ x), vol * nsq, rtol=1e-12, atol=1e-12)


def test_partition_of_unity():
    K = mesh.generate(mesh.disk(3))
    M0 = feec.mass_matrix(K, 0)
    ones = np.ones(K.n_simplices(0))
    assert np.isclose(ones @ (M0 @ ones), K.top_volumes().sum())


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label())
def test_trace_commutes_with_coboundary(spec):
    K = mesh.generate(spec)
    bc = K.boundary_complex()
    for p in range(K.dim - 1):
        lhs = feec.tangential_trace(K, p + 1) @ mesh.coboundary(K, p)
        rhs = mesh.coboundary(bc, p) @ feec.tangential_trace(K, p)
        assert abs(lhs - rhs).max() == 0


@pytest.mark.parametrize("spec", [mesh.disk(1), mesh.ball(0)], ids=str)
def test_stiffness_is_zero_at_top_degree(spec):
    K = mesh.generate(spec)
    S = feec.stiffness(K, K.dim)
    n = K.n_simplices(K.dim)
    assert S.shape == (n, n) and S.nnz == 0
    # one degree down it is the positive semidefinite d-energy
    S = feec.stiffness(K, K.dim - 1)
    assert S.shape == (K.n_simplices(K.dim - 1),) * 2 and S.nnz > 0
    assert abs(S - S.T).max() < 1e-12


STIFFNESS_SPECS = ([s.with_level(l) for s in FAMILIES for l in (0, 1)]
                   + [mesh.disk(2), mesh.box(1, 1, 1, 2)])


@pytest.mark.parametrize("spec", STIFFNESS_SPECS, ids=_level_id)
def test_stiffness_matches_product_oracle(spec):
    """The element-by-element stiffness equals D_q^T M_{q+1} D_q formed
    from the global coboundary and mass, and is symmetric; so does the P1
    stiffness of the embedded boundary complex, built from tangential
    gradients."""
    K = mesh.generate(spec)
    bc = K.boundary_complex()
    for C, q in [(K, q) for q in range(K.dim)] + [(bc, 0)]:
        S = feec.stiffness(C, q)
        D = mesh.coboundary(C, q).astype(float)
        oracle = D.T @ feec.mass_matrix(C, q + 1) @ D
        scale = abs(oracle).max()
        assert S.shape == oracle.shape and scale > 0
        assert abs(S - oracle).max() <= 1e-14 * scale
        assert abs(S - S.T).max() <= 1e-14 * scale


def test_p1_stiffness_builds_without_whitney_products(monkeypatch):
    """The P1 stiffness takes the gradient kernel on the volume and the
    boundary complex, never the Whitney edge products, and is symmetric
    entry for entry."""
    def refuse(*args, **kwargs):
        raise AssertionError("the P1 stiffness must not form Whitney products")

    for spec in (mesh.disk(1), mesh.ball(1)):
        K = mesh.generate(spec)
        complexes = (K, K.boundary_complex())
        expected = [feec.stiffness(C, 0) for C in complexes]
        with monkeypatch.context() as m:
            m.setattr(feec, "_local_products", refuse)
            for C, ref in zip(complexes, expected):
                S = feec.stiffness(C, 0)
                assert S.nnz > 0 and (S != ref).nnz == 0
                assert (S != S.T).nnz == 0


@pytest.mark.parametrize("spec", [mesh.disk(2), mesh.ball(2)], ids=str)
def test_scalar_path_takes_no_lapack_on_the_volume(spec, monkeypatch):
    """The mesh, the P1 stiffness, the top volumes and the exit time take
    the geometry of the volume's tops from the closed-form cofactor
    kernel: they run with np.linalg.inv refused and np.linalg.det refused
    on d x d stacks.  The boundary P1 mass of the exit-time flux keeps
    its Gram determinants, which are (d-1) x (d-1)."""
    det = np.linalg.det

    def refuse(a):
        raise AssertionError("LAPACK on the tops of the volume")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "det", lambda a: (
        refuse(a) if np.shape(a)[-1] == spec.dim else det(a)))
    K = mesh.generate(spec)
    assert feec.stiffness(K, 0).nnz > 0
    assert K.top_volumes().min() > 0
    assert scalar.mean_exit_time(K).E.max() > 0


def test_stiffness_builds_without_global_mass_or_coboundary(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("stiffness must not form a global matrix")

    for spec in (mesh.disk(1), mesh.ball(1)):
        K = mesh.generate(spec)
        expected = [feec.stiffness(K, q) for q in range(K.dim + 1)]
        with monkeypatch.context() as m:
            m.setattr(feec, "mass_matrix", refuse)
            m.setattr(mesh, "coboundary", refuse)
            for q in range(K.dim + 1):
                assert (feec.stiffness(K, q) != expected[q]).nnz == 0


@pytest.mark.parametrize("spec", [s.with_level(l) for s in FAMILIES
                                  for l in (0, 1, 2)], ids=_level_id)
def test_mass_matrix_equals_one_pass_assembly(spec):
    """The sparse product P^T (L P) sums every mass entry as the
    top-order oracle does, bit for bit, on the volume complex and on the
    boundary complex, at every degree."""
    K = mesh.generate(spec)
    for C in (K, K.boundary_complex()):
        for p in range(C.dim + 1):
            M, oracle = feec.mass_matrix(C, p), mass_oracle.mass_matrix(C, p)
            assert M.shape == oracle.shape and (M != oracle).nnz == 0


@pytest.mark.parametrize("spec", [s.with_level(l) for s in FAMILIES
                                  for l in (0, 1, 2)], ids=_level_id)
def test_stiffness_and_normal_trace_equal_one_pass_assembly(spec):
    """The chunked product P^T (L P) gives the one-pass top-order sum
    array for array: the stiffness on the volume and the boundary
    complex, and the normal-trace form, whose top list repeats a top
    with two boundary faces."""
    K = mesh.generate(spec)
    for C in (K, K.boundary_complex()):
        for q in range(C.dim):
            assert _csr_identical(feec.stiffness(C, q),
                                  mass_oracle.stiffness(C, q))
    for q in range(1, K.dim + 1):
        assert _csr_identical(feec.normal_trace_form(K, q),
                              mass_oracle.normal_trace_form(K, q))


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_p1_stiffness_peak_stays_below_edge_mass_peak():
    """On the ball at level 4 (32,768 tets) building the P1 stiffness
    takes less memory than building the edge mass, so it cannot go
    through that mass."""
    K = mesh.generate(mesh.ball(4))
    stiffness = _traced_peak(lambda: feec.stiffness(K, 0))
    edge_mass = _traced_peak(lambda: feec.mass_matrix(K, 1))
    assert stiffness < edge_mass


def test_scatter_peak_per_unsummed_entry(monkeypatch):
    """On the ball at level 4 with chunks of 2048 tops, the edge mass and
    the P1 stiffness each peak below 24 B per unsummed entry nt * nl**2:
    21.4 and 19.1 B with L P (8 B of values and 4 B of column per entry),
    the signed incidence P^T and the summed product alive at once (28.8
    and 31.0 B when the element matrices of every top, COO rows and
    columns and unsummed CSR arrays were)."""
    monkeypatch.setattr(feec, "_CHUNK", 2048)
    K = mesh.generate(mesh.ball(4))
    nt = len(K.tops)
    assert _traced_peak(lambda: feec.mass_matrix(K, 1)) < 24 * nt * 6 ** 2
    assert _traced_peak(lambda: feec.stiffness(K, 0)) < 24 * nt * 4 ** 2


def test_assembled_p1_matrices_keep_only_their_summed_arrays():
    """The product P^T (L P) allocates its arrays at the size of the
    pattern of the sum and keeps them when the entries that sum to exactly
    0 leave them at least half full (1.005-1.019x the summed arrays' own
    bytes alive here), so L P and P^T are freed; the normal-trace form
    copies its difference out of the arrays that subtraction leaves as
    views (1.21x)."""
    K = mesh.generate(mesh.ball(4))
    K.boundary_complex()      # built once, kept by K, not by any matrix
    for build in (lambda: feec.mass_matrix(K, 0), lambda: feec.stiffness(K, 0),
                  lambda: feec.mass_matrix(K, 1), lambda: feec.stiffness(K, 1),
                  lambda: feec.mass_matrix(K, 2),
                  lambda: feec.normal_trace_form(K, 1)):
        tracemalloc.start()
        try:
            A = build()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert kept < 1.1 * (A.data.nbytes + A.indices.nbytes + A.indptr.nbytes)


def _csr_identical(A, B):
    A, B = A.tocsr(), B.tocsr()
    return (A.shape == B.shape and np.array_equal(A.data, B.data)
            and np.array_equal(A.indices, B.indices)
            and np.array_equal(A.indptr, B.indptr))


def _element_matrices(K):
    out = [feec.normal_trace_form(K, q) for q in range(1, K.dim + 1)]
    for C in (K, K.boundary_complex()):
        for p in range(C.dim + 1):
            out += [feec.mass_matrix(C, p), feec.stiffness(C, p)]
    return out


@pytest.mark.parametrize("spec", [mesh.ball(3), mesh.box(1, 1, 1, 3)], ids=_level_id)
def test_3d_matrices_are_exactly_symmetric(spec):
    """Every element matrix is symmetric bit for bit and every entry sums
    its tops in top order, in row i and in row j alike, so the P1 and
    Whitney masses and stiffnesses of the volume and of its boundary, and
    the normal-trace forms, equal their transposes entry for entry (the
    P1 stiffness had 2866 and 638 asymmetric entries here when each row
    was summed in the order of an unstable sort)."""
    for A in _element_matrices(mesh.generate(spec)):
        assert (A != A.T).nnz == 0


@pytest.mark.parametrize("spec", [s.with_level(l) for s in FAMILIES
                                  for l in (0, 1)], ids=_level_id)
def test_assembly_is_independent_of_the_chunk_size(spec, monkeypatch):
    """Chunks of 7 tops leave a ragged last chunk, and every matrix, every
    per-top mean of the mean-value quadrature and the gap keep their
    bits."""
    K = mesh.generate(spec)
    family = [f for _, f, _ in forms.harmonic_polynomials(K.dim)]
    complexes = (K, K.boundary_complex())
    expected = _element_matrices(K)
    means = [scalar._top_means(C, family) for C in complexes]
    gap = scalar.mean_value_gap(K)
    monkeypatch.setattr(feec, "_CHUNK", 7)
    for A, B in zip(_element_matrices(K), expected, strict=True):
        assert _csr_identical(A, B)
    for C, ref in zip(complexes, means):
        assert np.array_equal(scalar._top_means(C, family), ref)
    assert scalar.mean_value_gap(K) == gap


@pytest.mark.parametrize("spec", [mesh.disk(1), mesh.ball(1)], ids=str)
def test_degenerate_top_in_last_chunk_raises(spec, monkeypatch):
    K = mesh.generate(spec)
    d, nv = K.dim, len(K.vertices)
    # a valid complex with one extra top, whose vertices then move onto a line
    extra = np.vstack([np.zeros(d), np.eye(d)]) + 5.0
    bad = mesh.SimplicialComplex(
        d, np.vstack([K.vertices, extra]),
        np.vstack([K.tops, nv + np.arange(d + 1)]))
    bad.vertices[nv:] = 0.0
    bad.vertices[nv:, 0] = 5.0 + np.arange(d + 1)
    monkeypatch.setattr(feec, "_CHUNK", 7)
    assert len(bad.tops) > 7
    for p in range(d + 1):
        with pytest.raises(DegenerateSimplexError):
            feec.mass_matrix(bad, p)
    for q in range(d):
        with pytest.raises(DegenerateSimplexError):
            feec.stiffness(bad, q)


def test_trace_p0_selects_with_positive_sign():
    K = mesh.generate(mesh.disk(1))
    T = feec.tangential_trace(K, 0).toarray()
    assert set(np.unique(T)) <= {0.0, 1.0}
    assert (T.sum(axis=1) == 1).all()


def test_boundary_mass_totals():
    K = mesh.generate(mesh.disk(3))
    bc = K.boundary_complex()
    MS0 = feec.mass_matrix(bc, 0)
    ones = np.ones(bc.n_simplices(0))
    assert np.isclose(ones @ (MS0 @ ones), bc.top_volumes().sum())
    # circulant structure on the circle: each row has 3 nonzeros
    assert (np.diff(MS0.tocsr().indptr) == 3).all()


def polygon_normal_oracle(bc, component=0):
    """Exact integral of (N . e_x)^2 over the straight boundary faces."""
    ev = bc.vertices[bc.tops]
    if bc.dim == 1:
        t = ev[:, 1] - ev[:, 0]
        L = np.linalg.norm(t, axis=1)
        nrm = np.column_stack([t[:, 1], -t[:, 0]]) / L[:, None]
        return (L * nrm[:, component] ** 2).sum()
    cr = np.cross(ev[:, 1] - ev[:, 0], ev[:, 2] - ev[:, 0])
    A2 = np.linalg.norm(cr, axis=1)
    nrm = cr / A2[:, None]
    return (0.5 * A2 * nrm[:, component] ** 2).sum()


@pytest.mark.parametrize("lvl", [2, 3, 4])
def test_normal_trace_parallel_form_disk(lvl):
    K = mesh.generate(mesh.disk(lvl))
    xi = forms.parallel_form(2, (0,))
    x = feec.interpolate(K, xi, 1)
    N1 = feec.normal_trace_form(K, 1)
    got = x @ (N1 @ x)
    assert np.isclose(got, polygon_normal_oracle(K.boundary_complex()),
                      rtol=1e-12)
    # converges to the smooth value pi
    assert abs(got - np.pi) < 20.0 * 4.0 ** (-lvl)


def test_normal_plus_tangential_decomposition():
    K = mesh.generate(mesh.ball(1))
    bc = K.boundary_complex()
    for p, idx in ((1, (0,)), (2, (0, 1))):
        xi = forms.parallel_form(3, idx)
        x = feec.interpolate(K, xi, p)
        nor = x @ (feec.normal_trace_form(K, p) @ x)
        Tr = feec.tangential_trace(K, p)
        tan = (Tr @ x) @ (feec.mass_matrix(bc, p) @ (Tr @ x))
        assert np.isclose(nor + tan, bc.top_volumes().sum(), rtol=1e-10)


def test_normal_trace_interior_support():
    K = mesh.generate(mesh.ball(1))
    N1 = feec.normal_trace_form(K, 1).tocsr()
    # edges of tetrahedra away from the boundary produce zero rows/energy
    boundary_touching = set()
    bfaces = set(K.boundary_faces.tolist())
    fot = K.faces_of_top[K.dim - 1]
    for t in range(K.n_simplices(K.dim)):
        if any(f in bfaces for f in fot[t]):
            boundary_touching.update(K.faces_of_top[1][t].tolist())
    for e in range(K.n_simplices(1)):
        if e not in boundary_touching:
            x = np.zeros(K.n_simplices(1))
            x[e] = 1.0
            assert x @ (N1 @ x) == 0.0


FAMILY_SPECS = [mesh.disk(), mesh.ellipse(1, 0.7), mesh.annulus(0.5, 1),
                mesh.ball(), mesh.ellipsoid(1, 0.8, 0.7), mesh.shell(0.5, 1),
                mesh.box(1, 1, 1)]


@pytest.mark.parametrize(
    "spec", [s.with_level(l) for s in FAMILY_SPECS for l in (0, 1)],
    ids=lambda s: f"{s.label()}-{s.level}")
def test_normal_trace_form_matches_sampled_oracle(spec):
    """The exact volume-minus-tangential form equals the energy of the
    Whitney form sampled on (normal, tangent frame) at a face rule."""
    K = mesh.generate(spec)
    for q in range(1, K.dim + 1):
        N = feec.normal_trace_form(K, q)
        scale = abs(N).max()
        assert abs(N - normal_trace_oracle.normal_trace_form(K, q)).max() \
            <= 1e-12 * scale
        assert abs(N - N.T).max() <= 1e-14 * scale
        assert np.linalg.eigvalsh(N.toarray()).min() >= -1e-13 * scale


def test_normal_trace_form_degree_range():
    K = mesh.generate(mesh.ball(0))
    for q in (0, K.dim + 1):
        with pytest.raises(ValueError):
            feec.normal_trace_form(K, q)


def test_integrate_analytic_disk_values():
    spec = mesh.disk(0)
    xi = forms.parallel_form(2, (0,))
    assert np.isclose(feec.integrate_analytic(spec, xi, "vol_norm"), np.pi,
                      rtol=1e-8)
    assert np.isclose(feec.integrate_analytic(spec, xi, "nor_norm"), np.pi,
                      rtol=1e-8)
    assert np.isclose(feec.integrate_analytic(spec, xi, "tan_norm"), np.pi,
                      rtol=1e-8)
    # xi = d(x^2 - y^2): squared volume norm is 2 pi on the unit disk
    _, f, grads = forms.harmonic_polynomials(2)[2]
    df = forms.gradient_field(2, grads)
    assert np.isclose(feec.integrate_analytic(spec, df, "vol_norm"), 2 * np.pi,
                      rtol=1e-8)


def test_integrate_analytic_parallel_matches_iso():
    from formsteklov import geometry
    for spec in (mesh.ellipse(1, 0.7, 0), mesh.ball(0), mesh.box(1, 1, 1, 0)):
        xi = forms.parallel_form(spec.dim, tuple(range(spec.dim)))
        g = geometry.analytic_geometry(spec)
        vol = feec.integrate_analytic(spec, xi, "vol_norm")
        nor = feec.integrate_analytic(spec, xi, "nor_norm")
        tan = feec.integrate_analytic(spec, xi, "tan_norm")
        assert np.isclose(vol, g.vol_omega, rtol=1e-7)
        assert np.isclose(nor + tan, g.vol_sigma, rtol=1e-7)
        # the volume form is fully normal on the boundary
        assert abs(tan) < 1e-7 * g.vol_sigma


def test_whitney_interpolation_converges_quadratically():
    # energy of the interpolated field approaches the analytic one at
    # order >= 2 for constant-coefficient forms (exact) and smoothly
    # varying fields
    errs = []
    _, f, grads = forms.harmonic_polynomials(2)[2]
    df = forms.gradient_field(2, grads)
    exact = 2 * np.pi
    for lvl in (2, 3, 4):
        K = mesh.generate(mesh.disk(lvl))
        x = feec.interpolate(K, df, 1)
        M = feec.mass_matrix(K, 1)
        errs.append(abs(x @ (M @ x) - exact))
    order = np.log2(errs[0] / errs[1]), np.log2(errs[1] / errs[2])
    assert min(order) > 1.7
