import os
import subprocess
import sys
import tracemalloc

import biharmonic_oracle
import exit_time_oracle
import numpy as np
import pytest

from formsteklov import cli, feec, mesh, scalar
from formsteklov.errors import SingularSystemError


def test_exit_time_disk():
    K = mesh.generate(mesh.disk(3))
    r = scalar.mean_exit_time(K)
    # E = (1 - r^2)/4 on the disk
    assert abs(r.E[0] - 0.25) < 2e-3
    assert abs(r.mean_flux - 0.5) < 2e-3
    assert r.defect < 0.05
    # interior positivity (discrete maximum principle on these meshes)
    interior = np.setdiff1d(np.arange(K.n_simplices(0)),
                            K.boundary_simplices[0])
    assert r.E[interior].min() > 0


def test_exit_time_ball():
    K = mesh.generate(mesh.ball(2))
    r = scalar.mean_exit_time(K)
    assert abs(r.E[0] - 1.0 / 6.0) < 0.02
    assert abs(r.mean_flux - 1.0 / 3.0) < 0.02


@pytest.mark.parametrize("spec", [mesh.disk(2), mesh.ball(1),
                                  mesh.ellipse(1, 0.7, 2),
                                  mesh.annulus(0.5, 1, 1)], ids=str)
def test_flux_mean_is_exact_volume_ratio(spec):
    K = mesh.generate(spec)
    r = scalar.mean_exit_time(K)
    assert abs(r.mean_flux - r.vol_ratio) < 1e-10


@pytest.mark.parametrize("spec", [
    *(mesh.disk(l) for l in (3, 4, 5)), *(mesh.ball(l) for l in (2, 3, 4)),
    *(mesh.box(1, 1, 1, l) for l in (2, 3)),
    *(mesh.shell(0.5, 1, l) for l in (0, 1, 2)),
    *(mesh.ellipsoid(1, 0.8, 0.7, l) for l in (1, 2, 3))], ids=str)
def test_exit_time_cg_matches_direct_oracle(spec):
    K = mesh.generate(spec)
    E = scalar.mean_exit_time(K).E
    ref = exit_time_oracle.exit_time(K)
    assert np.abs(E - ref).max() <= 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("spec", [s.with_level(l) for s in (
    mesh.disk(0), mesh.ellipse(1, 0.7, 0), mesh.annulus(0.5, 1, 0),
    mesh.ball(0), mesh.ellipsoid(1, 0.8, 0.6, 0), mesh.shell(0.5, 1, 0),
    mesh.box(1, 1, 1, 0)) for l in (0, 1, 2)],
    ids=lambda s: f"{s.label()}-{s.level}")
def test_exit_time_load_is_the_p1_mass_of_one(spec):
    """The volume shares of the tops equal the assembled P1 mass applied
    to the constant 1, vertex by vertex."""
    K = mesh.generate(spec)
    load = scalar._volume_shares(K, K.top_volumes())
    ref = feec.mass_matrix(K, 0) @ np.ones(K.n_simplices(0))
    assert np.abs(load - ref).max() <= 1e-14 * np.abs(ref).max()


def test_exit_time_builds_no_p1_mass(monkeypatch):
    """The exit time takes its load from the top volumes: it still runs
    when the P1 mass of the volume complex cannot be built.  Only the
    boundary mass, for the flux, is assembled."""
    mass_matrix = feec.mass_matrix
    for spec in (mesh.disk(2), mesh.ball(1)):
        K = mesh.generate(spec)
        expected = scalar.mean_exit_time(K)

        def refuse(C, p):
            if C is K and p == 0:
                raise AssertionError("the exit time must not build the P1 mass")
            return mass_matrix(C, p)

        with monkeypatch.context() as m:
            m.setattr(feec, "mass_matrix", refuse)
            r = scalar.mean_exit_time(K)
        assert np.array_equal(r.E, expected.E)
        assert np.array_equal(r.flux, expected.flux)


def test_exit_time_counts_cg_iterations():
    K = mesh.generate(mesh.disk(3))
    counts = [scalar.mean_exit_time(K).cg_iterations for _ in range(2)]
    assert counts[0] > 0 and counts[0] == counts[1]


def test_exit_time_cg_failure_is_a_singular_system(monkeypatch, tmp_path,
                                                   capsys):
    operators = scalar._scalar_operators

    def zero_stiffness(K):
        # the Jacobi step divides by a zero diagonal, so every residual
        # from the first step on is NaN and CG runs into its cap
        stiff, bv, interior = operators(K)
        return 0 * stiff, bv, interior

    monkeypatch.setattr(scalar, "_scalar_operators", zero_stiffness)
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            SingularSystemError,
            match=r"after 20000 iterations \(\d+ interior vertices\)"):
        scalar.mean_exit_time(mesh.generate(mesh.disk(2)))
    monkeypatch.chdir(tmp_path)
    with np.errstate(divide="ignore", invalid="ignore"):
        rc = cli.main(["verify", "--domain", "disk", "--checks", "CHK-MV"])
    assert rc == 3
    assert "exit-time CG" in capsys.readouterr().err


def test_exit_time_is_independent_of_blas_threads():
    """Ball level 5 is the smallest ball whose exit time came out
    differently under one and two OpenBLAS threads while CG took BLAS dot
    products."""
    code = ("import hashlib; from formsteklov import mesh, scalar; "
            "r = scalar.mean_exit_time(mesh.generate(mesh.ball(5))); "
            "print(hashlib.sha256(r.E.tobytes() + r.flux.tobytes())"
            ".hexdigest(), r.cg_iterations)")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        out.append(subprocess.run([sys.executable, "-c", code], env=env,
                                  capture_output=True, text=True,
                                  check=True).stdout)
    assert out[0] == out[1] != ""


def test_ellipse_defect_bounded_below():
    # the analytic exit time of the ellipse has non-constant flux
    for lvl in (2, 3, 4):
        K = mesh.generate(mesh.ellipse(1, 0.7, lvl))
        assert scalar.mean_exit_time(K).defect > 0.01


def test_ellipse_flux_range_matches_analytic():
    # flux of E = c (1 - x^2/a^2 - y^2/b^2) spans [2c/a, 2c/b]
    a, b = 1.0, 0.7
    c = a ** 2 * b ** 2 / (2 * (a ** 2 + b ** 2))
    K = mesh.generate(mesh.ellipse(a, b, 4))
    r = scalar.mean_exit_time(K)
    assert abs(r.flux.min() - 2 * c / a) < 0.02
    assert abs(r.flux.max() - 2 * c / b) < 0.02


def test_mean_value_gap_disk_vs_ellipse():
    Kd = mesh.generate(mesh.disk(3))
    Ke = mesh.generate(mesh.ellipse(1, 0.7, 3))
    assert scalar.mean_value_gap(Kd) < 1e-3
    assert scalar.mean_value_gap(Ke) > 0.01


def test_mean_value_gap_ellipse_quadratic():
    # avg over the ellipse of x^2 - y^2 is (a^2 - b^2)/4; the boundary
    # average differs, so the gap stays bounded away from zero
    K = mesh.generate(mesh.ellipse(1, 0.7, 3))
    means = scalar._top_means(K, [lambda pts: pts[:, 0] ** 2 - pts[:, 1] ** 2])
    vols = K.top_volumes()
    va = means[0] @ vols / vols.sum()
    assert abs(va - (1 - 0.49) / 4) < 2e-3


def test_mean_value_gap_peak_stays_below_its_quadrature_table(monkeypatch):
    """Over sixteen chunks of tops the traced peak of the gap stays below
    the bytes of the degree-5 points of every tet (nt * 15 * 3 * 8),
    which the gap used to hold at once."""
    monkeypatch.setattr(feec, "_CHUNK", 2048)
    K = mesh.generate(mesh.ball(4))
    K.boundary_complex()
    table = len(K.tops) * 15 * 3 * 8
    assert len(K.tops) == 16 * feec._CHUNK
    tracemalloc.start()
    try:
        scalar.mean_value_gap(K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table


def _mean_value_gap_per_polynomial(K):
    """Reference: the quadrature points are rebuilt for every polynomial."""
    from formsteklov.forms import harmonic_polynomials
    from formsteklov.quadrature import simplex_rule

    def average(C, f):
        pts_ref, w_ref = simplex_rule(C.dim, 5)
        v = C.vertices[C.tops]
        pts = np.einsum("qk,nkm->nqm", pts_ref[:, 1:],
                        v[:, 1:, :] - v[:, :1, :]) + v[:, :1, :]
        vols = C.top_volumes()
        vals = f(pts.reshape(-1, C.vertices.shape[1])).reshape(len(vols), -1)
        means = np.zeros(len(vols))
        for q, w in enumerate(w_ref):
            means += w * vals[:, q]
        return float((means * vols).sum() / vols.sum()), np.abs(vals).max()

    bc = K.boundary_complex()
    worst = 0.0
    for _, f, _ in harmonic_polynomials(K.dim):
        (va, _), (ba, peak) = average(K, f), average(bc, f)
        scale = max(float(np.abs(f(bc.vertices)).max()), peak)
        worst = max(worst, abs(va - ba) / max(scale, 1e-300))
    return worst


@pytest.mark.parametrize("spec", [mesh.disk(3), mesh.ellipse(1, 0.7, 3),
                                  mesh.ball(2)], ids=str)
def test_mean_value_gap_matches_per_polynomial_reference(spec):
    K = mesh.generate(spec)
    assert scalar.mean_value_gap(K) == _mean_value_gap_per_polynomial(K)


@pytest.mark.parametrize("spec", [mesh.ball(0), mesh.ball(1),
                                  mesh.ellipsoid(1, 0.8, 0.6, 0),
                                  mesh.shell(0.5, 1, 0)], ids=str)
def test_mean_value_gap_of_coarse_mesh_stays_relative(spec):
    """On these meshes a harmonic polynomial vanishes at every boundary
    vertex; scaled by its largest value at the boundary quadrature points
    its gap stays a relative gap (it was rounding noise times 1e300)."""
    assert 0.0 <= scalar.mean_value_gap(mesh.generate(spec)) < 0.1


def test_mean_value_gap_is_independent_of_blas_threads():
    """Ball level 4 has 32,768 tets, enough for OpenBLAS to split a dot
    product over two threads and round it differently."""
    code = ("from formsteklov import mesh, scalar; print(repr("
            "scalar.mean_value_gap(mesh.generate(mesh.ball(4)))))")
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    gaps = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        gaps.append(subprocess.run([sys.executable, "-c", code], env=env,
                                   capture_output=True, text=True,
                                   check=True).stdout)
    assert gaps[0] == gaps[1] != ""


def test_biharmonic_disk_and_ball():
    K = mesh.generate(mesh.disk(3))
    mu = scalar.biharmonic_spectrum(K, 2)
    assert abs(mu[0] - 2.0) < 0.02
    B = mesh.generate(mesh.ball(2))
    mu = scalar.biharmonic_spectrum(B, 1)
    assert abs(mu[0] - 3.0) < 0.12


def test_biharmonic_upper_bound_constant_data():
    # the constant trial datum gives mu_1 <= area/volume on any domain
    for spec in (mesh.disk(2), mesh.ellipse(1, 0.7, 2), mesh.ball(1)):
        K = mesh.generate(spec)
        mu = scalar.biharmonic_spectrum(K, 1)[0]
        vol = K.top_volumes().sum()
        area = K.boundary_complex().top_volumes().sum()
        assert mu <= area / vol + 1e-8


def test_biharmonic_gram_psd():
    K = mesh.generate(mesh.disk(2))
    R, MS = biharmonic_oracle.harmonic_extension_gram(K)
    assert np.abs(R - R.T).max() <= 1e-10 * np.abs(R).max()
    w = np.linalg.eigvalsh(R)
    assert w.min() > -1e-10 * w.max()
    # constant boundary data: <R 1, 1> equals the mesh volume exactly
    ones = np.ones(R.shape[0])
    assert np.isclose(ones @ (R @ ones), K.top_volumes().sum(), rtol=1e-10)


def test_biharmonic_source_form_oracle():
    """The direct source-form discretization of the fourth-order quotient
    agrees with the harmonic-extension route (they coincide through the
    discrete Green identity, which pins the implementation)."""
    K = mesh.generate(mesh.disk(2))
    mu_gram = scalar.biharmonic_spectrum(K, 3)
    mu_oracle = biharmonic_oracle.biharmonic_mu1_mixed_oracle(K, 3)
    assert np.allclose(mu_gram, mu_oracle, rtol=1e-9)


_FAMILIES = [
    (mesh.disk, (), (2, 3)),
    (mesh.ellipse, (1, 0.7), (2, 3)),
    (mesh.annulus, (0.5, 1), (2, 3)),
    (mesh.ball, (), (1, 2)),
    (mesh.ellipsoid, (1, 0.8, 0.6), (1, 2)),
    (mesh.shell, (0.5, 1), (0, 1)),
    (mesh.box, (1, 0.8, 0.6), (1, 2)),
]


@pytest.mark.parametrize("spec", [make(*params, level)
                                  for make, params, levels in _FAMILIES
                                  for level in levels], ids=str)
def test_biharmonic_lanczos_matches_dense_oracle(spec):
    K = mesh.generate(spec)
    for k in (1, 3):
        mu = scalar.biharmonic_spectrum(K, k)
        ref = biharmonic_oracle.biharmonic_spectrum(K, k)
        assert len(mu) == k
        assert np.allclose(mu, ref, rtol=1e-10, atol=0)


def test_biharmonic_small_boundary_is_solved_densely():
    """Ball level 0 has nb = 6 boundary vertices, too few for a Lanczos
    basis of 8 vectors: all 6 values come back."""
    K = mesh.generate(mesh.ball(0))
    mu = scalar.biharmonic_spectrum(K, 8)
    ref = biharmonic_oracle.biharmonic_spectrum(K, 8)
    assert len(mu) == len(ref) == 6
    assert np.allclose(mu, ref, rtol=1e-10, atol=0)


def test_box_level4_biharmonic_needs_few_stiffness_solves(monkeypatch):
    """Box level 4 has nb = 1538; building the harmonic extension took one
    stiffness solve per boundary vertex, Lanczos takes a few dozen."""
    K = mesh.generate(mesh.box(1, 1, 1, 4))
    nb = len(K.boundary_simplices[0])
    n_interior = K.n_simplices(0) - nb
    solves = []
    true_lu = scalar.symmetric_lu

    class Counting:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, rhs):
            if self.lu.shape[0] == n_interior:
                solves.append(1 if rhs.ndim == 1 else rhs.shape[1])
            return self.lu.solve(rhs)

    monkeypatch.setattr(scalar, "symmetric_lu",
                        lambda S: Counting(true_lu(S)))
    mu = scalar.biharmonic_spectrum(K, 1)
    assert nb == 1538
    assert 0 < sum(solves) <= 80
    assert abs(mu[0] - 4.49) < 0.01
