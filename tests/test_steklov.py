import numpy as np
import pytest

from formsteklov import feec, mesh, steklov
from formsteklov.errors import AmbiguousKernelError


def disk_steklov_oracle(count):
    """Separation of variables on the unit disk: eigenvalues k with
    multiplicity two for k >= 1, plus the constant mode."""
    vals = [0.0]
    k = 1
    while len(vals) < count:
        vals += [float(k), float(k)]
        k += 1
    return np.array(vals[:count])


def test_disk_classical_spectrum_converges():
    oracle = disk_steklov_oracle(7)
    errs = []
    for lvl in (2, 3, 4):
        K = mesh.generate(mesh.disk(lvl))
        r = steklov.solve_primal(K, 0, k=7, level=lvl)
        errs.append(np.abs(r.eigenvalues - oracle).max())
        assert r.kernel_dim == 1
        assert r.residuals.max() < 1e-8
    assert errs[-1] < 0.02
    assert errs[0] / errs[1] > 3.0 and errs[1] / errs[2] > 3.0


def test_p0_reduces_to_scalar_stiffness():
    K = mesh.generate(mesh.disk(1))
    asm = steklov.assemble_primal(K, 0)
    assert asm.M_sigma is None and asm.C is None
    D0 = mesh.coboundary(K, 0).astype(float)
    M1 = feec.mass_matrix(K, 1)
    assert abs(asm.K_stiff - D0.T @ M1 @ D0).max() < 1e-14


def test_assembly_bookkeeping_disk_p1():
    K = mesh.generate(mesh.disk(1))
    asm = steklov.assemble_primal(K, 1)
    assert asm.K_stiff.shape[0] == K.n_simplices(1)
    assert asm.M_sigma.shape[0] == K.n_simplices(0)
    # exact closed cochains have zero d-energy
    rng = np.random.default_rng(0)
    y = rng.normal(size=K.n_simplices(0))
    x = mesh.coboundary(K, 0).astype(float) @ y
    assert abs(x @ (asm.K_stiff @ x)) < 1e-12


def test_dtn_symmetry_and_psd():
    for spec, p in ((mesh.disk(2), 1), (mesh.ball(1), 2)):
        K = mesh.generate(spec)
        asm = steklov.assemble_primal(K, p)
        lam, B = steklov.dtn_matrix(asm)
        scale = np.abs(lam).max()
        assert np.abs(lam - lam.T).max() <= 1e-10 * scale
        r = steklov.spectrum(lam, B, 5, degree=p)
        assert r.eigenvalues[0] > -1e-8 * max(1.0, r.eigenvalues[-1])


def test_constants_in_p0_kernel():
    K = mesh.generate(mesh.annulus(0.5, 1, 1))
    r = steklov.solve_primal(K, 0, k=4)
    assert abs(r.eigenvalues[0]) < 1e-10
    assert r.kernel_dim == 1
    v = r.eigencochains[:, 0]
    assert np.abs(v - v.mean()).max() < 1e-6 * np.abs(v.mean())


@pytest.mark.parametrize("spec,p,expected", [
    (mesh.disk(2), 1, 0),
    (mesh.annulus(0.5, 1, 2), 1, 1),
    (mesh.ball(1), 1, 0),
    (mesh.ball(1), 2, 0),
    (mesh.shell(0.5, 1, 1), 2, 1),
], ids=str)
def test_kernel_dimension_matches_betti(spec, p, expected):
    K = mesh.generate(spec)
    r = steklov.solve_primal(K, p, k=expected + 4)
    assert steklov.kernel_dimension(r) == expected
    assert r.gap_ratio >= 100.0


def test_kernel_ambiguity_flagged():
    r = steklov.SpectrumResult(
        degree=0, dual=False, eigenvalues=np.array([1e-11, 5e-10, 1.0]),
        eigencochains=None, kernel_dim=2, gap_ratio=1.0,
        residuals=np.zeros(3))
    with pytest.raises(AmbiguousKernelError):
        steklov.kernel_dimension(r, threshold=1e-10)


def test_scaling_law_radius():
    """Eigenvalues of the scaled domain scale like one over the radius."""
    K = mesh.generate(mesh.disk(3))
    base = steklov.solve_primal(K, 0, k=5).eigenvalues
    for R in (2.0, 0.5):
        KR = mesh.SimplicialComplex(2, K.vertices * R, K.tops)
        scaled = steklov.solve_primal(KR, 0, k=5).eigenvalues
        assert np.allclose(scaled, base / R, atol=1e-10)


def test_dual_disk_matches_top_degree():
    K = mesh.generate(mesh.disk(4))
    nu_d = steklov.dual_spectrum(K, 0, k=2).eigenvalues[0]
    nu_p = steklov.solve_primal(K, 1, k=2).eigenvalues[0]
    assert abs(nu_d - nu_p) / nu_p < 0.02
    assert abs(nu_d - 2.0) < 0.05


def test_dual_kernel_disk_p1():
    # dual at the top boundary degree pairs with the constants kernel
    K = mesh.generate(mesh.disk(3))
    r = steklov.dual_spectrum(K, 1, k=4)
    assert r.kernel_dim == 1
    assert abs(r.eigenvalues[1] - 1.0) < 0.01   # nu[2,0] of the disk


def test_dual_ball_values():
    K = mesh.generate(mesh.ball(2))
    r0 = steklov.dual_spectrum(K, 0, k=2)
    r1 = steklov.dual_spectrum(K, 1, k=2)
    assert abs(r0.eigenvalues[0] - 3.0) < 0.25
    assert abs(r1.eigenvalues[0] - 5.0 / 3.0) < 0.1


def test_spectrum_result_json():
    K = mesh.generate(mesh.disk(1))
    r = steklov.solve_primal(K, 0, k=3, level=1)
    d = r.to_json()
    assert d["degree"] == 0 and d["dual"] is False and d["level"] == 1
    assert len(d["eigenvalues"]) == 3 and len(d["residuals"]) == 3
    assert d["kernel_dim"] == 1
