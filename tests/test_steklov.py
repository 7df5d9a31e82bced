import numpy as np
import pytest
from scipy.sparse.linalg import LinearOperator

import dense_oracle
from formsteklov import cli, feec, linalg, mesh, steklov
from formsteklov.errors import SingularSystemError


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
    # no mixed variable at p = 0: the pencil lives on the vertices alone
    assert steklov.solve_primal(K, 0, k=4).n == K.n_simplices(0)
    D0 = mesh.coboundary(K, 0).astype(float)
    M1 = feec.mass_matrix(K, 1)
    assert abs(feec.stiffness(K, 0) - D0.T @ M1 @ D0).max() < 1e-14


def test_assembly_bookkeeping_disk_p1():
    K = mesh.generate(mesh.disk(1))
    K_stiff = feec.stiffness(K, 1)
    assert K_stiff.shape == (K.n_simplices(1),) * 2
    # the mixed variable sigma on the vertices comes first
    assert (steklov.solve_primal(K, 1, k=4).n
            == K.n_simplices(0) + K.n_simplices(1))
    # exact closed cochains have zero d-energy
    rng = np.random.default_rng(0)
    y = rng.normal(size=K.n_simplices(0))
    x = mesh.coboundary(K, 0).astype(float) @ y
    assert abs(x @ (K_stiff @ x)) < 1e-12


@pytest.mark.parametrize("solver", [steklov.solve_primal,
                                    steklov.dual_spectrum])
@pytest.mark.parametrize("p", [-1, 2])
def test_out_of_range_degree_is_rejected(solver, p):
    K = mesh.generate(mesh.disk(1))
    with pytest.raises(ValueError, match=f"boundary degree {p} out of range"):
        solver(K, p)


def test_dtn_symmetry_and_psd():
    for spec, p in ((mesh.disk(2), 1), (mesh.ball(1), 2)):
        K = mesh.generate(spec)
        lam, B = dense_oracle.dtn_matrix(K, p)
        vals, sym, _ = dense_oracle.spectrum(lam, B, 5)
        assert sym <= 1e-10
        assert vals[0] > -1e-8 * max(1.0, vals[-1])
        r = steklov.solve_primal(K, p, k=5)
        assert r.sym_defect <= 1e-10
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
    assert r.kernel_dim == expected
    assert r.gap_ratio >= 100.0


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
    assert d["n"] == K.n_simplices(0) and d["nb"] == 16
    assert d["fill"] > 0 and d["solves"] > 0
    assert d["delta"] == 0.0 and 0.0 <= d["solve_residual"] <= 1e-14
    assert d["pivots"] == 0
    r = steklov.dual_spectrum(K, 1, k=3, level=1)    # zero W block
    assert r.to_json()["delta"] == steklov._DELTA


# -- the boundary Lanczos path against the dense Schur reduction -----------

ORACLE_CASES = [
    spec.with_level(level)
    for spec, levels in ((mesh.disk(), (0, 2)),
                         (mesh.ellipse(1, 0.7), (0, 2)),
                         (mesh.annulus(0.5, 1), (0, 2)),
                         (mesh.ball(), (0, 1)),
                         (mesh.ellipsoid(1, 0.8, 0.7), (0, 1)),
                         (mesh.shell(0.5, 1), (0,)),
                         (mesh.box(1.03, 0.94, 1.07), (0, 1)))
    for level in levels]


def _assert_matches_oracle(K, p, dual, k=8):
    solver = steklov.dual_spectrum if dual else steklov.solve_primal
    r = solver(K, p, k=k)
    reduce = dense_oracle.dual_matrix if dual else dense_oracle.dtn_matrix
    lam, B = reduce(K, p)
    vals, _, kd = dense_oracle.spectrum(lam, B, k)
    tol = 1e-10 * max(1.0, abs(vals[-1]))
    assert np.abs(r.eigenvalues - vals).max() <= tol, (p, dual)
    assert r.kernel_dim == kd, (p, dual)
    assert r.nb == B.shape[0] and r.eigencochains.shape == (r.nb, len(vals))
    return r, lam, B


@pytest.mark.parametrize(
    "spec", ORACLE_CASES, ids=lambda s: f"{s.label()}-l{s.level}")
def test_sparse_spectrum_matches_dense_oracle(spec):
    K = mesh.generate(spec)
    for dual in (False, True):
        for p in range(K.dim):
            _assert_matches_oracle(K, p, dual)


def test_lanczos_runs_on_the_boundary_operator(monkeypatch):
    """Lanczos sees the nb x nb boundary operator with SciPy's default
    basis, and k >= nb - 1 takes the exact nb-solve path, which never
    calls Lanczos."""
    shapes = []
    true_eigsh = linalg.eigsh

    def record(op, k, **kwargs):
        assert "ncv" not in kwargs
        shapes.append(op.shape)
        return true_eigsh(op, k, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", record)
    K = mesh.generate(mesh.ball(0))            # nb = 6, 12, 8
    for p, exact in ((0, True), (1, False), (2, True)):
        shapes.clear()
        r, _, _ = _assert_matches_oracle(K, p, dual=False)
        assert shapes == ([] if exact else [(r.nb, r.nb)])
    K = mesh.generate(mesh.ball(1))            # nb = 18 for p = 0
    shapes.clear()
    r, _, _ = _assert_matches_oracle(K, 0, dual=True)
    assert r.nb == 18 and shapes == [(18, 18)]


def test_pivoted_factor_matches_dense_oracle():
    """On shell level 1 the unpivoted factors of primal p = 2 and dual
    p = 1 meet rounding-noise pivots; the threshold-pivoted factor trades
    them off the diagonal and needs no shift, and with refinement and
    Rayleigh quotients the eigenvalues match the dense oracle."""
    K = mesh.generate(mesh.shell(0.5, 1, 1))
    for p, dual in ((2, False), (1, True)):
        r, lam, B = _assert_matches_oracle(K, p, dual)
        assert r.delta == 0.0 and r.pivots > 0
        assert r.solve_residual <= steklov._REFINE_TOL
        vals = dense_oracle.spectrum(lam, B, 8)[0]
        assert np.abs(r.eigenvalues - vals).max() <= 3e-13 * vals[-1]


def test_top_degree_dual_shift_is_scaled_per_row():
    """The zero W block of the top-degree dual takes the shift; scaled to
    the diagonal of its Schur complement, one or two refinement steps
    reach the backward error (317 solves with delta max|diag S|), and no
    pivot leaves the diagonal (94M fill when they do)."""
    r = steklov.dual_spectrum(mesh.generate(mesh.disk(5)), 1)
    assert r.delta == steklov._DELTA and r.pivots == 0
    assert r.fill < 1_000_000
    assert r.solves <= 250
    assert r.solve_residual <= steklov._REFINE_TOL


def test_seeded_start_finds_both_copies_of_double_eigenvalue():
    """A constant start vector misses one copy of this pair."""
    K = mesh.generate(mesh.ball(2))
    r, _, _ = _assert_matches_oracle(K, 2, dual=True)
    assert np.sum(np.abs(r.eigenvalues - 2.067849) < 1e-5) == 2


def test_dual_eigenpairs_solve_the_dense_pencil():
    """The volume vectors of the bordered pencil are built by one block
    solve from the boundary eigenvectors: every pair is converged and the
    boundary cochains solve the dense pencil."""
    K = mesh.generate(mesh.ball(1))
    for p in range(3):
        r, lam, B = _assert_matches_oracle(K, p, dual=True)
        assert r.residuals.max() <= 1e-12
        g = r.eigencochains
        assert np.allclose(np.einsum("ij,ij->j", g, B @ g), 1.0)
        defect = lam @ g - B @ g * r.eigenvalues[None, :]
        assert np.abs(defect).max() <= 1e-9 * np.abs(lam).max()


def test_box_level2_needs_fewer_solves_than_boundary_dofs():
    K = mesh.generate(mesh.box(1, 1, 1, 2))
    r = steklov.solve_primal(K, 1)
    assert r.solves < r.nb == 288
    assert r.fill > 0 and r.n == K.n_simplices(0) + K.n_simplices(1)


def test_box_level3_quasi_definite_fill():
    """The symmetric threshold-pivoted factor holds less than half the
    fill of the pivoted COLAMD factor it replaced (8.16M and 9.10M), and
    every solve ends at the backward error of an exact factor."""
    K = mesh.generate(mesh.box(1, 1, 1, 3))
    for r, bound in ((steklov.solve_primal(K, 2), 4_000_000),
                     (steklov.dual_spectrum(K, 1), 5_000_000)):
        assert 0 < r.fill < bound
        assert r.solve_residual <= steklov._REFINE_TOL


def test_box_level3_coboundary_stiffness_keeps_unshifted_factors():
    """Primal p = 1 and dual p = 0 at box level 3 have no zero diagonal
    outside sigma, so they factor without the delta shift."""
    K = mesh.generate(mesh.box(1, 1, 1, 3))
    assert steklov.solve_primal(K, 1).delta == 0.0
    assert steklov.dual_spectrum(K, 0).delta == 0.0


class _FactorBuilt(Exception):
    pass


def test_shell_level2_threshold_pivoted_fill(monkeypatch):
    """Shell level 2 primal p = 2 and dual p = 1 hold the largest factors
    of the default levels: 54.7M and 53.7M entries with threshold
    pivoting (the unpivoted primal factor held 41.0M).  Only the factor is
    built; the Lanczos solves are skipped."""
    true_lu, fills = steklov.symmetric_lu, []

    def measured(S):
        fills.append(true_lu(S).nnz)
        raise _FactorBuilt

    monkeypatch.setattr(steklov, "symmetric_lu", measured)
    K = mesh.generate(mesh.shell(0.5, 1, 2))
    for spectrum, p in ((steklov.solve_primal, 2), (steklov.dual_spectrum, 1)):
        with pytest.raises(_FactorBuilt):
            spectrum(K, p)
    assert 0 < fills[0] < 58_000_000 and 0 < fills[1] < 57_000_000


class _BareFactor:
    """A SuperLU factor that refuses .L and .U: SciPy builds CSC copies of
    both on the first access to either and keeps them on the factor."""

    def __init__(self, lu):
        self._lu = lu

    def __getattr__(self, name):
        if name in ("L", "U"):
            raise AssertionError(f"SuperLU.{name} read")
        return getattr(self._lu, name)


def test_spectra_never_read_the_triangular_factors(monkeypatch):
    true_lu = steklov.symmetric_lu
    monkeypatch.setattr(steklov, "symmetric_lu",
                        lambda S: _BareFactor(true_lu(S)))
    K = mesh.generate(mesh.box(1, 1, 1, 2))
    for p in range(3):
        for r in (steklov.solve_primal(K, p), steklov.dual_spectrum(K, p)):
            assert r.fill > 0 and r.residuals.max() <= linalg.RESIDUAL_TOL


def test_noise_pivot_pencils_build_one_unshifted_factor(monkeypatch):
    """Pencils whose unpivoted factor met a rounding-noise pivot (the
    ellipsoid primal p = 2, both box pencils of verify-box seed 2) build
    exactly one factor, without a shift."""
    true_lu, built = steklov.symmetric_lu, []

    def counted(S):
        built.append(S.shape)
        return _BareFactor(true_lu(S))

    monkeypatch.setattr(steklov, "symmetric_lu", counted)
    ellipsoid = mesh.generate(mesh.ellipsoid(1, 0.8, 0.6, 2))
    box = mesh.generate(mesh.box(1.0912, 1.0896, 0.9113, 3))
    for spectrum, K, p in ((steklov.solve_primal, ellipsoid, 2),
                           (steklov.solve_primal, box, 2),
                           (steklov.dual_spectrum, box, 1)):
        built.clear()
        r = spectrum(K, p)
        assert len(built) == 1 and r.delta == 0.0


def _p0_blocks(K):
    """Stiffness, signed boundary rows and boundary mass of the primal
    pencil at p = 0."""
    return (feec.stiffness(K, 0), feec.tangential_trace(K, 0),
            feec.mass_matrix(K.boundary_complex(), 0))


def test_singular_shifted_pencil_is_reported():
    K = mesh.generate(mesh.disk(1))
    _, Tr, MS = _p0_blocks(K)
    B = Tr.T @ MS @ Tr
    with pytest.raises(SingularSystemError, match="degree 0 at level 1"):
        steklov._pencil_spectrum(-B, Tr, MS, 4, 0, 1)


@pytest.mark.parametrize("spec", [mesh.disk(0), mesh.disk(1)],
                         ids=["zero-pivot", "rounded-pivot"])
def test_nonzero_singular_pencil_is_not_regularized_away(spec, monkeypatch):
    """S = A - _SHIFT B is the scalar stiffness, singular on constants:
    no diagonal shift hides it.  Whether elimination meets an exactly zero
    pivot is down to rounding: on the level-0 disk it does and the factor
    reports it; on the level-1 disk a pivot of rounding size is left and
    the growth of a solve reports it.  Both name a singular pencil
    of the degree and level."""
    K = mesh.generate(spec)
    K_stiff, Tr, MS = _p0_blocks(K)
    B = Tr.T @ MS @ Tr
    A = K_stiff + steklov._SHIFT * B
    symmetric_lu, factored = steklov.symmetric_lu, []

    def recorded(S):
        factored.append(S)
        return symmetric_lu(S)

    monkeypatch.setattr(steklov, "symmetric_lu", recorded)
    with pytest.raises(SingularSystemError,
                       match="singular pencil of degree 0 at level 1"):
        steklov._pencil_spectrum(A, Tr, MS, 4, 0, 1)
    assert len(factored) == 1
    assert (factored[0] != (A - steklov._SHIFT * B)).nnz == 0


def test_stalled_refinement_is_loud(monkeypatch, capsys):
    """A shift far too large for refinement to undo: the top-degree dual
    pencil always takes it, and the stall names degree and level."""
    monkeypatch.setattr(steklov, "_DELTA", 1.0)
    K = mesh.generate(mesh.disk(2))
    with pytest.raises(SingularSystemError,
                       match="refinement of degree 1 dual at level 2 stalled"):
        steklov.dual_spectrum(K, 1, level=2)
    rc = cli.main(["spectrum", "--domain", "disk", "--level", "2",
                   "--degree", "1", "--dual"])
    assert rc == 3
    assert "degree 1 dual at level 2" in capsys.readouterr().err


def test_nan_in_a_lanczos_vector_is_a_singular_system(monkeypatch):
    """A NaN backward error fails every comparison; the refinement must
    read it as a stall, not loop on it forever (a budget of factor solves
    turns such a loop into a failure)."""
    true_eigsh, true_lu, budget = linalg.eigsh, steklov.symmetric_lu, []

    class Bounded(_BareFactor):
        def solve(self, rhs):
            budget.append(1)
            assert len(budget) < 1000, "refinement loops on a NaN"
            return self._lu.solve(rhs)

    def poisoned(op, k, **kwargs):
        def matvec(v):
            v = v.copy()
            v[0] = np.nan
            return op.matvec(v)

        return true_eigsh(LinearOperator(op.shape, matvec=matvec,
                                         dtype=float), k, **kwargs)

    monkeypatch.setattr(linalg, "eigsh", poisoned)
    monkeypatch.setattr(steklov, "symmetric_lu", lambda S: Bounded(true_lu(S)))
    K = mesh.generate(mesh.disk(2))
    with pytest.raises(SingularSystemError,
                       match="refinement of degree 1 at level 2 stalled"):
        steklov.solve_primal(K, 1, level=2)
