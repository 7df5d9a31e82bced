"""The boundary eigen-core shared by the primal, dual and biharmonic
spectra: Lanczos failures and unconverged eigenpairs are loud in all
three."""

import numpy as np
import pytest
from scipy.sparse.linalg import ArpackError, ArpackNoConvergence

from formsteklov import cli, linalg, mesh, scalar, steklov
from formsteklov.errors import ConvergenceError

# solver on disk level 2, the name in its error, and a CLI run that fails
# with it
PENCILS = {
    "primal": (lambda K: steklov.solve_primal(K, 1, level=2),
               "degree 1 at level 2",
               ["spectrum", "--domain", "disk", "--level", "2",
                "--degree", "1"]),
    "dual": (lambda K: steklov.dual_spectrum(K, 0, level=2),
             "degree 0 dual at level 2",
             ["spectrum", "--domain", "disk", "--level", "2", "--dual"]),
    "biharmonic": (lambda K: scalar.biharmonic_spectrum(K, 1),
                   "biharmonic",
                   ["verify", "--domain", "disk", "--checks", "CHK-BIH"]),
}


@pytest.mark.parametrize("pencil", PENCILS)
@pytest.mark.parametrize("exc", [
    ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((0, 0))),
    ArpackError(-9999)], ids=["no-convergence", "arpack-error"])
def test_lanczos_failure_is_a_convergence_error(monkeypatch, tmp_path,
                                                capsys, exc, pencil):
    def fail(*args, **kwargs):
        raise exc

    monkeypatch.setattr(linalg, "eigsh", fail)
    run, what, argv = PENCILS[pencil]
    with pytest.raises(ConvergenceError, match=f"Lanczos failed for .*{what}"):
        run(mesh.generate(mesh.disk(2)))
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 3
    assert what in capsys.readouterr().err


@pytest.mark.parametrize("pencil", PENCILS)
def test_large_residual_is_a_convergence_error(monkeypatch, pencil):
    """Noise on the returned vectors, which no eigenvalue can fit; the
    Steklov eigenvalues are Rayleigh quotients of those vectors, so they
    cannot absorb it either."""
    true_eigsh = linalg.eigsh

    def off(*args, **kwargs):
        vals, vecs = true_eigsh(*args, **kwargs)
        noise = np.random.default_rng(1).normal(size=vecs.shape)
        return vals, vecs + 1e-3 * np.abs(vecs).max() * noise

    monkeypatch.setattr(linalg, "eigsh", off)
    run, what, _ = PENCILS[pencil]
    with pytest.raises(ConvergenceError, match=f"{what}.*residual"):
        run(mesh.generate(mesh.disk(2)))
