import numpy as np

from formsteklov import hodge, mesh


def test_circle_lambda1():
    K = mesh.generate(mesh.disk(4))
    bs = hodge.boundary_spectrum(K, 6)
    assert bs.n_components == 1
    assert abs(bs.eigenvalues[0]) < 1e-12
    assert abs(bs.lambda1 - 1.0) < 5e-3
    # multiplicity two
    assert abs(bs.eigenvalues[2] - bs.eigenvalues[1]) < 1e-9


def test_closed_curve_polygon_value():
    """Any closed curve is isometric to the circle of its length, so the
    discrete eigenvalue must converge to (2 pi / L)^2 with L the polygon
    perimeter, at order two."""
    errs = []
    for lvl in (2, 3, 4):
        K = mesh.generate(mesh.disk(lvl))
        bc = K.boundary_complex()
        L = bc.top_volumes().sum()
        target = (2 * np.pi / L) ** 2
        bs = hodge.boundary_spectrum(K, 3)
        errs.append(abs(bs.lambda1 - target) / target)
    assert errs[0] / errs[1] > 3.2
    assert errs[1] / errs[2] > 3.2


def test_sphere_lambda1_multiplicity():
    K = mesh.generate(mesh.ball(3))
    bs = hodge.boundary_spectrum(K, 6)
    assert abs(bs.lambda1 - 2.0) < 0.04
    cluster = bs.eigenvalues[1:4]
    assert (cluster.max() - cluster.min()) / cluster.mean() < 1e-3


def test_ellipse_boundary_table():
    K = mesh.generate(mesh.ellipse(1, 0.7, 3))
    bs = hodge.boundary_spectrum(K, 4)
    # one closed curve: one zero mode, then lambda1
    assert bs.n_components == 1
    assert abs(bs.eigenvalues[0]) < 1e-10
    assert bs.lambda1 == bs.eigenvalues[1] > 0


def test_two_component_boundary():
    K = mesh.generate(mesh.annulus(0.5, 1, 2))
    bs = hodge.boundary_spectrum(K, 6)
    assert bs.n_components == 2
    # one zero per component
    assert np.abs(bs.eigenvalues[:2]).max() < 1e-10
    # min over components: the outer circle has length 2 pi, eigenvalue 1
    assert abs(bs.lambda1 - 1.0) < 0.01
