import ellipsoid_oracle
import numpy as np
import pytest

from formsteklov import analytic, geometry, mesh


def _measures(K):
    """Volume and boundary area of a mesh (sums of simplex measures)."""
    return (float(K.top_volumes().sum()),
            float(K.boundary_complex().top_volumes().sum()))


def test_measures_octahedron():
    K = mesh.generate(mesh.ball(0))
    vol, area = _measures(K)
    assert np.isclose(vol, 4.0 / 3.0)
    assert np.isclose(area, 4.0 * np.sqrt(3.0))


@pytest.mark.parametrize("lvl", [0, 1, 2, 3])
def test_measures_disk_inscribed_polygon(lvl):
    K = mesh.generate(mesh.disk(lvl))
    vol, area = _measures(K)
    m = 8 * 2 ** lvl
    assert np.isclose(vol, m / 2 * np.sin(2 * np.pi / m))
    assert np.isclose(area, 2 * m * np.sin(np.pi / m))


def test_measures_box():
    K = mesh.generate(mesh.box(1, 1, 1, 1))
    vol, area = _measures(K)
    assert np.isclose(vol, 1.0)
    assert np.isclose(area, 6.0)


def test_measure_convergence_order_two():
    for spec, exact in ((mesh.disk(0), np.pi), (mesh.ball(0), 4 * np.pi / 3)):
        errs = []
        for lvl in range(1, 4):
            K = mesh.generate(spec.with_level(lvl))
            errs.append(abs(_measures(K)[0] - exact))
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        assert min(ratios) > 3.0   # error ratio about 1/4 per level


def test_ball_report():
    g = geometry.analytic_geometry(mesh.ball(0))
    assert g.sigma == (1.0, 2.0)
    assert g.H == 1.0
    assert np.isclose(g.iso_ratio, 3.0)
    assert g.convex
    d = geometry.analytic_geometry(mesh.disk(0))
    assert np.isclose(d.iso_ratio, 2.0)


def test_ellipse_sigma_is_min_curvature():
    g = geometry.analytic_geometry(mesh.ellipse(1, 0.7, 0))
    assert np.isclose(g.sigma[0], 0.7)
    # perimeter against the arithmetic-geometric-mean algorithm
    a, b = 1.0, 0.7
    # Gauss: P = 2 pi * AGM-based series via the complete elliptic integral
    from scipy.special import ellipe
    e2 = 1 - (b / a) ** 2
    per = 4 * a * ellipe(e2)
    assert np.isclose(g.vol_sigma, per, rtol=1e-8)


def test_annulus_inner_curvature_negative():
    g = geometry.analytic_geometry(mesh.annulus(0.5, 1, 0))
    assert np.isclose(g.sigma[0], -2.0)
    assert not g.convex
    assert np.isclose(g.iso_ratio, 4.0)


def test_ellipsoid_sigma_sampling():
    # degenerate to the sphere: p-curvatures are exactly (1, 2)
    g = geometry.analytic_geometry(mesh.ellipsoid(1, 1, 1, 0))
    assert abs(g.sigma[0] - 1.0) < 1e-6
    assert abs(g.sigma[1] - 2.0) < 1e-6
    # triaxial: minimum curvature c/a^2 at the flattest pole
    g = geometry.analytic_geometry(mesh.ellipsoid(1, 0.8, 0.7, 0))
    assert abs(g.sigma[0] - 0.7) < 1e-6
    assert abs(g.sigma[1] - (0.7 + 0.7 / 0.64)) < 1e-6
    # sphere area sanity through the quadrature path
    gs = geometry.analytic_geometry(mesh.ellipsoid(1, 1, 1, 0))
    assert np.isclose(gs.vol_sigma, 4 * np.pi, rtol=1e-7)


def _oracle_ellipsoids():
    """26 ellipsoids a >= b >= c, axis ratios log-uniform down to 0.05."""
    rng = np.random.default_rng(7)
    out = [(1.0, 0.8, 0.7), (1.0, 0.05, 0.05)]
    for a, u, v in zip(rng.uniform(0.5, 2.0, 24),
                       *np.sort(rng.uniform(np.log(0.05), 0.0, (2, 24)),
                                axis=0)[::-1]):
        out.append((a, a * np.exp(u), a * np.exp(v)))
    return out


@pytest.mark.parametrize("abc", _oracle_ellipsoids(),
                         ids=lambda abc: "%.3g,%.3g,%.3g" % abc)
def test_ellipsoid_sigma_matches_search(abc):
    """The closed-form c-pole curvatures are the minima that a grid search
    with local refinement finds.  The search can only land on a point of
    the surface, so it falls below the minimum only by the rounding of
    its sqrt(H^2 - K): at most 3e-13 relative on 300 random ellipsoids."""
    closed = geometry.analytic_geometry(mesh.ellipsoid(*abc)).sigma
    searched = ellipsoid_oracle.sigma(abc)
    for s, c in zip(searched, closed):
        assert abs(s - c) <= 1e-9 * abs(c)
        assert s >= c * (1 - 1e-12)


@pytest.mark.parametrize("spec", [
    mesh.ellipse(1, 0.7), mesh.ellipse(2, 0.1), mesh.ellipsoid(1, 0.8, 0.7),
    mesh.ellipsoid(1.5, 0.6, 0.3), mesh.ellipsoid(1, 1, 0.5),
    mesh.ellipsoid(1, 0.5, 0.5), mesh.ellipsoid(2, 2, 2)], ids=str)
def test_closed_form_boundary_measure_matches_quadrature(spec):
    quad = analytic.integrate_boundary(spec, lambda pts, nrm: np.ones(len(pts)))
    assert abs(geometry.analytic_geometry(spec).vol_sigma - quad) <= 1e-12 * quad


@pytest.mark.parametrize("b", [0.08, 0.05])
def test_flat_prolate_spheroid_area(b):
    """The area quadrature did not converge on these; the prolate-spheroid
    formula 2 pi b^2 (1 + asin(e) / (b e)), e^2 = 1 - b^2, gives them."""
    e = np.sqrt(1 - b ** 2)
    exact = 2 * np.pi * b ** 2 * (1 + np.arcsin(e) / (b * e))
    area = geometry.analytic_geometry(mesh.ellipsoid(1, b, b)).vol_sigma
    assert abs(area - exact) <= 1e-12 * exact


def test_sigma_superadditivity():
    # sigma_{p+1} >= sigma_p + sigma_1 for every benchmark family
    for spec in (mesh.ball(0), mesh.ellipsoid(1, 0.8, 0.7, 0),
                 mesh.shell(0.5, 1, 0), mesh.box(1, 1, 1, 0)):
        g = geometry.analytic_geometry(spec)
        assert g.sigma[1] >= g.sigma[0] + g.sigma[0] - 1e-9


