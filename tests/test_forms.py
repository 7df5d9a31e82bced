import numpy as np
import pytest

from formsteklov import forms


@pytest.mark.parametrize("dim", [2, 3])
def test_harmonic_polynomials_are_harmonic(dim):
    """Finite-difference Laplacian and gradient checks for the whole family."""
    rng = np.random.default_rng(1)
    pts = rng.normal(size=(40, dim))
    h = 1e-4
    for name, f, grads in forms.harmonic_polynomials(dim):
        lap = np.zeros(len(pts))
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = h
            lap += (f(pts + e) - 2 * f(pts) + f(pts - e)) / h ** 2
            # fourth-order central difference: the second-order one errs
            # by 2e-4 on the degree-8 member at these sample points
            gfd = (8 * (f(pts + e) - f(pts - e))
                   - (f(pts + 2 * e) - f(pts - 2 * e))) / (12 * h)
            assert np.abs(gfd - grads[i](pts)).max() < 1e-4, (name, i)
        assert np.abs(lap).max() < 1e-3, name


def test_parallel_form_norms():
    xi = forms.parallel_form(3, (0, 2))
    pts = np.zeros((5, 3))
    assert np.allclose(xi.norm_sq(pts), 1.0)
    # contraction with e_x leaves the dz component
    v = np.tile([1.0, 0, 0], (5, 1))
    assert np.allclose(xi.contract_sq(pts, v), 1.0)
    v = np.tile([0.0, 1, 0], (5, 1))
    assert np.allclose(xi.contract_sq(pts, v), 0.0)


def test_contraction_signs_cancel():
    # (i_V xi) for xi = dx^dy + dy^dz contracted with e_y must combine the
    # two components with opposite insertion signs
    comps = {(0, 1): lambda p: np.ones(len(p)), (1, 2): lambda p: np.ones(len(p))}
    xi = forms.FormField(3, 2, comps)
    pts = np.zeros((3, 3))
    v = np.tile([0.0, 1.0, 0.0], (3, 1))
    # i_{e_y}(dx^dy) = -dx, i_{e_y}(dy^dz) = dz: squared norm is 2
    assert np.allclose(xi.contract_sq(pts, v), 2.0)


def test_degree_zero_contraction_is_zero():
    f = forms.FormField(2, 0, {(): lambda p: np.ones(len(p))})
    pts = np.zeros((4, 2))
    assert np.allclose(f.contract_sq(pts, np.ones((4, 2))), 0.0)
