"""Closed-form differential p-forms with polynomial coefficients.

A field is stored by its components on the ascending coordinate basis
dx_{i1} ^ ... ^ dx_{ip}; each component is a vectorized callable of the
point array.  These provide the test fields (constant-coefficient forms and
differentials of harmonic polynomials) for the boundary/volume norm ratios.
Each harmonic polynomial is written once; its gradient is taken from it by
complex-step differentiation, never written out by hand.
"""

import itertools

import numpy as np


class FormField:
    """A p-form on R^dim given by component functions.

    Parameters
    ----------
    dim : ambient dimension (2 or 3)
    degree : form degree p
    components : dict mapping ascending index tuples to callables
        ``f(points) -> values`` with ``points`` of shape (n, dim).
    name : display label
    """

    def __init__(self, dim, degree, components, name=""):
        self.dim = dim
        self.degree = degree
        self.components = {tuple(k): v for k, v in components.items()}
        self.name = name
        for k in self.components:
            if len(k) != degree or list(k) != sorted(k):
                raise ValueError(f"bad index tuple {k}")

    def component(self, idx, points):
        f = self.components.get(tuple(idx))
        if f is None:
            return np.zeros(len(points))
        return np.asarray(f(points), dtype=float) + np.zeros(len(points))

    def norm_sq(self, points):
        """Pointwise squared norm (orthonormal coordinate basis)."""
        out = np.zeros(len(points))
        for idx in itertools.combinations(range(self.dim), self.degree):
            out += self.component(idx, points) ** 2
        return out

    def contract_sq(self, points, vectors):
        """Pointwise squared norm of the contraction i_V of the field.

        ``vectors`` has shape (n, dim).  The contraction of a p-form with a
        vector is a (p-1)-form; its squared norm needs the signed sum over
        insertions before squaring.
        """
        p = self.degree
        if p == 0:
            return np.zeros(len(points))
        out = np.zeros(len(points))
        for J in itertools.combinations(range(self.dim), p - 1):
            val = np.zeros(len(points))
            for k in range(self.dim):
                if k in J:
                    continue
                full = tuple(sorted(J + (k,)))
                sign = (-1) ** full.index(k)
                val += sign * vectors[:, k] * self.component(full, points)
            out += val ** 2
        return out


def parallel_form(dim, indices):
    """Constant-coefficient unit form dx_{i1} ^ ... ^ dx_{ip}."""
    idx = tuple(indices)
    label = "dx" + "".join(str(i + 1) for i in idx)
    return FormField(dim, len(idx), {idx: lambda pts: np.ones(len(pts))}, name=label)


def gradient_field(dim, partials, name=""):
    """The 1-form df from its partial derivatives."""
    return FormField(dim, 1, {(i,): g for i, g in enumerate(partials)}, name=name)


def _cube_invariant(x, y, z):
    # products, not x ** 4: numpy's general power takes 5x as long on the
    # 3.9M quadrature points of ball level 5
    x2, y2, z2 = x * x, y * y, z * z
    return x2 * x2 + y2 * y2 + z2 * z2 - 3 * (x2 * y2 + y2 * z2 + z2 * x2)


def _re_z8(x, y):
    # z^2 squared twice: bit for bit ((x + 1j*y) ** 8).real, in real terms
    a, b = x * x - y * y, 2 * x * y
    a, b = a * a - b * b, 2 * a * b
    return a * a - b * b


_POLYNOMIALS = {
    2: (("Re z^1", lambda x, y: x),
        ("Im z^1", lambda x, y: y),
        ("Re z^2", lambda x, y: x ** 2 - y ** 2),
        ("Im z^2", lambda x, y: 2 * x * y),
        ("Re z^3", lambda x, y: x ** 3 - 3 * x * y ** 2),
        ("Im z^3", lambda x, y: 3 * x ** 2 * y - y ** 3),
        ("Re z^4", lambda x, y: x ** 4 - 6 * x ** 2 * y ** 2 + y ** 4),
        ("Im z^4", lambda x, y: 4 * x ** 3 * y - 4 * x * y ** 3),
        ("Re z^8", _re_z8)),
    3: (("x", lambda x, y, z: x),
        ("y", lambda x, y, z: y),
        ("z", lambda x, y, z: z),
        ("xy", lambda x, y, z: x * y),
        ("yz", lambda x, y, z: y * z),
        ("xz", lambda x, y, z: x * z),
        ("x2-y2", lambda x, y, z: x ** 2 - y ** 2),
        ("2z2-x2-y2", lambda x, y, z: 2 * z ** 2 - x ** 2 - y ** 2),
        ("xyz", lambda x, y, z: x * y * z),
        ("x(x2-3y2)", lambda x, y, z: x * (x ** 2 - 3 * y ** 2)),
        ("z(x2-y2)", lambda x, y, z: z * (x ** 2 - y ** 2)),
        ("x(4z2-x2-y2)", lambda x, y, z: x * (4 * z ** 2 - x ** 2 - y ** 2)),
        ("z(2z2-3x2-3y2)", lambda x, y, z: z * (2 * z ** 2 - 3 * x ** 2 - 3 * y ** 2)),
        ("x4+y4+z4-3(x2y2+y2z2+z2x2)", _cube_invariant)),
}
_STEP = 1e-30   # nothing cancels in Im f, so the O(h^2) error can vanish


def _partial(f, k):
    """d f / d x_k of a real polynomial f as Im f(x + i h e_k) / h, exact
    to rounding (Squire & Trapp, SIAM Review 40, 1998)."""
    def df(pts):
        z = pts.astype(complex)
        z[:, k] += 1j * _STEP
        return f(*z.T).imag / _STEP
    return df


def harmonic_polynomials(dim):
    """Non-constant harmonic polynomials with their gradients.

    Returns a list of (name, f, [partials]) with f and each partial a
    vectorized callable of the point array; planar families are the
    real/imaginary parts of (x+iy)^m (m <= 4), spatial ones are real solid
    harmonics (degree <= 3).  Each family ends with the lowest harmonic
    polynomial invariant under the symmetry group of the square (Re z^8)
    or the cube (degree 4): a mesh with that symmetry averages every other
    member to zero on the volume and on the boundary alike.  Each member
    is one real expression (Re z^8 squares z^2 twice), free of complex
    constants and ``.real``, since its partials are complex steps of it.
    """
    return [(name, lambda pts, f=f: f(*pts.T), [_partial(f, k) for k in range(dim)])
            for name, f in _POLYNOMIALS[dim]]
