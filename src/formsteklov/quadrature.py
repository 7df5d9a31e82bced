"""Quadrature rules: simplex rules and adaptive tensor rules on boxes.

The simplex rules are Grundmann-Moller cones of index s (exact for
polynomials of degree 2s+1).  Weights are normalized so they sum to one;
multiply by the simplex measure to integrate.
"""

import itertools
import math

import numpy as np

from .errors import QuadratureError

_gm_cache: dict = {}
_TOL = 1e-8     # relative tolerance of the adaptive rules


def simplex_rule(dim: int, degree: int):
    """Quadrature rule on the reference dim-simplex, exact for the given degree.

    Returns (points, weights): barycentric points of shape (npts, dim+1) and
    weights of shape (npts,) summing to 1.
    """
    s = max(0, (degree - 1 + 1) // 2)  # smallest s with 2s+1 >= degree
    key = (dim, s)
    if key in _gm_cache:
        return _gm_cache[key]
    n, d = dim, 2 * s + 1
    pts, wts = [], []
    for i in range(s + 1):
        denom = d + n - 2 * i
        w = (-1) ** i * 2.0 ** (-2 * s) * denom ** d \
            / (math.factorial(i) * math.factorial(d + n - i))
        for beta in itertools.combinations_with_replacement(range(n + 1), s - i):
            k = [0] * (n + 1)
            for b in beta:
                k[b] += 1
            pts.append([(2 * kk + 1) / denom for kk in k])
            wts.append(w)
    points = np.asarray(pts, dtype=float)
    weights = np.asarray(wts, dtype=float)
    weights = weights / weights.sum()
    _gm_cache[key] = (points, weights)
    return points, weights


def gauss_legendre(n: int):
    """Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def adaptive_interval(f, a: float, b: float):
    """Integrate a smooth scalar function on [a, b] by doubling Gauss rules
    of 8 to 4096 points until two agree to relative tolerance _TOL.

    ``f`` is evaluated vectorized on arrays of abscissae.
    """
    prev = None
    n = 8
    while n <= 4096:
        x, w = gauss_legendre(n)
        val = (b - a) * float(np.dot(w, f(a + (b - a) * x)))
        if prev is not None and abs(val - prev) <= _TOL * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise QuadratureError(f"interval quadrature did not converge (last={prev})")


def adaptive_tensor(f, ranges):
    """Integrate over a box by doubling tensor Gauss-Legendre rules of 4 to
    256 points per axis until two agree to relative tolerance _TOL.

    ``ranges`` is a sequence of (lo, hi) pairs; ``f`` takes one (npts, k)
    array and returns values at those points.
    """
    k = len(ranges)
    prev = None
    n = 4
    while n <= 256:
        xs, ws = zip(*(gauss_legendre(n) for _ in range(k)))
        grids = np.meshgrid(*xs, indexing="ij")
        pts = np.stack([lo + (hi - lo) * g.ravel()
                        for (lo, hi), g in zip(ranges, grids)], axis=1)
        wgrid = ws[0]
        for wi in ws[1:]:
            wgrid = np.multiply.outer(wgrid, wi)
        scale = math.prod(hi - lo for lo, hi in ranges)
        val = scale * float(np.dot(wgrid.ravel(), f(pts)))
        if prev is not None and abs(val - prev) <= _TOL * max(1.0, abs(val)):
            return val
        prev = val
        n *= 2
    raise QuadratureError(f"tensor quadrature did not converge (last={prev})")
