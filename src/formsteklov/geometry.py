"""Analytic geometric data of the smooth benchmark domains.

All inequality checks pair analytic smooth-domain geometry (curvature
bounds, volumes) with extrapolated discrete eigenvalues; no curvature is
ever estimated from a mesh.  Sign convention: principal curvatures of the
unit sphere boundary are +1; on inner boundaries (annulus, shell) the
curvatures w.r.t. the inner normal of the domain are negative.
"""

import math
from dataclasses import dataclass

from .mesh import DomainSpec


@dataclass
class GeometryReport:
    """Exact smooth-domain quantities consumed by the verification checks."""

    n: int                     # boundary dimension
    vol_omega: float
    vol_sigma: float
    iso_ratio: float
    sigma: tuple               # lowest p-curvature bounds, p = 1..n
    H: float                   # mean-curvature lower bound sigma[n]/n
    convex: bool


def _ellipsoid_area(a, b, c):
    """Surface area of the ellipsoid a >= b >= c by Legendre's formula
    (DLMF 19.33.2)."""
    if a == c:
        return 4 * math.pi * a ** 2
    from scipy.special import ellipeinc, ellipkinc

    phi = math.acos(c / a)
    m = a ** 2 * (b ** 2 - c ** 2) / (b ** 2 * (a ** 2 - c ** 2))
    s = math.sin(phi)
    return 2 * math.pi * (c ** 2 + a * b / s * (
        float(ellipeinc(phi, m)) * s ** 2 + float(ellipkinc(phi, m)) * (c / a) ** 2))


def analytic_geometry(spec: DomainSpec) -> GeometryReport:
    """Exact geometry of the smooth benchmark domain; the ellipse perimeter
    and the ellipsoid area are complete and incomplete elliptic
    integrals."""
    fam, p = spec.family, spec.params
    if fam == "disk":
        return GeometryReport(1, math.pi, 2 * math.pi, 2.0, (1.0,), 1.0, True)
    if fam == "ellipse":
        a, b = p
        vol = math.pi * a * b
        from scipy.special import ellipe

        per = 4 * a * float(ellipe(1 - (b / a) ** 2))
        # curvature ab / (a^2 sin^2 t + b^2 cos^2 t)^(3/2): minimal at the
        # minor-axis ends for a >= b
        s1 = b / a ** 2
        return GeometryReport(1, vol, per, per / vol, (s1,), s1, True)
    if fam == "annulus":
        r_in, r_out = p
        vol = math.pi * (r_out ** 2 - r_in ** 2)
        per = 2 * math.pi * (r_in + r_out)
        s1 = -1.0 / r_in
        return GeometryReport(1, vol, per, per / vol, (s1,), s1, False)
    if fam == "ball":
        return GeometryReport(2, 4 * math.pi / 3, 4 * math.pi, 3.0,
                              (1.0, 2.0), 1.0, True)
    if fam == "ellipsoid":
        a, b, c = p
        vol = 4 * math.pi * a * b * c / 3
        area = _ellipsoid_area(a, b, c)
        # both minima sit at the c-poles, where the principal curvatures
        # are c/a^2 and c/b^2
        s1, s2 = c / a ** 2, c / a ** 2 + c / b ** 2
        return GeometryReport(2, vol, area, area / vol, (s1, s2), s2 / 2, True)
    if fam == "shell":
        r_in, r_out = p
        vol = 4 * math.pi * (r_out ** 3 - r_in ** 3) / 3
        area = 4 * math.pi * (r_out ** 2 + r_in ** 2)
        s1, s2 = -1.0 / r_in, -2.0 / r_in
        return GeometryReport(2, vol, area, area / vol, (s1, s2), s2 / 2, False)
    lx, ly, lz = p              # box; DomainSpec admits no other family
    vol = lx * ly * lz
    area = 2 * (lx * ly + ly * lz + lx * lz)
    # flat faces; edge/corner non-smoothness accepted, bounds degenerate
    return GeometryReport(2, vol, area, area / vol, (0.0, 0.0), 0.0, True)
