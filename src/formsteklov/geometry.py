"""Analytic geometric data of the smooth benchmark domains.

All inequality checks pair analytic smooth-domain geometry (curvature
bounds, volumes) with extrapolated discrete eigenvalues; no curvature is
ever estimated from a mesh.  Sign convention: principal curvatures of the
unit sphere boundary are +1; on inner boundaries (annulus, shell) the
curvatures w.r.t. the inner normal of the domain are negative.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import analytic
from .errors import InvalidDomainError
from .mesh import DomainSpec, SimplicialComplex, simplex_measures


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


def measures(K: SimplicialComplex):
    """Volume and boundary area of a mesh (sums of simplex measures)."""
    vol = float(K.top_volumes().sum())
    faces = K.simplices[K.dim - 1][K.boundary_faces]
    area = float(simplex_measures(K.vertices, faces).sum())
    return vol, area


def _ellipse_sigma1(a, b):
    # curvature ab / (a^2 sin^2 t + b^2 cos^2 t)^(3/2): minimal at the
    # minor-axis ends for a >= b
    return b / a ** 2


def _ellipsoid_curvatures(abc, th, ph):
    a, b, c = abc
    st, ct = np.sin(th), np.cos(th)
    sp, cp = np.sin(ph), np.cos(ph)
    x_t = np.stack([a * ct * cp, b * ct * sp, -c * st], axis=-1)
    x_p = np.stack([-a * st * sp, b * st * cp, np.zeros_like(th)], axis=-1)
    x_tt = np.stack([-a * st * cp, -b * st * sp, -c * ct], axis=-1)
    x_tp = np.stack([-a * ct * sp, b * ct * cp, np.zeros_like(th)], axis=-1)
    x_pp = np.stack([-a * st * cp, -b * st * sp, np.zeros_like(th)], axis=-1)
    nrm = np.cross(x_t, x_p)
    norm = np.linalg.norm(nrm, axis=-1, keepdims=True)
    norm[norm == 0] = 1.0
    # inward-pointing unit normal makes the sphere curvatures +1
    nrm = -nrm / norm
    E = (x_t * x_t).sum(-1)
    F = (x_t * x_p).sum(-1)
    G = (x_p * x_p).sum(-1)
    L = (x_tt * nrm).sum(-1)
    M = (x_tp * nrm).sum(-1)
    N = (x_pp * nrm).sum(-1)
    den = E * G - F * F
    den[den == 0] = np.inf
    Hm = (L * G - 2 * M * F + N * E) / (2 * den)       # mean curvature
    Km = (L * N - M * M) / den                          # Gauss curvature
    disc = np.sqrt(np.maximum(Hm * Hm - Km, 0.0))
    k1, k2 = Hm - disc, Hm + disc
    return k1, k2


def _ellipsoid_sigma(abc, samples=100, refine_steps=20):
    """sigma_1 and sigma_2 of a triaxial ellipsoid by dense sampling with
    local refinement around the minima (documented tolerance 1e-6)."""
    th = np.linspace(1e-3, np.pi - 1e-3, samples)
    ph = np.linspace(0.0, 2 * np.pi, 2 * samples, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    k1, k2 = _ellipsoid_curvatures(abc, TH, PH)

    def refine(valgrid, target):
        i, j = np.unravel_index(np.argmin(valgrid), valgrid.shape)
        t0, p0 = TH[i, j], PH[i, j]
        dt, dp = th[1] - th[0], ph[1] - ph[0]
        best = valgrid[i, j]
        for _ in range(refine_steps):
            tt = np.linspace(t0 - dt, t0 + dt, 9).clip(1e-6, np.pi - 1e-6)
            pp = np.linspace(p0 - dp, p0 + dp, 9)
            T2, P2 = np.meshgrid(tt, pp, indexing="ij")
            a1, a2 = _ellipsoid_curvatures(abc, T2, P2)
            vals = a1 if target == 1 else a1 + a2
            ii, jj = np.unravel_index(np.argmin(vals), vals.shape)
            best = min(best, vals[ii, jj])
            t0, p0 = T2[ii, jj], P2[ii, jj]
            dt, dp = dt / 2, dp / 2
        return float(best)

    s1 = refine(k1, 1)
    s2 = refine(k1 + k2, 2)
    return s1, s2


def analytic_geometry(spec: DomainSpec) -> GeometryReport:
    """Exact geometry of the smooth benchmark domain (quadratures where no
    closed form exists: ellipse perimeter, ellipsoid area)."""
    fam, p = spec.family, spec.params
    if fam == "disk":
        return GeometryReport(1, math.pi, 2 * math.pi, 2.0, (1.0,), 1.0, True)
    if fam == "ellipse":
        a, b = p
        vol = math.pi * a * b
        per = analytic.boundary_measure(spec)
        s1 = _ellipse_sigma1(a, b)
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
        area = analytic.boundary_measure(spec)
        s1, s2 = _ellipsoid_sigma(p)
        return GeometryReport(2, vol, area, area / vol, (s1, s2), s2 / 2,
                              s1 >= 0)
    if fam == "shell":
        r_in, r_out = p
        vol = 4 * math.pi * (r_out ** 3 - r_in ** 3) / 3
        area = 4 * math.pi * (r_out ** 2 + r_in ** 2)
        s1, s2 = -1.0 / r_in, -2.0 / r_in
        return GeometryReport(2, vol, area, area / vol, (s1, s2), s2 / 2, False)
    if fam == "box":
        lx, ly, lz = p
        vol = lx * ly * lz
        area = 2 * (lx * ly + ly * lz + lx * lz)
        # flat faces; edge/corner non-smoothness accepted, bounds degenerate
        return GeometryReport(2, vol, area, area / vol, (0.0, 0.0), 0.0, True)
    raise InvalidDomainError(fam)
