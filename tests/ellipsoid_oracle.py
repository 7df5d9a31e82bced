"""Test oracle: the p-curvature minima of a triaxial ellipsoid by search.

The principal curvatures come from the first and second fundamental forms
of the (theta, phi) parametrization, with the inward unit normal so that
the sphere has curvatures +1.  A 100 x 200 grid locates each minimum, and
20 halving steps of a 9 x 9 local grid refine it.  ``geometry`` uses the
closed form at the c-poles instead; this search does not assume where the
minima are.
"""

import numpy as np


def curvatures(abc, th, ph):
    """Principal curvatures k1 <= k2 at the parameter points (th, ph)."""
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
    return Hm - disc, Hm + disc


def sigma(abc, samples=100, refine_steps=20):
    """(sigma_1, sigma_2): the sampled minima of k1 and of k1 + k2."""
    th = np.linspace(1e-3, np.pi - 1e-3, samples)
    ph = np.linspace(0.0, 2 * np.pi, 2 * samples, endpoint=False)
    TH, PH = np.meshgrid(th, ph, indexing="ij")
    k1, k2 = curvatures(abc, TH, PH)

    def refine(valgrid, target):
        i, j = np.unravel_index(np.argmin(valgrid), valgrid.shape)
        t0, p0 = TH[i, j], PH[i, j]
        dt, dp = th[1] - th[0], ph[1] - ph[0]
        best = valgrid[i, j]
        for _ in range(refine_steps):
            tt = np.linspace(t0 - dt, t0 + dt, 9).clip(1e-6, np.pi - 1e-6)
            pp = np.linspace(p0 - dp, p0 + dp, 9)
            T2, P2 = np.meshgrid(tt, pp, indexing="ij")
            a1, a2 = curvatures(abc, T2, P2)
            vals = a1 if target == 1 else a1 + a2
            ii, jj = np.unravel_index(np.argmin(vals), vals.shape)
            best = min(best, vals[ii, jj])
            t0, p0 = T2[ii, jj], P2[ii, jj]
            dt, dp = dt / 2, dp / 2
        return float(best)

    return refine(k1, 1), refine(k1 + k2, 2)
