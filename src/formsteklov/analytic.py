"""Analytic parameterizations of the smooth benchmark domains.

Boundary patches expose points, the scalar area element and the inner unit
normal; volume patches expose points and the Jacobian.  All integrals are
taken with adaptive rules to relative tolerance 1e-8, independent of any
mesh.
"""

import numpy as np

from .quadrature import adaptive_interval, adaptive_tensor


def boundary_patches(spec):
    """List of boundary patches: (ranges, point_fn, weight_fn, inner_normal_fn).

    ``point_fn`` maps parameter arrays (n, k) to points (n, dim); the weight
    is the length/area element; the normal points into the domain.
    """
    fam, p = spec.family, spec.params
    if fam in ("disk", "ellipse"):
        a, b = (1.0, 1.0) if fam == "disk" else p
        return [_ellipse_patch(a, b, inner=False)]
    if fam == "annulus":
        r_in, r_out = p
        return [_ellipse_patch(r_out, r_out, inner=False),
                _ellipse_patch(r_in, r_in, inner=True)]
    if fam in ("ball", "ellipsoid"):
        abc = (1.0, 1.0, 1.0) if fam == "ball" else p
        return [_ellipsoid_patch(*abc, inner=False)]
    if fam == "shell":
        r_in, r_out = p
        return [_ellipsoid_patch(r_out, r_out, r_out, inner=False),
                _ellipsoid_patch(r_in, r_in, r_in, inner=True)]
    return _box_patches(*p)     # box; DomainSpec admits no other family


def _ellipse_patch(a, b, inner):
    ranges = [(0.0, 2 * np.pi)]

    def point(t):
        t = t[:, 0]
        return np.column_stack([a * np.cos(t), b * np.sin(t)])

    def weight(t):
        t = t[:, 0]
        return np.sqrt((a * np.sin(t)) ** 2 + (b * np.cos(t)) ** 2)

    def normal(t):
        t = t[:, 0]
        out = np.column_stack([b * np.cos(t), a * np.sin(t)])
        out /= np.linalg.norm(out, axis=1, keepdims=True)
        return out if inner else -out

    return ranges, point, weight, normal


def _ellipsoid_patch(a, b, c, inner):
    ranges = [(0.0, np.pi), (0.0, 2 * np.pi)]

    def point(tp):
        th, ph = tp[:, 0], tp[:, 1]
        return np.column_stack([a * np.sin(th) * np.cos(ph),
                                b * np.sin(th) * np.sin(ph),
                                c * np.cos(th)])

    def weight(tp):
        th, ph = tp[:, 0], tp[:, 1]
        xt = np.column_stack([a * np.cos(th) * np.cos(ph),
                              b * np.cos(th) * np.sin(ph),
                              -c * np.sin(th)])
        xp = np.column_stack([-a * np.sin(th) * np.sin(ph),
                              b * np.sin(th) * np.cos(ph),
                              np.zeros_like(th)])
        return np.linalg.norm(np.cross(xt, xp), axis=1)

    def normal(tp):
        x = point(tp)
        out = x / np.array([a * a, b * b, c * c])
        nrm = np.linalg.norm(out, axis=1, keepdims=True)
        nrm[nrm == 0] = 1.0
        out = out / nrm
        return out if inner else -out

    return ranges, point, weight, normal


def _box_patches(lx, ly, lz):
    sizes = (lx, ly, lz)
    patches = []
    for axis in range(3):
        u, v = [i for i in range(3) if i != axis]
        for side, norm_sign in ((0.0, 1.0), (sizes[axis], -1.0)):
            def point(tp, axis=axis, u=u, v=v, side=side):
                out = np.zeros((len(tp), 3))
                out[:, u] = tp[:, 0]
                out[:, v] = tp[:, 1]
                out[:, axis] = side
                return out

            def weight(tp):
                return np.ones(len(tp))

            def normal(tp, axis=axis, norm_sign=norm_sign):
                out = np.zeros((len(tp), 3))
                out[:, axis] = norm_sign
                return out

            patches.append(([(0.0, sizes[u]), (0.0, sizes[v])], point, weight, normal))
    return patches


def volume_patches(spec):
    """List of volume patches: (ranges, point_fn, jacobian_fn)."""
    fam, p = spec.family, spec.params
    if fam in ("disk", "ellipse", "annulus"):
        if fam == "annulus":
            a = b = 1.0
            r0, r1 = p
        else:
            a, b = (1.0, 1.0) if fam == "disk" else p
            r0, r1 = 0.0, 1.0
        ranges = [(r0, r1), (0.0, 2 * np.pi)]

        def point(rt):
            r, t = rt[:, 0], rt[:, 1]
            return np.column_stack([a * r * np.cos(t), b * r * np.sin(t)])

        def jac(rt):
            return a * b * rt[:, 0]

        return [(ranges, point, jac)]
    if fam in ("ball", "ellipsoid", "shell"):
        if fam == "shell":
            a = b = c = 1.0
            r0, r1 = p
        else:
            a, b, c = (1.0, 1.0, 1.0) if fam == "ball" else p
            r0, r1 = 0.0, 1.0
        ranges = [(r0, r1), (0.0, np.pi), (0.0, 2 * np.pi)]

        def point(rtp):
            r, th, ph = rtp[:, 0], rtp[:, 1], rtp[:, 2]
            return np.column_stack([a * r * np.sin(th) * np.cos(ph),
                                    b * r * np.sin(th) * np.sin(ph),
                                    c * r * np.cos(th)])

        def jac(rtp):
            r, th = rtp[:, 0], rtp[:, 1]
            return a * b * c * r ** 2 * np.sin(th)

        return [(ranges, point, jac)]
    lx, ly, lz = p              # box; DomainSpec admits no other family
    ranges = [(0.0, lx), (0.0, ly), (0.0, lz)]
    return [(ranges, lambda q: q, lambda q: np.ones(len(q)))]


def integrate_boundary(spec, integrand):
    """Integrate ``integrand(points, inner_normals) -> values`` over the
    smooth boundary."""
    total = 0.0
    for ranges, point, weight, normal in boundary_patches(spec):
        def f(params):
            pts = point(params)
            return integrand(pts, normal(params)) * weight(params)

        if len(ranges) == 1:
            total += adaptive_interval(lambda t: f(t.reshape(-1, 1)), *ranges[0])
        else:
            total += adaptive_tensor(f, ranges)
    return total


def integrate_volume(spec, integrand):
    """Integrate ``integrand(points) -> values`` over the smooth domain."""
    total = 0.0
    for ranges, point, jac in volume_patches(spec):
        def f(params):
            return integrand(point(params)) * jac(params)

        total += adaptive_tensor(f, ranges)
    return total
