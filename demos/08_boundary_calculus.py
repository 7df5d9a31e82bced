"""Exactness of the discrete boundary calculus.

The tangential and normal trace forms decompose the boundary energy of a
constant-coefficient field exactly (their sum is the boundary measure),
and the mesh-independent analytic quadratures reproduce the same numbers
on the smooth domain, which is what the harmonic-field ratio checks rely
on.
"""

import numpy as np

from formsteklov import feec, forms, mesh

spec = mesh.disk(3)
K = mesh.generate(spec)
bc = K.boundary_complex()
per = bc.top_volumes().sum()

xi = forms.parallel_form(2, (0,))          # the constant field dx
x = feec.interpolate(K, xi, 1)
nor = x @ (feec.normal_trace_form(K, 1) @ x)
Tr = feec.tangential_trace(K, 1)
tan = (Tr @ x) @ (feec.mass_matrix(bc, 1) @ (Tr @ x))
print(f"polygon:  tangential {tan:.8f} + normal {nor:.8f} "
      f"= {tan + nor:.8f} (perimeter {per:.8f})")

a_vol = feec.integrate_analytic(spec, xi, "vol_norm")
a_tan = feec.integrate_analytic(spec, xi, "tan_norm")
a_nor = feec.integrate_analytic(spec, xi, "nor_norm")
print(f"smooth:   tangential {a_tan:.8f} + normal {a_nor:.8f} "
      f"= {a_tan + a_nor:.8f} (2 pi = {2 * np.pi:.8f})")
print(f"volume norm of dx over the disk: {a_vol:.8f} (pi = {np.pi:.8f})")

# the exact integer identities behind it all
D0, D1 = mesh.coboundary(K, 0), mesh.coboundary(K, 1)
comm = feec.tangential_trace(K, 1) @ D0 - mesh.coboundary(bc, 0) @ feec.tangential_trace(K, 0)
print(f"D1 D0 = 0: {abs(D1 @ D0).max() == 0},  "
      f"trace commutes with d: {abs(comm).max() == 0}")
