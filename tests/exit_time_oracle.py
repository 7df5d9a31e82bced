"""Direct route to the mean-exit time: the test oracle for the
Jacobi-preconditioned CG solve of ``formsteklov.scalar.mean_exit_time``.

One unpivoted symmetric factor of the interior P1 stiffness solves
Delta E = 1 with zero boundary values.  Its load is the assembled P1 mass
applied to the constant 1, so it also checks the volume-share load of
the CG path.  Fill grows quickly in three dimensions, so this suits small
meshes only.
"""

import numpy as np

from formsteklov import feec, scalar
from formsteklov.linalg import symmetric_lu


def exit_time(K):
    """Vertex cochain of the discrete exit time by one sparse factor, with
    the assembled P1 mass applied to the constant 1 as the load."""
    stiff, _, interior = scalar._scalar_operators(K)
    load = feec.mass_matrix(K, 0) @ np.ones(K.n_simplices(0))
    E = np.zeros(K.n_simplices(0))
    E[interior] = symmetric_lu(stiff[np.ix_(interior, interior)]).solve(
        load[interior])
    return E
