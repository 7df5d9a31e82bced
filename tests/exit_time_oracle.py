"""Direct route to the mean-exit time: the test oracle for the
Jacobi-preconditioned CG solve of ``formsteklov.scalar.mean_exit_time``.

One unpivoted symmetric factor of the interior P1 stiffness solves
Delta E = 1 with zero boundary values.  Fill grows quickly in three
dimensions, so this suits small meshes only.
"""

import numpy as np

from formsteklov import scalar
from formsteklov.linalg import symmetric_lu


def exit_time(K):
    """Vertex cochain of the discrete exit time by one sparse factor."""
    stiff, M0, _, interior = scalar._scalar_operators(K)
    load = M0 @ np.ones(K.n_simplices(0))
    E = np.zeros(K.n_simplices(0))
    E[interior] = symmetric_lu(stiff[np.ix_(interior, interior)]).solve(
        load[interior])
    return E
