"""Exception types raised across the package."""


class FormSteklovError(Exception):
    """Base class for all package errors."""


class InvalidDomainError(FormSteklovError):
    """Domain parameters are out of range (non-positive sizes, r_in >= r_out, ...)."""


class MeshFormatError(FormSteklovError):
    """A mesh file has a malformed header or body; its subclasses flag
    meshes whose geometry or topology is unusable."""


class NonManifoldError(MeshFormatError):
    """A codimension-one simplex is shared by more than two top simplices,
    or the boundary complex is not closed."""


class OrientationError(MeshFormatError):
    """A top simplex has non-positive signed volume."""


class DegenerateSimplexError(MeshFormatError):
    """A simplex has (numerically) zero volume."""


class SingularSystemError(FormSteklovError):
    """A linear system that the contract guarantees to be invertible is
    numerically singular."""


class QuadratureError(FormSteklovError):
    """An adaptive quadrature failed to reach the requested tolerance."""


class UnknownCheckError(FormSteklovError):
    """Unknown verification check identifier."""


class ConvergenceError(FormSteklovError):
    """An iterative eigensolver did not converge, or its eigenpairs miss
    the residual tolerance."""
