"""Exception hierarchy shared across the package."""


class DaesemiError(Exception):
    """Base class for all package errors."""


class ShapeMismatch(DaesemiError):
    pass


class SingularAtLambda(DaesemiError):
    """lambda*E - A is (numerically) not invertible at the requested point."""


class NotRegularOnRay(DaesemiError):
    """A sample point on the real ray hit a generalized eigenvalue."""


class BasisMismatch(DaesemiError):
    pass


class AKerSingular(DaesemiError):
    """A restricted to the kernel chain is not invertible."""


class DimensionMismatch(DaesemiError):
    pass


class NonFiniteSample(DaesemiError):
    """The transform blew up at a contour node."""


class TailTooLarge(DaesemiError):
    """Truncation tail of the forward Laplace integral exceeds tolerance."""


class NotInXran(DaesemiError):
    pass


class InconsistentInitialValue(DaesemiError):
    pass


class SolverMismatch(DaesemiError):
    """Two independent solution methods disagree beyond cross tolerance."""


class LiftFailed(DaesemiError):
    """No preimage of the inhomogeneity under E within tolerance."""


class DecompositionUnavailable(DaesemiError):
    pass


class SmoothnessInsufficient(DaesemiError):
    pass


class DisjointnessViolated(DaesemiError):
    """The range space meets ker E nontrivially; propagator extraction refused."""


class ClosedFormUnavailable(DaesemiError):
    """Generator is too far from diagonalizable for exp-polynomial form."""


class GenerationFailed(DaesemiError):
    pass


class BadShape(DaesemiError):
    pass
