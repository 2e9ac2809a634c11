"""Exception types shared across the package."""


class DegensinkError(Exception):
    """Base class for all errors raised by this package."""


class InfeasibleProjection(DegensinkError):
    """A marginal projection was requested onto a target that is not
    absolutely continuous w.r.t. the corresponding marginal of the
    reference coupling."""


class Assumption1Violated(DegensinkError):
    """The triple (R, mu, nu) does not allow the scaling iteration to be
    defined: some positive target mass sits on a row or column whose
    restricted reference marginal vanishes."""


class Assumption2Violated(DegensinkError):
    """An operation requiring full supports (mu, nu, and both marginals of
    R all positive) was called on a triple that does not have them."""


class DimensionTooLarge(DegensinkError):
    """Exact subset enumeration was requested beyond the size cap."""


class NotConverged(DegensinkError):
    """An iterative solver hit its iteration cap before meeting its
    stopping criterion.  ``result`` carries the partial output when one
    is available."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class OverflowDetected(DegensinkError):
    """A scaling potential of the literal recursion ``sinkhorn_step``
    became non-finite and its (c, 1/c) rescaling could not recover it.
    ``run_sinkhorn`` and the penalized solvers absorb their potentials into
    a log-kernel instead and do not raise it."""
