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
    """A triple lacks the supports an operation needs: ``default_thresholds``
    needs positive mu and positive row marginals of R, ``maximal_theta``
    positive total mass."""


class NotConverged(DegensinkError):
    """An iterative solver hit its iteration cap before meeting its
    stopping criterion.  ``result`` carries the partial output when one
    is available; the penalized Newton solvers also set ``steps``, the
    Newton steps taken, and ``grad_norm``, the final l1 norm of the dual
    gradient."""

    def __init__(self, message, result=None, steps=None, grad_norm=None):
        super().__init__(message)
        self.result = result
        self.steps = steps
        self.grad_norm = grad_norm


class OverflowDetected(DegensinkError):
    """A float left its range: a diverging potential of the literal
    recursion ``sinkhorn_step`` overflowed, a product of ``run_sinkhorn``'s
    absorbed kernel overflowed or a denominator of its updates underflowed
    to 0, or a total mass (``total_mass``) exceeds the float range.  Only
    masses near the float limits cause the last three (the potentials
    themselves are absorbed into a log-kernel)."""
