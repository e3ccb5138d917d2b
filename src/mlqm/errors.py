"""Exception hierarchy shared across the package."""


class MlqmError(Exception):
    """Base class for all package-specific errors."""


class InvalidGridError(MlqmError, ValueError):
    """Momentum grid is malformed or too small for the requested stencil."""


class DomainError(MlqmError, ValueError):
    """Argument outside the mathematically valid domain."""


class EllipticityError(MlqmError, ValueError):
    """Leading ODE coefficient f(p) is not strictly positive."""


class DivergenceError(MlqmError, ArithmeticError):
    """State is not normalizable under the deformed measure."""


class NonConvergenceError(MlqmError, ArithmeticError):
    """Quadrature failed its node-doubling convergence check."""


class DegenerateModelError(MlqmError, ValueError):
    """Model parameters make the momentum-space reduction singular."""


class UnsupportedRegimeError(MlqmError, ValueError):
    """Parameters fall in a regime the closed-form machinery does not cover."""


class ComplexSpectrumError(MlqmError, ValueError):
    """Requested a bound-state object past the reality-breaking threshold."""


class ConstraintViolatedError(MlqmError, ValueError):
    """A precondition of a closed-form expression is violated."""


class ResolutionError(MlqmError, ValueError):
    """Requested more eigenvalues than the grid can resolve."""


class NumericError(MlqmError, ArithmeticError):
    """A numerical backend failed to converge."""
