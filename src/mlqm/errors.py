"""The package's errors; the class decides the CLI's exit code."""


class MlqmError(Exception):
    """Base class for all package-specific errors."""


class ConfigurationError(MlqmError, ValueError):
    """The parameters or settings are invalid or outside what the package covers; the CLI exits 2."""


class NumericError(MlqmError, ArithmeticError):
    """A numerical layer failed: no convergence, a divergent norm, a non-elliptic ODE; the CLI exits 3."""
