"""Exception types shared across the package."""

__all__ = [
    "VarioBernError",
    "ParameterError",
    "EvaluationError",
    "QuadratureError",
    "DegenerateSystemError",
    "ConstructionError",
]


class VarioBernError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(VarioBernError, ValueError):
    """A parameter is outside its admissible range; message names the bound."""


class EvaluationError(VarioBernError, ArithmeticError):
    """Evaluation produced a non-finite value or hit a domain restriction."""


class QuadratureError(VarioBernError, ArithmeticError):
    """Adaptive quadrature missed its accuracy gate or ran out of its cap."""


class DegenerateSystemError(VarioBernError, ValueError):
    """A linear system is singular (e.g. duplicate kriging sites)."""


class ConstructionError(VarioBernError, ValueError):
    """A model constructor was called with inconsistent inputs."""
