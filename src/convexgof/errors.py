"""Exception types shared across the package."""


class ConvexGofError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(ConvexGofError, ValueError):
    """A parameter violates an operation's preconditions."""


class NotStrictlyConvexError(InvalidParameterError):
    """The requested generator would not be strictly convex."""


class GeneratorSpecError(ConvexGofError, ValueError):
    """A generator specification string could not be parsed."""


class DataIngestionError(ConvexGofError, ValueError):
    """An input file could not be parsed into a sample."""


class NumericalError(ConvexGofError, ArithmeticError):
    """A computation produced a number that cannot be used, such as an overflow."""


class QuadratureError(NumericalError, RuntimeError):
    """Adaptive quadrature could not reach the requested tolerance."""


class EnumerationTooLargeError(ConvexGofError, ValueError):
    """Exact null enumeration would exceed the combinatorial budget."""
