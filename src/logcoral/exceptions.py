"""Exception types shared across the package."""


class LogCoralError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(LogCoralError):
    """Input violates a documented precondition (shape, range, finiteness)."""


class NotPositiveDefinite(LogCoralError):
    """Matrix has a non-positive eigenvalue where SPD is required."""

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = eigenvalue
        super().__init__(message or f"matrix is not positive definite: eigenvalue {eigenvalue!r} <= 0")


class NumericalFailure(LogCoralError):
    """An eigendecomposition did not converge, or a value overflowed or became
    non-finite; component names the layer or loss where that is known."""

    def __init__(self, message, component=None):
        self.component = component
        super().__init__(message)


class ParseError(LogCoralError):
    """Malformed external data file; carries the file and the offending line
    number, where they are known."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        where = [str(path)] if path is not None else []
        if line is not None:
            where.append(f"line {line}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
