"""Exception types shared across the package. A failure's class is decided
where its check fires: `InvalidInput` for a value from outside the library,
`NumericalFailure` for a check on a value the library computed."""


class LogCoralError(Exception):
    """Base class for all errors raised by this package."""

    step = None  # `training.train` sets the number of the step that raised


class InvalidInput(LogCoralError):
    """A value from outside the library violates a documented precondition."""


class NotPositiveDefinite(LogCoralError):
    """Matrix has a non-positive eigenvalue where SPD is required."""

    def __init__(self, eigenvalue, message=None):
        self.eigenvalue = eigenvalue
        super().__init__(message or f"matrix is not positive definite: eigenvalue {eigenvalue!r} <= 0")


class NumericalFailure(LogCoralError):
    """A check on a computed value failed: an eigendecomposition did not
    converge, or a value became non-finite; component names where it failed."""

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
