"""Exception types shared across the package, in two families. The code that computes a value checks
it and raises `NumericalFailure` (or `NotPositiveDefinite`), with no numpy warning first; a public
function treats its arguments as outside input and raises `InvalidInput` (or `ParseError`)."""


class LogCoralError(Exception):
    """Base class for all errors raised by this package."""

    step = None  # `training.train` sets the number of the step that raised


class InvalidInput(LogCoralError):
    """A value from outside the library violates a documented precondition."""


class NumericalFailure(LogCoralError):
    """A check on a computed value failed: an eigendecomposition did not
    converge, or a value became non-finite; component names where it failed."""

    def __init__(self, message, component=None):
        self.component = component
        super().__init__(message)


class NotPositiveDefinite(NumericalFailure):
    """A spectrum a logarithm needs has an eigenvalue <= 0 (component "spd_eig")."""

    def __init__(self, eigenvalue):
        self.eigenvalue = eigenvalue
        super().__init__(f"matrix is not positive definite: eigenvalue {eigenvalue!r} <= 0", component="spd_eig")


class ParseError(InvalidInput):
    """Malformed external data file; carries the file and the offending line
    number, where they are known."""

    def __init__(self, message, line=None, path=None):
        self.line = line
        self.path = path
        where = [str(path)] if path is not None else []
        if line is not None:
            where.append(f"line {line}")
        super().__init__(f"{', '.join(where)}: {message}" if where else message)
