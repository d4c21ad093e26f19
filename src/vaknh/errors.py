"""Exception hierarchy shared by the whole package."""


class VaknhError(Exception):
    """Base class for all errors raised by vaknh."""


class ExprSyntaxError(VaknhError):
    """Malformed expression source text.

    Carries the byte offset and the 1-based line/column of the first
    offending character.
    """

    def __init__(self, message, offset, line, column):
        super().__init__(f"{message} (line {line}, column {column}, offset {offset})")
        self.offset = offset
        self.line = line
        self.column = column


class EvalError(VaknhError):
    """Expression evaluation failure: unbound variable or domain error."""


class SystemFormatError(VaknhError):
    """Malformed or inconsistent system definition file."""


class AdmissibilityError(SystemFormatError):
    """A constraint expression references a dependent velocity."""


class LinearityError(SystemFormatError):
    """A system declared linear fails the sampled linearity verification."""


class NonlinearSystemError(VaknhError):
    """A linear-constraints-only operation was applied to a system whose
    constraints are not (verified) linear in the velocities."""


class SingularMatrixError(VaknhError):
    """The reduced dynamics matrix is numerically singular at a state."""

    def __init__(self, message, det, state=None):
        super().__init__(message)
        self.det = det
        self.state = state


class IntegrationError(VaknhError):
    """Time integration could not continue (step failure, singularity,
    domain error); carries the time at which it happened."""

    def __init__(self, message, t=None):
        super().__init__(message)
        self.t = t
