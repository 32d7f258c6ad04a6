"""Exception types shared across the package."""


class CloneError(Exception):
    """Base class for every error raised by this package."""


class DomainError(CloneError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class UnsupportedKindError(CloneError, TypeError):
    """The distribution kind does not support the requested operation."""


class InfeasibleMomentsError(CloneError, ValueError):
    """A Legendre moment pair violates the second-moment feasibility bound."""


class NonHermitianError(CloneError, ValueError):
    """A matrix expected to be Hermitian is not, beyond tolerance."""


class ParseError(CloneError, ValueError):
    """A textual specification could not be parsed."""

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position
