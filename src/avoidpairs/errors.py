"""Shared exception types."""


class DomainError(ValueError):
    """An argument violates a documented precondition."""


class GuardError(RuntimeError):
    """A computation was refused because it exceeds a size guard."""


class InfeasibleError(RuntimeError):
    """A witness build found no graph of the requested order and size."""


class ScanAssertionError(AssertionError):
    """A scan run in assertion mode found a violating instance."""

    def __init__(self, message: str, failures: list):
        super().__init__(message)
        self.failures = failures
