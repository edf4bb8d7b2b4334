"""Shared exception types."""


class ExactLimitError(ValueError):
    """An exact (brute-force) routine was asked to exceed its instance-size limit."""


class FieldError(ValueError):
    """A constructor argument was rejected; ``field`` names it, or is None when no one field is at fault."""

    def __init__(self, field: str | None, message: str):
        super().__init__(message)
        self.field = field
