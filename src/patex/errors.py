"""Exception hierarchy shared by every module.

Each class carries the process exit code the CLI returns for it (see
patex.cli): precondition violations exit 2, exhausted budgets exit 3,
degenerate numeric input exits 4.
"""


class PatexError(Exception):
    """Base class for all package errors."""

    exit_code = 2


class PreconditionError(PatexError, ValueError):
    """An operation was called outside its documented domain."""


class BudgetExceededError(PatexError, RuntimeError):
    """A node or instance budget ran out before the search finished.

    Raised instead of returning an approximation; carries the node count at
    the moment the budget tripped.
    """

    exit_code = 3

    def __init__(self, message: str, nodes: int | None = None):
        super().__init__(message)
        self.nodes = nodes


class DegenerateInputError(PatexError, ValueError):
    """Numeric input the envelope routines refuse to disambiguate."""

    exit_code = 4


class ToleranceError(DegenerateInputError):
    """Two argmin candidates sit closer than the working tolerance."""
