"""Exception types shared across the package.

The CLI maps these onto exit codes: input/format problems exit 2,
exhausted enumeration budgets exit 3, failed verifications exit 1.
"""

from __future__ import annotations


class SoficError(Exception):
    """Base class for all errors raised by this package."""


class GraphFormatError(SoficError):
    """A graph or block-code description violates the external format."""


class EmptyShiftError(SoficError):
    """Trimming sources and sinks removed every vertex."""


class NotRightResolvingError(SoficError):
    """An operation that needs deterministic labeling got a graph without it."""


class BudgetExceededError(SoficError):
    """An enumeration grew past its configured element budget."""


class UnrealizableWordError(SoficError):
    """A periodic word has no bi-infinite labeled path in the graph."""


class LabelPathDiedError(SoficError):
    """Deterministic label-following hit a vertex without the next symbol."""


class VerificationError(SoficError):
    """A constructed object failed one of its own consistency assertions."""


def exit_code_for(exc: BaseException) -> int:
    """The process exit code an error maps to.

    2 = invalid input, 3 = budget exceeded, 1 = failed verification or any
    other error.  Shared by the CLI and by checks that assert the mapping.
    """
    if isinstance(
        exc,
        (GraphFormatError, EmptyShiftError, NotRightResolvingError, UnrealizableWordError),
    ):
        return 2
    if isinstance(exc, BudgetExceededError):
        return 3
    return 1
