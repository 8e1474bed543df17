"""Exception hierarchy shared across the package.

Everything raised deliberately by this library derives from EngineError so
callers can catch one type at the boundary (the CLI does exactly that).
"""

from __future__ import annotations


def printable(text: str) -> str:
    """`text` with each non-printable character escaped, so that a path
    from the command line reaches an error message inert."""
    return "".join(c if c.isprintable() else c.encode("unicode_escape").decode("ascii")
                   for c in text)


class EngineError(Exception):
    """Base class for all errors raised by this package on purpose."""


class ParseError(EngineError):
    """Raised on malformed program, form, query, or proportion-file text."""

    def __init__(self, message: str, *, source: str = "<string>", line: int = 0, col: int = 0):
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{printable(source)}:{line}:{col}: {message}")


class BudgetError(EngineError):
    """Base class for errors signalling an exhausted resource bound."""


class CompositionOverflowError(BudgetError):
    """A composition produced more rules than the configured cap allows."""

    def __init__(self, cap: int):
        self.cap = cap
        super().__init__(f"composition exceeded the rule cap of {cap}")


class FixpointBudgetError(BudgetError):
    """An iterated-composition closure failed to stabilise within its cap.

    The partially accumulated program is attached so callers can inspect
    how far the iteration got before giving up.
    """

    def __init__(self, cap: int, partial):
        self.cap = cap
        self.partial = partial
        super().__init__(f"closure did not reach a fixpoint within {cap} rounds")


class GroundingOverflowError(BudgetError):
    """Grounding a program would exceed the configured atom budget."""

    def __init__(self, limit: int):
        self.limit = limit
        super().__init__(f"grounding exceeded the atom budget of {limit}")


class FormEvalError(EngineError):
    """Raised when a program form cannot be evaluated against its arguments."""


class ProportionError(EngineError):
    """Raised on structurally invalid proportion problems."""
