"""Exception hierarchy shared across the package.

Two families: user-facing errors (bad input, exhausted budgets) and kernel
faults, which indicate an internal consistency violation and should never
surface on valid inputs.
"""

from __future__ import annotations


class BinoxError(Exception):
    """Base class for all package errors."""


class UsageError(BinoxError):
    """A command-line argument is malformed or out of range for its input."""


class GraphFormatError(BinoxError):
    """Malformed graph or map file."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UndefinedPort(BinoxError):
    """A walk asked for a port that does not exist at the current vertex."""


class InvalidMove(BinoxError):
    """An agent emitted a port outside 0..deg-1 at its current position."""


class NotSimplicial(BinoxError):
    """A vertex map does not send simplices to simplices."""


class NotACovering(BinoxError):
    """A projection handed to the lift checker is not a covering."""


class BudgetExceeded(BinoxError):
    """A hard enumeration cap was hit.

    ``what`` names the capped quantity ("simplices", "simple cycles",
    "search states"), ``cap`` is its budget and ``reached`` how many there
    were when the run stopped; all three are None where a caller raised
    it without them.  Search states are counted per expansion (the
    expanded loop's children within the move bound, repeats included), so
    ``reached`` can pass the cap by one loop's children.
    """

    def __init__(self, message: str, *, what: str | None = None,
                 cap: int | None = None, reached: int | None = None):
        super().__init__(message)
        self.what = what
        self.cap = cap
        self.reached = reached


class SearchBudgetExceeded(BudgetExceeded):
    """The contractibility search exhausted its state budget.

    Deliberately distinct from a False verdict: callers must not treat an
    exhausted search as a proof of non-contractibility.
    """


class KernelFault(BinoxError):
    """Internal invariant violated; indicates a bug, not bad input."""


class EquivalenceViolation(KernelFault):
    """Graph-covering and simplicial-covering checks disagreed on one map."""


class InconsistentStar(KernelFault):
    """Star completion derived two different endpoints for one port."""


class CoverVerificationFailed(KernelFault):
    """A finished development failed its covering/simply-connected audit."""


class CatalogVerificationFailed(KernelFault):
    """A catalog entry failed its build-time self checks."""
