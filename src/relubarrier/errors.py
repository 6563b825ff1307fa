"""Exception types, one per way a caller handles a failure.

The command line prints a `RelubarrierError` as an ``error:`` line and
exits 3; `ProblemFormatError` is bad input (`ExpressionSyntaxError` bad
expression text, with its position); enumeration and branch-and-bound catch
`NumericalFailure` and `CombinatorialBlowup`; `verify_certificate` reports
`SearchExhausted`.  A call breaking a function's contract raises ValueError.
"""


class RelubarrierError(Exception):
    """Base class for all errors raised by this package."""


class ProblemFormatError(RelubarrierError, ValueError):
    """A problem or network file, or a value built from one, failed to parse
    or validate (a ValueError, as ``json.JSONDecodeError`` is)."""


class ExpressionSyntaxError(ProblemFormatError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class NumericalFailure(RelubarrierError):
    """A numerical routine exceeded its iteration budget or lost feasibility."""


class CombinatorialBlowup(RelubarrierError):
    """A combinatorial expansion would exceed its configured cap."""


class SearchExhausted(RelubarrierError):
    """The initial region search ran out of attempts."""
