"""Exception types shared across the toolkit."""


class RelubarrierError(Exception):
    """Base class for all errors raised by this package."""


class MalformedProblem(RelubarrierError):
    """An LP or problem description has inconsistent shapes or senses."""


class NumericalFailure(RelubarrierError):
    """A numerical routine exceeded its iteration budget or lost feasibility."""


class DimensionMismatch(RelubarrierError):
    """Vector/matrix dimensions disagree with the network input dimension."""


class CombinatorialBlowup(RelubarrierError):
    """A combinatorial expansion would exceed its configured cap."""


class InfeasiblePolyhedron(RelubarrierError):
    """An operation required a nonempty polyhedron but got an empty one."""


class OracleTooLarge(RelubarrierError):
    """Exhaustive enumeration was requested for a network above the cap."""


class SearchExhausted(RelubarrierError):
    """The initial region search ran out of attempts."""


class NoRegions(RelubarrierError):
    """A certificate check was asked to run over an empty region list."""


class ExpressionError(RelubarrierError):
    """Base class for expression parsing/evaluation errors."""


class ExpressionSyntaxError(ExpressionError):
    """Malformed expression text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownIdentifier(ExpressionError):
    """An identifier that is neither a variable x<k> nor a known function."""


class VariableOutOfRange(ExpressionError):
    """A variable index outside 1..dim."""


class DomainError(ExpressionError):
    """An interval enclosure outside a function's domain (ln, division) or
    one that overflows; `evaluate` gives NaN or inf there instead."""


class ProblemFormatError(RelubarrierError, ValueError):
    """A problem or network file failed to parse or validate (a ValueError,
    as ``json.JSONDecodeError`` is)."""


class MissingField(ProblemFormatError):
    """A required field is absent from a problem or network file."""


class UnsupportedDimension(RelubarrierError):
    """An operation restricted by dimension (e.g. plotting) got the wrong n."""
