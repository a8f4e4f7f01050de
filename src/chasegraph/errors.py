"""Exception types shared across the engine."""


class EngineError(Exception):
    """Base class for all chasegraph errors."""


class UnboundVariableError(EngineError):
    """A substitution was applied to a variable outside its domain."""


class NotTriggeredError(EngineError):
    """A homomorphism offered as a trigger does not map the body into the instance."""


class NotPermutableError(EngineError):
    """Two adjacent derivation steps cannot be swapped: the later trigger
    reads atoms produced by the earlier step."""


class SideConditionViolatedError(EngineError):
    """A reduction operation was invoked with parameters that fail its side condition."""


class NotCycleFreeError(EngineError):
    """Tree-decomposition extraction requires a fully reduced graph."""


class UnknownTermError(EngineError):
    """A term was looked up in a graph that never mentions it."""


class ResourceLimitError(EngineError):
    """A configured atom/derivation/state budget was exceeded.

    Raised explicitly instead of silently truncating results, so callers can
    distinguish "searched everything" from "gave up".  ``budget`` names the
    budget that tripped ("derivations", "atoms", "canonical-nodes" or
    "reduction-states") and ``limit`` is its value.
    """

    def __init__(self, message: str, budget: str = "", limit: int | None = None):
        super().__init__(message)
        self.budget = budget
        self.limit = limit


class ParseError(EngineError):
    """Rule-file syntax error, with 1-based source position."""

    def __init__(self, message: str, line: int = 0, column: int = 0):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        if self.line:
            return f"{self.line}:{self.column}: {self.message}"
        return self.message


class ArityMismatchError(ParseError):
    """The same predicate was used with two different arities."""


class EmptyBodyError(ParseError):
    """A rule was declared with no body atoms."""


class EmptyHeadError(ParseError):
    """A rule was declared with no head atoms."""
