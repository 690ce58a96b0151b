"""Exception types shared by all engine modules."""


class DxError(Exception):
    """Base class for engine errors."""


class UndefinedValue(DxError):
    """A map was applied to a value it is not defined on."""


class NotGround(DxError):
    """An operation required a ground instance but got nulls."""


class UnboundVariable(DxError):
    """Formula evaluation hit a variable with no assigned value."""


class BudgetExceeded(DxError):
    """An exhaustive enumeration would exceed the configured budget."""


class PreconditionViolated(DxError):
    """An operation's structural precondition does not hold.

    ``reason`` is a stable token such as ``NotPacked`` or ``NotCore`` so
    callers can dispatch on it.
    """

    def __init__(self, reason: str, message: str = ""):
        self.reason = reason
        super().__init__(message or reason)


class NotUniversal(DxError):
    """The query cannot be rewritten into a prenex all-universal form."""


class NotHomomorphismClosed(DxError):
    """The query is not in the supported homomorphism-preserved fragment."""


class UnsupportedSemantics(DxError):
    """The requested semantics is undefined for this kind of mapping."""


class ParseError(DxError):
    """Syntax error in a mapping, instance, or query file."""

    def __init__(self, message: str, source: str = "?", line: int = 0, col: int = 0):
        self.source = source
        self.line = line
        self.col = col
        super().__init__(f"{source}:{line}:{col}: {message}")


class ArityMismatch(ParseError):
    pass


class UnknownRelation(ParseError):
    pass


class SchemaViolation(ParseError):
    pass
