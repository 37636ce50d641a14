"""Exception types shared across the package, and its one kind guard."""

from __future__ import annotations


class HfkitError(Exception):
    pass


class ForeignHandleError(HfkitError):
    """A set handle was used with a universe it does not belong to, or names no set of it."""


class LimitExceededError(HfkitError):
    """A configured size guard (node limit, numeral bound, output size) was hit."""


class CyclicError(HfkitError):
    """A pointed graph has a cycle reachable from its root.

    `cycle` lists the offending vertices in order; the last vertex has an
    edge back to the first.
    """

    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"cycle through vertices {self.cycle}")


class ValidationError(HfkitError):
    """An order structure violates one of its axioms."""


class WellfoundednessError(ValidationError):
    def __init__(self, cycle):
        self.cycle = list(cycle)
        super().__init__(f"relation has a cycle through {self.cycle}")


class ExtensionalityError(ValidationError):
    def __init__(self, x, y):
        self.pair = (x, y)
        super().__init__(f"elements {x} and {y} have identical predecessor sets")


class TransitivityError(ValidationError):
    def __init__(self, x, y, z):
        self.triple = (x, y, z)
        super().__init__(f"{x} < {y} < {z} but not {x} < {z}")


class NotAnOrdinalError(HfkitError):
    """Operation requires a hereditarily transitive set (or a matching presentation)."""


class SizeLimitError(HfkitError):
    """Brute-force oracle invoked beyond its guaranteed size bound."""


class FormatError(HfkitError, ValueError):
    """A document (text or JSON form of an ordinal, a mewo or a slice) is malformed."""


class ParseError(HfkitError):
    def __init__(self, line, col, message, expected=()):
        self.line = line
        self.col = col
        self.message = message
        self.expected = tuple(expected)
        detail = f"{line}:{col}: {message}"
        if self.expected:
            detail += " (expected " + " or ".join(sorted(self.expected)) + ")"
        super().__init__(detail)


class EvalError(HfkitError):
    """Type or binding error while evaluating a session statement."""


def _checked(kind: type, value):
    """value, which must be a `kind` (a bool is no int); else a ValidationError naming both kinds."""
    if not isinstance(value, kind) or (kind is int and type(value) is bool):
        article = "an" if kind.__name__[0] in "AEIOUaeiou" else "a"
        raise ValidationError(f"expected {article} {kind.__name__}, got {type(value).__name__}") from None
    return value
