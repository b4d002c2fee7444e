"""Exception types shared across the package.

Three failure categories map onto the CLI exit codes: malformed tree text
(ParseError), violated operation preconditions (GuardError), and refused
oversized requests (SizeError).
"""

__all__ = ["TreesecError", "ParseError", "GuardError", "SizeError"]


class TreesecError(ValueError):
    """Base class for all errors raised by this package."""


class ParseError(TreesecError):
    """Malformed tree input. ``offset`` is the byte offset of the problem,
    or None when the input has no meaningful position (e.g. JSON)."""

    def __init__(self, message, offset=None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message)


class GuardError(TreesecError):
    """A precondition of an operation does not hold for the given input."""


class SizeError(TreesecError):
    """The request exceeds a built-in size guard."""
