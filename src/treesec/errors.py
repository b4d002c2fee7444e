"""Exception types shared across the package.

Three failure categories map onto the CLI exit codes: malformed tree text
(ParseError), violated operation preconditions (GuardError), and refused
oversized requests (SizeError).  :func:`_count` is the one place where a
count argument (a leaf count, height, order, arity or level) is checked:
its type, its lower bound and its size guard.
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


def _count(value, name, low, high=None):
    """Return ``value`` if it is an int (not a bool) with ``low <= value``
    and, unless ``high`` is None, ``value <= high``.  Otherwise raise
    GuardError for a non-int or a value under ``low``, and SizeError for
    one over ``high``."""
    if type(value) is not int:
        raise GuardError(f"{name} must be an integer")
    if value < low:
        raise GuardError(f"{name} must be at least {low}")
    if high is not None and value > high:
        raise SizeError(f"{name} over guard ({high})")
    return value
