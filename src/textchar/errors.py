"""Exception types raised by the textchar library.

``DegenerateInput`` says that a statistic is undefined on its input;
``InconsistentClassSize`` and ``ParseError`` say that a collection or a
record is malformed.
"""

from __future__ import annotations


class TextcharError(Exception):
    """Base class for all textchar errors."""

    def __reduce__(self):
        # Rebuild from the formatted message, not through a subclass's __init__.
        return Exception.__new__, (type(self), *self.args), self.__dict__


class DegenerateInput(TextcharError):
    """A statistic is undefined on this input: too few points, coincident
    points, a constant, short or non-finite correlation input, or a sample
    that keeps no point."""


class InconsistentClassSize(TextcharError):
    """A label's clusters differ in size across layers."""


class ParseError(TextcharError):
    """A file could not be parsed, or a record in it is faulty: of the wrong
    width or with a non-finite value, say.

    Carries the path and, when known, the 1-based line number (text formats)
    or byte offset (binary format) of the failure.
    """

    def __init__(self, path, message: str, line: int | None = None,
                 offset: int | None = None):
        where = str(path)
        if line is not None:
            where += f", line {line}"
        if offset is not None:
            where += f", offset {offset}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line
        self.offset = offset
