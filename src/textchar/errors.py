"""Exception types raised by the textchar library."""

from __future__ import annotations


class TextcharError(Exception):
    """Base class for all textchar errors."""

    def __reduce__(self):
        # Rebuild from the formatted message, not through a subclass's __init__.
        return Exception.__new__, (type(self), *self.args), self.__dict__


class DegenerateCluster(TextcharError):
    """All points of a cluster coincide, so the distance chain has no edges."""


class TooFewSamples(TextcharError):
    """An operation needs more samples than the cluster provides."""


class EmptyResult(TextcharError):
    """A sampling operation would return zero points."""


class DegenerateInput(TextcharError):
    """Correlation input is too short or has zero variance."""


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
