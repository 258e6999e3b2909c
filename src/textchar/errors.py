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
    """A file could not be parsed.

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


class DimensionMismatch(TextcharError):
    """A record's vector length differs from the collection's dimensionality."""

    def __init__(self, record_id: str, expected: int, got: int):
        super().__init__(
            f"record {record_id!r} has {got} dimensions, expected {expected}"
        )
        self.record_id = record_id
        self.expected = expected
        self.got = got


class NonFiniteValue(TextcharError):
    """A record contains a NaN or infinite coordinate."""

    def __init__(self, record_id: str, axis: int):
        super().__init__(f"record {record_id!r} has a non-finite value on axis {axis}")
        self.record_id = record_id
        self.axis = axis
