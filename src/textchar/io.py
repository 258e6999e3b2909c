"""Reading, writing and pooling of labeled embedding vectors, plus the
readers of the sweep and score tables that ``correlate`` joins.

A collection is held as columns: one float64 ``m x H`` matrix plus the
``ids``, ``labels`` and ``layers`` of its rows. Three interchangeable
on-disk formats:

* ``jsonl`` -- one object per line with a ``vector`` (or ``tokens``, a
  list of token vectors, for the token-level variant).
* ``csv`` -- header row with a ``label`` column, optional ``id`` and
  ``layer`` columns, and the remaining columns as numeric axes in order;
  columns may come in any order. The writer emits ``id,label,layer,d0,...``.
  A number in an axis cell, or in a score table cell, is an ASCII decimal
  with no leading ``+`` and no ``_``, or ``nan``, ``inf`` or ``-inf``.
* ``binary`` -- magic ``CMET``, version byte 1, float width byte (4 or 8),
  two reserved zero bytes, little-endian uint32 ``m`` and ``H``, then
  ``m * H`` little-endian floats row-major. Ids, labels, and layers live in
  a JSONL sidecar at ``<path>.meta.jsonl``, one JSON object per row in row
  order.

Every JSON-lines record, a sidecar row too, needs a ``label``; a missing
``layer`` is ``"default"``, and a missing ``id`` is ``"row-<n>"`` with
``n`` the record's 1-based position among the records of its label and
layer, so the n-th text of a class is one sampling unit at every layer.
The ``label``, ``id`` and ``layer`` present must be JSON strings: ``null``
and ``"None"``, or ``1`` and ``"1"``, are never read as one key. A
``vector`` or ``tokens`` holds JSON numbers only, never a string or
``true``.

Every fault inside a record is a ParseError naming its file and line: a key
or value of the wrong type, a cell that is not a number, a width other than
the first record's, a NaN or infinity, or the id, label and layer of an
earlier record. In a binary payload, a non-finite value is named at its byte
offset instead.

Every text file is read as UTF-8, and a byte-order mark at its start, as
a spreadsheet's "CSV UTF-8" export writes, is skipped.

The binary format round-trips float64 payloads bitwise; the text formats
round-trip exactly as well because every float is written with enough
decimal digits to be unambiguous.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import struct
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import AggregateMetrics
from .errors import ParseError

__all__ = [
    "FORMATS",
    "LabeledEmbeddings",
    "pool_token_file",
    "read_scores",
    "read_sweep",
    "read_vectors",
    "write_vectors",
]

FORMATS = ("csv", "jsonl", "binary")

_MAGIC = b"CMET"
_HEADER = struct.Struct("<4sBBxxII")  # magic, version, float width, m, H
_DTYPES = {4: np.dtype("<f4"), 8: np.dtype("<f8")}

DEFAULT_LAYER = "default"


@dataclass(eq=False)
class LabeledEmbeddings:
    """A float64 ``m x H`` matrix, ``(0, 0)`` when empty, plus the id, label
    and layer of each row."""

    vectors: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    ids: list[str] = field(default_factory=list)
    labels: list[str] = field(default_factory=list)
    layers: list[str] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not len(self.vectors) == len(self.ids) == len(self.labels) == len(self.layers):
            raise ValueError("vectors, ids, labels and layers need one entry per row")

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


def _columns(path: Path, records: Iterable[tuple[int, str, str, str, np.ndarray]]
             ) -> LabeledEmbeddings:
    """Collect ``(line, id, label, layer, vector)`` records of ``path`` into
    columns.

    The first record fixes the dimensionality. Records are checked in the
    order they arrive, so the first one of another width, with a non-finite
    value or with the id, label and layer of an earlier one is the one
    named, at its line.
    """
    ids, labels, layers, rows = [], [], [], []
    seen: set[tuple[str, str, str]] = set()
    for line, rec_id, label, layer, vector in records:
        if rows and vector.shape[0] != rows[0].shape[0]:
            raise ParseError(path, f"record {rec_id!r} has {vector.shape[0]} dimensions, "
                                   f"expected {rows[0].shape[0]}", line=line)
        _check_finite(path, rec_id, vector, line)
        _check_new(path, seen, rec_id, label, layer, line)
        ids.append(rec_id)
        labels.append(label)
        layers.append(layer)
        rows.append(vector)
    return LabeledEmbeddings(np.stack(rows) if rows else np.empty((0, 0)),
                             ids, labels, layers)


def _check_finite(path, rec_id: str, values: np.ndarray, line: int) -> None:
    """ParseError at ``line`` for the first NaN or infinity of a record's
    ``values``, a vector or a matrix of token rows, naming its axis."""
    finite = np.isfinite(values)
    if not finite.all():
        axis = np.argwhere(~finite)[0][-1]
        raise ParseError(path, f"record {rec_id!r} has a non-finite value on axis {axis}",
                         line=line)


def _check_new(path, seen: set, rec_id: str, label: str, layer: str, line: int) -> None:
    """ParseError at ``line`` when an earlier record of ``seen`` has the same
    id, label and layer; adds this record's to ``seen`` otherwise."""
    key = (rec_id, label, layer)
    if key in seen:
        raise ParseError(path, f"duplicate id {rec_id!r} for label {label!r}, "
                               f"layer {layer!r}", line=line)
    seen.add(key)


def _text_lines(path: Path, newline: str | None = None) -> Iterator[str]:
    """The lines of a UTF-8 text file, without a leading byte-order mark; a
    byte that is not UTF-8 is a ParseError naming its line."""
    with open(path, encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield from fh
        except UnicodeDecodeError as exc:
            # The decoder reads ahead of the lines it hands out; find the line.
            with open(path, "rb") as raw:
                line = next((n for n, text in enumerate(raw, start=1)
                             if text.decode("utf-8", "ignore").encode() != text), None)
            raise ParseError(path, f"not UTF-8 text: {exc.reason}", line=line) from exc


def _json(path: Path, text: str, line: int | None = None):
    """``json.loads(text)``, the text of ``path`` or of its line ``line``; a
    ParseError at ``line``, or at a decode error's line if that is None."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(path, f"invalid JSON: {exc.msg}",
                         line=exc.lineno if line is None else line) from exc
    except ValueError as exc:  # an integer longer than int() accepts
        raise ParseError(path, f"unreadable integer: {exc}", line=line) from exc
    except RecursionError as exc:
        raise ParseError(path, "invalid JSON: nested too deeply", line=line) from exc


def _json_records(path: Path, payload: str | None
                  ) -> Iterator[tuple[int, str, str, str, np.ndarray | None]]:
    """Yield ``(line number, id, label, layer, payload array)`` for each
    non-blank line of a JSONL file, by the record rule of this module. Each
    line must also hold the ``payload`` key, unless that is None (the array
    is None then), and its value must be numbers in nested lists: it is read
    as a float64 array, and a JSON string or boolean in it is a ParseError
    at the line, not ``"2.5"`` read as 2.5 or ``true`` as 1.0."""
    required = ("label",) if payload is None else ("label", payload)
    expected = "expected an object with " + " and ".join(repr(key) for key in required)
    positions: dict[tuple[str, str], int] = {}
    for lineno, line in enumerate(_text_lines(path), start=1):
        if not line.strip():
            continue
        obj = _json(path, line, lineno)
        if not isinstance(obj, dict) or any(key not in obj for key in required):
            raise ParseError(path, expected, line=lineno)
        for name in ("id", "label", "layer"):
            if not isinstance(obj.get(name, ""), str):
                raise ParseError(path, f"{name!r} is not a string", line=lineno)
        label, layer = obj["label"], obj.get("layer", DEFAULT_LAYER)
        n = positions[label, layer] = positions.get((label, layer), 0) + 1
        keys = (obj.get("id", f"row-{n}"), label, layer)
        if payload is None:
            yield lineno, *keys, None
            continue
        try:
            values = _floats(obj[payload], line)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(path, f"{payload!r} is not numeric: {exc}",
                             line=lineno) from exc
        yield lineno, *keys, values


def _floats(value, line: str) -> np.ndarray:
    """``np.asarray(value, float64)``, with its bits for every JSON number,
    but TypeError for a string or boolean in ``value``, which numpy would
    read as a number. Dtype inference finds a string; only a ``line`` that
    holds ``true`` or ``false`` is scanned for a boolean."""
    array = np.asarray(value)
    kind = array.dtype.kind
    if kind == "U" or kind == "O" and any(isinstance(v, str) for v in array.flat):
        raise TypeError("a JSON string is not a number")
    # A one-letter search is a memchr, and no key name holds "u" or "f".
    if ("u" in line and "true" in line or "f" in line and "false" in line) \
            and _holds_bool(value):
        raise TypeError("a JSON boolean is not a number")
    # An object array holds an integer beyond int64, a null or an object.
    return np.asarray(value if kind == "O" else array, dtype=np.float64)


def _holds_bool(value) -> bool:
    return isinstance(value, bool) or isinstance(value, list) and any(map(_holds_bool, value))


def read_vectors(path, format: str) -> LabeledEmbeddings:
    """Load a collection from one of the three formats.

    The dimensionality is taken from the first record and enforced on the
    rest. A record without a ``layer`` gets ``"default"``; one without an
    ``id`` gets ``"row-<n>"``, ``n`` being its 1-based position among the
    records of its label and layer.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    if format == "binary":
        return _read_binary(Path(path))
    records = {"jsonl": _jsonl_records, "csv": _csv_records}[format]
    return _columns(Path(path), records(Path(path)))


def write_vectors(embeddings: LabeledEmbeddings, path, format: str) -> None:
    """Write a collection so that ``read_vectors`` recovers it."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    writer = {"jsonl": _write_jsonl, "csv": _write_csv, "binary": _write_binary}[format]
    writer(embeddings, Path(path))


# --- jsonl ------------------------------------------------------------------

def _jsonl_records(path: Path) -> Iterator[tuple[int, str, str, str, np.ndarray]]:
    for lineno, rec_id, label, layer, vector in _json_records(path, "vector"):
        if vector.ndim != 1:
            raise ParseError(path, "'vector' must be a flat list of numbers",
                             line=lineno)
        if not vector.size:
            raise ParseError(path, "'vector' is empty", line=lineno)
        yield lineno, rec_id, label, layer, vector


def _write_jsonl(embeddings: LabeledEmbeddings, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec_id, label, layer, vector in zip(embeddings.ids, embeddings.labels,
                                                embeddings.layers, embeddings.vectors):
            fh.write(json.dumps({"id": rec_id, "label": label, "layer": layer,
                                 "vector": vector.tolist()}))
            fh.write("\n")


# --- csv --------------------------------------------------------------------

def _csv_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield the header row as line 1, if there is one, then each non-blank
    row with the physical line it ends on (a quoted cell may span lines).
    Every row after the header must have as many cells as the header."""
    lines = csv.reader(_text_lines(path, newline=""))
    try:
        header = next(lines, None)
        if header is None:
            return
        yield 1, header
        for row in lines:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(path, f"expected {len(header)} cells, got {len(row)}",
                                 line=lines.line_num)
            yield lines.line_num, row
    except csv.Error as exc:  # a cell past csv.field_size_limit(), for one
        raise ParseError(path, f"unreadable csv: {exc}", line=lines.line_num) from exc


# A number in a csv cell: an ASCII decimal with no leading "+" and no "_", or
# nan, inf or -inf in any case, with ASCII spaces around it. float() reads
# more: "+2.5", "1_5" and the digits of every script.
_DECIMAL = re.compile(r"\s*(-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:nan|-?inf(inity)?))\s*",
                      re.ASCII)


def _cell_float(cell: str) -> float:
    """``float(cell)`` for a cell that holds a ``_DECIMAL``; ValueError for
    any other."""
    if not _DECIMAL.fullmatch(cell):
        raise ValueError(f"could not convert string to float: {cell!r}")
    return float(cell)


def _reject_repeats(path: Path, header: list[str], names: Iterable[str]) -> None:
    for name in names:
        if header.count(name) > 1:
            raise ParseError(path, f"header repeats the {name!r} column", line=1)


def _csv_records(path: Path) -> Iterator[tuple[int, str, str, str, np.ndarray]]:
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None:
        raise ParseError(path, "missing header row", line=1)
    _reject_repeats(path, header, ("label", "id", "layer"))
    named = {name: i for i, name in enumerate(header) if name in ("label", "id", "layer")}
    if "label" not in named:
        raise ParseError(path, "header has no 'label' column", line=1)
    axis_cols = [i for i, name in enumerate(header) if i not in named.values()]
    positions: dict[tuple[str, str], int] = {}
    for lineno, row in rows:
        if not axis_cols:
            raise ParseError(path, "header has no axis column for this row",
                             line=lineno)
        label = row[named["label"]]
        layer = row[named["layer"]] if "layer" in named else DEFAULT_LAYER
        n = positions[label, layer] = positions.get((label, layer), 0) + 1
        rec_id = row[named["id"]] if "id" in named else f"row-{n}"
        try:
            vector = np.array([_cell_float(row[i]) for i in axis_cols],
                              dtype=np.float64)
        except ValueError as exc:
            raise ParseError(path, f"non-numeric axis value: {exc}", line=lineno) from exc
        yield lineno, rec_id, label, layer, vector


def _write_csv(embeddings: LabeledEmbeddings, path: Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "label", "layer"]
                        + [f"d{i}" for i in range(embeddings.dim)])
        for rec_id, label, layer, vector in zip(embeddings.ids, embeddings.labels,
                                                embeddings.layers, embeddings.vectors):
            writer.writerow([rec_id, label, layer]
                            + [format(v, ".17g") for v in vector.tolist()])


# --- binary -----------------------------------------------------------------

def _sidecar(path: Path) -> Path:
    return path.with_name(path.name + ".meta.jsonl")


def _read_binary(path: Path) -> LabeledEmbeddings:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ParseError(path, f"file too short for a {_HEADER.size}-byte header",
                             offset=len(head))
        magic, version, width, m, dim = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ParseError(path, f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
        if version != 1:
            raise ParseError(path, f"unsupported version {version}", offset=4)
        if width not in _DTYPES:
            raise ParseError(path, f"unsupported float width {width}", offset=5)
        if m and not dim:
            raise ParseError(path, f"{m} vectors of 0 dimensions", offset=12)
        size = os.fstat(fh.fileno()).st_size
        expected = _HEADER.size + m * dim * width
        if size != expected:
            raise ParseError(path, f"expected {expected} bytes for {m} x {dim} "
                                   f"x {width}-byte floats, got {size}",
                             offset=min(size, expected))
        # Read the payload straight into its matrix: float64 costs no copy,
        # float32 one converted copy.
        vectors = (np.fromfile(fh, dtype=_DTYPES[width], count=m * dim)
                   .reshape(m, dim).astype(np.float64, copy=False))

    sidecar = _sidecar(path)
    if not sidecar.exists():
        raise ParseError(path, f"missing metadata sidecar {sidecar.name!r}")
    ids, labels, layers, seen = [], [], [], set()
    for line, rec_id, label, layer, _ in _json_records(sidecar, None):
        _check_new(sidecar, seen, rec_id, label, layer, line)
        ids.append(rec_id)
        labels.append(label)
        layers.append(layer)
    if len(ids) != m:
        raise ParseError(sidecar, f"{len(ids)} metadata rows for {m} vectors")

    finite = np.isfinite(vectors)
    if not finite.all():
        row, axis = (int(i) for i in np.argwhere(~finite)[0])
        raise ParseError(path, f"record {ids[row]!r} has a non-finite value on axis {axis}",
                         offset=_HEADER.size + (row * dim + axis) * width)
    return LabeledEmbeddings(vectors, ids, labels, layers)


def _write_binary(embeddings: LabeledEmbeddings, path: Path,
                  float_width: int = 8) -> None:
    m, dim = embeddings.vectors.shape
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, 1, float_width, m, dim))
        fh.write(np.ascontiguousarray(embeddings.vectors,
                                      dtype=_DTYPES[float_width]).tobytes())
    with open(_sidecar(path), "w", encoding="utf-8") as fh:
        for rec_id, label, layer in zip(embeddings.ids, embeddings.labels,
                                        embeddings.layers):
            fh.write(json.dumps({"id": rec_id, "label": label, "layer": layer}))
            fh.write("\n")


# --- pooling ----------------------------------------------------------------

def _pooled_records(path: Path) -> Iterator[tuple[int, str, str, str, np.ndarray]]:
    """Mean-pool each sequence of a token-level file (``tokens`` instead of
    ``vector``) as it is read."""
    for lineno, rec_id, label, layer, matrix in _json_records(path, "tokens"):
        if matrix.shape == (0,):
            raise ParseError(path, f"sequence {rec_id!r} has no tokens", line=lineno)
        if matrix.ndim != 2:
            raise ParseError(path, "'tokens' must be a list of vectors of the same "
                                   "length", line=lineno)
        if not matrix.size:
            raise ParseError(path, f"sequence {rec_id!r} has tokens with no values",
                             line=lineno)
        _check_finite(path, rec_id, matrix, lineno)
        # np.mean's bits, a sum and one division, without its overhead. A
        # mean that overflows stays inf, without numpy's warning, for
        # _columns to name at its line.
        with np.errstate(over="ignore"):
            vector = matrix.sum(axis=0) / matrix.shape[0]
        yield lineno, rec_id, label, layer, vector


def pool_token_file(in_path, out_path) -> int:
    """Mean-pool every sequence of a token-level file into a vector file.

    Each vector is the arithmetic mean of its sequence's token vectors;
    marker tokens must already be left out. Ids, labels, and layers are
    preserved. Returns the number of sequences written. Sequences are pooled
    one at a time as they are read, and the first faulty one in file order
    is a ParseError at its line: unparsable or ragged tokens, a token value
    that is a string or boolean, no tokens, tokens with no values, a
    non-finite token value or mean, a width other than the first
    sequence's, or the id, label and layer of an earlier sequence. Nothing
    is written then.
    """
    pooled = _columns(Path(in_path), _pooled_records(Path(in_path)))
    write_vectors(pooled, out_path, "jsonl")
    return len(pooled)


# --- sweep tables and scores for correlate ----------------------------------

def _check_numbers(doc: dict, keys, whole=()) -> None:
    """TypeError for the first of ``keys`` whose value in ``doc`` is not a
    JSON number, an int or a float: ``float`` and ``int`` would read a
    string or a boolean as one. An absent value passes, and a null one only
    as ``homogeneity``, which a sweep row writes when it has none.
    ValueError for a value of one of ``whole`` that is not a whole number."""
    for key in keys:
        value = doc.get(key)
        if key not in doc or value is None and key == "homogeneity":
            continue
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            kind = {bool: "a boolean", str: "a string", type(None): "null"}.get(
                type(value), f"a {type(value).__name__}")
            raise TypeError(f"{key!r} is {kind}, not a number")
        if key in whole and isinstance(value, float) and not value.is_integer():
            raise ValueError(f"{key!r} is {value!r}, not a whole number")


def read_sweep(path) -> dict[float, AggregateMetrics]:
    """Load the ``final`` aggregate of each sweep row for ``correlate``,
    keyed by the row's fraction, in row order.

    Accepts either a full ``profile --fractions`` document or a bare list of
    rows, each an object with ``fraction`` and a ``final`` object as
    ``AggregateMetrics.to_dict`` writes it; ``size`` is optional and checked
    but not kept. Only ``diversity`` and ``density`` are required in
    ``final``: a missing ``density_log`` reads as NaN, a missing or null
    ``homogeneity`` as None, and a missing ``homogeneity_skipped`` as ``()``.
    A malformed document, a ``fraction``, ``size`` or metric value that is
    not a JSON number (a string, a boolean, or a null anywhere but in
    ``homogeneity``, say), a ``size`` that is not a whole number, a
    ``homogeneity_skipped`` that is not a list of strings, a fraction
    outside ``(0, 1]`` (NaN too), or a fraction that an earlier row holds
    raises ParseError naming the file and the 1-based row. A metric
    value may be ``Infinity``, as ``profile`` writes for a density beyond
    the float64 range.
    """
    path = Path(path)
    doc = _json(path, "".join(_text_lines(path)))
    raw_rows = doc.get("rows") if isinstance(doc, dict) else doc
    if not isinstance(raw_rows, list):
        raise ParseError(path, "expected a list of sweep rows or an object with 'rows'")
    if not raw_rows:
        raise ParseError(path, "no sweep rows")
    finals: dict[float, AggregateMetrics] = {}
    for number, raw in enumerate(raw_rows, start=1):
        if not (isinstance(raw, dict) and "fraction" in raw
                and isinstance(raw.get("final"), dict)):
            raise ParseError(path, f"row {number}: expected an object with "
                                   "'fraction' and a 'final' object")
        try:
            _check_numbers(raw, ("fraction", "size"), whole=("size",))
            fraction = float(raw["fraction"])
            final = raw["final"]
            _check_numbers(final, ("diversity", "density", "density_log", "homogeneity"))
            skipped = final.get("homogeneity_skipped", [])
            if not (isinstance(skipped, list) and all(isinstance(key, str) for key in skipped)):
                raise TypeError("'homogeneity_skipped' is not a list of strings")
            hom = final.get("homogeneity")
            metrics = AggregateMetrics(float(final["diversity"]), float(final["density"]),
                                       float(final.get("density_log", math.nan)),
                                       None if hom is None else float(hom), tuple(skipped))
        except KeyError as exc:
            raise ParseError(path, f"row {number}: 'final' has no {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(path, f"row {number}: {exc}") from exc
        if not 0.0 < fraction <= 1.0:
            raise ParseError(path, f"row {number}: fraction {fraction:g} is not in (0, 1]")
        if fraction in finals:
            # Every earlier row is in ``finals``, so its position is its row.
            raise ParseError(path, f"row {number}: repeats fraction {fraction:g} "
                                   f"of row {list(finals).index(fraction) + 1}")
        finals[fraction] = metrics
    return finals


def read_scores(path, fractions) -> dict[str, list[float]]:
    """Load a score table and join it to the sweep of ``fractions`` (the
    keys of ``read_sweep``'s dict, say): a csv header with a ``fraction``
    column and at least one score column, then one numeric row for each
    sweep fraction, in any order.

    Returns each score column by name, in header order, with one value per
    sweep fraction, in the order of ``fractions``. A malformed table, a
    score name holding a carriage return (which a csv writer may leave
    unquoted), a fraction outside ``(0, 1]`` (``nan`` too), a score that is
    not finite (``nan``, ``inf``, ``-inf`` or ``1e400``), a fraction that an
    earlier row holds, or one not in the sweep, raises ParseError naming the
    file and line; a sweep fraction with no row, one naming the file.
    """
    path = Path(path)
    rows = _csv_rows(path)
    _, header = next(rows, (1, None))
    if header is None or "fraction" not in header:
        raise ParseError(path, "expected a header with a 'fraction' column", line=1)
    _reject_repeats(path, header, header)
    names = [name for name in header if name != "fraction"]
    if not names:
        raise ParseError(path, "no score columns besides 'fraction'", line=1)
    for name in names:
        if "\r" in name:
            raise ParseError(path, f"score column {name!r} holds a carriage return",
                             line=1)
    table: dict[float, tuple[int, dict[str, float]]] = {}  # fraction: (line, scores)
    for lineno, row in rows:
        try:
            values = {name: _cell_float(cell) for name, cell in zip(header, row)}
        except ValueError as exc:
            raise ParseError(path, f"non-numeric cell: {exc}", line=lineno) from exc
        fraction = values.pop("fraction")
        if not 0.0 < fraction <= 1.0:
            raise ParseError(path, f"fraction {fraction:g} is not in (0, 1]", line=lineno)
        for name, value in values.items():
            if not math.isfinite(value):
                raise ParseError(path, f"score {name!r} is {value:g}, not a finite number",
                                 line=lineno)
        if fraction in table:
            raise ParseError(path, f"repeats fraction {fraction:g} of line "
                                   f"{table[fraction][0]}", line=lineno)
        if fraction not in fractions:
            raise ParseError(path, f"fraction {fraction:g} is not in the sweep", line=lineno)
        table[fraction] = lineno, values
    for fraction in fractions:
        if fraction not in table:
            raise ParseError(path, f"no row for sweep fraction {fraction:g}")
    return {name: [table[fraction][1][name] for fraction in fractions] for name in names}
