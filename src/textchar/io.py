"""Reading, writing, pooling, and grouping of labeled embedding vectors,
plus the readers of the sweep and score tables that ``correlate`` joins.

A collection is held as columns: one float64 ``m x H`` matrix plus the
``ids``, ``labels`` and ``layers`` of its rows. Three interchangeable
on-disk formats:

* ``jsonl`` -- one object per line with required keys ``label`` and
  ``vector`` (or ``tokens``, a list of token vectors, for the token-level
  variant) and optional ``id`` and ``layer``.
* ``csv`` -- header row with a ``label`` column, optional ``id`` and
  ``layer`` columns, and the remaining columns as numeric axes in order;
  columns may come in any order. The writer emits ``id,label,layer,d0,...``.
* ``binary`` -- magic ``CMET``, version byte 1, float width byte (4 or 8),
  two reserved zero bytes, little-endian uint32 ``m`` and ``H``, then
  ``m * H`` little-endian floats row-major. Ids, labels, and layers live in
  a JSONL sidecar at ``<path>.meta.jsonl``, one JSON object per row in row
  order.

The binary format round-trips float64 payloads bitwise; the text formats
round-trip exactly as well because every float is written with enough
decimal digits to be unambiguous.
"""

from __future__ import annotations

import csv
import json
import struct
from collections.abc import Iterator
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import AggregateMetrics, SweepRow, SweepTable
from .errors import (
    DimensionMismatch,
    EmptySequence,
    NonFiniteValue,
    ParseError,
)

__all__ = [
    "FORMATS",
    "LabeledEmbeddings",
    "TokenSequence",
    "group_by_label",
    "mean_pool",
    "pool_token_file",
    "read_scores",
    "read_sweep",
    "read_token_sequences",
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


@dataclass(frozen=True, eq=False)
class TokenSequence:
    """Token-level embeddings of one text, an ``l x H`` matrix."""

    id: str
    label: str
    layer: str
    token_vectors: np.ndarray


def mean_pool(tokens) -> np.ndarray:
    """Arithmetic mean of the token vectors of one sequence.

    Sequence-start/separator/end marker vectors must already be excluded by
    whatever produced the tokens; everything passed in is averaged.
    """
    if isinstance(tokens, TokenSequence):
        arr = tokens.token_vectors
        seq_id = tokens.id
    else:
        arr = np.asarray(tokens, dtype=np.float64)
        seq_id = "<anonymous>"
    if arr.size == 0 or arr.shape[0] == 0:
        raise EmptySequence(seq_id)
    # A mean that overflows is returned as inf without numpy's warning;
    # callers that need finite vectors check for it.
    with np.errstate(over="ignore"):
        return np.asarray(arr, dtype=np.float64).mean(axis=0)


def _check_record(record_id: str, vector: np.ndarray, dim: int | None) -> int:
    if dim is not None and vector.shape[0] != dim:
        raise DimensionMismatch(record_id, dim, vector.shape[0])
    finite = np.isfinite(vector)
    if not finite.all():
        raise NonFiniteValue(record_id, int(np.argmin(finite)))
    return vector.shape[0]


def _check_unique(path, embeddings: LabeledEmbeddings) -> None:
    seen = set()
    for key in zip(embeddings.labels, embeddings.layers, embeddings.ids):
        if key in seen:
            label, layer, rec_id = key
            raise ParseError(path, f"duplicate id {rec_id!r} for label "
                                   f"{label!r}, layer {layer!r}")
        seen.add(key)


def _matrix(rows: list[np.ndarray]) -> np.ndarray:
    """Stack equal-length rows once; ``(0, 0)`` when there are none."""
    return np.stack(rows) if rows else np.empty((0, 0))


def _json_objects(path: Path, required: tuple[str, ...]) -> Iterator[tuple[int, dict]]:
    """Yield ``(line number, object)`` for each non-blank line of a JSONL
    file; every line must be a JSON object holding the ``required`` keys."""
    keys = " and ".join(repr(key) for key in required)
    expected = f"expected an object with {keys}" if required else "expected a JSON object"
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(path, f"invalid JSON: {exc.msg}", line=lineno) from exc
            if not isinstance(obj, dict) or any(key not in obj for key in required):
                raise ParseError(path, expected, line=lineno)
            yield lineno, obj


def read_vectors(path, format: str) -> LabeledEmbeddings:
    """Load a collection from one of the three formats.

    The dimensionality is taken from the first record and enforced on the
    rest. A record without a ``layer`` gets ``"default"``; one without an
    ``id`` gets ``"row-<n>"`` with ``n`` the 1-based data-row ordinal.
    """
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    reader = {"jsonl": _read_jsonl, "csv": _read_csv, "binary": _read_binary}[format]
    embeddings = reader(Path(path))
    _check_unique(path, embeddings)
    return embeddings


def write_vectors(embeddings: LabeledEmbeddings, path, format: str) -> None:
    """Write a collection so that ``read_vectors`` recovers it."""
    if format not in FORMATS:
        raise ValueError(f"unknown format {format!r}, expected one of {FORMATS}")
    writer = {"jsonl": _write_jsonl, "csv": _write_csv, "binary": _write_binary}[format]
    writer(embeddings, Path(path))


# --- jsonl ------------------------------------------------------------------

def _read_jsonl(path: Path) -> LabeledEmbeddings:
    ids, labels, layers, rows = [], [], [], []
    dim: int | None = None
    for ordinal, (lineno, obj) in enumerate(_json_objects(path, ("label", "vector")),
                                            start=1):
        rec_id = str(obj.get("id", f"row-{ordinal}"))
        try:
            vector = np.asarray(obj["vector"], dtype=np.float64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(path, f"'vector' is not numeric: {exc}",
                             line=lineno) from exc
        if vector.ndim != 1:
            raise ParseError(path, "'vector' must be a flat list of numbers",
                             line=lineno)
        dim = _check_record(rec_id, vector, dim)
        ids.append(rec_id)
        labels.append(str(obj["label"]))
        layers.append(str(obj.get("layer", DEFAULT_LAYER)))
        rows.append(vector)
    return LabeledEmbeddings(_matrix(rows), ids, labels, layers)


def _write_jsonl(embeddings: LabeledEmbeddings, path: Path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec_id, label, layer, vector in zip(embeddings.ids, embeddings.labels,
                                                embeddings.layers, embeddings.vectors):
            fh.write(json.dumps({"id": rec_id, "label": label, "layer": layer,
                                 "vector": vector.tolist()}))
            fh.write("\n")


# --- csv --------------------------------------------------------------------

def _read_csv(path: Path) -> LabeledEmbeddings:
    ids, labels, layers, rows = [], [], [], []
    dim: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        lines = csv.reader(fh)
        try:
            header = next(lines)
        except StopIteration:
            raise ParseError(path, "missing header row", line=1) from None
        for name in ("label", "id", "layer"):
            if header.count(name) > 1:
                raise ParseError(path, f"header repeats the {name!r} column", line=1)
        named = {name: i for i, name in enumerate(header)
                 if name in ("label", "id", "layer")}
        if "label" not in named:
            raise ParseError(path, "header has no 'label' column", line=1)
        axis_cols = [i for i, name in enumerate(header) if i not in named.values()]
        ordinal = 0
        for lineno, row in enumerate(lines, start=2):
            if not row:
                continue
            ordinal += 1
            if len(row) != len(header):
                raise ParseError(path, f"expected {len(header)} cells, got {len(row)}",
                                 line=lineno)
            rec_id = row[named["id"]] if "id" in named else f"row-{ordinal}"
            try:
                vector = np.array([float(row[i]) for i in axis_cols], dtype=np.float64)
            except ValueError as exc:
                raise ParseError(path, f"non-numeric axis value: {exc}",
                                 line=lineno) from exc
            dim = _check_record(rec_id, vector, dim)
            ids.append(rec_id)
            labels.append(row[named["label"]])
            layers.append(row[named["layer"]] if "layer" in named else DEFAULT_LAYER)
            rows.append(vector)
    return LabeledEmbeddings(_matrix(rows), ids, labels, layers)


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
    raw = path.read_bytes()
    if len(raw) < _HEADER.size:
        raise ParseError(path, f"file too short for a {_HEADER.size}-byte header",
                         offset=len(raw))
    magic, version, width, m, dim = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ParseError(path, f"bad magic {magic!r}, expected {_MAGIC!r}", offset=0)
    if version != 1:
        raise ParseError(path, f"unsupported version {version}", offset=4)
    if width not in _DTYPES:
        raise ParseError(path, f"unsupported float width {width}", offset=5)
    expected = _HEADER.size + m * dim * width
    if len(raw) != expected:
        raise ParseError(path, f"expected {expected} bytes for {m} x {dim} "
                               f"x {width}-byte floats, got {len(raw)}",
                         offset=min(len(raw), expected))
    vectors = (np.frombuffer(raw, dtype=_DTYPES[width], count=m * dim,
                             offset=_HEADER.size)
               .reshape(m, dim).astype(np.float64))

    sidecar = _sidecar(path)
    if not sidecar.exists():
        raise ParseError(path, f"missing metadata sidecar {sidecar.name!r}")
    meta = [obj for _, obj in _json_objects(sidecar, ())]
    if len(meta) != m:
        raise ParseError(sidecar, f"{len(meta)} metadata rows for {m} vectors")
    ids = [str(obj.get("id", f"row-{i}")) for i, obj in enumerate(meta, start=1)]

    finite = np.isfinite(vectors)
    if not finite.all():
        row, axis = np.argwhere(~finite)[0]
        raise NonFiniteValue(ids[row], int(axis))
    return LabeledEmbeddings(vectors, ids,
                             [str(obj.get("label", "")) for obj in meta],
                             [str(obj.get("layer", DEFAULT_LAYER)) for obj in meta])


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


# --- token sequences and grouping -------------------------------------------

def read_token_sequences(path) -> list[TokenSequence]:
    """Load the token-level JSONL variant (``tokens`` instead of ``vector``).

    An empty ``tokens`` list is preserved as a ``(0, 0)`` matrix; pooling is
    where it becomes an error, so the offending id can be named there.
    """
    path = Path(path)
    sequences: list[TokenSequence] = []
    for ordinal, (lineno, obj) in enumerate(_json_objects(path, ("label", "tokens")),
                                            start=1):
        rec_id = str(obj.get("id", f"row-{ordinal}"))
        tokens = obj["tokens"]
        if not isinstance(tokens, list):
            raise ParseError(path, "'tokens' must be a list of vectors", line=lineno)
        try:
            matrix = (np.asarray(tokens, dtype=np.float64)
                      if tokens else np.empty((0, 0)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(path, f"'tokens' is not a numeric matrix: {exc}",
                             line=lineno) from exc
        if tokens and matrix.ndim != 2:
            raise ParseError(path, "'tokens' rows must all have the same length",
                             line=lineno)
        if tokens and not np.isfinite(matrix).all():
            bad = np.argwhere(~np.isfinite(matrix))[0]
            raise NonFiniteValue(rec_id, int(bad[1]))
        sequences.append(TokenSequence(id=rec_id, label=str(obj["label"]),
                                       layer=str(obj.get("layer", DEFAULT_LAYER)),
                                       token_vectors=matrix))
    return sequences


def pool_token_file(in_path, out_path) -> int:
    """Mean-pool every sequence of a token-level file into a vector file.

    Ids, labels, and layers are preserved. Returns the number of sequences
    written. Nothing is written if a sequence has no tokens (EmptySequence)
    or a token width other than the first sequence's (DimensionMismatch);
    the first such sequence is named.
    """
    sequences = read_token_sequences(in_path)
    rows = []
    dim: int | None = None
    for seq in sequences:
        pooled = mean_pool(seq)
        dim = _check_record(seq.id, pooled, dim)
        rows.append(pooled)
    out = LabeledEmbeddings(_matrix(rows), [seq.id for seq in sequences],
                            [seq.label for seq in sequences],
                            [seq.layer for seq in sequences])
    _check_unique(in_path, out)
    write_vectors(out, out_path, "jsonl")
    return len(out)


def group_by_label(embeddings: LabeledEmbeddings) -> dict[tuple[str, str], np.ndarray]:
    """Partition records into one ``m x H`` cluster per (label, layer) pair.

    Insertion order of both the groups and the rows within a group follows
    the record order.
    """
    buckets: dict[tuple[str, str], list[int]] = {}
    for i, key in enumerate(zip(embeddings.labels, embeddings.layers)):
        buckets.setdefault(key, []).append(i)
    return {key: embeddings.vectors[idx] for key, idx in buckets.items()}


# --- sweep tables and scores for correlate ----------------------------------

def read_sweep(path) -> SweepTable:
    """Load sweep rows for ``correlate``.

    Accepts either a full ``profile --fractions`` document or a bare list of
    rows, each an object with ``fraction`` and a ``final`` object that
    ``AggregateMetrics.from_dict`` reads; ``size`` is optional. A malformed
    document raises ParseError naming the file and the 1-based row.
    """
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(path, f"invalid JSON: {exc.msg}", line=exc.lineno) from exc
    raw_rows = doc.get("rows") if isinstance(doc, dict) else doc
    if not isinstance(raw_rows, list):
        raise ParseError(path, "expected a list of sweep rows or an object with 'rows'")
    if not raw_rows:
        raise ParseError(path, "no sweep rows")
    rows = []
    for number, raw in enumerate(raw_rows, start=1):
        if not (isinstance(raw, dict) and "fraction" in raw
                and isinstance(raw.get("final"), dict)):
            raise ParseError(path, f"row {number}: expected an object with "
                                   "'fraction' and a 'final' object")
        try:
            rows.append(SweepRow(fraction=float(raw["fraction"]),
                                 size=int(raw.get("size", 0)),
                                 final=AggregateMetrics.from_dict(raw["final"])))
        except KeyError as exc:
            raise ParseError(path, f"row {number}: 'final' has no {exc.args[0]!r}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(path, f"row {number}: {exc}") from exc
    return SweepTable(rows=rows)


def read_scores(path) -> tuple[list[str], dict[float, dict[str, float]]]:
    """Load a score table: a csv header with a ``fraction`` column and at
    least one score column, then one numeric row per fraction.

    Returns the score names in header order and each fraction's scores. A
    malformed table raises ParseError naming the file and line.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        lines = csv.reader(fh)
        header = next(lines, None)
        if header is None or "fraction" not in header:
            raise ParseError(path, "expected a header with a 'fraction' column", line=1)
        names = [name for name in header if name != "fraction"]
        if not names:
            raise ParseError(path, "no score columns besides 'fraction'", line=1)
        table: dict[float, dict[str, float]] = {}
        for row in lines:
            if not row:
                continue
            if len(row) != len(header):
                raise ParseError(path, f"expected {len(header)} cells, got {len(row)}",
                                 line=lines.line_num)
            try:
                values = {name: float(cell) for name, cell in zip(header, row)}
            except ValueError as exc:
                raise ParseError(path, f"non-numeric cell: {exc}",
                                 line=lines.line_num) from exc
            table[values.pop("fraction")] = values
    return names, table
