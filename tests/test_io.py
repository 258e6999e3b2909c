import json
import math

import numpy as np
import pytest

from textchar import analysis, cli, io
from textchar.errors import ParseError


def make_collection(rng, n=12, dim=4, labels=("pos", "neg"), layers=("L1", "L2")):
    return io.LabeledEmbeddings(
        vectors=rng.normal(size=(n, dim)),
        ids=[f"s{i}" for i in range(n)],
        labels=[labels[i % len(labels)] for i in range(n)],
        layers=[layers[i % len(layers)] for i in range(n)],
    )


# --- round-trips --------------------------------------------------------

@pytest.mark.parametrize("format", io.FORMATS)
def test_round_trip_is_exact(tmp_path, format):
    original = make_collection(np.random.default_rng(0))
    path = tmp_path / f"vectors.{format}"
    io.write_vectors(original, path, format)
    loaded = io.read_vectors(path, format)

    assert loaded.dim == original.dim
    assert len(loaded) == len(original)
    assert (loaded.ids, loaded.labels, loaded.layers) \
        == (original.ids, original.labels, original.layers)
    assert np.array_equal(loaded.vectors, original.vectors)


def test_round_trip_extreme_magnitudes(tmp_path):
    vectors = np.array([[1e-300, -1e300, 0.0, 1.0],
                        [2.2250738585072014e-308, 1.7976931348623157e308, -0.0, 3.14]])
    original = io.LabeledEmbeddings(vectors, ["r0", "r1"], ["a", "a"], ["L", "L"])
    for format in io.FORMATS:
        path = tmp_path / f"extreme.{format}"
        io.write_vectors(original, path, format)
        loaded = io.read_vectors(path, format)
        assert np.array_equal(loaded.vectors, original.vectors), format


def test_csv_quotes_awkward_labels(tmp_path):
    original = io.LabeledEmbeddings(np.array([[1.5]]), ["id,1"],
                                    ['label "x", y'], ["layer\n2"])
    path = tmp_path / "quoted.csv"
    io.write_vectors(original, path, "csv")
    loaded = io.read_vectors(path, "csv")
    assert (loaded.ids, loaded.labels, loaded.layers) \
        == (original.ids, original.labels, original.layers)


def test_binary_float32_round_trips_its_own_precision(tmp_path):
    rng = np.random.default_rng(8)
    original = make_collection(rng, n=5, dim=3)
    path = tmp_path / "vectors.bin"
    io._write_binary(original, path, float_width=4)
    loaded = io.read_vectors(path, "binary")
    assert np.array_equal(loaded.vectors,
                          original.vectors.astype(np.float32).astype(np.float64))


def test_jsonl_defaults_for_missing_id_and_layer(tmp_path):
    path = tmp_path / "bare.jsonl"
    path.write_text('{"label": "a", "vector": [1.0, 2.0]}\n'
                    '\n'
                    '{"label": "b", "vector": [3.0, 4.0]}\n')
    loaded = io.read_vectors(path, "jsonl")
    assert loaded.ids == ["row-1", "row-1"]  # the first record of each label
    assert loaded.layers == ["default", "default"]


@pytest.mark.parametrize("format", ["jsonl", "csv"])
def test_missing_ids_count_within_label_and_layer(tmp_path, format):
    # The classes come in another order at each layer; the n-th text of a
    # class is one sampling unit at both, so every layer keeps the same texts.
    keys = ["a,L1", "b,L1", "a,L1", "b,L2", "a,L2", "a,L2", "b,L1", "b,L2"]
    path = tmp_path / f"idless.{format}"
    path.write_text("label,layer,d0\n" + "".join(f"{k},{i}\n" for i, k in enumerate(keys))
                    if format == "csv" else "".join(
                        f'{{"label": "{k[0]}", "layer": "{k[2:]}", "vector": [{i}]}}\n'
                        for i, k in enumerate(keys)))
    loaded = io.read_vectors(path, format)
    assert loaded.ids == [f"row-{n}" for n in (1, 1, 2, 1, 1, 2, 2, 2)]
    for seed in range(8):
        half = analysis.downsample_sweep(loaded, [1.0, 0.5], seed=seed)[1]
        assert half.class_sizes == {"a": 1, "b": 1} and half.size == 2


def test_csv_handles_any_column_order(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("d0,label,d1,id,layer\n"
                    "1.5,pos,2.5,a,L1\n")
    loaded = io.read_vectors(path, "csv")
    assert loaded.labels == ["pos"] and loaded.ids == ["a"] and loaded.layers == ["L1"]
    assert np.array_equal(loaded.vectors, [[1.5, 2.5]])


# --- parse errors ------------------------------------------------------------

@pytest.mark.parametrize("width", [8, 4])
def test_binary_non_finite_value_names_its_offset(tmp_path, width):
    # Row 1, axis 2 of a 3 x 4 payload: 16 + (1 * 4 + 2) * width bytes in.
    vectors = np.arange(12.0).reshape(3, 4)
    vectors[1, 2], vectors[2, 0] = np.inf, np.nan
    path = tmp_path / "vectors.bin"
    io._write_binary(io.LabeledEmbeddings(vectors, ["a", "b", "c"], ["x"] * 3,
                                          ["L"] * 3), path, float_width=width)
    with pytest.raises(ParseError) as exc:
        io.read_vectors(path, "binary")
    assert str(exc.value) == (f"{path}, offset {16 + 6 * width}: "
                              "record 'b' has a non-finite value on axis 2")
    assert exc.value.offset == 16 + 6 * width and exc.value.line is None


def test_read_sweep_names_deep_nesting(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    with pytest.raises(ParseError) as exc:
        io.read_sweep(path)
    assert str(exc.value) == f"{path}: invalid JSON: nested too deeply"


def test_read_sweep_reads_back_the_finals_of_profile(tmp_path):
    collection = make_collection(np.random.default_rng(9), n=6, dim=3, labels=("a", "b"),
                                 layers=("L",))
    src, out = tmp_path / "vecs.jsonl", tmp_path / "sweep.json"
    io.write_vectors(collection, src, "jsonl")
    assert cli.main(["profile", "--input", str(src), "--format", "jsonl",
                     "--fractions", "1.0,0.5", "--cap", "3", "--out", str(out)]) == 0
    sweep = analysis.downsample_sweep(collection, [1.0, 0.5], homogeneity_cap=3)
    assert out.read_text() == json.dumps(io.sweep_document(sweep, 0), indent=2) + "\n"
    assert list(io.read_sweep(out).items()) == [(p.fraction, p.final) for p in sweep]
    assert sweep[0].final.homogeneity is not None and sweep[1].final.homogeneity_skipped
    # Only diversity and density are required, and only homogeneity may be null.
    for extra in ({}, {"homogeneity": None}):
        final = {"diversity": 1, "density": 2, **extra}
        out.write_text(json.dumps({"rows": [{"fraction": 1.0, "final": final}]}))
        (least,) = io.read_sweep(out).values()
        assert (least.diversity, least.density) == (1.0, 2.0) and math.isnan(least.density_log)
        assert least.homogeneity is None and least.homogeneity_skipped == ()


def test_read_scores_aligns_rows_to_the_sweep(tmp_path):
    # Score rows may come in any order; each column follows the sweep's.
    path = tmp_path / "scores.csv"
    path.write_text("fraction,acc,f1\n0.25,0.80,0.7\n1.0,0.95,0.9\n0.5,0.90,0.8\n")
    sweep = {1.0: None, 0.5: None, 0.25: None}
    assert io.read_scores(path, sweep) == {"acc": [0.95, 0.90, 0.80],
                                           "f1": [0.9, 0.8, 0.7]}
    assert io.read_scores(path, [0.25, 1.0, 0.5]) == {"acc": [0.80, 0.95, 0.90],
                                                      "f1": [0.7, 0.9, 0.8]}


_TEXTS = {
    "tokens": '{"id": "s", "label": "x", "tokens": [[1.0, 2.0], [0.5, 0.25]]}\n',
    "sweep": '{"rows": [{"fraction": 1.0, "final": {"diversity": 0.5, "density": 2.0, '
             '"density_log": 0.75, "homogeneity": 0.5}}]}\n',
    "scores": "fraction,acc\n1.0,0.9\n",
}


def _read_back(path, kind):
    """The file of ``kind`` at ``path`` (for "sidecar", the binary file the
    sidecar belongs to) read by its reader, as a comparable value."""
    if kind == "tokens":
        io.pool_token_file(path, path.with_suffix(".pooled"))
        return path.with_suffix(".pooled").read_bytes()
    if kind == "sweep":
        return io.read_sweep(path)
    if kind == "scores":
        return io.read_scores(path, [1.0])
    got = io.read_vectors(path, "binary" if kind == "sidecar" else kind)
    return got.ids, got.labels, got.layers, got.vectors.tolist()


@pytest.mark.parametrize("kind", ["jsonl", "csv", "sidecar", "tokens", "sweep", "scores"])
def test_leading_byte_order_mark_is_skipped(tmp_path, kind):
    # A spreadsheet's "CSV UTF-8" export starts its file with a UTF-8
    # byte-order mark; every text reader reads it as the file without one.
    read = []
    for name, bom in (("plain", b""), ("bom", b"\xef\xbb\xbf")):
        path = text_file = tmp_path / name
        if kind in _TEXTS:
            path.write_text(_TEXTS[kind], encoding="utf-8")
        else:
            io.write_vectors(make_collection(np.random.default_rng(5)), path,
                             "binary" if kind == "sidecar" else kind)
            if kind == "sidecar":
                text_file = tmp_path / f"{name}.meta.jsonl"
        text_file.write_bytes(bom + text_file.read_bytes())
        read.append(_read_back(path, kind))
    assert read[0] == read[1]


@pytest.mark.parametrize("header,name", [
    ("label,id,label,d0", "label"),
    ("id,label,id,d0", "id"),
    ("label,layer,d0,layer", "layer"),
])
def test_csv_rejects_repeated_named_column(tmp_path, header, name):
    path = tmp_path / "repeated.csv"
    path.write_text(header + "\n" + ",".join(["1.5"] * 4) + "\n")
    with pytest.raises(ParseError, match=f"line 1: header repeats the '{name}' column"):
        io.read_vectors(path, "csv")


def test_csv_line_numbers_count_physical_lines(tmp_path):
    # The quoted label spans lines 2-3, so the bad cell sits on line 5.
    path = tmp_path / "multiline.csv"
    path.write_text('label,d0\n"two\nlines",1.0\nx,2.0\ny,abc\n')
    with pytest.raises(ParseError, match="line 5: non-numeric axis value"):
        io.read_vectors(path, "csv")

    short = tmp_path / "short.csv"
    short.write_text('label,d0\n"two\nlines",1.0\n\ny\n')
    with pytest.raises(ParseError, match="line 5: expected 2 cells, got 1"):
        io.read_vectors(short, "csv")


def test_binary_sidecar_rows_follow_the_jsonl_rule(tmp_path):
    path = tmp_path / "meta.bin"
    io.write_vectors(make_collection(np.random.default_rng(4), n=3, dim=2),
                     path, "binary")
    sidecar = tmp_path / "meta.bin.meta.jsonl"
    rows = '{"label": "a"}\n\n{"label": "b", "layer": "L"}\n{"id": "c", "label": "7"}\n'
    sidecar.write_text(rows)
    loaded = io.read_vectors(path, "binary")
    assert loaded.ids == ["row-1", "row-1", "c"]
    assert loaded.labels == ["a", "b", "7"]
    assert loaded.layers == ["default", "L", "default"]

    # A label, id or layer must be a JSON string; the blank line 2 counts.
    sidecar.write_text(rows.replace('"7"', "7"))
    with pytest.raises(ParseError) as exc:
        io.read_vectors(path, "binary")
    assert str(exc.value) == f"{sidecar}, line 4: 'label' is not a string"

    sidecar.write_text('{"label": "a"}\n{"id": "b"}\n{"label": "c"}\n')
    with pytest.raises(ParseError) as exc:
        io.read_vectors(path, "binary")
    assert str(exc.value) == f"{sidecar}, line 2: expected an object with 'label'"


def test_binary_sidecar_holds_the_jsonl_records_without_vectors(tmp_path):
    original = make_collection(np.random.default_rng(5), n=4, dim=3)
    io.write_vectors(original, tmp_path / "v.jsonl", "jsonl")
    io.write_vectors(original, tmp_path / "v.bin", "binary")
    records = [json.loads(line) for line in (tmp_path / "v.jsonl").read_text().splitlines()]
    for record in records:
        assert record.pop("vector") is not None
    assert (tmp_path / "v.bin.meta.jsonl").read_text() \
        == "".join(json.dumps(record) + "\n" for record in records)


def test_binary_sidecar_row_count_must_match(tmp_path):
    path = tmp_path / "counted.bin"
    io.write_vectors(make_collection(np.random.default_rng(3), n=3, dim=2),
                     path, "binary")
    sidecar = tmp_path / "counted.bin.meta.jsonl"
    lines = sidecar.read_text().splitlines()
    sidecar.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ParseError, match="metadata rows"):
        io.read_vectors(path, "binary")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(ValueError, match="unknown format"):
        io.read_vectors(tmp_path / "x", "parquet")
    with pytest.raises(ValueError, match="unknown format"):
        io.write_vectors(io.LabeledEmbeddings(), tmp_path / "x", "parquet")


def test_columns_must_have_one_entry_per_row():
    with pytest.raises(ValueError, match="one entry per row"):
        io.LabeledEmbeddings(np.zeros((2, 3)), ["a"], ["x"], ["L"])


def test_a_file_without_records_reads_as_the_empty_collection(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    for empty in (io.LabeledEmbeddings(), io.read_vectors(path, "jsonl")):
        assert empty.vectors.shape == (0, 0) and empty.vectors.dtype == np.float64
        assert len(empty) == 0


# --- pooling -----------------------------------------------------------

def test_pool_token_file_defaults_id_and_layer(tmp_path):
    src = tmp_path / "tokens.jsonl"
    src.write_text('{"label": "x", "tokens": [[1.0, 2.0], [3.0, 4.0]]}\n'
                   '\n'
                   '{"label": "y", "layer": "L1", "tokens": [[5.0, 6.0]]}\n')
    dst = tmp_path / "pooled.jsonl"
    assert io.pool_token_file(src, dst) == 2
    loaded = io.read_vectors(dst, "jsonl")
    assert loaded.ids == ["row-1", "row-1"]
    assert loaded.layers == ["default", "L1"]
    assert np.array_equal(loaded.vectors, [[2.0, 3.0], [5.0, 6.0]])


def test_pool_token_file_rejects_ragged(tmp_path):
    ragged = tmp_path / "ragged.jsonl"
    ragged.write_text('{"id": "a", "label": "x", "tokens": [[1.0, 2.0], [3.0]]}\n')
    with pytest.raises(ParseError, match="line 1"):
        io.pool_token_file(ragged, tmp_path / "out.jsonl")

    flat = tmp_path / "flat.jsonl"
    flat.write_text('{"id": "a", "label": "x", "tokens": [1.0, 2.0]}\n')
    with pytest.raises(ParseError, match="same length"):
        io.pool_token_file(flat, tmp_path / "out.jsonl")


@pytest.mark.parametrize("lines, error, match", [
    (['{"id": "e", "label": "x", "tokens": []}'], ParseError,
     "line 1: sequence 'e' has no tokens"),
    (['{"id": "w", "label": "x", "tokens": [[]]}'], ParseError,
     "line 1: sequence 'w' has tokens with no values"),
    (['{"id": "ok", "label": "x", "tokens": [[1.0]]}',
      '{"id": "w", "label": "x", "tokens": [[], []]}'], ParseError,
     "line 2: sequence 'w' has tokens with no values"),
    (['{"id": "n", "label": "x", "tokens": [[1.0, NaN]]}'], ParseError,
     "line 1: record 'n' has a non-finite value on axis 1"),
    (['{"id": "a", "label": "x", "tokens": [[1.0]]}',
      '{"id": "b", "label": "x", "tokens": [[1.0, 2.0]]}'], ParseError,
     "line 2: record 'b' has 2 dimensions, expected 1"),
], ids=["empty", "zero-width", "zero-width-rows", "non-finite", "width"])
def test_pool_token_file_names_first_fault_in_file_order(tmp_path, lines, error, match):
    # Each sequence is pooled as it is read, so the first faulty sequence is
    # named although an unparsable line follows it.
    src = tmp_path / "tokens.jsonl"
    src.write_text("\n".join(lines + ["{oops"]) + "\n")
    out = tmp_path / "out.jsonl"
    with pytest.raises(error, match=match):
        io.pool_token_file(src, out)
    assert not out.exists()


def test_pool_token_file(tmp_path):
    src = tmp_path / "tokens.jsonl"
    src.write_text(
        '{"id": "a", "label": "x", "layer": "L1", "tokens": [[1.0, 3.0], [3.0, 5.0]]}\n'
        '{"id": "b", "label": "y", "layer": "L2", "tokens": [[10.0, 20.0]]}\n')
    dst = tmp_path / "pooled.jsonl"
    assert io.pool_token_file(src, dst) == 2
    loaded = io.read_vectors(dst, "jsonl")
    assert np.array_equal(loaded.vectors, [[2.0, 4.0], [10.0, 20.0]])
    assert loaded.layers[0] == "L1"
    assert loaded.labels[1] == "y"
