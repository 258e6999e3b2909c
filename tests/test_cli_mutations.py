"""Every CLI subcommand on mutated inputs: an exit code, never a traceback.

Hypothesis breaks valid inputs the way real files break: truncated, dropped
or repeated lines, JSON values of the wrong type or deleted keys, numbers
beyond float64 (400-digit integers, ``1e400``) or not numbers (``NaN``),
csv rows with a cell missing or one too many, and repeated header names.
``simulate`` gets small sizes with non-finite or negative ``--radius`` and
``--spacing``. Whatever the input, ``cli.main`` must exit 0, 1 or 2; exit 1
prints exactly one ``textchar: error:`` line on stderr; no exception or
warning escapes (pytest turns warnings into errors); and a failed run leaves
no output file behind.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from textchar import cli
from textchar import io as textchar_io

HUGE_INT = "1" + "0" * 399  # 400 digits: beyond the float64 range

# Raw JSON texts that replace one value of a valid document.
BAD_VALUES = (HUGE_INT, "-" + HUGE_INT, "1e400", "-1e400", "NaN", "Infinity",
              "1e308", "-1e308", "1e-320", "0", '"x"', "null", "true", "[]", "{}",
              "[[]]", '[1.0, "a"]', "[[1.0], [2.0, 3.0]]", "[[[1.0]]]")
# Texts that replace one csv cell or are added as an extra one.
BAD_CELLS = (HUGE_INT, "1e400", "nan", "inf", "-inf", "1e308", "", "x", "fraction",
             "label")
# Flag values of simulate's --radius and --spacing.
BAD_SCALES = ("nan", "inf", "-inf", "-1", "0", "1e-300", "1e300", "2.5")

MUTATION = settings(max_examples=60, deadline=None, derandomize=True)
_PLACEHOLDER = "\x00"


def _paths(doc, path=()):
    """Every path of keys and indices into a JSON document, the root first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _mutate_json_line(data, text: str) -> str:
    """Replace one value of one JSON line by a bad raw text, or delete it."""
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    doc = json.loads(lines[i])
    path = data.draw(st.sampled_from(list(_paths(doc))))
    raw = data.draw(st.sampled_from(BAD_VALUES))
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = _PLACEHOLDER
        raw = json.dumps(doc).replace(json.dumps(_PLACEHOLDER), raw)
    lines[i] = raw + "\n"
    return "".join(lines)


def _mutate_csv(data, text: str) -> str:
    """Drop, add or replace one cell, or repeat a header name."""
    rows = [line.split(",") for line in text.splitlines()]
    i = data.draw(st.integers(0, len(rows) - 1))
    j = data.draw(st.integers(0, len(rows[i]) - 1))
    how = data.draw(st.sampled_from(["drop", "extra", "replace", "repeat header"]))
    if how == "drop":
        del rows[i][j]
    elif how == "extra":
        rows[i].insert(j, data.draw(st.sampled_from(BAD_CELLS)))
    elif how == "replace":
        rows[i][j] = data.draw(st.sampled_from(BAD_CELLS))
    else:
        rows[0][j] = data.draw(st.sampled_from(rows[0]))
    return "".join(",".join(row) + "\n" for row in rows)


def _mutate_lines(data, text: str) -> str:
    """Truncate the text, or drop, repeat or blank one line."""
    lines = text.splitlines(keepends=True)
    i = data.draw(st.integers(0, len(lines) - 1))
    how = data.draw(st.sampled_from(["truncate", "drop", "repeat", "blank"]))
    if how == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    lines[i:i + 1] = {"drop": [], "repeat": [lines[i]] * 2, "blank": ["\n"]}[how]
    return "".join(lines)


def _mutate(data, text: str, structured) -> str:
    if data.draw(st.booleans()):
        return structured(data, text)
    return _mutate_lines(data, text)


def _run(argv: list[str], outputs: list[Path]) -> None:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    err = stderr.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, code)
    if code == 0:
        assert err == [], err
    if code == 1:
        assert len(err) == 1 and err[0].startswith("textchar: error: "), err
    if code != 0:
        assert not any(path.exists() for path in outputs), argv


def _collection(scale: float) -> textchar_io.LabeledEmbeddings:
    """Two classes of 3 ids at two layers in 3 dimensions, axis 1 scaled."""
    rng = np.random.default_rng(101)
    keys = [(label, f"{label}{i}", layer) for label in ("pos", "neg")
            for i in range(3) for layer in ("l0", "l1")]
    labels, ids, layers = (list(column) for column in zip(*keys))
    vectors = rng.normal(size=(len(keys), 3))
    vectors[:, 1] *= scale
    return textchar_io.LabeledEmbeddings(vectors, ids, labels, layers)


@MUTATION
@given(scenario=st.sampled_from(sorted(cli._SCENARIOS)),
       dims=st.integers(0, 8), points=st.integers(0, 60), seed=st.integers(-1, 3),
       radius=st.none() | st.sampled_from(BAD_SCALES),
       spacing=st.none() | st.sampled_from(BAD_SCALES), chart=st.booleans())
def test_simulate_on_odd_flags(scenario, dims, points, seed, radius, spacing, chart):
    with tempfile.TemporaryDirectory() as tmp:
        out, chart_path = Path(tmp) / "out.csv", Path(tmp) / "chart.svg"
        argv = ["simulate", "--scenario", scenario, f"--dims={dims}",
                f"--points={points}", f"--seed={seed}", "--out", str(out)]
        if radius is not None:
            argv.append(f"--radius={radius}")
        if spacing is not None:
            argv.append(f"--spacing={spacing}")
        if chart:
            argv += ["--svg", str(chart_path)]
        _run(argv, [out, chart_path])


@MUTATION
@given(data=st.data(), fmt=st.sampled_from(["jsonl", "csv", "binary"]),
       scale=st.sampled_from([1.0, 1e160, 1e300, 1e-300, 0.0]), mutate=st.booleans(),
       fractions=st.sampled_from([None, "1.0,0.5", "0.5", "1.0,0.5,0.25", "0.5,1.0",
                                  "nan", "1e400", "0", ",", "x"]),
       cap=st.sampled_from([None, "3", "4", "5", "2", "x"]),
       seed=st.sampled_from(["0", "7", "11", "-1"]))
def test_profile_on_mutated_files(data, fmt, scale, mutate, fractions, cap, seed):
    # Unmutated files too: valid collections with one axis near the ends of
    # the float64 range, or constant, must profile without a warning.
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / f"in.{fmt}", Path(tmp) / "out.json"
        textchar_io.write_vectors(_collection(scale), src, fmt)
        if mutate and fmt == "binary":
            sidecar = Path(str(src) + ".meta.jsonl")
            if data.draw(st.booleans()):
                sidecar.write_text(_mutate(data, sidecar.read_text(), _mutate_json_line))
            else:
                raw = src.read_bytes()
                src.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif mutate:
            structured = _mutate_json_line if fmt == "jsonl" else _mutate_csv
            src.write_text(_mutate(data, src.read_text(), structured))
        argv = ["profile", "--input", str(src), "--format", fmt, "--out", str(out),
                f"--seed={seed}"]
        if fractions is not None:
            argv.append(f"--fractions={fractions}")
        if cap is not None:
            argv.append(f"--cap={cap}")
        _run(argv, [out])


@MUTATION
@given(data=st.data())
def test_pool_on_mutated_files(data):
    rng = np.random.default_rng(103)
    text = "".join(json.dumps({"id": f"s{i}", "label": "ab"[i % 2],
                               "tokens": rng.normal(size=(i % 3 + 1, 2)).tolist()}) + "\n"
                   for i in range(4))
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "tokens.jsonl", Path(tmp) / "pooled.jsonl"
        src.write_text(_mutate(data, text, _mutate_json_line))
        _run(["pool", "--input", str(src), "--out", str(out)], [out])


@MUTATION
@given(data=st.data(), which=st.sampled_from(["metrics", "scores"]))
def test_correlate_on_mutated_files(data, which):
    rows = [{"fraction": f, "size": int(100 * f),
             "final": {"diversity": 0.3 - 0.05 * k, "density": 40.0 + 2 * k,
                       "density_log": 3.7, "homogeneity": 0.9 - 0.01 * k,
                       "homogeneity_skipped": []}}
            for k, f in enumerate((1.0, 0.5, 0.25))]
    sweep = json.dumps({"kind": "sweep", "seed": 0, "rows": rows}) + "\n"
    scores = "fraction,acc,f1\n1.0,0.93,0.9\n0.5,0.91,0.85\n0.25,0.88,0.86\n"
    if which == "metrics":
        sweep = _mutate(data, sweep, _mutate_json_line)
    else:
        scores = _mutate(data, scores, _mutate_csv)
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path, scores_path = Path(tmp) / "sweep.json", Path(tmp) / "scores.csv"
        metrics_path.write_text(sweep)
        scores_path.write_text(scores)
        out = Path(tmp) / "corr.csv"
        _run(["correlate", "--metrics", str(metrics_path), "--scores", str(scores_path),
              "--out", str(out)], [out])
