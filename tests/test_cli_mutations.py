"""CLI fault cases. Every run goes through ``_run``, which checks what any
input must give: ``cli.main`` exits 0, 1 or 2; exit 0 prints nothing on
stderr; exit 1 prints exactly one ``textchar: error:`` line; a run that
fails leaves none of its output files behind; and no exception or warning
escapes (pytest turns warnings into errors). The hypothesis tests break
valid inputs the way real files break, and the parametrized tables name
the faults that must fail at a given file and line.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from textchar import analysis, cli, simulation
from textchar import io as textchar_io
from textchar.errors import TextcharError

HUGE_INT = "1" + "0" * 399  # 400 digits: beyond the float64 range
LONG_INT = "1" * 4301  # one digit past the limit of int() on a decimal string
LATIN1 = "café".encode("latin-1")  # a byte that is not UTF-8

# Raw JSON texts that replace one value of a valid document.
BAD_VALUES = (HUGE_INT, "-" + HUGE_INT, "1e400", "-1e400", "NaN", "Infinity",
              "1e308", "-1e308", "1e-320", "0", "7", '"x"', "null", "true", "[]", "[1]",
              "{}", "[[]]", '[1.0, "a"]', "[[1.0], [2.0, 3.0]]", "[[[1.0]]]")
# Texts that replace one csv cell or are added as an extra one.
BAD_CELLS = (HUGE_INT, "1e400", "nan", "inf", "-inf", "1e308", "", "x", "fraction",
             "label", "+2.5", "１５", "٣")
# What the csv readers take as a number: an ASCII decimal with no leading "+"
# and no "_", or nan, inf or -inf. Python's float() reads all of BAD_CELLS but
# "", "x", "fraction" and "label".
DECIMAL = re.compile(r"\s*(-?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?|(?i:nan|-?inf(inity)?))\s*",
                     re.ASCII)
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


def _changed_record(before: str, after: str) -> tuple[int, object] | None:
    """The line number and JSON value of the one line that a mutation
    replaced, or None when the mutation did something else."""
    old, new = before.splitlines(), after.splitlines()
    changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if len(old) != len(new) or len(changed) != 1:
        return None
    try:
        return changed[0] + 1, json.loads(new[changed[0]])
    except ValueError:
        return None


def _key_fault(changed, payload: str | None) -> str | None:
    """The message that names the one mutated line of a JSON-lines file,
    when its reader must reject that line for its keys: not an object with
    ``label`` and ``payload`` (unless None), or an ``id``, ``label`` or
    ``layer`` that is not a JSON string. None otherwise."""
    if changed is None:
        return None
    line, record = changed
    required = ("label",) if payload is None else ("label", payload)
    if not (isinstance(record, dict) and all(key in record for key in required)):
        return f"line {line}: expected an object with " + " and ".join(
            repr(key) for key in required)
    for key in ("id", "label", "layer"):
        if key in record and not isinstance(record[key], str):
            return f"line {line}: {key!r} is not a string"
    return None


def _bad_element(value) -> bool:
    """Whether a JSON value holds, in a list at any depth, a boolean, a
    string, NaN or an infinity: an element that is not a finite number."""
    if isinstance(value, list):
        return any(map(_bad_element, value))
    return isinstance(value, (bool, str)) or (isinstance(value, float)
                                              and not math.isfinite(value))


def _element_fault(changed, payload: str) -> int | None:
    """The line of the one mutated JSON-lines record, when its ``payload``
    is a list that holds an element that is not a finite number."""
    if changed is None:
        return None
    line, record = changed
    if isinstance(record, dict) and isinstance(record.get(payload), list) \
            and _bad_element(record[payload]):
        return line
    return None


def _cell_fault(before: str, after: str, numbers_from: int) -> int | None:
    """The line of the one csv data row that a mutation broke: a cell
    dropped or added, or a cell at index ``numbers_from`` or later that is
    not a finite number. None otherwise."""
    old, new = before.splitlines(), after.splitlines()
    changed = [i for i, (a, b) in enumerate(zip(old, new)) if a != b]
    if len(old) != len(new) or len(changed) != 1 or changed[0] == 0 \
            or not new[changed[0]]:
        return None
    cells = new[changed[0]].split(",")
    if len(cells) != len(old[changed[0]].split(",")) or not all(
            DECIMAL.fullmatch(cell) and math.isfinite(float(cell))
            for cell in cells[numbers_from:]):
        return changed[0] + 1
    return None


def _unreadable(digits: str) -> str:
    """The readers' message for an integer that int() refuses, whose words
    differ across Python versions."""
    try:
        int(digits)
    except ValueError as exc:
        return f"unreadable integer: {exc}"
    raise AssertionError(f"int() reads {len(digits)} digits")


def _mutate(data, text: str, structured) -> str:
    if data.draw(st.booleans()):
        return structured(data, text)
    return _mutate_lines(data, text)


def _run(argv: list[str], outputs: list[Path]) -> tuple[int, list[str]]:
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
    return code, err


def _collection(scale: float, records: str) -> textchar_io.LabeledEmbeddings:
    """Two classes of 3 ids at two layers in 3 dimensions, axis 1 scaled.
    ``records`` is "all", "none" (an empty collection) or "short" (class
    "pos" lacks the record of one id at layer "l1")."""
    rng = np.random.default_rng(101)
    keys = [(label, f"{label}{i}", layer) for label in ("pos", "neg")
            for i in range(3) for layer in ("l0", "l1")]
    vectors = rng.normal(size=(len(keys), 3))
    vectors[:, 1] *= scale
    rows = [i for i in range(len(keys)) if records == "all" or records == "short" and i != 1]
    labels, ids, layers = ([keys[i][k] for i in rows] for k in range(3))
    return textchar_io.LabeledEmbeddings(vectors[rows], ids, labels, layers)


@MUTATION
@given(scenario=st.sampled_from(sorted(simulation.SWEEPS)),
       dims=st.integers(0, 8), points=st.integers(0, 60), seed=st.integers(-1, 3),
       radius=st.none() | st.sampled_from(BAD_SCALES),
       spacing=st.none() | st.sampled_from(BAD_SCALES), chart=st.booleans())
@example(scenario="outliers", dims=3, points=20, seed=0, radius="inf", spacing=None,
         chart=False)
@example(scenario="subclusters", dims=3, points=20, seed=0, radius=None, spacing="inf",
         chart=True)
@example(scenario="subclusters", dims=3, points=20, seed=0, radius="2.5", spacing="nan",
         chart=False)
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
        code, err = _run(argv, [out, chart_path])
        # The one scale flag that this scenario reads.
        name, value = {"outliers": ("radius", radius),
                       "subclusters": ("spacing", spacing)}.get(scenario, ("", None))
        if seed < 0:
            assert code == 2 and err[-1].endswith(
                f"argument --seed: must be >= 0, got {seed}"), err
        elif dims >= 1 and points >= 1 and value is not None \
                and not math.isfinite(float(value)):
            assert code == 1 and f"{name} must be finite" in err[0], err


@MUTATION
@given(data=st.data(), fmt=st.sampled_from(["jsonl", "csv", "binary"]),
       scale=st.sampled_from([1.0, 1e160, 1e300, 1e-300, 0.0]),
       records=st.sampled_from(["all", "none", "short"]), mutate=st.booleans(),
       fractions=st.sampled_from([None, "1.0,0.5", "0.5", "1.0,0.5,0.25", "0.5,1.0",
                                  "nan", "1e400", "0", ",", "x"]),
       cap=st.sampled_from([None, "3", "4", "5", "2", "x"]),
       seed=st.sampled_from(["0", "7", "11", "-1"]))
@example(data=None, fmt="jsonl", scale=1.0, records="none", mutate=False,
         fractions=None, cap=None, seed="0")
@example(data=None, fmt="csv", scale=1.0, records="short", mutate=False,
         fractions=None, cap="3", seed="7")
def test_profile_on_mutated_files(data, fmt, scale, records, mutate, fractions, cap,
                                  seed):
    # Unmutated files too: valid collections with one axis near the ends of
    # the float64 range, or constant, must profile without a warning.
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / f"in.{fmt}", Path(tmp) / "out.json"
        textchar_io.write_vectors(_collection(scale, records), src, fmt)
        mutate = mutate and records != "none"  # no line to break
        fault = bad = None  # the message for a JSON line rejected for its keys, its file
        line = None  # the line of a record rejected for a number or cell in it
        if mutate and fmt == "binary":
            sidecar = Path(str(src) + ".meta.jsonl")
            if data.draw(st.booleans()):
                text = sidecar.read_text()
                sidecar.write_text(_mutate(data, text, _mutate_json_line))
                bad = sidecar
                fault = _key_fault(_changed_record(text, bad.read_text()), None)
            else:
                raw = src.read_bytes()
                src.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
        elif mutate:
            structured = _mutate_json_line if fmt == "jsonl" else _mutate_csv
            text = src.read_text()
            mutated = _mutate(data, text, structured)
            src.write_text(mutated, encoding="utf-8")
            bad = src
            if fmt == "jsonl":
                changed = _changed_record(text, mutated)
                fault = _key_fault(changed, "vector")
                line = _element_fault(changed, "vector")
            else:
                line = _cell_fault(text, mutated, 3)
        argv = ["profile", "--input", str(src), "--format", fmt, "--out", str(out),
                f"--seed={seed}"]
        if fractions is not None:
            argv.append(f"--fractions={fractions}")
        if cap is not None:
            argv.append(f"--cap={cap}")
        code, err = _run(argv, [out])
        if fractions in (",", "x") and code != 2:
            # The fraction list is parsed before the input is read.
            assert err == [f"textchar: error: cannot parse fraction list {fractions!r}"], err
        elif fault is not None and code != 2:
            assert err == [f"textchar: error: {bad}, {fault}"], err
        elif line is not None and code != 2:
            assert code == 1 and err[0].startswith(
                f"textchar: error: {bad}, line {line}: "), err
        if seed == "-1":
            assert code == 2 and err[-1].endswith(
                "argument --seed: must be >= 0, got -1"), err
        elif cap == "x":
            assert code == 2 and err[-1].endswith(
                "argument --cap: invalid int value: 'x'"), err
        if fractions is not None or code == 2:
            return
        try:
            profile = analysis.downsample_sweep(
                textchar_io.read_vectors(src, fmt), [1.0], seed=int(seed),
                homogeneity_cap=None if cap is None else int(cap))[0]
        except (TextcharError, OSError, ValueError) as exc:
            assert err == [f"textchar: error: {str(exc) or type(exc).__name__}"]
        else:
            assert out.read_text() == json.dumps({"kind": "profile", **profile.to_dict()},
                                                 indent=2) + "\n"


def _token_text() -> str:
    """Four sequences s0..s3 of 1 to 3 two-dimensional tokens."""
    rng = np.random.default_rng(103)
    return "".join(json.dumps({"id": f"s{i}", "label": "ab"[i % 2],
                               "tokens": rng.normal(size=(i % 3 + 1, 2)).tolist()}) + "\n"
                   for i in range(4))


@MUTATION
@given(data=st.data())
def test_pool_on_mutated_files(data):
    text = _token_text()
    mutated = _mutate(data, text, _mutate_json_line)
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "tokens.jsonl", Path(tmp) / "pooled.jsonl"
        src.write_text(mutated)
        _, err = _run(["pool", "--input", str(src), "--out", str(out)], [out])
    changed = _changed_record(text, mutated)
    fault = _key_fault(changed, "tokens")
    line = _element_fault(changed, "tokens")
    if fault is not None:
        assert err == [f"textchar: error: {src}, {fault}"], err
    elif line is not None:
        assert len(err) == 1 and err[0].startswith(
            f"textchar: error: {src}, line {line}: "), err
    elif changed:
        tokens = changed[1].get("tokens")
        if isinstance(tokens, list) and all(token == [] for token in tokens):
            assert len(err) == 1 and err[0].startswith(
                f"textchar: error: {src}, line {changed[0]}: sequence "), err


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
    line = None  # the line of a score row with a cell missing, added or not a number
    if which == "metrics":
        sweep = _mutate(data, sweep, _mutate_json_line)
    else:
        before, scores = scores, _mutate(data, scores, _mutate_csv)
        line = _cell_fault(before, scores, 0)
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path, scores_path = Path(tmp) / "sweep.json", Path(tmp) / "scores.csv"
        metrics_path.write_text(sweep)
        scores_path.write_text(scores, encoding="utf-8")
        out = Path(tmp) / "corr.csv"
        code, err = _run(["correlate", "--metrics", str(metrics_path),
                       "--scores", str(scores_path), "--out", str(out)], [out])
    if line is not None:
        assert code == 1 and err[0].startswith(
            f"textchar: error: {scores_path}, line {line}: "), err
    row = _bad_skipped_row(sweep)
    if row is not None:
        assert err == [f"textchar: error: {metrics_path}: row {row}: "
                       "'homogeneity_skipped' is not a list of strings"], err


def _bad_skipped_row(text: str) -> int | None:
    """The number of the one sweep row whose ``final`` holds a
    ``homogeneity_skipped`` that is not a list of strings, if there is one."""
    try:
        doc = json.loads(text)
    except ValueError:
        return None
    rows = doc.get("rows") if isinstance(doc, dict) else None
    for number, row in enumerate(rows if isinstance(rows, list) else (), start=1):
        final = row.get("final") if isinstance(row, dict) else None
        skipped = final.get("homogeneity_skipped", []) if isinstance(final, dict) else []
        if not (isinstance(skipped, list) and all(isinstance(key, str) for key in skipped)):
            return number
    return None


_SWEEP_ROWS = [{"fraction": f, "size": int(100 * f),
                "final": {"diversity": 0.3 - 0.1 * f, "density": 40.0 * f}}
               for f in (1.0, 0.5)]
_SCORES = "fraction,acc\n1.0,0.9\n0.5,0.8\n"  # one score per row of _SWEEP_ROWS


def _with(path, value):
    """The sweep rows with the value at ``path`` (row index, then keys) set."""
    rows = json.loads(json.dumps(_SWEEP_ROWS))
    *keys, last = path
    parent = rows
    for key in keys:
        parent = parent[key]
    parent[last] = value
    return rows


@pytest.mark.parametrize("sweep_rows, scores, message", [
    (_SWEEP_ROWS, "fraction,acc\n0.5,0.8\n1.0,0.9\n0.5,0.1\n",
     "scores.csv, line 4: repeats fraction 0.5 of line 2"),
    (_SWEEP_ROWS + _SWEEP_ROWS[:1], _SCORES,
     "sweep.json: row 3: repeats fraction 1 of row 1"),
    (_with((1, "fraction"), True), _SCORES,
     "sweep.json: row 2: 'fraction' is a boolean, not a number"),
    (_with((0, "size"), True), _SCORES,
     "sweep.json: row 1: 'size' is a boolean, not a number"),
    (_with((1, "final", "diversity"), True), _SCORES,
     "sweep.json: row 2: 'diversity' is a boolean, not a number"),
    (_with((0, "fraction"), "1.0"), _SCORES,
     "sweep.json: row 1: 'fraction' is a string, not a number"),
    (_with((1, "final", "density"), "2"), _SCORES,
     "sweep.json: row 2: 'density' is a string, not a number"),
    (_with((0, "size"), 2.7), _SCORES,
     "sweep.json: row 1: 'size' is 2.7, not a whole number"),
    (_SWEEP_ROWS, 'fraction,"a\rb"\n1.0,0.9\n0.5,0.8\n',
     "scores.csv, line 1: score column 'a\\rb' holds a carriage return"),
    (_with((0, "fraction"), 7), "fraction,acc\n7,0.9\n-3,0.8\n",
     "sweep.json: row 1: fraction 7 is not in (0, 1]"),
    (_with((1, "fraction"), -3), "fraction,acc\n1.0,0.9\n-3,0.8\n",
     "sweep.json: row 2: fraction -3 is not in (0, 1]"),
    (_with((0, "fraction"), float("nan")), "fraction,acc\nnan,0.9\n0.5,0.8\n",
     "sweep.json: row 1: fraction nan is not in (0, 1]"),
    (_with((1, "fraction"), float("inf")), _SCORES,
     "sweep.json: row 2: fraction inf is not in (0, 1]"),
    (_SWEEP_ROWS, "fraction,acc\n1.0,0.9\n0.5,0.8\nnan,0.7\n",
     "scores.csv, line 4: fraction nan is not in (0, 1]"),
    (_SWEEP_ROWS, "fraction,acc\n1e400,0.9\n0.5,0.8\n",
     "scores.csv, line 2: fraction inf is not in (0, 1]"),
    (_SWEEP_ROWS, "fraction,acc\n1.0,0.9\n0,0.8\n",
     "scores.csv, line 3: fraction 0 is not in (0, 1]"),
] + [
    (_with((1, "final", "homogeneity_skipped"), skipped), _SCORES,
     "sweep.json: row 2: 'homogeneity_skipped' is not a list of strings")
    for skipped in ("abc", 5, None, True, {"a/b": "x"}, ["a/b", 1], [["a/b"]])
] + [
    # float() reads 0_9 as 9.0; no JSON reader reads it at all.
    (_SWEEP_ROWS, "fraction,acc\n1.0,0_9\n0.5,0.8\n",
     "scores.csv, line 2: non-numeric cell: could not convert string to float: '0_9'"),
] + [
    # float() reads a leading "+" and the digits of every script too.
    (_SWEEP_ROWS, f"fraction,acc\n1.0,0.9\n0.5,{cell}\n",
     f"scores.csv, line 3: non-numeric cell: could not convert string to float: {cell!r}")
    for cell in ("+2.5", "１５", "٣")
] + [
    pytest.param("5", _SCORES, "sweep.json: expected an object with a list of sweep "
                 "rows in 'rows'", id="not-a-row-list"),
    pytest.param(json.dumps(_SWEEP_ROWS), _SCORES, "sweep.json: expected an object with "
                 "a list of sweep rows in 'rows'", id="bare-row-list"),
    pytest.param(_SWEEP_ROWS[:1] + [{"fraction": 0.5, "size": 50}], _SCORES,
                 "sweep.json: row 2: expected an object with 'fraction' and a 'final' "
                 "object", id="no-final"),
    pytest.param(_with((1, "final"), 5), _SCORES, "sweep.json: row 2: expected an "
                 "object with 'fraction' and a 'final' object", id="final-not-an-object"),
    pytest.param(_with((1, "final"), {"density": 2.0}), _SCORES,
                 "sweep.json: row 2: 'final' has no 'diversity'", id="final-without-diversity"),
    pytest.param(_with((1, "final", "diversity"), int(HUGE_INT)), _SCORES,
                 "sweep.json: row 2: int too large to convert to float", id="400-digit-metric"),
    pytest.param(_with((0, "size"), math.inf), _SCORES,
                 "sweep.json: row 1: 'size' is inf, not a whole number", id="infinite-size"),
    pytest.param(json.dumps(_with((1, "final", "diversity"), _PLACEHOLDER)).replace(
                     json.dumps(_PLACEHOLDER), LONG_INT), _SCORES,
                 f"sweep.json: {_unreadable(LONG_INT)}", id="4301-digit-metric"),
    pytest.param(_SWEEP_ROWS, "fraction,acc\n1.0,0.9\n0.5\n",
                 "scores.csv, line 3: expected 2 cells, got 1", id="short-score-row"),
    pytest.param(_SWEEP_ROWS, _SCORES + '0.25,"' + "1" * 200_000 + '"\n',
                 "scores.csv, line 4: unreadable csv: field larger than field limit (131072)",
                 id="cell-past-field-limit"),
] + [
    pytest.param(_SWEEP_ROWS, f"fraction,acc,{name}\n1.0,0.9,0.9\n0.5,0.8,0.5\n",
                 f"scores.csv, line 1: header repeats the {name!r} column",
                 id=f"repeated-{name}-column")
    for name in ("acc", "fraction")
] + [
    pytest.param(_SWEEP_ROWS, f"fraction,acc\n1.0,0.9\n0.5,{cell}\n",
                 f"scores.csv, line 3: score 'acc' is {value}, not a finite number",
                 id=f"{cell}-score")
    for cell, value in (("nan", "nan"), ("inf", "inf"), ("-inf", "-inf"), ("1e400", "inf"))
] + [
    pytest.param(_SWEEP_ROWS, "fraction,acc\n1.0,0.9\n0.25,0.8\n",
                 "scores.csv, line 3: fraction 0.25 is not in the sweep",
                 id="unmatched-fractions"),
    pytest.param(_SWEEP_ROWS, "fraction,acc\n1.0,0.9\n",
                 "scores.csv: no row for sweep fraction 0.5", id="missing-fraction"),
    pytest.param(_with((1, "final", "homogeneity"), True), _SCORES,
                 "sweep.json: row 2: 'homogeneity' is a boolean, not a number",
                 id="homogeneity-boolean"),
    pytest.param(_with((1, "final", "diversity"), [1]), _SCORES,
                 "sweep.json: row 2: 'diversity' is a list, not a number", id="diversity-list"),
    pytest.param([], _SCORES, "sweep.json: no sweep rows", id="no-sweep-rows"),
    pytest.param(_SWEEP_ROWS, "fraction\n1.0\n0.5\n",
                 "scores.csv, line 1: no score columns besides 'fraction'",
                 id="no-score-columns"),
] + [
    # Only homogeneity may be null; any other present key must be a number.
    pytest.param(_with((1, *path), None), _SCORES,
                 f"sweep.json: row 2: {path[-1]!r} is null, not a number",
                 id=f"{path[-1]}-null")
    for path in (("fraction",), ("size",), ("final", "diversity"), ("final", "density"),
                 ("final", "density_log"))
] + [
    pytest.param(_with((0, "fraction"), 0), _SCORES,
                 "sweep.json: row 1: fraction 0 is not in (0, 1]", id="fraction-0"),
    pytest.param(_SWEEP_ROWS, "acc\n0.9\n0.8\n",
                 "scores.csv, line 1: expected a header with a 'fraction' column",
                 id="no-fraction-column"),
])
def test_correlate_rejects_repeats_and_booleans(sweep_rows, scores, message):
    # A string is the sweep document's raw text. A message names the file it
    # blames by its name in the temporary directory.
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path, scores_path = Path(tmp) / "sweep.json", Path(tmp) / "scores.csv"
        metrics_path.write_text(sweep_rows if isinstance(sweep_rows, str)
                                else json.dumps({"kind": "sweep", "rows": sweep_rows}))
        scores_path.write_text(scores, encoding="utf-8")
        out = Path(tmp) / "corr.csv"
        code, err = _run(["correlate", "--metrics", str(metrics_path),
                          "--scores", str(scores_path), "--out", str(out)], [out])
        if message.startswith((metrics_path.name, scores_path.name)):
            message = str(Path(tmp) / message)
        assert code == 1 and err == [f"textchar: error: {message}"], err


def test_correlate_reads_infinite_metric_values():
    # profile writes Infinity for a density beyond the float64 range and
    # -Infinity for the log of a zero density; correlate must read both.
    rows = _with((0, "final", "density"), float("inf"))
    rows[1]["final"]["density_log"] = -float("inf")
    with tempfile.TemporaryDirectory() as tmp:
        metrics_path, scores_path = Path(tmp) / "sweep.json", Path(tmp) / "scores.csv"
        metrics_path.write_text(json.dumps({"kind": "sweep", "rows": rows}))
        scores_path.write_text("fraction,acc\n1.0,0.9\n0.5,0.8\n")
        out = Path(tmp) / "corr.csv"
        code, _ = _run(["correlate", "--metrics", str(metrics_path),
                        "--scores", str(scores_path), "--out", str(out)], [out])
        assert code == 0
        first, second = textchar_io.read_sweep(metrics_path).values()
    assert first.density == math.inf and second.density_log == -math.inf


def _broken_input(tmp: Path, kind: str, change) -> tuple[list[str], Path]:
    """The arguments of a run on a valid input whose line 2 record is
    replaced by ``change(record)``, and the file that holds that line.
    ``kind`` is "jsonl" or "sidecar" (profile) or "tokens" (pool)."""
    if kind == "tokens":
        src = bad = tmp / "tokens.jsonl"
        bad.write_text(_token_text())
        argv = ["pool"]
    else:
        fmt = "binary" if kind == "sidecar" else "jsonl"
        src = tmp / f"in.{fmt}"
        textchar_io.write_vectors(_collection(1.0, "all"), src, fmt)
        bad = Path(str(src) + ".meta.jsonl") if kind == "sidecar" else src
        argv = ["profile", "--format", fmt]
    lines = bad.read_text().splitlines(keepends=True)
    lines[1] = json.dumps(change(json.loads(lines[1]))) + "\n"
    bad.write_text("".join(lines))
    return argv + ["--input", str(src), "--out", str(tmp / "out.json")], bad


@pytest.mark.parametrize("kind, value, message", [
    ("sidecar", {"id": "pos0", "layer": "l1"}, "line 2: expected an object with 'label'"),
    ("tokens", [], "line 2: sequence 's1' has no tokens"),
    ("tokens", [[]], "line 2: sequence 's1' has tokens with no values"),
    ("tokens", [[], []], "line 2: sequence 's1' has tokens with no values"),
    ("jsonl", [0.1, 0.2, 0.3, 0.4], "line 2: record 'pos0' has 4 dimensions, expected 3"),
    ("tokens", [[0.1, 0.2, 0.3]], "line 2: record 's1' has 3 dimensions, expected 2"),
    ("sidecar", [1], "line 2: expected an object with 'label'"),
    ("tokens", [[1e308, 0.5], [1e308, 0.5]],
     "line 2: record 's1' has a non-finite value on axis 0"),
    ("jsonl", [[0.1, 0.2, 0.3]], "line 2: 'vector' must be a flat list of numbers"),
], ids=["sidecar-without-label", "no-tokens", "zero-width-token", "zero-width-tokens",
        "vector-width", "token-width", "sidecar-not-an-object", "overflowing-mean",
        "nested-vector"])
def test_record_faults_name_file_and_line(kind, value, message):
    # Line 2 becomes the sidecar row given, or gets the vector or tokens given.
    def change(record):
        if kind == "sidecar":
            return value
        return {**record, "tokens" if kind == "tokens" else "vector": value}

    with tempfile.TemporaryDirectory() as tmp:
        argv, bad = _broken_input(Path(tmp), kind, change)
        code, err = _run(argv, [Path(tmp) / "out.json"])
        assert code == 1 and err == [f"textchar: error: {bad}, {message}"], err


@pytest.mark.parametrize("value", [None, True, 7, [1], {}],
                         ids=["null", "true", "7", "list", "object"])
@pytest.mark.parametrize("key", ["label", "id", "layer"])
@pytest.mark.parametrize("kind", ["jsonl", "tokens", "sidecar"])
def test_non_string_keys_name_file_and_line(kind, key, value):
    # "label": null must not join a class "None", nor "id": 1 collide with "1".
    with tempfile.TemporaryDirectory() as tmp:
        argv, bad = _broken_input(Path(tmp), kind, lambda record: {**record, key: value})
        code, err = _run(argv, [Path(tmp) / "out.json"])
        assert code == 1 and err == [
            f"textchar: error: {bad}, line 2: {key!r} is not a string"], err


def _zero_width_file(path: Path, fmt: str) -> None:
    """Three records of label "a" whose vectors have no values."""
    if fmt == "jsonl":
        path.write_text('{"label": "a", "vector": []}\n' * 3)
    elif fmt == "csv":
        path.write_text("label\na\na\na\n")
    else:
        path.write_bytes(b"CMET\x01\x08\x00\x00" + (3).to_bytes(4, "little")
                         + (0).to_bytes(4, "little"))
        Path(str(path) + ".meta.jsonl").write_text('{"label": "a"}\n' * 3)


@pytest.mark.parametrize("fmt, where", [
    ("jsonl", "line 1: 'vector' is empty"),
    ("csv", "line 2: header has no axis column for this row"),
    ("binary", "offset 12: 3 vectors of 0 dimensions"),
])
def test_profile_rejects_zero_width_records(fmt, where):
    # The empty collection still round-trips; records with no values are a
    # ParseError at the record, not a failure deep in the metrics.
    with tempfile.TemporaryDirectory() as tmp:
        empty = Path(tmp) / f"empty.{fmt}"
        textchar_io.write_vectors(textchar_io.LabeledEmbeddings(), empty, fmt)
        assert len(textchar_io.read_vectors(empty, fmt)) == 0
        src, out = Path(tmp) / f"in.{fmt}", Path(tmp) / "out.json"
        _zero_width_file(src, fmt)
        code, err = _run(["profile", "--input", str(src), "--format", fmt,
                          "--out", str(out)], [out])
        assert code == 1 and err == [f"textchar: error: {src}, {where}"], err


# Two layers of class a whose ids differ by layer: the six records are six units.
_UNSHARED_LAYERS = "".join(
    json.dumps({"id": f"t{i}", "label": "a", "layer": f"L{1 + i // 3}",
                "vector": [float(i), float(i * i % 5), 0.5]}) + "\n" for i in range(6))


# A valid binary file of one 2-dimensional float64 vector, without its sidecar.
_BINARY = b"CMET\x01\x08\x00\x00" + bytes([1, 0, 0, 0, 2, 0, 0, 0]) + bytes(16)


@pytest.mark.parametrize("fmt, content, flags, message", [
    ("csv", b"", [], "{src}, line 1: missing header row"),
    ("binary", b"CMET\x01", [], "{src}, offset 5: file too short for a 16-byte header"),
    # Fraction 0.34 keeps 2 units, at seed 1 both from layer L1.
    ("jsonl", _UNSHARED_LAYERS.encode(), ["--fractions", "1.0,0.34", "--seed", "1"],
     "class 'a' has 0 points in layer 'L2' but 2 elsewhere"),
    ("csv", b"id,d0\na,1.0\n", [], "{src}, line 1: header has no 'label' column"),
    ("jsonl", b'{"label": "a", "vector": [1.0]}\n{"vector": [2.0]}\n', [],
     "{src}, line 2: expected an object with 'label' and 'vector'"),
    ("binary", b"XXXX" + _BINARY[4:], [], "{src}, offset 0: bad magic b'XXXX', expected b'CMET'"),
    ("binary", _BINARY[:4] + b"\x09" + _BINARY[5:], [], "{src}, offset 4: unsupported version 9"),
    ("binary", _BINARY[:5] + b"\x03" + _BINARY[6:], [],
     "{src}, offset 5: unsupported float width 3"),
    ("binary", _BINARY[:-4], [],
     "{src}, offset 28: expected 32 bytes for 1 x 2 x 8-byte floats, got 28"),
    ("binary", _BINARY, [], "{src}: missing metadata sidecar 'in.binary.meta.jsonl'"),
], ids=["csv-empty", "binary-short-header", "layer-keeps-no-rows", "csv-no-label",
        "jsonl-no-label", "binary-magic", "binary-version", "binary-float-width",
        "binary-truncated", "binary-no-sidecar"])
def test_profile_rejects_whole_file_faults(fmt, content, flags, message):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / f"in.{fmt}", Path(tmp) / "out.json"
        src.write_bytes(content)
        code, err = _run(["profile", "--input", str(src), "--format", fmt,
                          "--out", str(out), *flags], [out])
        assert code == 1 and err == [f"textchar: error: {message.format(src=src)}"], err


@pytest.mark.parametrize("cell, fault", [
    ("+2.5", "non-numeric axis value: could not convert string to float: '+2.5'"),
    ("１５", "non-numeric axis value: could not convert string to float: '１５'"),
    ("٣", "non-numeric axis value: could not convert string to float: '٣'"),
    ("nan", "record 'row-1' has a non-finite value on axis 0"),
    ("1e400", "record 'row-1' has a non-finite value on axis 0"),
    ("1_5", "non-numeric axis value: could not convert string to float: '1_5'"),
    ('"' + "1" * 200_000 + '"', "unreadable csv: field larger than field limit (131072)"),
], ids=["plus", "fullwidth", "arabic-indic", "nan", "1e400", "separator", "field-limit"])
def test_csv_cell_faults_name_file_and_line(cell, fault):
    # float() reads the first six; "+2.5", "１５", "٣" and "1_5" are not
    # ASCII decimals, and nan and 1e400 are not finite. The last cell is
    # longer than csv.field_size_limit().
    with tempfile.TemporaryDirectory() as tmp:
        src, out = Path(tmp) / "in.csv", Path(tmp) / "out.json"
        src.write_text(f"label,d0,d1\na,{cell},0.3\na,0.9,0.2\na,1.1,0.7\n",
                       encoding="utf-8")
        code, err = _run(["profile", "--input", str(src), "--format", "csv",
                          "--out", str(out)], [out])
        assert code == 1 and err == [f"textchar: error: {src}, line 2: {fault}"], err


@pytest.mark.parametrize("raw", ["NaN", "1e400", "true", '"x"', '"2.5"',
                                 '18446744073709551616, "2.5"', HUGE_INT, "false"],
                         ids=["nan", "1e400", "true", "x", "numeric-string",
                              "numeric-string-beside-uint64", "400-digits", "false"])
@pytest.mark.parametrize("kind", ["jsonl", "tokens"])
def test_element_faults_name_file_and_line(kind, raw):
    # Element 1 of line 2's vector, or of its first token, becomes ``raw``,
    # or elements 0 and 1 do when ``raw`` holds two: not a number, or not a
    # finite one. numpy reads true as 1.0 and "2.5" as 2.5, and beside an
    # integer beyond int64 it puts "2.5" in an object array; json reads a
    # 400-digit integer, which float64 cannot hold.
    key, rec_id = ("tokens", "s1") if kind == "tokens" else ("vector", "pos0")

    def change(record):
        row = record[key][0] if kind == "tokens" else record[key]
        row[1] = _PLACEHOLDER
        if "," in raw:
            del row[0]
        return record

    if raw in ("NaN", "1e400"):
        fault = f"record {rec_id!r} has a non-finite value on axis 1"
    elif raw == HUGE_INT:
        fault = f"{key!r} is not numeric: int too large to convert to float"
    else:
        fault = (f"{key!r} is not numeric: a JSON "
                 f"{'boolean' if raw in ('true', 'false') else 'string'} is not a number")
    with tempfile.TemporaryDirectory() as tmp:
        argv, bad = _broken_input(Path(tmp), kind, change)
        bad.write_text(bad.read_text().replace(json.dumps(_PLACEHOLDER), raw))
        code, err = _run(argv, [Path(tmp) / "out.json"])
        assert code == 1 and err == [f"textchar: error: {bad}, line 2: {fault}"], err


@pytest.mark.parametrize("raw, fault", [
    ("[" * 100000 + "]" * 100000, "invalid JSON: nested too deeply"),
    (LONG_INT, _unreadable(LONG_INT)),
    ("not json", "invalid JSON: Expecting value"),
], ids=["deep-nesting", "4301-digits", "not-json"])
@pytest.mark.parametrize("kind", ["jsonl", "tokens", "sidecar"])
def test_unreadable_json_names_file_and_line(kind, raw, fault):
    # Line 2 gets a "note" that json cannot read. Past its nesting limit json
    # raises RecursionError, and past int()'s digit limit ValueError, not a
    # decode error.
    with tempfile.TemporaryDirectory() as tmp:
        argv, bad = _broken_input(Path(tmp), kind,
                                  lambda record: {**record, "note": _PLACEHOLDER})
        bad.write_text(bad.read_text().replace(json.dumps(_PLACEHOLDER), raw))
        code, err = _run(argv, [Path(tmp) / "out.json"])
        assert code == 1 and err == [f"textchar: error: {bad}, line 2: {fault}"], err


@pytest.mark.parametrize("kind, keys, fault", [
    ("jsonl", {"layer": "l0"}, "line 2: duplicate id 'pos0' for label 'pos', layer 'l0'"),
    ("tokens", {"id": "s0", "label": "a"},
     "line 2: duplicate id 's0' for label 'a', layer 'default'"),
    ("sidecar", {"layer": "l0"}, "line 2: duplicate id 'pos0' for label 'pos', layer 'l0'"),
    ("csv", None, "line 5: duplicate id 'a1' for label 'a', layer 'L'"),
    ("jsonl", {"id": "row-1", "layer": "l0"},
     "line 2: duplicate id 'row-1' for label 'pos', layer 'l0'"),
    ("tokens", {"id": "row-1", "label": "a"},
     "line 2: duplicate id 'row-1' for label 'a', layer 'default'"),
    ("sidecar", {"id": "row-1", "layer": "l0"},
     "line 2: duplicate id 'row-1' for label 'pos', layer 'l0'"),
    ("jsonl", {"layer": "l0", "vector": [0.1, 0.2, 0.3, 0.4]},
     "line 2: duplicate id 'pos0' for label 'pos', layer 'l0'"),
    ("tokens", {"id": "s0", "label": "a", "tokens": [[0.1, 0.2, 0.3]]},
     "line 2: duplicate id 's0' for label 'a', layer 'default'"),
], ids=["jsonl", "tokens", "sidecar", "csv", "jsonl-row-1", "tokens-row-1", "sidecar-row-1",
        "jsonl-width", "tokens-width"])
def test_duplicate_records_name_file_and_line(kind, keys, fault):
    # Line 2 takes the id, label and layer of line 1, given in ``keys``; an
    # id "row-1" repeats line 1's once line 1 has no id, and a repeat of
    # another width is named for the repeat. The csv file repeats its first
    # row's keys on physical line 5, after a blank line.
    with tempfile.TemporaryDirectory() as tmp:
        if kind == "csv":
            bad = Path(tmp) / "in.csv"
            bad.write_text("id,label,layer,d0\na1,a,L,0.5\nb1,b,L,1.0\n\na1,a,L,1.5\n")
            argv = ["profile", "--format", "csv", "--input", str(bad),
                    "--out", str(Path(tmp) / "out.json")]
        else:
            argv, bad = _broken_input(Path(tmp), kind, lambda record: {**record, **keys})
            if keys.get("id") == "row-1":
                first, rest = bad.read_text().split("\n", 1)
                record = json.loads(first)
                del record["id"]
                bad.write_text(json.dumps(record) + "\n" + rest)
        code, err = _run(argv, [Path(tmp) / "out.json"])
        assert code == 1 and err == [f"textchar: error: {bad}, {fault}"], err


@pytest.mark.parametrize("kind", ["jsonl", "csv", "tokens", "sidecar", "sweep", "scores"])
def test_text_that_is_not_utf8_names_file_and_line(kind):
    with tempfile.TemporaryDirectory() as tmp:
        sweep, scores = Path(tmp) / "sweep.json", Path(tmp) / "scores.csv"
        sweep.write_text(json.dumps({"rows": _SWEEP_ROWS}))
        scores.write_text(_SCORES)
        if kind == "sidecar":
            src = Path(tmp) / "vectors.bin"
            src.write_bytes(b"CMET\x01\x08\x00\x00" + (2).to_bytes(4, "little")
                            + (1).to_bytes(4, "little") + np.float64(1.0).tobytes() * 2)
            bad = Path(tmp) / "vectors.bin.meta.jsonl"
            bad.write_bytes(b'{"label": "a"}\n{"label": "' + LATIN1 + b'"}\n')
            argv = ["profile", "--format", "binary", "--input", str(src)]
        elif kind in ("sweep", "scores"):
            bad = sweep if kind == "sweep" else scores
            bad.write_bytes({"sweep": b'[\n{"fraction": "' + LATIN1 + b'"}]\n',
                             "scores": b"fraction,acc\n1.0," + LATIN1 + b"\n"}[kind])
            argv = ["correlate", "--metrics", str(sweep), "--scores", str(scores)]
        else:
            bad = Path(tmp) / f"in.{kind}"
            bad.write_bytes({
                "jsonl": b'{"label": "a", "vector": [1.0]}\n{"label": "' + LATIN1
                         + b'", "vector": [2.0]}\n',
                "csv": b"label,d0\na,1.0\n" + LATIN1 + b",2.0\n",
                "tokens": b'{"label": "a", "tokens": [[1.0]]}\n{"label": "' + LATIN1
                          + b'", "tokens": [[2.0]]}\n',
            }[kind])
            argv = (["pool"] if kind == "tokens" else ["profile", "--format", kind]) \
                + ["--input", str(bad)]
        out = Path(tmp) / "out"
        code, err = _run(argv + ["--out", str(out)], [out])
        line = 3 if kind == "csv" else 2
        assert code == 1 and err[0].startswith(
            f"textchar: error: {bad}, line {line}: not UTF-8 text: "), err


@pytest.mark.parametrize("argv, code, message", [
    (["simulate", "--scenario", "bogus", "--dims", "2"], 2,
     "textchar simulate: error: argument --scenario: invalid choice: 'bogus'"),
] + [
    (["profile", "--input", "in.jsonl", "--format", "jsonl", "--cap", cap], 2,
     f"textchar profile: error: argument --cap: must be at least 3, got {cap}")
    for cap in ("2", "0", "-3")
] + [
    (["simulate", "--scenario", "downsample", "--dims", "0"], 1,
     "textchar: error: dim must be >= 1, got 0"),
    (["profile", "--input", "nope.jsonl", "--format", "jsonl"], 1,
     "textchar: error: [Errno 2] No such file or directory: 'nope.jsonl'"),
] + [
    # The fraction list is parsed before the input is looked for.
    (["profile", "--input", "nope.jsonl", "--format", "jsonl", "--fractions", raw], 1,
     f"textchar: error: cannot parse fraction list {raw!r}")
    for raw in ("1.0,,0.5", "1.0,0.5,", ",1.0")
] + [
    # The chart is written after the CSV; a chart that cannot be written
    # takes the CSV with it.
    (["simulate", "--scenario", "downsample", "--dims", "2", "--points", "20",
      "--svg", "nodir/chart.svg"], 1,
     "textchar: error: [Errno 2] No such file or directory: 'nodir/chart.svg'"),
] + [
    # The reader's open is the one check that an input exists.
    (["pool", "--input", "nope.jsonl"], 1,
     "textchar: error: [Errno 2] No such file or directory: 'nope.jsonl'"),
    (["correlate", "--metrics", "nope.json", "--scores", "scores.csv"], 1,
     "textchar: error: [Errno 2] No such file or directory: 'nope.json'"),
    (["correlate", "--metrics", "sweep.json", "--scores", "nope.csv"], 1,
     "textchar: error: [Errno 2] No such file or directory: 'nope.csv'"),
], ids=["bogus-scenario", "cap-2", "cap-0", "cap--3", "dims-0", "missing-input",
        "fractions-empty-entry", "fractions-trailing-comma", "fractions-leading-comma",
        "svg-in-missing-directory", "missing-pool-input", "missing-metrics",
        "missing-scores"])
def test_bad_arguments_name_the_fault(argv, code, message, tmp_path, monkeypatch):
    # The paths name files of a directory that holds only a valid sweep and
    # its score table.
    monkeypatch.chdir(tmp_path)
    Path("sweep.json").write_text(json.dumps({"kind": "sweep", "rows": _SWEEP_ROWS}))
    Path("scores.csv").write_text(_SCORES)
    got, err = _run(argv + ["--out", "out"], [Path("out")])
    assert got == code and err[-1].startswith(message), err
