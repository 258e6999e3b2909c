import json
import warnings
from xml.etree import ElementTree
from xml.sax import saxutils

import numpy as np
import pytest

from textchar import cli, svg


def run(argv):
    return cli.main(argv)


def write_two_class_jsonl(path, n_per_class=10, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for label in ("pos", "neg"):
            for i in range(n_per_class):
                fh.write(json.dumps({
                    "id": f"{label}{i}", "label": label,
                    "vector": rng.normal(size=dim).tolist()}) + "\n")


# --- simulate ------------------------------------------------------------

def test_simulate_downsample_row_count(tmp_path):
    out = tmp_path / "r.csv"
    assert run(["simulate", "--scenario", "downsample", "--dims", "2",
                "--seed", "7", "--points", "200", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "parameter,diversity,density,density_log,homogeneity"
    assert len(lines) == 11  # header + fractions 1.0, 0.9 .. 0.1


def test_simulate_spread_row_count(tmp_path):
    out = tmp_path / "s.csv"
    assert run(["simulate", "--scenario", "spread", "--dims", "2",
                "--seed", "1", "--points", "150", "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 10
    assert [float(r.split(",")[0]) for r in rows] == [1.0] + list(range(2, 11))


def test_simulate_outliers_row_count(tmp_path):
    out = tmp_path / "o.csv"
    assert run(["simulate", "--scenario", "outliers", "--dims", "2",
                "--seed", "1", "--points", "100", "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 12  # header + 11 counts


def test_simulate_is_byte_identical(tmp_path):
    args = ["simulate", "--scenario", "subclusters", "--dims", "2",
            "--seed", "3", "--points", "120"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_writes_svg_chart(tmp_path):
    svg_path = tmp_path / "chart.svg"
    assert run(["simulate", "--scenario", "downsample", "--dims", "2",
                "--seed", "2", "--points", "80", "--out", str(tmp_path / "r.csv"),
                "--svg", str(svg_path)]) == 0
    text = svg_path.read_text()
    assert text.startswith("<svg ")
    assert text.count("<polyline") == 3  # one line per metric panel
    for metric in ("diversity", "density", "homogeneity"):
        assert metric in text


def test_svg_escapes_markup_like_saxutils():
    text = "a & b < c > d &amp; \"e\" 'f'"
    assert svg._escape(text) == saxutils.escape(text)
    doc = svg.line_chart(text, [0.0, 1.0], [(text, [1.0, 2.0])], title=text)
    assert text in [el.text for el in ElementTree.fromstring(doc).iter()]


def test_simulate_defaults_to_stdout(capsys):
    assert run(["simulate", "--scenario", "downsample", "--dims", "2",
                "--seed", "5", "--points", "60"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("parameter,")
    assert len(out.splitlines()) == 11


def test_simulate_runtime_failure_exits_1(capsys):
    code = run(["simulate", "--scenario", "downsample", "--dims", "0",
                "--seed", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as excinfo:
        run(["simulate", "--scenario", "bogus", "--dims", "2"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize("sub", ["simulate", "profile", "pool", "correlate"])
def test_help_exits_0(sub, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run([sub, "--help"])
    assert excinfo.value.code == 0
    assert "--" in capsys.readouterr().out


# --- profile -------------------------------------------------------------

def test_profile_two_class_structure(tmp_path):
    src = tmp_path / "vecs.jsonl"
    write_two_class_jsonl(src)
    out = tmp_path / "profile.json"
    assert run(["profile", "--input", str(src), "--format", "jsonl",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "profile"
    assert set(doc["per_class"]) == {"pos", "neg"}
    assert doc["class_sizes"] == {"pos": 10, "neg": 10}
    assert set(doc["final"]) >= {"diversity", "density", "homogeneity"}


def test_profile_fraction_sweep(tmp_path):
    src = tmp_path / "vecs.jsonl"
    write_two_class_jsonl(src)
    out = tmp_path / "sweep.json"
    assert run(["profile", "--input", str(src), "--format", "jsonl",
                "--fractions", "1.0,0.5", "--seed", "4",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sweep"
    assert [row["fraction"] for row in doc["rows"]] == [1.0, 0.5]
    assert [row["size"] for row in doc["rows"]] == [20, 10]


def test_profile_parse_error_names_line(tmp_path, capsys):
    src = tmp_path / "broken.jsonl"
    src.write_text('{"label": "a", "vector": [1.0]}\n'
                   '{"label": "a", "vector": [2.0]}\n'
                   'not json\n')
    assert run(["profile", "--input", str(src), "--format", "jsonl"]) == 1
    assert "line 3" in capsys.readouterr().err


def test_profile_sidecar_line_not_an_object_exits_1(tmp_path, capsys):
    src = tmp_path / "vectors.bin"
    src.write_bytes(b"CMET\x01\x08\x00\x00" + (1).to_bytes(4, "little")
                    + (1).to_bytes(4, "little") + np.float64(1.0).tobytes())
    (tmp_path / "vectors.bin.meta.jsonl").write_text("[1]\n")
    assert run(["profile", "--input", str(src), "--format", "binary"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "vectors.bin.meta.jsonl" in err[0] and "line 1" in err[0]


@pytest.mark.parametrize("cap", ["2", "0", "-3"])
def test_profile_cap_below_three_exits_2(tmp_path, capsys, cap):
    src = tmp_path / "vecs.jsonl"
    write_two_class_jsonl(src)
    with pytest.raises(SystemExit) as exc:
        run(["profile", "--input", str(src), "--format", "jsonl", "--cap", cap])
    assert exc.value.code == 2
    assert "--cap: must be at least 3" in capsys.readouterr().err


def test_profile_missing_input_exits_1(tmp_path, capsys):
    assert run(["profile", "--input", str(tmp_path / "nope.jsonl"),
                "--format", "jsonl"]) == 1
    assert "does not exist" in capsys.readouterr().err


# --- pool ----------------------------------------------------------------

def test_pool_single_token_identity(tmp_path):
    src = tmp_path / "tokens.jsonl"
    src.write_text('{"id": "a", "label": "x", "tokens": [[1.5, -2.5]]}\n')
    out = tmp_path / "pooled.jsonl"
    assert run(["pool", "--input", str(src), "--out", str(out)]) == 0
    rec = json.loads(out.read_text())
    assert rec["vector"] == [1.5, -2.5]


def test_pool_two_token_mean(tmp_path):
    src = tmp_path / "tokens.jsonl"
    src.write_text('{"id": "a", "label": "x", "tokens": [[1.0, 3.0], [3.0, 5.0]]}\n')
    out = tmp_path / "pooled.jsonl"
    assert run(["pool", "--input", str(src), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["vector"] == [2.0, 4.0]


def test_pool_names_empty_sequence(tmp_path, capsys):
    src = tmp_path / "tokens.jsonl"
    src.write_text('{"id": "fine", "label": "x", "tokens": [[1.0]]}\n'
                   '{"id": "hollow", "label": "x", "tokens": []}\n')
    assert run(["pool", "--input", str(src), "--out", str(tmp_path / "o.jsonl")]) == 1
    assert "hollow" in capsys.readouterr().err


def test_pool_overflowing_mean_prints_one_line(tmp_path, capsys):
    src = tmp_path / "tokens.jsonl"
    src.write_text('{"id": "a", "label": "x", "tokens": [[1e308], [1e308]]}\n')
    out = tmp_path / "o.jsonl"
    with warnings.catch_warnings():
        # A numpy overflow warning would otherwise reach stderr.
        warnings.simplefilter("error")
        assert run(["pool", "--input", str(src), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert "non-finite" in err[0]
    assert not out.exists()


HUGE_INT = "1" + "0" * 399  # 400 digits: beyond the float64 range


@pytest.mark.parametrize("command, key, value", [
    ("profile", "vector", f"[1.0, {HUGE_INT}]"),
    ("pool", "tokens", f"[[1.0, {HUGE_INT}]]"),
], ids=["profile", "pool"])
def test_integer_beyond_float64_names_its_line(tmp_path, capsys, command, key, value):
    src, out = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    src.write_text(f'{{"label": "a", "{key}": {value.replace(HUGE_INT, "2.0")}}}\n'
                   f'{{"label": "a", "{key}": {value}}}\n')
    argv = [command, "--input", str(src), "--out", str(out)]
    if command == "profile":
        argv += ["--format", "jsonl"]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"textchar: error: {src}, line 2: '{key}' is not")
    assert not out.exists()


def test_pool_preserves_dimensions(tmp_path):
    rng = np.random.default_rng(21)
    src = tmp_path / "tokens.jsonl"
    with open(src, "w") as fh:
        for i in range(6):
            tokens = rng.normal(size=(int(rng.integers(1, 5)), 7)).tolist()
            fh.write(json.dumps({"id": f"s{i}", "label": "x",
                                 "tokens": tokens}) + "\n")
    out = tmp_path / "pooled.jsonl"
    assert run(["pool", "--input", str(src), "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        assert len(json.loads(line)["vector"]) == 7


# --- correlate -----------------------------------------------------------

def write_sweep_json(path, rows):
    doc = {"kind": "sweep", "rows": [
        {"fraction": f, "final": {"diversity": d, "density": de,
                                  "density_log": 0.0, "homogeneity": h}}
        for f, d, de, h in rows]}
    path.write_text(json.dumps(doc))


def test_correlate_basic(tmp_path):
    sweep = tmp_path / "sweep.json"
    write_sweep_json(sweep, [(1.0, 0.3, 10.0, 0.9), (0.5, 0.2, 5.0, 0.8),
                             (0.1, 0.1, 1.0, 0.7)])
    scores = tmp_path / "scores.csv"
    scores.write_text("fraction,accuracy\n1.0,0.95\n0.5,0.9\n0.1,0.8\n")
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--metrics", str(sweep), "--scores", str(scores),
                "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "metric,score,pearson_r,n,note"
    assert len(lines) == 4
    assert all(line.split(",")[3] == "3" for line in lines[1:])


def test_correlate_join_is_header_keyed(tmp_path):
    sweep = tmp_path / "sweep.json"
    write_sweep_json(sweep, [(1.0, 0.3, 10.0, 0.9), (0.5, 0.2, 5.0, 0.8)])
    a = tmp_path / "a.csv"
    a.write_text("fraction,acc,f1\n1.0,0.95,0.91\n0.5,0.9,0.88\n")
    b = tmp_path / "b.csv"
    b.write_text("f1,fraction,acc\n0.91,1.0,0.95\n0.88,0.5,0.9\n")
    out_a, out_b = tmp_path / "ca.csv", tmp_path / "cb.csv"
    assert run(["correlate", "--metrics", str(sweep), "--scores", str(a),
                "--out", str(out_a)]) == 0
    assert run(["correlate", "--metrics", str(sweep), "--scores", str(b),
                "--out", str(out_b)]) == 0
    # same entries regardless of column order; row order follows the header
    assert (sorted(out_a.read_text().splitlines())
            == sorted(out_b.read_text().splitlines()))


def test_correlate_flags_constant_metric(tmp_path):
    sweep = tmp_path / "sweep.json"
    write_sweep_json(sweep, [(1.0, 0.3, 10.0, 0.9), (0.5, 0.3, 5.0, 0.8)])
    scores = tmp_path / "scores.csv"
    scores.write_text("fraction,accuracy\n1.0,0.95\n0.5,0.9\n")
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--metrics", str(sweep), "--scores", str(scores),
                "--out", str(out)]) == 0
    diversity_row = next(line for line in out.read_text().splitlines()
                         if line.startswith("diversity,"))
    cells = diversity_row.split(",")
    assert cells[2] == ""  # no r value
    assert "degenerate" in diversity_row


def test_correlate_reports_unmatched_fractions(tmp_path, capsys):
    sweep = tmp_path / "sweep.json"
    write_sweep_json(sweep, [(1.0, 0.3, 10.0, 0.9), (0.5, 0.2, 5.0, 0.8)])
    scores = tmp_path / "scores.csv"
    scores.write_text("fraction,accuracy\n1.0,0.95\n0.25,0.9\n")
    assert run(["correlate", "--metrics", str(sweep),
                "--scores", str(scores)]) == 1
    err = capsys.readouterr().err
    assert "0.5" in err and "0.25" in err


def test_correlate_accepts_profile_sweep_output(tmp_path):
    src = tmp_path / "vecs.jsonl"
    write_two_class_jsonl(src, n_per_class=8)
    sweep = tmp_path / "sweep.json"
    assert run(["profile", "--input", str(src), "--format", "jsonl",
                "--fractions", "1.0,0.5", "--out", str(sweep)]) == 0
    scores = tmp_path / "scores.csv"
    scores.write_text("fraction,accuracy\n1.0,0.93\n0.5,0.91\n")
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--metrics", str(sweep), "--scores", str(scores),
                "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 4


def _correlate_fails_with_one_line(tmp_path, capsys, metrics_text, scores_text, bad):
    sweep, scores = tmp_path / "sweep.json", tmp_path / "scores.csv"
    sweep.write_text(metrics_text)
    scores.write_text(scores_text)
    out = tmp_path / "corr.csv"
    assert run(["correlate", "--metrics", str(sweep), "--scores", str(scores),
                "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("textchar: error: ")
    assert str(tmp_path / bad) in err[0]
    assert not out.exists()
    return err[0]


GOOD_SWEEP = json.dumps([{"fraction": 1.0, "final": {"diversity": 0.3, "density": 10.0}},
                         {"fraction": 0.5, "final": {"diversity": 0.2, "density": 5.0}}])
GOOD_SCORES = "fraction,accuracy\n1.0,0.95\n0.5,0.9\n"


def test_correlate_metrics_of_wrong_type_exits_1(tmp_path, capsys):
    _correlate_fails_with_one_line(tmp_path, capsys, "5", GOOD_SCORES, "sweep.json")


def test_correlate_short_scores_row_names_its_line(tmp_path, capsys):
    message = _correlate_fails_with_one_line(
        tmp_path, capsys, GOOD_SWEEP, "fraction,accuracy\n1.0,0.95\n0.5\n", "scores.csv")
    assert "line 3" in message and "expected 2 cells, got 1" in message


def test_correlate_row_without_final_names_the_row(tmp_path, capsys):
    rows = json.loads(GOOD_SWEEP)
    del rows[1]["final"]
    message = _correlate_fails_with_one_line(
        tmp_path, capsys, json.dumps({"kind": "sweep", "rows": rows}), GOOD_SCORES,
        "sweep.json")
    assert "row 2" in message and "'final'" in message

    rows[1]["final"] = 5
    _correlate_fails_with_one_line(tmp_path, capsys, json.dumps(rows), GOOD_SCORES,
                                   "sweep.json")
    rows[1]["final"] = {"density": 2.0}
    message = _correlate_fails_with_one_line(tmp_path, capsys, json.dumps(rows),
                                             GOOD_SCORES, "sweep.json")
    assert "row 2: 'final' has no 'diversity'" in message


@pytest.mark.parametrize("field, row", [("final", 2), ("size", 1)])
def test_correlate_number_beyond_float64_names_the_row(tmp_path, capsys, field, row):
    if field == "final":  # a 400-digit diversity
        text = GOOD_SWEEP.replace('"diversity": 0.2', f'"diversity": {HUGE_INT}')
    else:  # a size of 1e400, read as infinity
        text = GOOD_SWEEP.replace('{"fraction": 1.0,', '{"fraction": 1.0, "size": 1e400,')
    assert text != GOOD_SWEEP
    message = _correlate_fails_with_one_line(tmp_path, capsys, text, GOOD_SCORES,
                                             "sweep.json")
    assert f"row {row}: " in message
