import csv
import json
import re
from xml.etree import ElementTree
from xml.sax import saxutils

import numpy as np
import pytest

from textchar import cli, io, svg


def write_two_class_jsonl(path, n_per_class=10, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    with open(path, "w") as fh:
        for label in ("pos", "neg"):
            for i in range(n_per_class):
                fh.write(json.dumps({
                    "id": f"{label}{i}", "label": label,
                    "vector": rng.normal(size=dim).tolist()}) + "\n")


# --- simulate ------------------------------------------------------------

@pytest.mark.parametrize("scenario, parameters", [
    ("downsample", [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]),
    ("spread", [float(x) for x in range(1, 11)]),
    ("outliers", [float(x) for x in range(0, 501, 50)]),
], ids=["downsample", "spread", "outliers"])
def test_simulate_row_count(tmp_path, scenario, parameters):
    out = tmp_path / "r.csv"
    assert cli.main(["simulate", "--scenario", scenario, "--dims", "2", "--seed", "1",
                     "--points", "100", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "parameter,diversity,density,density_log,homogeneity"
    assert [float(line.split(",")[0]) for line in lines[1:]] == parameters


@pytest.mark.parametrize("scenario, flags", [
    ("downsample", []), ("spread", []), ("outliers", ["--radius", "200"]),
    ("subclusters", ["--spacing", "2.5"]),
], ids=["downsample", "spread", "outliers", "subclusters"])
def test_simulate_writes_svg_chart(tmp_path, scenario, flags):
    svg_path = tmp_path / "chart.svg"
    assert cli.main(["simulate", "--scenario", scenario, "--dims", "4", "--points", "50",
                     *flags, "--out", str(tmp_path / "r.csv"),
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


@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_svg_omits_non_finite_values_like_none(value):
    panel = svg.line_chart("x", [0, 1, 2], [("density", [1.0, value, 2.0])])
    assert panel == svg.line_chart("x", [0, 1, 2], [("density", [1.0, None, 2.0])])


@pytest.mark.parametrize("x_values, panels, message", [
    ([], [("a", [])], "x_values must not be empty"),
    ([0.0, 1.0], [], "at least one panel is required"),
    ([0.0, 1.0], [("a", [1.0, 2.0]), ("b", [1.0])], "panel 'b' has 1 values for 2 x points"),
], ids=["no-x-values", "no-panels", "short-panel"])
def test_svg_rejects_malformed_charts(x_values, panels, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        svg.line_chart("x", x_values, panels)


def test_svg_pads_flat_ranges_and_marks_empty_panels():
    # One x point and constant panels: each flat range is padded by 5% of
    # its value (0.5 about zero) and the point drawn at its middle; a panel
    # with no finite value gets the "no data" text and no line.
    doc = ElementTree.fromstring(svg.line_chart(
        "x", [1.0], [("a", [2.0]), ("b", [0.0]), ("c", [None])]))
    ns = "{http://www.w3.org/2000/svg}"
    texts = [el.text for el in doc.iter(f"{ns}text")]
    assert texts == ["a", "2.1", "1.9", "b", "0.5", "-0.5", "c", "no data",
                     "0.95", "1.05", "x"]
    frames = [float(el.get("y")) for el in doc.iter(f"{ns}rect") if el.get("x")]
    circles = list(doc.iter(f"{ns}circle"))
    assert len(list(doc.iter(f"{ns}polyline"))) == len(circles) == 2
    for top, circle in zip(frames, circles):
        assert float(circle.get("cy")) == top + 75.0
        assert float(circle.get("cx")) == (78 + 696) / 2


def test_svg_layout_stacks_panels_between_fixed_margins():
    # 150-px panels 34 px apart, a 46-px top margin and a 44-px bottom one
    # that holds the x-axis labels and title.
    ns = "{http://www.w3.org/2000/svg}"
    doc = ElementTree.fromstring(svg.line_chart(
        "x", [0.0, 1.0], [("a", [1.0, 2.0]), ("b", [3.0, None])], title="t"))
    assert doc.get("height") == "424"
    assert [el.get("y") for el in doc.iter(f"{ns}rect") if el.get("x")] == ["46", "230"]
    x_axis = list(doc.iter(f"{ns}text"))[-3:]
    assert [(el.text, el.get("y")) for el in x_axis] == [("0", "398"), ("1", "398"),
                                                        ("x", "416")]
    one = ElementTree.fromstring(svg.line_chart("x", [0.0, 1.0], [("a", [1.0, 2.0])]))
    assert one.get("height") == "240"


def test_simulate_defaults_to_stdout(capsys):
    assert cli.main(["simulate", "--scenario", "downsample", "--dims", "2",
                     "--seed", "5", "--points", "60"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("parameter,")
    assert len(out.splitlines()) == 11
    args = cli._build_parser().parse_args(["simulate", "--scenario", "spread", "--dims", "2"])
    assert (args.seed, args.points) == (0, 10_000)


@pytest.mark.parametrize("sub", ["simulate", "profile", "pool", "correlate"])
def test_help_exits_0(sub, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main([sub, "--help"])
    assert excinfo.value.code == 0
    assert "--" in capsys.readouterr().out


# --- profile -------------------------------------------------------------

def test_profile_two_class_structure(tmp_path):
    src = tmp_path / "vecs.jsonl"
    write_two_class_jsonl(src)
    out = tmp_path / "profile.json"
    assert cli.main(["profile", "--input", str(src), "--format", "jsonl",
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
    assert cli.main(["profile", "--input", str(src), "--format", "jsonl",
                     "--fractions", "1.0,0.5", "--seed", "4",
                     "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "sweep"
    assert [row["fraction"] for row in doc["rows"]] == [1.0, 0.5]
    assert [row["size"] for row in doc["rows"]] == [20, 10]


@pytest.mark.parametrize("cap", [None, "3"])
def test_profile_is_the_one_fraction_sweep(tmp_path, cap):
    src = tmp_path / "vecs.jsonl"
    write_two_class_jsonl(src)
    profile, sweep = tmp_path / "profile.json", tmp_path / "sweep.json"
    common = ["profile", "--input", str(src), "--format", "jsonl", "--seed", "5"]
    common += [] if cap is None else ["--cap", cap]
    assert cli.main(common + ["--out", str(profile)]) == 0
    assert cli.main(common + ["--fractions", "1.0", "--out", str(sweep)]) == 0
    row = json.loads(sweep.read_text())["rows"][0]
    assert profile.read_text() == json.dumps({"kind": "profile", **row["profile"]},
                                             indent=2) + "\n"
    assert row["profile"]["homogeneity_cap"] == (None if cap is None else int(cap))


def test_profile_is_byte_identical_from_every_format(tmp_path):
    # Two sources: a hand-written jsonl with no ids or layers, and two
    # classes of 6 ids, each id at two layers. The csv and binary copies the
    # library writes of a source give its jsonl profile, byte for byte.
    rows = [("a", "0.1, 1.0, 2.5"), ("a", "0.4, 0.7, 2.2"), ("a", "0.2, 1.3, 2.9"),
            ("b", "3.1, -1.0, 0.5"), ("b", "2.6, -0.4, 0.1"), ("b", "3.5, -0.8, 0.9")]
    (tmp_path / "hand.jsonl").write_text("".join(
        f'{{"label": "{label}", "vector": [{vector}]}}\n' for label, vector in rows))
    keys = [(f"{label}{i}", label, layer) for label in ("pos", "neg")
            for i in range(6) for layer in ("L0", "L1")]
    ids, labels, layers = (list(column) for column in zip(*keys))
    vectors = np.random.default_rng(17).normal(size=(len(keys), 3))
    sources = {"hand": io.read_vectors(tmp_path / "hand.jsonl", "jsonl"),
               "layered": io.LabeledEmbeddings(vectors, ids, labels, layers)}
    for name, collection in sources.items():
        docs = []
        for fmt in io.FORMATS:
            src, out = tmp_path / f"{name}.{fmt}", tmp_path / f"{name}-{fmt}.json"
            if not src.exists():  # the hand-written jsonl is read as written
                io.write_vectors(collection, src, fmt)
            assert cli.main(["profile", "--input", str(src), "--format", fmt,
                             "--fractions", "1.0,0.5", "--cap", "3", "--out", str(out)]) == 0
            docs.append(out.read_bytes())
        assert docs[0] == docs[1] == docs[2], name


# --- pool ----------------------------------------------------------------

def test_pool_preserves_dimensions(tmp_path):
    rng = np.random.default_rng(21)
    src = tmp_path / "tokens.jsonl"
    with open(src, "w") as fh:
        for i in range(6):
            tokens = rng.normal(size=(int(rng.integers(1, 5)), 7)).tolist()
            fh.write(json.dumps({"id": f"s{i}", "label": "x",
                                 "tokens": tokens}) + "\n")
    out = tmp_path / "pooled.jsonl"
    assert cli.main(["pool", "--input", str(src), "--out", str(out)]) == 0
    for line in out.read_text().splitlines():
        assert len(json.loads(line)["vector"]) == 7


def test_pool_names_empty_sequence(tmp_path, capsys):
    src = tmp_path / "tokens.jsonl"
    src.write_text('{"id": "fine", "label": "x", "tokens": [[1.0]]}\n'
                   '{"id": "hollow", "label": "x", "tokens": []}\n')
    out = tmp_path / "o.jsonl"
    assert cli.main(["pool", "--input", str(src), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"textchar: error: {src}, line 2: sequence 'hollow' has no tokens\n")
    assert not out.exists()


# --- correlate -----------------------------------------------------------

def write_sweep_json(path, rows):
    doc = {"kind": "sweep", "rows": [
        {"fraction": f, "final": {"diversity": d, "density": de,
                                  "density_log": 0.0, "homogeneity": h}}
        for f, d, de, h in rows]}
    path.write_text(json.dumps(doc))


def test_correlate_join_is_header_keyed(tmp_path):
    sweep = tmp_path / "sweep.json"
    write_sweep_json(sweep, [(1.0, 0.3, 10.0, 0.9), (0.5, 0.2, 5.0, 0.8)])
    a = tmp_path / "a.csv"
    a.write_text("fraction,acc,f1\n1.0,0.95,0.91\n0.5,0.9,0.88\n")
    b = tmp_path / "b.csv"
    b.write_text("f1,fraction,acc\n0.91,1.0,0.95\n0.88,0.5,0.9\n")
    out_a, out_b = tmp_path / "ca.csv", tmp_path / "cb.csv"
    assert cli.main(["correlate", "--metrics", str(sweep), "--scores", str(a),
                     "--out", str(out_a)]) == 0
    assert cli.main(["correlate", "--metrics", str(sweep), "--scores", str(b),
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
    assert cli.main(["correlate", "--metrics", str(sweep), "--scores", str(scores),
                     "--out", str(out)]) == 0
    diversity_row = next(line for line in out.read_text().splitlines()
                         if line.startswith("diversity,"))
    cells = diversity_row.split(",")
    assert cells[2] == ""  # no r value
    assert "degenerate" in diversity_row


def test_csv_outputs_read_back_at_the_header_width(tmp_path):
    # A cell holding a comma, quote or newline is quoted; the note of a
    # one-fraction sweep holds a comma. Every other cell is written bare.
    sim = tmp_path / "sim.csv"
    assert cli.main(["simulate", "--scenario", "downsample", "--dims", "2",
                     "--points", "50", "--out", str(sim)]) == 0
    assert '"' not in sim.read_text()
    sweep = tmp_path / "sweep.json"
    write_sweep_json(sweep, [(1.0, 0.3, 10.0, 0.9)])
    names = ["acc, top-1", 'say "f1"', "two\nlines"]
    scores = tmp_path / "scores.csv"
    with open(scores, "w", newline="") as fh:
        csv.writer(fh).writerows([["fraction", *names], [1.0, 0.9, 0.8, 0.7]])
    out = tmp_path / "corr.csv"
    assert cli.main(["correlate", "--metrics", str(sweep), "--scores", str(scores),
                     "--out", str(out)]) == 0
    for path, width in ((sim, 5), (out, 5)):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert all(len(row) == width for row in rows), rows
    assert [row[1] for row in rows[1:4]] == names
    assert rows[1][4] == "degenerate: need at least 2 pairs, got 1"
