"""The three benchmark workloads: inputs made from a seed, the textchar
CLI steps that make up one operation, and the oracle check of the outputs.

Every input file is written here, from ``numpy.random.default_rng(seed)``
and the documented on-disk formats, so the program sees nothing but
generated files (``simulate`` generates its own points from ``--seed``).
"""

from __future__ import annotations

import csv
import json
import math
import struct
import xml.etree.ElementTree as ElementTree
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial.distance import cdist

import oracle


@dataclass
class Prepared:
    """One workload made ready to run in a work directory."""

    steps: list[list[str]]          # textchar CLI argument lists, run in order
    outputs: list[Path]             # files the steps write
    env: dict[str, str]             # extra environment for every step
    pairs: int                      # sum of m(m-1) over homogeneity computations
    working_set_bytes: int          # float64 bytes of the input vectors
    check: Callable[[], list[str]]  # oracle check of the current outputs


def _capped(m: int, cap: int | None) -> int:
    return cap if cap is not None and m > cap else m


def _kept(fraction: float, n: int) -> int:
    return n if fraction == 1.0 else int(math.floor(fraction * n + 0.5))


def _load_json(path: Path, errors: oracle.Mismatches):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        errors.fail(path.name, f"unreadable: {exc}")
        return None


def _check_sweep_doc(path: Path, expected: list[dict], cap: int | None,
                     errors: oracle.Mismatches) -> None:
    """Compare a ``profile --fractions`` document with the oracle sweep."""
    doc = _load_json(path, errors)
    if doc is None:
        return
    rows = doc.get("rows") if isinstance(doc, dict) else None
    if doc.get("kind") != "sweep" or not isinstance(rows, list) or len(rows) != len(expected):
        errors.fail(path.name, f"expected a sweep of {len(expected)} rows")
        return
    for got, want in zip(rows, expected):
        where = f"{path.name}[fraction={want['fraction']}]"
        prof, want_prof = got.get("profile") or {}, want["profile"]
        if got.get("fraction") != want["fraction"] or got.get("size") != want["size"]:
            errors.fail(where, f"fraction/size {got.get('fraction')}/{got.get('size')}, "
                               f"expected {want['fraction']}/{want['size']}")
        if prof.get("class_sizes") != want_prof["class_sizes"] or prof.get("homogeneity_cap") != cap:
            errors.fail(where, "class sizes or homogeneity cap differ")
        errors.metrics(f"{where}.final", got.get("final"), want_prof["final"])
        errors.metrics(f"{where}.profile.final", prof.get("final"), want_prof["final"])
        groups = prof.get("per_group") or []
        keys = [(g.get("label"), g.get("layer")) for g in groups]
        if keys != list(want_prof["per_group"]):
            errors.fail(where, f"groups {keys}, expected {list(want_prof['per_group'])}")
            continue
        for g, want_g in zip(groups, want_prof["per_group"].values()):
            errors.metrics(f"{where}.{g['label']}/{g['layer']}", g, want_g)
        for label, want_c in want_prof["per_class"].items():
            errors.metrics(f"{where}.class[{label}]",
                           (prof.get("per_class") or {}).get(label), want_c)


def _sweep_pairs(class_units: list[int], layers: int, fractions, cap) -> int:
    return sum(layers * oracle.pairs(_capped(_kept(f, n), cap))
               for f in fractions for n in class_units)


# --- simulate-768 -------------------------------------------------------------

SIM_DIMS = 768
SIM_POINTS = 2000
SIM_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
SIM_COLUMNS = "parameter,diversity,density,density_log,homogeneity"


def _simulate_expected(seed: int) -> list[tuple[float, tuple, float | None]]:
    """Metric rows of the down-sampling scenario, from the generator
    contract: one row-major ``normal`` fill seeded with ``seed``; row ``i``
    keeps ``round(f * m)`` sorted indices drawn from ``SeedSequence([seed, i])``."""
    base = np.random.default_rng(seed).normal(0.0, 1.0, size=(SIM_POINTS, SIM_DIMS))
    full = cdist(base, base)
    rows = []
    for index, fraction in enumerate(SIM_FRACTIONS):
        idx = np.arange(SIM_POINTS)
        if fraction != 1.0:
            rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
            idx = rng.choice(SIM_POINTS, size=_kept(fraction, SIM_POINTS), replace=False)
            idx.sort()
        points = base[idx]
        hom = oracle.homogeneity(points, lambda s, t, idx=idx: full[np.ix_(idx[s:t], idx)])
        rows.append((fraction, oracle.axis_metrics(points), hom))
    return rows


def prepare_simulate(work: Path, seed: int, nproc: int) -> Prepared:
    out_csv, out_svg = work / "simulate.csv", work / "simulate.svg"

    def check() -> list[str]:
        errors = oracle.Mismatches()
        try:
            lines = out_csv.read_text(encoding="utf-8").splitlines()
        except OSError as exc:
            return [f"{out_csv.name}: unreadable: {exc}"]
        expected = _simulate_expected(seed)
        if not lines or lines[0] != SIM_COLUMNS or len(lines) != len(expected) + 1:
            return [f"{out_csv.name}: expected header and {len(expected)} rows"]
        for line, (fraction, (div, den, den_log), hom) in zip(lines[1:], expected):
            cells = line.split(",")
            where = f"{out_csv.name}[{fraction}]"
            if len(cells) != 5 or cells[0] == "" or float(cells[0]) != fraction:
                errors.fail(where, f"bad row {line!r}")
                continue
            errors.metrics(where, dict(zip(SIM_COLUMNS.split(",")[1:],
                                           [float(c) if c else None for c in cells[1:]])),
                           {"diversity": div, "density": den, "density_log": den_log,
                            "homogeneity": hom})
        try:
            root = ElementTree.parse(out_svg).getroot()
            if not root.tag.endswith("svg") or len(root) == 0:
                errors.fail(out_svg.name, "not a non-empty SVG document")
        except (OSError, ElementTree.ParseError) as exc:
            errors.fail(out_svg.name, f"unreadable: {exc}")
        return errors.errors

    return Prepared(
        steps=[["simulate", "--scenario", "downsample", "--dims", str(SIM_DIMS),
                "--points", str(SIM_POINTS), "--seed", str(seed),
                "--out", str(out_csv), "--svg", str(out_svg)]],
        outputs=[out_csv, out_svg],
        env={"OPENBLAS_NUM_THREADS": str(nproc)},
        pairs=sum(oracle.pairs(_kept(f, SIM_POINTS)) for f in SIM_FRACTIONS),
        working_set_bytes=SIM_POINTS * SIM_DIMS * 8,
        check=check,
    )


# --- sweep-16d-threads --------------------------------------------------------

SWEEP_CLASSES = (("alpha", 4000), ("beta", 2500))
SWEEP_DIMS = 16
SWEEP_OFFSET = 1e3      # common offset, in units of the per-axis spread
SWEEP_DUP_SHARE = 0.1   # rows overwritten with a bitwise copy of another row
SWEEP_FRACTIONS = (1.0, 0.5, 0.25)
_BINARY_HEADER = struct.Struct("<4sBBxxII")


def sweep_inputs(seed: int) -> tuple[list[tuple[str, str, str]], np.ndarray]:
    """Records (id, label, layer) and their vectors, classes interleaved."""
    rng = np.random.default_rng(seed)
    offset = SWEEP_OFFSET * rng.uniform(0.5, 1.5, size=SWEEP_DIMS)
    records, parts = [], []
    for c, (label, count) in enumerate(SWEEP_CLASSES):
        points = rng.normal(0.0, 1.0 + 0.5 * c, size=(count, SWEEP_DIMS)) + offset
        points[:, 0] += 4.0 * c
        copies = rng.choice(count, size=int(SWEEP_DUP_SHARE * count), replace=False)
        points[copies] = points[rng.integers(0, count, size=copies.size)]
        parts.append(points)
        records += [(f"{label}-{i:05d}", label, "default") for i in range(count)]
    order = rng.permutation(len(records))
    return [records[i] for i in order], np.vstack(parts)[order]


def write_binary(path: Path, records, vectors: np.ndarray) -> None:
    """The ``binary`` format: CMET header, float64 rows, JSONL sidecar."""
    m, dim = vectors.shape
    with open(path, "wb") as fh:
        fh.write(_BINARY_HEADER.pack(b"CMET", 1, 8, m, dim))
        fh.write(np.ascontiguousarray(vectors, dtype="<f8").tobytes())
    with open(path.with_name(path.name + ".meta.jsonl"), "w", encoding="utf-8") as fh:
        for rec_id, label, layer in records:
            fh.write(json.dumps({"id": rec_id, "label": label, "layer": layer}) + "\n")


def prepare_sweep(work: Path, seed: int, nproc: int) -> Prepared:
    records, vectors = sweep_inputs(seed)
    data, out_json = work / "sweep.bin", work / "sweep.json"
    write_binary(data, records, vectors)

    def check() -> list[str]:
        errors = oracle.Mismatches()
        expected = oracle.sweep(records, vectors, SWEEP_FRACTIONS, seed, None)
        _check_sweep_doc(out_json, expected, None, errors)
        return errors.errors

    return Prepared(
        steps=[["profile", "--input", str(data), "--format", "binary",
                "--fractions", ",".join(map(str, SWEEP_FRACTIONS)),
                "--seed", str(seed), "--out", str(out_json)]],
        outputs=[out_json],
        env={"TEXTCHAR_THREADS": str(min(2, nproc)), "OPENBLAS_NUM_THREADS": "1"},
        pairs=_sweep_pairs([n for _, n in SWEEP_CLASSES], 1, SWEEP_FRACTIONS, None),
        working_set_bytes=vectors.nbytes,
        check=check,
    )


# --- corpus-jsonl -------------------------------------------------------------

CORPUS_LABELS = 8
CORPUS_UNITS = 250
CORPUS_LAYERS = ("layer-11", "layer-12")
CORPUS_DIMS = 64
CORPUS_TOKENS = (3, 8)  # inclusive range of tokens per sequence
CORPUS_CAP = 100
CORPUS_FRACTIONS = (1.0, 0.5, 0.25)
SCORE_NAMES = ("accuracy", "noise")


def corpus_inputs(seed: int) -> list[tuple[tuple[str, str, str], np.ndarray]]:
    """Token matrices per (id, label, layer), in file order."""
    rng = np.random.default_rng(seed)
    sequences = []
    for c in range(CORPUS_LABELS):
        label, spread = f"class-{c}", 0.5 + 0.25 * c
        center = rng.normal(0.0, 2.0, size=CORPUS_DIMS)
        for i in range(CORPUS_UNITS):
            for layer in CORPUS_LAYERS:
                count = int(rng.integers(CORPUS_TOKENS[0], CORPUS_TOKENS[1] + 1))
                tokens = center + rng.normal(0.0, spread, size=(count, CORPUS_DIMS))
                sequences.append(((f"{label}-{i:04d}", label, layer), tokens))
    return sequences


def prepare_corpus(work: Path, seed: int, nproc: int) -> Prepared:
    sequences = corpus_inputs(seed)
    tokens, pooled = work / "tokens.jsonl", work / "pooled.jsonl"
    scores, out_json, out_csv = work / "scores.csv", work / "sweep.json", work / "correlations.csv"
    with open(tokens, "w", encoding="utf-8") as fh:
        for (rec_id, label, layer), matrix in sequences:
            fh.write(json.dumps({"id": rec_id, "label": label, "layer": layer,
                                 "tokens": matrix.tolist()}) + "\n")
    rng = np.random.default_rng([seed, 1])
    score_rows = {f: {"accuracy": 0.7 + 0.2 * f + float(rng.normal(0.0, 0.01)),
                      "noise": float(rng.uniform())} for f in CORPUS_FRACTIONS}
    with open(scores, "w", encoding="utf-8", newline="") as fh:
        fh.write("fraction," + ",".join(SCORE_NAMES) + "\n")
        for f, row in score_rows.items():
            fh.write(",".join([repr(f)] + [repr(row[n]) for n in SCORE_NAMES]) + "\n")

    def check() -> list[str]:
        errors = oracle.Mismatches()
        records = [key for key, _ in sequences]
        vectors = np.array([[math.fsum(col) / len(col) for col in matrix.T]
                            for _, matrix in sequences])
        try:
            lines = pooled.read_text(encoding="utf-8").splitlines()
            got = [json.loads(line) for line in lines]
        except (OSError, ValueError) as exc:
            return [f"{pooled.name}: unreadable: {exc}"]
        if len(got) != len(records):
            return [f"{pooled.name}: {len(got)} records, expected {len(records)}"]
        for obj, (rec_id, label, layer), want in zip(got, records, vectors):
            if (obj.get("id"), obj.get("label"), obj.get("layer")) != (rec_id, label, layer):
                errors.fail(pooled.name, f"record {obj.get('id')!r} out of order")
                break
            vec = np.asarray(obj.get("vector"), dtype=np.float64)
            if vec.shape != want.shape or not (np.abs(vec - want) <= oracle.TOLERANCE).all():
                errors.fail(pooled.name, f"pooled vector of {rec_id} differs")
                break

        expected = oracle.sweep(records, vectors, CORPUS_FRACTIONS, seed, CORPUS_CAP)
        _check_sweep_doc(out_json, expected, CORPUS_CAP, errors)

        try:
            with open(out_csv, encoding="utf-8", newline="") as fh:
                table = list(csv.DictReader(fh))
        except OSError as exc:
            return errors.errors + [f"{out_csv.name}: unreadable: {exc}"]
        want_rows = [(metric, score) for metric in ("diversity", "density", "homogeneity")
                     for score in SCORE_NAMES]
        if [(r.get("metric"), r.get("score")) for r in table] != want_rows:
            return errors.errors + [f"{out_csv.name}: unexpected rows"]
        for row, (metric, score) in zip(table, want_rows):
            r = oracle.pearson([e["profile"]["final"][metric] for e in expected],
                               [score_rows[f][score] for f in CORPUS_FRACTIONS])
            if row.get("n") != str(len(CORPUS_FRACTIONS)):
                errors.fail(f"{out_csv.name}[{metric},{score}]", f"n = {row.get('n')}")
            errors.close(f"{out_csv.name}[{metric},{score}]",
                         float(row["pearson_r"]) if row.get("pearson_r") else None,
                         r, relative=False)
        return errors.errors

    return Prepared(
        steps=[
            ["pool", "--input", str(tokens), "--out", str(pooled)],
            ["profile", "--input", str(pooled), "--format", "jsonl",
             "--fractions", ",".join(map(str, CORPUS_FRACTIONS)),
             "--cap", str(CORPUS_CAP), "--seed", str(seed), "--out", str(out_json)],
            ["correlate", "--metrics", str(out_json), "--scores", str(scores),
             "--out", str(out_csv)],
        ],
        outputs=[pooled, out_json, out_csv],
        env={"OPENBLAS_NUM_THREADS": "1"},
        pairs=_sweep_pairs([CORPUS_UNITS] * CORPUS_LABELS, len(CORPUS_LAYERS),
                           CORPUS_FRACTIONS, CORPUS_CAP),
        working_set_bytes=sum(m.size for _, m in sequences) * 8,
        check=check,
    )


WORKLOADS = {
    "simulate-768": prepare_simulate,
    "sweep-16d-threads": prepare_sweep,
    "corpus-jsonl": prepare_corpus,
}
