"""Self-tests of the benchmark: inputs, oracle and trace arithmetic.

    python3 -m pytest -q perfbench

The tests that run the CLI take a few seconds each; the rest are instant.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from textchar.metrics import metric_report  # noqa: E402


def _input_bytes(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def _run_cli(prepared) -> None:
    env = {**run.CHILD_ENV, "PYTHONPATH": str(SRC), **prepared.env}
    for step in prepared.steps:
        subprocess.run([sys.executable, "-m", "textchar.cli", *step], env=env,
                       check=True, cwd=HERE.parent)


def _normalized_steps(prepared, work: Path) -> list[list[str]]:
    return [[arg.replace(str(work), "<work>") for arg in step] for step in prepared.steps]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_input_bytes(name, tmp_path):
    seen = []
    for directory, seed in (("a", 3), ("b", 3), ("c", 4)):
        work = tmp_path / directory
        work.mkdir()
        prepared = workloads.WORKLOADS[name](work, seed, 2)
        seen.append((_input_bytes(work), _normalized_steps(prepared, work)))
    assert seen[0] == seen[1]
    assert seen[0] != seen[2]


def _small_clusters():
    rng = np.random.default_rng(11)
    plain = rng.normal(size=(70, 12))
    with_dups = rng.normal(size=(60, 5)) + 1e3
    with_dups[::7] = with_dups[1]
    return [plain, with_dups, rng.normal(size=(3, 768))]


@pytest.mark.parametrize("cluster", _small_clusters(), ids=["plain", "dups-offset", "m3"])
def test_oracle_agrees_with_metric_report(cluster):
    report = metric_report(cluster)
    div, den, den_log = oracle.axis_metrics(cluster)
    errors = oracle.Mismatches()
    errors.metrics("report", report.to_dict(),
                   {"diversity": div, "density": den, "density_log": den_log,
                    "homogeneity": oracle.homogeneity(cluster)})
    assert errors.errors == []


def test_oracle_rejects_perturbed_value():
    cluster = _small_clusters()[0]
    report = metric_report(cluster).to_dict()
    div, den, den_log = oracle.axis_metrics(cluster)
    want = {"diversity": div, "density": den, "density_log": den_log,
            "homogeneity": oracle.homogeneity(cluster)}
    for key in want:
        bad = dict(report, **{key: report[key] * (1 + 1e-7)})
        errors = oracle.Mismatches()
        errors.metrics("report", bad, want)
        assert len(errors.errors) == 1 and key in errors.errors[0]


def _perturb_first_homogeneity(path: Path) -> None:
    if path.suffix == ".csv":
        lines = path.read_text().splitlines()
        cells = lines[1].split(",")
        cells[-1] = repr(float(cells[-1]) * (1 + 1e-7))
        lines[1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        return
    doc = json.loads(path.read_text())
    group = doc["rows"][0]["profile"]["per_group"][0]
    group["homogeneity"] *= 1 + 1e-7
    path.write_text(json.dumps(doc, indent=2) + "\n")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_check_passes_then_fails_on_perturbed_output(name, tmp_path):
    prepared = workloads.WORKLOADS[name](tmp_path, 5, min(2, os.cpu_count() or 1))
    _run_cli(prepared)
    assert prepared.check() == []
    # The first per-group homogeneity (simulate: the full-blob row) moves
    # by one part in 10^7: far beyond roundoff, far below any real change.
    target = next(p for p in prepared.outputs if p.suffix in (".csv", ".json")
                  and p.name != "correlations.csv")
    _perturb_first_homogeneity(target)
    errors = prepared.check()
    assert errors and all("homogeneity" in e for e in errors)


def test_capped_groups_match_values_recorded_from_seed_commit(tmp_path):
    """The cap subsample rule restated in the oracle reproduces the capped
    homogeneity values the CLI printed when the benchmark was defined."""
    golden = json.loads((HERE / "golden_cap.json").read_text())
    sequences = workloads.corpus_inputs(golden["seed"])
    records = [key for key, _ in sequences]
    vectors = np.array([m.mean(axis=0) for _, m in sequences])
    expected = oracle.sweep(records, vectors, workloads.CORPUS_FRACTIONS,
                            golden["seed"], workloads.CORPUS_CAP)
    checked = 0
    for row, want in zip(golden["rows"], expected):
        for key, value in row.items():
            label, layer = key.split("/")
            rep = want["profile"]["per_group"][(label, layer)]
            assert rep["hom_m"] == workloads.CORPUS_CAP
            assert math.isclose(rep["homogeneity"], value, rel_tol=0, abs_tol=oracle.TOLERANCE)
            checked += 1
    assert checked > 0


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(20)]) == ("p50", 9.0)
    assert run.tail([float(i) for i in range(100)]) == ("p90", 89.0)


def test_layer_values_split_self_time():
    trace = {
        "spans": [["cli.main", -1, 10.0], ["analysis.profile_dataset", 0, 6.0],
                  ["metrics.metric_report", 1, 4.0], ["metrics.homogeneity", 2, 3.0]],
        "counters": {"gemm_floor_s": 0.5, "pairs": 12},
        "bookkeeping_s": 0.5, "wall_s": 11.0,
    }
    values = run.layer_values([trace, trace])
    assert values["cli.self_s"] == 8.0
    assert values["analysis.profile_self_s"] == 4.0
    assert values["metrics.report_s"] == 8.0
    assert values["metrics.kernel_over_gemm"] == 6.0
    assert values["metrics.calls"] == 2
    assert values["trace.uncovered_s"] == 2.0


def test_checker_fails_changed_bytes_and_raising_checks():
    class Fake:
        outputs = []

        def __init__(self):
            self.calls = 0

        def check(self):
            self.calls += 1
            if self.calls > 1:
                raise KeyError("rows")
            return []

    checker = run.Checker(Fake())
    for digest in ("a", "a", "b"):
        checker.record(run.Operation(digest=digest))
    checker.record(run.Operation(ok=False))
    assert (checker.attempted, checker.failed) == (4, 2)
