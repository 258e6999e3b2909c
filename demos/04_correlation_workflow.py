"""Correlate metric sweeps with model scores, library- and CLI-style.

A sweep's point: if an unsupervised metric of the training set tracks the
score of a model trained on it, the metric can stand in for the score
before any model exists. This demo builds a sweep whose clusters genuinely
shrink, attaches synthetic "downstream scores", and reports Pearson r per
(metric, score) pair — including how degenerate pairs are flagged.

    python3 demos/04_correlation_workflow.py
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from textchar import analysis, io

OUT_DIR = Path(__file__).parent / "output"


def build_corpus(path):
    rng = np.random.default_rng(5)
    labels = ["pos"] * 60 + ["neg"] * 60
    ids = [f"{label}{i % 60}" for i, label in enumerate(labels)]
    embeddings = io.LabeledEmbeddings(rng.normal(size=(120, 12)), ids, labels,
                                      ["default"] * 120)
    io.write_vectors(embeddings, path, "jsonl")


def main():
    OUT_DIR.mkdir(exist_ok=True)
    vectors_path = OUT_DIR / "corpus.jsonl"
    build_corpus(vectors_path)

    embeddings = io.read_vectors(vectors_path, "jsonl")
    fractions = (1.0, 0.8, 0.6, 0.4, 0.2)
    seed = 9
    sweep = analysis.downsample_sweep(embeddings, fractions, seed=seed)

    # Synthetic score columns, one value per fraction: one genuinely tied to
    # the sample size, one pure noise, so the contrast shows up in r.
    rng = np.random.default_rng(77)
    scores = {"accuracy": [], "noise": []}
    for fraction in fractions:
        scores["accuracy"].append(0.7 + 0.25 * fraction + rng.normal(0.0, 0.005))
        scores["noise"].append(float(rng.uniform()))

    entries = analysis.correlation_report([p.final for p in sweep], scores)
    print(f"{'metric':>12} {'score':>9} {'r':>8}  n  note")
    for entry in entries:
        r = "" if entry.r is None else f"{entry.r:+.3f}"
        print(f"{entry.metric:>12} {entry.score:>9} {r:>8} {entry.n:>2}  "
              f"{entry.error or ''}")
    print("-> density rides the sample count, so it correlates strongly")
    print("   with the size-driven score and weakly with noise.\n")

    # The same workflow through the command line, artifact to artifact.
    sweep_path = OUT_DIR / "sweep.json"
    sweep_path.write_text(json.dumps(io.sweep_document(sweep, seed), indent=2) + "\n")
    scores_path = OUT_DIR / "scores.csv"
    scores_path.write_text("fraction,accuracy\n" + "".join(
        f"{fraction},{accuracy}\n"
        for fraction, accuracy in zip(fractions, scores["accuracy"])))
    corr_path = OUT_DIR / "correlations.csv"
    subprocess.run(
        [sys.executable, "-m", "textchar.cli", "correlate",
         "--metrics", str(sweep_path), "--scores", str(scores_path),
         "--out", str(corr_path)],
        check=True)
    print(f"CLI output ({corr_path}):")
    print(corr_path.read_text())


if __name__ == "__main__":
    main()
