"""Profile a labeled embedding collection, end to end.

Builds a small synthetic corpus of token-level embeddings (stand-ins for
the per-token vectors an encoder would emit), then runs the full path:

    token file -> mean pooling -> per-group metrics -> class aggregation
    -> final weighted profile -> down-sampling sweep

    python3 demos/03_profiling_pipeline.py
"""

import json
from pathlib import Path

import numpy as np

from textchar import analysis, io

OUT_DIR = Path(__file__).parent / "output"

# Two intent classes of different sizes and shapes, each embedded at two
# layers. The "weather" class is deliberately tighter than "music".
CLASSES = {"weather": (40, 0.6), "music": (24, 1.4)}
LAYERS = ("layer-11", "layer-12")
DIM = 16


def write_token_corpus(path):
    rng = np.random.default_rng(42)
    with open(path, "w") as fh:
        for label, (count, spread) in CLASSES.items():
            for i in range(count):
                for layer in LAYERS:
                    n_tokens = int(rng.integers(3, 9))
                    tokens = rng.normal(0.0, spread, size=(n_tokens, DIM))
                    fh.write(json.dumps({
                        "id": f"{label}-{i:03d}", "label": label,
                        "layer": layer, "tokens": tokens.tolist()}) + "\n")


def show(metrics, indent="  "):
    hom = "-" if metrics.homogeneity is None else f"{metrics.homogeneity:.4f}"
    print(f"{indent}diversity {metrics.diversity:.4f}   "
          f"density {metrics.density:.4f}   homogeneity {hom}")


def main():
    OUT_DIR.mkdir(exist_ok=True)
    tokens_path = OUT_DIR / "tokens.jsonl"
    vectors_path = OUT_DIR / "vectors.jsonl"

    write_token_corpus(tokens_path)
    pooled = io.pool_token_file(tokens_path, vectors_path)
    print(f"pooled {pooled} sequences -> {vectors_path}")

    embeddings = io.read_vectors(vectors_path, "jsonl")
    # The profile of the whole collection is the sweep of the one fraction 1.0.
    profile = analysis.downsample_sweep(embeddings, [1.0], seed=0)[0]
    print(f"{len(embeddings)} records in {len(profile.per_group)} (class, layer) groups\n")

    print("per (class, layer):")
    for (label, layer), report in profile.per_group.items():
        print(f"  {label:>8} / {layer}:")
        show(report, indent="      ")
    print("per class (layers averaged):")
    for label, aggregate in profile.per_class.items():
        print(f"  {label:>8}:")
        show(aggregate, indent="      ")
    print("final (class-size-weighted):")
    show(profile.final)
    print("-> the tight 'weather' class pulls the weighted average toward")
    print("   low diversity / high density because it holds more texts.\n")

    sweep = analysis.downsample_sweep(
        embeddings, fractions=(1.0, 0.75, 0.5, 0.25), seed=0)
    print("down-sampling sweep (stratified by class):")
    for p in sweep:
        print(f"  fraction {p.fraction:>4}: {p.size:>3} texts", end="")
        show(p.final, indent="   ->  ")

    out = OUT_DIR / "profile.json"
    out.write_text(json.dumps(profile.to_dict(), indent=2))
    print(f"\nfull profile written to {out}")


if __name__ == "__main__":
    main()
