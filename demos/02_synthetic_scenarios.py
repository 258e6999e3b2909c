"""Run the four synthetic sweeps at desk scale and print the trends.

Each scenario starts from a seeded isotropic Gaussian blob and walks one
knob: the sampling fraction, the spread, the number of far-away outliers,
or the number of sub-clusters. SVG trend charts land in demos/output/.

    python3 demos/02_synthetic_scenarios.py
"""

from pathlib import Path

from textchar import simulation
from textchar.svg import line_chart

OUT_DIR = Path(__file__).parent / "output"

# Desk-scale settings: small enough to run in seconds, large enough that
# the trends match what full-size sweeps show.
POINTS = 2000
DIM = 2
SEED = 11


def show(kind, x_label, path, **kwargs):
    """Run one scenario, print its rows and chart them."""
    reports = simulation.run_scenario(kind, points=POINTS, seed=SEED, **kwargs)
    xs = [float(value) for value in simulation.SWEEPS[kind]]
    print(f"{'parameter':>10} {'diversity':>11} {'density':>11} {'homogeneity':>12}")
    for x, rep in zip(xs, reports):
        hom = f"{rep.homogeneity:.4f}" if rep.homogeneity is not None else "-"
        print(f"{x:>10g} {rep.diversity:>11.4f} {rep.density:>11.4f} {hom:>12}")
    panels = [(name, [getattr(rep, name) for rep in reports])
              for name in ("diversity", "density", "homogeneity")]
    path.write_text(line_chart(x_label, xs, panels), encoding="utf-8")


def main():
    OUT_DIR.mkdir(exist_ok=True)

    print("== down-sampling: keep a fraction of the blob " + "=" * 20)
    show("downsample", "fraction kept", OUT_DIR / "down_sampling.svg", dim=DIM)
    print("-> diversity and homogeneity barely move; density tracks the")
    print("   sample count almost exactly.\n")

    print("== varying spread: same blob shape, bigger radius " + "=" * 16)
    show("spread", "per-axis std", OUT_DIR / "varying_spread.svg", dim=DIM)
    print("-> diversity grows linearly with the spread, density shrinks,")
    print("   homogeneity stays put (it is scale-invariant).\n")

    print("== outliers: append points on a far shell " + "=" * 24)
    # The shell must sit far outside the bulk for the dip-then-rise shape
    # to show at this m; with the 10-x-std default the curve only decays.
    show("outliers", "outliers added", OUT_DIR / "outliers.svg", dim=DIM,
         outlier_radius=200.0)
    print("-> the first outliers drag homogeneity down; once the shell")
    print("   itself is populous the walk evens out again.\n")

    print("== sub-clusters: split the mass into k islands " + "=" * 20)
    show("subclusters", "sub-cluster count", OUT_DIR / "sub_clusters.svg", dim=768)
    print("-> in high dimension homogeneity falls steadily as the mass")
    print("   fragments. (In 2-D the same sweep is not monotone: after a")
    print("   dip at k=2 the many nearby islands blend back together.)\n")

    print(f"SVG charts written to {OUT_DIR}/")


if __name__ == "__main__":
    main()
