"""Walk through the three metrics on clusters small enough to check by hand.

Run from the repository root:

    python3 demos/01_metric_walkthrough.py
"""

import math

import numpy as np

from textchar import metrics


def banner(title):
    print(f"\n=== {title} " + "=" * max(0, 60 - len(title)))


def main():
    banner("two points, axis stds (1, 2)")
    report = metrics.metric_report([[-1.0, -2.0], [1.0, 2.0]])
    print("diversity (geometric mean of stds) = sqrt 2:", report.diversity)
    print("density m/(prod std)^(1/sqrt(H)) = 2/2^(1/sqrt 2):",
          report.density, "| closed form:", 2 * 2 ** (-1 / math.sqrt(2)))

    banner("three collinear points and their distance chain")
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])
    chain = metrics.entropy_rate(pts)
    print("stationary distribution (strength-proportional):", chain.stationary)
    print("entropy rate:", chain.entropy_rate, "| upper bound ln(m-1):",
          math.log(len(pts) - 1))
    print("homogeneity (rate / bound):", metrics.metric_report(pts).homogeneity)
    print("-> the far-away third point makes the walk lopsided, so the")
    print("   normalized entropy sits well below 1.")

    banner("equidistant points are perfectly homogeneous")
    for m in (3, 4, 5):
        print(f"m={m} simplex corners: homogeneity =",
              metrics.metric_report(np.eye(m)).homogeneity)

    banner("what homogeneity ignores")
    rng = np.random.default_rng(7)
    blob = rng.normal(size=(200, 6))
    h = metrics.metric_report(blob).homogeneity
    q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    print("blob:                 ", h)
    print("same blob, x1000 size:", metrics.metric_report(blob * 1000).homogeneity)
    print("same blob, shifted:   ", metrics.metric_report(blob + 50.0).homogeneity)
    print("same blob, rotated:   ", metrics.metric_report(blob @ q).homogeneity)
    print("-> scale, position, and orientation all cancel out of the")
    print("   transition probabilities; only the shape of the distance")
    print("   distribution matters.")

    banner("degenerate inputs are reported, not raised")
    report = metrics.metric_report([[1.0, 2.0], [3.0, 4.0]])
    print("two points only ->", report.homogeneity,
          "| reason:", report.homogeneity_skipped_reason)
    report = metrics.metric_report(rng.normal(size=(50, 1)))
    print("one dimension -> homogeneity", report.homogeneity,
          "| note:", report.notes[0][:60] + "...")


if __name__ == "__main__":
    main()
