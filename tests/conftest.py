"""Shared brute-force oracles and the acceptance summary hook.

The oracle functions rebuild the distance chain the slow, obvious way —
full matrices, per-pair norms, power iteration — so the streaming
implementations have something independent to be checked against.
"""

from __future__ import annotations

import math

import numpy as np

# One line per acceptance criterion, echoed after the test run so the
# verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []

# Reference down-sampling measurements for two public benchmark training
# sets (BERT sentence embeddings, externally trained classifier scores).
# Used as correlation fixtures: the metric columns and the score columns
# below are all previously reported values, transcribed as-is.
SST2_REFERENCE = [
    # fraction, size,   accuracy, diversity, density, homogeneity
    (1.0, 67350, 0.9266, 0.292, 44.487, 0.928),
    (0.9, 60615, 0.9323, 0.292, 44.367, 0.927),
    (0.8, 53880, 0.9260, 0.292, 44.224, 0.927),
    (0.7, 47146, 0.9266, 0.292, 44.071, 0.925),
    (0.6, 40411, 0.9312, 0.292, 43.928, 0.924),
    (0.5, 33676, 0.9300, 0.292, 43.672, 0.922),
    (0.4, 26941, 0.9243, 0.292, 43.384, 0.919),
    (0.3, 20206, 0.9300, 0.292, 43.148, 0.917),
    (0.2, 13471, 0.9174, 0.293, 42.733, 0.914),
    (0.1, 6736, 0.9071, 0.294, 41.972, 0.908),
]

SNIPS_REFERENCE = [
    # fraction, size,  IC acc, SL F1, diversity, density, homogeneity
    (1.0, 13084, 98.71, 96.06, 0.215, 48.291, 0.950),
    (0.9, 11773, 98.57, 95.79, 0.215, 48.199, 0.949),
    (0.8, 10465, 99.00, 95.55, 0.215, 48.109, 0.949),
    (0.7, 9157, 99.14, 95.13, 0.215, 47.996, 0.948),
    (0.6, 7848, 98.71, 95.02, 0.215, 47.751, 0.948),
    (0.5, 6541, 98.86, 94.38, 0.215, 47.660, 0.945),
    (0.4, 5231, 99.00, 94.74, 0.214, 47.449, 0.944),
    (0.3, 3922, 98.57, 93.74, 0.215, 47.090, 0.941),
    (0.2, 2614, 96.42, 92.63, 0.214, 46.877, 0.939),
    (0.1, 1306, 87.20, 89.12, 0.214, 46.158, 0.929),
]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def brute_weights(points) -> np.ndarray:
    """Full m x m weight matrix from per-pair distances, no expansion trick."""
    pts = np.asarray(points, dtype=np.float64)
    m, dim = pts.shape
    weights = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            d = math.dist(pts[i], pts[j])
            weights[i, j] = d ** math.log(dim) if d > 0.0 else 0.0
    return weights


def brute_transitions(points) -> np.ndarray:
    weights = brute_weights(points)
    return weights / weights.sum(axis=1, keepdims=True)


def power_iteration_stationary(points, tol: float = 1e-14,
                               max_iter: int = 50_000) -> np.ndarray:
    """Left fixed point of the transition matrix by plain power iteration.

    Requires an aperiodic chain; any fully connected cluster with at least
    3 distinct points qualifies.
    """
    p = brute_transitions(points)
    v = np.full(p.shape[0], 1.0 / p.shape[0])
    for _ in range(max_iter):
        nxt = v @ p
        nxt /= nxt.sum()
        if np.abs(nxt - v).max() <= tol:
            return nxt
        v = nxt
    raise AssertionError(f"power iteration did not converge within {max_iter} steps")


def brute_entropy_rate(points) -> float:
    weights = brute_weights(points)
    strengths = weights.sum(axis=1)
    stationary = strengths / strengths.sum()
    rate = 0.0
    for i in range(weights.shape[0]):
        row = weights[i] / strengths[i]
        row = row[row > 0.0]
        rate -= stationary[i] * float((row * np.log(row)).sum())
    return rate


def random_cluster(rng: np.random.Generator, max_m: int = 64,
                   max_dim: int = 16, min_m: int = 3) -> np.ndarray:
    """A random blob with random size, dimensionality, scale, and offset."""
    m = int(rng.integers(min_m, max_m + 1))
    dim = int(rng.integers(1, max_dim + 1))
    scale = float(10.0 ** rng.integers(-3, 4))
    offset = rng.normal(scale=scale, size=dim)
    return rng.normal(scale=scale, size=(m, dim)) + offset


def assert_same_report(got, want) -> None:
    """Reports agree bitwise in every field but homogeneity, which may move
    by roundoff (1e-12) when it is computed in another summation order."""
    assert got.diversity == want.diversity
    assert got.density == want.density
    assert got.density_log == want.density_log
    assert got.degenerate_axes == want.degenerate_axes
    assert got.notes == want.notes
    assert got.homogeneity_skipped_reason == want.homogeneity_skipped_reason
    if want.homogeneity is None:
        assert got.homogeneity is None
    else:
        assert abs(got.homogeneity - want.homogeneity) <= 1e-12
