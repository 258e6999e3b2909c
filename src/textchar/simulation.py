"""Synthetic metric-vs-parameter sweeps.

Four scenarios probe how the metrics respond to controlled changes of an
isotropic Gaussian blob:

* ``downsample`` -- keep a random fraction of the points.
* ``spread`` -- regenerate the blob with a larger per-axis spread.
* ``outliers`` -- add points drawn uniformly from a far sphere shell.
* ``subclusters`` -- split the budget into k blobs spaced along axis 0.

``run_scenario`` is the one public route to synthetic points. It checks
its arguments before it draws anything, walks the sweep ``SWEEPS[kind]``
and returns one metric report per sweep value. Every down-sampling row is
a subset of one base blob, so all of them are reported from one shared
pairwise pass (``metrics.metric_reports``); the other kinds build a new
cluster per row.

Reproducibility contract: all draws use numpy's PCG64 ``default_rng``. A
generator seeded with ``s`` fills its matrix with one row-major ``normal``
call; sweep row ``i`` derives its stream from ``SeedSequence([s, i])``. Any
change to this mapping is a breaking change of the artifact version.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInput
from .metrics import MetricReport, metric_report, metric_reports

__all__ = ["SWEEPS", "run_scenario"]

# The sweep of each scenario kind, base value first so every row can be
# compared against the unmodified blob.
SWEEPS = {
    "downsample": (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1),
    "spread": (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0),
    "outliers": (0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500),
    "subclusters": (1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
}

# Outlier shell radius and sub-cluster spacing both default to this multiple
# of the blob's unit per-axis spread: far outside the 3-sigma shell in low
# and high dimension alike, so the perturbations are unambiguous.
DEFAULT_SCALE_FACTOR = 10.0


def _sorted_draw(rng: np.random.Generator, m: int, keep: int) -> np.ndarray:
    """Sorted indices of ``keep`` of ``m`` rows drawn without replacement.

    Every subsample of the package goes through this one ``rng.choice``
    call, so the draws stay part of the reproducibility contract.
    """
    idx = rng.choice(m, size=keep, replace=False)
    idx.sort()
    return idx


def _sample_rows(m: int, fraction: float, seed) -> np.ndarray:
    """Sorted indices of a uniform draw of ``round(fraction * m)`` of ``m``
    rows, half up, for a ``fraction`` in (0, 1]; ``seed`` may also be a
    Generator, which is drawn from as it is. Fraction 1.0 keeps every row;
    a fraction that keeps no row is a ``DegenerateInput``."""
    keep = int(math.floor(fraction * m + 0.5))
    if keep == 0:
        raise DegenerateInput(f"fraction {fraction} of {m} points rounds to 0")
    return _sorted_draw(np.random.default_rng(seed), m, keep)


def _sphere_points(n: int, dim: int, radius: float, seed) -> np.ndarray:
    """``n`` points uniform on the sphere of the given radius: Gaussian
    draws normalized to the radius."""
    points = np.random.default_rng(seed).normal(size=(n, dim))
    return points * (radius / np.linalg.norm(points, axis=1))[:, None]


def _sub_clusters(k: int, total: int, dim: int, spacing: float, seed) -> np.ndarray:
    """``k`` equal unit-spread blobs with centers at ``(i * spacing, 0, ..., 0)``.

    When ``total`` is not divisible by ``k`` the first clusters take the
    remainder, one extra point each.
    """
    rng = np.random.default_rng(seed)
    size, rem = divmod(total, k)
    parts = []
    for i in range(k):
        points = rng.normal(0.0, 1.0, size=(size + (1 if i < rem else 0), dim))
        points[:, 0] += i * spacing
        parts.append(points)
    return np.vstack(parts)


def run_scenario(kind: str, dim: int, points: int = 10_000, seed: int = 0,
                 outlier_radius: float = DEFAULT_SCALE_FACTOR,
                 spacing: float = DEFAULT_SCALE_FACTOR) -> tuple[MetricReport, ...]:
    """One metric report per value of ``SWEEPS[kind]``, in sweep order.

    ``kind`` is a key of ``SWEEPS``. Every argument is checked before
    anything is drawn; these raise ValueError, in this order: ``points``
    below 1 (``count must be >= 1``), ``dim`` below 1, the one scale that
    the kind reads (an ``outlier_radius`` that is not finite and > 0 for
    ``outliers``, a ``spacing`` that is not finite for ``subclusters``; the
    other is ignored), and for ``subclusters`` fewer ``points`` than a
    sub-cluster count of the sweep.

    The base blob ``default_rng(seed).normal(0.0, 1.0, (points, dim))`` is
    drawn once for the kinds that modify it, down-sampling and outliers:
    down-sampling rows share one pairwise pass over it, and each outlier
    row appends its shell points to it, none for the first. A
    down-sampling fraction that keeps no point raises ``DegenerateInput``
    before the pass.
    """
    if kind not in SWEEPS:
        raise ValueError(f"unknown scenario kind {kind!r}")
    sweep = SWEEPS[kind]
    if points < 1:
        raise ValueError(f"count must be >= 1, got {points}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if kind == "outliers" and not (math.isfinite(outlier_radius) and outlier_radius > 0):
        raise ValueError(f"radius must be finite and > 0, got {outlier_radius}")
    if kind == "subclusters":
        if not math.isfinite(spacing):
            raise ValueError(f"spacing must be finite, got {spacing}")
        too_many = [k for k in sweep if k > points]
        if too_many:
            raise ValueError(f"total ({points}) must be >= k ({too_many[0]})")
    if kind in ("downsample", "outliers"):
        base = np.random.default_rng(seed).normal(0.0, 1.0, size=(points, dim))
    streams = [np.random.SeedSequence([seed, index]) for index in range(len(sweep))]
    if kind == "downsample":
        subsets = [_sample_rows(points, value, stream)
                   for value, stream in zip(sweep, streams)]
        return tuple(metric_reports(base, subsets))
    reports = []
    for value, stream in zip(sweep, streams):
        if kind == "spread":
            rng = np.random.default_rng(stream)
            cluster = rng.normal(0.0, value, size=(points, dim))
        elif kind == "outliers":
            cluster = np.vstack([base, _sphere_points(value, dim, outlier_radius, stream)])
        else:
            cluster = _sub_clusters(value, points, dim, spacing, stream)
        reports.append(metric_report(cluster))
    return tuple(reports)
