"""Synthetic cluster generators and metric-vs-parameter sweeps.

Four scenarios probe how the metrics respond to controlled changes of an
isotropic Gaussian blob:

* ``down_sampling`` -- keep a random fraction of the points.
* ``varying_spread`` -- regenerate the blob with a larger per-axis spread.
* ``outliers`` -- add points drawn uniformly from a far sphere shell.
* ``sub_clusters`` -- split the budget into k blobs spaced along axis 0.

Every down-sampling row is a subset of one base blob, so ``run_scenario``
reports all of them from one shared pairwise pass
(``metrics.metric_reports``); the other kinds build a new cluster per row.

Reproducibility contract: all draws use numpy's PCG64 ``default_rng``. A
generator seeded with ``s`` fills its matrix with one row-major ``normal``
call; sweep row ``i`` derives its stream from ``SeedSequence([s, i])``. Any
change to this mapping is a breaking change of the artifact version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyResult
from .metrics import MetricReport, metric_report, metric_reports

__all__ = [
    "BlobSpec",
    "ScenarioResult",
    "ScenarioRow",
    "ScenarioSpec",
    "DOWN_SAMPLING_FRACTIONS",
    "OUTLIER_COUNTS",
    "SPREADS",
    "SUB_CLUSTER_COUNTS",
    "SCENARIO_KINDS",
    "add_outliers",
    "default_sweep",
    "down_sample",
    "gaussian_blob",
    "run_scenario",
    "scenario",
    "sphere_points",
    "sub_clusters",
]

# Default sweeps, base value first so every scenario row can be compared
# against the unmodified blob.
DOWN_SAMPLING_FRACTIONS = (1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1)
SPREADS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0)
OUTLIER_COUNTS = (0, 50, 100, 150, 200, 250, 300, 350, 400, 450, 500)
SUB_CLUSTER_COUNTS = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)

SCENARIO_KINDS = ("down_sampling", "varying_spread", "outliers", "sub_clusters")

# Outlier shell radius and sub-cluster spacing both default to this multiple
# of the blob's per-axis spread: far outside the 3-sigma shell in low and
# high dimension alike, so the perturbations are unambiguous.
DEFAULT_SCALE_FACTOR = 10.0


@dataclass(frozen=True)
class BlobSpec:
    """Isotropic Gaussian blob: ``count`` points in ``dim`` dimensions."""

    count: int
    dim: int
    std: float = 1.0
    center: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if not self.std > 0:
            raise ValueError(f"std must be > 0, got {self.std}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One sweep: a base blob plus the parameter values to walk through."""

    kind: str
    base: BlobSpec
    sweep: tuple
    outlier_radius: float | None = None
    spacing: float | None = None

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        if len(self.sweep) == 0:
            raise ValueError("sweep must not be empty")
        diffs = np.diff(np.asarray(self.sweep, dtype=np.float64))
        if len(diffs) and not ((diffs > 0).all() or (diffs < 0).all()):
            raise ValueError("sweep values must be strictly monotone")


@dataclass(frozen=True)
class ScenarioRow:
    parameter: float
    report: MetricReport | None
    error: str | None = None


@dataclass(frozen=True)
class ScenarioResult:
    spec: ScenarioSpec
    seed: int
    rows: tuple[ScenarioRow, ...] = field(default_factory=tuple)


def gaussian_blob(spec: BlobSpec) -> np.ndarray:
    """Sample the blob described by ``spec``; bitwise deterministic per seed."""
    rng = np.random.default_rng(spec.seed)
    points = rng.normal(0.0, spec.std, size=(spec.count, spec.dim))
    if spec.center:
        points += spec.center
    return points


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
    rows; ``seed`` may also be a Generator, which is drawn from as it is."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    keep = int(math.floor(fraction * m + 0.5))
    if keep == 0:
        raise EmptyResult(f"fraction {fraction} of {m} points rounds to 0")
    return _sorted_draw(np.random.default_rng(seed), m, keep)


def down_sample(cluster, fraction: float, seed) -> np.ndarray:
    """Uniform subset without replacement of ``round(fraction * m)`` points.

    Selected indices are re-sorted, so fraction 1.0 returns the cluster
    unchanged and any subset preserves the original row order.
    """
    arr = np.asarray(cluster, dtype=np.float64)
    return arr[_sample_rows(arr.shape[0], fraction, seed)]


def sphere_points(n: int, dim: int, radius: float, seed) -> np.ndarray:
    """``n`` points uniform on the sphere of the given radius.

    Gaussian draws normalized to the radius; rows that would have zero norm
    (astronomically rare) are redrawn.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not radius > 0:
        raise ValueError(f"radius must be > 0, got {radius}")
    rng = np.random.default_rng(seed)
    points = rng.normal(size=(n, dim))
    norms = np.linalg.norm(points, axis=1)
    while (bad := norms == 0.0).any():
        points[bad] = rng.normal(size=(int(bad.sum()), dim))
        norms = np.linalg.norm(points, axis=1)
    return points * (radius / norms)[:, None]


def add_outliers(base, count: int, radius: float, seed) -> np.ndarray:
    """Append ``count`` shell points to the base cluster."""
    arr = np.asarray(base, dtype=np.float64)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return arr.copy()
    return np.vstack([arr, sphere_points(count, arr.shape[1], radius, seed)])


def sub_clusters(k: int, total: int, dim: int, std: float, spacing: float,
                 seed) -> np.ndarray:
    """``k`` equal blobs with centers at ``(i * spacing, 0, ..., 0)``.

    When ``total`` is not divisible by ``k`` the first clusters take the
    remainder, one extra point each.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if total < k:
        raise ValueError(f"total ({total}) must be >= k ({k})")
    rng = np.random.default_rng(seed)
    size, rem = divmod(total, k)
    parts = []
    for i in range(k):
        points = rng.normal(0.0, std, size=(size + (1 if i < rem else 0), dim))
        points[:, 0] += i * spacing
        parts.append(points)
    return np.vstack(parts)


def default_sweep(kind: str) -> tuple:
    return {
        "down_sampling": DOWN_SAMPLING_FRACTIONS,
        "varying_spread": SPREADS,
        "outliers": OUTLIER_COUNTS,
        "sub_clusters": SUB_CLUSTER_COUNTS,
    }[kind]


def scenario(kind: str, dim: int, points: int = 10_000, std: float = 1.0,
             seed: int = 0, sweep=None, outlier_radius: float | None = None,
             spacing: float | None = None) -> ScenarioSpec:
    """Convenience constructor with per-kind default sweeps."""
    base = BlobSpec(count=points, dim=dim, std=std, seed=seed)
    return ScenarioSpec(
        kind=kind,
        base=base,
        sweep=tuple(sweep) if sweep is not None else default_sweep(kind),
        outlier_radius=outlier_radius,
        spacing=spacing,
    )


def _scenario_cluster(spec: ScenarioSpec, base_points: np.ndarray,
                      index: int, value) -> np.ndarray:
    seed = spec.base.seed
    row_seed = np.random.SeedSequence([seed, index])
    if spec.kind == "varying_spread":
        rng = np.random.default_rng(row_seed)
        return rng.normal(0.0, float(value), size=(spec.base.count, spec.base.dim))
    if spec.kind == "outliers":
        radius = spec.outlier_radius
        if radius is None:
            radius = DEFAULT_SCALE_FACTOR * spec.base.std
        return add_outliers(base_points, int(value), radius, row_seed)
    if spec.kind == "sub_clusters":
        spacing = spec.spacing
        if spacing is None:
            spacing = DEFAULT_SCALE_FACTOR * spec.base.std
        return sub_clusters(int(value), spec.base.count, spec.base.dim,
                            spec.base.std, spacing, row_seed)
    raise ValueError(f"unknown scenario kind {spec.kind!r}")


def _down_sampling_rows(spec: ScenarioSpec, base_points: np.ndarray) -> list[ScenarioRow]:
    """Every row's subset of the base blob, reported from one shared pass."""
    m = base_points.shape[0]
    subsets, errors = [], {}
    for index, value in enumerate(spec.sweep):
        try:
            subsets.append(_sample_rows(
                m, float(value), np.random.SeedSequence([spec.base.seed, index])))
        except Exception as exc:  # noqa: BLE001 - row-level error capture
            errors[index] = str(exc)
    try:
        reports = iter(metric_reports(base_points, subsets))
    except Exception as exc:  # noqa: BLE001 - row-level error capture
        errors = {index: errors.get(index, str(exc)) for index in range(len(spec.sweep))}
    rows = []
    for index, value in enumerate(spec.sweep):
        if index in errors:
            rows.append(ScenarioRow(parameter=float(value), report=None,
                                    error=errors[index]))
        else:
            rows.append(ScenarioRow(parameter=float(value), report=next(reports)))
    return rows


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Walk the sweep, computing a metric report per parameter value.

    The base blob is generated once and reused by the scenarios that modify
    it; down-sampling rows share one pairwise pass over it. A failing row
    records its error and the sweep continues.
    """
    base_points = gaussian_blob(spec.base)
    if spec.kind == "down_sampling":
        return ScenarioResult(spec=spec, seed=spec.base.seed,
                              rows=tuple(_down_sampling_rows(spec, base_points)))
    rows = []
    for index, value in enumerate(spec.sweep):
        try:
            cluster = _scenario_cluster(spec, base_points, index, value)
            report = metric_report(cluster)
            rows.append(ScenarioRow(parameter=float(value), report=report))
        except Exception as exc:  # noqa: BLE001 - row-level error capture
            rows.append(ScenarioRow(parameter=float(value), report=None,
                                    error=str(exc)))
    return ScenarioResult(spec=spec, seed=spec.base.seed, rows=tuple(rows))
