"""Dataset-level aggregation, down-sampling sweeps, and correlations.

A dataset profile rolls per-(label, layer) metric reports up to one value
per metric: layer reports are averaged per class, then class values are
averaged weighted by class size. A sweep repeats that profile at shrinking
sample fractions; a correlation report relates the sweep's final metric
values to externally supplied model scores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyClass,
    InconsistentClassSize,
)
from .io import LabeledEmbeddings, group_by_label
from .metrics import (
    MetricReport,
    axis_stats,
    density,
    diversity,
    homogeneity,
    metric_report,
)

__all__ = [
    "AggregateMetrics",
    "CorrelationEntry",
    "CorrelationReport",
    "DatasetProfile",
    "METRIC_NAMES",
    "SweepRow",
    "SweepTable",
    "average_reports",
    "correlation_report",
    "downsample_sweep",
    "pearson",
    "profile_dataset",
]

METRIC_NAMES = ("diversity", "density", "homogeneity")


@dataclass(frozen=True)
class AggregateMetrics:
    """Averaged metric values; ``density_log`` is re-derived from ``density``
    so the log stays consistent with the linear value after averaging."""

    diversity: float
    density: float
    density_log: float
    homogeneity: float | None
    homogeneity_skipped: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "diversity": self.diversity,
            "density": self.density,
            "density_log": self.density_log,
            "homogeneity": self.homogeneity,
            "homogeneity_skipped": list(self.homogeneity_skipped),
        }


@dataclass(eq=False)
class DatasetProfile:
    """Per-group reports plus the class-level and final aggregates."""

    per_group: dict[tuple[str, str], MetricReport]
    per_class: dict[str, AggregateMetrics]
    final: AggregateMetrics
    class_sizes: dict[str, int]
    homogeneity_cap: int | None = None

    def to_dict(self) -> dict:
        return {
            "class_sizes": dict(self.class_sizes),
            "homogeneity_cap": self.homogeneity_cap,
            "per_group": [
                {"label": label, "layer": layer, **report.to_dict()}
                for (label, layer), report in self.per_group.items()
            ],
            "per_class": {label: agg.to_dict()
                          for label, agg in self.per_class.items()},
            "final": self.final.to_dict(),
        }


@dataclass(eq=False)
class SweepRow:
    fraction: float
    size: int
    final: AggregateMetrics
    profile: DatasetProfile | None = None
    scores: dict[str, float] | None = None


@dataclass(eq=False)
class SweepTable:
    rows: list[SweepRow]
    seed: int | None = None

    def fractions(self) -> list[float]:
        return [row.fraction for row in self.rows]


@dataclass(frozen=True)
class CorrelationEntry:
    metric: str
    score: str
    r: float | None
    n: int
    error: str | None = None


@dataclass(eq=False)
class CorrelationReport:
    entries: list[CorrelationEntry] = field(default_factory=list)


def _group_report(cluster: np.ndarray, cap: int | None, rng_seed) -> MetricReport:
    """Metric report with homogeneity optionally computed on a subsample."""
    m = cluster.shape[0]
    if cap is None or m <= cap or m < 3:
        return metric_report(cluster)
    stats = axis_stats(cluster)
    den = density(stats)
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(m, size=cap, replace=False)
    idx.sort()
    base = metric_report(cluster[idx])
    return MetricReport(
        diversity=diversity(stats),
        density=den.value,
        density_log=den.log_value,
        homogeneity=base.homogeneity,
        degenerate_axes=den.floored_axes,
        homogeneity_skipped_reason=base.homogeneity_skipped_reason,
        notes=base.notes + (f"homogeneity computed on {cap} of {m} points",),
    )


def average_reports(
        keyed_reports: list[tuple[str, MetricReport | AggregateMetrics]],
        weights=None) -> AggregateMetrics:
    """Weighted mean of metric reports, skipping absent homogeneity values.

    ``keyed_reports`` pairs a displayable key (layer name, class label) with
    each report (a per-group report or a per-class aggregate) so skipped
    homogeneity sources can be named. Uniform weights when none are given;
    homogeneity weights are renormalized over the reports that actually have
    a value.
    """
    if not keyed_reports:
        raise ValueError("nothing to average")
    if weights is None:
        weights = [1.0 / len(keyed_reports)] * len(keyed_reports)
    div = sum(w * rep.diversity for w, (_, rep) in zip(weights, keyed_reports))
    den = sum(w * rep.density for w, (_, rep) in zip(weights, keyed_reports))

    have = [(w, rep.homogeneity) for w, (_, rep) in zip(weights, keyed_reports)
            if rep.homogeneity is not None]
    skipped = tuple(key for (key, rep) in keyed_reports if rep.homogeneity is None)
    if have:
        total = sum(w for w, _ in have)
        hom = sum(w * h for w, h in have) / total
    else:
        hom = None
    return AggregateMetrics(diversity=div, density=den,
                            density_log=math.log(den) if den > 0 else -math.inf,
                            homogeneity=hom, homogeneity_skipped=skipped)


def profile_dataset(groups: dict[tuple[str, str], np.ndarray],
                    homogeneity_cap: int | None = None,
                    seed: int = 0) -> DatasetProfile:
    """Aggregate per-group clusters into a dataset profile.

    Every layer of a class must hold the same number of points, since the
    class weight in the final average is the class size.
    """
    if not groups:
        raise ValueError("no groups to profile")

    class_sizes: dict[str, int] = {}
    for (label, layer), cluster in groups.items():
        m = cluster.shape[0]
        if label in class_sizes and class_sizes[label] != m:
            raise InconsistentClassSize(
                f"class {label!r} has {m} points in layer {layer!r} but "
                f"{class_sizes[label]} elsewhere"
            )
        class_sizes.setdefault(label, m)

    per_group: dict[tuple[str, str], MetricReport] = {}
    for index, ((label, layer), cluster) in enumerate(groups.items()):
        per_group[(label, layer)] = _group_report(
            cluster, homogeneity_cap,
            np.random.SeedSequence([seed, index]))

    per_class: dict[str, AggregateMetrics] = {}
    for label in class_sizes:
        layer_reports = [(layer, rep) for (lb, layer), rep in per_group.items()
                         if lb == label]
        per_class[label] = average_reports(layer_reports)

    total = sum(class_sizes.values())
    final = average_reports(list(per_class.items()),
                            [class_sizes[label] / total for label in per_class])
    return DatasetProfile(per_group=per_group, per_class=per_class, final=final,
                          class_sizes=class_sizes, homogeneity_cap=homogeneity_cap)


def _sample_units(units: list, fraction: float, rng, what: str) -> list:
    keep = int(math.floor(fraction * len(units) + 0.5))
    if keep == 0:
        raise EmptyClass(f"{what} has no members left at fraction {fraction}")
    idx = rng.choice(len(units), size=keep, replace=False)
    idx.sort()
    return [units[i] for i in idx]


def downsample_sweep(embeddings: LabeledEmbeddings, fractions, seed: int = 0,
                     stratified: bool = True,
                     homogeneity_cap: int | None = None) -> SweepTable:
    """Profile the collection at each fraction of its sampling units.

    The sampling unit is the distinct (label, id) pair, so a text embedded
    at several layers is kept or dropped as a whole and layer sizes stay
    consistent. Stratified mode (the default) samples within each class to
    preserve class proportions; the global mode samples the pooled units.
    Fraction 1.0 short-circuits to the full profile.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions must not be empty")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in (0, 1]: {fractions}")
    if any(b >= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly decreasing")

    # Distinct sampling units per class, in first-seen order; the dict keys
    # double as the membership set for the full fraction.
    units_by_class: dict[str, dict[str, None]] = {}
    for label, rec_id in zip(embeddings.labels, embeddings.ids):
        units_by_class.setdefault(label, {})[rec_id] = None

    rows: list[SweepRow] = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        if fraction == 1.0:
            chosen = units_by_class
        elif stratified:
            chosen = {
                label: set(_sample_units(list(ids), fraction, rng,
                                         f"class {label!r}"))
                for label, ids in units_by_class.items()
            }
        else:
            pool = [(label, rec_id) for label, ids in units_by_class.items()
                    for rec_id in ids]
            picked = _sample_units(pool, fraction, rng, "the collection")
            chosen = {label: set() for label in units_by_class}
            for label, rec_id in picked:
                chosen[label].add(rec_id)
            for label, ids in chosen.items():
                if not ids:
                    raise EmptyClass(
                        f"class {label!r} has no members left at fraction {fraction}"
                    )

        idx = [i for i, (label, rec_id) in enumerate(zip(embeddings.labels,
                                                         embeddings.ids))
               if rec_id in chosen[label]]
        subset = LabeledEmbeddings(embeddings.vectors[idx],
                                   [embeddings.ids[i] for i in idx],
                                   [embeddings.labels[i] for i in idx],
                                   [embeddings.layers[i] for i in idx])
        profile = profile_dataset(group_by_label(subset),
                                  homogeneity_cap=homogeneity_cap,
                                  seed=seed)
        size = sum(len(ids) for ids in chosen.values())
        rows.append(SweepRow(fraction=fraction, size=size,
                             final=profile.final, profile=profile))
    return SweepTable(rows=rows, seed=seed)


def pearson(x, y) -> float:
    """Product-moment correlation of two equal-length sequences."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.ndim != 1 or ya.ndim != 1 or xa.shape != ya.shape:
        raise DegenerateInput(
            f"expected two equal-length 1-D sequences, got {xa.shape} and {ya.shape}"
        )
    if xa.shape[0] < 2:
        raise DegenerateInput(f"need at least 2 pairs, got {xa.shape[0]}")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(xc @ xc)
    sy = float(yc @ yc)
    if sx == 0.0 or sy == 0.0:
        raise DegenerateInput("an input sequence is constant")
    r = float(xc @ yc) / math.sqrt(sx * sy)
    return min(1.0, max(-1.0, r))


def correlation_report(sweep: SweepTable, score_names) -> CorrelationReport:
    """Correlate each final metric with each named score across sweep rows.

    Rows must carry all named scores. A degenerate pair (constant column,
    missing homogeneity) is recorded on its entry without aborting the rest.
    """
    for row in sweep.rows:
        missing = [name for name in score_names
                   if row.scores is None or name not in row.scores]
        if missing:
            raise DegenerateInput(
                f"sweep row at fraction {row.fraction} is missing scores: {missing}"
            )

    report = CorrelationReport()
    for metric in METRIC_NAMES:
        values = [getattr(row.final, metric) for row in sweep.rows]
        for score in score_names:
            scores = [row.scores[score] for row in sweep.rows]
            if any(v is None for v in values):
                entry = CorrelationEntry(metric, score, None, len(values),
                                         error=f"{metric} missing in some rows")
            else:
                try:
                    entry = CorrelationEntry(metric, score,
                                             pearson(values, scores), len(values))
                except DegenerateInput as exc:
                    entry = CorrelationEntry(metric, score, None, len(values),
                                             error=f"degenerate: {exc}")
            report.entries.append(entry)
    return report
