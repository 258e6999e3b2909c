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
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyClass,
    EmptyResult,
    InconsistentClassSize,
)
from .metrics import MetricReport, metric_reports
from .simulation import _sample_rows, _sorted_draw

if TYPE_CHECKING:
    from .io import LabeledEmbeddings

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

    @classmethod
    def from_dict(cls, doc: dict) -> AggregateMetrics:
        """Inverse of ``to_dict``. Only ``diversity`` and ``density`` are
        required: a missing ``density_log`` reads as NaN, a missing or null
        ``homogeneity`` as None. Raises KeyError, TypeError or ValueError
        on a malformed ``doc``."""
        hom = doc.get("homogeneity")
        return cls(diversity=float(doc["diversity"]),
                   density=float(doc["density"]),
                   density_log=float(doc.get("density_log", math.nan)),
                   homogeneity=None if hom is None else float(hom),
                   homogeneity_skipped=tuple(str(key) for key in
                                             doc.get("homogeneity_skipped", ())))


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


def _class_sizes(sizes: dict[tuple[str, str], int]) -> dict[str, int]:
    """Points per class, from the size of each (label, layer) group.

    Every layer of a class must hold the same number of points, since the
    class weight in the final average is the class size.
    """
    if not sizes:
        raise ValueError("no groups to profile")
    class_sizes: dict[str, int] = {}
    for (label, layer), m in sizes.items():
        if label in class_sizes and class_sizes[label] != m:
            raise InconsistentClassSize(
                f"class {label!r} has {m} points in layer {layer!r} but "
                f"{class_sizes[label]} elsewhere"
            )
        class_sizes.setdefault(label, m)
    return class_sizes


def _cap_rows(m: int, cap: int | None, seed: int, index: int) -> np.ndarray:
    """Rows of an ``m``-point group on which homogeneity is computed: all of
    them, or a draw of ``cap`` seeded by the group's position ``index``."""
    if cap is None or m <= cap or m < 3:
        return np.arange(m)
    return _sorted_draw(np.random.default_rng(np.random.SeedSequence([seed, index])),
                        m, cap)


def _profile(per_group: dict[tuple[str, str], MetricReport],
             class_sizes: dict[str, int], cap: int | None) -> DatasetProfile:
    """Average layer reports per class, then classes weighted by size."""
    per_class: dict[str, AggregateMetrics] = {}
    for label in class_sizes:
        layer_reports = [(layer, rep) for (lb, layer), rep in per_group.items()
                         if lb == label]
        per_class[label] = average_reports(layer_reports)

    total = sum(class_sizes.values())
    final = average_reports(list(per_class.items()),
                            [class_sizes[label] / total for label in per_class])
    return DatasetProfile(per_group=per_group, per_class=per_class, final=final,
                          class_sizes=class_sizes, homogeneity_cap=cap)


def profile_dataset(groups: dict[tuple[str, str], np.ndarray],
                    homogeneity_cap: int | None = None,
                    seed: int = 0) -> DatasetProfile:
    """Aggregate per-group clusters into a dataset profile.

    Every layer of a class must hold the same number of points, since the
    class weight in the final average is the class size. A group larger than
    ``homogeneity_cap`` gets its homogeneity from ``homogeneity_cap`` rows
    drawn with ``SeedSequence([seed, index])``, ``index`` being the group's
    position in ``groups``.
    """
    class_sizes = _class_sizes({key: cluster.shape[0]
                                for key, cluster in groups.items()})
    per_group: dict[tuple[str, str], MetricReport] = {}
    for index, (key, cluster) in enumerate(groups.items()):
        m = cluster.shape[0]
        (per_group[key],) = metric_reports(
            cluster, [np.arange(m)],
            homogeneity_subsets=[_cap_rows(m, homogeneity_cap, seed, index)])
    return _profile(per_group, class_sizes, homogeneity_cap)


def _sample_units(units: np.ndarray, fraction: float, rng, what: str) -> np.ndarray:
    try:
        return units[_sample_rows(len(units), fraction, rng)]
    except EmptyResult:
        raise EmptyClass(f"{what} has no members left at fraction {fraction}") from None


def _kept_units(units_by_class: dict[str, np.ndarray], pooled: np.ndarray,
                fraction: float, rng, stratified: bool) -> np.ndarray:
    """Mask of the units kept at ``fraction``, drawn class by class or from
    the ``pooled`` units (in class order)."""
    kept = np.zeros(len(pooled), dtype=bool)
    if stratified:
        for label, units in units_by_class.items():
            kept[_sample_units(units, fraction, rng, f"class {label!r}")] = True
    else:
        kept[_sample_units(pooled, fraction, rng, "the collection")] = True
        for label, units in units_by_class.items():
            if not kept[units].any():
                raise EmptyClass(
                    f"class {label!r} has no members left at fraction {fraction}")
    return kept


class _FractionPlan(NamedTuple):
    fraction: float
    size: int
    class_sizes: dict[str, int]
    # Per (label, layer) group, in order of its first kept row: the kept rows
    # and the homogeneity rows, as positions within the whole group.
    groups: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]


def downsample_sweep(embeddings: LabeledEmbeddings, fractions, seed: int = 0,
                     stratified: bool = True,
                     homogeneity_cap: int | None = None) -> SweepTable:
    """Profile the collection at each fraction of its sampling units.

    The sampling unit is the distinct (label, id) pair, so a text embedded
    at several layers is kept or dropped as a whole and layer sizes stay
    consistent. Stratified mode (the default) samples within each class to
    preserve class proportions; the global mode samples the pooled units.
    Fraction 1.0 keeps every unit.

    Every fraction is planned first, with the draws ``profile_dataset``
    would make on it: units from ``SeedSequence([seed, i])`` for fraction
    ``i``, and each capped group's homogeneity rows from
    ``SeedSequence([seed, g])``, ``g`` being the group's position in that
    fraction's group order. Then each (label, layer) group gets one
    ``metric_reports`` call, so one pairwise pass serves it at every
    fraction, and each fraction's reports are averaged as in
    ``profile_dataset``.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions must not be empty")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in (0, 1]: {fractions}")
    if any(b >= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly decreasing")

    # Sampling units numbered in first-seen order, the units of each class,
    # the unit of each row, and the rows of each (label, layer) group.
    unit_numbers: dict[tuple[str, str], int] = {}
    class_units: dict[str, list[int]] = {}
    row_units = []
    group_rows: dict[tuple[str, str], list[int]] = {}
    for row, (label, rec_id, layer) in enumerate(zip(embeddings.labels, embeddings.ids,
                                                      embeddings.layers)):
        unit = unit_numbers.get((label, rec_id))
        if unit is None:
            unit = unit_numbers[label, rec_id] = len(unit_numbers)
            class_units.setdefault(label, []).append(unit)
        row_units.append(unit)
        group_rows.setdefault((label, layer), []).append(row)
    units_by_class = {label: np.array(units) for label, units in class_units.items()}
    pooled = np.array([unit for units in class_units.values() for unit in units],
                      dtype=np.intp)
    row_units = np.array(row_units, dtype=np.intp)
    group_units = {key: row_units[rows] for key, rows in group_rows.items()}

    plans: list[_FractionPlan] = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        kept_units = _kept_units(units_by_class, pooled, fraction, rng, stratified)
        kept = {}
        for key, units in group_units.items():
            idx = np.flatnonzero(kept_units[units])
            if len(idx):
                kept[key] = idx
        # Groups in order of their first kept row, as grouping the kept rows
        # in record order would list them.
        order = sorted(kept, key=lambda key: group_rows[key][kept[key][0]])
        class_sizes = _class_sizes({key: len(kept[key]) for key in order})
        groups = {}
        for g, key in enumerate(order):
            idx = kept[key]
            groups[key] = idx, idx[_cap_rows(len(idx), homogeneity_cap, seed, g)]
        plans.append(_FractionPlan(fraction, int(kept_units.sum()), class_sizes, groups))

    reports: dict[tuple[int, tuple[str, str]], MetricReport] = {}
    for key, rows in group_rows.items():
        at = [i for i, plan in enumerate(plans) if key in plan.groups]
        if not at:
            continue
        subsets, hom_subsets = zip(*(plans[i].groups[key] for i in at))
        reports.update(zip([(i, key) for i in at], metric_reports(
            embeddings.vectors[rows], subsets, homogeneity_subsets=hom_subsets)))

    sweep_rows: list[SweepRow] = []
    for i, plan in enumerate(plans):
        profile = _profile({key: reports[i, key] for key in plan.groups},
                           plan.class_sizes, homogeneity_cap)
        sweep_rows.append(SweepRow(fraction=plan.fraction, size=plan.size,
                                   final=profile.final, profile=profile))
    return SweepTable(rows=sweep_rows, seed=seed)


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
    if not (np.isfinite(xa).all() and np.isfinite(ya).all()):
        raise DegenerateInput("an input sequence holds a non-finite value")
    # Exact power-of-two scaling (r is scale-free) keeps every sum in range;
    # short of subnormals, it changes no bit of r.
    xa = np.ldexp(xa, -np.frexp(np.abs(xa).max())[1])
    ya = np.ldexp(ya, -np.frexp(np.abs(ya).max())[1])
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
