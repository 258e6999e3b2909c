"""Dataset-level aggregation, down-sampling sweeps, and correlations.

A dataset profile rolls per-(label, layer) metric reports up to one value
per metric: layer reports are averaged per class, then class values are
averaged weighted by class size. A sweep makes that profile at each of a
list of sample fractions; the profile of a whole collection is the sweep of
the one fraction 1.0. A correlation report relates the final metric values
of a sweep to externally supplied model scores, one column per score.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import DegenerateInput, InconsistentClassSize
from .metrics import MetricReport, _as_cluster, _reports
from .simulation import _sample_rows, _sorted_draw

if TYPE_CHECKING:
    from .io import LabeledEmbeddings

__all__ = [
    "AggregateMetrics",
    "CorrelationEntry",
    "DatasetProfile",
    "METRIC_NAMES",
    "average_reports",
    "correlation_report",
    "downsample_sweep",
    "pearson",
]

METRIC_NAMES = ("diversity", "density", "homogeneity")


@dataclass(frozen=True)
class AggregateMetrics:
    """Averaged metric values. ``density_log`` is ``math.log(density)``
    while the averaged ``density`` is finite and positive; when the average
    overflows to inf or underflows to 0 it is the log of the same weighted
    mean taken in log space, from the averaged reports' ``density_log``, so
    it stays finite as theirs do. ``to_dict`` writes the ``final`` object of
    a profile or sweep row, and ``io.read_sweep`` reads it back."""

    diversity: float
    density: float
    density_log: float
    homogeneity: float | None
    homogeneity_skipped: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {**vars(self), "homogeneity_skipped": list(self.homogeneity_skipped)}


@dataclass(eq=False)
class DatasetProfile:
    """The profile of the ``size`` sampling units kept at ``fraction``:
    per-group reports plus the class-level and final aggregates."""

    fraction: float
    size: int
    per_group: dict[tuple[str, str], MetricReport]
    per_class: dict[str, AggregateMetrics]
    final: AggregateMetrics
    class_sizes: dict[str, int]
    homogeneity_cap: int | None

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


@dataclass(frozen=True)
class CorrelationEntry:
    metric: str
    score: str
    r: float | None
    n: int
    error: str | None = None


def average_reports(
        keyed_reports: list[tuple[str, MetricReport | AggregateMetrics]],
        weights=None) -> AggregateMetrics:
    """Weighted mean of metric reports, skipping absent homogeneity values.

    ``keyed_reports`` pairs a displayable key (layer name, class label) with
    each report (a per-group report or a per-class aggregate) so skipped
    homogeneity sources can be named. Uniform weights when none are given,
    and positive ones otherwise; homogeneity weights are renormalized over
    the reports that actually have a value. ``density_log`` is derived as
    ``AggregateMetrics`` says.
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
    if 0.0 < den < math.inf:
        den_log = math.log(den)
    else:
        # log(sum w_i exp(l_i)), each term scaled by the largest.
        terms = [math.log(w) + rep.density_log for w, (_, rep) in zip(weights, keyed_reports)]
        top = max(terms)
        den_log = top + math.log(math.fsum(math.exp(t - top) for t in terms))
    return AggregateMetrics(diversity=div, density=den, density_log=den_log,
                            homogeneity=hom, homogeneity_skipped=skipped)


def _profile(fraction: float, size: int, per_group: dict[tuple[str, str], MetricReport],
             class_sizes: dict[str, int], cap: int | None) -> DatasetProfile:
    """Average layer reports per class, then classes weighted by size."""
    layer_reports: dict[str, list[tuple[str, MetricReport]]] = {
        label: [] for label in class_sizes}
    for (label, layer), rep in per_group.items():
        layer_reports[label].append((layer, rep))
    per_class = {label: average_reports(reports)
                 for label, reports in layer_reports.items()}

    total = sum(class_sizes.values())
    final = average_reports(list(per_class.items()),
                            [class_sizes[label] / total for label in per_class])
    return DatasetProfile(fraction=fraction, size=size, per_group=per_group,
                          per_class=per_class, final=final, class_sizes=class_sizes,
                          homogeneity_cap=cap)


def _plan(kept: dict[tuple[str, str], np.ndarray],
          group_rows: dict[tuple[str, str], list[int]], cap: int | None, seed: int
          ) -> tuple[dict[str, int], dict[tuple[str, str], tuple[np.ndarray, np.ndarray]]]:
    """Plan the profile of the ``kept`` rows of every (label, layer) group,
    given as positions within its ``group_rows``. Every layer of a class
    must keep as many rows, a layer that keeps none counting 0. The groups
    are then listed in profile order, that of their first kept row, and a
    group of more than ``cap`` rows gets its homogeneity rows from
    ``SeedSequence([seed, g])``, ``g`` being its position in that order;
    both checks and draws precede every report.

    Returns the class sizes and, per group in profile order, its rows and
    its homogeneity rows, as positions within the whole group."""
    if not kept:
        raise ValueError("no groups to profile")
    sizes: dict[str, int] = {}
    for (label, layer), rows in kept.items():
        if sizes.setdefault(label, len(rows)) != len(rows):
            raise InconsistentClassSize(
                f"class {label!r} has {len(rows)} points in layer {layer!r} but "
                f"{sizes[label]} elsewhere")
    # Every class keeps a unit, so after the check every group keeps a row.
    order = sorted(kept, key=lambda key: group_rows[key][kept[key][0]])
    class_sizes = {label: sizes[label] for label, _ in order}
    groups = {}
    for g, key in enumerate(order):
        rows = kept[key]
        if cap is not None and len(rows) > cap:
            rng = np.random.default_rng(np.random.SeedSequence([seed, g]))
            groups[key] = rows, rows[_sorted_draw(rng, len(rows), cap)]
        else:
            groups[key] = rows, rows
    return class_sizes, groups


def _kept_units(units_by_class: dict[str, np.ndarray], count: int,
                fraction: float, rng) -> np.ndarray:
    """Mask of the ``count`` units kept at ``fraction``, drawn class by class."""
    kept = np.zeros(count, dtype=bool)
    for label, units in units_by_class.items():
        try:
            kept[units[_sample_rows(len(units), fraction, rng)]] = True
        except DegenerateInput:
            raise DegenerateInput(
                f"class {label!r} has no members left at fraction {fraction}") from None
    return kept


def downsample_sweep(embeddings: LabeledEmbeddings, fractions, seed: int = 0,
                     homogeneity_cap: int | None = None) -> list[DatasetProfile]:
    """Profile the collection at each fraction of its sampling units, one
    profile per fraction in the order given. The profile of the collection
    is the one-fraction sweep ``downsample_sweep(embeddings, [1.0])[0]``.

    The sampling unit is the distinct (label, id) pair, so a text embedded
    at several layers is kept or dropped as a whole and layer sizes stay
    consistent; a profile's ``size`` counts its kept units. Units are
    sampled within each class, which preserves the class proportions.

    Every fraction is planned first. Fraction ``i`` draws its units from
    ``SeedSequence([seed, i])``, class by class, so fraction 1.0 keeps them
    all. Its kept (label, layer) groups are listed in order of their first
    kept row, and a group of more than ``homogeneity_cap`` rows gets its
    homogeneity from ``homogeneity_cap`` of them, drawn with
    ``SeedSequence([seed, g])``, ``g`` being the group's position in that
    list. The cap is None or an integer of at least 3. A class whose layers
    keep different row counts (none, say) raises InconsistentClassSize.
    Then the collection's matrix is validated once, and each group, in
    record order, is copied from it and gets one ``metrics._reports`` call
    on the positions planned here, as ``metric_reports`` does after checking
    its subsets, so one pairwise pass serves it at every fraction. Each
    fraction's reports are averaged over the layers of each class, then
    over classes weighted by class size.
    """
    fractions = [float(f) for f in fractions]
    if not fractions:
        raise ValueError("fractions must not be empty")
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ValueError(f"fractions must lie in (0, 1]: {fractions}")
    if any(b >= a for a, b in zip(fractions, fractions[1:])):
        raise ValueError("fractions must be strictly decreasing")
    if homogeneity_cap is not None and (isinstance(homogeneity_cap, bool)
                                        or not isinstance(homogeneity_cap, int)
                                        or homogeneity_cap < 3):
        raise ValueError("homogeneity_cap must be None or an integer of at least 3, "
                         f"got {homogeneity_cap!r}")

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
    row_units = np.array(row_units, dtype=np.intp)
    group_units = {key: row_units[rows] for key, rows in group_rows.items()}

    plans = []
    sizes = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        kept_units = _kept_units(units_by_class, len(unit_numbers), fraction, rng)
        kept = {key: np.flatnonzero(kept_units[units])
                for key, units in group_units.items()}
        plans.append(_plan(kept, group_rows, homogeneity_cap, seed))
        sizes.append(int(kept_units.sum()))

    vectors = _as_cluster(embeddings.vectors)
    # Every plan holds every group; its sorted positions need no check.
    reports: dict[tuple[int, tuple[str, str]], MetricReport] = {}
    for key, rows in group_rows.items():
        subsets, hom_subsets = zip(*(groups[key] for _, groups in plans))
        for i, report in enumerate(_reports(vectors[rows], subsets, hom_subsets)):
            reports[i, key] = report
    return [_profile(fraction, size, {key: reports[i, key] for key in groups},
                     class_sizes, homogeneity_cap)
            for i, (fraction, size, (class_sizes, groups))
            in enumerate(zip(fractions, sizes, plans))]


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


def correlation_report(finals: list[AggregateMetrics],
                       scores: dict[str, list[float]]) -> list[CorrelationEntry]:
    """Correlate each final metric with each score column across sweep rows.

    ``finals`` holds the final aggregate of each sweep row, and ``scores``
    each score column by name with one value per row, in the same order, as
    ``io.read_scores`` returns them; a column of another length is a
    ValueError. Entries run metric by metric, then column by column. A
    degenerate pair (constant column, missing homogeneity) is recorded on
    its entry without aborting the rest.
    """
    for score, column in scores.items():
        if len(column) != len(finals):
            raise ValueError(f"score {score!r} has {len(column)} values "
                             f"for {len(finals)} sweep rows")

    entries = []
    for metric in METRIC_NAMES:
        values = [getattr(final, metric) for final in finals]
        for score, column in scores.items():
            if any(v is None for v in values):
                entry = CorrelationEntry(metric, score, None, len(values),
                                         error=f"{metric} missing in some rows")
            else:
                try:
                    entry = CorrelationEntry(metric, score,
                                             pearson(values, column), len(values))
                except DegenerateInput as exc:
                    entry = CorrelationEntry(metric, score, None, len(values),
                                             error=f"degenerate: {exc}")
            entries.append(entry)
    return entries
