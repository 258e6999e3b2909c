"""Independent float64 oracle for the textchar metrics and roll-ups.

Nothing here imports textchar. Diversity and density come from their
direct formulas over centered columns; homogeneity is rebuilt by brute
force from ``scipy.spatial.distance.cdist`` distances (explicit coordinate
differences, no Gram expansion), one row block at a time so no ``m x m``
matrix is held for large clusters. The sampling rules that decide which
rows a sweep fraction or a ``--cap`` subsample keeps are re-stated from the
library's documented reproducibility contract, so the oracle knows which
points each reported value belongs to.

Values are compared at ``TOLERANCE``: far above float64 roundoff, so
rewrites that preserve the math (centering, a fused kernel, another block
order) pass, while any change to the math itself fails.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial.distance import cdist

TOLERANCE = 1e-9
STD_FLOOR = 1e-12
_BLOCK_ROWS = 512


def axis_metrics(points: np.ndarray) -> tuple[float, float, float]:
    """(diversity, density, density_log) of one cluster."""
    m, dim = points.shape
    centered = points - points.sum(axis=0) / m
    stds = np.sqrt((centered * centered).sum(axis=0) / m)
    div = 0.0 if (stds == 0.0).any() else math.exp(float(np.log(stds).sum()) / dim)
    log_den = math.log(m) - float(np.log(np.maximum(stds, STD_FLOOR)).sum()) / math.sqrt(dim)
    return div, math.exp(log_den), log_den


def homogeneity(points: np.ndarray, distance_rows=None) -> float | None:
    """Normalized entropy rate of the ``distance ** ln H`` chain.

    ``distance_rows(start, stop)`` may supply precomputed distances of rows
    ``start:stop`` to every row; by default they come from ``cdist``.
    Returns None where the metric is undefined (m < 3, all points equal).
    """
    m, dim = points.shape
    if m < 3:
        return None
    if distance_rows is None:
        def distance_rows(start, stop):
            return cdist(points[start:stop], points)
    exponent = math.log(dim)
    strengths = np.empty(m)
    entropies = np.empty(m)
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        dist = distance_rows(start, stop)
        weights = np.zeros_like(dist)
        positive = dist > 0.0
        weights[positive] = dist[positive] ** exponent
        rows = weights.sum(axis=1)
        if not (rows > 0.0).all():
            return None
        probs = weights / rows[:, None]
        terms = np.zeros_like(probs)
        nonzero = probs > 0.0
        terms[nonzero] = probs[nonzero] * np.log(probs[nonzero])
        strengths[start:stop] = rows
        entropies[start:stop] = -terms.sum(axis=1)
    rate = max(float((strengths / strengths.sum()) @ entropies), 0.0)
    return min(rate / math.log(m - 1), 1.0)


def group_report(points: np.ndarray, cap: int | None = None,
                 seed_words=None) -> dict:
    """Expected per-group values; homogeneity on the ``cap`` subsample when
    the group is larger, drawn as ``profile_dataset`` documents it."""
    div, den, den_log = axis_metrics(points)
    m = points.shape[0]
    hom_points = points
    if cap is not None and m > cap and m >= 3:
        idx = np.random.default_rng(np.random.SeedSequence(seed_words)).choice(
            m, size=cap, replace=False)
        idx.sort()
        hom_points = points[idx]
    return {"diversity": div, "density": den, "density_log": den_log,
            "homogeneity": homogeneity(hom_points), "m": m,
            "hom_m": hom_points.shape[0]}


def _mean(pairs) -> float | None:
    """Weighted mean of (weight, value) pairs, skipping None values."""
    have = [(w, v) for w, v in pairs if v is not None]
    if not have:
        return None
    return sum(w * v for w, v in have) / sum(w for w, _ in have)


def _aggregate(weighted: list[tuple[float, dict]]) -> dict:
    div = sum(w * r["diversity"] for w, r in weighted)
    den = sum(w * r["density"] for w, r in weighted)
    return {"diversity": div, "density": den,
            "density_log": math.log(den) if den > 0 else -math.inf,
            "homogeneity": _mean((w, r["homogeneity"]) for w, r in weighted)}


def profile(groups: dict, cap: int | None, seed: int) -> dict:
    """Expected profile: per group, per class (layers averaged), final
    (class-size weighted)."""
    per_group = {key: group_report(points, cap, [seed, index])
                 for index, (key, points) in enumerate(groups.items())}
    class_sizes: dict = {}
    for (label, _), rep in per_group.items():
        class_sizes.setdefault(label, rep["m"])
    per_class = {}
    for label in class_sizes:
        reports = [rep for (lb, _), rep in per_group.items() if lb == label]
        per_class[label] = _aggregate([(1.0 / len(reports), r) for r in reports])
    total = sum(class_sizes.values())
    final = _aggregate([(class_sizes[lb] / total, agg) for lb, agg in per_class.items()])
    return {"per_group": per_group, "per_class": per_class, "final": final,
            "class_sizes": class_sizes}


def sweep(records: list[tuple[str, str, str]], vectors: np.ndarray, fractions,
          seed: int, cap: int | None) -> list[dict]:
    """Expected stratified down-sampling sweep.

    ``records`` holds (id, label, layer) in file order, row-aligned with
    ``vectors``. The sampling unit is the distinct (label, id) pair; fraction
    index ``i`` draws from ``SeedSequence([seed, i])``, class by class in
    first-seen order, keeping ``floor(f * n + 0.5)`` sorted unit positions.
    """
    first_seen: dict[str, dict[str, None]] = {}
    for rec_id, label, _ in records:
        first_seen.setdefault(label, {}).setdefault(rec_id)
    units = {label: list(ids) for label, ids in first_seen.items()}
    rows = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        chosen = {}
        for label, ids in units.items():
            if fraction == 1.0:
                chosen[label] = set(ids)
                continue
            keep = int(math.floor(fraction * len(ids) + 0.5))
            idx = rng.choice(len(ids), size=keep, replace=False)
            idx.sort()
            chosen[label] = {ids[i] for i in idx}
        members: dict[tuple[str, str], list[int]] = {}
        for row, (rec_id, label, layer) in enumerate(records):
            if rec_id in chosen[label]:
                members.setdefault((label, layer), []).append(row)
        groups = {key: vectors[rows_] for key, rows_ in members.items()}
        rows.append({"fraction": fraction,
                     "size": sum(len(ids) for ids in chosen.values()),
                     "profile": profile(groups, cap, seed)})
    return rows


def pearson(x, y) -> float | None:
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    if not (xc @ xc) or not (yc @ yc):
        return None
    return float(np.clip(np.corrcoef(xa, ya)[0, 1], -1.0, 1.0))


def pairs(m: int) -> int:
    """Ordered point pairs one homogeneity computation covers."""
    return m * (m - 1)


class Mismatches:
    """Collects every disagreement between an output and the oracle."""

    def __init__(self):
        self.errors: list[str] = []

    def fail(self, where: str, message: str) -> None:
        self.errors.append(f"{where}: {message}")

    def close(self, where: str, got, want, relative: bool = True) -> None:
        if want is None or got is None:
            if (want is None) != (got is None):
                self.fail(where, f"got {got!r}, expected {want!r}")
            return
        try:
            got = float(got)
        except (TypeError, ValueError):
            self.fail(where, f"not a number: {got!r}")
            return
        scale = max(1.0, abs(want)) if relative else 1.0
        if not abs(got - want) <= TOLERANCE * scale:
            self.fail(where, f"got {got!r}, expected {want!r}")

    def metrics(self, where: str, got: dict, want: dict) -> None:
        if not isinstance(got, dict):
            self.fail(where, f"expected an object, got {type(got).__name__}")
            return
        for key in ("diversity", "density", "density_log"):
            self.close(f"{where}.{key}", got.get(key), want[key])
        self.close(f"{where}.homogeneity", got.get("homogeneity"),
                   want["homogeneity"], relative=False)
