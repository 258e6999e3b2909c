"""Characteristic metrics for a single cluster of embedding vectors.

Three scalar summaries are computed from an ``m x H`` matrix of embedding
vectors:

* diversity -- geometric mean of the per-axis standard deviations, a
  generalized radius of the point cloud.
* density -- sample count divided by the dimension-normalized volume
  ``(prod sigma_j) ** (1 / sqrt(H))``.
* homogeneity -- entropy rate of a fully connected Markov chain whose edge
  weights are ``distance ** ln(H)``, normalized by the ``ln(m - 1)`` upper
  bound so the value lies in ``[0, 1]``.

All logarithms are natural. Homogeneity is provably independent of the
entropy log base (the normalization cancels it); the distance exponent base
is a fixed convention of this library and is part of its reproducibility
contract.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateCluster, TooFewSamples

__all__ = [
    "DEFAULT_STD_FLOOR",
    "ClusterStats",
    "DensityResult",
    "MarkovChainSummary",
    "MetricReport",
    "as_cluster",
    "axis_stats",
    "density",
    "diversity",
    "entropy_rate",
    "homogeneity",
    "metric_report",
    "metric_reports",
    "pairwise_weight",
    "stationary_distribution",
]

# Axes whose standard deviation falls below this floor are clamped when
# computing density, so a zero-variance axis cannot blow the volume up to
# infinity. Diversity reports an honest 0 instead.
DEFAULT_STD_FLOOR = 1e-12

# The pairwise pass walks the upper triangle of the ``m x m`` weight matrix
# in square tiles of this many rows and columns, each pair computed once (its
# weight feeds both a row and a column sum). The tiles' buffers, about
# 1.1 MiB, are the working memory beyond two ``m x (H + 2)`` operands,
# whatever m is. The width is fixed so that reruns sum in the same order.
_BLOCK_ROWS = 256


def as_cluster(vectors) -> np.ndarray:
    """Validate and return a cluster as a float64 ``m x H`` array.

    Raises ValueError for empty input, wrong rank, or non-finite entries.
    """
    arr = np.asarray(vectors, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"cluster must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"cluster must be at least 1 x 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("cluster contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class ClusterStats:
    """Per-axis mean and population standard deviation of a cluster."""

    means: np.ndarray
    stds: np.ndarray
    count: int

    @property
    def dim(self) -> int:
        return self.means.shape[0]


class DensityResult(NamedTuple):
    value: float
    log_value: float
    floored_axes: int


@dataclass(frozen=True, eq=False)
class MarkovChainSummary:
    """Stationary distribution and entropy rate of the distance chain."""

    stationary: np.ndarray
    entropy_rate: float
    upper_bound: float


@dataclass(frozen=True)
class MetricReport:
    """All three metrics for one cluster, plus degeneracy flags.

    ``homogeneity`` is None when it cannot be computed (fewer than 3 samples,
    a fully coincident cluster, or edge weights outside the floating-point
    range); ``homogeneity_skipped_reason`` then says why.
    ``degenerate_axes`` counts axes whose standard deviation was clamped to
    the floor inside the density computation.
    """

    diversity: float
    density: float
    density_log: float
    homogeneity: float | None
    degenerate_axes: int
    homogeneity_skipped_reason: str | None = None
    notes: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "diversity": self.diversity,
            "density": self.density,
            "density_log": self.density_log,
            "homogeneity": self.homogeneity,
            "degenerate_axes": self.degenerate_axes,
            "homogeneity_skipped_reason": self.homogeneity_skipped_reason,
            "notes": list(self.notes),
        }


def axis_stats(cluster) -> ClusterStats:
    """Mean and population standard deviation (divisor ``m``) along each axis.

    An axis whose mean or standard deviation overflows is recomputed on its
    values over their largest magnitude and scaled back, so it stays finite
    near the float64 maximum; the other axes keep the bits of ``np.std``.
    """
    arr = as_cluster(cluster)
    with np.errstate(over="ignore", invalid="ignore"):
        means = arr.mean(axis=0)
        stds = arr.std(axis=0)
    bad = ~(np.isfinite(means) & np.isfinite(stds))
    if bad.any():
        scale = np.abs(arr[:, bad]).max(axis=0)
        scaled = arr[:, bad] / scale
        means[bad] = scaled.mean(axis=0) * scale
        stds[bad] = scaled.std(axis=0) * scale
    return ClusterStats(means=means, stds=stds, count=arr.shape[0])


def diversity(stats: ClusterStats) -> float:
    """Geometric mean of the per-axis standard deviations.

    Computed in log space, ``exp(mean(log sigma_j))``. Returns 0.0 as soon as
    any axis has zero spread, since a zero factor annihilates the product.
    """
    stds = np.asarray(stats.stds, dtype=np.float64)
    if np.any(stds == 0.0):
        return 0.0
    return float(np.exp(np.mean(np.log(stds))))


def density(stats: ClusterStats, std_floor: float = DEFAULT_STD_FLOOR) -> DensityResult:
    """Sample count over the dimension-normalized volume.

    ``density = m / (prod sigma_j') ** (1 / sqrt(H))`` with
    ``sigma_j' = max(sigma_j, std_floor)``. Evaluated in log space so that
    768-dimensional products neither overflow nor underflow. ``floored_axes``
    reports how many axes hit the floor. Beyond the float64 range, as when
    every axis of a wide cluster is floored, ``value`` is inf.
    """
    stds = np.asarray(stats.stds, dtype=np.float64)
    floored = int(np.count_nonzero(stds < std_floor))
    clamped = np.maximum(stds, std_floor)
    dim = stds.shape[0]
    log_value = math.log(stats.count) - np.sum(np.log(clamped)) / math.sqrt(dim)
    with np.errstate(over="ignore"):
        value = float(np.exp(log_value))
    return DensityResult(value, float(log_value), floored)


def pairwise_weight(e_i, e_j) -> float:
    """Edge weight between two vectors: Euclidean distance to the power ``ln H``.

    The exponent tempers the distance concentration of high-dimensional
    spaces. A zero distance always yields weight 0, even for ``H = 1`` where
    the exponent vanishes.
    """
    a = np.asarray(e_i, dtype=np.float64)
    b = np.asarray(e_j, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"expected two equal-length vectors, got {a.shape} and {b.shape}")
    dist = float(np.linalg.norm(a - b))
    if dist == 0.0:
        return 0.0
    return dist ** math.log(a.shape[0])


def _first_copies(arr: np.ndarray) -> np.ndarray:
    """Index of the first row equal to each row under ``==``.

    Rows are keyed by their bytes after ``+ 0.0``, which turns ``-0.0`` into
    ``0.0``, so two rows share an index exactly when they compare equal
    element by element (the cluster holds no NaN). The bytes are taken a
    block of rows at a time.
    """
    width = arr.itemsize * arr.shape[1]
    first: dict[bytes, int] = {}
    index: list[int] = []
    for start in range(0, arr.shape[0], _BLOCK_ROWS):
        block = (arr[start:start + _BLOCK_ROWS] + 0.0).tobytes()
        index += [first.setdefault(block[offset:offset + width], row)
                  for row, offset in enumerate(range(0, len(block), width), start)]
    return np.array(index)


def _chain_rows(arr: np.ndarray, members: np.ndarray,
                first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row strengths ``S_i`` and ``sum_j w_ij ln w_ij`` within row subsets.

    ``members`` is an ``m x k`` float64 0/1 matrix whose column ``f`` marks
    the rows of subset ``f``, and ``first`` is ``_first_copies(arr)``. Both
    results are ``m x k``: entry ``(i, f)`` sums over the members of subset
    ``f`` only, and means something only when row ``i`` is one of them. A
    whole cluster is the single all-ones column.

    One streaming pass over upper-triangle tiles serves every subset: the
    tile of row block ``[s, t)`` and column block ``[u, v)`` exists only for
    ``u >= s``, so the full ``m x m`` matrix never exists in memory and each
    point pair is computed once, however many subsets hold it. Its weight
    and ``w ln w`` go into the sums of both its row and its column, through
    ``weights @ members[u:v]`` and ``weights.T @ members[s:t]``, tile by tile
    in a fixed order, so ``w_ij == w_ji`` holds bitwise and reruns are
    byte-identical. Squared distances come from the inner-product expansion
    ``|x|^2 + |y|^2 - 2 x.y`` on the cluster centered once over all its rows,
    so a large common offset cannot cancel away the distances. The operands
    ``[c | |c|^2 | 1]`` and ``[-2c | 1 | |c|^2]`` of the centered rows ``c``
    are built once, so one BLAS product gives a tile's expanded squared
    distances. Weights are built in log space,
    ``ln w_ij = (ln H / 2) ln d2_ij``, so the row entropy needs no second
    pass: ``H_i = ln S_i - (sum_j w_ij ln w_ij) / S_i``. An edge between rows
    that are equal under ``==`` (the diagonal included) or whose expanded
    squared distance is not positive gets an exact zero weight rather than
    expansion roundoff. Every tile reuses the same four buffers.
    """
    m, dim = arr.shape
    half_log_dim = 0.5 * math.log(dim)
    left, right = np.empty((m, dim + 2)), np.empty((m, dim + 2))
    centered = left[:, :dim]
    np.subtract(arr, arr.mean(axis=0), out=centered)
    left[:, dim] = right[:, dim + 1] = np.einsum("ij,ij->i", centered, centered)
    left[:, dim + 1] = right[:, dim] = 1.0
    np.multiply(centered, -2.0, out=right[:, :dim])
    strengths = np.zeros(members.shape)
    w_log_w = np.zeros(members.shape)
    tri = np.tri(_BLOCK_ROWS, dtype=bool)
    most = min(_BLOCK_ROWS, m) ** 2
    log_buf, weight_buf = np.empty(most), np.empty(most)
    zero_buf, equal_buf = np.empty(most, dtype=bool), np.empty(most, dtype=bool)
    for s in range(0, m, _BLOCK_ROWS):
        t = min(s + _BLOCK_ROWS, m)
        for u in range(s, m, _BLOCK_ROWS):
            v = min(u + _BLOCK_ROWS, m)
            shape = (t - s, v - u)
            cells = shape[0] * shape[1]
            log_w = log_buf[:cells].reshape(shape)
            weights = weight_buf[:cells].reshape(shape)
            zero = zero_buf[:cells].reshape(shape)
            equal = equal_buf[:cells].reshape(shape)
            np.matmul(left[s:t], right[u:v].T, out=log_w)
            np.less_equal(log_w, 0.0, out=zero)
            np.equal(first[s:t, None], first[None, u:v], out=equal)
            zero |= equal
            if u == s:
                # The diagonal and below of a diagonal tile: self-loops, and
                # pairs the tile already holds above the diagonal.
                zero |= tri[:shape[0], :shape[1]]
            # ln 1 = 0 keeps the masked entries finite; their weight is reset below.
            np.copyto(log_w, 1.0, where=zero)
            np.log(log_w, out=log_w)
            log_w *= half_log_dim
            np.exp(log_w, out=weights)
            np.copyto(weights, 0.0, where=zero)
            log_w *= weights
            strengths[s:t] += weights @ members[u:v]
            strengths[u:v] += weights.T @ members[s:t]
            w_log_w[s:t] += log_w @ members[u:v]
            w_log_w[u:v] += log_w.T @ members[s:t]
    return strengths, w_log_w


def _chains(arr: np.ndarray, subsets) -> list[MarkovChainSummary | DegenerateCluster]:
    """Chain summary of each row subset of a validated cluster.

    Each subset is a sorted index array of at least 2 rows. All subsets
    share one ``_chain_rows`` pass over the rows that some subset holds, so
    rows no subset holds cost nothing and cannot spoil a sum. A subset
    whose chain is undefined gets the ``DegenerateCluster`` that says why in
    place of its summary.
    """
    covered = np.zeros(arr.shape[0], dtype=bool)
    for idx in subsets:
        covered[idx] = True
    if not covered.all():
        position = np.cumsum(covered) - 1
        arr, subsets = arr[covered], [position[idx] for idx in subsets]
    first = _first_copies(arr)
    chains: list = [None] * len(subsets)
    live = []
    for f, idx in enumerate(subsets):
        # A row strength can only vanish when every point equals that row,
        # i.e. the whole subset is one repeated point. Detect that exactly
        # instead of trusting floating-point distance sums.
        if (first[idx] == first[idx[0]]).all():
            chains[f] = DegenerateCluster(
                f"all {len(idx)} points coincide; the distance chain has no edges"
            )
        else:
            live.append(f)
    if not live:
        return chains
    members = np.zeros((arr.shape[0], len(live)))
    for col, f in enumerate(live):
        members[subsets[f], col] = 1.0
    # An overflowing weight or sum is caught below as a non-finite sum, so
    # numpy's overflow and inf * 0 warnings are not wanted.
    with np.errstate(over="ignore", invalid="ignore"):
        strengths, w_log_w = _chain_rows(arr, members, first)
        for col, f in enumerate(live):
            idx = subsets[f]
            rows = strengths[idx, col]
            total = rows.sum()
            if not (np.isfinite(total) and np.isfinite(w_log_w[idx, col]).all()):
                # An infinite weight also spoils, through inf * 0, the sums of
                # every subset that holds either of its rows.
                chains[f] = DegenerateCluster(
                    "a point has infinite total edge weight; distances are "
                    "above the floating-point range"
                )
                continue
            if not (rows > 0.0).all():
                # Only reachable when every weight of a row underflowed to zero.
                chains[f] = DegenerateCluster(
                    "a point has zero total edge weight; distances are below the "
                    "floating-point range"
                )
                continue
            entropies = np.log(rows) - w_log_w[idx, col] / rows
            stationary = rows / total
            rate = float(stationary @ entropies)
            chains[f] = MarkovChainSummary(
                stationary=stationary,
                entropy_rate=max(rate, 0.0),
                upper_bound=math.log(len(idx) - 1),
            )
    return chains


def _whole_chain(cluster, least: int, too_few: str) -> MarkovChainSummary:
    """Chain summary of a whole cluster; raises ``TooFewSamples(too_few)``
    (``{m}`` is the point count) below ``least`` points."""
    arr = as_cluster(cluster)
    m = arr.shape[0]
    if m < least:
        raise TooFewSamples(too_few.format(m=m))
    (chain,) = _chains(arr, [np.arange(m)])
    if isinstance(chain, DegenerateCluster):
        raise chain
    return chain


def _normalized_rate(chain: MarkovChainSummary) -> float:
    # The rate provably cannot exceed the bound; roundoff in the last ulp can.
    return min(chain.entropy_rate / chain.upper_bound, 1.0)


def stationary_distribution(cluster) -> np.ndarray:
    """Stationary distribution of the distance-weighted chain.

    Because the weight matrix is symmetric the chain is reversible and the
    stationary probability of a point is its row strength over the total
    strength; no eigensolve is needed.
    """
    return entropy_rate(cluster).stationary


def entropy_rate(cluster) -> MarkovChainSummary:
    """Entropy rate of the distance-weighted chain, in nats.

    One streaming pass over upper-triangle tiles yields each point's row
    strength and transition entropy; the rate is their stationary-weighted
    mean.
    """
    return _whole_chain(cluster, 2, "need at least 2 points for a transition chain")


def homogeneity(cluster) -> float:
    """Entropy rate normalized by its ``ln(m - 1)`` upper bound.

    Lies in ``[0, 1]``; equals 1 exactly when all pairwise distances are
    equal. Requires at least 3 points, otherwise the bound is zero and the
    ratio is meaningless.
    """
    return _normalized_rate(
        _whole_chain(cluster, 3, "homogeneity needs at least 3 points, got {m}"))


def _reports(arr: np.ndarray, rows: list[np.ndarray], hom_rows: list[np.ndarray],
             std_floor: float) -> list[MetricReport]:
    """Report of each validated row subset ``rows[f]`` of a validated
    cluster, homogeneity computed on its subset ``hom_rows[f]``. Every
    ``MetricReport`` is built here; all homogeneity subsets share one pass."""
    chains = iter(_chains(arr, [h for h in hom_rows if len(h) >= 3]))
    reports = []
    for idx, h in zip(rows, hom_rows):
        # The whole cluster goes in as the array itself: numpy's axis-0 sums
        # depend on memory layout, so a C-order copy could change their bits.
        stats = axis_stats(arr if len(idx) == arr.shape[0] else arr[idx])
        den = density(stats, std_floor=std_floor)
        chain = (next(chains) if len(h) >= 3
                 else TooFewSamples(f"fewer than 3 samples (m={len(h)})"))
        defined = isinstance(chain, MarkovChainSummary)
        notes: tuple[str, ...] = ()
        if stats.dim == 1:
            notes = ("homogeneity is identically 1 in one dimension: the distance "
                     "exponent ln(1) = 0 makes every edge weight equal",)
        if len(h) < len(idx):
            notes += (f"homogeneity computed on {len(h)} of {len(idx)} points",)
        reports.append(MetricReport(
            diversity=diversity(stats),
            density=den.value,
            density_log=den.log_value,
            homogeneity=_normalized_rate(chain) if defined else None,
            degenerate_axes=den.floored_axes,
            homogeneity_skipped_reason=None if defined else str(chain),
            notes=notes,
        ))
    return reports


def metric_report(cluster, std_floor: float = DEFAULT_STD_FLOOR) -> MetricReport:
    """Bundle diversity, density, and homogeneity for one cluster.

    The whole-cluster case of ``metric_reports``: it equals
    ``metric_reports(cluster, [np.arange(m)])[0]`` bitwise, whatever the
    memory layout. Never raises for degenerate inputs: when homogeneity
    cannot be computed the report carries the reason instead.
    """
    arr = as_cluster(cluster)
    whole = [np.arange(arr.shape[0])]
    return _reports(arr, whole, whole, std_floor)[0]


def _row_subset(subset, m: int) -> np.ndarray:
    idx = np.asarray(subset)
    if (idx.ndim == 1 and idx.size and idx.dtype.kind in "iu"
            and idx.min() >= 0 and idx.max() < m):
        idx = idx.astype(np.intp)
        if (np.diff(idx) > 0).all():
            return idx
    raise ValueError(
        "each subset must be a non-empty, strictly increasing integer array "
        f"of row indices below {m}"
    )


def metric_reports(cluster, subsets, std_floor: float = DEFAULT_STD_FLOOR,
                   homogeneity_subsets=None) -> list[MetricReport]:
    """One metric report per row subset of a cluster, from one pairwise pass.

    Each subset is a strictly increasing integer array of row indices;
    anything else raises ValueError. Report ``f`` matches
    ``metric_report(cluster[subsets[f]])``: diversity, density and
    degenerate axes bitwise, homogeneity up to roundoff, because the shared
    pass centers all the rows it covers at once and sums each subset in
    another order; a subset of every row gives ``metric_report(cluster)``
    bitwise. Like ``metric_report`` it never raises for a degenerate subset.

    ``homogeneity_subsets``, when given, holds one strictly increasing
    subset of each row subset (anything else raises ValueError), and
    homogeneity is computed on it instead: a shorter one yields the
    homogeneity, skip reason and notes of ``metric_report`` on those rows,
    plus the note ``homogeneity computed on {cap} of {m} points``. The pass
    covers only the rows some homogeneity subset holds.
    """
    arr = as_cluster(cluster)
    rows = [_row_subset(subset, arr.shape[0]) for subset in subsets]
    if homogeneity_subsets is None:
        return _reports(arr, rows, rows, std_floor)
    hom_rows = [_row_subset(subset, arr.shape[0]) for subset in homogeneity_subsets]
    if (len(hom_rows) != len(rows)
            or not all(np.isin(h, idx).all() for h, idx in zip(hom_rows, rows))):
        raise ValueError("homogeneity_subsets must hold one subset of each row subset")
    return _reports(arr, rows, hom_rows, std_floor)
