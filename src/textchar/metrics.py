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

import functools
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

# The pairwise pass takes rows in fixed-size blocks, each paired once with
# itself and every later row (an upper-triangle strip, whose weights feed
# both row and column sums), which bounds the working memory at
# ``_BLOCK_ROWS x m`` weights.
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
    or a fully coincident cluster); ``homogeneity_skipped_reason`` then says
    why. ``degenerate_axes`` counts axes whose standard deviation was clamped
    to the floor inside the density computation.
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
    """Mean and population standard deviation (divisor ``m``) along each axis."""
    arr = as_cluster(cluster)
    means = arr.mean(axis=0)
    stds = arr.std(axis=0)
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
    reports how many axes hit the floor.
    """
    stds = np.asarray(stats.stds, dtype=np.float64)
    floored = int(np.count_nonzero(stds < std_floor))
    clamped = np.maximum(stds, std_floor)
    dim = stds.shape[0]
    log_value = math.log(stats.count) - np.sum(np.log(clamped)) / math.sqrt(dim)
    return DensityResult(float(np.exp(log_value)), float(log_value), floored)


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
    element by element (the cluster holds no NaN).
    """
    first: dict[bytes, int] = {}
    return np.array([first.setdefault((row + 0.0).tobytes(), i)
                     for i, row in enumerate(arr)])


def _chain_rows(arr: np.ndarray, members: np.ndarray,
                first: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row strengths ``S_i`` and ``sum_j w_ij ln w_ij`` within row subsets.

    ``members`` is an ``m x k`` float64 0/1 matrix whose column ``f`` marks
    the rows of subset ``f``, and ``first`` is ``_first_copies(arr)``. Both
    results are ``m x k``: entry ``(i, f)`` sums over the members of subset
    ``f`` only, and means something only when row ``i`` is one of them. A
    whole cluster is the single all-ones column.

    One streaming pass over upper-triangle strips serves every subset: row
    block ``[s, t)`` is paired only with columns ``s:``, so the full
    ``m x m`` matrix never exists in memory and each point pair is computed
    once, however many subsets hold it. Its weight and ``w ln w`` go into
    the sums of both its row and its column, through
    ``weights @ members[s:]`` and ``weights.T @ members[s:t]``, strip by
    strip in a fixed order, so ``w_ij == w_ji`` holds bitwise and reruns are
    byte-identical. Squared distances come from the inner-product expansion
    ``|x|^2 + |y|^2 - 2 x.y`` on the cluster centered once over all its rows,
    so one BLAS product covers a strip and a large common offset cannot
    cancel away the distances. Weights are built in log space,
    ``ln w_ij = (ln H / 2) ln d2_ij``, so the row entropy needs no second
    pass: ``H_i = ln S_i - (sum_j w_ij ln w_ij) / S_i``. An edge between rows
    that are equal under ``==`` (the diagonal included) or whose expanded
    squared distance is not positive gets an exact zero weight rather than
    expansion roundoff.
    """
    m = arr.shape[0]
    half_log_dim = 0.5 * math.log(arr.shape[1])
    centered = arr - arr.mean(axis=0)
    sq_norms = np.einsum("ij,ij->i", centered, centered)
    strengths = np.zeros(members.shape)
    w_log_w = np.zeros(members.shape)
    for start in range(0, m, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, m)
        size = stop - start
        log_w = sq_norms[start:stop, None] + sq_norms[None, start:]
        log_w -= 2.0 * (centered[start:stop] @ centered[start:].T)
        zero = log_w <= 0.0
        zero |= first[start:stop, None] == first[None, start:]
        # The diagonal and below of the strip's leading square: self-loops,
        # and pairs the strip already holds above the diagonal.
        zero[:, :size] |= np.tri(size, dtype=bool)
        # ln 1 = 0 keeps the masked entries finite; their weight is reset below.
        np.copyto(log_w, 1.0, where=zero)
        np.log(log_w, out=log_w)
        log_w *= half_log_dim
        weights = np.exp(log_w)
        np.copyto(weights, 0.0, where=zero)
        log_w *= weights
        strengths[start:stop] += weights @ members[start:]
        strengths[start:] += weights.T @ members[start:stop]
        w_log_w[start:stop] += log_w @ members[start:]
        w_log_w[start:] += log_w.T @ members[start:stop]
    return strengths, w_log_w


def _chains(arr: np.ndarray, subsets) -> list[MarkovChainSummary | DegenerateCluster]:
    """Chain summary of each row subset of a validated cluster.

    Each subset is a sorted index array of at least 2 rows. All subsets
    share one ``_chain_rows`` pass. A subset whose chain is undefined gets
    the ``DegenerateCluster`` that says why in place of its summary.
    """
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
    strengths, w_log_w = _chain_rows(arr, members, first)
    for col, f in enumerate(live):
        idx = subsets[f]
        rows = strengths[idx, col]
        if not (rows > 0.0).all():
            # Only reachable when every weight of a row underflowed to zero.
            chains[f] = DegenerateCluster(
                "a point has zero total edge weight; distances are below the "
                "floating-point range"
            )
            continue
        entropies = np.log(rows) - w_log_w[idx, col] / rows
        stationary = rows / rows.sum()
        rate = float(stationary @ entropies)
        chains[f] = MarkovChainSummary(
            stationary=stationary,
            entropy_rate=max(rate, 0.0),
            upper_bound=math.log(len(idx) - 1),
        )
    return chains


def _whole_chain(arr: np.ndarray) -> MarkovChainSummary:
    """Chain summary of a validated cluster of at least 2 points."""
    (chain,) = _chains(arr, [np.arange(arr.shape[0])])
    if isinstance(chain, DegenerateCluster):
        raise chain
    return chain


def _normalized_rate(chain: MarkovChainSummary | DegenerateCluster) -> float:
    """Homogeneity of a chain summary; raises a degenerate subset's error."""
    if isinstance(chain, DegenerateCluster):
        raise chain
    # The rate provably cannot exceed the bound; roundoff in the last ulp can.
    return min(chain.entropy_rate / chain.upper_bound, 1.0)


def stationary_distribution(cluster) -> np.ndarray:
    """Stationary distribution of the distance-weighted chain.

    Because the weight matrix is symmetric the chain is reversible and the
    stationary probability of a point is its row strength over the total
    strength; no eigensolve is needed.
    """
    arr = as_cluster(cluster)
    if arr.shape[0] < 2:
        raise TooFewSamples("need at least 2 points for a transition chain")
    return _whole_chain(arr).stationary


def entropy_rate(cluster) -> MarkovChainSummary:
    """Entropy rate of the distance-weighted chain, in nats.

    One streaming pass over upper-triangle strips yields each point's row
    strength and transition entropy; the rate is their stationary-weighted
    mean.
    """
    arr = as_cluster(cluster)
    if arr.shape[0] < 2:
        raise TooFewSamples("need at least 2 points for a transition chain")
    return _whole_chain(arr)


def homogeneity(cluster) -> float:
    """Entropy rate normalized by its ``ln(m - 1)`` upper bound.

    Lies in ``[0, 1]``; equals 1 exactly when all pairwise distances are
    equal. Requires at least 3 points, otherwise the bound is zero and the
    ratio is meaningless.
    """
    arr = as_cluster(cluster)
    if arr.shape[0] < 3:
        raise TooFewSamples(
            f"homogeneity needs at least 3 points, got {arr.shape[0]}"
        )
    return _normalized_rate(_whole_chain(arr))


def _assemble(stats: ClusterStats, std_floor: float, homogeneity_of) -> MetricReport:
    """Report fields, notes and skip reason; ``homogeneity_of()`` runs for m >= 3.

    ``homogeneity_of`` returns the homogeneity or raises ``DegenerateCluster``.
    """
    den = density(stats, std_floor=std_floor)
    hom: float | None = None
    reason: str | None = None
    notes: tuple[str, ...] = ()
    if stats.dim == 1:
        notes = ("homogeneity is identically 1 in one dimension: the distance "
                 "exponent ln(1) = 0 makes every edge weight equal",)
    if stats.count < 3:
        reason = f"fewer than 3 samples (m={stats.count})"
    else:
        try:
            hom = homogeneity_of()
        except DegenerateCluster as exc:
            reason = str(exc)
    return MetricReport(
        diversity=diversity(stats),
        density=den.value,
        density_log=den.log_value,
        homogeneity=hom,
        degenerate_axes=den.floored_axes,
        homogeneity_skipped_reason=reason,
        notes=notes,
    )


def metric_report(cluster, std_floor: float = DEFAULT_STD_FLOOR) -> MetricReport:
    """Bundle diversity, density, and homogeneity for one cluster.

    Never raises for degenerate inputs: when homogeneity cannot be computed
    the report carries the reason instead.
    """
    arr = np.asarray(cluster, dtype=np.float64)
    # axis_stats and homogeneity validate the array at their own boundaries.
    return _assemble(axis_stats(arr), std_floor, lambda: homogeneity(arr))


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


def metric_reports(cluster, subsets,
                   std_floor: float = DEFAULT_STD_FLOOR) -> list[MetricReport]:
    """One metric report per row subset of a cluster, from one pairwise pass.

    Each subset is a strictly increasing integer array of row indices;
    anything else raises ValueError. Report ``f`` matches
    ``metric_report(cluster[subsets[f]])``: diversity, density and
    degenerate axes bitwise, homogeneity up to roundoff, because the shared
    pass centers the whole cluster and sums each subset in another order.
    Like ``metric_report`` it never raises for a degenerate subset.
    """
    arr = as_cluster(cluster)
    rows = [_row_subset(subset, arr.shape[0]) for subset in subsets]
    chains = iter(_chains(arr, [idx for idx in rows if len(idx) >= 3]))
    reports = []
    for idx in rows:
        chain = next(chains) if len(idx) >= 3 else None
        reports.append(_assemble(axis_stats(arr[idx]), std_floor,
                                 functools.partial(_normalized_rate, chain)))
    return reports
