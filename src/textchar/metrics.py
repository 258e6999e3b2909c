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

import numpy as np

from .errors import DegenerateInput

__all__ = [
    "DEFAULT_STD_FLOOR",
    "MarkovChainSummary",
    "MetricReport",
    "entropy_rate",
    "metric_report",
    "metric_reports",
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
# The diagonal and below of a full diagonal tile; a smaller one takes a corner.
_LOWER = np.tri(_BLOCK_ROWS, dtype=bool)


def _as_cluster(vectors) -> np.ndarray:
    """Validate and return a cluster as a C-order float64 ``m x H`` array.

    Raises ValueError for empty input, wrong rank, or non-finite entries.
    """
    arr = np.asarray(vectors, dtype=np.float64, order="C")
    if arr.ndim != 2:
        raise ValueError(f"cluster must be a 2-D matrix, got shape {arr.shape}")
    if arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"cluster must be at least 1 x 1, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("cluster contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class MarkovChainSummary:
    """Stationary distribution and entropy rate of the distance chain; the
    rate is at most ``ln(m - 1)`` for ``m`` points."""

    stationary: np.ndarray
    entropy_rate: float


@dataclass(frozen=True)
class MetricReport:
    """All three metrics for one cluster, plus degeneracy flags.

    Diversity and density come from the population standard deviations
    ``sigma_j`` (divisor ``m``) of the ``H`` axes. ``diversity`` is
    ``exp(mean(ln sigma_j))``, and 0.0 when an axis has no spread.
    ``density`` is ``m / (prod sigma_j') ** (1 / sqrt(H))`` with
    ``sigma_j' = max(sigma_j, DEFAULT_STD_FLOOR)``, and ``density_log`` is
    its natural log; beyond the float64 range, as when every axis of a wide
    cluster is floored, ``density`` is inf and ``density_log`` finite.
    ``homogeneity`` is None, and ``homogeneity_skipped_reason`` says why,
    when it cannot be computed: fewer than 3 samples, a fully coincident
    cluster, or a point whose edge weights all underflow. Copies of a point
    are merged before the pairwise pass, and the points are scaled into the
    float64 range, so nothing else skips it.
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
        # __init__ sets the fields in declaration order, the order of the keys.
        return {**vars(self), "notes": list(self.notes)}


def _axis_stds(arr: np.ndarray) -> np.ndarray:
    """Population standard deviation (divisor ``m``) along each axis of a
    validated cluster.

    An axis whose standard deviation overflows is recomputed on its values
    over their largest magnitude and scaled back, so it stays finite near
    the float64 maximum; the other axes keep the bits of ``np.std``.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        stds = arr.std(axis=0)
    bad = ~np.isfinite(stds)
    if bad.any():
        scale = np.abs(arr[:, bad]).max(axis=0)
        stds[bad] = (arr[:, bad] / scale).std(axis=0) * scale
    return stds


def _distinct_rows(arr: np.ndarray, held: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number the distinct rows among the sorted positions ``held`` of
    ``arr`` in order of first appearance. Returns each held row's number
    (its row in the pairwise pass) at its own position, 0 at the others,
    and the position of each number's first copy.

    Rows are keyed by their bytes after ``+ 0.0``, which turns ``-0.0`` into
    ``0.0``, so two rows share a number exactly when they compare equal
    element by element (the cluster holds no NaN). The bytes are taken a
    block of held rows at a time.
    """
    width = arr.itemsize * arr.shape[1]
    numbers: dict[bytes, int] = {}
    slot = np.zeros(arr.shape[0], dtype=np.intp)
    for start in range(0, len(held), _BLOCK_ROWS):
        rows = held[start:start + _BLOCK_ROWS]
        keys = (arr[rows] + 0.0).tobytes()
        slot[rows] = [numbers.setdefault(keys[offset:offset + width], len(numbers))
                      for offset in range(0, len(keys), width)]
    rise = np.maximum.accumulate(slot[held])  # first reaches k at number k's first copy
    return slot, held[np.searchsorted(rise, range(len(numbers)))]


def _chain_rows(arr: np.ndarray, members: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row strengths ``S_i`` and ``sum_j w_ij ln w_ij`` within row subsets.

    ``members`` is an ``m x k`` float64 matrix whose entry ``(j, f)``
    counts the copies of row ``j`` in subset ``f``. Both results are
    ``m x k``: entry ``(i, f)`` sums over the members of subset ``f`` only,
    and means something only when row ``i`` is one of them. A whole cluster
    of distinct rows is the single all-ones column.

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
    pass: ``H_i = ln S_i - (sum_j w_ij ln w_ij) / S_i``. The rows are
    distinct, so only the diagonal and an edge whose expanded squared
    distance is not positive get an exact zero weight, not roundoff.
    Every tile reuses the same three buffers.
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
    most = min(_BLOCK_ROWS, m) ** 2
    log_buf, weight_buf, zero_buf = np.empty(most), np.empty(most), np.empty(most, dtype=bool)
    for s in range(0, m, _BLOCK_ROWS):
        t = min(s + _BLOCK_ROWS, m)
        for u in range(s, m, _BLOCK_ROWS):
            v = min(u + _BLOCK_ROWS, m)
            shape = (t - s, v - u)
            cells = shape[0] * shape[1]
            log_w = log_buf[:cells].reshape(shape)
            weights = weight_buf[:cells].reshape(shape)
            zero = zero_buf[:cells].reshape(shape)
            np.matmul(left[s:t], right[u:v].T, out=log_w)
            np.less_equal(log_w, 0.0, out=zero)
            if u == s:
                # The diagonal and below of a diagonal tile: self-loops, and
                # pairs the tile already holds above the diagonal.
                zero |= _LOWER[:shape[0], :shape[1]]
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


def _chains(arr: np.ndarray, subsets) -> list[MarkovChainSummary | str]:
    """Chain summary of each row subset of a validated cluster.

    Each subset is a sorted index array of at least 2 rows. All subsets
    share one ``_chain_rows`` pass over the rows that some subset holds, so
    rows no subset holds cost nothing and cannot spoil a sum. Rows equal
    under ``==`` go into it once, each held row mapped once to its row in
    the pass and each subset counting its copies, so a copy pair never gets
    a weight. The copy counts decide coincidence, with no distance sum: a
    subset with one nonzero count is one repeated point. A subset whose
    chain is undefined gets the reason as text instead.
    """
    covered = np.zeros(arr.shape[0], dtype=bool)
    for idx in subsets:
        covered[idx] = True
    held = np.flatnonzero(covered)
    slot, first = _distinct_rows(arr, held)
    chains: list = [None] * len(subsets)
    live, copies = [], []
    for f, idx in enumerate(subsets):
        counts = np.bincount(slot[idx], minlength=len(first))
        if np.count_nonzero(counts) == 1:
            chains[f] = f"all {len(idx)} points coincide; the distance chain has no edges"
        else:
            live.append(f)
            copies.append(counts)
    if not live:
        return chains
    members = np.stack(copies, axis=1).astype(np.float64)
    rows = arr if len(first) == len(arr) else arr[first]
    # Homogeneity is scale invariant and a power-of-two scaling is exact.
    # With |x| < 2**e, squared distances and the partial sums of their
    # expansion stay below 16 H 4**e, and weights below that to the power
    # ln H / 2. At e <= top, m**2 weights, or their w ln w, sum below 2**1024.
    # Rows above top, or so small that squared distances or weights at 4**e
    # would be subnormal, are scaled to e = top; the rest keep every bit.
    _, e = math.frexp(max(rows.max(), -rows.min()))
    dim = rows.shape[1]
    power = max(1.0, 0.5 * math.log(dim))
    top = math.floor(((1000 - 2 * math.log2(len(held))) / power - math.log2(16 * dim)) / 2)
    if e > top or 2 * e * power < -1022:
        rows = np.ldexp(rows, top - e)
    strengths, w_log_w = _chain_rows(rows, members)
    for col, f in enumerate(live):
        idx = slot[subsets[f]]
        sums = strengths[idx, col]
        if not (sums > 0.0).all():
            # Only reachable when every weight of a row underflowed to zero.
            chains[f] = ("a point has zero total edge weight; distances are below "
                         "the floating-point range")
            continue
        entropies = np.log(sums) - w_log_w[idx, col] / sums
        stationary = sums / sums.sum()
        rate = float(stationary @ entropies)
        chains[f] = MarkovChainSummary(stationary=stationary, entropy_rate=max(rate, 0.0))
    return chains


def entropy_rate(cluster) -> MarkovChainSummary:
    """Entropy rate of the distance-weighted chain, in nats, with its
    stationary distribution.

    The chain-level call: unlike ``metric_report`` it raises
    ``DegenerateInput`` below 2 points, when every point coincides, or when
    a point's edge weights all underflow. One streaming pass over
    upper-triangle tiles yields each point's row strength and transition
    entropy; the rate is their stationary-weighted mean. The
    weight matrix is symmetric, so the chain is reversible and a point's
    stationary probability is its row strength over the total strength; no
    eigensolve is needed. ``metric_report`` reports the rate over its
    ``ln(m - 1)`` upper bound as homogeneity.
    """
    arr = _as_cluster(cluster)
    m = arr.shape[0]
    if m < 2:
        raise DegenerateInput("need at least 2 points for a transition chain")
    (chain,) = _chains(arr, [np.arange(m)])
    if isinstance(chain, str):
        raise DegenerateInput(chain)
    return chain


def _reports(arr: np.ndarray, rows: list[np.ndarray],
             hom_rows: list[np.ndarray]) -> list[MetricReport]:
    """Report of each validated row subset ``rows[f]`` of a validated
    C-order cluster, homogeneity computed on its subset ``hom_rows[f]`` (a
    shorter one adds the note ``homogeneity computed on {cap} of {m} points``).
    Every ``MetricReport`` is built here; all homogeneity subsets share one
    pass, which covers only the rows they hold.

    Every subset's per-axis standard deviations are computed before that
    pass, so their numpy work does not run while BLAS worker threads still
    spin after the pass's last products; the bits are the same in either
    order. Callers validate once: ``metric_report`` and ``metric_reports``
    the cluster and subsets, ``analysis.downsample_sweep`` the collection it
    copies each group from (its subsets are the sorted positions it planned).
    """
    all_stds = [_axis_stds(arr if len(idx) == arr.shape[0] else arr[idx])
                for idx in rows]
    chains = iter(_chains(arr, [h for h in hom_rows if len(h) >= 3]))
    reports = []
    for idx, h, stds in zip(rows, hom_rows, all_stds):
        # Both metrics are evaluated in log space, so 768-dimensional
        # products neither overflow nor underflow.
        diversity = 0.0 if np.any(stds == 0.0) else float(np.exp(np.mean(np.log(stds))))
        floored = int(np.count_nonzero(stds < DEFAULT_STD_FLOOR))
        clamped = np.maximum(stds, DEFAULT_STD_FLOOR)
        density_log = math.log(len(idx)) - np.sum(np.log(clamped)) / math.sqrt(len(stds))
        with np.errstate(over="ignore"):
            density = float(np.exp(density_log))
        chain = next(chains) if len(h) >= 3 else f"fewer than 3 samples (m={len(h)})"
        defined = isinstance(chain, MarkovChainSummary)
        notes: tuple[str, ...] = ()
        if len(stds) == 1:
            notes = ("homogeneity is identically 1 in one dimension: the distance "
                     "exponent ln(1) = 0 makes every edge weight equal",)
        if len(h) < len(idx):
            notes += (f"homogeneity computed on {len(h)} of {len(idx)} points",)
        reports.append(MetricReport(
            diversity=diversity,
            density=density,
            density_log=float(density_log),
            # The rate provably cannot exceed the bound; roundoff in the last ulp can.
            homogeneity=(min(chain.entropy_rate / math.log(len(h) - 1), 1.0)
                         if defined else None),
            degenerate_axes=floored,
            homogeneity_skipped_reason=None if defined else chain,
            notes=notes,
        ))
    return reports


def metric_report(cluster) -> MetricReport:
    """Bundle diversity, density, and homogeneity for one cluster.

    The whole-cluster case of ``metric_reports``: it equals
    ``metric_reports(cluster, [np.arange(m)])[0]`` bitwise. Both read the
    cluster in C order, so its bits do not depend on its memory layout.
    Never raises for degenerate inputs: when homogeneity cannot be computed
    the report carries the reason instead.
    """
    arr = _as_cluster(cluster)
    whole = [np.arange(arr.shape[0])]
    return _reports(arr, whole, whole)[0]


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


def metric_reports(cluster, subsets) -> list[MetricReport]:
    """One metric report per row subset of a cluster, from one pairwise pass.

    Each subset is a strictly increasing integer array of row indices;
    anything else raises ValueError. Report ``f`` matches
    ``metric_report(cluster[subsets[f]])``: diversity, density and
    degenerate axes bitwise; a subset of every row gives
    ``metric_report(cluster)`` bitwise. Like ``metric_report`` it reads
    the cluster in C order and never raises for a degenerate subset.

    Homogeneity agrees only as far as the shared pass allows. That pass
    centers (and may scale) all the rows it covers at once and sums each
    subset in another order, which usually moves only the last digits. But
    a row far from a subset, held only by another subset, shifts the common
    center, and the subset's own distances are then lost to cancellation in
    the squared-distance expansion. With 20 x 768 points from
    ``default_rng(0).normal`` and row 19's first coordinate set to 1e12, the
    subset of rows 0-18 gets homogeneity 0.6423 here against 0.9967 from
    ``metric_report``. Exact distances for such entries are an open item
    (ROADMAP item 3).
    """
    arr = _as_cluster(cluster)
    rows = [_row_subset(subset, arr.shape[0]) for subset in subsets]
    return _reports(arr, rows, rows)
