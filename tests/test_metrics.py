import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    assert_same_report,
    brute_entropy_rate,
    brute_transitions,
    power_iteration_stationary,
    random_cluster,
)
from textchar import metrics
from textchar.errors import DegenerateCluster, TooFewSamples


# --- input validation ---------------------------------------------------

@pytest.mark.parametrize("bad", [
    [],
    [1.0, 2.0, 3.0],
    np.zeros((2, 2, 2)),
    np.zeros((0, 4)),
    np.zeros((4, 0)),
    [[1.0, np.nan]],
    [[1.0, np.inf]],
])
def test_as_cluster_rejects_malformed_input(bad):
    with pytest.raises(ValueError):
        metrics.as_cluster(bad)


def test_axis_stats_uses_population_divisor():
    # Sample std (divisor m-1) would give sqrt(2) here; population gives 1.
    stats = metrics.axis_stats([[0.0], [2.0]])
    assert stats.count == 2
    assert stats.dim == 1
    assert stats.means[0] == 1.0
    assert stats.stds[0] == 1.0


def test_axis_stats_hand_values():
    stats = metrics.axis_stats([[0.0, 0.0], [2.0, 4.0]])
    assert np.array_equal(stats.means, [1.0, 2.0])
    assert np.array_equal(stats.stds, [1.0, 2.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["square overflows", "sum overflows"])
def test_axis_stats_near_float64_max_match_a_scaled_reference(case):
    # One coordinate of 1e160 overflows the squares in np.std; a column near
    # 1e308 throughout overflows even the sum behind the mean. Scaling a
    # column by a power of two is exact, so the statistics of the scaled
    # copy, scaled back, are the reference.
    rng = np.random.default_rng(79)
    pts = rng.normal(size=(10, 3))
    if case == "square overflows":
        pts[3, 1], exponent = 1e160, 500
    else:
        pts[:, 1], exponent = 1e308 * rng.uniform(0.5, 1.0, size=10), 1000
    scaled = pts.copy()
    scaled[:, 1] *= 2.0 ** -exponent
    reference = metrics.axis_stats(scaled)
    stats = metrics.axis_stats(pts)
    for got, want in ((stats.means, reference.means), (stats.stds, reference.stds)):
        assert np.isfinite(got).all()
        assert got[1] == pytest.approx(want[1] * 2.0 ** exponent, rel=1e-12)
        assert got[[0, 2]].tolist() == want[[0, 2]].tolist()  # bits kept
    report = metrics.metric_report(pts)
    log_diversity = np.log(reference.stds).mean() + exponent * math.log(2.0) / 3
    assert report.diversity == pytest.approx(math.exp(log_diversity), rel=1e-12)
    assert report.density_log == pytest.approx(
        math.log(10) - 3 * log_diversity / math.sqrt(3), rel=1e-12)


# --- diversity ------------------------------------------------------------

def test_diversity_two_point_hand_value():
    stats = metrics.axis_stats([[-1.0, -2.0], [1.0, 2.0]])
    assert np.array_equal(stats.stds, [1.0, 2.0])
    assert metrics.diversity(stats) == 1.414213562373095  # exp(ln(2)/2)


def test_diversity_geometric_mean():
    stats = metrics.ClusterStats(means=np.zeros(2), stds=np.array([2.0, 8.0]),
                                 count=10)
    assert metrics.diversity(stats) == pytest.approx(4.0, rel=1e-15)


def test_diversity_zero_axis_collapses_to_zero():
    stats = metrics.axis_stats([[0.0, 1.0], [0.0, 3.0]])
    assert metrics.diversity(stats) == 0.0


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_diversity_scale_equivariance(scale, seed):
    pts = np.random.default_rng(seed).normal(size=(20, 5))
    base = metrics.diversity(metrics.axis_stats(pts))
    scaled = metrics.diversity(metrics.axis_stats(scale * pts))
    assert scaled == pytest.approx(scale * base, rel=1e-12)


# --- density ----------------------------------------------------------------

def test_density_two_point_hand_value():
    stats = metrics.axis_stats([[-1.0, -2.0], [1.0, 2.0]])
    result = metrics.density(stats)
    # closed form: 2 / (1 * 2) ** (1 / sqrt(2))
    assert result.value == 1.2250946530721318
    assert result.log_value == 0.20301810882567173
    assert result.floored_axes == 0


def test_density_matches_log_form():
    pts = np.random.default_rng(5).normal(size=(40, 6))
    stats = metrics.axis_stats(pts)
    result = metrics.density(stats)
    expected = math.log(40) - np.log(stats.stds).sum() / math.sqrt(6)
    assert result.log_value == pytest.approx(expected, rel=1e-15)
    assert result.value == pytest.approx(math.exp(expected), rel=1e-15)


def test_density_floors_degenerate_axis():
    stats = metrics.axis_stats([[0.0, 1.0], [0.0, 3.0]])
    result = metrics.density(stats)
    assert result.floored_axes == 1
    expected = math.log(2) - (math.log(1e-12) + math.log(1.0)) / math.sqrt(2)
    assert result.log_value == pytest.approx(expected, rel=1e-15)
    assert math.isfinite(result.value)


def test_density_survives_768_dims_without_underflow():
    # 768 axes of spread 1e-3 would underflow a plain product (1e-2304).
    pts = np.random.default_rng(9).normal(scale=1e-3, size=(100, 768))
    result = metrics.density(metrics.axis_stats(pts))
    assert math.isfinite(result.log_value)
    assert result.value > 0.0


@pytest.mark.filterwarnings("error")
def test_density_beyond_float64_is_inf_with_a_finite_log():
    # Five equal 768-d rows floor every axis: ln density = ln 5 + 768 ln(1e12)
    # / sqrt(768), about 767, is beyond the float64 range of exp.
    pts = np.tile(np.random.default_rng(83).normal(size=768), (5, 1))
    report = metrics.metric_report(pts)
    assert report.density == math.inf
    assert report.density_log == pytest.approx(
        math.log(5) - math.sqrt(768) * math.log(1e-12), rel=1e-12)
    assert report.degenerate_axes == 768


# --- pairwise weights ---------------------------------------------------

def test_pairwise_weight_hand_value():
    assert metrics.pairwise_weight([0.0, 0.0], [3.0, 4.0]) == 3.0513293596658086


def test_pairwise_weight_one_dimension_is_flat():
    # ln(1) = 0, so any positive distance has weight exactly 1.
    assert metrics.pairwise_weight([0.0], [2.0]) == 1.0
    assert metrics.pairwise_weight([0.0], [123.456]) == 1.0


def test_pairwise_weight_zero_distance_is_zero():
    v = [1.0, 2.0, 3.0]
    assert metrics.pairwise_weight(v, v) == 0.0


def test_pairwise_weight_rejects_mismatched_vectors():
    with pytest.raises(ValueError):
        metrics.pairwise_weight([1.0, 2.0], [1.0, 2.0, 3.0])


# --- stationary distribution ---------------------------------------------

THREE_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])


def test_stationary_three_point_hand_value():
    nu = metrics.stationary_distribution(THREE_POINTS)
    expected = (0.2820229923560615, 0.2655083611388984, 0.45246864650504004)
    assert np.abs(nu - expected).max() <= 1e-15


def test_stationary_two_points_split_evenly():
    nu = metrics.stationary_distribution([[0.0, 0.0], [5.0, 5.0]])
    assert np.array_equal(nu, [0.5, 0.5])


def test_stationary_is_probability_vector():
    rng = np.random.default_rng(17)
    for _ in range(10):
        nu = metrics.stationary_distribution(random_cluster(rng))
        assert (nu > 0.0).all()
        assert abs(nu.sum() - 1.0) <= 1e-12


def test_stationary_matches_power_iteration():
    rng = np.random.default_rng(23)
    for _ in range(10):
        pts = random_cluster(rng, max_dim=8)
        if pts.shape[1] == 1:
            continue  # 1-dim chains are uniform; nothing to iterate on
        nu = metrics.stationary_distribution(pts)
        oracle = power_iteration_stationary(pts)
        assert np.abs(nu - oracle).max() <= 1e-10


def test_stationary_is_fixed_under_transitions():
    pts = random_cluster(np.random.default_rng(31), max_dim=6)
    nu = metrics.stationary_distribution(pts)
    p = brute_transitions(pts)
    assert np.abs(nu @ p - nu).max() <= 1e-12


def test_stationary_rejects_single_point():
    with pytest.raises(TooFewSamples):
        metrics.stationary_distribution([[1.0, 2.0]])


def test_stationary_rejects_coincident_cluster():
    with pytest.raises(DegenerateCluster):
        metrics.stationary_distribution([[3.0, 4.0]] * 5)


# --- entropy rate and homogeneity -----------------------------------------

def test_entropy_rate_three_point_hand_value():
    chain = metrics.entropy_rate(THREE_POINTS)
    assert chain.entropy_rate == pytest.approx(0.5660035753544241, abs=1e-15)
    assert chain.upper_bound == math.log(2)


def test_homogeneity_three_point_hand_value():
    assert metrics.homogeneity(THREE_POINTS) == pytest.approx(
        0.8165705512892505, abs=1e-15)


def test_entropy_rate_matches_brute_force():
    rng = np.random.default_rng(41)
    for _ in range(8):
        pts = random_cluster(rng, max_m=200, max_dim=10)
        rate = metrics.entropy_rate(pts).entropy_rate
        assert abs(rate - brute_entropy_rate(pts)) <= 1e-12


def test_entropy_rate_independent_of_block_size(monkeypatch):
    pts = random_cluster(np.random.default_rng(43), max_m=150, min_m=100)
    full = metrics.entropy_rate(pts)
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", 7)
    blocked = metrics.entropy_rate(pts)
    assert abs(full.entropy_rate - blocked.entropy_rate) <= 1e-12
    assert np.abs(full.stationary - blocked.stationary).max() <= 1e-12


def test_uniform_simplex_has_homogeneity_one():
    # Basis vectors are pairwise equidistant, making the chain exactly uniform.
    for m in (3, 4, 5):
        assert abs(metrics.homogeneity(np.eye(m)) - 1.0) <= 1e-12


def test_one_dimensional_cluster_has_homogeneity_one():
    pts = np.random.default_rng(3).normal(size=(30, 1))
    assert metrics.homogeneity(pts) == 1.0


def test_homogeneity_requires_three_points():
    with pytest.raises(TooFewSamples):
        metrics.homogeneity([[0.0, 0.0], [1.0, 1.0]])


def test_duplicate_rows_match_brute_force():
    # Bitwise-equal rows must come out of the streaming expansion as exact
    # zero-weight edges, same as in the direct per-pair oracle.
    pts = np.array([[1.5, -0.5], [1.5, -0.5], [0.0, 3.0], [2.0, 2.0]])
    rate = metrics.entropy_rate(pts).entropy_rate
    assert abs(rate - brute_entropy_rate(pts)) <= 1e-12


def _bump_copy_norms(patch, rows):
    # Adds 1e-13 to the squared norms of the given rows as the kernel's
    # ``einsum`` returns them, so every copy pair among them expands to
    # d2 ~ 2e-13 > 0 on any BLAS and only the equality rule can zero its
    # weight.
    einsum = np.einsum

    def bumped(*args, **kwargs):
        out = einsum(*args, **kwargs)
        out[rows] += 1e-13
        return out

    patch.setattr(metrics.np, "einsum", bumped)


def test_duplicate_rows_in_different_blocks_match_brute_force(monkeypatch):
    # Copies three blocks apart, one of them differing only by the sign of a
    # zero coordinate, which still compares equal and so must get weight 0.
    pts = np.random.default_rng(19).normal(size=(14, 4)) + 3.0
    pts[3, 0] = 0.0
    pts[12] = pts[1]
    pts[13] = pts[3]
    pts[13, 0] = -0.0
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", 4)
    with monkeypatch.context() as patch:
        _bump_copy_norms(patch, [1, 3, 12, 13])
        rate = metrics.entropy_rate(pts).entropy_rate
        stationary = metrics.stationary_distribution(pts)
    assert abs(rate - brute_entropy_rate(pts)) <= 1e-12
    assert np.abs(stationary - power_iteration_stationary(pts)).max() <= 1e-10


@pytest.mark.parametrize("block", [1, 3, 13, 19])
def test_triangle_strips_match_brute_force(monkeypatch, block):
    # m = 14 is a multiple of none of the block sizes except 1, so every
    # grid has a short last strip. Rows 4 and 5 are copies sitting inside
    # one strip's leading square (for blocks 3, 13 and 19); rows 1 and 13
    # are copies in different strips (for blocks 1, 3 and 13), whose
    # weight lands in a column sum.
    pts = np.random.default_rng(3).normal(size=(14, 3)) + 3.0
    pts[5] = pts[4]
    pts[13] = pts[1]
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", block)
    with monkeypatch.context() as patch:
        _bump_copy_norms(patch, [1, 4, 5, 13])
        rate = metrics.entropy_rate(pts).entropy_rate
        stationary = metrics.stationary_distribution(pts)
    assert abs(rate - brute_entropy_rate(pts)) <= 1e-12
    assert np.abs(stationary - power_iteration_stationary(pts)).max() <= 1e-10


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=3, max_value=24),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_homogeneity_stays_in_unit_interval(seed, m, dim):
    pts = np.random.default_rng(seed).normal(scale=100.0, size=(m, dim))
    h = metrics.homogeneity(pts)
    assert 0.0 <= h <= 1.0


def test_homogeneity_invariances():
    rng = np.random.default_rng(53)
    for _ in range(10):
        pts = random_cluster(rng, max_m=30, max_dim=8)
        h = metrics.homogeneity(pts)
        shift = rng.normal(size=pts.shape[1])
        assert abs(metrics.homogeneity(pts + shift) - h) <= 1e-9
        assert abs(metrics.homogeneity(pts * 7.25) - h) <= 1e-9
        q, _ = np.linalg.qr(rng.normal(size=(pts.shape[1], pts.shape[1])))
        assert abs(metrics.homogeneity(pts @ q) - h) <= 1e-9


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.floats(min_value=4.0, max_value=7.0))
@settings(max_examples=40, deadline=None)
def test_homogeneity_invariant_under_large_offsets(seed, log_offset):
    # Real embeddings share a large mean direction; the squared-distance
    # expansion must not cancel the spread away against it.
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(60, 16))
    direction = rng.normal(size=16)
    offset = 10.0 ** log_offset * direction / np.linalg.norm(direction)
    h = metrics.homogeneity(pts)
    assert abs(metrics.homogeneity(pts + offset) - h) <= 1e-9


# --- metric_report -----------------------------------------------------------

def test_metric_report_bundles_all_three():
    pts = np.random.default_rng(7).normal(size=(25, 3))
    report = metrics.metric_report(pts)
    stats = metrics.axis_stats(pts)
    assert report.diversity == metrics.diversity(stats)
    assert report.density == metrics.density(stats).value
    assert report.homogeneity == metrics.homogeneity(pts)
    assert report.homogeneity_skipped_reason is None
    assert report.degenerate_axes == 0


def test_metric_report_skips_homogeneity_below_three_samples():
    report = metrics.metric_report([[0.0, 1.0], [2.0, 3.0]])
    assert report.homogeneity is None
    assert "fewer than 3 samples" in report.homogeneity_skipped_reason
    assert report.diversity > 0.0


def test_metric_report_survives_coincident_cluster():
    report = metrics.metric_report([[2.0, 2.0]] * 4)
    assert report.diversity == 0.0
    assert report.degenerate_axes == 2
    assert report.homogeneity is None
    assert "coincide" in report.homogeneity_skipped_reason


def test_metric_report_notes_one_dimensional_flatness():
    report = metrics.metric_report([[0.0], [1.0], [4.0]])
    assert report.homogeneity == 1.0
    assert any("one dimension" in note for note in report.notes)


def test_metric_report_serializes_to_json():
    report = metrics.metric_report(np.random.default_rng(1).normal(size=(10, 4)))
    payload = json.loads(json.dumps(report.to_dict()))
    assert payload["homogeneity"] == report.homogeneity
    assert payload["notes"] == []


# --- metric_reports: one pass for many row subsets ----------------------------

@pytest.mark.parametrize("layout", ["C", "Fortran", "strided"])
def test_whole_cluster_subset_is_metric_report_bitwise(layout):
    # numpy's axis-0 sums depend on memory layout, so a C-order copy of the
    # rows would change the bits of the axis statistics. The strided case is
    # a view into a column-major buffer, contiguous in neither order.
    rng = np.random.default_rng(89)
    for _ in range(30):
        pts = random_cluster(rng, max_m=60, max_dim=12, min_m=1)
        if layout == "Fortran":
            pts = np.asfortranarray(pts)
        elif layout == "strided":
            wide = np.zeros((2 * pts.shape[0], 3 * pts.shape[1]), order="F")
            wide[::2, ::3] = pts
            pts = wide[::2, ::3]
        (shared,) = metrics.metric_reports(pts, [np.arange(pts.shape[0])])
        assert shared == metrics.metric_report(pts)
        stats = metrics.axis_stats(pts)  # the array as it is, uncopied
        assert shared.diversity == metrics.diversity(stats)
        assert shared.density == metrics.density(stats).value


def _random_subsets(rng, m, count):
    subsets = [np.arange(m)]
    for _ in range(count):
        keep = int(rng.integers(1, m + 1))
        subsets.append(np.sort(rng.choice(m, size=keep, replace=False)))
    return subsets


def test_metric_reports_match_metric_report_per_subset():
    rng = np.random.default_rng(47)
    clusters = [random_cluster(rng, max_m=120, max_dim=10) for _ in range(6)]
    flat = rng.normal(size=(40, 3))
    flat[:, 1] = 2.5  # a zero-variance axis, floored in density
    clusters.append(flat)
    clusters.append(rng.normal(size=(30, 1)))  # the one-dimension note
    for pts in clusters:
        subsets = _random_subsets(rng, pts.shape[0], 9)
        reports = metrics.metric_reports(pts, subsets)
        assert len(reports) == len(subsets)
        for idx, shared in zip(subsets, reports):
            assert_same_report(shared, metrics.metric_report(pts[idx]))


def test_metric_reports_degenerate_subsets_get_metric_report_reasons():
    pts = np.random.default_rng(53).normal(size=(12, 3))
    pts[[5, 7]] = pts[2]
    subsets = [np.arange(12), np.array([0, 1]), np.array([4]),
               np.array([2, 5, 7]), np.array([2, 5, 7, 9])]
    reports = metrics.metric_reports(pts, subsets)
    for idx, shared in zip(subsets, reports):
        assert_same_report(shared, metrics.metric_report(pts[idx]))
    assert "fewer than 3 samples (m=2)" in reports[1].homogeneity_skipped_reason
    assert reports[3].homogeneity_skipped_reason.startswith("all 3 points coincide")
    assert reports[4].homogeneity is not None

    coincident = [[2.0, 2.0]] * 5
    for idx, shared in zip([np.arange(5), np.arange(1, 4)],
                           metrics.metric_reports(coincident, [np.arange(5),
                                                               np.arange(1, 4)])):
        assert_same_report(shared, metrics.metric_report(np.asarray(coincident)[idx]))


@pytest.mark.parametrize("bad", [
    [2, 1], [1, 1], [], [0.0, 1.0], [-1, 0], [0, 12], [[0, 1]],
    [True, False, True],
])
def test_metric_reports_rejects_malformed_subsets(bad):
    pts = np.random.default_rng(0).normal(size=(12, 3))
    with pytest.raises(ValueError, match="strictly increasing"):
        metrics.metric_reports(pts, [np.arange(12), bad])


@pytest.mark.parametrize("block", [1, 3, 5])
def test_shared_pass_copy_pairs_across_strips_match_brute_force(monkeypatch, block):
    # Rows 1 and 13 are copies, and rows 3 and 12 differ only by the sign of
    # a zero coordinate; each pair spans strips. The subsets hold both, one
    # or neither of each pair, so the equality rule must hold per subset.
    pts = np.random.default_rng(19).normal(size=(14, 4)) + 3.0
    pts[13] = pts[1]
    pts[3, 0] = 0.0
    pts[12] = pts[3]
    pts[12, 0] = -0.0
    subsets = [np.arange(14), np.array([0, 1, 2, 3, 6, 12, 13]),
               np.array([1, 4, 5, 8, 12]), np.array([0, 2, 7, 9, 10, 11])]
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", block)
    with monkeypatch.context() as patch:
        _bump_copy_norms(patch, [1, 3, 12, 13])
        chains = metrics._chains(metrics.as_cluster(pts), subsets)
    for idx, chain in zip(subsets, chains):
        assert abs(chain.entropy_rate - brute_entropy_rate(pts[idx])) <= 1e-12
        stationary = power_iteration_stationary(pts[idx])
        assert np.abs(chain.stationary - stationary).max() <= 1e-10


@pytest.mark.parametrize("block", [1, 3, 5, 13])
def test_tiles_copy_pairs_match_brute_force(monkeypatch, block):
    # m = 29 is a multiple of none of the tile widths but 1, so every grid
    # has short edge tiles. Rows 6 and 7 are copies, and rows 10 and 11
    # differ only by the sign of a zero coordinate; both pairs sit inside a
    # diagonal tile for widths 3, 5 and 13. Rows 1 and 27 are copies, and
    # rows 14 and 28 a signed-zero pair, in different tiles for every width.
    # The subsets hold both, one or neither of each pair, so the equality
    # rule must hold per subset and wherever the pair sits.
    pts = np.random.default_rng(23).normal(size=(29, 4)) + 3.0
    pts[7] = pts[6]
    pts[27] = pts[1]
    for a, b in ((10, 11), (14, 28)):
        pts[a, 2] = 0.0
        pts[b] = pts[a]
        pts[b, 2] = -0.0
    neither = np.setdiff1d(np.arange(29), [1, 6, 7, 10, 11, 14, 27, 28])
    subsets = [np.arange(29),
               np.array([0, 1, 6, 7, 10, 11, 14, 20, 27, 28]),
               np.array([1, 2, 3, 6, 10, 14, 22]),
               neither,
               np.array([1, 6, 11, 14, 20, 21, 27])]
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", block)
    with monkeypatch.context() as patch:
        _bump_copy_norms(patch, [1, 6, 7, 10, 11, 14, 27, 28])
        chains = metrics._chains(metrics.as_cluster(pts), subsets)
    for idx, chain in zip(subsets, chains):
        assert abs(chain.entropy_rate - brute_entropy_rate(pts[idx])) <= 1e-12
        stationary = power_iteration_stationary(pts[idx])
        assert np.abs(chain.stationary - stationary).max() <= 1e-10


def _capped_reference(cluster, idx):
    # The capped group report as it was assembled field by field before
    # metric_reports took homogeneity subsets: axis statistics from every
    # row, homogeneity, reason and notes from the subsample plus a note.
    full = metrics.metric_report(cluster)
    if len(idx) == len(cluster):
        return full
    base = metrics.metric_report(cluster[idx])
    return metrics.MetricReport(
        diversity=full.diversity, density=full.density,
        density_log=full.density_log, homogeneity=base.homogeneity,
        degenerate_axes=full.degenerate_axes,
        homogeneity_skipped_reason=base.homogeneity_skipped_reason,
        notes=base.notes + (f"homogeneity computed on {len(idx)} of {len(cluster)} points",))


def test_homogeneity_subsets_match_capped_reports():
    rng = np.random.default_rng(61)
    clusters = [random_cluster(rng, max_m=80, max_dim=9, min_m=10) for _ in range(5)]
    clusters.append(rng.normal(size=(25, 1)))  # the one-dimension note
    coincident = rng.normal(size=(12, 3))
    coincident[[2, 4, 9]] = coincident[0]
    clusters.append(coincident)
    for pts in clusters:
        m = pts.shape[0]
        subsets = _random_subsets(rng, m, 5)
        caps = [np.sort(rng.choice(idx, size=min(len(idx), int(rng.integers(1, 12))),
                                   replace=False)) for idx in subsets]
        caps[0] = subsets[0]  # one homogeneity subset is its whole row subset
        if m == 12:
            caps[1] = np.array([0, 2, 4, 9])  # a coincident subsample
            subsets[1] = np.arange(10)
        reports = metrics.metric_reports(pts, subsets, homogeneity_subsets=caps)
        for idx, cap, shared in zip(subsets, caps, reports):
            assert_same_report(shared, _capped_reference(pts[idx], np.searchsorted(idx, cap)))
    assert reports[1].homogeneity_skipped_reason.startswith("all 4 points coincide")
    assert reports[1].notes == ("homogeneity computed on 4 of 10 points",)


def test_homogeneity_subsets_pass_covers_only_their_rows():
    # Row 19 is so far away that any weight to it overflows; it belongs to
    # the row subset but to no homogeneity subset, so it must stay out of
    # the pairwise pass.
    pts = np.random.default_rng(67).normal(size=(20, 768))
    pts[19, 0] = 1e47
    full, first = metrics.metric_reports(
        pts, [np.arange(20), np.arange(19)],
        homogeneity_subsets=[np.arange(0, 19, 2), np.arange(1, 19, 2)])
    assert abs(full.homogeneity - metrics.homogeneity(pts[0:19:2])) <= 1e-12
    assert abs(first.homogeneity - metrics.homogeneity(pts[1:19:2])) <= 1e-12
    assert full.notes == ("homogeneity computed on 10 of 20 points",)


@pytest.mark.parametrize("hom", [
    [np.arange(12)],                        # one subset for two row subsets
    [np.arange(12), np.arange(6)],          # row 5 is not in [0, 2, 4, 6]
    [np.arange(12), np.array([2, 0, 4])],   # not increasing
    [np.arange(12), np.array([], dtype=int)],
])
def test_homogeneity_subsets_are_validated(hom):
    pts = np.random.default_rng(0).normal(size=(12, 3))
    with pytest.raises(ValueError):
        metrics.metric_reports(pts, [np.arange(12), np.array([0, 2, 4, 6])],
                               homogeneity_subsets=hom)


def test_overflowing_edge_weights_give_a_reason_without_warnings():
    # One point 1e47 away at H = 768: its weights d ** ln(768) overflow.
    pts = np.random.default_rng(71).normal(size=(20, 768))
    pts[19, 0] = 1e47
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alone = metrics.metric_report(pts)
        shared = metrics.metric_reports(pts, [np.arange(19), np.arange(20)])
        near = metrics.metric_reports(pts, [np.arange(19)])
        with pytest.raises(DegenerateCluster, match="above the floating-point range"):
            metrics.homogeneity(pts)
    assert alone.homogeneity is None
    assert "above the floating-point range" in alone.homogeneity_skipped_reason
    # inf * 0 spoils the sums of the 19 near rows too, so they get the
    # same reason rather than "zero total edge weight".
    for report in shared:
        assert report.homogeneity is None
        assert report.homogeneity_skipped_reason == alone.homogeneity_skipped_reason
    assert_same_report(near[0], metrics.metric_report(pts[:19]))
