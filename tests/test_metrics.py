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
    homogeneity_of,
    power_iteration_stationary,
    random_cluster,
)
from textchar import analysis, io, metrics
from textchar.errors import DegenerateInput


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
        metrics.metric_report(bad)


def test_metric_reports_validate_the_cluster_once(monkeypatch):
    # The report builder works on the validated array; no per-subset step
    # scans it for non-finite values again.
    calls = []
    as_cluster = metrics._as_cluster

    def counted(vectors):
        calls.append(1)
        return as_cluster(vectors)

    monkeypatch.setattr(metrics, "_as_cluster", counted)
    pts = np.random.default_rng(37).normal(size=(30, 4))
    subsets = [np.arange(30), np.arange(0, 30, 2), np.arange(2), np.arange(5, 20)]
    metrics.metric_reports(pts, subsets)
    assert len(calls) == 1
    # The sweep validates the whole collection once, whatever the fractions
    # and the cap, and no group copy through a public entry.
    monkeypatch.setattr(analysis, "_as_cluster", counted)
    calls.clear()
    keys = [(f"t{i}", label, layer) for label in ("a", "b", "c") for i in range(8)
            for layer in ("L1", "L2")]
    ids, labels, layers = (list(column) for column in zip(*keys))
    emb = io.LabeledEmbeddings(np.random.default_rng(38).normal(size=(len(keys), 3)),
                               ids, labels, layers)
    for cap in (None, 3):
        analysis.downsample_sweep(emb, [1.0, 0.5, 0.25], seed=2, homogeneity_cap=cap)
        assert len(calls) == 1
        calls.clear()


def test_axis_stats_hand_values():
    pts = np.array([[0.0, 0.0], [2.0, 4.0]])
    assert np.array_equal(metrics._axis_stds(pts), [1.0, 2.0])
    report = metrics.metric_report(pts)
    assert report.diversity == 1.414213562373095  # exp(ln(2)/2)
    assert report.density_log == 0.20301810882567173  # ln 2 - ln 2 / sqrt(2)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["square overflows", "sum overflows"])
def test_axis_stats_near_float64_max_match_a_scaled_reference(case):
    # One coordinate of 1e160 overflows the squares in np.std; a column near
    # 1e308 throughout overflows even the sum behind its mean. Scaling a
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
    want = metrics._axis_stds(scaled)
    got = metrics._axis_stds(pts)
    assert np.isfinite(got).all()
    assert got[1] == pytest.approx(want[1] * 2.0 ** exponent, rel=1e-12)
    assert got[[0, 2]].tolist() == want[[0, 2]].tolist()  # bits kept
    report = metrics.metric_report(pts)
    log_diversity = np.log(want).mean() + exponent * math.log(2.0) / 3
    assert report.diversity == pytest.approx(math.exp(log_diversity), rel=1e-12)
    assert report.density_log == pytest.approx(
        math.log(10) - 3 * log_diversity / math.sqrt(3), rel=1e-12)


# --- diversity ------------------------------------------------------------

def test_diversity_geometric_mean():
    # Ten points with per-axis stds exactly (2, 8).
    pts = np.tile([[-2.0, -8.0], [2.0, 8.0]], (5, 1))
    assert metrics.metric_report(pts).diversity == pytest.approx(4.0, rel=1e-15)


def test_diversity_zero_axis_collapses_to_zero():
    assert metrics.metric_report([[0.0, 1.0], [0.0, 3.0]]).diversity == 0.0


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=0, max_value=2 ** 32 - 1))
@settings(max_examples=50, deadline=None)
def test_diversity_scale_equivariance(scale, seed):
    pts = np.random.default_rng(seed).normal(size=(20, 5))
    base = metrics.metric_report(pts).diversity
    scaled = metrics.metric_report(scale * pts).diversity
    assert scaled == pytest.approx(scale * base, rel=1e-12)


# --- density ----------------------------------------------------------------

def test_density_matches_log_form():
    pts = np.random.default_rng(5).normal(size=(40, 6))
    result = metrics.metric_report(pts)
    expected = math.log(40) - np.log(pts.std(axis=0)).sum() / math.sqrt(6)
    assert result.density_log == pytest.approx(expected, rel=1e-15)
    assert result.density == pytest.approx(math.exp(expected), rel=1e-15)


def test_density_floors_degenerate_axis():
    result = metrics.metric_report([[0.0, 1.0], [0.0, 3.0]])
    assert result.degenerate_axes == 1
    expected = math.log(2) - (math.log(1e-12) + math.log(1.0)) / math.sqrt(2)
    assert result.density_log == pytest.approx(expected, rel=1e-15)
    assert math.isfinite(result.density)
    # A standard deviation of exactly the floor, 1e-12, is not below it.
    assert metrics.metric_report([[0.0], [2e-12]]).degenerate_axes == 0


def test_density_survives_768_dims_without_underflow():
    # 768 axes of spread 1e-3 would underflow a plain product (1e-2304).
    pts = np.random.default_rng(9).normal(scale=1e-3, size=(100, 768))
    result = metrics.metric_report(pts)
    assert math.isfinite(result.density_log)
    assert result.density > 0.0


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


# --- stationary distribution ---------------------------------------------

THREE_POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0]])


def test_stationary_three_point_hand_value():
    nu = metrics.entropy_rate(THREE_POINTS).stationary
    expected = (0.2820229923560615, 0.2655083611388984, 0.45246864650504004)
    assert np.abs(nu - expected).max() <= 1e-15


def test_stationary_two_points_split_evenly():
    nu = metrics.entropy_rate([[0.0, 0.0], [5.0, 5.0]]).stationary
    assert np.array_equal(nu, [0.5, 0.5])


def test_stationary_is_probability_vector():
    rng = np.random.default_rng(17)
    for _ in range(10):
        nu = metrics.entropy_rate(random_cluster(rng)).stationary
        assert (nu > 0.0).all()
        assert abs(nu.sum() - 1.0) <= 1e-12


def test_stationary_is_fixed_under_transitions():
    pts = random_cluster(np.random.default_rng(31), max_dim=6)
    nu = metrics.entropy_rate(pts).stationary
    p = brute_transitions(pts)
    assert np.abs(nu @ p - nu).max() <= 1e-12


def test_stationary_rejects_single_point():
    with pytest.raises(DegenerateInput,
                       match="^need at least 2 points for a transition chain$"):
        metrics.entropy_rate([[1.0, 2.0]])


def test_stationary_rejects_coincident_cluster():
    with pytest.raises(DegenerateInput,
                       match="^all 5 points coincide; the distance chain has no edges$"):
        metrics.entropy_rate([[3.0, 4.0]] * 5)


# --- entropy rate and homogeneity -----------------------------------------

def test_entropy_rate_three_point_hand_value():
    chain = metrics.entropy_rate(THREE_POINTS)
    assert chain.entropy_rate == pytest.approx(0.5660035753544241, abs=1e-15)


def test_homogeneity_three_point_hand_value():
    assert homogeneity_of(THREE_POINTS) == pytest.approx(
        0.8165705512892505, abs=1e-15)


def test_entropy_rate_independent_of_block_size(monkeypatch):
    pts = random_cluster(np.random.default_rng(43), max_m=150, min_m=100)
    full = metrics.entropy_rate(pts)
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", 7)
    blocked = metrics.entropy_rate(pts)
    assert abs(full.entropy_rate - blocked.entropy_rate) <= 1e-12
    assert np.abs(full.stationary - blocked.stationary).max() <= 1e-12


def test_homogeneity_requires_three_points():
    report = metrics.metric_report([[0.0, 0.0], [1.0, 1.0]])
    assert report.homogeneity is None
    assert report.homogeneity_skipped_reason == "fewer than 3 samples (m=2)"


@pytest.mark.parametrize("block", [None, 3])
def test_metric_report_homogeneity_is_the_normalized_entropy_rate(monkeypatch, block):
    # The report and entropy_rate reach the chain by the same pass, so the
    # report's homogeneity is the rate over its ln(m - 1) bound bitwise,
    # clamped at 1. Simplex corners are equidistant: there roundoff can put
    # the rate an ulp above its bound (it does for m = 3 on OpenBLAS).
    rng = np.random.default_rng(97)
    clusters = [random_cluster(rng, max_m=80, max_dim=10) for _ in range(10)]
    copies = rng.normal(size=(20, 4))
    copies[[5, 11, 17]] = copies[2]
    clusters.append(copies)
    clusters += [np.eye(m) for m in range(3, 9)]
    if block is not None:
        monkeypatch.setattr(metrics, "_BLOCK_ROWS", block)
    for pts in clusters:
        chain = metrics.entropy_rate(pts)
        want = min(chain.entropy_rate / math.log(len(pts) - 1), 1.0)
        assert metrics.metric_report(pts).homogeneity == want


def _bump_copy_norms(patch):
    # Adds 1e-13 to every squared norm as the kernel's ``einsum`` returns
    # them, so a copy pair that reached the pass would expand to
    # d2 ~ 2e-13 > 0 on any BLAS and get a weight the oracle does not have.
    # Only merging copies before the pass keeps their weight zero.
    einsum = np.einsum

    def bumped(*args, **kwargs):
        return einsum(*args, **kwargs) + 1e-13

    patch.setattr(metrics.np, "einsum", bumped)


def test_chain_rows_never_receives_a_copy_pair(monkeypatch):
    # Copies, and a pair that differs only by the sign of a zero, across
    # whole-cluster, subset and capped calls.
    pts = np.random.default_rng(29).normal(size=(30, 4))
    pts[[7, 21]] = pts[3]
    pts[11, 1] = 0.0
    pts[25] = pts[11]
    pts[25, 1] = -0.0
    chain_rows, calls = metrics._chain_rows, []

    def checked(arr, members):
        equal = (arr[:, None, :] == arr[None, :, :]).all(axis=2)
        assert np.array_equal(equal, np.eye(len(arr), dtype=bool))
        calls.append(len(arr))
        return chain_rows(arr, members)

    monkeypatch.setattr(metrics, "_chain_rows", checked)
    metrics.metric_report(pts)
    metrics.metric_report(pts[:26])
    metrics._reports(pts, [np.arange(30), np.array([3, 7, 11, 25]), np.arange(20)],
                     [np.arange(0, 30, 2), np.array([3, 7, 11, 25]), np.arange(20)])
    assert calls == [27, 23, 24]


@given(st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.integers(min_value=3, max_value=24),
       st.integers(min_value=1, max_value=8))
@settings(max_examples=60, deadline=None)
def test_homogeneity_stays_in_unit_interval(seed, m, dim):
    pts = np.random.default_rng(seed).normal(scale=100.0, size=(m, dim))
    h = homogeneity_of(pts)
    assert 0.0 <= h <= 1.0


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
    h = homogeneity_of(pts)
    assert abs(homogeneity_of(pts + offset) - h) <= 1e-9


# --- metric_report -----------------------------------------------------------

def test_metric_report_bundles_all_three():
    pts = np.random.default_rng(7).normal(size=(25, 3))
    report = metrics.metric_report(pts)
    stds = pts.std(axis=0)
    assert report.diversity == float(np.exp(np.mean(np.log(stds))))
    assert report.density == math.exp(math.log(25) - np.sum(np.log(stds)) / math.sqrt(3))
    chain = metrics.entropy_rate(pts)
    assert report.homogeneity == min(chain.entropy_rate / math.log(24), 1.0)
    assert report.homogeneity_skipped_reason is None
    assert report.degenerate_axes == 0


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
def test_whole_cluster_subset_is_metric_report_bitwise(monkeypatch, layout):
    # numpy's axis-0 sums depend on memory layout, so a C-order copy of the
    # rows would change the bits of the axis statistics. The strided case is
    # a view into a column-major buffer, contiguous in neither order.
    rng = np.random.default_rng(89)
    axis_stds, seen = metrics._axis_stds, []

    def recorded(arr):
        seen.append(arr)
        return axis_stds(arr)

    monkeypatch.setattr(metrics, "_axis_stds", recorded)
    for _ in range(30):
        pts = random_cluster(rng, max_m=60, max_dim=12, min_m=1)
        if layout == "Fortran":
            pts = np.asfortranarray(pts)
        elif layout == "strided":
            wide = np.zeros((2 * pts.shape[0], 3 * pts.shape[1]), order="F")
            wide[::2, ::3] = pts
            pts = wide[::2, ::3]
        seen.clear()
        (shared,) = metrics.metric_reports(pts, [np.arange(pts.shape[0])])
        assert shared == metrics.metric_report(pts)
        # Both calls hand the per-axis spread the array as it is, uncopied.
        assert len(seen) == 2 and all(arr is pts for arr in seen)


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


def test_metric_reports_compute_every_axis_stats_before_the_pass(monkeypatch):
    # All numpy work on the subsets precedes the pairwise pass, whose BLAS
    # threads spin on after its last products.
    calls = []

    def record(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(metrics, "_axis_stds", record("_axis_stds", metrics._axis_stds))
    monkeypatch.setattr(metrics, "_chains", record("_chains", metrics._chains))
    pts = np.random.default_rng(59).normal(size=(30, 4))
    subsets = [np.arange(30), np.arange(0, 30, 2), np.arange(2), np.arange(5, 20)]
    metrics.metric_reports(pts, subsets)
    assert calls == ["_axis_stds"] * len(subsets) + ["_chains"]


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
    # or neither of each pair, so each must count its own copies.
    pts = np.random.default_rng(19).normal(size=(14, 4)) + 3.0
    pts[13] = pts[1]
    pts[3, 0] = 0.0
    pts[12] = pts[3]
    pts[12, 0] = -0.0
    subsets = [np.arange(14), np.array([0, 1, 2, 3, 6, 12, 13]),
               np.array([1, 4, 5, 8, 12]), np.array([0, 2, 7, 9, 10, 11])]
    monkeypatch.setattr(metrics, "_BLOCK_ROWS", block)
    with monkeypatch.context() as patch:
        _bump_copy_norms(patch)
        chains = metrics._chains(pts, subsets)
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
    # The subsets hold both, one or neither of each pair, so each must
    # count its own copies, wherever the pair sits.
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
        _bump_copy_norms(patch)
        chains = metrics._chains(pts, subsets)
    for idx, chain in zip(subsets, chains):
        assert abs(chain.entropy_rate - brute_entropy_rate(pts[idx])) <= 1e-12
        stationary = power_iteration_stationary(pts[idx])
        assert np.abs(chain.stationary - stationary).max() <= 1e-10


def _capped_reference(cluster, idx):
    # The capped group report assembled field by field: axis statistics
    # from every row, homogeneity, reason and notes from the subsample plus
    # a note.
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
        reports = metrics._reports(pts, subsets, caps)
        for idx, cap, shared in zip(subsets, caps, reports):
            assert_same_report(shared, _capped_reference(pts[idx], np.searchsorted(idx, cap)))
    assert reports[1].homogeneity_skipped_reason.startswith("all 4 points coincide")
    assert reports[1].notes == ("homogeneity computed on 4 of 10 points",)


def test_homogeneity_subsets_pass_covers_only_their_rows():
    # Row 19 is so far away that a pass holding it would lose the other
    # rows' distances to roundoff; it belongs to the row subset but to no
    # homogeneity subset, so it must stay out of the pairwise pass.
    pts = np.random.default_rng(67).normal(size=(20, 768))
    pts[19, 0] = 1e47
    full, first = metrics._reports(pts, [np.arange(20), np.arange(19)],
                                   [np.arange(0, 19, 2), np.arange(1, 19, 2)])
    assert abs(full.homogeneity - homogeneity_of(pts[0:19:2])) <= 1e-12
    assert abs(first.homogeneity - homogeneity_of(pts[1:19:2])) <= 1e-12
    assert full.notes == ("homogeneity computed on 10 of 20 points",)


def _far_row(dim, value):
    pts = np.random.default_rng(71).normal(size=(20, dim))
    pts[19, 0] = value
    return pts


@pytest.mark.parametrize("pts, exponent", [
    (_far_row(768, 1e47), 157),  # weights d ** ln(768) pass the float64 range
    (_far_row(3, 1e160), 532),   # squared distances pass it
    (np.ldexp(np.random.default_rng(73).normal(size=(20, 8)), -1000), -1000),
    (np.ldexp(np.random.default_rng(73).normal(size=(20, 8)), 900), 900),
], ids=["1e47-outlier-768d", "1e160-coordinate-3d", "times-2^-1000", "times-2^900"])
def test_homogeneity_is_scale_free_across_the_float64_range(pts, exponent):
    # The same points at normal size, scaled back by an exact power of two.
    normal = np.ldexp(pts, -exponent)
    # Every subset holds row 19: a shared pass centered near a far row loses
    # the distances of a subset without it, at any scale.
    subsets = [np.arange(20), np.arange(1, 20, 2), np.arange(10, 20)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chain = metrics.entropy_rate(pts)
        h = homogeneity_of(pts)
        shared = metrics.metric_reports(pts, subsets)
        assert abs(h - homogeneity_of(normal)) <= 1e-12
        assert h == min(chain.entropy_rate / math.log(len(pts) - 1), 1.0)
        for idx, got in zip(subsets, shared):
            assert_same_report(got, metrics.metric_report(pts[idx]))
            assert abs(got.homogeneity - homogeneity_of(normal[idx])) <= 1e-12
