import numpy as np
import pytest
from scipy import stats as sps

from textchar import simulation as sim
from textchar.errors import EmptyResult
from textchar.metrics import axis_stats, diversity, metric_report


def test_blob_is_deterministic_per_seed():
    spec = sim.BlobSpec(count=500, dim=8, seed=123)
    assert np.array_equal(sim.gaussian_blob(spec), sim.gaussian_blob(spec))
    other = sim.BlobSpec(count=500, dim=8, seed=124)
    assert not np.array_equal(sim.gaussian_blob(spec), sim.gaussian_blob(other))


def test_blob_sample_statistics():
    pts = sim.gaussian_blob(sim.BlobSpec(count=10_000, dim=2, seed=42))
    stats = axis_stats(pts)
    assert np.abs(stats.stds - 1.0).max() <= 0.03
    assert np.abs(pts.mean(axis=0)).max() <= 0.05


def test_blob_diversity_in_768_dims():
    pts = sim.gaussian_blob(sim.BlobSpec(count=10_000, dim=768, seed=42))
    assert diversity(axis_stats(pts)) == pytest.approx(1.0, rel=0.03)


@pytest.mark.parametrize("kwargs", [
    dict(count=0, dim=2),
    dict(count=10, dim=0),
])
def test_blob_spec_validation(kwargs):
    with pytest.raises(ValueError):
        sim.BlobSpec(**kwargs)


# --- down-sampling ---------------------------------------------------------

def test_down_sample_exact_size():
    pts = np.arange(20_000, dtype=np.float64).reshape(10_000, 2)
    assert sim.down_sample(pts, 0.5, seed=0).shape == (5_000, 2)


def test_down_sample_rounds_half_up():
    pts = np.zeros((10, 2))
    pts[:, 0] = np.arange(10)
    assert sim.down_sample(pts, 0.25, seed=0).shape[0] == 3  # 2.5 rounds up
    assert sim.down_sample(pts, 0.15, seed=0).shape[0] == 2  # 1.5 rounds up
    assert sim.down_sample(pts, 0.24, seed=0).shape[0] == 2  # 2.4 rounds down


def test_down_sample_full_fraction_is_identity():
    pts = np.random.default_rng(2).normal(size=(50, 3))
    assert np.array_equal(sim.down_sample(pts, 1.0, seed=9), pts)


def test_down_sample_returns_subset_in_original_order():
    pts = np.arange(100, dtype=np.float64).reshape(50, 2)
    sub = sim.down_sample(pts, 0.3, seed=4)
    rows = {tuple(r) for r in pts}
    assert all(tuple(r) in rows for r in sub)
    assert np.array_equal(sub[:, 0], np.sort(sub[:, 0]))


def test_down_sample_is_deterministic():
    pts = np.random.default_rng(3).normal(size=(40, 2))
    assert np.array_equal(sim.down_sample(pts, 0.5, seed=7),
                          sim.down_sample(pts, 0.5, seed=7))
    assert not np.array_equal(sim.down_sample(pts, 0.5, seed=7),
                              sim.down_sample(pts, 0.5, seed=8))


def test_down_sample_empty_result():
    with pytest.raises(EmptyResult):
        sim.down_sample(np.zeros((3, 2)), 0.1, seed=0)


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5])
def test_down_sample_rejects_bad_fraction(fraction):
    with pytest.raises(ValueError):
        sim.down_sample(np.zeros((5, 2)), fraction, seed=0)


# --- sphere points -----------------------------------------------------------

def test_sphere_points_have_exact_radius():
    pts = sim.sphere_points(500, 2, radius=3.5, seed=11)
    norms = np.linalg.norm(pts, axis=1)
    assert np.abs(norms / 3.5 - 1.0).max() <= 1e-9


def test_sphere_points_angular_uniformity():
    # Chi-square over 16 angular bins; threshold is ppf(0.99, 15).
    pts = sim.sphere_points(1000, 2, radius=1.0, seed=13)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    chi2 = ((counts - 62.5) ** 2 / 62.5).sum()
    threshold = sps.chi2.ppf(0.99, 15)
    assert threshold == pytest.approx(30.57791416689249, rel=1e-12)
    assert chi2 < threshold


def test_sphere_points_mean_concentrates_in_high_dims():
    pts = sim.sphere_points(1000, 768, radius=10.0, seed=17)
    # mean norm ~ radius / sqrt(n) ~ 0.32, far below the loose cap
    assert np.linalg.norm(pts.mean(axis=0)) < 1.5


def test_sphere_points_determinism_and_validation():
    assert np.array_equal(sim.sphere_points(10, 3, 1.0, seed=5),
                          sim.sphere_points(10, 3, 1.0, seed=5))
    with pytest.raises(ValueError):
        sim.sphere_points(0, 3, 1.0, seed=5)
    with pytest.raises(ValueError):
        sim.sphere_points(10, 3, 0.0, seed=5)


# --- outliers and sub-clusters ---------------------------------------------

def test_add_outliers_appends_shell_points():
    base = np.random.default_rng(19).normal(size=(100, 2))
    grown = sim.add_outliers(base, 25, radius=10.0, seed=19)
    assert grown.shape == (125, 2)
    assert np.array_equal(grown[:100], base)
    assert np.abs(np.linalg.norm(grown[100:], axis=1) - 10.0).max() <= 1e-9


def test_add_outliers_zero_count_copies():
    base = np.random.default_rng(19).normal(size=(10, 2))
    out = sim.add_outliers(base, 0, radius=10.0, seed=19)
    assert np.array_equal(out, base)
    assert out is not base


def test_sub_clusters_sizes_and_centers():
    pts = sim.sub_clusters(3, 10, dim=2, spacing=1e6, seed=23)
    assert pts.shape == (10, 2)
    # huge spacing makes assignment to the nearest center unambiguous
    assignment = np.round(pts[:, 0] / 1e6).astype(int)
    assert np.bincount(assignment, minlength=3).tolist() == [4, 3, 3]


def test_sub_clusters_equal_split():
    pts = sim.sub_clusters(10, 10_000, dim=2, spacing=1e6, seed=29)
    assignment = np.round(pts[:, 0] / 1e6).astype(int)
    assert np.bincount(assignment, minlength=10).tolist() == [1000] * 10


def test_sub_clusters_offsets_only_first_axis():
    pts = sim.sub_clusters(4, 4000, dim=3, spacing=50.0, seed=31)
    means = pts.mean(axis=0)
    assert means[0] == pytest.approx(75.0, abs=1.0)   # mean of 0,50,100,150
    assert np.abs(means[1:]).max() <= 0.2


def test_sub_clusters_single_is_plain_blob():
    pts = sim.sub_clusters(1, 200, dim=2, spacing=10.0, seed=37)
    assert pts.shape == (200, 2)
    assert np.abs(pts.mean(axis=0)).max() <= 0.3


def test_sub_clusters_validation():
    with pytest.raises(ValueError):
        sim.sub_clusters(0, 10, 2, 10.0, seed=0)
    with pytest.raises(ValueError):
        sim.sub_clusters(5, 4, 2, 10.0, seed=0)


# --- scenario specs and runs -------------------------------------------------

def test_scenario_spec_validation():
    base = sim.BlobSpec(count=10, dim=2)
    with pytest.raises(ValueError):
        sim.ScenarioSpec(kind="nonsense", base=base, sweep=(1.0,))
    with pytest.raises(ValueError):
        sim.ScenarioSpec(kind="outliers", base=base, sweep=())
    with pytest.raises(ValueError):
        sim.ScenarioSpec(kind="outliers", base=base, sweep=(1.0, 3.0, 2.0))


def test_default_sweeps():
    assert sim.scenario("down_sampling", dim=2).sweep == sim.DOWN_SAMPLING_FRACTIONS
    assert sim.scenario("varying_spread", dim=2).sweep == sim.SPREADS
    assert sim.scenario("outliers", dim=2).sweep == sim.OUTLIER_COUNTS
    assert sim.scenario("sub_clusters", dim=2).sweep == sim.SUB_CLUSTER_COUNTS
    assert len(sim.DOWN_SAMPLING_FRACTIONS) == 10
    assert len(sim.SPREADS) == 10
    assert len(sim.OUTLIER_COUNTS) == 11
    assert len(sim.SUB_CLUSTER_COUNTS) == 10


def test_run_scenario_row_per_sweep_value():
    spec = sim.scenario("down_sampling", dim=2, points=300, seed=7)
    rows = sim.run_scenario(spec)
    assert [row.parameter for row in rows] == list(spec.sweep)
    assert all(row.report is not None for row in rows)


def test_run_scenario_is_deterministic():
    spec = sim.scenario("outliers", dim=2, points=200, seed=3,
                        sweep=(0, 50, 100))
    a = sim.run_scenario(spec)
    b = sim.run_scenario(spec)
    assert [r.report.to_dict() for r in a] == [r.report.to_dict() for r in b]


def test_run_scenario_records_row_errors_without_aborting():
    spec = sim.scenario("down_sampling", dim=2, points=3, seed=1,
                        sweep=(1.0, 0.1))
    rows = sim.run_scenario(spec)
    assert rows[0].report is not None
    assert rows[1].report is None
    assert "rounds to 0" in rows[1].error


def test_down_sampling_rows_reuse_base_blob():
    # Row i must equal down_sample(base, f_i, SeedSequence([seed, i])).
    spec = sim.scenario("down_sampling", dim=3, points=120, seed=5,
                        sweep=(1.0, 0.5))
    rows = sim.run_scenario(spec)
    base = sim.gaussian_blob(spec.base)
    manual = sim.down_sample(base, 0.5, np.random.SeedSequence([5, 1]))
    expected = axis_stats(manual)
    assert rows[1].report.diversity == diversity(expected)


def test_down_sampling_rows_match_per_row_reports():
    # The shared pass must reproduce metric_report on each row's subset.
    spec = sim.scenario("down_sampling", dim=5, points=400, seed=13)
    rows = sim.run_scenario(spec)
    base = sim.gaussian_blob(spec.base)
    for index, (value, row) in enumerate(zip(spec.sweep, rows)):
        alone = metric_report(sim.down_sample(
            base, value, np.random.SeedSequence([13, index])))
        assert row.parameter == value
        assert row.report.diversity == alone.diversity
        assert row.report.density == alone.density
        assert row.report.density_log == alone.density_log
        assert row.report.degenerate_axes == alone.degenerate_axes
        assert abs(row.report.homogeneity - alone.homogeneity) <= 1e-12


def test_spread_rows_use_per_row_streams():
    spec = sim.scenario("varying_spread", dim=2, points=150, seed=9,
                        sweep=(1.0, 4.0))
    rows = sim.run_scenario(spec)
    rng = np.random.default_rng(np.random.SeedSequence([9, 1]))
    manual = rng.normal(0.0, 4.0, size=(150, 2))
    assert rows[1].report.diversity == diversity(axis_stats(manual))


def test_outlier_radius_defaults_to_ten_sigma():
    implicit = sim.scenario("outliers", dim=2, points=50, seed=13, sweep=(0, 20))
    explicit = sim.scenario("outliers", dim=2, points=50, seed=13,
                            sweep=(0, 20), outlier_radius=10.0)
    rows = sim.run_scenario(implicit)
    assert ([r.report.to_dict() for r in rows]
            == [r.report.to_dict() for r in sim.run_scenario(explicit)])
    # and the defaulted cluster is reproducible by hand
    base = sim.gaussian_blob(implicit.base)
    manual = sim.add_outliers(base, 20, 10.0, np.random.SeedSequence([13, 1]))
    assert rows[1].report.to_dict() == metric_report(manual).to_dict()


def test_sub_cluster_spacing_defaults_to_ten_sigma():
    implicit = sim.scenario("sub_clusters", dim=2, points=60, seed=17,
                            sweep=(2, 3))
    explicit = sim.scenario("sub_clusters", dim=2, points=60, seed=17,
                            sweep=(2, 3), spacing=10.0)
    rows_a = sim.run_scenario(implicit)
    rows_b = sim.run_scenario(explicit)
    assert [r.report.to_dict() for r in rows_a] == [r.report.to_dict() for r in rows_b]
