import numpy as np
import pytest
from scipy import stats as sps

from conftest import spread_report
from textchar import simulation as sim
from textchar.errors import EmptyResult
from textchar.metrics import MetricReport, metric_report


def test_blob_is_deterministic_per_seed():
    assert np.array_equal(sim.gaussian_blob(500, 8, 123), sim.gaussian_blob(500, 8, 123))
    assert not np.array_equal(sim.gaussian_blob(500, 8, 123),
                              sim.gaussian_blob(500, 8, 124))


def test_blob_sample_statistics():
    pts = sim.gaussian_blob(10_000, 2, 42)
    assert np.abs(pts.std(axis=0) - 1.0).max() <= 0.03
    assert np.abs(pts.mean(axis=0)).max() <= 0.05


def test_blob_diversity_in_768_dims():
    pts = sim.gaussian_blob(10_000, 768, 42)
    assert spread_report(pts).diversity == pytest.approx(1.0, rel=0.03)


@pytest.mark.parametrize("kwargs", [
    dict(count=0, dim=2),
    dict(count=10, dim=0),
])
def test_gaussian_blob_validation(kwargs):
    with pytest.raises(ValueError, match="^(count|dim) must be >= 1, got 0$"):
        sim.gaussian_blob(**kwargs)


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
    # add_outliers draws its shell through sphere_points.
    for dim, radius, message in [
        (0, 1.0, "dim must be >= 1, got 0"),
        (2, float("inf"), "radius must be finite and > 0, got inf"),
        (2, float("nan"), "radius must be finite and > 0, got nan"),
    ]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            sim.sphere_points(3, dim, radius, seed=0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            sim.add_outliers(np.zeros((4, dim)), 2, radius, seed=0)


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
    with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
        sim.sub_clusters(2, 4, 0, 1.0, seed=0)
    for spacing in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^spacing must be finite, got {spacing}$"):
            sim.sub_clusters(2, 4, 2, spacing, seed=0)


# --- scenario runs -----------------------------------------------------------

def test_run_scenario_validation():
    with pytest.raises(ValueError, match="^unknown scenario kind 'nonsense'$"):
        sim.run_scenario("nonsense", dim=2, points=10, sweep=(1.0,))
    with pytest.raises(ValueError, match="^sweep must not be empty$"):
        sim.run_scenario("outliers", dim=2, points=10, sweep=())
    with pytest.raises(ValueError, match="^sweep values must be strictly monotone$"):
        sim.run_scenario("outliers", dim=2, points=10, sweep=(1.0, 3.0, 2.0))


def test_default_sweeps():
    assert {kind: len(sweep) for kind, sweep in sim.SWEEPS.items()} == {
        "down_sampling": 10, "varying_spread": 10, "outliers": 11, "sub_clusters": 10}
    for kind, sweep in sim.SWEEPS.items():
        assert len(sim.run_scenario(kind, dim=2, points=40)) == len(sweep)


def test_run_scenario_row_per_sweep_value():
    reports = sim.run_scenario("down_sampling", dim=2, points=300, seed=7)
    assert len(reports) == len(sim.SWEEPS["down_sampling"])
    assert all(isinstance(report, MetricReport) for report in reports)


def test_run_scenario_is_deterministic():
    a = sim.run_scenario("outliers", dim=2, points=200, seed=3, sweep=(0, 50, 100))
    b = sim.run_scenario("outliers", dim=2, points=200, seed=3, sweep=(0, 50, 100))
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]


def test_run_scenario_raises_before_the_pass(monkeypatch):
    # Every subset is drawn before the shared pass, so a fraction that
    # rounds to 0 raises without paying for the pass.
    def never(*args, **kwargs):
        raise AssertionError("metric_reports called")

    monkeypatch.setattr(sim, "metric_reports", never)
    with pytest.raises(EmptyResult, match="rounds to 0"):
        sim.run_scenario("down_sampling", dim=2, points=3, seed=1, sweep=(1.0, 0.1))


def test_run_scenario_draws_no_base_blob_it_does_not_read(monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("gaussian_blob called")

    monkeypatch.setattr(sim, "gaussian_blob", never)
    for kind in ("varying_spread", "sub_clusters"):
        assert len(sim.run_scenario(kind, dim=2, points=30, sweep=(1, 2))) == 2
    # Every kind checks the sizes before it draws anything.
    for kind in sim.SWEEPS:
        with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
            sim.run_scenario(kind, dim=2, points=0)
        with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
            sim.run_scenario(kind, dim=0, points=10)


def test_down_sampling_rows_reuse_base_blob():
    # Row i must equal down_sample(base, f_i, SeedSequence([seed, i])).
    reports = sim.run_scenario("down_sampling", dim=3, points=120, seed=5,
                               sweep=(1.0, 0.5))
    base = sim.gaussian_blob(120, 3, 5)
    manual = sim.down_sample(base, 0.5, np.random.SeedSequence([5, 1]))
    assert reports[1].diversity == metric_report(manual).diversity


def test_down_sampling_rows_match_per_row_reports():
    # The shared pass must reproduce metric_report on each row's subset.
    reports = sim.run_scenario("down_sampling", dim=5, points=400, seed=13)
    base = sim.gaussian_blob(400, 5, 13)
    sweep = sim.SWEEPS["down_sampling"]
    assert len(reports) == len(sweep)
    for index, (value, report) in enumerate(zip(sweep, reports)):
        alone = metric_report(sim.down_sample(
            base, value, np.random.SeedSequence([13, index])))
        assert report.diversity == alone.diversity
        assert report.density == alone.density
        assert report.density_log == alone.density_log
        assert report.degenerate_axes == alone.degenerate_axes
        assert abs(report.homogeneity - alone.homogeneity) <= 1e-12


def test_spread_rows_use_per_row_streams():
    reports = sim.run_scenario("varying_spread", dim=2, points=150, seed=9,
                               sweep=(1.0, 4.0))
    rng = np.random.default_rng(np.random.SeedSequence([9, 1]))
    manual = rng.normal(0.0, 4.0, size=(150, 2))
    assert reports[1].diversity == metric_report(manual).diversity


def test_outlier_radius_defaults_to_ten_sigma():
    implicit = sim.run_scenario("outliers", dim=2, points=50, seed=13, sweep=(0, 20))
    explicit = sim.run_scenario("outliers", dim=2, points=50, seed=13, sweep=(0, 20),
                                outlier_radius=10.0)
    assert [r.to_dict() for r in implicit] == [r.to_dict() for r in explicit]
    # and the defaulted cluster is reproducible by hand
    base = sim.gaussian_blob(50, 2, 13)
    manual = sim.add_outliers(base, 20, 10.0, np.random.SeedSequence([13, 1]))
    assert implicit[1].to_dict() == metric_report(manual).to_dict()


def test_sub_cluster_spacing_defaults_to_ten_sigma():
    implicit = sim.run_scenario("sub_clusters", dim=2, points=60, seed=17, sweep=(2, 3))
    explicit = sim.run_scenario("sub_clusters", dim=2, points=60, seed=17, sweep=(2, 3),
                                spacing=10.0)
    assert [r.to_dict() for r in implicit] == [r.to_dict() for r in explicit]
