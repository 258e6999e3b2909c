import numpy as np
import pytest
from scipy import stats as sps

from conftest import drawn_rows, spread_report
from textchar import simulation as sim
from textchar.errors import DegenerateInput
from textchar.metrics import metric_report


def _downsample_draws(monkeypatch, points, seed, dim=2):
    """The base blob and the row subsets that the downsample scenario hands
    to its one shared pass, in sweep order."""
    calls = []

    def record(base, subsets):
        calls.append((base, subsets))
        return []

    monkeypatch.setattr(sim, "metric_reports", record)
    sim.run_scenario("downsample", dim=dim, points=points, seed=seed)
    (base, subsets), = calls
    return base, subsets


def _blob(points, dim, seed):
    """The base blob of the generator contract: one row-major normal fill."""
    return np.random.default_rng(seed).normal(0.0, 1.0, size=(points, dim))


def test_blob_is_deterministic_per_seed(monkeypatch):
    def base(seed):
        return _downsample_draws(monkeypatch, 500, seed, dim=8)[0]

    assert np.array_equal(base(123), base(123))
    assert np.array_equal(base(123), _blob(500, 8, 123))
    assert not np.array_equal(base(123), base(124))


def test_blob_sample_statistics(monkeypatch):
    pts, _ = _downsample_draws(monkeypatch, 10_000, 42)
    assert np.abs(pts.std(axis=0) - 1.0).max() <= 0.03
    assert np.abs(pts.mean(axis=0)).max() <= 0.05


def test_blob_diversity_in_768_dims(monkeypatch):
    pts, _ = _downsample_draws(monkeypatch, 10_000, 42, dim=768)
    assert spread_report(pts).diversity == pytest.approx(1.0, rel=0.03)


# --- down-sampling ---------------------------------------------------------

def test_down_sample_exact_size(monkeypatch):
    _, subsets = _downsample_draws(monkeypatch, 10_000, seed=0)
    assert [len(rows) for rows in subsets] == list(range(10_000, 0, -1_000))


def test_down_sample_rounds_half_up(monkeypatch):
    # 0.5 x 5 = 2.5 and 0.3 x 5 = 1.5 round up; 0.9 x 7 = 6.3 rounds down.
    _, subsets = _downsample_draws(monkeypatch, 5, seed=0)
    assert [len(rows) for rows in subsets] == [5, 5, 4, 4, 3, 3, 2, 2, 1, 1]
    _, subsets = _downsample_draws(monkeypatch, 7, seed=0)
    assert [len(rows) for rows in subsets] == [7, 6, 6, 5, 4, 4, 3, 2, 1, 1]


def test_down_sample_full_fraction_is_identity(monkeypatch):
    base, subsets = _downsample_draws(monkeypatch, 50, seed=9)
    assert np.array_equal(subsets[0], np.arange(50))
    assert np.array_equal(base, _blob(50, 2, 9))


def test_down_sample_is_deterministic(monkeypatch):
    def draws(seed):
        return [rows.tolist() for rows in _downsample_draws(monkeypatch, 40, seed)[1]]

    assert draws(7) == draws(7)
    assert draws(7) != draws(8)


def test_down_sample_empty_result():
    with pytest.raises(DegenerateInput, match="^fraction 0.1 of 4 points rounds to 0$"):
        sim.run_scenario("downsample", dim=2, points=4, seed=0)


# --- sphere points -----------------------------------------------------------

def test_sphere_points_have_exact_radius():
    pts = sim._sphere_points(500, 2, radius=3.5, seed=11)
    norms = np.linalg.norm(pts, axis=1)
    assert np.abs(norms / 3.5 - 1.0).max() <= 1e-9


def test_sphere_points_angular_uniformity():
    # Chi-square over 16 angular bins; threshold is ppf(0.99, 15).
    pts = sim._sphere_points(1000, 2, radius=1.0, seed=13)
    angles = np.arctan2(pts[:, 1], pts[:, 0])
    counts, _ = np.histogram(angles, bins=16, range=(-np.pi, np.pi))
    chi2 = ((counts - 62.5) ** 2 / 62.5).sum()
    threshold = sps.chi2.ppf(0.99, 15)
    assert threshold == pytest.approx(30.57791416689249, rel=1e-12)
    assert chi2 < threshold


def test_sphere_points_mean_concentrates_in_high_dims():
    pts = sim._sphere_points(1000, 768, radius=10.0, seed=17)
    # mean norm ~ radius / sqrt(n) ~ 0.32, far below the loose cap
    assert np.linalg.norm(pts.mean(axis=0)) < 1.5


def test_sphere_points_determinism_and_validation():
    assert np.array_equal(sim._sphere_points(10, 3, 1.0, seed=5),
                          sim._sphere_points(10, 3, 1.0, seed=5))
    # The outliers scenario checks the width and radius of its shell first:
    # test_run_scenario_raises_before_the_pass and
    # test_run_scenario_draws_no_base_blob_it_does_not_read name each fault.


# --- outliers and sub-clusters ---------------------------------------------

def test_add_outliers_appends_shell_points(monkeypatch):
    # Each row is the base blob, then its count of shell points; row 0 adds none.
    clusters = []
    monkeypatch.setattr(sim, "metric_report", clusters.append)
    sim.run_scenario("outliers", dim=2, points=100, seed=19)
    base = _blob(100, 2, 19)
    assert len(clusters) == len(sim.SWEEPS["outliers"]) and sim.SWEEPS["outliers"][0] == 0
    for count, grown in zip(sim.SWEEPS["outliers"], clusters):
        assert grown.shape == (100 + count, 2)
        assert np.array_equal(grown[:100], base)
        norms = np.linalg.norm(grown[100:], axis=1)
        assert np.abs(norms - 10.0).max(initial=0.0) <= 1e-9


def test_sub_clusters_sizes_and_centers():
    pts = sim._sub_clusters(3, 10, dim=2, spacing=1e6, seed=23)
    assert pts.shape == (10, 2)
    # huge spacing makes assignment to the nearest center unambiguous
    assignment = np.round(pts[:, 0] / 1e6).astype(int)
    assert np.bincount(assignment, minlength=3).tolist() == [4, 3, 3]


def test_sub_clusters_equal_split():
    pts = sim._sub_clusters(10, 10_000, dim=2, spacing=1e6, seed=29)
    assignment = np.round(pts[:, 0] / 1e6).astype(int)
    assert np.bincount(assignment, minlength=10).tolist() == [1000] * 10


def test_sub_clusters_offsets_only_first_axis():
    pts = sim._sub_clusters(4, 4000, dim=3, spacing=50.0, seed=31)
    means = pts.mean(axis=0)
    assert means[0] == pytest.approx(75.0, abs=1.0)   # mean of 0,50,100,150
    assert np.abs(means[1:]).max() <= 0.2


def test_sub_clusters_single_is_plain_blob():
    pts = sim._sub_clusters(1, 200, dim=2, spacing=10.0, seed=37)
    assert pts.shape == (200, 2)
    assert np.abs(pts.mean(axis=0)).max() <= 0.3


def test_sub_clusters_validation():
    # The subclusters scenario checks its width, spacing and budget first.
    with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
        sim.run_scenario("subclusters", dim=0, points=4, spacing=1.0)
    for spacing in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValueError, match=f"^spacing must be finite, got {spacing}$"):
            sim.run_scenario("subclusters", dim=2, points=4, spacing=spacing)
    with pytest.raises(ValueError, match=r"^total \(4\) must be >= k \(5\)$"):
        sim.run_scenario("subclusters", dim=2, points=4)
    # A scale that the kind does not read is ignored.
    nan = float("nan")
    assert len(sim.run_scenario("subclusters", dim=2, points=10, outlier_radius=nan)) == 10
    assert len(sim.run_scenario("outliers", dim=2, points=10, spacing=nan)) == 11


# --- scenario runs -----------------------------------------------------------

def test_run_scenario_validation():
    # The kinds are the CLI's spellings; the library's old names are gone.
    for kind in ("nonsense", "down_sampling", "varying_spread", "sub_clusters"):
        with pytest.raises(ValueError, match=f"^unknown scenario kind {kind!r}$"):
            sim.run_scenario(kind, dim=2, points=10)


def test_default_sweeps():
    assert {kind: len(sweep) for kind, sweep in sim.SWEEPS.items()} == {
        "downsample": 10, "spread": 10, "outliers": 11, "subclusters": 10}
    for kind, sweep in sim.SWEEPS.items():
        assert len(sim.run_scenario(kind, dim=2, points=40)) == len(sweep)


def test_run_scenario_raises_before_the_pass(monkeypatch):
    # Every argument is checked, and every subset drawn, before the first
    # pass, so a bad one raises without paying for any.
    def never(*args, **kwargs):
        raise AssertionError("metric pass called")

    monkeypatch.setattr(sim, "metric_reports", never)
    monkeypatch.setattr(sim, "metric_report", never)
    with pytest.raises(DegenerateInput, match="rounds to 0"):
        sim.run_scenario("downsample", dim=2, points=3, seed=1)
    for radius in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(ValueError, match=f"^radius must be finite and > 0, got {radius}$"):
            sim.run_scenario("outliers", 768, outlier_radius=radius)
    with pytest.raises(ValueError, match="^spacing must be finite, got nan$"):
        sim.run_scenario("subclusters", dim=2, points=10, spacing=float("nan"))
    with pytest.raises(ValueError, match=r"^total \(5\) must be >= k \(6\)$"):
        sim.run_scenario("subclusters", dim=2, points=5)


def test_run_scenario_draws_no_base_blob_it_does_not_read(monkeypatch):
    # The base blob is the one draw from a generator seeded with the seed
    # itself; the rows of spread and subclusters draw from their own streams.
    seeds = []
    default_rng = np.random.default_rng

    def record(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", record)
    for kind in sim.SWEEPS:
        seeds.clear()
        assert len(sim.run_scenario(kind, dim=2, points=30, seed=4)) == len(sim.SWEEPS[kind])
        plain = [seed for seed in seeds if not isinstance(seed, np.random.SeedSequence)]
        assert plain == ([4] if kind in ("downsample", "outliers") else []), kind
    # Every kind checks the sizes before it draws anything.
    seeds.clear()
    for kind in sim.SWEEPS:
        with pytest.raises(ValueError, match="^count must be >= 1, got 0$"):
            sim.run_scenario(kind, dim=2, points=0)
        with pytest.raises(ValueError, match="^dim must be >= 1, got 0$"):
            sim.run_scenario(kind, dim=0, points=10)
    assert seeds == []


def test_down_sampling_rows_reuse_base_blob(monkeypatch):
    # The generator contract, rebuilt with numpy alone: one row-major normal
    # fill seeded with the seed, and row i drawn from SeedSequence([seed, i]).
    base, subsets = _downsample_draws(monkeypatch, 120, seed=5)
    assert np.array_equal(base, np.random.default_rng(5).normal(0.0, 1.0, size=(120, 2)))
    sweep = sim.SWEEPS["downsample"]
    assert len(subsets) == len(sweep)
    for index, (fraction, rows) in enumerate(zip(sweep, subsets)):
        want = drawn_rows(120, fraction, np.random.SeedSequence([5, index]))
        assert np.array_equal(rows, want)


def test_down_sampling_rows_match_per_row_reports():
    # The shared pass must reproduce metric_report on each row's subset.
    reports = sim.run_scenario("downsample", dim=5, points=400, seed=13)
    base = np.random.default_rng(13).normal(0.0, 1.0, size=(400, 5))
    sweep = sim.SWEEPS["downsample"]
    assert len(reports) == len(sweep)
    for index, (value, report) in enumerate(zip(sweep, reports)):
        rows = drawn_rows(400, value, np.random.SeedSequence([13, index]))
        alone = metric_report(base[rows])
        assert report.diversity == alone.diversity
        assert report.density == alone.density
        assert report.density_log == alone.density_log
        assert report.degenerate_axes == alone.degenerate_axes
        assert abs(report.homogeneity - alone.homogeneity) <= 1e-12


def test_spread_rows_use_per_row_streams():
    reports = sim.run_scenario("spread", dim=2, points=150, seed=9)
    assert sim.SWEEPS["spread"][3] == 4.0
    rng = np.random.default_rng(np.random.SeedSequence([9, 3]))
    manual = rng.normal(0.0, 4.0, size=(150, 2))
    assert reports[3].diversity == metric_report(manual).diversity


def test_outlier_radius_defaults_to_ten_sigma():
    implicit = sim.run_scenario("outliers", dim=2, points=50, seed=13)
    explicit = sim.run_scenario("outliers", dim=2, points=50, seed=13, outlier_radius=10.0)
    assert [r.to_dict() for r in implicit] == [r.to_dict() for r in explicit]
    # and the defaulted cluster is reproducible by hand
    base = _blob(50, 2, 13)
    shell = sim._sphere_points(50, 2, 10.0, np.random.SeedSequence([13, 1]))
    assert implicit[1].to_dict() == metric_report(np.vstack([base, shell])).to_dict()


def test_sub_cluster_spacing_defaults_to_ten_sigma():
    implicit = sim.run_scenario("subclusters", dim=2, points=60, seed=17)
    explicit = sim.run_scenario("subclusters", dim=2, points=60, seed=17, spacing=10.0)
    assert [r.to_dict() for r in implicit] == [r.to_dict() for r in explicit]
