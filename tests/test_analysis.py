import dataclasses
import math

import numpy as np
import pytest

from conftest import SNIPS_REFERENCE, SST2_REFERENCE, assert_same_report
from textchar import analysis, io
from textchar.errors import DegenerateInput, EmptyClass, InconsistentClassSize
from textchar.metrics import MetricReport, metric_report

SST2_ROWS = SST2_REFERENCE
SNIPS_ROWS = SNIPS_REFERENCE


def fake_report(diversity=0.5, density=10.0, homogeneity=0.9):
    return MetricReport(
        diversity=diversity, density=density,
        density_log=math.log(density), homogeneity=homogeneity,
        degenerate_axes=0)


def two_class_embeddings(rng, n_per_class=20, dim=3, layers=("L1",)):
    keys = [(f"{label}{i}", label, layer) for label in ("pos", "neg")
            for i in range(n_per_class) for layer in layers]
    ids, labels, layer_tags = (list(column) for column in zip(*keys))
    return io.LabeledEmbeddings(rng.normal(size=(len(keys), dim)),
                                ids, labels, layer_tags)


# --- aggregation arithmetic ---------------------------------------------

def test_aggregate_metrics_from_dict_inverts_to_dict():
    for agg in (analysis.AggregateMetrics(0.25, 3.5, math.log(3.5), 0.875, ("L2",)),
                analysis.AggregateMetrics(0.25, 3.5, math.log(3.5), None)):
        assert analysis.AggregateMetrics.from_dict(agg.to_dict()) == agg
    bare = analysis.AggregateMetrics.from_dict({"diversity": 1, "density": 2})
    assert math.isnan(bare.density_log) and bare.homogeneity is None
    for bad, error in (({"density": 2.0}, KeyError), ({"diversity": [1], "density": 2.0}, TypeError),
                       ({"diversity": "x", "density": 2.0}, ValueError)):
        with pytest.raises(error):
            analysis.AggregateMetrics.from_dict(bad)


def test_average_reports_plain_mean():
    agg = analysis.average_reports([
        ("L1", fake_report(homogeneity=0.90)),
        ("L2", fake_report(homogeneity=0.92)),
        ("L3", fake_report(homogeneity=0.94)),
    ])
    assert agg.homogeneity == pytest.approx(0.92, abs=1e-15)


def test_average_reports_skips_missing_homogeneity():
    agg = analysis.average_reports([
        ("L1", fake_report(homogeneity=0.8)),
        ("L2", MetricReport(diversity=0.5, density=10.0, density_log=math.log(10),
                            homogeneity=None, degenerate_axes=0,
                            homogeneity_skipped_reason="fewer than 3 samples (m=2)")),
    ])
    assert agg.homogeneity == pytest.approx(0.8, abs=1e-15)
    assert agg.homogeneity_skipped == ("L2",)


def test_weighted_average_by_class_size():
    final = analysis.average_reports(
        [("a", analysis.AggregateMetrics(0.2, 5.0, math.log(5.0), 0.9)),
         ("b", analysis.AggregateMetrics(0.4, 15.0, math.log(15.0), 0.7))],
        [75 / 100, 25 / 100],
    )
    assert final.diversity == pytest.approx(0.25, abs=1e-15)
    assert final.density == pytest.approx(7.5, abs=1e-14)
    assert final.homogeneity == pytest.approx(0.85, abs=1e-15)
    # the log column always tracks the averaged linear value
    assert final.density_log == pytest.approx(math.log(7.5), abs=1e-15)


# --- profile_dataset ----------------------------------------------------

def test_profile_single_group_is_identity():
    cluster = np.random.default_rng(0).normal(size=(30, 4))
    profile = analysis.profile_dataset({("only", "L1"): cluster})
    report = metric_report(cluster)
    assert profile.final.diversity == report.diversity
    assert profile.final.density == pytest.approx(report.density, rel=1e-15)
    assert profile.final.homogeneity == report.homogeneity
    assert profile.class_sizes == {"only": 30}


def test_profile_layers_average_then_classes_weight():
    rng = np.random.default_rng(1)
    groups = {
        ("a", "L1"): rng.normal(size=(30, 3)),
        ("a", "L2"): rng.normal(size=(30, 3)),
        ("b", "L1"): rng.normal(size=(10, 3)),
        ("b", "L2"): rng.normal(size=(10, 3)),
    }
    profile = analysis.profile_dataset(groups)
    per_class_div = {
        label: np.mean([metric_report(groups[(label, layer)]).diversity
                        for layer in ("L1", "L2")])
        for label in ("a", "b")
    }
    assert profile.per_class["a"].diversity == pytest.approx(per_class_div["a"],
                                                             rel=1e-15)
    expected_final = 0.75 * per_class_div["a"] + 0.25 * per_class_div["b"]
    assert profile.final.diversity == pytest.approx(expected_final, rel=1e-14)


def test_profile_final_is_convex_combination():
    rng = np.random.default_rng(2)
    groups = {("a", "L1"): rng.normal(size=(25, 4)),
              ("b", "L1"): rng.normal(scale=3.0, size=(75, 4))}
    profile = analysis.profile_dataset(groups)
    for metric in ("diversity", "density", "homogeneity"):
        values = [getattr(agg, metric) for agg in profile.per_class.values()]
        final = getattr(profile.final, metric)
        assert min(values) - 1e-12 <= final <= max(values) + 1e-12


def test_profile_rejects_inconsistent_class_sizes():
    rng = np.random.default_rng(3)
    groups = {("a", "L1"): rng.normal(size=(10, 2)),
              ("a", "L2"): rng.normal(size=(11, 2))}
    with pytest.raises(InconsistentClassSize, match="'a'"):
        analysis.profile_dataset(groups)


def test_profile_records_homogeneity_skips():
    rng = np.random.default_rng(4)
    groups = {("tiny", "L1"): rng.normal(size=(2, 3)),
              ("big", "L1"): rng.normal(size=(20, 3))}
    profile = analysis.profile_dataset(groups)
    assert profile.per_class["tiny"].homogeneity is None
    assert profile.per_class["tiny"].homogeneity_skipped == ("L1",)
    assert profile.final.homogeneity == profile.per_class["big"].homogeneity
    assert profile.final.homogeneity_skipped == ("tiny",)


def test_profile_homogeneity_cap_subsamples(monkeypatch):
    rng = np.random.default_rng(5)
    cluster = rng.normal(size=(400, 3))
    profile = analysis.profile_dataset({("a", "L1"): cluster},
                                       homogeneity_cap=50)
    report = profile.per_group[("a", "L1")]
    # diversity/density still come from all 400 points
    assert report.diversity == metric_report(cluster).diversity
    assert any("50 of 400" in note for note in report.notes)
    assert profile.homogeneity_cap == 50
    # capped homogeneity is deterministic per seed
    again = analysis.profile_dataset({("a", "L1"): cluster}, homogeneity_cap=50)
    assert again.per_group[("a", "L1")].homogeneity == report.homogeneity


def test_profile_requires_groups():
    with pytest.raises(ValueError):
        analysis.profile_dataset({})


# --- downsample_sweep -----------------------------------------------------

def test_sweep_full_fraction_matches_direct_profile():
    emb = two_class_embeddings(np.random.default_rng(6))
    sweep = analysis.downsample_sweep(emb, [1.0], seed=3)
    direct = analysis.profile_dataset(io.group_by_label(emb), seed=3)
    assert sweep.rows[0].final.to_dict() == direct.final.to_dict()
    assert sweep.rows[0].size == 40


def test_sweep_sizes_track_fractions():
    emb = two_class_embeddings(np.random.default_rng(7), n_per_class=50)
    sweep = analysis.downsample_sweep(emb, [1.0, 0.5, 0.1], seed=0)
    assert [row.size for row in sweep.rows] == [100, 50, 10]
    assert [row.fraction for row in sweep.rows] == [1.0, 0.5, 0.1]


def test_sweep_preserves_class_proportions():
    emb = two_class_embeddings(np.random.default_rng(8), n_per_class=40)
    sweep = analysis.downsample_sweep(emb, [0.9, 0.5, 0.2], seed=1)
    for row in sweep.rows:
        sizes = row.profile.class_sizes
        expected = int(math.floor(row.fraction * 40 + 0.5))
        assert abs(sizes["pos"] - expected) <= 1
        assert abs(sizes["neg"] - expected) <= 1


def test_sweep_keeps_layers_aligned():
    # Sampling by id keeps every layer of a kept text, so class sizes stay
    # consistent across layers and profiling cannot fail.
    emb = two_class_embeddings(np.random.default_rng(9), n_per_class=30,
                               layers=("L1", "L2", "L3"))
    sweep = analysis.downsample_sweep(emb, [0.5], seed=2)
    profile = sweep.rows[0].profile
    assert len(profile.per_group) == 6
    assert profile.class_sizes == {"pos": 15, "neg": 15}


def test_sweep_is_deterministic_per_seed():
    emb = two_class_embeddings(np.random.default_rng(10))
    a = analysis.downsample_sweep(emb, [0.5], seed=5)
    b = analysis.downsample_sweep(emb, [0.5], seed=5)
    c = analysis.downsample_sweep(emb, [0.5], seed=6)
    assert a.rows[0].final.to_dict() == b.rows[0].final.to_dict()
    assert a.rows[0].final.to_dict() != c.rows[0].final.to_dict()


def test_sweep_global_mode_skips_stratification():
    emb = two_class_embeddings(np.random.default_rng(11), n_per_class=30)
    stratified = analysis.downsample_sweep(emb, [0.5], seed=7)
    pooled = analysis.downsample_sweep(emb, [0.5], seed=7, stratified=False)
    assert stratified.rows[0].profile.class_sizes == {"pos": 15, "neg": 15}
    sizes = pooled.rows[0].profile.class_sizes
    assert sum(sizes.values()) == 30  # total is exact, split may wobble


def test_sweep_raises_when_class_empties():
    emb = two_class_embeddings(np.random.default_rng(12), n_per_class=2)
    with pytest.raises(EmptyClass):
        analysis.downsample_sweep(emb, [0.1], seed=0)
    # The global mode draws 3 of 31 pooled units and misses the lone "b".
    ids = [f"a{i}" for i in range(30)] + ["b0"]
    lone = io.LabeledEmbeddings(np.random.default_rng(12).normal(size=(31, 2)), ids,
                                ["a"] * 30 + ["b"], ["L1"] * 31)
    with pytest.raises(EmptyClass, match="class 'b' has no members left at fraction 0.1"):
        analysis.downsample_sweep(lone, [0.1], seed=0, stratified=False)


def _reference_sweep(emb, fractions, seed, stratified, cap):
    # One profile per fraction, drawn with the documented RNG calls: units
    # from SeedSequence([seed, i]) class by class (or pooled), then each
    # group, in order of its first kept row, reported by metric_report on
    # its rows, with homogeneity from a draw of cap rows seeded by the
    # group's position when the group is larger than cap.
    units = {}
    for label, rec_id in zip(emb.labels, emb.ids):
        units.setdefault(label, {})[rec_id] = None
    expected = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        if fraction == 1.0:
            chosen = {label: set(ids) for label, ids in units.items()}
        elif stratified:
            chosen = {}
            for label, ids in units.items():
                ids = list(ids)
                keep = int(math.floor(fraction * len(ids) + 0.5))
                chosen[label] = {ids[i] for i in np.sort(rng.choice(len(ids), keep, replace=False))}
        else:
            pool = [(label, rec_id) for label, ids in units.items() for rec_id in ids]
            keep = int(math.floor(fraction * len(pool) + 0.5))
            chosen = {label: set() for label in units}
            for i in np.sort(rng.choice(len(pool), keep, replace=False)):
                chosen[pool[i][0]].add(pool[i][1])
        groups = {}
        for row, (label, rec_id, layer) in enumerate(zip(emb.labels, emb.ids, emb.layers)):
            if rec_id in chosen[label]:
                groups.setdefault((label, layer), []).append(row)
        reports = {}
        for g, (key, rows) in enumerate(groups.items()):
            cluster = emb.vectors[rows]
            report = metric_report(cluster)
            if cap is not None and len(rows) > cap:
                draw = np.random.default_rng(np.random.SeedSequence([seed, g]))
                capped = metric_report(cluster[np.sort(draw.choice(len(rows), cap, replace=False))])
                report = dataclasses.replace(
                    report, homogeneity=capped.homogeneity,
                    homogeneity_skipped_reason=capped.homogeneity_skipped_reason,
                    notes=capped.notes + (f"homogeneity computed on {cap} of {len(rows)} points",))
            reports[key] = report
        expected.append((sum(map(len, chosen.values())), reports))
    return expected


@pytest.mark.parametrize("stratified", [True, False])
@pytest.mark.parametrize("cap", [None, 7])
def test_sweep_matches_per_fraction_reports(stratified, cap):
    # Three classes of 20, 13 and 9 texts at two layers, records shuffled so
    # that the order of the groups changes between fractions, plus a row
    # that repeats another of its group.
    rng = np.random.default_rng(29)
    keys = [(f"{label}{i}", label, layer) for label, n in (("a", 20), ("b", 13), ("c", 9))
            for i in range(n) for layer in ("L1", "L2")]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    ids, labels, layers = (list(column) for column in zip(*keys))
    vectors = rng.normal(size=(len(keys), 4)) + 50.0
    same = [i for i, key in enumerate(keys) if key[1:] == ("a", "L1")]
    vectors[same[1]] = vectors[same[0]]
    emb = io.LabeledEmbeddings(vectors, ids, labels, layers)
    fractions = [1.0, 0.6, 0.3]

    sweep = analysis.downsample_sweep(emb, fractions, seed=4, stratified=stratified,
                                      homogeneity_cap=cap)
    expected = _reference_sweep(emb, fractions, 4, stratified, cap)
    orders = [list(row.profile.per_group) for row in sweep.rows]
    assert any(order != orders[0] for order in orders)
    for row, (size, reports) in zip(sweep.rows, expected):
        assert row.size == size
        assert list(row.profile.per_group) == list(reports)
        for key, want in reports.items():
            assert_same_report(row.profile.per_group[key], want)
    capped = [bool(want.notes) for _, reports in expected for want in reports.values()]
    assert any(capped) == (cap is not None) and not all(capped)


@pytest.mark.parametrize("fractions", [[], [0.5, 0.5], [0.5, 0.9], [1.2], [0.0]])
def test_sweep_validates_fractions(fractions):
    emb = two_class_embeddings(np.random.default_rng(13))
    with pytest.raises(ValueError):
        analysis.downsample_sweep(emb, fractions, seed=0)


# --- pearson ------------------------------------------------------------

def test_pearson_perfect_lines():
    assert analysis.pearson([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-15)
    assert analysis.pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-15)


def test_pearson_is_symmetric():
    x = [0.1, 0.5, 0.9, 0.2]
    y = [1.0, -2.0, 0.5, 4.0]
    assert analysis.pearson(x, y) == analysis.pearson(y, x)


def test_pearson_affine_invariance():
    rng = np.random.default_rng(14)
    x, y = rng.normal(size=20), rng.normal(size=20)
    base = analysis.pearson(x, y)
    assert analysis.pearson(3.5 * x + 11.0, y) == pytest.approx(base, abs=1e-12)
    assert analysis.pearson(x, 0.25 * y - 3.0) == pytest.approx(base, abs=1e-12)


def test_pearson_published_snips_homogeneity_vs_sl():
    hom = [row[6] for row in SNIPS_ROWS]
    sl = [row[3] for row in SNIPS_ROWS]
    r = analysis.pearson(hom, sl)
    assert r == pytest.approx(0.98677315987579484, abs=1e-12)  # recomputed
    assert r == pytest.approx(0.983, abs=0.02)  # published value


def test_pearson_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        analysis.pearson([1.0], [2.0])
    with pytest.raises(DegenerateInput):
        analysis.pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        analysis.pearson([1.0, 2.0], [1.0, 2.0, 3.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DegenerateInput, match="non-finite"):
            analysis.pearson([1.0, bad, 3.0], [1.0, 2.0, 3.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("exponent", [1020, 600, -600, -1000])
def test_pearson_ignores_power_of_two_scale(exponent):
    # Near 1e308 the plain sums overflow; near 1e-300 the squares underflow.
    # Power-of-two scaling is exact, so r must keep its bits.
    rng = np.random.default_rng(97)
    x, y = rng.uniform(0.5, 1.0, size=8), rng.normal(size=8)
    base = analysis.pearson(x, y)
    assert analysis.pearson(np.ldexp(x, exponent), y) == base
    assert analysis.pearson(x, np.ldexp(y, exponent)) == base


def test_pearson_is_clamped():
    # near-perfect correlation must never leave [-1, 1]
    x = np.linspace(0.0, 1.0, 50)
    assert abs(analysis.pearson(x, 2.0 * x)) <= 1.0


# --- correlation_report ---------------------------------------------------

def sweep_from_rows(metric_rows):
    rows = []
    for fraction, div, den, hom, scores in metric_rows:
        rows.append(analysis.SweepRow(
            fraction=fraction, size=0,
            final=analysis.AggregateMetrics(div, den, math.log(den), hom),
            scores=scores))
    return analysis.SweepTable(rows=rows)


def test_correlation_report_cross_product():
    table = sweep_from_rows([
        (1.0, 0.3, 10.0, 0.9, {"acc": 0.95, "f1": 0.91}),
        (0.5, 0.2, 5.0, 0.8, {"acc": 0.90, "f1": 0.88}),
        (0.1, 0.1, 1.0, 0.7, {"acc": 0.85, "f1": 0.80}),
    ])
    report = analysis.correlation_report(table, ["acc", "f1"])
    assert len(report.entries) == 6
    assert {(e.metric, e.score) for e in report.entries} == {
        (m, s) for m in ("diversity", "density", "homogeneity")
        for s in ("acc", "f1")}
    assert all(e.error is None and -1.0 <= e.r <= 1.0 for e in report.entries)


def test_correlation_report_flags_degenerate_entries():
    table = sweep_from_rows([
        (1.0, 0.3, 10.0, 0.9, {"acc": 0.95}),
        (0.5, 0.3, 5.0, 0.8, {"acc": 0.90}),  # diversity column constant
    ])
    report = analysis.correlation_report(table, ["acc"])
    by_metric = {e.metric: e for e in report.entries}
    assert by_metric["diversity"].r is None
    assert "degenerate" in by_metric["diversity"].error
    assert by_metric["density"].r == pytest.approx(1.0)
    assert by_metric["homogeneity"].error is None


def test_correlation_report_handles_missing_homogeneity():
    table = sweep_from_rows([
        (1.0, 0.3, 10.0, None, {"acc": 0.95}),
        (0.5, 0.2, 5.0, 0.8, {"acc": 0.90}),
    ])
    report = analysis.correlation_report(table, ["acc"])
    hom = next(e for e in report.entries if e.metric == "homogeneity")
    assert hom.r is None and "missing" in hom.error


def test_correlation_report_requires_all_scores():
    table = sweep_from_rows([
        (1.0, 0.3, 10.0, 0.9, {"acc": 0.95}),
        (0.5, 0.2, 5.0, 0.8, None),
    ])
    with pytest.raises(DegenerateInput, match="0.5"):
        analysis.correlation_report(table, ["acc"])
