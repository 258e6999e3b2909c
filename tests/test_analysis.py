import dataclasses
import gc
import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SNIPS_REFERENCE, SST2_REFERENCE, assert_same_report
from textchar import analysis, io, metrics
from textchar.errors import DegenerateInput, InconsistentClassSize
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


def test_average_reports_needs_a_report():
    with pytest.raises(ValueError, match="^nothing to average$"):
        analysis.average_reports([])


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


# --- the profile: the one-fraction sweep --------------------------------

def profile_of(groups, seed=0, cap=None):
    """The profile of a collection that holds ``groups``, a dict of
    (label, layer) clusters, in order. Row ``i`` of each group has id
    ``f"{label}-{i}"``, so the layers of a class share units."""
    keys = [(f"{label}-{i}", label, layer) for (label, layer), cluster in groups.items()
            for i in range(len(cluster))]
    ids, labels, layers = (list(column) for column in zip(*keys)) if keys else ([], [], [])
    vectors = np.concatenate(list(groups.values())) if groups else np.empty((0, 0))
    emb = io.LabeledEmbeddings(vectors, ids, labels, layers)
    return analysis.downsample_sweep(emb, [1.0], seed, cap)[0]


def test_profile_single_group_is_identity():
    cluster = np.random.default_rng(0).normal(size=(30, 4))
    profile = profile_of({("only", "L1"): cluster})
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
    profile = profile_of(groups)
    per_class_div = {
        label: np.mean([metric_report(groups[(label, layer)]).diversity
                        for layer in ("L1", "L2")])
        for label in ("a", "b")
    }
    assert profile.per_class["a"].diversity == pytest.approx(per_class_div["a"],
                                                             rel=1e-15)
    expected_final = 0.75 * per_class_div["a"] + 0.25 * per_class_div["b"]
    assert profile.final.diversity == pytest.approx(expected_final, rel=1e-14)


def test_profile_rejects_inconsistent_class_sizes():
    rng = np.random.default_rng(3)
    groups = {("a", "L1"): rng.normal(size=(10, 2)),
              ("a", "L2"): rng.normal(size=(11, 2))}
    with pytest.raises(InconsistentClassSize, match="'a'"):
        profile_of(groups)


def test_profile_records_homogeneity_skips():
    rng = np.random.default_rng(4)
    groups = {("tiny", "L1"): rng.normal(size=(2, 3)),
              ("big", "L1"): rng.normal(size=(20, 3))}
    profile = profile_of(groups)
    assert profile.per_class["tiny"].homogeneity is None
    assert profile.per_class["tiny"].homogeneity_skipped == ("L1",)
    assert profile.final.homogeneity == profile.per_class["big"].homogeneity
    assert profile.final.homogeneity_skipped == ("tiny",)


def test_profile_homogeneity_cap_subsamples(monkeypatch):
    rng = np.random.default_rng(5)
    cluster = rng.normal(size=(400, 3))
    profile = profile_of({("a", "L1"): cluster}, cap=50)
    report = profile.per_group[("a", "L1")]
    # diversity/density still come from all 400 points
    assert report.diversity == metric_report(cluster).diversity
    assert any("50 of 400" in note for note in report.notes)
    assert profile.homogeneity_cap == 50
    # capped homogeneity is deterministic per seed
    again = profile_of({("a", "L1"): cluster}, cap=50)
    assert again.per_group[("a", "L1")].homogeneity == report.homogeneity


def test_profile_requires_groups():
    with pytest.raises(ValueError, match="^no groups to profile$"):
        profile_of({})


def test_profile_aggregation_grows_linearly_in_the_class_count():
    # Eight times the one-group classes must cost about eight times as much,
    # not 64 (a scan of every group per class). A ratio rather than a time,
    # best of three runs with the garbage collector off, so that neither
    # the speed of the machine nor a collection decides it.
    def seconds(n):
        per_group = {(f"c{i}", "L1"): fake_report() for i in range(n)}
        class_sizes = {f"c{i}": 1 for i in range(n)}
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            analysis._profile(1.0, n, per_group, class_sizes, None)
            best = min(best, time.perf_counter() - start)
        return best

    gc.disable()
    try:
        assert seconds(16000) < 24 * seconds(2000)
    finally:
        gc.enable()


# --- downsample_sweep -----------------------------------------------------

@given(sizes=st.lists(st.integers(1, 12), min_size=1, max_size=3),
       layers=st.integers(1, 2), cap=st.sampled_from([None, 3, 7]),
       seed=st.integers(0, 2 ** 32 - 1))
@settings(max_examples=100, deadline=None)
def test_sweep_full_fraction_matches_direct_profile(sizes, layers, cap, seed):
    # Fraction 1.0 of a sweep is the profile of the whole collection: every
    # group in order of its first row, reported on all its rows, with the
    # documented cap draws.
    rng = np.random.default_rng(seed)
    keys = [(f"t{c}-{i}", f"class{c}", f"L{layer}") for c, n in enumerate(sizes)
            for i in range(n) for layer in range(layers)]
    keys = [keys[i] for i in rng.permutation(len(keys))]
    ids, labels, layer_tags = (list(column) for column in zip(*keys))
    emb = io.LabeledEmbeddings(rng.normal(size=(len(keys), 3)), ids, labels, layer_tags)
    sweep = analysis.downsample_sweep(emb, [1.0], seed=seed, homogeneity_cap=cap)
    [(size, reports)] = _reference_sweep(emb, [1.0], seed, cap)
    profile = sweep[0]
    assert list(profile.per_group) == list(reports)
    for key, want in reports.items():
        assert_same_report(profile.per_group[key], want)
    assert profile.class_sizes == {f"class{c}": n for c, n in enumerate(sizes)}
    assert profile.size == size == sum(sizes)


def test_sweep_preserves_class_proportions():
    emb = two_class_embeddings(np.random.default_rng(8), n_per_class=40)
    sweep = analysis.downsample_sweep(emb, [0.9, 0.5, 0.2], seed=1)
    for row in sweep:
        sizes = row.class_sizes
        expected = int(math.floor(row.fraction * 40 + 0.5))
        assert abs(sizes["pos"] - expected) <= 1
        assert abs(sizes["neg"] - expected) <= 1


def test_sweep_keeps_layers_aligned():
    # Sampling by id keeps every layer of a kept text, so class sizes stay
    # consistent across layers and profiling cannot fail.
    emb = two_class_embeddings(np.random.default_rng(9), n_per_class=30,
                               layers=("L1", "L2", "L3"))
    profile = analysis.downsample_sweep(emb, [0.5], seed=2)[0]
    assert len(profile.per_group) == 6
    assert profile.class_sizes == {"pos": 15, "neg": 15}


def test_sweep_is_deterministic_per_seed():
    emb = two_class_embeddings(np.random.default_rng(10))
    a = analysis.downsample_sweep(emb, [0.5], seed=5)
    b = analysis.downsample_sweep(emb, [0.5], seed=5)
    c = analysis.downsample_sweep(emb, [0.5], seed=6)
    assert a[0].final.to_dict() == b[0].final.to_dict()
    assert a[0].final.to_dict() != c[0].final.to_dict()


def test_sweep_size_counts_units_not_class_rows():
    # Unit u1 of class a is only in layer A and u2 only in layer B, so the
    # sweep keeps 4 units while each layer of class a holds 3 rows.
    keys = [("u0", "a", "A"), ("u1", "a", "A"), ("u3", "a", "A"),
            ("u0", "a", "B"), ("u2", "a", "B"), ("u3", "a", "B")]
    ids, labels, layers = (list(column) for column in zip(*keys))
    emb = io.LabeledEmbeddings(np.random.default_rng(3).normal(size=(6, 2)),
                               ids, labels, layers)
    [profile] = analysis.downsample_sweep(emb, [1.0])
    assert profile.size == 4
    assert profile.class_sizes == {"a": 3}


def test_sweep_raises_when_class_empties():
    emb = two_class_embeddings(np.random.default_rng(12), n_per_class=2)
    with pytest.raises(DegenerateInput, match="^class 'pos' has no members left at fraction 0.1$"):
        analysis.downsample_sweep(emb, [0.1], seed=0)


@pytest.mark.parametrize("cap", [None, 3])
def test_sweep_checks_no_subset_it_planned(monkeypatch, cap):
    # The sweep builds its own sorted row subsets, so the public subset
    # check of metric_reports never runs for it.
    def refuse(subset, m):
        raise AssertionError("the sweep re-validated a planned subset")

    emb = two_class_embeddings(np.random.default_rng(15), n_per_class=12,
                               layers=("L1", "L2"))
    expected = [row.to_dict() for row in analysis.downsample_sweep(
        emb, [1.0, 0.5, 0.25], seed=3, homogeneity_cap=cap)]
    monkeypatch.setattr(metrics, "_row_subset", refuse)
    got = analysis.downsample_sweep(emb, [1.0, 0.5, 0.25], seed=3, homogeneity_cap=cap)
    assert [row.to_dict() for row in got] == expected


def test_sweep_rejects_non_finite_vectors():
    # A collection built in memory skips the readers' checks; the sweep's one
    # check of each group's copy still refuses a NaN.
    emb = two_class_embeddings(np.random.default_rng(16), n_per_class=5)
    emb.vectors[7, 1] = np.nan
    with pytest.raises(ValueError, match="^cluster contains non-finite values$"):
        analysis.downsample_sweep(emb, [1.0, 0.5], seed=0)


def _reference_sweep(emb, fractions, seed, cap):
    # One profile per fraction, drawn with the documented RNG calls: units
    # from SeedSequence([seed, i]) class by class, then each
    # group, in order of its first kept row, reported by metric_report on
    # its rows, with homogeneity from a draw of cap rows seeded by the
    # group's position when the group is larger than cap.
    units = {}
    for label, rec_id in zip(emb.labels, emb.ids):
        units.setdefault(label, {})[rec_id] = None
    expected = []
    for index, fraction in enumerate(fractions):
        rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
        chosen = {}
        for label, ids in units.items():
            ids = list(ids)
            keep = int(math.floor(fraction * len(ids) + 0.5))
            chosen[label] = {ids[i] for i in np.sort(rng.choice(len(ids), keep, replace=False))}
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


@pytest.mark.parametrize("cap", [None, 7])
def test_sweep_matches_per_fraction_reports(cap):
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

    sweep = analysis.downsample_sweep(emb, fractions, seed=4, homogeneity_cap=cap)
    expected = _reference_sweep(emb, fractions, 4, cap)
    orders = [list(row.per_group) for row in sweep]
    assert any(order != orders[0] for order in orders)
    for row, (size, reports) in zip(sweep, expected):
        assert row.size == size
        assert list(row.per_group) == list(reports)
        assert list(row.class_sizes) == list(dict.fromkeys(label for label, _ in reports))
        for key, want in reports.items():
            assert_same_report(row.per_group[key], want)
    capped = [bool(want.notes) for _, reports in expected for want in reports.values()]
    assert any(capped) == (cap is not None) and not all(capped)


@pytest.mark.parametrize("fractions", [[], [0.5, 0.5], [0.5, 0.9], [1.2], [0.0], [-0.5]])
def test_sweep_validates_fractions(fractions):
    emb = two_class_embeddings(np.random.default_rng(13))
    with pytest.raises(ValueError, match="^fractions must "):
        analysis.downsample_sweep(emb, fractions, seed=0)


@pytest.mark.parametrize("cap", [0, -1, 1, 2, 2.5, 3.0, True, "3"])
def test_sweep_validates_homogeneity_cap(cap):
    emb = two_class_embeddings(np.random.default_rng(13))
    with pytest.raises(ValueError, match="homogeneity_cap"):
        analysis.downsample_sweep(emb, [1.0], seed=0, homogeneity_cap=cap)


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

def sweep_and_scores(metric_rows):
    """The finals and score columns of rows ``(div, den, hom, scores)``."""
    finals, scores = [], {}
    for div, den, hom, row_scores in metric_rows:
        finals.append(analysis.AggregateMetrics(div, den, math.log(den), hom))
        for name, value in row_scores.items():
            scores.setdefault(name, []).append(value)
    return finals, scores


def test_correlation_report_cross_product():
    finals, scores = sweep_and_scores([
        (0.3, 10.0, 0.9, {"acc": 0.95, "f1": 0.91}),
        (0.2, 5.0, 0.8, {"acc": 0.90, "f1": 0.88}),
        (0.1, 1.0, 0.7, {"acc": 0.85, "f1": 0.80}),
    ])
    entries = analysis.correlation_report(finals, scores)
    assert [(e.metric, e.score) for e in entries] == [
        (m, s) for m in ("diversity", "density", "homogeneity")
        for s in ("acc", "f1")]
    assert all(e.error is None and -1.0 <= e.r <= 1.0 for e in entries)


def test_correlation_report_flags_degenerate_entries():
    finals, scores = sweep_and_scores([
        (0.3, 10.0, 0.9, {"acc": 0.95}),
        (0.3, 5.0, 0.8, {"acc": 0.90}),  # diversity column constant
    ])
    entries = analysis.correlation_report(finals, scores)
    by_metric = {e.metric: e for e in entries}
    assert by_metric["diversity"].r is None
    assert "degenerate" in by_metric["diversity"].error
    assert by_metric["density"].r == pytest.approx(1.0)
    assert by_metric["homogeneity"].error is None


def test_correlation_report_handles_missing_homogeneity():
    finals, scores = sweep_and_scores([
        (0.3, 10.0, None, {"acc": 0.95}),
        (0.2, 5.0, 0.8, {"acc": 0.90}),
    ])
    entries = analysis.correlation_report(finals, scores)
    hom = next(e for e in entries if e.metric == "homogeneity")
    assert hom.r is None and "missing" in hom.error


def test_correlation_report_needs_one_score_per_row():
    # io.read_scores joins scores to the sweep; a column of another length
    # than the sweep's is a caller's fault.
    finals, scores = sweep_and_scores([
        (0.3, 10.0, 0.9, {"acc": 0.95}),
        (0.2, 5.0, 0.8, {"acc": 0.90}),
    ])
    scores["f1"] = [0.9, 0.8, 0.7]
    with pytest.raises(ValueError, match=r"^score 'f1' has 3 values for 2 sweep rows$"):
        analysis.correlation_report(finals, scores)
