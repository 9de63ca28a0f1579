import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sstats

from gaitview.errors import GaitViewError
from gaitview.features import FEATURE_SIDES, FeatureName
from gaitview.report import ALL_METRICS, DEFAULT_ALPHA, _read_stats, recommend, write_reports
from gaitview.signal_core import SideLabel
from gaitview.stats import (
    EXACT_N_MAX,
    StatResult,
    _approx_p,
    _exact_p,
    _midranks,
    cliffs_delta,
    compare_views,
    effect_label,
    wilcoxon_signed_rank,
)

from oracles import wilcoxon_enumerate, wilcoxon_two_tail_p


class TestWilcoxonExamples:
    def test_all_positive_n5(self):
        s = ((1.0, 2.0, 3.0, 4.0, 5.0), (0.0, 0.0, 0.0, 0.0, 0.0))
        w_plus, w_minus, p = wilcoxon_signed_rank(*s)
        assert min(w_plus, w_minus) == 0.0
        assert p == 2 / 32  # two one-sided extremes out of 2^5

    def test_balanced_differences_p_one(self):
        s = ((1.0, -1.0, 2.0, -2.0), (0.0, 0.0, 0.0, 0.0))
        _, _, p = wilcoxon_signed_rank(*s)
        assert p == 1.0

    def test_zero_differences_dropped(self):
        s = ((1.0, 2.0, 5.0, 5.0), (0.0, 0.0, 5.0, 5.0))
        s2 = ((1.0, 2.0), (0.0, 0.0))
        assert wilcoxon_signed_rank(*s) == wilcoxon_signed_rank(*s2)

    def test_all_zero_differences_p_one(self):
        assert wilcoxon_signed_rank((3.0, 3.0), (3.0, 3.0)) == (0.0, 0.0, 1.0)

    def test_empty_sample_rejected(self):
        with pytest.raises(GaitViewError, match="^need at least one pair$"):
            wilcoxon_signed_rank((), ())


class TestWilcoxonAgainstEnumeration:
    def test_random_samples_match_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            a = np.round(rng.normal(size=n), 2)
            b = np.round(rng.normal(size=n), 2)
            if np.all(a == b):
                continue
            s = (tuple(a), tuple(b))
            _, _, p = wilcoxon_signed_rank(*s)
            p_ref = wilcoxon_enumerate((a - b).tolist())
            assert abs(p - p_ref) < 1e-12

    def test_tied_magnitudes_match_enumeration(self):
        # repeated |d| values force midranks
        a = (1.0, 1.0, 2.0, 2.0, 3.0, -1.0)
        b = tuple(0.0 for _ in a)
        _, _, p = wilcoxon_signed_rank(a, b)
        p_ref = wilcoxon_enumerate([x - y for x, y in zip(a, b)])
        assert abs(p - p_ref) < 1e-12

    def test_approx_close_to_exact_at_n18(self):
        rng = np.random.default_rng(22)
        worst = 0.0
        for _ in range(15):
            a = rng.normal(0.3, 1.0, size=18)
            b = rng.normal(0.0, 1.0, size=18)
            s = (tuple(a), tuple(b))
            w_plus, w_minus, p_exact = wilcoxon_signed_rank(*s)
            p_approx = _approx_p(_midranks(np.abs(a - b)), min(w_plus, w_minus), 18)
            worst = max(worst, abs(p_exact - p_approx))
        assert worst < 0.02

    def test_auto_switches_on_sample_size(self):
        # exact through n = 25, normal from n = 26, on samples where the two differ
        rng = np.random.default_rng(23)
        for n in (EXACT_N_MAX, EXACT_N_MAX + 1):
            d = rng.normal(size=n)
            w_plus, w_minus, p = wilcoxon_signed_rank(tuple(d), (0.0,) * n)
            ranks, w = _midranks(np.abs(d)), min(w_plus, w_minus)
            exact, approx = _exact_p(ranks, w), _approx_p(ranks, w, n)
            assert exact != approx
            assert p == (exact if n == EXACT_N_MAX else approx)


@st.composite
def signed_differences(draw):
    """Nonzero paired differences, n = 1..25: distinct magnitudes, magnitudes
    drawn from {1, 2, 3} (ties), or mirrored pairs (W+ = W-)."""
    kind = draw(st.sampled_from(["untied", "tied", "balanced"]))
    if kind == "balanced":
        half = draw(st.lists(st.integers(1, 5), min_size=1, max_size=12))
        return [float(m) for m in half] + [-float(m) for m in half]
    n = draw(st.integers(1, 25))
    mags = st.integers(1, 1000) if kind == "untied" else st.integers(1, 3)
    magnitudes = draw(st.lists(mags, min_size=n, max_size=n, unique=kind == "untied"))
    signs = draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n))
    return [m * sign for m, sign in zip(magnitudes, signs)]


class TestExactTail:
    @settings(max_examples=300)
    @given(signed_differences())
    def test_doubled_lower_tail_equals_two_tail_count(self, differences):
        d = np.asarray(differences)
        ranks = _midranks(np.abs(d))
        w_plus, w_minus = float(ranks[d > 0].sum()), float(ranks[d < 0].sum())
        w = min(w_plus, w_minus)
        p = _exact_p(ranks, w)
        assert p == wilcoxon_two_tail_p(ranks, w)  # bit for bit
        if w_plus == w_minus:
            assert p == 1.0


@st.composite
def paired_scores(draw):
    """Two paired score lists, n = 1..40, drawn from few values: ties within
    each list and zero differences between them."""
    n = draw(st.integers(1, 40))
    scores = st.lists(st.integers(0, 4).map(lambda k: k / 4.0), min_size=n, max_size=n)
    return draw(scores), draw(scores)


class TestSequenceInputs:
    @settings(max_examples=200)
    @given(paired_scores())
    def test_list_tuple_and_array_agree(self, pair):
        a, b = pair
        for test in (wilcoxon_signed_rank, cliffs_delta):
            expected = test(a, b)
            assert test(tuple(a), tuple(b)) == expected
            assert test(np.array(a), np.array(b)) == expected

    @given(st.integers(EXACT_N_MAX + 1, 60), st.data())
    def test_all_tied_differences_give_a_normal_p(self, n, data):
        # one tie group of all n: the smallest variance the tie correction can leave
        negatives = data.draw(st.integers(0, n))
        d = np.array([-2.5] * negatives + [2.5] * (n - negatives))
        ranks = _midranks(np.abs(d))
        w = float(min(ranks[d > 0].sum(), ranks[d < 0].sum()))
        p = _approx_p(ranks, w, n)
        assert np.isfinite(p) and 0.0 < p <= 1.0
        assert wilcoxon_signed_rank(d, np.zeros(n))[2] == p
        reference = sstats.wilcoxon(d, zero_method="wilcox", correction=True,
                                    method="approx").pvalue
        assert abs(p - reference) <= 1e-12 * reference

    @pytest.mark.parametrize("n", [60, 100])
    def test_same_sign_differences_keep_a_relative_precision(self, n):
        # 1 + erf(z / sqrt 2) cancelled in the tail: n = 100 gave p = 0.0
        a = np.arange(1.0, n + 1)
        p = wilcoxon_signed_rank(a, np.zeros(n))[2]
        reference = sstats.wilcoxon(a, np.zeros(n), correction=True, method="approx").pvalue
        assert abs(p - reference) <= 1e-12 * reference


class TestMidranks:
    @given(st.lists(st.integers(-4, 4).map(lambda k: k / 2.0), min_size=1, max_size=40))
    def test_equals_scipy_rankdata(self, values):
        # few distinct values, so most draws carry ties
        arr = np.asarray(values)
        assert np.array_equal(_midranks(arr), sstats.rankdata(arr, method="average"))


class TestCliffsDelta:
    def test_complete_dominance(self):
        a = tuple(float(i) for i in range(10))
        b = tuple(float(i) + 100.0 for i in range(10))
        delta, label = cliffs_delta(a, b)
        assert abs(delta) == 1.0
        assert delta == -1.0  # every a below every b
        assert label == "large"

    def test_identical_samples_zero(self):
        v = (1.0, 2.0, 3.0)
        delta, label = cliffs_delta(v, v)
        assert delta == 0.0
        assert label == "small"

    def test_hand_computed(self):
        # a={1,3}, b={2}: wins 1, losses 1 -> 0; a={3,4}, b={2}: delta 1
        delta, _ = cliffs_delta((1.0, 3.0), (2.0, 2.0))
        assert delta == 0.0
        delta, _ = cliffs_delta((3.0, 4.0), (2.0, 2.0))
        assert delta == 1.0

    def test_threshold_boundaries(self):
        assert effect_label(0.3299) == "small"
        assert effect_label(0.33) == "medium"
        assert effect_label(0.4739) == "medium"
        assert effect_label(0.474) == "large"
        assert effect_label(-0.474) == "large"


class TestCompareViews:
    def test_dominant_lateral_wins_dtw(self):
        n = 18
        frontal = [10.0 + i * 0.1 for i in range(n)]
        lateral = [2.0 + i * 0.1 for i in range(n)]
        res = compare_views(frontal, lateral, FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw")
        assert res.winner == "lateral"
        assert res.p_value == 2 / 2**n
        assert abs(res.cliffs_delta) == 1.0
        assert res.effect_label == "large"
        assert res.mean_sd_a[0] > res.mean_sd_b[0]

    def test_winner_follows_signed_ranks_not_means(self, tmp_path):
        # frontal is lower (better) in 17 of 18 subjects; one outlier makes its mean higher
        frontal, lateral = [10.0] * 17 + [200.0], [11.0] * 17 + [100.0]
        sample = (tuple(frontal), tuple(lateral))
        assert wilcoxon_signed_rank(*sample)[:2] == (18.0, 153.0)  # W+, W- of frontal - lateral
        res = compare_views(frontal, lateral, FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw")
        assert res.mean_sd_a[0] > res.mean_sd_b[0]
        assert res.p_value == 310 / 2**18 and res.cliffs_delta < -0.88
        assert res.winner == "frontal"
        write_reports(tmp_path, [], [res], [], {}, {})
        assert recommend(tmp_path) == [{"feature": "step_length", "side": "left",
                                        "recommended_view": "frontal",
                                        "rationale": "dtw:frontal"}]

    def test_higher_is_better_for_mcc(self):
        n = 12
        frontal = [0.9 + i * 0.001 for i in range(n)]
        lateral = [0.2 + i * 0.001 for i in range(n)]
        res = compare_views(frontal, lateral, FeatureName.STEP_LENGTH, SideLabel.LEFT, "mcc")
        assert res.winner == "frontal"

    def test_ie_has_no_winner(self):
        res = compare_views([1.0, 2.0, 3.0], [4.0, 5.0, 6.0],
                            FeatureName.STEP_LENGTH, SideLabel.LEFT, "ie")
        assert res.winner == ""

    def test_identical_views_tie_with_p_one(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        res = compare_views(vals, vals, FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw")
        assert res.p_value == 1.0
        assert res.winner == "tie"

    def test_insignificant_is_tie(self):
        rng = np.random.default_rng(33)
        base = rng.normal(5.0, 1.0, size=10)
        noise = base + rng.normal(0.0, 0.01, size=10) * np.where(rng.random(10) < 0.5, 1, -1)
        res = compare_views(base.tolist(), noise.tolist(),
                            FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw")
        if res.p_value >= 0.05:
            assert res.winner == "tie"

    def test_unpaired_subject_rejected(self):
        with pytest.raises(ValueError, match="^paired samples must have equal length$"):
            compare_views([1.0, 2.0], [3.0], FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw")

    def test_no_records_rejected(self):
        with pytest.raises(GaitViewError, match="^need at least one pair$"):
            compare_views([], [], FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL, "kld")

    def test_alpha_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got 7$"):
            compare_views([1.0, 2.0], [3.0, 4.0], FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw",
                          alpha=7)

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            compare_views([], [], FeatureName.STEP_LENGTH, SideLabel.LEFT, "rmse")

    def test_sample_sd_uses_ddof1(self):
        res = compare_views([1.0, 3.0], [5.0, 5.0], FeatureName.STEP_LENGTH, SideLabel.LEFT, "dtw")
        assert abs(res.mean_sd_a[1] - np.std([1.0, 3.0], ddof=1)) < 1e-15


# every (feature, side, metric) a stats file can hold
STAT_KEYS = [(feature, side, metric) for feature in FeatureName
             for side in FEATURE_SIDES[feature] for metric in ALL_METRICS]


@st.composite
def stat_results(draw):
    """StatResults of distinct (feature, side, metric), in drawn order; p
    values in [0, 1] with 0, 1 and values below 1e-6, and a winner valid for
    the metric."""
    numbers = st.floats(-1e6, 1e6)
    p_values = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1e-6), st.floats(0.0, 1.0))
    results = []
    for feature, side, metric in draw(st.lists(st.sampled_from(STAT_KEYS), min_size=1,
                                               unique=True)):
        winner = "" if metric == "ie" else draw(st.sampled_from(["frontal", "lateral", "tie"]))
        results.append(StatResult(
            feature, side, metric, (draw(numbers), draw(numbers)), (draw(numbers), draw(numbers)),
            draw(p_values), draw(st.floats(-1.0, 1.0)),
            draw(st.sampled_from(["negligible", "small", "medium", "large"])), winner))
    return results


class TestStatsFileRoundTrip:
    @settings(max_examples=150, deadline=None)
    @given(stat_results())
    def test_written_rows_read_back(self, results):
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            write_reports(tmp, [], results, [], {}, {})
            for feature in FeatureName:
                path = tmp / f"stats_{feature.value}.csv"
                rows = sorted((r for r in results if r.feature is feature),
                              key=lambda r: (r.metric, r.side.value))
                assert path.exists() == bool(rows)
                if rows:
                    assert list(_read_stats(path)) == [
                        (r.metric, "" if r.side is SideLabel.BILATERAL else r.side.value,
                         float(f"{r.p_value:.6g}"), r.winner)
                        for r in rows]
            # every side gets a row; one with IE alone, which has no better direction, ties
            sides = {(r.feature.value, r.side.value) for r in results}
            recommended = recommend(tmp)
            assert sorted((row["feature"], row["side"]) for row in recommended) == sorted(sides)
            for row in recommended:
                lead = sum(1 if r.winner == "frontal" else -1 for r in results
                           if (r.feature.value, r.side.value) == (row["feature"], row["side"])
                           and r.metric != "ie" and r.winner != "tie"
                           and float(f"{r.p_value:.6g}") < DEFAULT_ALPHA)
                assert row["recommended_view"] == ("frontal" if lead > 0 else
                                                   "lateral" if lead < 0 else "tie")
