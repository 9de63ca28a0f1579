"""The stats files and radar.json of an analyze run, recomputed from its
metric_records.csv alone by textbook formulas and brute force.

Two synthetic cohorts are analyzed with every CSV number written at full
precision (report._fmt = repr): 8 subjects, where every Wilcoxon p takes
the exact path, and 26 subjects of 80 frames, where the normal
approximation takes over. One trunk-rotation IE comparison of the second
cohort has a zero difference, so its n is 25 and its p is exact too.

Tolerance per column:
  - frontal/lateral mean and sd: 1e-12 relative (statistics.fmean and
    statistics.stdev round once, numpy sums pairwise);
  - p_value: equal on the exact path (both count sign assignments out of
    2^n); on the normal approximation, 1e-12 relative to scipy's p, which
    erfc keeps in the tail;
  - cliffs_delta, effect_label, winner and every radar value: equal.
"""
import csv
import json
import statistics

import pytest
from scipy import stats as sstats

from gaitview import report
from gaitview.pipeline import RunConfig, run_analysis
from gaitview.report import DEFAULT_ALPHA, METRIC_DIRECTION
from gaitview.stats import EXACT_N_MAX
from gaitview.synth import GaitModelParams, make_paired_dataset

from oracles import wilcoxon_enumerate, wilcoxon_two_tail_p

RELATIVE = 1e-12
ENUMERATE_N_MAX = 12  # 2^12 sign assignments; above it the exact p is a two-tail count


@pytest.fixture(scope="module", params=[(8, 169), (26, 80)], ids=["exact-8", "approx-26"])
def analyzed(request, tmp_path_factory):
    subjects, frames = request.param
    root = tmp_path_factory.mktemp(f"cohort{subjects}")
    params = GaitModelParams(n_frames=frames, noise_sd=2.0, seed=3)
    manifest = make_paired_dataset(params, subjects, root / "data")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report, "_fmt", repr)
        run_analysis(RunConfig(manifest, root / "out"))
    return root / "out"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def paired_scores(out):
    """{(feature, side): {column: (frontal scores, lateral scores)}} from
    metric_records.csv, paired by subject; column "ie_closeness" holds
    |ie_2d - ie_3d|, what the radar's IE axis compares."""
    views = {}
    for row in read_rows(out / "metric_records.csv"):
        scores = {name: float(row[name]) for name in ("dtw", "mcc", "kld", "ie_2d", "ie_3d")}
        scores["ie_closeness"] = abs(scores["ie_2d"] - scores["ie_3d"])
        views.setdefault((row["feature"], row["side"]), {}).setdefault(
            row["view"], {})[int(row["subject"])] = scores
    pairs = {}
    for key, by_view in views.items():
        subjects = sorted(by_view["frontal"])
        assert sorted(by_view["lateral"]) == subjects
        pairs[key] = {column: tuple([by_view[view][s][column] for s in subjects]
                                    for view in ("frontal", "lateral"))
                      for column in by_view["frontal"][subjects[0]]}
    return pairs


def midranks(values):
    """1-based rank of each value, tied values sharing the mean of their ranks."""
    return [sum(v < x for v in values) + (sum(v == x for v in values) + 1) / 2 for x in values]


def expected_row(frontal, lateral, metric):
    """The stats row of one comparison, by brute force, with how its p was found."""
    d = [f - l for f, l in zip(frontal, lateral)]
    d = [x for x in d if x != 0.0]
    ranks = midranks([abs(x) for x in d])
    w_plus = sum(r for r, x in zip(ranks, d) if x > 0)
    w_minus = sum(r for r, x in zip(ranks, d) if x < 0)
    if not d:
        p, path = 1.0, "exact"
    elif len(d) <= ENUMERATE_N_MAX:
        p, path = wilcoxon_enumerate(d), "exact"
    elif len(d) <= EXACT_N_MAX:
        p, path = wilcoxon_two_tail_p(ranks, min(w_plus, w_minus)), "exact"
    else:
        p = sstats.wilcoxon(frontal, lateral, zero_method="wilcox", correction=True,
                            method="approx").pvalue
        path = "approx"
    wins = losses = 0
    for f in frontal:
        for l in lateral:
            wins += f > l
            losses += f < l
    delta = (wins - losses) / (len(frontal) * len(lateral))
    label = "large" if abs(delta) >= 0.474 else "medium" if abs(delta) >= 0.33 else "small"
    direction = METRIC_DIRECTION[metric]
    if direction is None:
        winner = ""
    elif p >= DEFAULT_ALPHA:
        winner = "tie"
    else:  # lower is better: frontal wins when its differences rank mostly negative
        frontal_better = w_minus > w_plus if direction == "lower" else w_plus > w_minus
        winner = "frontal" if frontal_better else "lateral"
    return {
        "frontal_mean": statistics.fmean(frontal), "frontal_sd": statistics.stdev(frontal),
        "lateral_mean": statistics.fmean(lateral), "lateral_sd": statistics.stdev(lateral),
        "p_value": p, "cliffs_delta": delta, "effect_label": label, "winner": winner,
    }, path


def test_stats_rows_match_brute_force(analyzed):
    pairs = paired_scores(analyzed)
    paths = set()
    written = sorted(p.name for p in analyzed.glob("stats_*.csv"))
    assert written == sorted({f"stats_{feature}.csv" for feature, _ in pairs})
    for name in written:
        rows = {row["metric"]: row for row in read_rows(analyzed / name)}
        expected = {}  # metric cell -> (row, path of its p)
        for (feature, side), columns in pairs.items():
            if name != f"stats_{feature}.csv":
                continue
            for metric in METRIC_DIRECTION:
                cell = metric if side == "bilateral" else f"{metric}_{side}"
                expected[cell] = expected_row(*columns["ie_2d" if metric == "ie" else metric],
                                              metric)
        assert sorted(rows) == sorted(expected)
        for cell, (want, path) in expected.items():
            got, where = rows[cell], (name, cell)
            paths.add(path)
            for column in ("frontal_mean", "frontal_sd", "lateral_mean", "lateral_sd"):
                assert abs(float(got[column]) - want[column]) <= RELATIVE * abs(want[column]), \
                    (where, column)
            if path == "exact":
                assert float(got["p_value"]) == want["p_value"], where
            else:
                assert abs(float(got["p_value"]) - want["p_value"]) <= \
                    RELATIVE * want["p_value"], where
            assert float(got["cliffs_delta"]) == want["cliffs_delta"], where
            assert (got["effect_label"], got["winner"]) == \
                (want["effect_label"], want["winner"]), where
    # the 8-subject cohort stays on the exact path; the 26-subject one leaves it
    subjects = len(next(iter(pairs.values()))["dtw"][0])
    assert paths == ({"exact", "approx"} if subjects > EXACT_N_MAX else {"exact"})


def test_radar_matches_view_means(analyzed):
    pairs = paired_scores(analyzed)
    radar = json.loads((analyzed / "radar.json").read_text(encoding="utf-8"))
    expected = {}
    for (feature, side), columns in pairs.items():
        key = feature if side == "bilateral" else f"{feature}_{side}"
        axes = expected[key] = {}
        for metric, direction in METRIC_DIRECTION.items():
            # IE's axis reads the closeness of the 2D entropy to the 3D one: lower is better
            frontal, lateral = map(statistics.fmean, columns[
                "ie_closeness" if metric == "ie" else metric])
            if frontal == lateral:
                share = 0.5
            elif direction == "higher":
                share = float(frontal > lateral)
            else:
                share = float(frontal < lateral)
            axes[metric] = {"frontal": share, "lateral": 1.0 - share}
    assert radar == expected
