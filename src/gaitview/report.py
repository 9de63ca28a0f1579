"""Report schema, the report files and `gaitview recommend`: stdlib only, so
recommend starts without numpy.

write_reports writes every report file of an analyze run, from the numbers
the pipeline module computes. The reports are replaced as a set: they are
all written into a temporary directory inside the output directory, none of
their names there may be taken by a directory or another non-file, then
they are moved in and the stats_<feature>.csv and recommendations.csv an
earlier run left that this run did not write are deleted. A run that fails
before the move leaves the output directory as it was, and files gaitview
does not own are never touched.

recommend reads the stats_<feature>.csv files of the four FEATURES from a
finished analyze run and rejects any row it cannot vote with, naming the
file, line and column.
"""
from __future__ import annotations

import csv
import io
from pathlib import Path

from .errors import GaitViewError, ParseError, read_text

# the gait parameters, in report order; features.FeatureName is built from them
FEATURES = ("step_length", "knee_rotation", "trunk_rotation", "wrist_hipmid")
# direction of "better" per metric; IE has no direction in reports
METRIC_DIRECTION = {"dtw": "lower", "mcc": "higher", "kld": "lower", "ie": None}
ALL_METRICS = tuple(METRIC_DIRECTION)
DEFAULT_ALPHA = 0.05  # significance level of analyze's winners and recommend's votes


def check_alpha(alpha: float) -> None:
    """Reject a significance level outside (0, 1), nan included."""
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")

STATS_HEADER = [
    "metric", "frontal_mean", "frontal_sd", "lateral_mean", "lateral_sd",
    "p_value", "cliffs_delta", "effect_label", "winner",
]
RECORDS_HEADER = [
    "subject", "trial", "feature", "side", "view",
    "dtw", "mcc", "mcc_lag", "kld", "ie_2d", "ie_3d",
]
PCA_HEADER = ["group", "initial_dim", "k", "explained_ratio"]
RECOMMENDATIONS = "recommendations.csv"
STATS_FILE = "stats_{}.csv"  # of a feature: stats_step_length.csv
WINNERS = ("frontal", "lateral", "tie", "")  # "": IE, which has no winner


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_reports(out_dir, records, stat_results, pca_rows, radar: dict, metadata: dict) -> None:
    """Replace the reports in out_dir as a set: CSV numbers to 6 significant
    digits, JSON at full precision, sorted keys and a fixed row order. The
    temporary directory goes on every exit path; recommend needs none of
    json, os and tempfile, so they are imported here."""
    import json
    import os
    import tempfile

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=".gaitview-", dir=out) as tmp:
        tmp = Path(tmp)
        _write_csv(tmp / "metric_records.csv", RECORDS_HEADER, (
            [r.trial.subject_index, r.trial.trial_index, r.feature.value, r.side.value,
             r.view.value, _fmt(r.dtw), _fmt(r.mcc), r.mcc_lag, _fmt(r.kld),
             _fmt(r.ie_2d), _fmt(r.ie_3d)]
            for r in sorted(records, key=lambda r: (
                r.trial.subject_index, r.trial.trial_index,
                r.feature.value, r.side.value, r.view.value))
        ))
        for feature in sorted({res.feature.value for res in stat_results}):
            rows = sorted((r for r in stat_results if r.feature.value == feature),
                          key=lambda r: (r.metric, r.side.value))
            _write_csv(tmp / STATS_FILE.format(feature), STATS_HEADER, (
                [_metric_cell(r.metric, r.side.value),
                 _fmt(r.mean_sd_a[0]), _fmt(r.mean_sd_a[1]),
                 _fmt(r.mean_sd_b[0]), _fmt(r.mean_sd_b[1]),
                 _fmt(r.p_value), _fmt(r.cliffs_delta), r.effect_label, r.winner]
                for r in rows
            ))
        _write_csv(tmp / "pca_summary.csv", PCA_HEADER,
                   ([name, dim, k, _fmt(ratio)] for name, dim, k, ratio in sorted(pca_rows)))
        for name, data in (("radar.json", radar), ("run_metadata.json", metadata)):
            (tmp / name).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")

        written = sorted(path.name for path in tmp.iterdir())
        # reports of an earlier run that this run did not write, which recommend would read
        stale = [name for name in [STATS_FILE.format(f) for f in FEATURES] + [RECOMMENDATIONS]
                 if name not in written]
        for name in written + stale:
            if (out / name).exists() and not (out / name).is_file():
                raise GaitViewError(f"{out / name} is not a file; the reports in {out} "
                                    "are left as they were")
        for name in written:
            os.replace(tmp / name, out / name)
    for name in stale:
        (out / name).unlink(missing_ok=True)


def _metric_cell(metric: str, side: str) -> str:
    """A stats row's metric cell, as _read_stats splits it: dtw if bilateral, else dtw_left."""
    return metric if side == "bilateral" else f"{metric}_{side}"


def _read_stats(path: Path):
    """(metric, side, p_value, winner) of each row of a stats_<feature>.csv;
    side is "" for a bilateral row. A row whose cell count differs from the
    header's, whose metric is not one of ALL_METRICS (with an optional
    _left/_right), whose p_value is not a number in [0, 1], whose winner
    is not one of WINNERS or whose metric cell repeats an earlier row's
    raises ParseError."""
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames != STATS_HEADER:
            raise GaitViewError(f"{path} does not match the stats schema")

        def error(column: str, reason: str) -> ParseError:
            return ParseError(reader.line_num, STATS_HEADER.index(column) + 1, reason, path)

        lines: dict[str, int] = {}  # metric cell -> line of its row
        for row in reader:
            if None in row:  # cells beyond the header
                raise ParseError(reader.line_num, len(STATS_HEADER) + 1,
                                 f"extra cell {row[None][0]!r} beyond the "
                                 f"{len(STATS_HEADER)} header columns", path)
            missing = next((column for column in STATS_HEADER if row[column] is None), None)
            if missing:
                raise error(missing, f"missing {missing} cell")
            metric, _, side = row["metric"].partition("_")
            if metric not in ALL_METRICS or side not in ("", "left", "right"):
                raise error("metric", f"unknown metric {row['metric']!r}, expected one of "
                                      f"{'/'.join(ALL_METRICS)}, with _left or _right or alone")
            first_line = lines.setdefault(row["metric"], reader.line_num)
            if first_line != reader.line_num:
                raise error("metric", f"second {row['metric']} row; the first is line "
                                      f"{first_line}")
            try:
                p_value = float(row["p_value"])
            except ValueError:
                p_value = float("nan")
            if not 0 <= p_value <= 1:  # nan too
                raise error("p_value", f"p_value must be a number in [0, 1], "
                                       f"got {row['p_value']!r}")
            if row["winner"] not in WINNERS:
                raise error("winner", f"unknown winner {row['winner']!r}, expected "
                                      "frontal, lateral, tie or an empty cell")
            yield metric, side, p_value, row["winner"]


def recommend(analyzed_dir, alpha: float = DEFAULT_ALPHA) -> list[dict]:
    """Per (feature, side) view recommendation from a completed analyze run.

    Majority vote of significant winners of the metrics with a better
    direction (not IE), from the stats_<feature>.csv of each of FEATURES
    present; any other file is ignored. Every (feature, side) with a stats
    row gets a row, so a side with IE rows alone is a tie with no rationale.
    Writes recommendations.csv into the analyzed dir once every stats file
    has been read.
    """
    check_alpha(alpha)
    analyzed = Path(analyzed_dir)
    stats_files = [(feature, analyzed / STATS_FILE.format(feature))
                   for feature in sorted(FEATURES)]
    stats_files = [(feature, path) for feature, path in stats_files if path.exists()]
    if not stats_files:
        raise GaitViewError(f"no stats_<feature>.csv files in {analyzed}")
    rows: list[dict] = []
    for feature, path in stats_files:
        votes: dict[str, list[tuple[str, str]]] = {}
        for metric, side, p_value, winner in _read_stats(path):
            side_votes = votes.setdefault(side or "bilateral", [])
            if (METRIC_DIRECTION[metric] is not None and p_value < alpha
                    and winner in ("frontal", "lateral")):
                side_votes.append((metric, winner))
        for side in sorted(votes):
            contributing = votes[side]
            lead = sum(1 if w == "frontal" else -1 for _, w in contributing)
            choice = "frontal" if lead > 0 else "lateral" if lead < 0 else "tie"
            rationale = ";".join(f"{m}:{w}" for m, w in sorted(contributing))
            rows.append({
                "feature": feature, "side": side,
                "recommended_view": choice, "rationale": rationale,
            })
    _write_csv(analyzed / RECOMMENDATIONS, ["feature", "side", "recommended_view", "rationale"],
               (row.values() for row in rows))
    return rows
