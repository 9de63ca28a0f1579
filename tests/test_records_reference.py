"""Every row of an analyze run's metric_records.csv recomputed two ways by
oracles.record_reference (np.interp resampling, np.mean/np.std
z-normalization, the cell-by-cell DTW recurrence, np.correlate with the
documented lag tie rule, and np.histogram for KLD and IE): from the
feature signals that extract_all gave the run, and from the CSV text by a
chain that shares no code with the pipeline: oracles.parse_rows,
oracles.fill_gaps_loop on pose files, scipy.signal.butter and filtfilt on
every track at its file's own rate, and oracles.features_reference. The
chain's signals must also equal those the run scored: every metric is
unchanged when a feature's 2D and 3D signals are both negated, so records
alone cannot show a knee angle taken as its supplement.

Four 3-subject synth cohorts: as made; with seeded repairable gaps in
every pose file; with every pose file cut to 50 Hz beside the 100 Hz
mocap3d files, so each 2D signal is resampled onto the 3D length; and
with every file cut to its first SHORT_FRAMES frames. Every number must
equal the file's cell at the file's 6 significant digits, and mcc_lag
must match exactly.
"""
import csv
import random
from pathlib import Path

import numpy as np
import pytest
from scipy import signal as sps

from gaitview import pipeline
from gaitview.ingest import DEFAULT_CONF_THRESHOLD
from gaitview.pipeline import RunConfig, run_analysis
from gaitview.signal_core import TrialId, ViewLabel
from gaitview.synth import GaitModelParams, make_paired_dataset

from oracles import features_reference, fill_gaps_loop, parse_rows, record_reference

# trials of 0.24 s: the frontal hip midpoint then moves so little against its 2 px
# noise that LAPACK's SVD (numpy 2.4's OpenBLAS) points the walking axis of
# subjects 1 and 2 against the walk, so only the orientation step gets it right
SHORT_FRAMES = 24
GAP_KEYPOINTS = 4  # per pose file, each given one run of 1..6 frames, which fill_gaps repairs


def pose_files(data):
    return sorted(data.glob("s*_frontal.csv")) + sorted(data.glob("s*_lateral.csv"))


def inject_gaps(data, seed: int) -> int:
    """Give one run of 1..6 inner frames of each of GAP_KEYPOINTS keypoints
    of every pose file a confidence below the threshold; returns the number
    of rows changed."""
    rng = random.Random(seed)
    changed = 0
    for path in pose_files(data):
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        fields = [row.rstrip("\n").split(",") for row in rows]
        last = max(int(f[0]) for f in fields)
        low = set()
        for keypoint in rng.sample(sorted({f[2] for f in fields}), GAP_KEYPOINTS):
            start = rng.randint(2, last - 8)
            low.update((frame, keypoint) for frame in range(start, start + rng.randint(1, 6)))
        for f in fields:
            if (int(f[0]), f[2]) in low:
                f[5] = repr(DEFAULT_CONF_THRESHOLD / 3)
                changed += 1
        path.write_text(header + "".join(",".join(f) + "\n" for f in fields), encoding="utf-8")
    return changed


def keep_frames(paths, keep) -> None:
    """Keep the rows of each CSV file whose frame index passes keep."""
    for path in paths:
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(r for r in rows if keep(int(r.split(",")[0]))),
                        encoding="utf-8")


@pytest.fixture(scope="module", params=["synth", "gaps", "pose-50hz", "short"])
def analyzed(request, tmp_path_factory):
    """(the run's config, {(trial, view): signals extract_all gave})."""
    root = tmp_path_factory.mktemp(request.param)
    manifest = make_paired_dataset(GaitModelParams(noise_sd=2.0, seed=11), 3, root / "data")
    if request.param == "gaps":
        assert inject_gaps(manifest.parent, seed=11) > 0
    if request.param == "pose-50hz":  # 50 Hz pose beside 100 Hz mocap3d
        keep_frames(pose_files(manifest.parent), lambda frame: frame % 2 == 0)
    if request.param == "short":
        keep_frames(manifest.parent.glob("s*.csv"), lambda frame: frame < SHORT_FRAMES)
    score_trial, extract_all = pipeline._score_trial, pipeline.extract_all
    signals, current = {}, []

    def scoring(cfg, trial, *args):
        current[:] = [trial]
        return score_trial(cfg, trial, *args)

    def extracting(seq, *args):
        out = extract_all(seq, *args)
        signals[current[0], seq.view] = out.signals
        return out

    cfg = RunConfig(manifest, root / "out")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "_score_trial", scoring)
        patch.setattr(pipeline, "extract_all", extracting)
        run_analysis(cfg)
    return cfg, signals


def test_every_record_equals_the_reference(analyzed):
    cfg, signals = analyzed
    metric = cfg.metric_cfg
    expected = {}
    for (trial, view), signals_2d in signals.items():
        if view is ViewLabel.MOCAP3D:
            continue
        for (feature, side), signal_2d in signals_2d.items():
            key = (trial.subject_index, trial.trial_index, feature.value, side.value, view.value)
            expected[key] = record_reference(
                signals[trial, ViewLabel.MOCAP3D][feature, side], signal_2d,
                metric.histogram_bins, metric.smoothing_epsilon, metric.log_base)
    with open(cfg.out_dir / "metric_records.csv", newline="", encoding="utf-8") as fh:
        rows = {(int(row["subject"]), int(row["trial"]), row["feature"], row["side"],
                 row["view"]): row for row in csv.DictReader(fh)}
    assert len(expected) == 3 * 7 * 2
    assert rows.keys() == expected.keys()
    for key, reference in expected.items():
        row = rows[key]
        assert int(row["mcc_lag"]) == reference["mcc_lag"], key
        for column in ("dtw", "mcc", "kld", "ie_2d", "ie_3d"):
            assert row[column] == f"{reference[column]:.6g}", (key, column)


def reference_signals(path: Path, pose: bool, cfg: RunConfig) -> dict:
    """features_reference's signals of one CSV file after parse_rows,
    fill_gaps_loop (pose files) and scipy's zero-phase Butterworth filter of
    each point's x, y (and z) at the file's own rate, as the README defines
    it: frames over the time span, to 1 uHz."""
    rows = parse_rows(path.read_text(encoding="utf-8"), pose)
    if pose:
        rows = fill_gaps_loop(rows, cfg.conf_threshold, cfg.max_gap)
    names = list(rows[0][2])
    assert all(points.keys() == set(names) for _, _, points in rows)  # every track complete
    dims = 2 if pose else 3
    rate = round((len(rows) - 1) / (rows[-1][1] - rows[0][1]), 6)
    b, a = sps.butter(cfg.filter_order // 2, cfg.cutoff_hz / (rate / 2))
    tracks = np.array([[points[name][:dims] for name in names] for _, _, points in rows])
    filtered = sps.filtfilt(b, a, tracks, axis=0, padtype="odd", padlen=3 * (cfg.filter_order + 1))
    rows = [(index, time_s, dict(zip(names, frame)))
            for (index, time_s, _), frame in zip(rows, filtered.tolist())]
    return {key: np.array(ts) for key, ts in features_reference(rows, dims).items()}


def at_six_digits(cell: str, value: float) -> bool:
    """cell is value at 6 significant digits, or one unit off in the sixth
    where value lies within 1e-9 relative of a rounding boundary."""
    return cell in {f"{value * (1.0 + d):.6g}" for d in (-1e-9, 0.0, 1e-9)}


def test_csv_to_records_equals_the_reference(analyzed):
    cfg, run_signals = analyzed
    metric = cfg.metric_cfg
    with open(cfg.manifest, newline="", encoding="utf-8") as fh:
        files = {}
        for row in csv.DictReader(fh):
            trial = (int(row["subject"]), int(row["trial"]))
            files.setdefault(trial, {})[row["kind"]] = cfg.manifest.parent / row["path"]
    expected = {}
    for trial, paths in files.items():
        signals = {kind: reference_signals(path, kind != "mocap3d", cfg)
                   for kind, path in paths.items()}
        for kind, reference in signals.items():
            scored = run_signals[TrialId(*trial), ViewLabel(kind)]
            for key, ts in reference.items():
                np.testing.assert_allclose(scored[key], ts, rtol=1e-9, atol=0,
                                           err_msg=str((trial, kind, key)))
        for (feature, side), signal_3d in signals.pop("mocap3d").items():
            for view, signals_2d in signals.items():
                expected[(*trial, feature, side, view)] = record_reference(
                    signal_3d, signals_2d[feature, side], metric.histogram_bins,
                    metric.smoothing_epsilon, metric.log_base)
    with open(cfg.out_dir / "metric_records.csv", newline="", encoding="utf-8") as fh:
        rows = {(int(row["subject"]), int(row["trial"]), row["feature"], row["side"],
                 row["view"]): row for row in csv.DictReader(fh)}
    assert len(expected) == 3 * 7 * 2
    assert rows.keys() == expected.keys()
    for key, reference in expected.items():
        row = rows[key]
        assert int(row["mcc_lag"]) == reference["mcc_lag"], key
        for column in ("dtw", "mcc", "kld", "ie_2d", "ie_3d"):
            assert at_six_digits(row[column], reference[column]), (key, column, row[column],
                                                                   reference[column])
