"""Every row of an analyze run's metric_records.csv recomputed from the
feature signals that extract_all gave the run, by oracles.record_reference:
np.interp resampling, np.mean/np.std z-normalization, the cell-by-cell DTW
recurrence, np.correlate with the documented lag tie rule, and np.histogram
for KLD and IE. The signals have their own tests (test_features.py).

Three 3-subject synth cohorts: as made; with seeded repairable gaps in
every pose file; and with every pose file cut to 50 Hz beside the 100 Hz
mocap3d files, so each 2D signal is resampled onto the 3D length. Every
number must equal the file's cell at the file's 6 significant digits, and
mcc_lag must match exactly.
"""
import csv
import random

import pytest

from gaitview import pipeline
from gaitview.ingest import DEFAULT_CONF_THRESHOLD
from gaitview.pipeline import RunConfig, run_analysis
from gaitview.signal_core import ViewLabel
from gaitview.synth import GaitModelParams, make_paired_dataset

from oracles import record_reference

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


def halve_pose_rate(data) -> None:
    """Keep each pose file's even frames: 50 Hz pose beside 100 Hz mocap3d."""
    for path in pose_files(data):
        header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
        path.write_text(header + "".join(r for r in rows if int(r.split(",")[0]) % 2 == 0),
                        encoding="utf-8")


@pytest.fixture(scope="module", params=["synth", "gaps", "pose-50hz"])
def analyzed(request, tmp_path_factory):
    """(the run's config, {(trial, view): signals extract_all gave})."""
    root = tmp_path_factory.mktemp(request.param)
    manifest = make_paired_dataset(GaitModelParams(noise_sd=2.0, seed=11), 3, root / "data")
    if request.param == "gaps":
        assert inject_gaps(manifest.parent, seed=11) > 0
    if request.param == "pose-50hz":
        halve_pose_rate(manifest.parent)
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
