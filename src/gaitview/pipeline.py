"""The analyze pipeline: ingest -> gap fill -> zero-phase filter -> feature
extraction -> metrics -> paired stats -> PCA, ending in deterministic CSV/JSON
reports, so identical inputs give byte-identical outputs.

The manifest is checked whole before any file is read. One function,
_score_trial, takes a trial from its files to its records: the files are
parsed, repaired and checked one by one, filtered in one smooth call, each
at its own rate, then reduced to features; an error names the subject,
trial, view and file it came from. One trial's sequences are in memory at
a time: each becomes the float matrix PCA reads, and per-subject PCA is
fitted on the spot, while pooled PCA keeps each view's matrices and stacks
them once every trial is in, fitting the mocap3d matrix, the widest,
last. analyze loads no OpenSSL: config_hash comes from CPython's built-in
sha256. report.write_reports writes the report files.
"""
from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dimred import DEFAULT_VARIANCE_THRESHOLD, FeatureMatrix, check_threshold, pca_fit, pca_matrix
from .errors import GaitViewError, ParseError, read_text
from .features import FEATURE_SIDES, FeatureName, extract_all, signal_key_name
from .ingest import (
    DEFAULT_CONF_THRESHOLD,
    DEFAULT_MAX_GAP,
    KEYPOINT_NAMES,
    check_gap_setting,
    fill_gaps,
    parse_marker_csv,
    parse_pose_csv,
)
from .metrics import MetricConfig, MetricRecord, compute_records
from .preprocess import FilterSpec, check_setting, smooth
from .report import (
    ALL_METRICS, DEFAULT_ALPHA, FEATURES, METRIC_DIRECTION, check_alpha, write_reports,
)
from .signal_core import TrialId, ViewLabel
from .stats import StatResult, compare_views

_TRIAL_VIEWS = (ViewLabel.MOCAP3D, ViewLabel.FRONTAL, ViewLabel.LATERAL)  # files of a trial
# relative, every sample step vs. its file's median: passes 30 fps's 33/34 ms, not a dropped frame
TIME_TOLERANCE = 0.1
PCA_SCOPES = ("pooled", "per-subject")


@dataclass
class RunConfig:
    """Every analyze setting, each checked here, before any file is read, by
    the module that uses it; a bad value raises an error naming its key.
    features may be given as names; they are kept as FeatureName."""

    manifest: Path
    out_dir: Path
    alpha: float = DEFAULT_ALPHA
    pca_threshold: float = DEFAULT_VARIANCE_THRESHOLD
    pca_scope: str = "pooled"
    apply_filter: bool = True
    cutoff_hz: float = 7.0  # each file's filter is designed at that file's rate
    filter_order: int = 4  # net order, as FilterSpec's
    metric_cfg: MetricConfig = field(default_factory=MetricConfig)
    conf_threshold: float = DEFAULT_CONF_THRESHOLD
    max_gap: int = DEFAULT_MAX_GAP
    features: tuple[FeatureName, ...] = tuple(FeatureName)
    metrics: tuple[str, ...] = ALL_METRICS
    marker_map: dict[str, str] | None = None

    def __post_init__(self):
        check_alpha(self.alpha)
        check_threshold(self.pca_threshold)
        if self.pca_scope not in PCA_SCOPES:
            raise ValueError(f"pca_scope: expected one of {'/'.join(PCA_SCOPES)}, "
                             f"got {self.pca_scope!r}")
        check_setting(self.cutoff_hz, self.filter_order)
        check_gap_setting(self.conf_threshold, self.max_gap)
        self.features = tuple(map(FeatureName, _names("features", self.features, FEATURES)))
        self.metrics = _names("metrics", self.metrics, ALL_METRICS)

    def fingerprint(self) -> str:
        """sha256 of every setting but the manifest and output paths.

        The digest comes from CPython's built-in sha256 module, as random
        takes its sha512: hashlib would map OpenSSL's libcrypto, about
        3.7 MB that would set analyze's peak memory."""
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            try:
                from _sha2 import sha256  # 3.12+
            except ImportError:
                from hashlib import sha256  # an interpreter built without them

        payload = dataclasses.asdict(self)
        del payload["manifest"], payload["out_dir"]
        return sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _names(key: str, names, valid: tuple[str, ...]) -> tuple:
    """names as a tuple; none, or a name empty, not in valid or listed twice, raises ValueError."""
    names = tuple(names)
    if not names:
        raise ValueError(f"{key}: none given")
    for name in names:
        if name == "":  # named in the comma-separated form of --metrics "dtw,,kld"
            raise ValueError(f"{key}: empty name in {','.join(names)!r}")
        if name not in valid:
            raise ValueError(f"{key}: unknown {key[:-1]} {name!r}, expected one of "
                             f"{'/'.join(valid)}")
        if names.count(name) > 1:
            raise ValueError(f"{key}: {name!r} is listed twice")
    return names


def load_manifest(path: Path) -> dict[TrialId, dict[str, Path]]:
    """manifest.csv -> {trial: {kind: absolute file path}}, checked before
    any file is read.

    A row with an empty or missing cell, a cell beyond the header, a
    subject or trial that is not an integer >= 1 in ASCII digits, an
    unknown kind, a repeated (subject, kind), a subject listed under a
    second trial or a file listed on an earlier row (paths compared once
    resolved) raises ParseError naming the manifest line and column: one
    trial per subject is supported. A subject without a mocap3d, frontal or
    lateral row raises GaitViewError naming the manifest and the subject.
    """
    base = path.parent
    kinds = {view.value for view in ViewLabel}
    out: dict[int, tuple[int, dict[str, Path]]] = {}
    lines: dict[Path, int] = {}  # resolved file -> manifest line that lists it
    with io.StringIO(read_text(path), newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("subject", "trial", "kind", "path")
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise GaitViewError(f"manifest {path} must have columns {sorted(required)}, "
                                f"got {reader.fieldnames or []}")

        def error(column: str, reason: str) -> ParseError:
            return ParseError(reader.line_num, reader.fieldnames.index(column) + 1, reason, path)

        def index(row: dict, column: str) -> int:
            if not (row[column].isascii() and row[column].isdecimal()) or int(row[column]) < 1:
                raise error(column, f"{column} must be an integer >= 1, got {row[column]!r}")
            return int(row[column])

        for row in reader:
            if None in row:  # cells beyond the header
                raise ParseError(reader.line_num, len(reader.fieldnames) + 1,
                                 f"extra cell {row[None][0]!r} beyond the "
                                 f"{len(reader.fieldnames)} header columns", path)
            for column in required:
                if not row[column]:
                    raise error(column, f"missing {column} cell")
            subject, trial, kind = index(row, "subject"), index(row, "trial"), row["kind"]
            if kind not in kinds:
                raise error("kind", f"unknown kind {kind!r}, expected one of {sorted(kinds)}")
            first_trial, files = out.setdefault(subject, (trial, {}))
            if trial != first_trial:
                raise error("trial", f"subject {subject} is listed under trials {first_trial} "
                                     f"and {trial}; one trial per subject is supported")
            if kind in files:
                raise error("kind", f"duplicate {kind} row for subject {subject}")
            files[kind] = base / row["path"]
            first_line = lines.setdefault(files[kind].resolve(), reader.line_num)
            if first_line != reader.line_num:
                raise error("path", f"{row['path']} is the file of line {first_line} too; "
                                    "each file belongs to one row")
    for subject, (_, files) in sorted(out.items()):
        absent = [view.value for view in _TRIAL_VIEWS if view.value not in files]
        if absent:
            raise GaitViewError(f"manifest {path}: subject {subject} has no "
                                f"{' or '.join(absent)} row; every subject needs one "
                                "mocap3d, one frontal and one lateral row")
    return {TrialId(subject, trial): files for subject, (trial, files) in out.items()}


def _score_trial(cfg: RunConfig, trial: TrialId, paths: dict[str, Path], first3d):
    """Parse, check, filter and score one subject's trial: returns its metric
    records, each view's PCA matrix and first3d; its sequences go when this
    returns. first3d is (subject, markers) of the first trial's mocap3d
    file, None before it.

    The files are parsed, repaired and checked one by one in _TRIAL_VIEWS
    order. A file is rejected if it has fewer than two frames, if it is a
    pose file without one of the 17 keypoints (pose PCA reads them all), if
    a sample step is not within TIME_TOLERANCE of its median step, if the
    filter runs and the file's _rate puts the cutoff at or above Nyquist or
    the file has no more frames than the filter's padding, if it is a pose
    file whose first or last time is further from the mocap3d file's than
    the coarser of their median steps, or, under pooled PCA, if it is a
    mocap3d file without one of first3d's markers, the mocap3d matrix's
    columns. The trial's sequences are then filtered in one smooth call,
    each at its file's rate, and reduced to features and PCA matrices file
    by file. A failure names the subject, trial, view and file."""
    pooled = cfg.pca_scope == "pooled"
    files = {view: paths[view.value] for view in _TRIAL_VIEWS}
    seqs, specs = {}, {}
    for view, path in files.items():
        with _naming(trial, view, path):
            if not path.exists():
                raise GaitViewError("missing file")
            if view is ViewLabel.MOCAP3D:
                seq = parse_marker_csv(path)
            else:
                seq = fill_gaps(parse_pose_csv(path, view=view),
                                cfg.conf_threshold, cfg.max_gap)
            if len(seq) < 2:
                raise GaitViewError("one frame: no sample rate" if len(seq) else "no frames")
            absent = [name for name in KEYPOINT_NAMES if name not in seq.names]
            if view is not ViewLabel.MOCAP3D and absent:
                raise GaitViewError(f"missing keypoints {', '.join(absent)}: pose PCA needs "
                                    f"all {len(KEYPOINT_NAMES)}")
            times, steps = seq.times, np.diff(seq.times)
            step = _median(steps)
            if np.any(np.abs(steps - step) > TIME_TOLERANCE * step):
                raise GaitViewError(
                    f"sample steps range over {steps.min():g}..{steps.max():g} s, not within "
                    f"{TIME_TOLERANCE:.0%} of their median {step:g} s")
            if cfg.apply_filter:
                specs[view] = FilterSpec(cfg.cutoff_hz, _rate(times), cfg.filter_order)
                specs[view].check_length(len(seq))
            if view is ViewLabel.MOCAP3D:
                times3d, step3d = times, step  # the first file of every trial
                first3d = first3d or (trial.subject_index, seq.names)
                absent = [name for name in first3d[1] if name not in seq.names]
                if pooled and absent:
                    raise GaitViewError(f"missing markers {', '.join(absent)}: pooled PCA reads "
                                        f"those of subject {first3d[0]}'s mocap3d file")
            spacing = max(step, step3d)
            if max(abs(times[0] - times3d[0]), abs(times[-1] - times3d[-1])) > spacing:
                raise GaitViewError(
                    f"time span {times[0]:g}..{times[-1]:g} s differs from the mocap3d "
                    f"file's {times3d[0]:g}..{times3d[-1]:g} s by more than the coarser of "
                    f"the two files' median steps ({spacing:g} s)")
            seqs[view] = seq
    if cfg.apply_filter:
        seqs = dict(zip(seqs, smooth(list(seqs.values()), list(specs.values()))))
    signals, matrices = {}, {}
    for view, seq in seqs.items():
        with _naming(trial, view, files[view]):
            signals[view] = extract_all(seq, cfg.marker_map).signals
            names = (KEYPOINT_NAMES if view is not ViewLabel.MOCAP3D
                     else first3d[1] if pooled else seq.names)
            matrices[view] = pca_matrix(seq, names)
    signals3d = signals.pop(ViewLabel.MOCAP3D)
    records = []
    for feature in cfg.features:
        for side in FEATURE_SIDES[feature]:
            key = (feature, side)
            records += compute_records(
                trial, feature, side, signals3d[key],
                {view: signals2d[key] for view, signals2d in signals.items()},
                cfg.metric_cfg,
            )
    return records, matrices, first3d


def _rate(times: np.ndarray) -> float:
    """Mean rate of increasing times, to 1 uHz: ms-rounded 30 fps reads 30, decimal 100 Hz 100."""
    return round((len(times) - 1) / float(times[-1] - times[0]), 6)


def _median(values: np.ndarray) -> float:
    """Median by sorting: np.median imports numpy.ma, 1 MB more peak memory."""
    values = np.sort(values)
    return float(values[(len(values) - 1) // 2] + values[len(values) // 2]) / 2


@contextlib.contextmanager
def _naming(trial: TrialId, view: ViewLabel, path: Path):
    """Re-raise a failure as a GaitViewError naming the subject, trial, view and file."""
    try:
        yield
    except (GaitViewError, ValueError, OSError) as exc:
        raise GaitViewError(f"(subject {trial.subject_index}, trial {trial.trial_index}, "
                            f"{view.value}, {path}): {exc}") from exc


def run_analysis(cfg: RunConfig) -> None:
    """Full pipeline over every subject in the manifest, ending in the report
    files. One trial's sequences are in memory at a time: per-subject PCA is
    fitted as each trial is scored, and pooled PCA keeps each view's float
    matrices until every trial is in, then stacks them in trial order."""
    if not cfg.manifest.exists():
        raise GaitViewError(f"manifest not found: {cfg.manifest}")
    manifest = load_manifest(cfg.manifest)
    if not manifest:
        raise GaitViewError(f"manifest {cfg.manifest} lists no subjects")
    records: list[MetricRecord] = []
    pca_rows: list[tuple[str, int, int, float]] = []
    parts: dict[ViewLabel, list[np.ndarray]] = {view: [] for view in _TRIAL_VIEWS}
    first3d = None
    for trial in sorted(manifest):
        trial_records, matrices, first3d = _score_trial(cfg, trial, manifest[trial], first3d)
        records += trial_records
        for view, values in matrices.items():
            if cfg.pca_scope == "pooled":
                parts[view].append(values)
                continue
            with _naming(trial, view, manifest[trial][view.value]):
                pca_rows.append(_pca_row(f"{view.value}_s{trial.subject_index:02d}",
                                         values, cfg.pca_threshold))
    if cfg.pca_scope == "pooled":  # each view's list of parts is freed before its SVD, and
        # mocap3d's matrix, the widest, is fitted last, once the pose views' parts are gone
        pca_rows = [_pca_row(view.value, np.concatenate(parts.pop(view)), cfg.pca_threshold)
                    for view in reversed(_TRIAL_VIEWS)]

    # (feature, side, view) -> records in trial order; load_manifest gives every
    # subject each view, so two views' lists pair subject by subject
    groups: dict[tuple, list[MetricRecord]] = {}
    for rec in records:
        groups.setdefault((rec.feature, rec.side, rec.view), []).append(rec)
    stat_results, radar = _view_comparisons(groups, cfg)
    write_reports(cfg.out_dir, records, stat_results, pca_rows, radar, {
        "gaitview_version": __version__, "config_hash": cfg.fingerprint(),
        "manifest": str(cfg.manifest), "alpha": cfg.alpha, "pca_threshold": cfg.pca_threshold,
        "normalize": cfg.metric_cfg.normalize, "histogram_bins": cfg.metric_cfg.histogram_bins,
        "cutoff_hz": cfg.cutoff_hz, "filter_order": cfg.filter_order,
    })


def _pca_row(group: str, values: np.ndarray, threshold: float) -> tuple[str, int, int, float]:
    """(group, initial_dim, k, explained_ratio) of one PCA group's matrix,
    which the fit centers in place: nothing reads it again."""
    result = pca_fit(FeatureMatrix(values), threshold)
    return group, values.shape[1], result.k, result.explained_ratio


def _view_comparisons(groups, cfg) -> tuple[list[StatResult], dict]:
    """Per (feature, side) and metric of cfg, from the records grouped by
    (feature, side, view): the paired comparison of the frontal and lateral
    scores, and the radar axis, whose view means are min-max normalized so
    the better-direction extreme is exactly 1 and the worse exactly 0."""
    stat_results, radar = [], {}
    for feature in cfg.features:
        for side in FEATURE_SIDES[feature]:
            axes = radar[signal_key_name(feature, side)] = {}
            pair = [groups[feature, side, view] for view in (ViewLabel.FRONTAL, ViewLabel.LATERAL)]
            for metric in cfg.metrics:
                attr = "ie_2d" if metric == "ie" else metric  # IE compares the 2D entropies
                scores = [[getattr(r, attr) for r in recs] for recs in pair]
                stat_results.append(compare_views(*scores, feature, side, metric, cfg.alpha))
                if metric == "ie":  # IE has no better direction in reports; the radar
                    # reads the closeness of the 2D entropy to the 3D entropy, lower is better
                    scores = [[abs(r.ie_2d - r.ie_3d) for r in recs] for recs in pair]
                f, l = (float(np.mean(values)) for values in scores)
                sign = -1.0 if METRIC_DIRECTION[metric] == "higher" else 1.0
                frontal = 0.5 if f == l else float(sign * f < sign * l)
                axes[metric] = {"frontal": frontal, "lateral": 1.0 - frontal}
    return stat_results, radar
