"""Command-line orchestration: synth | analyze | recommend | version.

analyze runs ingest -> gap fill -> zero-phase filter -> feature extraction
-> metrics -> paired stats -> PCA and writes deterministic CSV/JSON
reports (6 significant digits in CSV, full precision in JSON, sorted keys
and fixed row order, so identical inputs give byte-identical outputs).
Each trial's files are parsed and repaired one by one, filtered in one
smooth call, then reduced to features; an error names the subject, trial,
view and file it came from. Once every report is written, analyze deletes
the stats_<feature>.csv and recommendations.csv an earlier run left in the
output directory that this run did not write.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .dimred import FeatureMatrix, marker_matrix, pca_fit, pose_matrix
from .errors import GaitViewError, InputFileError, NotAnalyzed, ParseError, SignalTooShort
from .features import FEATURE_SIDES, FeatureName, extract_all, signal_key_name
from .ingest import (
    DEFAULT_CONF_THRESHOLD,
    DEFAULT_MAX_GAP,
    _read_key_values,
    fill_gaps,
    load_marker_map,
    parse_marker_csv,
    parse_pose_csv,
)
from .metrics import MetricConfig, MetricRecord, compute_records
from .preprocess import FilterSpec, smooth
from .signal_core import SideLabel, TrialId, ViewLabel
from .stats import METRIC_DIRECTION, StatResult, compare_views
from .synth import GaitModelParams, make_paired_dataset

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
ALL_METRICS = ("dtw", "mcc", "kld", "ie")
PCA_SCOPES = ("pooled", "per-subject")
_TRIAL_VIEWS = (ViewLabel.MOCAP3D, ViewLabel.FRONTAL, ViewLabel.LATERAL)  # files of a trial
OUT_DIR_ENV = "GAITVIEW_OUT"


@dataclass
class RunConfig:
    manifest: Path
    out_dir: Path
    alpha: float = 0.05
    pca_threshold: float = 0.95
    pca_scope: str = "pooled"  # one of PCA_SCOPES
    apply_filter: bool = True
    filter_spec: FilterSpec = field(default_factory=FilterSpec)
    metric_cfg: MetricConfig = field(default_factory=MetricConfig)
    conf_threshold: float = DEFAULT_CONF_THRESHOLD
    max_gap: int = DEFAULT_MAX_GAP
    features: tuple[FeatureName, ...] = tuple(FeatureName)
    metrics: tuple[str, ...] = ALL_METRICS
    marker_map: dict[str, str] | None = None

    def fingerprint(self) -> str:
        payload = {
            "alpha": self.alpha,
            "pca_threshold": self.pca_threshold,
            "pca_scope": self.pca_scope,
            "apply_filter": self.apply_filter,
            "filter_spec": dataclasses.asdict(self.filter_spec),
            "metric_cfg": dataclasses.asdict(self.metric_cfg),
            "conf_threshold": self.conf_threshold,
            "max_gap": self.max_gap,
            "features": [f.value for f in self.features],
            "metrics": list(self.metrics),
            "marker_map": self.marker_map,
        }
        blob = json.dumps(payload, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def load_manifest(path: Path) -> dict[TrialId, dict[str, Path]]:
    """manifest.csv -> {trial: {kind: absolute file path}}.

    A row with an empty or missing cell, a cell beyond the header, a
    subject or trial that is not an integer >= 1, an unknown kind, a
    repeated (subject, kind) or a subject listed under a second trial raises
    ParseError naming the manifest line and column: one trial per subject
    is supported.
    """
    base = path.parent
    kinds = {view.value for view in ViewLabel}
    out: dict[int, tuple[int, dict[str, Path]]] = {}
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        required = ("subject", "trial", "kind", "path")
        if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
            raise GaitViewError(f"manifest {path} must have columns {sorted(required)}")

        def error(column: str, reason: str) -> ParseError:
            return ParseError(reader.line_num, reader.fieldnames.index(column) + 1, reason, path)

        def index(row: dict, column: str) -> int:
            if not row[column].isdecimal() or int(row[column]) < 1:
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
    return {TrialId(subject, trial): files for subject, (trial, files) in out.items()}


def _process_trial(cfg: RunConfig, trial: TrialId, paths: dict[str, Path]):
    """Parse and repair each file of one subject's trial, filter the trial's
    sequences in one call, then extract features; a failure names the
    subject, trial, view and file."""
    if "mocap3d" not in paths:
        raise GaitViewError(f"subject {trial.subject_index}: manifest lists no mocap3d file")
    files = {view: paths[view.value] for view in _TRIAL_VIEWS if view.value in paths}
    seqs = {}
    for view, path in files.items():
        with _naming(trial, view, path):
            if not path.exists():
                raise GaitViewError("missing file")
            if view is ViewLabel.MOCAP3D:
                seqs[view] = parse_marker_csv(path)
            else:
                seqs[view] = fill_gaps(parse_pose_csv(path, view=view),
                                       cfg.conf_threshold, cfg.max_gap)
    if cfg.apply_filter:
        spec = cfg.filter_spec
        try:
            seqs = dict(zip(seqs, smooth(list(seqs.values()), spec)))
        except SignalTooShort:
            view = next(view for view, seq in seqs.items()
                        if len(seq) <= spec.pad_len and seq.complete.any())
            with _naming(trial, view, files[view]):
                raise  # as the InputFileError of the first sequence too short to filter
    feats = {}
    for view, seq in seqs.items():
        with _naming(trial, view, files[view]):
            feats[view] = extract_all(seq, cfg.marker_map, trial=trial, source=view)
    view_feats = {view: (seqs[view], feats[view]) for view in seqs}
    del view_feats[ViewLabel.MOCAP3D]
    return seqs[ViewLabel.MOCAP3D], feats[ViewLabel.MOCAP3D], view_feats


@contextlib.contextmanager
def _naming(trial: TrialId, view: ViewLabel, path: Path):
    """Re-raise a failure as InputFileError naming the subject, trial, view and file."""
    try:
        yield
    except (GaitViewError, ValueError, OSError) as exc:
        raise InputFileError(trial.subject_index, trial.trial_index, view.value, path,
                             exc) from exc


def run_analysis(cfg: RunConfig) -> dict:
    """Full pipeline over every subject in the manifest; returns the bundle
    (records, stats, pca rows, radar data) after writing all report files."""
    manifest = load_manifest(cfg.manifest)
    if not manifest:
        raise GaitViewError(f"manifest {cfg.manifest} lists no subjects")
    records: list[MetricRecord] = []
    pooled_pose: dict[ViewLabel, list] = {ViewLabel.FRONTAL: [], ViewLabel.LATERAL: []}
    pooled_markers: list = []
    per_subject_seqs: list[tuple[int, ViewLabel, object]] = []

    for trial in sorted(manifest):
        subject = trial.subject_index
        markers, feats3d, view_feats = _process_trial(cfg, trial, manifest[trial])
        pooled_markers.append(markers)
        per_subject_seqs.append((subject, ViewLabel.MOCAP3D, markers))
        views = sorted(view_feats.items(), key=lambda kv: kv[0].value)
        for view, (pose, _) in views:
            pooled_pose[view].append(pose)
            per_subject_seqs.append((subject, view, pose))
        scored = []
        for feature in cfg.features:
            for side in FEATURE_SIDES[feature]:
                key = (feature, side)
                scored += compute_records(
                    trial, feature, side, feats3d.signals[key],
                    {view: feats2d.signals[key] for view, (_, feats2d) in views},
                    cfg.metric_cfg,
                )
        records += sorted(scored, key=lambda rec: rec.view.value)  # stable: view, feature, side

    stat_results: list[StatResult] = []
    for feature in cfg.features:
        for side in FEATURE_SIDES[feature]:
            for metric in cfg.metrics:
                stat_results.append(compare_views(records, feature, side, metric, cfg.alpha))

    pca_rows = _pca_rows(cfg, pooled_pose, pooled_markers, per_subject_seqs)
    radar = _radar_data(records, cfg)
    _write_outputs(cfg, records, stat_results, pca_rows, radar)
    return {
        "records": records,
        "stats": stat_results,
        "pca": pca_rows,
        "radar": radar,
    }


def _pca_rows(cfg, pooled_pose, pooled_markers, per_subject_seqs):
    rows = []
    if cfg.pca_scope == "pooled":
        groups = [
            (ViewLabel.FRONTAL.value, pose_matrix(pooled_pose[ViewLabel.FRONTAL])
             if pooled_pose[ViewLabel.FRONTAL] else None),
            (ViewLabel.LATERAL.value, pose_matrix(pooled_pose[ViewLabel.LATERAL])
             if pooled_pose[ViewLabel.LATERAL] else None),
            (ViewLabel.MOCAP3D.value, marker_matrix(pooled_markers)),
        ]
    else:
        groups = []
        for subject, view, seq in per_subject_seqs:
            name = f"{view.value}_s{subject:02d}"
            matrix = marker_matrix([seq]) if view is ViewLabel.MOCAP3D else pose_matrix([seq])
            groups.append((name, matrix))
    for name, matrix in groups:
        if matrix is None:
            continue
        result = pca_fit(matrix, cfg.pca_threshold)
        rows.append(
            {
                "group": name,
                "initial_dim": matrix.n_cols,
                "k": result.k,
                "explained_ratio": result.explained_ratio,
            }
        )
    return rows


def _radar_metric_value(rec: MetricRecord, metric: str) -> float:
    # IE has no better direction in reports; for the radar we use closeness
    # of the 2D entropy to the 3D entropy as the fidelity axis, lower is better
    if metric == "ie":
        return abs(rec.ie_2d - rec.ie_3d)
    return getattr(rec, metric)


def _radar_data(records, cfg) -> dict:
    """Per (feature, side) and metric: view means min-max normalized so the
    better-direction extreme is exactly 1 and the worse exactly 0."""
    radar: dict[str, dict[str, dict[str, float]]] = {}
    for feature in cfg.features:
        for side in FEATURE_SIDES[feature]:
            key = signal_key_name(feature, side)
            axes: dict[str, dict[str, float]] = {}
            for metric in cfg.metrics:
                means = {}
                for view in (ViewLabel.FRONTAL, ViewLabel.LATERAL):
                    vals = [
                        _radar_metric_value(r, metric)
                        for r in records
                        if r.feature == feature and r.side == side and r.view == view
                    ]
                    if vals:
                        means[view.value] = float(np.mean(vals))
                if len(means) != 2:
                    continue
                lower_is_better = (METRIC_DIRECTION[metric] or "lower") == "lower"
                f, l = means["frontal"], means["lateral"]
                if f == l:
                    axes[metric] = {"frontal": 0.5, "lateral": 0.5}
                else:
                    better_frontal = (f < l) == lower_is_better
                    axes[metric] = {
                        "frontal": 1.0 if better_frontal else 0.0,
                        "lateral": 0.0 if better_frontal else 1.0,
                    }
            if axes:
                radar[key] = axes
    return radar


def _write_outputs(cfg, records, stat_results, pca_rows, radar):
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    try:
        path = out / "metric_records.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            written.append(path)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(RECORDS_HEADER)
            ordered = sorted(
                records,
                key=lambda r: (r.trial.subject_index, r.trial.trial_index,
                               r.feature.value, r.side.value, r.view.value),
            )
            for r in ordered:
                writer.writerow([
                    r.trial.subject_index, r.trial.trial_index,
                    r.feature.value, r.side.value, r.view.value,
                    _fmt(r.dtw), _fmt(r.mcc), r.mcc_lag,
                    _fmt(r.kld), _fmt(r.ie_2d), _fmt(r.ie_3d),
                ])

        by_feature: dict[FeatureName, list[StatResult]] = {}
        for res in stat_results:
            by_feature.setdefault(res.feature, []).append(res)
        for feature in sorted(by_feature, key=lambda f: f.value):
            path = out / f"stats_{feature.value}.csv"
            with open(path, "w", encoding="utf-8", newline="") as fh:
                written.append(path)
                writer = csv.writer(fh, lineterminator="\n")
                writer.writerow(STATS_HEADER)
                rows = sorted(
                    by_feature[feature], key=lambda r: (r.metric, r.side.value)
                )
                for r in rows:
                    name = r.metric if r.side is SideLabel.BILATERAL else f"{r.metric}_{r.side.value}"
                    writer.writerow([
                        name,
                        _fmt(r.mean_sd_a[0]), _fmt(r.mean_sd_a[1]),
                        _fmt(r.mean_sd_b[0]), _fmt(r.mean_sd_b[1]),
                        _fmt(r.p_value), _fmt(r.cliffs_delta),
                        r.effect_label, r.winner,
                    ])

        path = out / "pca_summary.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            written.append(path)
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(PCA_HEADER)
            for row in sorted(pca_rows, key=lambda r: r["group"]):
                writer.writerow([
                    row["group"], row["initial_dim"], row["k"], _fmt(row["explained_ratio"]),
                ])

        path = out / "radar.json"
        written.append(path)
        path.write_text(json.dumps(radar, sort_keys=True, indent=2) + "\n", encoding="utf-8")

        path = out / "run_metadata.json"
        written.append(path)
        meta = {
            "gaitview_version": __version__,
            "config_hash": cfg.fingerprint(),
            "manifest": str(cfg.manifest),
            "alpha": cfg.alpha,
            "pca_threshold": cfg.pca_threshold,
            "normalize": cfg.metric_cfg.normalize,
            "histogram_bins": cfg.metric_cfg.histogram_bins,
            "cutoff_hz": cfg.filter_spec.cutoff_hz,
            "filter_order": cfg.filter_spec.order,
        }
        path.write_text(json.dumps(meta, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    except BaseException:
        for p in written:
            p.unlink(missing_ok=True)
        raise
    # reports of an earlier run that this run did not write, which recommend would read
    for path in [out / f"stats_{f.value}.csv" for f in FeatureName] + [out / RECOMMENDATIONS]:
        if path not in written:
            path.unlink(missing_ok=True)


def recommend(analyzed_dir, alpha: float = 0.05) -> list[dict]:
    """Per (feature, side) view recommendation from a completed analyze run.

    Majority vote of significant winners of the metrics with a better
    direction (not IE). Writes recommendations.csv into the analyzed dir.
    """
    analyzed = Path(analyzed_dir)
    stats_files = sorted(analyzed.glob("stats_*.csv"))
    if not stats_files:
        raise NotAnalyzed(f"no stats_*.csv files in {analyzed}")
    rows: list[dict] = []
    for path in stats_files:
        feature = path.stem[len("stats_"):]
        votes: dict[str, list[tuple[str, str]]] = {}
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != STATS_HEADER:
                raise NotAnalyzed(f"{path} does not match the stats schema")
            for row in reader:
                name = row["metric"]
                metric, _, side = name.partition("_")
                side = side or "bilateral"
                if METRIC_DIRECTION.get(metric) is None:
                    continue
                votes.setdefault(side, [])
                if float(row["p_value"]) < alpha and row["winner"] in ("frontal", "lateral"):
                    votes[side].append((metric, row["winner"]))
        for side in sorted(votes):
            contributing = votes[side]
            n_front = sum(1 for _, w in contributing if w == "frontal")
            n_lat = sum(1 for _, w in contributing if w == "lateral")
            if n_front > n_lat:
                choice = "frontal"
            elif n_lat > n_front:
                choice = "lateral"
            else:
                choice = "tie"
            rationale = ";".join(f"{m}:{w}" for m, w in sorted(contributing))
            rows.append({
                "feature": feature, "side": side,
                "recommended_view": choice, "rationale": rationale,
            })
    out_path = analyzed / RECOMMENDATIONS
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["feature", "side", "recommended_view", "rationale"])
        for row in rows:
            writer.writerow([row["feature"], row["side"], row["recommended_view"], row["rationale"]])
    return rows


# --- argument parsing ---------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitview",
        description="Quantify 2D camera-view fidelity of gait signals against 3D ground truth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a paired synthetic dataset")
    p_synth.add_argument("--subjects", type=int, required=True)
    p_synth.add_argument("--frames", type=int, default=169)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--noise-sd", type=float, default=0.0, help="pixel noise sd on projected keypoints")
    p_synth.add_argument("--cycle-hz", type=float, default=1.0)
    p_synth.add_argument("--out", default=os.environ.get(OUT_DIR_ENV), help="output directory")

    p_an = sub.add_parser("analyze", help="run the full comparison pipeline")
    p_an.add_argument("--manifest", required=True)
    p_an.add_argument("--out", default=os.environ.get(OUT_DIR_ENV))
    p_an.add_argument("--config", help="key=value config file; flags override it")
    p_an.add_argument("--alpha", type=float, default=None)
    p_an.add_argument("--pca-threshold", type=float, default=None)
    p_an.add_argument("--pca-scope", choices=PCA_SCOPES, default=None)
    p_an.add_argument("--cutoff-hz", type=float, default=None)
    p_an.add_argument("--filter-order", type=int, default=None)
    p_an.add_argument("--sample-rate-hz", type=float, default=None)
    p_an.add_argument("--no-filter", action="store_true")
    p_an.add_argument("--no-normalize", action="store_true")
    p_an.add_argument("--histogram-bins", type=int, default=None)
    p_an.add_argument("--log-base", type=float, default=None)
    p_an.add_argument("--smoothing-epsilon", type=float, default=None)
    p_an.add_argument("--conf-threshold", type=float, default=None)
    p_an.add_argument("--max-gap", type=int, default=None)
    p_an.add_argument("--features", default=None, help="comma-separated feature names")
    p_an.add_argument("--metrics", default=None, help="comma-separated metric names")
    p_an.add_argument("--marker-map", default=None, help="role = marker config file")

    p_rec = sub.add_parser("recommend", help="per-parameter view recommendation")
    p_rec.add_argument("--analyzed", required=True, help="directory written by analyze")
    p_rec.add_argument("--alpha", type=float, default=0.05)

    sub.add_parser("version", help="print version and exit")
    return parser


_BOOLEANS = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False, "on": True, "off": False}


def _boolean(raw: str) -> bool:
    if raw.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {raw!r}")
    return _BOOLEANS[raw.lower()]


def _pca_scope(raw: str) -> str:
    if raw not in PCA_SCOPES:
        raise ValueError(f"expected one of {'/'.join(PCA_SCOPES)}, got {raw!r}")
    return raw


# --config keys (a dash reads as an underscore) and the parser of each value
CONFIG_KEYS = {
    "out": str, "alpha": float, "pca_threshold": float, "pca_scope": _pca_scope,
    "cutoff_hz": float, "sample_rate_hz": float, "filter_order": int,
    "apply_filter": _boolean, "normalize": _boolean, "histogram_bins": int,
    "log_base": float, "smoothing_epsilon": float, "conf_threshold": float,
    "max_gap": int, "features": str, "metrics": str, "marker_map": str,
}


def _config_key(key: str) -> str:
    return key.replace("-", "_")


def _read_config(path) -> dict:
    """--config file -> {key: parsed value}. An unknown key, or a value its
    key cannot take, raises GaitViewError naming the file and the key; a key
    set twice (in either spelling) raises ParseError naming the second line."""
    settings = {}
    for raw_key, raw in _read_key_values(path, _config_key).items():
        key = _config_key(raw_key)
        if key not in CONFIG_KEYS:
            raise GaitViewError(f"{path}: unknown key {raw_key!r}")
        try:
            settings[key] = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise GaitViewError(f"{path}: {raw_key}: {exc}") from None
    return settings


def _setting(args, file_cfg: dict, name: str, default):
    flag = getattr(args, name, None)
    return flag if flag is not None else file_cfg.get(name, default)


def _run_config_from_args(args) -> RunConfig:
    file_cfg = _read_config(args.config) if args.config else {}
    out = args.out or file_cfg.get("out") or os.environ.get(OUT_DIR_ENV)
    if not out:
        raise GaitViewError("no output directory: pass --out or set " + OUT_DIR_ENV)
    filter_spec = FilterSpec(
        cutoff_hz=_setting(args, file_cfg, "cutoff_hz", 7.0),
        sample_rate_hz=_setting(args, file_cfg, "sample_rate_hz", 100.0),
        order=_setting(args, file_cfg, "filter_order", 4),
    )
    metric_cfg = MetricConfig(
        normalize=not args.no_normalize and _setting(args, file_cfg, "normalize", True),
        histogram_bins=_setting(args, file_cfg, "histogram_bins", 256),
        log_base=_setting(args, file_cfg, "log_base", 2.0),
        smoothing_epsilon=_setting(args, file_cfg, "smoothing_epsilon", 1e-10),
    )
    feature_names = _setting(args, file_cfg, "features", None)
    features = (
        tuple(FeatureName(name.strip()) for name in feature_names.split(","))
        if feature_names else tuple(FeatureName)
    )
    metric_names = _setting(args, file_cfg, "metrics", None)
    metrics = (
        tuple(name.strip() for name in metric_names.split(","))
        if metric_names else ALL_METRICS
    )
    if not features or not metrics:
        raise GaitViewError("feature and metric selections must be non-empty")
    for metric in metrics:
        if metric not in METRIC_DIRECTION:
            raise GaitViewError(f"unknown metric {metric!r}")
    marker_map_path = _setting(args, file_cfg, "marker_map", None)
    return RunConfig(
        manifest=Path(args.manifest),
        out_dir=Path(out),
        alpha=_setting(args, file_cfg, "alpha", 0.05),
        pca_threshold=_setting(args, file_cfg, "pca_threshold", 0.95),
        pca_scope=_setting(args, file_cfg, "pca_scope", "pooled"),
        apply_filter=not args.no_filter and _setting(args, file_cfg, "apply_filter", True),
        filter_spec=filter_spec,
        metric_cfg=metric_cfg,
        conf_threshold=_setting(args, file_cfg, "conf_threshold", DEFAULT_CONF_THRESHOLD),
        max_gap=_setting(args, file_cfg, "max_gap", DEFAULT_MAX_GAP),
        features=features,
        metrics=metrics,
        marker_map=load_marker_map(marker_map_path) if marker_map_path else None,
    )


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "version":
            print(f"gaitview {__version__}")
            return 0
        if args.command == "synth":
            if not args.out:
                parser.error("synth requires --out (or " + OUT_DIR_ENV + ")")
            params = GaitModelParams(
                n_frames=args.frames,
                cycle_hz=args.cycle_hz,
                noise_sd=args.noise_sd,
                seed=args.seed,
            )
            manifest = make_paired_dataset(params, args.subjects, args.out)
            print(f"wrote {manifest}")
            return 0
        if args.command == "analyze":
            cfg = _run_config_from_args(args)
            if not cfg.manifest.exists():
                raise GaitViewError(f"manifest not found: {cfg.manifest}")
            run_analysis(cfg)
            print(f"analysis written to {cfg.out_dir}")
            return 0
        if args.command == "recommend":
            rows = recommend(args.analyzed, args.alpha)
            for row in rows:
                print(
                    f"{row['feature']:16s} {row['side']:9s} -> "
                    f"{row['recommended_view']:8s} [{row['rationale']}]"
                )
            return 0
    except (GaitViewError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
