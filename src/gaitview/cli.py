"""Command-line orchestration: synth | analyze | recommend | version.

analyze runs ingest -> gap fill -> zero-phase filter -> feature extraction
-> metrics -> paired stats -> PCA and writes deterministic CSV/JSON
reports (6 significant digits in CSV, full precision in JSON, sorted keys
and fixed row order, so identical inputs give byte-identical outputs).
Each trial's files are parsed and repaired one by one, filtered in one
smooth call, then reduced to features; an error names the subject, trial,
view and file it came from. The reports are replaced as a set: analyze
writes them all into a temporary directory inside the output directory,
checks that none of their names there is taken by a directory or another
non-file, then moves them in and deletes the stats_<feature>.csv and
recommendations.csv an earlier run left that this run did not write. A run
that fails before the move leaves the output directory as it was, and files
gaitview does not own are never touched.
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
import tempfile
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
ALL_METRICS = tuple(METRIC_DIRECTION)
PCA_SCOPES = ("pooled", "per-subject")
_TRIAL_VIEWS = (ViewLabel.MOCAP3D, ViewLabel.FRONTAL, ViewLabel.LATERAL)  # files of a trial
# relative: every sample step vs. its file's median step, and the file's rate
# vs. the filter's; passes 33/34 ms steps of 30 fps, rejects one dropped frame
TIME_TOLERANCE = 0.1
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
        """sha256 of every setting but the manifest and output paths."""
        payload = dataclasses.asdict(self)
        del payload["manifest"], payload["out_dir"]
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


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
    sequences in one call, then extract features; returns the sequences and
    the features, each keyed by view in _TRIAL_VIEWS order. A file is
    rejected if it has no frames, if a sample step is not within
    TIME_TOLERANCE of its median step, if the filter runs and the rate
    1 / median step is not within TIME_TOLERANCE of the filter's, or, for a
    pose file, if its first or last time is more than the mocap3d file's
    median step from the mocap3d file's. A failure names the subject,
    trial, view and file."""
    if "mocap3d" not in paths:
        raise GaitViewError(f"subject {trial.subject_index}: manifest lists no mocap3d file")
    files = {view: paths[view.value] for view in _TRIAL_VIEWS if view.value in paths}
    seqs = {}
    for view, path in files.items():
        with _naming(trial, view, path):
            if not path.exists():
                raise GaitViewError("missing file")
            if view is ViewLabel.MOCAP3D:
                seq = parse_marker_csv(path)
            else:
                seq = fill_gaps(parse_pose_csv(path, view=view),
                                cfg.conf_threshold, cfg.max_gap)
            if not len(seq):
                raise GaitViewError("no frames")
            times, steps = seq.times, np.diff(seq.times)
            step, rate = _median(steps), cfg.filter_spec.sample_rate_hz
            if np.any(np.abs(steps - step) > TIME_TOLERANCE * step):
                raise GaitViewError(
                    f"sample steps range over {steps.min():g}..{steps.max():g} s, not within "
                    f"{TIME_TOLERANCE:.0%} of their median {step:g} s")
            if cfg.apply_filter and len(steps) and abs(1 / step - rate) > TIME_TOLERANCE * rate:
                raise GaitViewError(
                    f"sample rate {1 / step:g} Hz (median step {step:g} s) is not within "
                    f"{TIME_TOLERANCE:.0%} of the filter's sample-rate-hz, {rate:g} Hz")
            if view is ViewLabel.MOCAP3D:
                times3d, spacing = times, step  # the first file of every trial
            if max(abs(times[0] - times3d[0]), abs(times[-1] - times3d[-1])) > spacing:
                raise GaitViewError(
                    f"time span {times[0]:g}..{times[-1]:g} s differs from the mocap3d "
                    f"file's {times3d[0]:g}..{times3d[-1]:g} s by more than its sample "
                    f"spacing ({spacing:g} s)")
            seqs[view] = seq
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
            feats[view] = extract_all(seq, cfg.marker_map)
    return seqs, feats


def _median(values: np.ndarray) -> float:
    """Median by sorting, 0 for no values: np.median imports numpy.ma, 1 MB
    more peak memory."""
    values = np.sort(values) if len(values) else np.zeros(1)
    return float(values[(len(values) - 1) // 2] + values[len(values) // 2]) / 2


@contextlib.contextmanager
def _naming(trial: TrialId, view: ViewLabel, path: Path):
    """Re-raise a failure as InputFileError naming the subject, trial, view and file."""
    try:
        yield
    except (GaitViewError, ValueError, OSError) as exc:
        raise InputFileError(trial.subject_index, trial.trial_index, view.value, path,
                             exc) from exc


def run_analysis(cfg: RunConfig) -> None:
    """Full pipeline over every subject in the manifest, ending in the report files."""
    manifest = load_manifest(cfg.manifest)
    if not manifest:
        raise GaitViewError(f"manifest {cfg.manifest} lists no subjects")
    records: list[MetricRecord] = []
    sequences: list[tuple[int, ViewLabel, object]] = []  # (subject, view, sequence)
    for trial in sorted(manifest):
        seqs, feats = _process_trial(cfg, trial, manifest[trial])
        sequences += [(trial.subject_index, view, seq) for view, seq in seqs.items()]
        signals3d = feats.pop(ViewLabel.MOCAP3D).signals
        for feature in cfg.features:
            for side in FEATURE_SIDES[feature]:
                key = (feature, side)
                records += compute_records(
                    trial, feature, side, signals3d[key],
                    {view: feats2d.signals[key] for view, feats2d in feats.items()},
                    cfg.metric_cfg,
                )

    stat_results: list[StatResult] = []
    for feature in cfg.features:
        for side in FEATURE_SIDES[feature]:
            for metric in cfg.metrics:
                stat_results.append(compare_views(records, feature, side, metric, cfg.alpha))
    _write_outputs(cfg, records, stat_results, _pca_rows(cfg, sequences),
                   _radar_data(records, cfg))


def _pca_rows(cfg, sequences) -> list[tuple[str, int, int, float]]:
    """(group, initial_dim, k, explained_ratio) per PCA group: one group per
    view of every sequence pooled, or one per (subject, view)."""
    if cfg.pca_scope == "pooled":
        groups = [(view.value, view, [seq for _, v, seq in sequences if v is view])
                  for view in _TRIAL_VIEWS]
    else:
        groups = [(f"{view.value}_s{subject:02d}", view, [seq])
                  for subject, view, seq in sequences]
    rows = []
    for name, view, seqs in groups:
        if not seqs:
            continue
        matrix = marker_matrix(seqs) if view is ViewLabel.MOCAP3D else pose_matrix(seqs)
        result = pca_fit(matrix, cfg.pca_threshold)
        rows.append((name, matrix.n_cols, result.k, result.explained_ratio))
    return rows


def _radar_data(records, cfg) -> dict:
    """Per (feature, side) and metric: view means min-max normalized so the
    better-direction extreme is exactly 1 and the worse exactly 0. Every
    view is present: compare_views has raised UnpairedSubject otherwise."""
    groups: dict[tuple, list[MetricRecord]] = {}  # (feature, side, view) -> records in order
    for rec in records:
        groups.setdefault((rec.feature, rec.side, rec.view), []).append(rec)
    radar: dict[str, dict[str, dict[str, float]]] = {}
    for feature in cfg.features:
        for side in FEATURE_SIDES[feature]:
            axes = radar[signal_key_name(feature, side)] = {}
            for metric in cfg.metrics:
                # IE has no better direction in reports; for the radar we use closeness
                # of the 2D entropy to the 3D entropy as the fidelity axis, lower is better
                f, l = (float(np.mean([abs(r.ie_2d - r.ie_3d) if metric == "ie"
                                       else getattr(r, metric)
                                       for r in groups[feature, side, view]]))
                        for view in (ViewLabel.FRONTAL, ViewLabel.LATERAL))
                sign = -1.0 if METRIC_DIRECTION[metric] == "higher" else 1.0
                frontal = 0.5 if f == l else float(sign * f < sign * l)
                axes[metric] = {"frontal": frontal, "lateral": 1.0 - frontal}
    return radar


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_outputs(cfg, records, stat_results, pca_rows, radar):
    """Write every report into a temporary directory inside the output
    directory, then move them into it and delete the stats_<feature>.csv
    and recommendations.csv of an earlier run that this run did not write.
    A report that cannot be written, or a target name taken by a directory
    or another non-file, fails before the first move, and the temporary
    directory goes on every exit path."""
    out = cfg.out_dir
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
        for feature in sorted({res.feature for res in stat_results}, key=lambda f: f.value):
            rows = sorted((r for r in stat_results if r.feature is feature),
                          key=lambda r: (r.metric, r.side.value))
            _write_csv(tmp / f"stats_{feature.value}.csv", STATS_HEADER, (
                [r.metric if r.side is SideLabel.BILATERAL else f"{r.metric}_{r.side.value}",
                 _fmt(r.mean_sd_a[0]), _fmt(r.mean_sd_a[1]),
                 _fmt(r.mean_sd_b[0]), _fmt(r.mean_sd_b[1]),
                 _fmt(r.p_value), _fmt(r.cliffs_delta), r.effect_label, r.winner]
                for r in rows
            ))
        _write_csv(tmp / "pca_summary.csv", PCA_HEADER,
                   ([name, dim, k, _fmt(ratio)] for name, dim, k, ratio in sorted(pca_rows)))
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
        for name, data in (("radar.json", radar), ("run_metadata.json", meta)):
            (tmp / name).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n",
                                    encoding="utf-8")

        written = sorted(path.name for path in tmp.iterdir())
        # reports of an earlier run that this run did not write, which recommend would read
        stale = [name for name in [f"stats_{f.value}.csv" for f in FeatureName] + [RECOMMENDATIONS]
                 if name not in written]
        for name in written + stale:
            if (out / name).exists() and not (out / name).is_file():
                raise GaitViewError(f"{out / name} is not a file; the reports in {out} "
                                    "are left as they were")
        for name in written:
            os.replace(tmp / name, out / name)
    for name in stale:
        (out / name).unlink(missing_ok=True)


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
                metric, _, side = row["metric"].partition("_")
                if METRIC_DIRECTION.get(metric) is None:
                    continue
                side_votes = votes.setdefault(side or "bilateral", [])
                if float(row["p_value"]) < alpha and row["winner"] in ("frontal", "lateral"):
                    side_votes.append((metric, row["winner"]))
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
    p_an.add_argument("--config", help="key=value config file; flags override it")
    for key, parse in CONFIG_KEYS.items():
        if key in _NEGATED_FLAGS:  # None unless given, so an unset flag leaves the file's value
            p_an.add_argument(_NEGATED_FLAGS[key], dest=key, action="store_false", default=None)
        else:
            p_an.add_argument("--" + key.replace("_", "-"), type=parse, help=_HELP.get(key))
    p_an.set_defaults(out=os.environ.get(OUT_DIR_ENV) or None)  # an empty GAITVIEW_OUT is unset

    p_rec = sub.add_parser("recommend", help="per-parameter view recommendation")
    p_rec.add_argument("--analyzed", required=True, help="directory written by analyze")
    p_rec.add_argument("--alpha", type=_alpha, default=0.05)

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
        raise argparse.ArgumentTypeError(f"expected one of {'/'.join(PCA_SCOPES)}, got {raw!r}")
    return raw


def _bounded(convert, accepts, bounds: str):
    """Parser of a flag and its --config key that rejects values outside bounds."""
    def parse(raw: str):
        value = convert(raw)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {raw}")
        return value
    parse.__name__ = convert.__name__  # argparse names it in "invalid float value"
    return parse


_alpha = _bounded(float, lambda v: 0 < v < 1, "in (0, 1)")
_pca_threshold = _bounded(float, lambda v: 0 < v <= 1, "in (0, 1]")
_conf_threshold = _bounded(float, lambda v: 0 <= v <= 1, "in [0, 1]")
_max_gap = _bounded(int, lambda v: v >= 0, ">= 0")

# --config keys (a dash reads as an underscore) and the parser of each value;
# each key is also the analyze flag --<key>, but for the negated booleans
CONFIG_KEYS = {
    "out": str, "alpha": _alpha, "pca_threshold": _pca_threshold, "pca_scope": _pca_scope,
    "cutoff_hz": float, "sample_rate_hz": float, "filter_order": int,
    "apply_filter": _boolean, "normalize": _boolean, "histogram_bins": int,
    "log_base": float, "smoothing_epsilon": float, "conf_threshold": _conf_threshold,
    "max_gap": _max_gap, "features": str, "metrics": str, "marker_map": str,
}
_NEGATED_FLAGS = {"apply_filter": "--no-filter", "normalize": "--no-normalize"}
_HELP = {"features": "comma-separated feature names", "metrics": "comma-separated metric names",
         "marker_map": "role = marker config file"}


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
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise GaitViewError(f"{path}: {raw_key}: {exc}") from None
    return settings


def _names(raw: str, noun: str, valid: tuple[str, ...]) -> tuple[str, ...]:
    """A comma-separated features/metrics value -> its names; an empty,
    unknown or repeated name raises ValueError."""
    names = [name.strip() for name in raw.split(",")]
    for name in names:
        if not name:
            raise ValueError(f"empty name in {raw!r}")
        if name not in valid:
            raise ValueError(f"unknown {noun} {name!r}, expected one of {'/'.join(valid)}")
        if names.count(name) > 1:
            raise ValueError(f"{name!r} is listed twice")
    return tuple(names)


# values parsed once flags and --config are merged; an error names the key, and the
# --config file when the value came from it
_RESOLVED = {
    "features": lambda raw: tuple(map(FeatureName, _names(
        raw, "feature", tuple(feature.value for feature in FeatureName)))),
    "metrics": lambda raw: _names(raw, "metric", ALL_METRICS),
    "marker_map": load_marker_map,
}


def _take(settings: dict, cls) -> dict:
    """Pop the settings that name a field of dataclass cls."""
    return {f.name: settings.pop(f.name) for f in dataclasses.fields(cls) if f.name in settings}


def _run_config_from_args(args) -> RunConfig:
    """Each setting from its flag, else from --config; a setting neither
    gives keeps the default of the dataclass that holds it."""
    settings = _read_config(args.config) if args.config else {}
    # flags win; the --out default reads GAITVIEW_OUT, so it wins over the file's out
    flags = {key: value for key, value in vars(args).items()
             if key in CONFIG_KEYS and value is not None}
    settings.update(flags)
    out = settings.pop("out", None)
    if not out:
        raise GaitViewError("no output directory: pass --out or set " + OUT_DIR_ENV)
    if "filter_order" in settings:
        settings["order"] = settings.pop("filter_order")
    filter_spec = FilterSpec(**_take(settings, FilterSpec))
    metric_cfg = MetricConfig(**_take(settings, MetricConfig))
    for key, resolve in _RESOLVED.items():
        if key in settings:
            try:
                settings[key] = resolve(settings[key])
            except (GaitViewError, ValueError, OSError) as exc:
                source = "" if key in flags else f"{args.config}: "
                raise GaitViewError(f"{source}{key}: {exc}") from None
    return RunConfig(manifest=Path(args.manifest), out_dir=Path(out),
                     filter_spec=filter_spec, metric_cfg=metric_cfg, **settings)


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
