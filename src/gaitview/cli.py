"""Command-line entry point: synth | analyze | recommend | version.

This module only parses arguments and settings; pipeline runs analyze and
report runs recommend. Every gaitview module that imports numpy is
registered here to execute on first attribute access (LazyLoader), so
recommend, version and --help start without numpy, while analyze and synth
load what they use. The modules stay in sys.modules under their own names,
so wrapping or patching a module attribute reaches every caller.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from pathlib import Path

from . import __version__, report
from .errors import GaitViewError
from .report import ALL_METRICS


def _register_lazily(name: str):
    """gaitview.<name>, registered in sys.modules to execute on first
    attribute access. A module imported already is returned as it is: a
    second copy would hold a second set of its classes."""
    fullname = f"{__package__}.{name}"
    if fullname in sys.modules:
        return sys.modules[fullname]
    spec = importlib.util.find_spec(fullname)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[fullname] = module
    spec.loader.exec_module(module)
    setattr(sys.modules[__package__], name, module)
    return module


# every module that imports numpy; pipeline imports the analysis modules
signal_core, ingest, features, preprocess, metrics, stats, dimred, synth, pipeline = map(
    _register_lazily, ("signal_core", "ingest", "features", "preprocess", "metrics", "stats",
                       "dimred", "synth", "pipeline"))

PCA_SCOPES = ("pooled", "per-subject")
OUT_DIR_ENV = "GAITVIEW_OUT"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaitview",
        description="Quantify 2D camera-view fidelity of gait signals against 3D ground truth",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a paired synthetic dataset")
    p_synth.add_argument("--subjects", type=int, required=True)
    # None unless given, so each default is GaitModelParams'
    p_synth.add_argument("--frames", type=int, dest="n_frames")
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--noise-sd", type=float, help="pixel noise sd on projected keypoints")
    p_synth.add_argument("--cycle-hz", type=float)
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
    p_rec.add_argument("--alpha", type=_alpha, default=report.DEFAULT_ALPHA)

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
    "cutoff_hz": float, "filter_order": int,
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
    for raw_key, raw in ingest.read_key_values(path, _config_key).items():
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
    "features": lambda raw: tuple(map(features.FeatureName, _names(
        raw, "feature", tuple(feature.value for feature in features.FeatureName)))),
    "metrics": lambda raw: _names(raw, "metric", ALL_METRICS),
    "marker_map": lambda raw: ingest.read_key_values(raw),
}


def _take(settings: dict, cls) -> dict:
    """Pop the settings that name a field of dataclass cls (read from its
    __dataclass_fields__: importing dataclasses costs every command 9 ms)."""
    return {name: settings.pop(name) for name in cls.__dataclass_fields__ if name in settings}


def _run_config_from_args(args) -> pipeline.RunConfig:
    """Each setting from its flag, else from --config; a setting neither
    gives keeps the default of the dataclass that holds it. A setting
    rejected when read with others names the --config file if one of them
    came from it."""
    settings = _read_config(args.config) if args.config else {}
    # flags win; the --out default reads GAITVIEW_OUT, so it wins over the file's out
    flags = {key: value for key, value in vars(args).items()
             if key in CONFIG_KEYS and value is not None}
    from_file = settings.keys() - flags.keys()
    settings.update(flags)
    out = settings.pop("out", None)
    if not out:
        raise GaitViewError("no output directory: pass --out or set " + OUT_DIR_ENV)

    def build(keys, make, what=""):
        """make(), with an error naming the --config file when one of keys came from it."""
        try:
            return make()
        except (GaitViewError, ValueError, OSError) as exc:
            source = f"{args.config}: " if from_file.intersection(keys) else ""
            raise GaitViewError(f"{source}{what}{exc}") from None

    given = _take(settings, metrics.MetricConfig)
    metric_cfg = build(given, lambda: metrics.MetricConfig(**given))
    for key, resolve in _RESOLVED.items():
        if key in settings:
            settings[key] = build((key,), lambda: resolve(settings[key]), f"{key}: ")
    return build(("cutoff_hz", "filter_order"), lambda: pipeline.RunConfig(
        manifest=Path(args.manifest), out_dir=Path(out), metric_cfg=metric_cfg, **settings))


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
            given = {key: value for key, value in vars(args).items() if value is not None}
            params = synth.GaitModelParams(**_take(given, synth.GaitModelParams))
            manifest = synth.make_paired_dataset(params, args.subjects, args.out)
            print(f"wrote {manifest}")
            return 0
        if args.command == "analyze":
            cfg = _run_config_from_args(args)
            if not cfg.manifest.exists():
                raise GaitViewError(f"manifest not found: {cfg.manifest}")
            pipeline.run_analysis(cfg)
            print(f"analysis written to {cfg.out_dir}")
            return 0
        if args.command == "recommend":
            rows = report.recommend(args.analyzed, args.alpha)
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
