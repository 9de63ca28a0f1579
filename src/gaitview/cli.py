"""Command-line entry point: synth | analyze | recommend | version.

This module only converts arguments and --config values to their types;
RunConfig checks analyze's settings and recommend its alpha. Every module
that imports numpy is registered to execute on first attribute access
(LazyLoader), so recommend, version and --help start without numpy, while
analyze and synth load what they use. The modules stay in sys.modules under their own names,
so wrapping or patching a module attribute reaches every caller.

main runs OpenBLAS on one thread (OPENBLAS_NUM_THREADS=1), set before any
command loads numpy, unless OPENBLAS_NUM_THREADS or OMP_NUM_THREADS is set
already: pooled PCA's SVD, the one operation large enough to be threaded,
gains nothing from more threads, whose idle spinning costs CPU time. A
library caller of pipeline.run_analysis keeps numpy's own setting.
"""
from __future__ import annotations

import argparse
import importlib.util
import os
import sys
from pathlib import Path

from . import __version__, report
from .errors import GaitViewError


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
    p_rec.add_argument("--alpha", type=float, default=report.DEFAULT_ALPHA)

    sub.add_parser("version", help="print version and exit")
    return parser


_BOOLEANS = {"true": True, "false": False, "1": True, "0": False,
             "yes": True, "no": False, "on": True, "off": False}


def _boolean(raw: str) -> bool:
    if raw.lower() not in _BOOLEANS:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {raw!r}")
    return _BOOLEANS[raw.lower()]


# --config keys (a dash reads as an underscore) and the type of each value;
# each key is also the analyze flag --<key>, but for the negated booleans
CONFIG_KEYS = {
    "out": str, "alpha": float, "pca_threshold": float, "pca_scope": str,
    "cutoff_hz": float, "filter_order": int,
    "apply_filter": _boolean, "normalize": _boolean, "histogram_bins": int,
    "log_base": float, "smoothing_epsilon": float, "conf_threshold": float,
    "max_gap": int, "features": str, "metrics": str, "marker_map": str,
}
_NEGATED_FLAGS = {"apply_filter": "--no-filter", "normalize": "--no-normalize"}
_HELP = {"features": "comma-separated feature names", "metrics": "comma-separated metric names",
         "marker_map": "role = marker config file", "pca_scope": "pooled or per-subject"}


def _config_key(key: str) -> str:
    return key.replace("-", "_")


def _read_config(path) -> dict:
    """--config file -> {key: typed value}; a relative marker_map is taken
    from the file's directory. An unknown key, or a value not of its key's
    type, raises GaitViewError naming the file and the key; a key set twice
    (in either spelling) raises ParseError naming the second line."""
    settings = {}
    for raw_key, raw in ingest.read_key_values(path, _config_key).items():
        key = _config_key(raw_key)
        if key not in CONFIG_KEYS:
            raise GaitViewError(f"{path}: unknown key {raw_key!r}")
        try:
            settings[key] = CONFIG_KEYS[key](raw)
        except ValueError as exc:
            raise GaitViewError(f"{path}: {raw_key}: {exc}") from None
    if "marker_map" in settings:
        settings["marker_map"] = Path(path).parent / settings["marker_map"]
    return settings


def _take(settings: dict, cls) -> dict:
    """Pop the settings that name a field of dataclass cls (read from its
    __dataclass_fields__: importing dataclasses costs every command 9 ms)."""
    return {name: settings.pop(name) for name in cls.__dataclass_fields__ if name in settings}


def _run_config(manifest, out="", **settings) -> pipeline.RunConfig:
    """RunConfig of typed settings, each checked there: features and metrics
    are split at commas, and marker_map is the file to read."""
    for key in settings.keys() & {"features", "metrics"}:
        settings[key] = tuple(name.strip() for name in settings[key].split(","))
    if "marker_map" in settings:
        try:
            settings["marker_map"] = ingest.read_key_values(settings["marker_map"])
        except (GaitViewError, OSError) as exc:
            raise GaitViewError(f"marker_map: {exc}") from None
    metric_cfg = metrics.MetricConfig(**_take(settings, metrics.MetricConfig))
    return pipeline.RunConfig(Path(manifest), Path(out), metric_cfg=metric_cfg, **settings)


def _run_config_from_args(args) -> pipeline.RunConfig:
    """Each setting from its flag, else from --config, else its dataclass
    default. The file's settings are checked alone first, so an error names
    the file exactly when the value came from it."""
    settings = {} if args.config is None else _read_config(args.config)
    if args.config is not None:
        try:
            _run_config(args.manifest, **settings)
        except (GaitViewError, ValueError, OSError) as exc:
            raise GaitViewError(f"{args.config}: {exc}") from None
    # flags win; the --out default reads GAITVIEW_OUT, so it wins over the file's out
    settings.update((key, value) for key, value in vars(args).items()
                    if key in CONFIG_KEYS and value is not None)
    if not settings.get("out"):
        raise GaitViewError("no output directory: pass --out or set " + OUT_DIR_ENV)
    return _run_config(args.manifest, **settings)


def main(argv=None) -> int:
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"  # read once, when numpy loads OpenBLAS
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
