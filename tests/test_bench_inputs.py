"""perfbench/gen.py builds the benchmark's inputs from the public API of
gaitview.synth and gaitview.ingest, including the frame view and the
frames= constructor. Running it small here makes an API change fail the
test suite rather than a benchmark run. The file is loaded by path, as is.
"""
import importlib.util
import sys
from pathlib import Path

import numpy as np

from gaitview.pipeline import load_manifest
from gaitview.ingest import fill_gaps, parse_marker_csv, parse_pose_csv
from gaitview.signal_core import ViewLabel
from gaitview.synth import GaitModelParams

GEN = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"


def load_gen(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_long_trials_with_gaps_parse(tmp_path, monkeypatch):
    gen = load_gen(monkeypatch)
    params = GaitModelParams(n_frames=120, noise_sd=gen.NOISE_SD_PX, seed=1)
    gen.write_long_trials(params, 1, tmp_path)
    assert gen.inject_gaps(tmp_path, 1) > 0
    (trial, files), = load_manifest(tmp_path / "manifest.csv").items()
    markers = parse_marker_csv(files["mocap3d"])
    assert len(markers) > 80 and markers.complete.all()
    for view in (ViewLabel.FRONTAL, ViewLabel.LATERAL):
        pose = parse_pose_csv(files[view.value], view)
        assert np.array_equal(pose.frame_index, markers.frame_index)
        assert (pose.values[..., 2] < 0.3).any()  # the injected gaps
        repaired = fill_gaps(pose)
        assert (repaired.values[..., 2] >= 0.3).all()
