import csv
import dataclasses
import gc
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitview.cli import main
from gaitview.pipeline import RunConfig, _rate, _view_comparisons, run_analysis
from gaitview.report import PCA_HEADER, RECORDS_HEADER, STATS_HEADER, recommend
from gaitview import preprocess
from gaitview.features import FeatureName
from gaitview.ingest import parse_marker_csv, parse_pose_csv
from gaitview.errors import GaitViewError
from gaitview.metrics import MetricConfig, MetricRecord
from gaitview.signal_core import SideLabel, TrialId, ViewLabel
from gaitview.synth import GaitModelParams, make_paired_dataset


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def tree_digests(root):
    return {p.name: digest(p) for p in sorted(Path(root).iterdir()) if p.is_file()}


def run_synth(out, subjects=2, seed=5, noise=1.0, frames=169):
    rc = main([
        "synth", "--subjects", str(subjects), "--seed", str(seed),
        "--noise-sd", str(noise), "--frames", str(frames), "--out", str(out),
    ])
    assert rc == 0
    return Path(out) / "manifest.csv"


def run_analyze(manifest, out, *extra):
    rc = main(["analyze", "--manifest", str(manifest), "--out", str(out), *extra])
    return rc


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    return run_synth(out)


@pytest.fixture(scope="module")
def analyzed(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("analysis")
    assert run_analyze(dataset, out) == 0
    return out


class TestVersion:
    def test_version_prints(self, capsys):
        assert main(["version"]) == 0
        assert capsys.readouterr().out.startswith("gaitview ")


STARTUP_PROBE = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from gaitview.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(k for k, m in sys.modules.items()
             if m is not None and (k == "scipy" or k.startswith("scipy."))))
print("numpy" in sys.modules)
"""


def probe(script, *argv):
    """Standard output lines of `python -c script *argv` in a fresh
    interpreter that imports this checkout's gaitview; a failure raises."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()


def traced_peak(call, *args):
    """The peak traced memory of call(*args) above the memory in use when it
    starts, after a collection, and the call's result."""
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call(*args)
        return tracemalloc.get_traced_memory()[1] - start, result
    finally:
        tracemalloc.stop()


def modules_after(*argv):
    """(scipy modules, whether numpy is imported) in a fresh interpreter after
    running `gaitview *argv` with scipy made unimportable; a run that imports
    scipy fails."""
    *_, scipy, numpy = probe(STARTUP_PROBE, *argv)
    return scipy, numpy == "True"


class TestStartupWithoutScipy:
    def test_version(self):
        assert modules_after("version") == ("[]", False)

    def test_recommend(self, analyzed, tmp_path):
        copy = tmp_path / "analysis"
        shutil.copytree(analyzed, copy)
        assert modules_after("recommend", "--analyzed", str(copy)) == ("[]", False)

    def test_analyze(self, dataset, tmp_path):
        out = str(tmp_path / "analysis")
        assert modules_after("analyze", "--manifest", str(dataset), "--out", out) == ("[]", True)

    def test_synth(self, tmp_path):
        out = str(tmp_path / "data")
        assert modules_after("synth", "--subjects", "1", "--out", out) == ("[]", True)


BLAS_PROBE = """
import os
import sys
loaded = []  # whether numpy was loaded as each OPENBLAS_NUM_THREADS was set
sys.addaudithook(lambda event, args: event == "os.putenv"
                 and os.fsdecode(args[0]) == "OPENBLAS_NUM_THREADS"
                 and loaded.append("numpy" in sys.modules))
from gaitview.cli import main
assert main(sys.argv[1:]) == 0
print(loaded, os.environ.get("OPENBLAS_NUM_THREADS"), "numpy" in sys.modules)
"""


class TestBlasThreads:
    @pytest.fixture
    def unset(self, monkeypatch):
        """Both thread variables unset; what main sets is undone afterwards."""
        for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.setenv(name, "")  # recorded, so teardown restores the original
            monkeypatch.delenv(name)
        return monkeypatch

    def test_one_thread_when_unset(self, unset):
        assert main(["version"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_users_openblas_setting_kept(self, unset):
        unset.setenv("OPENBLAS_NUM_THREADS", "3")
        assert main(["version"]) == 0
        assert os.environ["OPENBLAS_NUM_THREADS"] == "3"

    def test_users_omp_setting_leaves_openblas_unset(self, unset):
        unset.setenv("OMP_NUM_THREADS", "2")
        assert main(["version"]) == 0
        assert "OPENBLAS_NUM_THREADS" not in os.environ
        assert os.environ["OMP_NUM_THREADS"] == "2"

    def test_set_before_numpy_loads(self, unset, dataset, tmp_path):
        out = str(tmp_path / "analysis")
        *_, last = probe(BLAS_PROBE, "analyze", "--manifest", str(dataset), "--out", out)
        assert last == "[False] 1 True"


class TestModuleRegistration:
    def test_every_module_registered_without_numpy(self):
        lines = probe("""
import sys
from pathlib import Path
import gaitview.cli
package = Path(gaitview.cli.__file__).parent
names = {"gaitview." + path.stem for path in package.glob("*.py") if path.stem != "__init__"}
print(sorted(names - set(sys.modules)))
print("numpy" in sys.modules)
from gaitview.pipeline import RunConfig  # the first use executes pipeline
print(RunConfig is gaitview.cli.pipeline.RunConfig is gaitview.pipeline.RunConfig)
""")
        assert lines == ["[]", "False", "True"]

    def test_module_imported_first_is_kept(self):
        lines = probe("""
import sys
import gaitview.signal_core as first
import gaitview.cli
print(sys.modules["gaitview.signal_core"] is gaitview.cli.signal_core is first)
print(gaitview.cli.pipeline.ViewLabel is first.ViewLabel)
""")
        assert lines == ["True", "True"]


class TestMemory:
    def test_pipeline_import_leaves_out_openssl(self):
        # hashlib maps OpenSSL's libcrypto (3.7 MB of peak memory); no module
        # of gaitview imports it, RunConfig.fingerprint included
        assert probe("""
import sys
import gaitview.pipeline
print("_hashlib" in sys.modules)
""") == ["False"]

    def test_analyze_leaves_out_openssl(self, dataset, tmp_path):
        # config_hash came from hashlib, whose libcrypto then set the peak memory
        # of a cohort of short trials
        assert probe("""
import sys
from gaitview.cli import main
assert main(sys.argv[1:]) == 0
print("_hashlib" in sys.modules)
""", "analyze", "--manifest", str(dataset), "--out", str(tmp_path / "out"))[-1] == "False"

    def test_per_subject_peak_does_not_grow_with_the_cohort(self, tmp_path):
        # every trial's sequences were kept until the end: 16 subjects peaked
        # about 1 MB above 8. Each peak is taken above the memory in use at
        # the start of its run, after a collection, so garbage that earlier
        # tests left does not count.
        manifests = {n: run_synth(tmp_path / f"d{n}", subjects=n, frames=100)
                     for n in (2, 8, 16)}
        peaks = {}
        tracemalloc.start()
        try:
            for n, manifest in manifests.items():  # 2 subjects warm up
                gc.collect()
                tracemalloc.reset_peak()
                start = tracemalloc.get_traced_memory()[0]
                assert run_analyze(manifest, tmp_path / f"out{n}",
                                   "--pca-scope", "per-subject") == 0
                peaks[n] = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peaks[16] - peaks[8] < 100_000, peaks

    @pytest.fixture(scope="class")
    def long_trial(self, tmp_path_factory):
        """The directory of a 1-subject synth cohort of 2000-frame trials."""
        return run_synth(tmp_path_factory.mktemp("long"), subjects=1, frames=2000).parent

    def test_parse_peak_stays_below_four_files(self, long_trial):
        # streamed into np.loadtxt: 3.4 times the file; holding its whole
        # text and UTF-8 bytes beside the table took 4.4
        path = long_trial / "s01_frontal.csv"
        peak, _ = traced_peak(parse_pose_csv, path)
        assert peak < 4 * path.stat().st_size, peak / path.stat().st_size

    def test_smooth_peak_stays_below_four_trials(self, long_trial):
        # the tracks, their concatenation, the padded block, both passes and
        # the (samples, taps, columns) products: 7.9 times the trial's values
        seqs = [parse_marker_csv(long_trial / "s01_mocap3d.csv"),
                *(parse_pose_csv(long_trial / f"s01_{view}.csv") for view in ("frontal", "lateral"))]
        specs = [preprocess.FilterSpec(7.0, _rate(seq.times), 4) for seq in seqs]
        peak, _ = traced_peak(preprocess.smooth, seqs, specs)
        size = sum(seq.values.nbytes for seq in seqs)
        assert peak < 4 * size, peak / size


class TestSynthCommand:
    def test_layout(self, dataset):
        names = sorted(p.name for p in dataset.parent.iterdir())
        assert names == [
            "manifest.csv",
            "s01_frontal.csv", "s01_lateral.csv", "s01_mocap3d.csv",
            "s02_frontal.csv", "s02_lateral.csv", "s02_mocap3d.csv",
        ]

    def test_reproducible(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        run_synth(a)
        run_synth(b)
        assert tree_digests(a) == tree_digests(b)

    def test_defaults_are_gait_model_params(self, tmp_path):
        # no flag restates a GaitModelParams default
        assert main(["synth", "--subjects", "2", "--out", str(tmp_path / "bare")]) == 0
        assert main(["synth", "--subjects", "2", "--frames", "169", "--seed", "0",
                     "--noise-sd", "0", "--cycle-hz", "1", "--out", str(tmp_path / "flags")]) == 0
        make_paired_dataset(GaitModelParams(), 2, tmp_path / "library")
        bare = tree_digests(tmp_path / "bare")
        for other in ("flags", "library"):
            assert tree_digests(tmp_path / other) == bare

    def test_missing_out_errors(self, monkeypatch):
        monkeypatch.delenv("GAITVIEW_OUT", raising=False)
        with pytest.raises(SystemExit):
            main(["synth", "--subjects", "1"])

    def test_env_var_supplies_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GAITVIEW_OUT", str(tmp_path / "env_out"))
        assert main(["synth", "--subjects", "1", "--seed", "3"]) == 0
        assert (tmp_path / "env_out" / "manifest.csv").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--cycle-hz", "nan", "cycle_hz must be finite, got nan"),
        ("--noise-sd", "inf", "noise_sd must be finite, got inf"),
    ])
    def test_non_finite_parameter_exit_1(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "data"
        assert main(["synth", "--subjects", "1", flag, value, "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_frames_below_the_floor_exit_1(self, tmp_path, capsys):
        # every trial was raised to 80 frames without a message
        out = tmp_path / "data"
        assert main(["synth", "--subjects", "2", "--frames", "10", "--out", str(out)]) == 1
        assert ("error: n_frames must be >= 80, the floor of a synthetic subject's trial "
                "length, got 10" in capsys.readouterr().err)
        assert not out.exists()
        assert main(["synth", "--subjects", "2", "--frames", "80", "--out", str(out)]) == 0

    def test_cycle_above_nyquist_exit_1(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--subjects", "1", "--cycle-hz", "1e308", "--out", str(out)]) == 1
        assert "error: cycle_hz must be below the Nyquist frequency (50.0 Hz), got 1e+308" \
            in capsys.readouterr().err
        assert not out.exists()


class TestAnalyzeCommand:
    def test_output_files(self, analyzed):
        names = sorted(p.name for p in analyzed.iterdir())
        assert names == [
            "metric_records.csv",
            "pca_summary.csv",
            "radar.json",
            "run_metadata.json",
            "stats_knee_rotation.csv",
            "stats_step_length.csv",
            "stats_trunk_rotation.csv",
            "stats_wrist_hipmid.csv",
        ]

    def test_records_schema(self, analyzed):
        with open(analyzed / "metric_records.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == RECORDS_HEADER
        # 2 subjects x 2 views x 7 feature/side signals
        assert len(rows) - 1 == 2 * 2 * 7
        views = {row[4] for row in rows[1:]}
        assert views == {"frontal", "lateral"}

    def test_stats_schema(self, analyzed):
        with open(analyzed / "stats_step_length.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == STATS_HEADER
        metrics = {row[0] for row in rows[1:]}
        assert metrics == {
            "dtw_left", "dtw_right", "mcc_left", "mcc_right",
            "kld_left", "kld_right", "ie_left", "ie_right",
        }
        for row in rows[1:]:
            if row[0].startswith("ie"):
                assert row[8] == ""  # no winner direction for entropy

    def test_pca_schema(self, analyzed):
        with open(analyzed / "pca_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == PCA_HEADER
        groups = {row[0] for row in rows[1:]}
        assert groups == {"frontal", "lateral", "mocap3d"}
        dims = {row[0]: int(row[1]) for row in rows[1:]}
        assert dims["frontal"] == 34
        assert dims["mocap3d"] == 39
        for row in rows[1:]:
            assert 1 <= int(row[2]) <= int(row[1])
            assert float(row[3]) >= 0.95

    def test_radar_values_bounded(self, analyzed):
        radar = json.loads((analyzed / "radar.json").read_text())
        assert set(radar) == {
            "step_length_left", "step_length_right",
            "knee_rotation_left", "knee_rotation_right",
            "trunk_rotation",
            "wrist_hipmid_left", "wrist_hipmid_right",
        }
        for axes in radar.values():
            assert set(axes) == {"dtw", "mcc", "kld", "ie"}
            for pair in axes.values():
                assert set(pair) == {"frontal", "lateral"}
                assert {pair["frontal"], pair["lateral"]} in ({0.0, 1.0}, {0.5})

    def test_metadata_has_config_hash(self, analyzed):
        meta = json.loads((analyzed / "run_metadata.json").read_text())
        assert len(meta["config_hash"]) == 64
        assert meta["histogram_bins"] == 256

    def test_deterministic_outputs(self, dataset, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        assert run_analyze(dataset, a) == 0
        assert run_analyze(dataset, b) == 0
        d1, d2 = tree_digests(a), tree_digests(b)
        del d1["run_metadata.json"], d2["run_metadata.json"]  # embeds manifest path
        assert d1 == d2

    def test_missing_manifest_exit_1(self, tmp_path, capsys):
        rc = run_analyze(tmp_path / "nope.csv", tmp_path / "out")
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_manifest_named_to_a_library_caller(self, tmp_path):
        manifest = tmp_path / "nope.csv"
        message = re.escape(f"manifest not found: {manifest}")
        with pytest.raises(GaitViewError, match=f"^{message}$"):
            run_analysis(RunConfig(manifest, tmp_path / "out"))
        assert not (tmp_path / "out").exists()

    def test_missing_3d_file_exit_1(self, tmp_path, capsys):
        manifest = run_synth(tmp_path / "d", subjects=1)
        (tmp_path / "d" / "s01_mocap3d.csv").unlink()
        rc = run_analyze(manifest, tmp_path / "out")
        assert rc == 1
        assert "missing file" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metric_records.csv").exists()

    def test_file_error_names_subject_trial_view_and_path(self, tmp_path, capsys):
        # subject 2's files keep frames 0..15 (0..0.15 s), and its lateral file 15 frames
        # spread evenly over that span (93 Hz): every time check holds, and only the
        # lateral file is too short to filter
        manifest = run_synth(tmp_path / "d", subjects=2)
        for view in ("mocap3d", "frontal", "lateral"):
            path = tmp_path / "d" / f"s02_{view}.csv"
            header, *rows = path.read_text().splitlines(keepends=True)
            rows = [row.split(",") for row in rows if int(row.split(",")[0]) <= 15]
            if view == "lateral":
                end = float(next(row[1] for row in rows if row[0] == "15"))
                rows = [[row[0], repr(int(row[0]) * end / 14), *row[2:]]
                        for row in rows if int(row[0]) <= 14]
            path.write_text(header + "".join(",".join(row) for row in rows))
        short = tmp_path / "d" / "s02_lateral.csv"
        assert run_analyze(manifest, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"(subject 2, trial 1, lateral, {short}): " in err
        assert "signal length 15 must exceed padding length 15" in err

    def test_carriage_return_line_ends_name_the_file(self, tmp_path, capsys):
        # classic-Mac line ends: the whole file is csv's line 1
        manifest = run_synth(tmp_path / "d", subjects=2)
        path = tmp_path / "d" / "s01_mocap3d.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r"))
        assert run_analyze(manifest, tmp_path / "out") == 1
        assert (f"(subject 1, trial 1, mocap3d, {path}): line 1, column 1: carriage return "
                "within the line; lines must end in LF or CRLF") in capsys.readouterr().err

    def test_files_of_a_trial_are_checked_in_view_order(self, tmp_path, capsys):
        # subject 2's files keep frames 0..10, too few to filter, and its lateral file,
        # read last, has a bad time cell: the mocap3d file is named, not the lateral one
        manifest = run_synth(tmp_path / "d", subjects=2)
        for view in ("mocap3d", "frontal", "lateral"):
            path = tmp_path / "d" / f"s02_{view}.csv"
            header, *rows = path.read_text().splitlines(keepends=True)
            rows = [row for row in rows if int(row.split(",")[0]) <= 10]
            if view == "lateral":
                cells = rows[0].split(",")
                rows[0] = ",".join([cells[0], "bad", *cells[2:]])
            path.write_text(header + "".join(rows))
        mocap3d = tmp_path / "d" / "s02_mocap3d.csv"
        assert run_analyze(manifest, tmp_path / "out") == 1
        assert (f"(subject 2, trial 1, mocap3d, {mocap3d}): signal length 11 must exceed "
                "padding length 15") in capsys.readouterr().err

    @pytest.mark.parametrize("kept, message", [
        (lambda f: f < 100, "time span 0..0.99 s differs from the mocap3d file's 0..{end} s "
                            "by more than the coarser of the two files' median steps (0.01 s)"),
        (lambda f: f >= 2, "time span 0.02..{end} s differs from the mocap3d file's 0..{end} s"),
        (lambda f: False, "no frames"),
    ], ids=["frames_0_to_99", "frames_0_1_dropped", "no_frames"])
    def test_pose_span_must_match_mocap3d(self, tmp_path, capsys, kept, message):
        # such a pose file was stretched over the 3D span by index, silently
        manifest = run_synth(tmp_path / "d", subjects=2)
        end = float((tmp_path / "d" / "s01_mocap3d.csv").read_text().splitlines()[-1]
                    .split(",")[1])
        cut = tmp_path / "d" / "s01_frontal.csv"
        lines = cut.read_text().splitlines(keepends=True)
        cut.write_text(lines[0] + "".join(line for line in lines[1:]
                                          if kept(int(line.split(",")[0]))))
        assert run_analyze(manifest, tmp_path / "out") == 1
        message = message.format(end=f"{end:g}")
        assert f"error: (subject 1, trial 1, frontal, {cut}): {message}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_uneven_sample_steps_rejected(self, tmp_path, capsys):
        # the first and last six frames keep the span, so the span check passes them, and
        # with --no-filter they were stretched over the 3D samples by index
        manifest = run_synth(tmp_path / "d", subjects=2)
        short = tmp_path / "d" / "s02_lateral.csv"
        lines = short.read_text().splitlines(keepends=True)
        last = int(lines[-1].split(",")[0])
        short.write_text("".join(line for line in lines if line[0].isalpha()
                                 or not 6 <= int(line.split(",")[0]) <= last - 6))
        times = {int(line.split(",")[0]): float(line.split(",")[1]) for line in lines[1:]}
        assert run_analyze(manifest, tmp_path / "out", "--no-filter") == 1
        gap = times[last - 5] - times[5]
        assert (f"error: (subject 2, trial 1, lateral, {short}): sample steps range over "
                f"0.01..{gap:g} s, not within 10% of their median 0.01 s"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_30_fps_pose_beside_100_hz_mocap(self, tmp_path, capsys):
        # such a file was rejected: filtered, for its rate; unfiltered, for ending more
        # than the mocap3d file's 10 ms step before it
        manifest = run_synth(tmp_path / "d", subjects=2)
        end = float((tmp_path / "d" / "s02_mocap3d.csv").read_text().splitlines()[-1]
                    .split(",")[1])
        video = tmp_path / "d" / "s02_frontal.csv"
        header, *rows = video.read_text().splitlines(keepends=True)
        table = {}  # keypoint -> rows of (time, x, y, conf)
        for row in rows:
            cells = row.split(",")
            table.setdefault(cells[2], []).append([float(cell) for cell in (cells[1], *cells[3:])])
        camera = [i / 30 for i in range(int(end * 30) + 1)]
        assert 0.01 < end - camera[-1] < 1 / 30

        def write(shift):
            video.write_text(header + "".join(
                f"{i},{t + shift!r},{name},{x!r},{y!r},{c!r}\n" for name, track in table.items()
                for i, (t, x, y, c) in enumerate(zip(camera, *(
                    np.interp(camera, *np.array(track).T[[0, k]]).tolist() for k in (1, 2, 3))))))

        write(0.0)
        assert run_analyze(manifest, tmp_path / "out") == 0
        # more than one camera frame off the 3D span is rejected
        write(0.0334)
        assert run_analyze(manifest, tmp_path / "shifted") == 1
        assert (f"error: (subject 2, trial 1, frontal, {video}): time span "
                f"0.0334..{camera[-1] + 0.0334:g} s differs from the mocap3d file's 0..{end:g} s "
                "by more than the coarser of the two files' median steps (0.0333333 s)"
                in capsys.readouterr().err)
        assert not (tmp_path / "shifted").exists()

    def test_pose_file_without_a_keypoint_rejected(self, tmp_path, capsys):
        # pose PCA needs all 17 keypoints; such a file failed only after every
        # trial was scored, with an error that named no file
        manifest = run_synth(tmp_path / "d", subjects=2)
        cut = tmp_path / "d" / "s02_frontal.csv"
        lines = cut.read_text().splitlines(keepends=True)
        cut.write_text("".join(line for line in lines
                               if line.split(",")[2] not in ("nose", "left_ear")))
        for scope in ("pooled", "per-subject"):
            assert run_analyze(manifest, tmp_path / scope, "--pca-scope", scope) == 1
            assert (f"error: (subject 2, trial 1, frontal, {cut}): missing keypoints nose, "
                    "left_ear: pose PCA needs all 17" in capsys.readouterr().err)
            assert not (tmp_path / scope).exists()

    def test_pooled_pca_needs_the_first_mocap3d_markers(self, tmp_path, capsys):
        manifest = run_synth(tmp_path / "d", subjects=2)
        cut = tmp_path / "d" / "s02_mocap3d.csv"
        lines = cut.read_text().splitlines(keepends=True)
        cut.write_text("".join(line for line in lines if line.split(",")[2] != "head"))
        assert run_analyze(manifest, tmp_path / "pooled") == 1
        assert (f"error: (subject 2, trial 1, mocap3d, {cut}): missing markers head: pooled "
                "PCA reads those of subject 1's mocap3d file" in capsys.readouterr().err)
        assert not (tmp_path / "pooled").exists()
        # each subject's PCA reads its own markers
        assert run_analyze(manifest, tmp_path / "per", "--pca-scope", "per-subject") == 0

    def test_metric_failure_names_subject_trial_signal_and_view(self, tmp_path, capsys):
        # subject 1's frontal shoulders are its whole-pixel hips 100 px up, so the
        # shoulder line is the hip line and the unfiltered trunk rotation is exactly 0
        manifest = run_synth(tmp_path / "d", subjects=2)
        path = tmp_path / "d" / "s01_frontal.csv"
        header, *rows = path.read_text().splitlines(keepends=True)
        rows = [row.rstrip("\n").split(",") for row in rows]
        hips = {}
        for row in rows:
            if row[2].endswith("_hip"):
                row[3], row[4] = (repr(float(round(float(cell)))) for cell in row[3:5])
                hips[row[0], row[2].split("_")[0]] = (float(row[3]), float(row[4]))
        for row in rows:
            if row[2].endswith("_shoulder"):
                x, y = hips[row[0], row[2].split("_")[0]]
                row[3], row[4] = repr(x), repr(y - 100.0)
        path.write_text(header + "".join(",".join(row) + "\n" for row in rows))
        assert run_analyze(manifest, tmp_path / "out", "--no-filter") == 1
        assert capsys.readouterr().err == ("error: (subject 1, trial 1, trunk_rotation, "
                                           "bilateral, frontal): signal has zero variance\n")
        assert not (tmp_path / "out").exists()

    def test_narrower_run_removes_stale_reports(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(dataset, out) == 0
        recommend(out)
        before = tree_digests(out)
        (tmp_path / "d").mkdir()
        broken = tmp_path / "d" / "manifest.csv"
        broken.write_text("subject,trial,kind,path\n1,1,mocap3d,absent.csv\n"
                          "1,1,frontal,absent_f.csv\n1,1,lateral,absent_l.csv\n")
        assert run_analyze(broken, out, "--features", "step_length") == 1
        assert tree_digests(out) == before  # a failed run removes nothing
        assert run_analyze(dataset, out, "--features", "step_length") == 0
        assert sorted(tree_digests(out)) == sorted([
            "metric_records.csv", "pca_summary.csv", "radar.json", "run_metadata.json",
            "stats_step_length.csv",
        ])
        assert [row["feature"] for row in recommend(out)] == ["step_length"] * 2

    def test_one_filter_design_per_trial(self, dataset, tmp_path, monkeypatch):
        designs = []
        design = preprocess.butterworth_coeffs
        monkeypatch.setattr(preprocess, "butterworth_coeffs",
                            lambda spec: designs.append(spec) or design(spec))
        assert run_analyze(dataset, tmp_path / "out") == 0
        # 2 subjects, 3 equal-length 100 Hz files each
        assert designs == [preprocess.FilterSpec(7.0, 100.0, 4)] * 2

    def test_metric_subset(self, dataset, tmp_path):
        out = tmp_path / "subset"
        assert run_analyze(dataset, out, "--metrics", "dtw,kld") == 0
        with open(out / "stats_trunk_rotation.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert {row[0] for row in rows[1:]} == {"dtw", "kld"}

    def test_unknown_metric_exit_1(self, dataset, tmp_path, capsys):
        rc = run_analyze(dataset, tmp_path / "o", "--metrics", "rmse")
        assert rc == 1
        assert "unknown metric" in capsys.readouterr().err

    def test_config_file_and_flag_precedence(self, dataset, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("histogram-bins = 64\nalpha = 0.01 # stricter\n"
                       "normalize = OFF\napply-filter = yes\npca-scope = per-subject\n")
        out = tmp_path / "cfg_out"
        assert run_analyze(dataset, out, "--config", str(cfg),
                           "--histogram-bins", "128") == 0
        meta = json.loads((out / "run_metadata.json").read_text())
        assert meta["histogram_bins"] == 128  # flag wins
        assert meta["alpha"] == 0.01
        assert meta["normalize"] is False
        with open(out / "pca_summary.csv", newline="") as fh:
            assert len(list(csv.reader(fh))) - 1 == 6  # per-subject groups

    def test_malformed_config_line_exit_1(self, dataset, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 0.01\n# comment\nhistogram-bins 64\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert f"{cfg}: line 3" in err
        assert "expected 'key = value'" in err

    @pytest.mark.parametrize("line, message", [
        ("histogram_bin = 64", "unknown key 'histogram_bin'"),
        ("normalize = ture", "normalize: expected one of true/false/1/0/yes/no/on/off"),
        ("apply-filter = maybe", "apply-filter: expected one of"),
        ("pca_scope = bogus", "pca_scope: expected one of pooled/per-subject, got 'bogus'"),
        ("max-gap = 2.5", "max-gap: invalid literal for int()"),
        ("alpha = 0.5", "line 2, column 1: duplicate key 'alpha', first set on line 1"),
        ("log-base = 10\nlog_base = 2",
         "line 3, column 1: duplicate key 'log_base', first set on line 2"),
    ])
    def test_config_value_it_cannot_apply_exit_1(self, dataset, tmp_path, capsys,
                                                 line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = 0.01\n{line}\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_per_subject_pca_scope(self, dataset, tmp_path):
        out = tmp_path / "per_subj"
        assert run_analyze(dataset, out, "--pca-scope", "per-subject") == 0
        with open(out / "pca_summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        groups = {row[0] for row in rows[1:]}
        assert "frontal_s01" in groups
        assert "mocap3d_s02" in groups
        assert len(groups) == 6


class TestRadarData:
    def test_one_comparison_per_metric(self):
        # two subjects per view; ie_3d is 3.0 throughout
        values = {  # view -> (dtw, mcc, kld, ie_2d) of subjects 1 and 2
            ViewLabel.FRONTAL: [(1.0, 0.2, 0.5, 3.3), (3.0, 0.2, 0.7, 3.5)],
            ViewLabel.LATERAL: [(4.0, 0.8, 0.6, 2.0), (4.0, 1.0, 0.6, 2.0)],
        }
        groups = {  # (feature, side, view) -> records, as run_analysis groups them
            (FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL, view): [
                MetricRecord(trial=TrialId(subject, 1), feature=FeatureName.TRUNK_ROTATION,
                             side=SideLabel.BILATERAL, view=view, dtw=dtw, mcc=mcc, mcc_lag=0,
                             kld=kld, ie_2d=ie_2d, ie_3d=3.0)
                for subject, (dtw, mcc, kld, ie_2d) in enumerate(rows, start=1)
            ]
            for view, rows in values.items()
        }
        cfg = RunConfig(Path("m.csv"), Path("out"), features=(FeatureName.TRUNK_ROTATION,))
        assert _view_comparisons(groups, cfg)[1] == {"trunk_rotation": {
            "dtw": {"frontal": 1.0, "lateral": 0.0},  # lower wins: 2.0 < 4.0
            "mcc": {"frontal": 0.0, "lateral": 1.0},  # higher wins: 0.9 > 0.2
            "kld": {"frontal": 0.5, "lateral": 0.5},  # equal means: 0.6 = 0.6
            # |ie_2d - ie_3d| 0.4 < 1.0: frontal, though its ie_2d is the higher
            "ie": {"frontal": 1.0, "lateral": 0.0},
        }}


def view_medians(out, feature, metric):
    """Median of one metric over a feature's records, per 2D view."""
    with open(out / "metric_records.csv", newline="") as fh:
        rows = [row for row in csv.DictReader(fh) if row["feature"] == feature]
    return {view: statistics.median(float(row[metric]) for row in rows if row["view"] == view)
            for view in ("frontal", "lateral")}


class TestMixedRates:
    def test_50_hz_pose_beside_100_hz_mocap_is_filtered(self, tmp_path, capsys):
        # criterion 10's cohort with every pose file cut to even frames: it ran only with
        # --no-filter, since one sample-rate-hz designed every file's filter
        manifest = run_synth(tmp_path / "d", subjects=18, seed=42, noise=2.0)
        assert run_analyze(manifest, tmp_path / "full") == 0
        for path in sorted((tmp_path / "d").glob("s*_*al.csv")):  # frontal and lateral
            header, *rows = path.read_text().splitlines(keepends=True)
            path.write_text(header + "".join(row for row in rows
                                             if int(row.split(",")[0]) % 2 == 0))
        assert run_analyze(manifest, tmp_path / "half") == 0
        full, half = (view_medians(tmp_path / out, "step_length", "dtw")
                      for out in ("full", "half"))
        assert half["lateral"] < half["frontal"]  # criterion 10's two directions
        kld = view_medians(tmp_path / "half", "trunk_rotation", "kld")
        assert kld["frontal"] < kld["lateral"]
        for view in full:  # half the pose samples move each median by under 5%
            assert abs(half[view] - full[view]) < 0.05 * full[view]
        # a 30 Hz cutoff suits the 100 Hz mocap3d file, not the 50 Hz pose files
        assert run_analyze(manifest, tmp_path / "o", "--cutoff-hz", "30") == 1
        first = tmp_path / "d" / "s01_frontal.csv"
        assert capsys.readouterr().err == (f"error: (subject 1, trial 1, frontal, {first}): "
                                           "cutoff 30.0 Hz at or above Nyquist (25.0 Hz)\n")
        assert not (tmp_path / "o").exists()

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.integers(10, 2000).map(float), st.sampled_from([30000 / 1001,
                                                                         60000 / 1001])),
           st.integers(2, 3000))
    def test_rate_of_decimal_times(self, rate, frames):
        # times as a writer prints them: every synth file reads exactly 100 Hz, and so
        # one trial's files share one filter design
        times = np.array([float(repr(i / rate)) for i in range(frames)])
        assert _rate(times) == round(rate, 6)


class TestSettings:
    def test_config_hash_is_pinned(self):
        # run_metadata.json's config_hash; a refactor of RunConfig must not move it
        paths = (Path("data/manifest.csv"), Path("results"))
        assert RunConfig(*paths).fingerprint() == (
            "b7bafbaf767dbd45f6e160026e0c14607634957cab7f05a30857c37b5b852c51")
        assert RunConfig(
            *paths, pca_scope="per-subject", metrics=("dtw", "kld"),
            features=(FeatureName.STEP_LENGTH, FeatureName.TRUNK_ROTATION),
            marker_map={"l_hip": "LASI", "r_hip": "RASI"},
        ).fingerprint() == "4e1cf954326c1f621fea05dc6b19e8694635aac5f7fb8fbd5c3edd6bb0785dd6"

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.floats(0.001, 0.999), pca_threshold=st.floats(0.01, 1.0),
        pca_scope=st.sampled_from(["pooled", "per-subject"]), apply_filter=st.booleans(),
        cutoff_hz=st.floats(0.1, 1e4), filter_order=st.integers(1, 6).map(lambda n: 2 * n),
        metric_cfg=st.builds(MetricConfig, st.booleans(), st.integers(2, 1024),
                             st.floats(1.01, 100.0), st.floats(1e-300, 1.0)),
        conf_threshold=st.floats(0.0, 1.0), max_gap=st.integers(0, 10**6),
        features=st.lists(st.sampled_from(list(FeatureName)), min_size=1, unique=True),
        metrics=st.lists(st.sampled_from(["dtw", "mcc", "kld", "ie"]), min_size=1, unique=True),
        marker_map=st.none() | st.dictionaries(st.text(min_size=1), st.text(min_size=1)),
        unbuilt=st.booleans(),
    )
    def test_config_hash_is_sha256_of_the_settings(self, unbuilt, **values):
        # the built-in sha256 module gives hashlib's digest, and an interpreter
        # without it falls back on hashlib
        cfg = RunConfig(Path("data/manifest.csv"), Path("results"), **values)
        payload = dataclasses.asdict(cfg)
        del payload["manifest"], payload["out_dir"]
        expected = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        with pytest.MonkeyPatch.context() as patch:
            if unbuilt:  # None in sys.modules makes the import raise ImportError
                patch.setitem(sys.modules, "_sha256", None)
                patch.setitem(sys.modules, "_sha2", None)
            assert cfg.fingerprint() == expected

    @pytest.mark.parametrize("flags, config, message", [
        (["--features", "trunk_rotation,trunk_rotation"], None,
         "features: 'trunk_rotation' is listed twice"),
        (["--metrics", "dtw, kld,dtw"], None, "metrics: 'dtw' is listed twice"),
        ([], "features = step_length,trunk_rotation,step_length",
         "features: 'step_length' is listed twice"),
        ([], "metrics = mcc,mcc", "metrics: 'mcc' is listed twice"),
        (["--features", ""], None, "features: empty name in ''"),
        (["--metrics", ""], None, "metrics: empty name in ''"),
        ([], "metrics = dtw,,kld", "metrics: empty name in 'dtw,,kld'"),
        (["--features", "step_length,bogus"], None,
         "features: unknown feature 'bogus', expected one of step_length/knee_rotation/"
         "trunk_rotation/wrist_hipmid"),
        ([], "features = bogus", "features: unknown feature 'bogus', expected one of"),
        (["--metrics", "dtw,rmse"], None,
         "metrics: unknown metric 'rmse', expected one of dtw/mcc/kld/ie"),
        ([], "metrics = rmse", "metrics: unknown metric 'rmse', expected one of dtw/mcc/kld/ie"),
        (["--marker-map", "missing.map"], None,
         "marker_map: [Errno 2] No such file or directory: 'missing.map'"),
        ([], "marker-map = missing.map",
         "marker_map: [Errno 2] No such file or directory: 'missing.map'"),
    ])
    def test_repeated_name_exit_1(self, dataset, tmp_path, capsys, flags, config, message):
        if config is not None:  # a value from the file also names the file
            (tmp_path / "run.cfg").write_text(config + "\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
            # the file's marker map is looked up beside it
            message = f"{tmp_path / 'run.cfg'}: {message}".replace(
                "'missing.map'", f"'{tmp_path / 'missing.map'}'")
        assert run_analyze(dataset, tmp_path / "o", *flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_empty_out_flag_rejected_and_empty_env_unset(self, dataset, tmp_path, capsys,
                                                         monkeypatch):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out = {tmp_path / 'from_file'}\n")
        analyze = ["analyze", "--manifest", str(dataset), "--config", str(cfg)]
        monkeypatch.setenv("GAITVIEW_OUT", str(tmp_path / "from_env"))
        assert main([*analyze, "--out", ""]) == 1
        assert "error: no output directory" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]
        monkeypatch.setenv("GAITVIEW_OUT", "")  # counts as unset: the file's out applies
        assert main(analyze) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["from_file", "run.cfg"]

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.05"])
    def test_alpha_outside_unit_interval_rejected(self, dataset, analyzed, tmp_path, capsys,
                                                  monkeypatch, value):
        def unread(*args, **kwargs):
            raise AssertionError("an input file was read")

        for reader in ("pipeline.parse_marker_csv", "pipeline.parse_pose_csv",
                       "report._read_stats"):
            monkeypatch.setattr(f"gaitview.{reader}", unread)
        message = f"alpha must be in (0, 1), got {float(value)}"
        assert run_analyze(dataset, tmp_path / "o", "--alpha", value) == 1
        assert f"error: {message}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = {value}\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        assert f"error: {cfg}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        copy = tmp_path / "analysis"
        shutil.copytree(analyzed, copy)
        assert main(["recommend", "--analyzed", str(copy), "--alpha", value]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (copy / "recommendations.csv").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("pca-threshold", "1.5", "must be in (0, 1], got 1.5"),
        ("pca-threshold", "0", "must be in (0, 1], got 0"),
        ("conf-threshold", "2", "must be in [0, 1], got 2"),
        ("conf-threshold", "nan", "must be in [0, 1], got nan"),
        ("max-gap", "-1", "must be >= 0, got -1"),
        ("pca-scope", "bogus", "expected one of pooled/per-subject, got 'bogus'"),
    ])
    def test_setting_out_of_range_rejected_before_reading_input(
            self, dataset, tmp_path, capsys, monkeypatch, key, value, message):
        def unread(*args, **kwargs):
            raise AssertionError("an input file was read")

        monkeypatch.setattr("gaitview.pipeline.parse_marker_csv", unread)
        monkeypatch.setattr("gaitview.pipeline.parse_pose_csv", unread)
        # RunConfig names the key as its field: "pca_threshold must be in (0, 1], got 0.0"
        name = key.replace("-", "_")
        assert run_analyze(dataset, tmp_path / "o", f"--{key}", value) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name}") and message in err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: {name}") and message in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--log-base", "inf", "log_base must be finite, got inf"),
        ("--log-base", "nan", "log_base must be finite, got nan"),
        ("--smoothing-epsilon", "inf", "smoothing_epsilon must be finite, got inf"),
        ("--cutoff-hz", "nan", "cutoff_hz must be finite, got nan"),
    ])
    def test_non_finite_setting_rejected_before_reading_input(
            self, dataset, tmp_path, capsys, monkeypatch, flag, value, message):
        def unread(*args, **kwargs):
            raise AssertionError("an input file was read")

        monkeypatch.setattr("gaitview.pipeline.parse_marker_csv", unread)
        monkeypatch.setattr("gaitview.pipeline.parse_pose_csv", unread)
        assert run_analyze(dataset, tmp_path / "o", flag, value) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value, message", [
        ("filter-order", "3", "order must be even and >= 2, got 3"),
        ("cutoff-hz", "0", "cutoff_hz must be positive, got 0.0"),
        ("histogram-bins", "1", "histogram_bins must be >= 2"),
    ])
    def test_filter_or_metric_setting_from_config_names_the_file(
            self, dataset, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        assert capsys.readouterr().err == f"error: {cfg}: {message}\n"
        # the same value from its flag names no file
        assert run_analyze(dataset, tmp_path / "o", f"--{key}", value) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option", ["--config", "--manifest", "--marker-map"])
    def test_file_that_is_not_utf8_is_named(self, dataset, tmp_path, capsys, option):
        # the error was "'utf-8' codec can't decode byte 0xe9 in position 5: invalid
        # continuation byte" alone
        latin1 = tmp_path / "latin1.txt"
        latin1.write_bytes(b"# caf\xe9\n")
        files = {"--manifest": dataset, option: latin1}
        assert main(["analyze", "--out", str(tmp_path / "o"),
                     *(str(arg) for pair in files.items() for arg in pair)]) == 1
        assert (f"{latin1}: 'utf-8' codec can't decode byte 0xe9 in position 5"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    def test_analyze_options_unchanged(self, capsys):
        # the flags are built from the --config key table; none may drop out or be renamed
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert sorted(options) == sorted([
            "-h", "--help", "--manifest", "--out", "--config", "--alpha", "--pca-threshold",
            "--pca-scope", "--cutoff-hz", "--filter-order", "--no-filter",
            "--no-normalize", "--histogram-bins", "--log-base", "--smoothing-epsilon",
            "--conf-threshold", "--max-gap", "--features", "--metrics", "--marker-map",
        ])

    def test_negated_flags_override_config(self, dataset, tmp_path, monkeypatch):
        designs = []
        design = preprocess.butterworth_coeffs
        monkeypatch.setattr(preprocess, "butterworth_coeffs",
                            lambda spec: designs.append(spec) or design(spec))
        cfg = tmp_path / "run.cfg"
        cfg.write_text("apply-filter = yes\nnormalize = on\n")
        assert run_analyze(dataset, tmp_path / "file", "--config", str(cfg)) == 0
        assert len(designs) == 2  # the file's settings apply: one design per trial
        assert json.loads((tmp_path / "file" / "run_metadata.json").read_text())["normalize"]
        designs.clear()
        assert run_analyze(dataset, tmp_path / "flags", "--config", str(cfg),
                           "--no-filter", "--no-normalize") == 0
        assert designs == []
        meta = json.loads((tmp_path / "flags" / "run_metadata.json").read_text())
        assert meta["normalize"] is False

    @pytest.mark.parametrize("key, value", [
        ("pca_scope", "per_subject"), ("alpha", 1.5), ("alpha", float("nan")),
        ("pca_threshold", 0), ("conf_threshold", 2), ("max_gap", -1),
        ("metrics", ()), ("metrics", ("rmse",)), ("metrics", ("dtw", "dtw")),
        ("features", ()), ("features", ("bogus",)),
        ("features", (FeatureName.STEP_LENGTH, FeatureName.STEP_LENGTH)),
    ])
    def test_library_caller_gets_the_same_checks(self, key, value):
        # each value was accepted, or failed only once an input file was read
        with pytest.raises(ValueError, match=f"^{key}"):
            RunConfig(Path("manifest.csv"), Path("out"), **{key: value})

    def test_config_value_overridden_by_a_flag_is_still_checked(self, dataset, tmp_path,
                                                               capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("histogram-bins = 1\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg),
                           "--histogram-bins", "64") == 1
        assert capsys.readouterr().err == f"error: {cfg}: histogram_bins must be >= 2\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("option, message", [
        ("--marker-map", "marker_map: [Errno 2] No such file or directory: ''"),
        ("--config", "[Errno 2] No such file or directory: ''"),
    ])
    def test_empty_file_option_is_a_file_that_cannot_be_read(self, dataset, tmp_path,
                                                             option, message):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        done = subprocess.run(
            [sys.executable, "-m", "gaitview.cli", "analyze", "--manifest", str(dataset),
             "--out", str(tmp_path / "o"), option, ""],
            env=env, capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (1, f"error: {message}\n")
        assert not (tmp_path / "o").exists()

    def test_config_marker_map_is_relative_to_the_config_file(self, dataset, tmp_path,
                                                               monkeypatch):
        (tmp_path / "cfgdir").mkdir()
        (tmp_path / "cfgdir" / "roles.map").write_text("l_hip = l_hip\nr_hip = r_hip\n")
        (tmp_path / "cfgdir" / "run.cfg").write_text("marker-map = roles.map\n")
        monkeypatch.chdir(tmp_path)
        assert run_analyze(dataset, "from_file", "--config", "cfgdir/run.cfg") == 0
        assert run_analyze(dataset, "from_flag", "--marker-map", "cfgdir/roles.map") == 0
        hashes = [json.loads((tmp_path / out / "run_metadata.json").read_text())["config_hash"]
                  for out in ("from_file", "from_flag")]
        assert hashes[0] == hashes[1] != RunConfig(dataset, tmp_path).fingerprint()

    def test_settings_at_their_bounds_accepted(self, dataset, tmp_path):
        assert run_analyze(dataset, tmp_path / "o", "--pca-threshold", "1",
                           "--conf-threshold", "0", "--max-gap", "0") == 0
        assert json.loads((tmp_path / "o" / "run_metadata.json").read_text())[
            "pca_threshold"] == 1.0


class TestReportSet:
    @pytest.mark.parametrize("blocked", ["radar.json", "stats_knee_rotation.csv"])
    def test_failed_run_leaves_earlier_reports_whole(self, dataset, tmp_path, capsys,
                                                     blocked):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("not a report\n")
        assert run_analyze(dataset, out) == 0
        assert (out / "notes.txt").read_text() == "not a report\n"
        (out / blocked).unlink()
        (out / blocked).mkdir()
        names, before = sorted(os.listdir(out)), tree_digests(out)
        # a narrower run would rewrite every report and delete stats_knee_rotation.csv
        assert run_analyze(dataset, out, "--features", "step_length", "--metrics", "dtw") == 1
        assert sorted(os.listdir(out)) == names  # no temporary entry either
        assert tree_digests(out) == before
        assert "notes.txt" in before
        assert f"{out / blocked} is not a file" in capsys.readouterr().err

    def test_successful_and_bad_input_runs_leave_no_temporary_entry(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(dataset, out) == 0
        (out / "notes.txt").write_text("not a report\n")
        assert run_analyze(dataset, out, "--features", "step_length") == 0
        names = [
            "metric_records.csv", "notes.txt", "pca_summary.csv", "radar.json",
            "run_metadata.json", "stats_step_length.csv",
        ]
        assert sorted(os.listdir(out)) == names
        broken = tmp_path / "manifest.csv"
        broken.write_text("subject,trial,kind,path\n1,1,mocap3d,absent.csv\n"
                          "1,1,frontal,absent_f.csv\n1,1,lateral,absent_l.csv\n")
        assert run_analyze(broken, out) == 1
        assert sorted(os.listdir(out)) == names


class TestManifest:
    @pytest.mark.parametrize("extra_row, line, message", [
        ("1,1,sideways,s01_lateral.csv", 5, "unknown kind 'sideways'"),
        ("1,2,frontal,s01_frontal.csv", 5, "subject 1 is listed under trials 1 and 2"),
        ("1,1,lateral,s01_lateral.csv", 5, "duplicate lateral row for subject 1"),
        ("1,1,mocap3d", 5, "column 4: missing path cell"),
        ("x,1,mocap3d,s01_mocap3d.csv", 5, "column 1: subject must be an integer >= 1, got 'x'"),
        ("1,-2,mocap3d,s01_mocap3d.csv", 5, "column 2: trial must be an integer >= 1, got '-2'"),
        ("0,1,mocap3d,s01_mocap3d.csv", 5, "column 1: subject must be an integer >= 1, got '0'"),
        ("1,1,mocap3d,s01_mocap3d.csv,extra", 5,
         "column 5: extra cell 'extra' beyond the 4 header columns"),
    ])
    def test_rejected_row_exit_1(self, tmp_path, capsys, extra_row, line, message):
        manifest = run_synth(tmp_path / "d", subjects=1)
        with open(manifest, "a") as fh:
            fh.write(extra_row + "\n")
        assert run_analyze(manifest, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"{manifest}: line {line}" in err
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row, column, cell", [
        ("\u0661,1,mocap3d,s01_mocap3d.csv", 1, "subject"),  # ARABIC-INDIC DIGIT ONE
        ("1,\uff11,mocap3d,s01_mocap3d.csv", 2, "trial"),  # FULLWIDTH DIGIT ONE
    ], ids=["subject", "trial"])
    def test_non_ascii_digit_exit_1(self, tmp_path, capsys, row, column, cell):
        # int() reads any Unicode decimal digit: the run passed, reporting subject 1
        manifest = run_synth(tmp_path / "d", subjects=2)
        text = manifest.read_text(encoding="utf-8")
        manifest.write_text(text.replace("1,1,mocap3d,s01_mocap3d.csv", row), encoding="utf-8")
        assert run_analyze(manifest, tmp_path / "out") == 1
        value = row.split(",")[column - 1]
        assert (f"error: {manifest}: line 2, column {column}: {cell} must be an integer >= 1, "
                f"got {value!r}" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("listed", ["s01_frontal.csv", "./s01_frontal.csv"])
    def test_file_listed_twice_exit_1(self, tmp_path, capsys, listed):
        # subject 1's lateral records equalled its frontal ones, and the stats used them
        manifest = run_synth(tmp_path / "d", subjects=4, seed=3)
        manifest.write_text(manifest.read_text().replace("1,1,lateral,s01_lateral.csv",
                                                         f"1,1,lateral,{listed}"))
        assert run_analyze(manifest, tmp_path / "out") == 1
        assert (f"error: {manifest}: line 4, column 4: {listed} is the file of line 3 too; "
                "each file belongs to one row" in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_subject_without_a_view_exit_1(self, tmp_path, capsys):
        # failed only after every trial was scored, naming no manifest line; no file is
        # read now, so subject 1's missing mocap3d file goes unnoticed
        manifest = run_synth(tmp_path / "d", subjects=4, seed=3)
        manifest.write_text(manifest.read_text().replace("2,1,lateral,s02_lateral.csv\n", ""))
        (tmp_path / "d" / "s01_mocap3d.csv").unlink()
        assert run_analyze(manifest, tmp_path / "out") == 1
        assert (f"error: manifest {manifest}: subject 2 has no lateral row; every subject "
                "needs one mocap3d, one frontal and one lateral row"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_byte_order_mark_named_in_the_header_error(self, tmp_path, capsys):
        # the error listed the four required columns without saying what it read; the
        # byte-order mark shows escaped, and the manifest is not decoded differently
        manifest = run_synth(tmp_path / "d", subjects=1)
        manifest.write_bytes(b"\xef\xbb\xbf" + manifest.read_bytes())
        assert run_analyze(manifest, tmp_path / "out") == 1
        assert (f"error: manifest {manifest} must have columns ['kind', 'path', 'subject', "
                r"'trial'], got ['\ufeffsubject', 'trial', 'kind', 'path']"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_reports_do_not_depend_on_row_order(self, tmp_path):
        # the stats pair the two views' scores by position, so both runs must order alike
        manifest = run_synth(tmp_path / "d", subjects=6, seed=3)
        header, *rows = manifest.read_text().splitlines(keepends=True)
        reversed_manifest = manifest.with_name("reversed.csv")
        reversed_manifest.write_text(header + "".join(reversed(rows)))
        assert run_analyze(manifest, tmp_path / "a") == 0
        assert run_analyze(reversed_manifest, tmp_path / "b") == 0
        a, b = tree_digests(tmp_path / "a"), tree_digests(tmp_path / "b")
        meta_a, meta_b = (json.loads((tmp_path / out / "run_metadata.json").read_text())
                          for out in ("a", "b"))
        assert (meta_a.pop("manifest"), meta_b.pop("manifest")) == (
            str(manifest), str(reversed_manifest))
        assert meta_a == meta_b
        del a["run_metadata.json"], b["run_metadata.json"]
        assert a == b and len(a) == 7

    def test_trial_index_reaches_records(self, tmp_path):
        manifest = run_synth(tmp_path / "d", subjects=2)
        manifest.write_text(manifest.read_text().replace("\n2,1,", "\n2,3,"))
        out = tmp_path / "out"
        assert run_analyze(manifest, out) == 0
        with open(out / "metric_records.csv", newline="") as fh:
            trials = {(row["subject"], row["trial"]) for row in csv.DictReader(fh)}
        assert trials == {("1", "1"), ("2", "3")}


class TestRecommendCommand:
    def test_recommend_writes_csv(self, analyzed, capsys):
        assert main(["recommend", "--analyzed", str(analyzed)]) == 0
        out = capsys.readouterr().out
        path = analyzed / "recommendations.csv"
        assert path.exists()
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["feature", "side", "recommended_view", "rationale"]
        assert len(rows) - 1 == 7
        for row in rows[1:]:
            assert row[2] in ("frontal", "lateral", "tie")
        assert len(out.splitlines()) == 7

    def test_significant_direction_votes_only(self, tmp_path):
        rows = [  # metric, p_value, winner
            ("dtw_left", "0.01", "frontal"), ("mcc_left", "0.02", "frontal"),
            ("kld_left", "0.03", "lateral"), ("ie_left", "0.001", "lateral"),
            ("dtw_right", "0.01", "frontal"), ("mcc_right", "0.05", "lateral"),
            ("kld_right", "0.04", "lateral"), ("ie_right", "0.001", "lateral"),
        ]
        with open(tmp_path / "stats_step_length.csv", "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(STATS_HEADER)
            writer.writerows([metric, "1", "0", "2", "0", p, "0.5", "medium", winner]
                             for metric, p, winner in rows)
        expected = [
            # 2 frontal votes against 1; the IE row casts none
            {"feature": "step_length", "side": "left", "recommended_view": "frontal",
             "rationale": "dtw:frontal;kld:lateral;mcc:frontal"},
            # mcc_right's p = alpha casts no vote, leaving 1 against 1
            {"feature": "step_length", "side": "right", "recommended_view": "tie",
             "rationale": "dtw:frontal;kld:lateral"},
        ]
        assert recommend(tmp_path, alpha=0.05) == expected
        with open(tmp_path / "recommendations.csv", newline="") as fh:
            assert list(csv.DictReader(fh)) == expected

    @pytest.mark.parametrize("row, column, message", [
        ("dtw_left,1,2", 4, "missing lateral_mean cell"),
        ("dtw_left,1,0,2,0,0.01,0.5,medium,frontal,extra", 10,
         "extra cell 'extra' beyond the 9 header columns"),
        ("dtw_left,1,0,2,0,abc,0.5,medium,frontal", 6,
         "p_value must be a number in [0, 1], got 'abc'"),
        ("dtw_left,1,0,2,0,nan,0.5,medium,frontal", 6,
         "p_value must be a number in [0, 1], got 'nan'"),
        ("dtw_left,1,0,2,0,-0.01,0.5,medium,frontal", 6,
         "p_value must be a number in [0, 1], got '-0.01'"),
        ("dtw_left,1,0,2,0,0.01,0.5,medium,sideways", 9, "unknown winner 'sideways'"),
        ("dtx_left,1,0,2,0,0.01,0.5,medium,frontal", 1, "unknown metric 'dtx_left'"),
        ("dtw_up,1,0,2,0,0.01,0.5,medium,frontal", 1, "unknown metric 'dtw_up'"),
        # a second vote of one metric and side
        ("dtw_right,1,0,2,0,0.01,0.5,medium,frontal", 1,
         "second dtw_right row; the first is line 2"),
    ], ids=["short", "extra_cell", "p_abc", "p_nan", "p_negative", "winner", "metric", "side",
            "repeated"])
    def test_malformed_stats_row_exit_1(self, tmp_path, capsys, row, column, message):
        path = tmp_path / "stats_step_length.csv"
        path.write_text(",".join(STATS_HEADER) + "\n"
                        "dtw_right,1,0,2,0,0.01,0.5,medium,frontal\n" + row + "\n")
        assert main(["recommend", "--analyzed", str(tmp_path)]) == 1
        assert f"{path}: line 3, column {column}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "recommendations.csv").exists()

    def test_reads_only_the_features_stats_files(self, analyzed, tmp_path):
        copy = tmp_path / "analysis"
        shutil.copytree(analyzed, copy)
        expected = recommend(copy)
        shutil.copy(copy / "stats_step_length.csv", copy / "stats_step_length_old.csv")
        assert recommend(copy) == expected

    def test_alpha_outside_unit_interval_rejected_before_reading(self, analyzed, tmp_path):
        copy = tmp_path / "analysis"
        shutil.copytree(analyzed, copy)
        (copy / "recommendations.csv").unlink(missing_ok=True)
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\), got 5$"):
            recommend(copy, alpha=5)
        assert not (copy / "recommendations.csv").exists()

    def test_not_analyzed_dir(self, tmp_path):
        with pytest.raises(GaitViewError,
                           match=f"^{re.escape(f'no stats_<feature>.csv files in {tmp_path}')}$"):
            recommend(tmp_path)

    def test_stats_file_that_is_not_utf8_is_named(self, analyzed, tmp_path, capsys):
        # the error was "'utf-8' codec can't decode byte 0xff in position ..." alone
        copy = tmp_path / "copy"
        shutil.copytree(analyzed, copy)
        stats = copy / "stats_step_length.csv"
        size = stats.stat().st_size
        stats.write_bytes(stats.read_bytes() + b"\xff")
        assert main(["recommend", "--analyzed", str(copy)]) == 1
        assert (f"error: {stats}: 'utf-8' codec can't decode byte 0xff in position {size}"
                in capsys.readouterr().err)

    def test_ie_only_stats_give_tie_rows(self, dataset, tmp_path):
        # IE has no better direction: an IE-only analysis gave a header and no row
        out = tmp_path / "ie"
        assert run_analyze(dataset, out, "--metrics", "ie") == 0
        assert main(["recommend", "--analyzed", str(out)]) == 0
        with open(out / "recommendations.csv", newline="") as fh:
            rows = [tuple(row.values()) for row in csv.DictReader(fh)]
        assert rows == [(feature, side, "tie", "") for feature, side in [
            ("knee_rotation", "left"), ("knee_rotation", "right"),
            ("step_length", "left"), ("step_length", "right"),
            ("trunk_rotation", "bilateral"), ("wrist_hipmid", "left"),
            ("wrist_hipmid", "right")]]

    def test_recommend_cli_error_path(self, tmp_path, capsys):
        rc = main(["recommend", "--analyzed", str(tmp_path)])
        assert rc == 1
        assert "stats_" in capsys.readouterr().err


class TestTieBehaviour:
    def test_identical_views_all_tie(self, tmp_path, capsys):
        # give both 2D rows the same data: every comparison ties (the manifest
        # cannot list one file twice)
        manifest = run_synth(tmp_path / "d", subjects=4, noise=0.0)
        for subject in range(1, 5):
            shutil.copy(tmp_path / "d" / f"s{subject:02d}_lateral.csv",
                        tmp_path / "d" / f"s{subject:02d}_frontal.csv")
        out = tmp_path / "out"
        assert run_analyze(manifest, out) == 0
        for stats in sorted(out.glob("stats_*.csv")):
            with open(stats, newline="") as fh:
                for row in csv.DictReader(fh):
                    assert float(row["p_value"]) == 1.0
                    if not row["metric"].startswith("ie"):
                        assert row["winner"] == "tie"
        assert main(["recommend", "--analyzed", str(out)]) == 0
        with open(out / "recommendations.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                assert row["recommended_view"] == "tie"
                assert row["rationale"] == ""
