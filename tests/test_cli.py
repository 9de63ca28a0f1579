import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from gaitview.cli import (
    PCA_HEADER,
    RECORDS_HEADER,
    STATS_HEADER,
    RunConfig,
    main,
    recommend,
)
from gaitview import preprocess
from gaitview.features import FeatureName
from gaitview.errors import NotAnalyzed


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


SCIPY_PROBE = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises
from gaitview.cli import main
assert main(sys.argv[1:]) == 0
print(sorted(k for k, m in sys.modules.items()
             if m is not None and (k == "scipy" or k.startswith("scipy."))))
"""


def scipy_modules_after(*argv):
    """scipy modules a fresh interpreter holds after running `gaitview *argv`
    with scipy made unimportable; a run that imports scipy fails."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", SCIPY_PROBE, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return done.stdout.splitlines()[-1]


class TestStartupWithoutScipy:
    def test_version(self):
        assert scipy_modules_after("version") == "[]"

    def test_recommend(self, analyzed, tmp_path):
        copy = tmp_path / "analysis"
        shutil.copytree(analyzed, copy)
        assert scipy_modules_after("recommend", "--analyzed", str(copy)) == "[]"

    def test_analyze(self, dataset, tmp_path):
        out = str(tmp_path / "analysis")
        assert scipy_modules_after("analyze", "--manifest", str(dataset), "--out", out) == "[]"

    def test_synth(self, tmp_path):
        out = str(tmp_path / "data")
        assert scipy_modules_after("synth", "--subjects", "1", "--out", out) == "[]"


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

    def test_missing_3d_file_exit_1(self, tmp_path, capsys):
        manifest = run_synth(tmp_path / "d", subjects=1)
        (tmp_path / "d" / "s01_mocap3d.csv").unlink()
        rc = run_analyze(manifest, tmp_path / "out")
        assert rc == 1
        assert "missing file" in capsys.readouterr().err
        assert not (tmp_path / "out" / "metric_records.csv").exists()

    def test_file_error_names_subject_trial_view_and_path(self, tmp_path, capsys):
        manifest = run_synth(tmp_path / "d", subjects=2)
        short = tmp_path / "d" / "s02_lateral.csv"
        lines = short.read_text().splitlines(keepends=True)
        short.write_text("".join(line for line in lines
                                 if line[0].isalpha() or int(line.split(",")[0]) < 12))
        assert run_analyze(manifest, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert f"(subject 2, trial 1, lateral, {short}): " in err
        assert "signal length 12 must exceed padding length 15" in err

    def test_narrower_run_removes_stale_reports(self, dataset, tmp_path):
        out = tmp_path / "out"
        assert run_analyze(dataset, out) == 0
        recommend(out)
        before = tree_digests(out)
        (tmp_path / "d").mkdir()
        broken = tmp_path / "d" / "manifest.csv"
        broken.write_text("subject,trial,kind,path\n1,1,mocap3d,absent.csv\n")
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
        assert designs == [preprocess.FilterSpec()] * 2  # 2 subjects, 3 equal-length files each

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


class TestSettings:
    def test_config_hash_is_pinned(self):
        # run_metadata.json's config_hash; a refactor of RunConfig must not move it
        paths = (Path("data/manifest.csv"), Path("results"))
        assert RunConfig(*paths).fingerprint() == (
            "911610354a101edab82cec7b9820cd3b4d6045f13e9b7d21026049382a240f15")
        assert RunConfig(
            *paths, pca_scope="per-subject", metrics=("dtw", "kld"),
            features=(FeatureName.STEP_LENGTH, FeatureName.TRUNK_ROTATION),
            marker_map={"l_hip": "LASI", "r_hip": "RASI"},
        ).fingerprint() == "1722680cf096a8b83461342b30b6385aac55b69bd73889d97d356c31ebefa780"

    @pytest.mark.parametrize("flags, config, message", [
        (["--features", "trunk_rotation,trunk_rotation"], None,
         "features: 'trunk_rotation' is listed twice"),
        (["--metrics", "dtw, kld,dtw"], None, "metrics: 'dtw' is listed twice"),
        ([], "features = step_length,trunk_rotation,step_length",
         "features: 'step_length' is listed twice"),
        ([], "metrics = mcc,mcc", "metrics: 'mcc' is listed twice"),
    ])
    def test_repeated_name_exit_1(self, dataset, tmp_path, capsys, flags, config, message):
        if config is not None:
            (tmp_path / "run.cfg").write_text(config + "\n")
            flags = ["--config", str(tmp_path / "run.cfg")]
        assert run_analyze(dataset, tmp_path / "o", *flags) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("value", ["0", "1", "1.5", "-0.05"])
    def test_alpha_outside_unit_interval_rejected(self, dataset, analyzed, tmp_path, capsys,
                                                  value):
        message = f"must be in (0, 1), got {value}"
        with pytest.raises(SystemExit) as exit_info:
            run_analyze(dataset, tmp_path / "o", "--alpha", value)
        assert exit_info.value.code == 2
        assert f"argument --alpha: {message}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"alpha = {value}\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        assert f"error: {cfg}: alpha: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()
        copy = tmp_path / "analysis"
        shutil.copytree(analyzed, copy)
        with pytest.raises(SystemExit) as exit_info:
            main(["recommend", "--analyzed", str(copy), "--alpha", value])
        assert exit_info.value.code == 2
        assert f"argument --alpha: {message}" in capsys.readouterr().err
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

        monkeypatch.setattr("gaitview.cli.parse_marker_csv", unread)
        monkeypatch.setattr("gaitview.cli.parse_pose_csv", unread)
        with pytest.raises(SystemExit) as exit_info:
            run_analyze(dataset, tmp_path / "o", f"--{key}", value)
        assert exit_info.value.code == 2
        assert f"argument --{key}: {message}" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert run_analyze(dataset, tmp_path / "o", "--config", str(cfg)) == 1
        assert f"error: {cfg}: {key}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--log-base", "inf", "log_base must be finite, got inf"),
        ("--log-base", "nan", "log_base must be finite, got nan"),
        ("--smoothing-epsilon", "inf", "smoothing_epsilon must be finite, got inf"),
        ("--cutoff-hz", "nan", "cutoff_hz must be finite, got nan"),
        ("--sample-rate-hz", "inf", "sample_rate_hz must be finite, got inf"),
    ])
    def test_non_finite_setting_rejected_before_reading_input(
            self, dataset, tmp_path, capsys, monkeypatch, flag, value, message):
        def unread(*args, **kwargs):
            raise AssertionError("an input file was read")

        monkeypatch.setattr("gaitview.cli.parse_marker_csv", unread)
        monkeypatch.setattr("gaitview.cli.parse_pose_csv", unread)
        assert run_analyze(dataset, tmp_path / "o", flag, value) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_analyze_options_unchanged(self, capsys):
        # the flags are built from the --config key table; none may drop out or be renamed
        with pytest.raises(SystemExit) as exit_info:
            main(["analyze", "--help"])
        assert exit_info.value.code == 0
        options = set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", capsys.readouterr().out))
        assert sorted(options) == sorted([
            "-h", "--help", "--manifest", "--out", "--config", "--alpha", "--pca-threshold",
            "--pca-scope", "--cutoff-hz", "--filter-order", "--sample-rate-hz", "--no-filter",
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
        broken.write_text("subject,trial,kind,path\n1,1,mocap3d,absent.csv\n")
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

    def test_not_analyzed_dir(self, tmp_path):
        with pytest.raises(NotAnalyzed):
            recommend(tmp_path)

    def test_recommend_cli_error_path(self, tmp_path, capsys):
        rc = main(["recommend", "--analyzed", str(tmp_path)])
        assert rc == 1
        assert "stats_" in capsys.readouterr().err


class TestTieBehaviour:
    def test_identical_views_all_tie(self, tmp_path, capsys):
        # point both 2D entries at the same file: every comparison ties
        manifest = run_synth(tmp_path / "d", subjects=4, noise=0.0)
        text = manifest.read_text().replace("_frontal.csv", "_lateral.csv")
        manifest.write_text(text)
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
