import hashlib
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitview.errors import BehindCamera
from gaitview.features import FeatureName, signal
from gaitview.ingest import KEYPOINT_NAMES, MarkerFrame, MarkerSequence, parse_marker_csv
from gaitview.signal_core import SideLabel, ViewLabel
from gaitview.synth import (
    MARKER_ROLES,
    CameraModel,
    GaitModelParams,
    _randomized_params,
    add_pixel_noise,
    generate_gait,
    make_camera,
    make_paired_dataset,
    preset_cameras,
    project,
)
from oracles import generate_gait_loop, project_loop

IDENTITY_LOOKING_PLUS_X = make_camera((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def file_digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class TestGenerateGait:
    def test_marker_set_and_length(self):
        seq = generate_gait(GaitModelParams())
        assert len(seq.frames) == 169
        assert set(seq.frames[0].markers) == set(MARKER_ROLES)

    def test_deterministic(self):
        a = generate_gait(GaitModelParams(marker_noise_sd_mm=5.0, seed=3))
        b = generate_gait(GaitModelParams(marker_noise_sd_mm=5.0, seed=3))
        for fa, fb in zip(a.frames, b.frames):
            assert fa.markers == fb.markers

    def test_pelvis_advances_at_constant_speed(self):
        params = GaitModelParams()
        seq = generate_gait(params)
        mid_x = [(fr.markers["left_hip"][0] + fr.markers["right_hip"][0]) / 2
                 for fr in seq.frames]
        v = np.diff(mid_x) * params.sample_rate_hz
        assert np.allclose(v, params.walking_speed_mps, atol=1e-9)

    def test_limb_lengths_constant(self):
        params = GaitModelParams()
        seq = generate_gait(params)
        for fr in seq.frames:
            hip = np.array(fr.markers["left_hip"])
            knee = np.array(fr.markers["left_knee"])
            ankle = np.array(fr.markers["left_ankle"])
            assert abs(np.linalg.norm(knee - hip) - params.thigh_len_m) < 1e-12
            assert abs(np.linalg.norm(ankle - knee) - params.shank_len_m) < 1e-12

    def test_sides_half_cycle_apart(self):
        # 1 Hz cycle at 100 Hz sampling: left ankle oscillation leads the
        # right by exactly 50 frames once forward travel is removed
        params = GaitModelParams(n_frames=169)
        seq = generate_gait(params)
        t = np.array([fr.time_s for fr in seq.frames])
        lx = np.array([fr.markers["left_ankle"][0] for fr in seq.frames])
        rx = np.array([fr.markers["right_ankle"][0] for fr in seq.frames])
        l_osc = lx - params.walking_speed_mps * t
        r_osc = rx - params.walking_speed_mps * t
        half = 50
        assert np.allclose(l_osc[: -half], r_osc[half:], atol=1e-9)

    def test_trunk_rotation_amplitude(self):
        params = GaitModelParams()
        seq = generate_gait(params)
        ts = signal(seq, FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL)
        assert abs(np.max(np.abs(ts.samples)) - params.trunk_rot_amp_deg
                   - params.hip_rot_amp_deg) < 0.5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GaitModelParams(n_frames=1)
        with pytest.raises(ValueError):
            GaitModelParams(cycle_hz=0.0)
        with pytest.raises(ValueError):
            GaitModelParams(noise_sd=-1.0)

    @pytest.mark.parametrize("name, value", [
        *((f.name, np.nan) for f in fields(GaitModelParams) if f.type == "float"),
        ("noise_sd", np.inf), ("cycle_hz", -np.inf),
    ])
    def test_non_finite_float_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            GaitModelParams(**{name: value})

    @pytest.mark.parametrize("cycle_hz", [50.0, 1e308])
    def test_cycle_at_or_above_nyquist_rejected(self, cycle_hz):
        message = f"cycle_hz must be below the Nyquist frequency (50.0 Hz), got {cycle_hz}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            GaitModelParams(cycle_hz=cycle_hz)

    def test_overflowing_coordinates_rejected(self):
        # 1e308 m/s carries the pelvis past the largest float after 1.8 s
        params = GaitModelParams(n_frames=300, walking_speed_mps=1e308)
        with pytest.raises(ValueError, match="^parameters overflow: a generated coordinate "
                                             "is not finite$"):
            generate_gait(params)


class TestCamera:
    def test_rotation_must_be_orthonormal(self):
        with pytest.raises(ValueError):
            CameraModel(position=(0, 0, 0), rotation=((1, 0, 0), (0, 2, 0), (0, 0, 1)))

    def test_point_on_axis_hits_principal_point(self):
        cam = IDENTITY_LOOKING_PLUS_X
        seq = MarkerSequence([MarkerFrame(0, 0.0, {r: (5.0, 0.0, 0.0) for r in MARKER_ROLES})])
        pose = project(seq, cam)
        u, v, _ = pose.frames[0].keypoints["left_hip"]
        assert (u, v) == cam.principal_point

    def test_projection_formula(self):
        # camera at origin looking along +x, point at (2, 0.5, -0.3):
        # u = cx + f * (-y)/x? depends on right = forward x up = (0,-1,0)
        cam = IDENTITY_LOOKING_PLUS_X
        pt = (2.0, 0.5, -0.3)
        seq = MarkerSequence([MarkerFrame(0, 0.0, {r: pt for r in MARKER_ROLES})])
        pose = project(seq, cam)
        u, v, _ = pose.frames[0].keypoints["left_hip"]
        f = cam.focal_px
        cx, cy = cam.principal_point
        assert abs(u - (cx + f * (-0.5) / 2.0)) < 1e-9  # right = (0, -1, 0)
        assert abs(v - (cy + f * (0.3) / 2.0)) < 1e-9   # down = (0, 0, -1)

    def test_scale_about_camera_invariance(self):
        # scaling world points about the camera center leaves pixels fixed
        cam = make_camera((1.0, -2.0, 0.5), (0.2, 1.0, 0.0), tilt_down_deg=7.0)
        rng = np.random.default_rng(14)
        base_pts = {r: tuple(rng.normal([3.0, 2.0, 1.0], 0.5)) for r in MARKER_ROLES}
        pos = np.array(cam.position)
        scaled = {r: tuple(pos + 3.7 * (np.array(p) - pos)) for r, p in base_pts.items()}
        p1 = project(MarkerSequence([MarkerFrame(0, 0.0, base_pts)]), cam)
        p2 = project(MarkerSequence([MarkerFrame(0, 0.0, scaled)]), cam)
        # face keypoints are synthesized with fixed (unscaled) world offsets
        # from the head marker, so only the marker-backed keypoints apply
        for name in (r for r in MARKER_ROLES if r != "head"):
            a = np.array(p1.frames[0].keypoints[name][:2])
            b = np.array(p2.frames[0].keypoints[name][:2])
            assert np.max(np.abs(a - b)) < 1e-6

    def test_behind_camera_raises(self):
        cam = IDENTITY_LOOKING_PLUS_X
        seq = MarkerSequence([MarkerFrame(0, 0.0, {r: (-1.0, 0.0, 0.0) for r in MARKER_ROLES})])
        with pytest.raises(BehindCamera):
            project(seq, cam)

    @pytest.mark.filterwarnings("error")
    def test_camera_at_infinity_rejected(self):
        # 1e307 m/s keeps the markers finite but puts both preset cameras at x = inf
        params = GaitModelParams(walking_speed_mps=1e307)
        seq = generate_gait(params)
        for view, cam in preset_cameras(params).items():
            with pytest.raises(ValueError, match="^frame 0: keypoint nose projects to a "
                                                 "non-finite pixel$"):
                project(seq, cam, view=view)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_pixel_names_frame_and_keypoint(self):
        params = GaitModelParams(n_frames=5)
        seq = generate_gait(params)
        values = seq.values.copy()
        values[3, list(seq.names).index("left_knee"), 1] = 1e307  # 1e307 m to the side
        cam = preset_cameras(params)[ViewLabel.FRONTAL]
        with pytest.raises(ValueError, match="^frame 3: keypoint left_knee projects to a "
                                             "non-finite pixel$"):
            project(seq.with_values(values), cam)

    def test_presets_see_whole_trial(self):
        params = GaitModelParams()
        seq = generate_gait(params)
        for view, cam in preset_cameras(params).items():
            pose = project(seq, cam, view=view)
            assert len(pose.frames) == params.n_frames
            assert set(pose.frames[0].keypoints) == set(KEYPOINT_NAMES)

    def test_lateral_view_x_monotone(self):
        # walking +x seen from the side: hip pixel u grows monotonically
        params = GaitModelParams()
        seq = generate_gait(params)
        cam = preset_cameras(params)[ViewLabel.LATERAL]
        pose = project(seq, cam, view=ViewLabel.LATERAL)
        mid_u = np.array([
            (fr.keypoints["left_hip"][0] + fr.keypoints["right_hip"][0]) / 2
            for fr in pose.frames
        ])
        assert np.all(np.diff(mid_u) > 0)


class TestFrontalTrunkAngle:
    @pytest.mark.xfail(
        strict=True,
        reason="perspective depth compression shrinks the frontal image-plane "
        "trunk angle far below the 3D rotation; equality within 1.5 deg "
        "is geometrically unattainable at this camera distance",
    )
    def test_frontal_image_angle_matches_3d(self):
        params = GaitModelParams()
        seq = generate_gait(params)
        cam = preset_cameras(params)[ViewLabel.FRONTAL]
        pose = project(seq, cam, view=ViewLabel.FRONTAL)
        ang2d = signal(pose, FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL).samples
        ang3d = signal(seq, FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL).samples
        assert np.max(np.abs(np.abs(ang2d) - np.abs(ang3d))) < 1.5

    def test_frontal_image_angle_proportional_to_3d(self):
        # shape is preserved even though the amplitude is compressed
        params = GaitModelParams()
        seq = generate_gait(params)
        cam = preset_cameras(params)[ViewLabel.FRONTAL]
        pose = project(seq, cam, view=ViewLabel.FRONTAL)
        ang2d = signal(pose, FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL).samples
        ang3d = signal(seq, FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL).samples
        r = np.corrcoef(ang2d, ang3d)[0, 1]
        assert abs(r) > 0.97
        assert np.max(np.abs(ang2d)) < 0.5 * np.max(np.abs(ang3d))


class TestPixelNoise:
    def test_zero_sd_is_identity(self):
        params = GaitModelParams()
        pose = project(generate_gait(params), preset_cameras(params)[ViewLabel.LATERAL])
        out = add_pixel_noise(pose, 0.0, np.random.default_rng(0))
        assert out is pose

    def test_noise_statistics(self):
        params = GaitModelParams(n_frames=300)
        pose = project(generate_gait(params), preset_cameras(params)[ViewLabel.LATERAL])
        noisy = add_pixel_noise(pose, 2.0, np.random.default_rng(5))
        deltas = []
        for fa, fb in zip(pose.frames, noisy.frames):
            for name in fa.keypoints:
                deltas.append(fb.keypoints[name][0] - fa.keypoints[name][0])
                deltas.append(fb.keypoints[name][1] - fa.keypoints[name][1])
        deltas = np.array(deltas)
        assert abs(deltas.std() - 2.0) < 0.1
        assert abs(deltas.mean()) < 0.1


class TestPairedDataset:
    def test_layout_and_determinism(self, tmp_path):
        params = GaitModelParams(noise_sd=1.0, seed=42)
        m1 = make_paired_dataset(params, subjects=3, out_dir=tmp_path / "a")
        m2 = make_paired_dataset(params, subjects=3, out_dir=tmp_path / "b")
        files1 = sorted(p.name for p in (tmp_path / "a").iterdir())
        assert files1 == sorted(p.name for p in (tmp_path / "b").iterdir())
        assert len(files1) == 3 * 3 + 1  # 3 files per subject + manifest
        for name in files1:
            assert file_digest(tmp_path / "a" / name) == file_digest(tmp_path / "b" / name)
        lines = m1.read_text().splitlines()
        assert lines[0] == "subject,trial,kind,path"
        assert len(lines) == 1 + 3 * 3

    def test_subject_streams_independent(self, tmp_path):
        # subject 2's files do not depend on how many subjects precede it
        params = GaitModelParams(noise_sd=1.0, seed=7)
        make_paired_dataset(params, subjects=2, out_dir=tmp_path / "two")
        make_paired_dataset(params, subjects=5, out_dir=tmp_path / "five")
        for view in ("mocap3d", "frontal", "lateral"):
            name = f"s02_{view}.csv"
            assert file_digest(tmp_path / "two" / name) == file_digest(tmp_path / "five" / name)

    def test_marker_csv_in_millimeters(self, tmp_path):
        params = GaitModelParams(seed=1)
        make_paired_dataset(params, subjects=1, out_dir=tmp_path)
        seq = parse_marker_csv(tmp_path / "s01_mocap3d.csv")
        z_head = seq.frames[0].markers["head"][2]
        assert 1000.0 < z_head < 2500.0  # ~1.68 m in mm

    def test_subject_variation(self, tmp_path):
        params = GaitModelParams(seed=9)
        make_paired_dataset(params, subjects=3, out_dir=tmp_path)
        lengths = set()
        for i in (1, 2, 3):
            seq = parse_marker_csv(tmp_path / f"s{i:02d}_mocap3d.csv")
            lengths.add(len(seq.frames))
        assert len(lengths) > 1

    def test_long_trials_not_capped(self, tmp_path):
        # per-subject lengths scatter around n_frames with no upper clip
        params = GaitModelParams(n_frames=600, seed=4)
        make_paired_dataset(params, subjects=2, out_dir=tmp_path)
        for i in (1, 2):
            seq = parse_marker_csv(tmp_path / f"s{i:02d}_mocap3d.csv")
            assert len(seq.frames) > 400


def bits(seq) -> tuple:
    """Everything a sequence holds, floats as their bytes."""
    return (type(seq), seq.view, seq.names, seq.frame_index.dtype, seq.times.dtype,
            seq.values.shape, seq.frame_index.tobytes(), seq.times.tobytes(),
            seq.values.tobytes())


def outcome(make):
    """The sequence make returns as bits, or the (frame, keypoint) BehindCamera names."""
    try:
        return bits(make())
    except BehindCamera as exc:
        return exc.frame, exc.marker


@st.composite
def subject_params(draw):
    """A subject's parameters as make_paired_dataset varies them, at any trial length."""
    base = GaitModelParams(seed=draw(st.integers(0, 10_000)),
                           marker_noise_sd_mm=draw(st.sampled_from([0.0, 5.0])))
    params = _randomized_params(base, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    return replace(params, n_frames=draw(st.integers(2, 700)))


@st.composite
def cameras(draw, params):
    """A preset camera, or one 1.5 to 6 m from a point on the walking path,
    facing it from any direction; the walker may pass behind it."""
    views = [ViewLabel.FRONTAL, ViewLabel.LATERAL]
    choice = draw(st.sampled_from(views + ["random"]))
    if choice != "random":
        return preset_cameras(params)[choice]
    path_len = params.walking_speed_mps * (params.n_frames - 1) / params.sample_rate_hz
    target = draw(st.floats(0.0, 1.0)) * path_len
    heading = draw(st.floats(0.0, 2 * np.pi))
    distance = draw(st.floats(1.5, 6.0))
    look = (np.cos(heading), np.sin(heading), 0.0)
    position = (target - distance * look[0], -distance * look[1], draw(st.floats(0.2, 2.5)))
    return make_camera(position, look, tilt_down_deg=draw(st.floats(-20.0, 30.0)),
                       focal_px=draw(st.floats(200.0, 3000.0)))


class TestLoopOracles:
    """generate_gait and project against the frame-by-frame loops in tests/oracles.py."""

    @settings(max_examples=80, deadline=None)
    @given(subject_params())
    def test_gait_bit_for_bit(self, params):
        assert bits(generate_gait(params)) == bits(generate_gait_loop(params))

    @settings(max_examples=80, deadline=None)
    @given(st.data(), subject_params(), st.floats(0.0, 1.0))
    def test_projection_bit_for_bit(self, data, params, conf):
        seq = generate_gait(params)
        cam = data.draw(cameras(params))
        view = data.draw(st.sampled_from(ViewLabel))
        assert outcome(lambda: project(seq, cam, conf, view)) == outcome(
            lambda: project_loop(seq, cam, conf, view))

    @settings(max_examples=60, deadline=None)
    @given(subject_params(), st.floats(0.05, 0.95), st.sampled_from([1.0, -1.0]),
           st.floats(0.0, 1.7))
    def test_camera_in_walking_path_names_same_point(self, params, where, facing, height):
        # a level camera on the path: its plane is x = its own x, which the
        # ears cross in the first frame (facing +x) or the nose by the last (facing -x)
        path_len = params.walking_speed_mps * (params.n_frames - 1) / params.sample_rate_hz
        cam = make_camera((where * path_len, 0.0, height), (facing, 0.0, 0.0))
        seq = generate_gait(params)
        got = outcome(lambda: project(seq, cam))
        assert got == outcome(lambda: project_loop(seq, cam))
        assert isinstance(got[0], int) and got[1] in KEYPOINT_NAMES
