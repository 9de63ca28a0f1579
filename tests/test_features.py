import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitview.errors import GaitViewError
from gaitview.features import FEATURE_SIDES, FeatureName, extract_all, signal, signal_key_name
from gaitview.ingest import KEYPOINT_NAMES, MarkerSequence, PoseFrame, PoseSequence
from gaitview.metrics import max_cross_correlation
from gaitview.signal_core import SideLabel, ViewLabel
from gaitview.synth import GaitModelParams, generate_gait, preset_cameras, project


def pose_seq(frames_kp, view=ViewLabel.LATERAL, fs=100.0):
    """Build a PoseSequence from a list of {keypoint: (x, y)} dicts."""
    frames = []
    for i, kp in enumerate(frames_kp):
        frames.append(PoseFrame(i, i / fs, {k: (x, y, 1.0) for k, (x, y) in kp.items()}))
    return PoseSequence(view=view, frames=frames)


def walking_frames(n=20, kp_extra=None):
    """Minimal straight-line walk along +x with fixed body layout."""
    out = []
    for i in range(n):
        x = float(i)
        kp = {
            "left_hip": (x, 10.0),
            "right_hip": (x, 12.0),
            "left_ankle": (x + 1.0, 0.0),
            "right_ankle": (x - 1.0, 0.0),
        }
        if kp_extra:
            kp.update(kp_extra(i))
        out.append(kp)
    return out


class TestSignalNames:
    def test_key_names(self):
        assert signal_key_name(FeatureName.STEP_LENGTH, SideLabel.LEFT) == "step_length_left"
        assert signal_key_name(FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL) == "trunk_rotation"

    def test_layout_has_seven_signals(self):
        assert sum(len(v) for v in FEATURE_SIDES.values()) == 7


STEP, KNEE, TRUNK, WRIST = FeatureName
LEFT, RIGHT, BILATERAL = SideLabel


class TestWalkingAxis:
    @staticmethod
    def frames():
        # the left ankle is 2 ahead of the right along +x and 10 across it,
        # so the left step length is 2 * axis[0] + 10 * axis[1]
        return walking_frames(kp_extra=lambda i: {"left_ankle": (i + 1.0, 5.0),
                                                  "right_ankle": (i - 1.0, -5.0)})

    def test_straight_walk_plus_x(self):
        seq = pose_seq(self.frames())
        assert np.allclose(signal(seq, STEP, LEFT), 2.0, rtol=0, atol=1e-12)

    def test_oriented_by_net_displacement(self):
        seq = pose_seq(self.frames()[::-1])
        assert np.allclose(signal(seq, STEP, LEFT), -2.0, rtol=0, atol=1e-12)

    def test_stationary_rejected(self):
        kp = walking_frames(1)[0]
        seq = pose_seq([dict(kp) for _ in range(10)])
        with pytest.raises(GaitViewError, match="^hip midpoint shows no net displacement$"):
            signal(seq, STEP, LEFT)


class TestStepLength:
    def test_signed_and_antisymmetric(self):
        seq = pose_seq(walking_frames())
        left = signal(seq, STEP, LEFT)
        right = signal(seq, STEP, RIGHT)
        assert np.allclose(left, 2.0, atol=1e-12)
        assert np.allclose(right, -left, atol=1e-12)

    def test_only_axis_component_counts(self):
        # lateral ankle offset is orthogonal to the walking axis
        def extra(i):
            return {
                "left_ankle": (float(i) + 3.0, 7.0),
                "right_ankle": (float(i), -4.0),
            }

        seq = pose_seq(walking_frames(kp_extra=extra))
        left = signal(seq, STEP, LEFT)
        assert np.allclose(left, 3.0, atol=1e-12)


class TestKneeRotation:
    def cases(self):
        # (hip, knee, ankle, expected interior angle)
        return [
            ((0.0, 2.0), (0.0, 1.0), (0.0, 0.0), 180.0),
            ((0.0, 0.0), (0.0, 1.0), (1.0, 2.0), 90.0 + 45.0),
            ((0.0, 0.0), (0.0, 1.0), (1.0, 1.0), 90.0),
        ]

    def test_examples(self):
        for hip, knee, ankle, expected in self.cases():
            kp = {"left_hip": hip, "left_knee": knee, "left_ankle": ankle}
            seq = pose_seq([kp, kp])
            ts = signal(seq, KNEE, LEFT)
            assert abs(ts[0] - expected) < 1e-9

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts = rng.normal(size=(3, 2)) * 5
            kp = {"left_hip": tuple(pts[0]), "left_knee": tuple(pts[1]), "left_ankle": tuple(pts[2])}
            base = signal(pose_seq([kp]), KNEE, LEFT)[0]
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            s = rng.uniform(0.1, 10)
            shift = rng.normal(size=2) * 100
            pts2 = pts @ rot.T * s + shift
            kp2 = {
                "left_hip": tuple(pts2[0]),
                "left_knee": tuple(pts2[1]),
                "left_ankle": tuple(pts2[2]),
            }
            moved = signal(pose_seq([kp2]), KNEE, LEFT)[0]
            assert abs(base - moved) < 1e-9


class TestTrunkRotation:
    def frame(self, shoulder_angle_deg):
        a = np.radians(shoulder_angle_deg)
        return {
            "left_hip": (-1.0, 0.0),
            "right_hip": (1.0, 0.0),
            "left_shoulder": (-np.cos(a), -np.sin(a)),
            "right_shoulder": (np.cos(a), np.sin(a)),
        }

    def test_aligned_is_zero(self):
        seq = pose_seq([self.frame(0.0)])
        assert abs(signal(seq, TRUNK, BILATERAL)[0]) < 1e-12

    def test_signed_angle(self):
        for ang in (30.0, -30.0, 90.0, 179.0):
            seq = pose_seq([self.frame(ang)])
            assert abs(signal(seq, TRUNK, BILATERAL)[0] - ang) < 1e-9

    def test_half_turn_maps_to_positive(self):
        seq = pose_seq([self.frame(180.0)])
        assert abs(signal(seq, TRUNK, BILATERAL)[0] - 180.0) < 1e-9


class TestWristHipmid:
    def test_pythagorean(self):
        kp = {
            "left_hip": (0.0, 0.0),
            "right_hip": (0.0, 0.0),
            "left_wrist": (3.0, 4.0),
        }
        seq = pose_seq([kp])
        assert abs(signal(seq, WRIST, LEFT)[0] - 5.0) < 1e-12

    def test_midpoint_used(self):
        kp = {
            "left_hip": (-2.0, 0.0),
            "right_hip": (2.0, 0.0),
            "right_wrist": (0.0, 7.0),
        }
        seq = pose_seq([kp])
        assert abs(signal(seq, WRIST, RIGHT)[0] - 7.0) < 1e-12


class TestExtractAll:
    def full_frames(self, n=20):
        def extra(i):
            x = float(i)
            return {
                "left_knee": (x, 5.0),
                "right_knee": (x, 5.5),
                "left_shoulder": (x, 20.0),
                "right_shoulder": (x, 22.0),
                "left_wrist": (x + 0.5, 11.0),
                "right_wrist": (x - 0.5, 11.0),
            }

        return walking_frames(n, kp_extra=extra)

    def test_seven_signals(self):
        fs = extract_all(pose_seq(self.full_frames()))
        assert len(fs.signals) == 7
        for feature, sides in FEATURE_SIDES.items():
            for side in sides:
                assert (feature, side) in fs.signals

    def test_missing_landmark_wrapped(self):
        frames = self.full_frames()
        for kp in frames:
            del kp["left_wrist"]
        with pytest.raises(GaitViewError, match=r"^\(wrist_hipmid, left\): keypoint 'left_wrist' "
                                                "absent in frame 0$") as info:
            extract_all(pose_seq(frames))
        assert type(info.value.__cause__) is GaitViewError
        assert str(info.value.__cause__) == "keypoint 'left_wrist' absent in frame 0"

    def test_non_finite_signal_rejected_where_made(self):
        # a wrist at 1e307 mm overflows the distance to inf; no signal leaves non-finite
        seq = generate_gait(GaitModelParams(n_frames=40))
        values = seq.values.copy()
        values[:, seq.names.index("left_wrist")] *= 1e307
        seq = seq.with_values(values)
        message = "samples contain non-finite values"
        with np.errstate(over="ignore"):
            with pytest.raises(GaitViewError, match=rf"^\(wrist_hipmid, left\): {message}$"):
                extract_all(seq)
            with pytest.raises(ValueError, match=f"^{message}$"):  # signal raises unwrapped
                signal(seq, WRIST, LEFT)


class TestDegenerateGeometry:
    @pytest.mark.parametrize("moved, onto, feature, side, message", [
        ("left_knee", "left_ankle", KNEE, LEFT, "zero-length limb vector"),
        ("right_shoulder", "left_shoulder", TRUNK, BILATERAL, "zero-length shoulder or hip line"),
        ("right_hip", "left_hip", TRUNK, BILATERAL, "zero-length shoulder or hip line"),
    ])
    def test_zero_length_segment_names_the_frame(self, moved, onto, feature, side, message):
        seq = generate_gait(GaitModelParams(n_frames=40))
        values = seq.values.copy()
        values[17, seq.names.index(moved)] = values[17, seq.names.index(onto)]
        seq = seq.with_values(values)
        with pytest.raises(GaitViewError, match=f"^{message} at frame index 17$"):
            signal(seq, feature, side)
        with pytest.raises(GaitViewError, match=rf"^\({feature.value}, {side.value}\): "
                                                rf"{message} at frame index 17$"):
            extract_all(seq)


class TestSignal:
    def test_partial_marker_set(self):
        # hips, knees and ankles only: enough for step length and knee
        # rotation, which signal() scores alone, but not for a full set
        full = generate_gait(GaitModelParams(n_frames=60))
        keep = [k for k, name in enumerate(full.names)
                if name.split("_")[-1] in ("hip", "knee", "ankle")]
        seq = MarkerSequence(frame_index=full.frame_index, times=full.times,
                             names=[full.names[k] for k in keep], values=full.values[:, keep])
        assert len(seq.names) == 6
        for feature in (STEP, KNEE):
            for side in (LEFT, RIGHT):
                assert signal(seq, feature, side).tobytes() == \
                    signal(full, feature, side).tobytes()
        with pytest.raises(GaitViewError, match=r"^\(trunk_rotation, bilateral\): marker "
                                                "'left_shoulder' absent in frame 0$") as info:
            extract_all(seq)
        assert type(info.value.__cause__) is GaitViewError

    @pytest.mark.parametrize("feature, side", [(STEP, BILATERAL), (TRUNK, LEFT)])
    def test_side_the_feature_lacks_rejected(self, feature, side):
        seq = generate_gait(GaitModelParams(n_frames=20))
        with pytest.raises(ValueError, match=f"^{feature.value} has no {side.value} side$"):
            signal(seq, feature, side)


class TestOnSynthetic:
    def test_step_length_sides_are_half_cycle_apart(self):
        # left and right step signals of a 1 Hz gait at 100 Hz are shifted
        # by ~50 frames; long signal keeps the correlation peak unbiased
        params = GaitModelParams(n_frames=1000)
        seq = generate_gait(params)
        left = signal(seq, STEP, LEFT)
        right = signal(seq, STEP, RIGHT)
        _, lag = max_cross_correlation(left, right)
        assert abs(lag) in (49, 50, 51)

    def test_knee_angle_range_plausible(self):
        seq = generate_gait(GaitModelParams())
        ts = signal(seq, KNEE, LEFT)
        assert np.all(ts <= 180.0)
        assert ts.min() > 90.0
        assert ts.max() - ts.min() > 20.0


ROLES = [f"{side}_{part}" for part in ("hip", "knee", "ankle", "shoulder", "wrist")
         for side in ("left", "right")]


@st.composite
def gait_sequences(draw):
    """A synthetic walk as markers (named by role or through a marker map)
    or as a frontal or lateral pose, optionally broken: a role absent from
    one frame, or hips that never move."""
    params = GaitModelParams(n_frames=draw(st.integers(2, 60)))
    seq, marker_map = generate_gait(params), None
    if draw(st.booleans()):  # 2 mm of marker jitter
        rng = np.random.default_rng(draw(st.integers(0, 99)))
        seq = seq.with_values(seq.values + rng.normal(0.0, 0.002, size=seq.values.shape))
    kind = draw(st.sampled_from(["markers", "mapped", ViewLabel.FRONTAL, ViewLabel.LATERAL]))
    if kind == "mapped":
        marker_map = {role: f"M{k}" for k, role in enumerate(ROLES)}
        seq = MarkerSequence(frame_index=seq.frame_index, times=seq.times,
                             names=[marker_map.get(n, n) for n in seq.names], values=seq.values)
    elif kind != "markers":
        seq = project(seq, preset_cameras(params)[kind], view=kind)
    values = seq.values.copy()
    fault = draw(st.sampled_from([None, "absent", "standing"]))
    if fault == "absent":
        role = draw(st.sampled_from(ROLES))
        name = marker_map[role] if marker_map else role
        values[draw(st.integers(0, len(seq) - 1)), seq.names.index(name)] = np.nan
    elif fault == "standing":
        hips = [seq.names.index(marker_map[r] if marker_map else r)
                for r in ("left_hip", "right_hip")]
        values[:, hips] = values[:1, hips]
    return seq.with_values(values), marker_map


def first_failure(seq, marker_map):
    """The message extract_all gives the first signal() call that fails, in
    FEATURE_SIDES order, and the type of that failure; or None."""
    for feature, sides in FEATURE_SIDES.items():
        for side in sides:
            try:
                signal(seq, feature, side, marker_map)
            except Exception as exc:
                return f"({feature.value}, {side.value}): {exc}", type(exc)
    return None


class TestExtractAllEqualsPublicFunctions:
    @settings(max_examples=120, deadline=None)
    @given(gait_sequences())
    def test_bit_for_bit_and_same_first_error(self, case):
        seq, marker_map = case
        expected = first_failure(seq, marker_map)
        if expected is not None:
            with pytest.raises(GaitViewError) as info:
                extract_all(seq, marker_map)
            assert (str(info.value), type(info.value.__cause__)) == expected
            return
        fs = extract_all(seq, marker_map)
        assert list(fs.signals) == [(f, s) for f, sides in FEATURE_SIDES.items() for s in sides]
        for (feature, side), ts in fs.signals.items():
            alone = signal(seq, feature, side, marker_map)
            assert ts.tobytes() == alone.tobytes()

    @pytest.mark.parametrize("role", ROLES)
    def test_role_absent_from_one_frame(self, role):
        seq = generate_gait(GaitModelParams(n_frames=40))
        values = seq.values.copy()
        values[17, seq.names.index(role)] = np.nan
        seq = seq.with_values(values)
        expected = first_failure(seq, None)
        with pytest.raises(GaitViewError) as info:
            extract_all(seq)
        assert str(info.value) == expected[0]
        assert f"marker {role!r} absent in frame 17" in str(info.value)
