import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitview.errors import GaitViewError
from gaitview.features import FEATURE_SIDES, FeatureName, extract_all, signal_key_name
from gaitview.ingest import MarkerSequence, PoseSequence
from gaitview.metrics import max_cross_correlation
from gaitview.signal_core import SideLabel, ViewLabel
from gaitview.synth import GaitModelParams, generate_gait, preset_cameras, project

from oracles import features_reference, sequence_rows

STEP, KNEE, TRUNK, WRIST = FeatureName
LEFT, RIGHT, BILATERAL = SideLabel

ROLES = [f"{side}_{part}" for part in ("hip", "knee", "ankle", "shoulder", "wrist")
         for side in ("left", "right")]


def body_at(x):
    """The ten roles of a body at x along a walk in +x, (x, y) px: hips 10
    and 12 up, knees 5 and 5.5, ankles on the ground with the left one 2
    ahead, shoulders 20 and 22 and wrists 11."""
    return {"left_hip": (x, 10.0), "right_hip": (x, 12.0),
            "left_knee": (x, 5.0), "right_knee": (x, 5.5),
            "left_ankle": (x + 1.0, 0.0), "right_ankle": (x - 1.0, 0.0),
            "left_shoulder": (x, 20.0), "right_shoulder": (x, 22.0),
            "left_wrist": (x + 0.5, 11.0), "right_wrist": (x - 0.5, 11.0)}


def walking_pose(n=20, step=1.0, **roles):
    """Lateral pose of a full body walking step px a frame along x, at
    100 Hz; each keyword holds its role at an (x, y), or at role(x) if
    callable, x the body's position."""
    frames = []
    for x in step * np.arange(n):
        frame = body_at(x)
        frame.update({role: at(x) if callable(at) else at for role, at in roles.items()})
        frames.append([(*frame[role], 1.0) for role in ROLES])
    return PoseSequence(ViewLabel.LATERAL, frame_index=np.arange(n), times=np.arange(n) / 100.0,
                        names=ROLES, values=frames)


def signals(seq, marker_map=None):
    return extract_all(seq, marker_map).signals


class TestSignalNames:
    def test_key_names(self):
        assert signal_key_name(FeatureName.STEP_LENGTH, SideLabel.LEFT) == "step_length_left"
        assert signal_key_name(FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL) == "trunk_rotation"

    def test_layout_has_seven_signals(self):
        assert sum(len(v) for v in FEATURE_SIDES.values()) == 7


class TestWalkingAxis:
    # the left ankle is 2 ahead of the right along x and 10 across it,
    # so the left step length is 2 * axis[0] + 10 * axis[1]
    ankles = {"left_ankle": lambda x: (x + 1.0, 5.0), "right_ankle": lambda x: (x - 1.0, -5.0)}

    def test_straight_walk_plus_x(self):
        left = signals(walking_pose(**self.ankles))[STEP, LEFT]
        assert np.allclose(left, 2.0, rtol=0, atol=1e-12)

    def test_oriented_by_net_displacement(self):
        left = signals(walking_pose(step=-1.0, **self.ankles))[STEP, LEFT]
        assert np.allclose(left, -2.0, rtol=0, atol=1e-12)

    def test_stationary_rejected(self):
        with pytest.raises(GaitViewError, match=r"^\(step_length, left\): hip midpoint shows "
                                                "no net displacement$"):
            extract_all(walking_pose(n=10, step=0.0))


class TestStepLength:
    def test_signed_and_antisymmetric(self):
        out = signals(walking_pose())
        assert np.allclose(out[STEP, LEFT], 2.0, atol=1e-12)
        assert np.allclose(out[STEP, RIGHT], -out[STEP, LEFT], atol=1e-12)

    def test_only_axis_component_counts(self):
        # lateral ankle offset is orthogonal to the walking axis
        seq = walking_pose(left_ankle=lambda x: (x + 3.0, 7.0), right_ankle=lambda x: (x, -4.0))
        assert np.allclose(signals(seq)[STEP, LEFT], 3.0, atol=1e-12)


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
            seq = walking_pose(left_hip=hip, left_knee=knee, left_ankle=ankle)
            assert np.allclose(signals(seq)[KNEE, LEFT], expected, rtol=0, atol=1e-9)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pts = rng.normal(size=(3, 2)) * 5
            base = signals(walking_pose(**dict(zip(["left_hip", "left_knee", "left_ankle"],
                                                   map(tuple, pts)))))[KNEE, LEFT]
            ang = rng.uniform(0, 2 * np.pi)
            rot = np.array([[np.cos(ang), -np.sin(ang)], [np.sin(ang), np.cos(ang)]])
            s = rng.uniform(0.1, 10)
            shift = rng.normal(size=2) * 100
            pts2 = pts @ rot.T * s + shift
            moved = signals(walking_pose(**dict(zip(["left_hip", "left_knee", "left_ankle"],
                                                    map(tuple, pts2)))))[KNEE, LEFT]
            assert np.allclose(base, moved, rtol=0, atol=1e-9)


class TestTrunkRotation:
    def pose(self, shoulder_angle_deg):
        # hips 2 apart along the walk, shoulders 2 apart turned by the angle
        c, s = np.cos(np.radians(shoulder_angle_deg)), np.sin(np.radians(shoulder_angle_deg))
        return walking_pose(left_hip=lambda x: (x - 1.0, 0.0), right_hip=lambda x: (x + 1.0, 0.0),
                            left_shoulder=lambda x: (x - c, -s),
                            right_shoulder=lambda x: (x + c, s))

    def test_aligned_is_zero(self):
        assert np.allclose(signals(self.pose(0.0))[TRUNK, BILATERAL], 0.0, rtol=0, atol=1e-12)

    def test_signed_angle(self):
        for ang in (30.0, -30.0, 90.0, 179.0):
            assert np.allclose(signals(self.pose(ang))[TRUNK, BILATERAL], ang, rtol=0, atol=1e-9)

    def test_half_turn_maps_to_positive(self):
        assert np.allclose(signals(self.pose(180.0))[TRUNK, BILATERAL], 180.0, rtol=0, atol=1e-9)


class TestWristHipmid:
    def test_pythagorean(self):
        seq = walking_pose(left_hip=lambda x: (x, -1.0), right_hip=lambda x: (x, 1.0),
                           left_wrist=lambda x: (x + 3.0, 4.0))
        assert np.allclose(signals(seq)[WRIST, LEFT], 5.0, rtol=0, atol=1e-12)

    def test_midpoint_used(self):
        seq = walking_pose(left_hip=lambda x: (x - 2.0, 0.0), right_hip=lambda x: (x + 2.0, 0.0),
                           right_wrist=lambda x: (x, 7.0))
        assert np.allclose(signals(seq)[WRIST, RIGHT], 7.0, rtol=0, atol=1e-12)


class TestExtractAll:
    def test_seven_signals(self):
        fs = extract_all(walking_pose())
        assert len(fs.signals) == 7
        for feature, sides in FEATURE_SIDES.items():
            for side in sides:
                assert (feature, side) in fs.signals

    def test_missing_landmark_wrapped(self):
        seq = walking_pose()
        seq.values[:, seq.names.index("left_wrist")] = np.nan
        with pytest.raises(GaitViewError, match=r"^\(wrist_hipmid, left\): keypoint 'left_wrist' "
                                                "absent in frame 0$") as info:
            extract_all(seq)
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

    def test_partial_marker_set_rejected(self):
        # hips, knees and ankles only: no shoulders for trunk rotation
        full = generate_gait(GaitModelParams(n_frames=60))
        keep = [k for k, name in enumerate(full.names)
                if name.split("_")[-1] in ("hip", "knee", "ankle")]
        seq = MarkerSequence(frame_index=full.frame_index, times=full.times,
                             names=[full.names[k] for k in keep], values=full.values[:, keep])
        assert len(seq.names) == 6
        with pytest.raises(GaitViewError, match=r"^\(trunk_rotation, bilateral\): marker "
                                                "'left_shoulder' absent in frame 0$") as info:
            extract_all(seq)
        assert type(info.value.__cause__) is GaitViewError


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
        with pytest.raises(GaitViewError, match=rf"^\({feature.value}, {side.value}\): "
                                                rf"{message} at frame index 17$"):
            extract_all(seq)


class TestOnSynthetic:
    def test_step_length_sides_are_half_cycle_apart(self):
        # left and right step signals of a 1 Hz gait at 100 Hz are shifted
        # by ~50 frames; long signal keeps the correlation peak unbiased
        out = signals(generate_gait(GaitModelParams(n_frames=1000)))
        _, lag = max_cross_correlation(out[STEP, LEFT], out[STEP, RIGHT])
        assert abs(lag) in (49, 50, 51)

    def test_knee_angle_range_plausible(self):
        ts = signals(generate_gait(GaitModelParams()))[KNEE, LEFT]
        assert np.all(ts <= 180.0)
        assert ts.min() > 90.0
        assert ts.max() - ts.min() > 20.0


def first_reader(role: str) -> str:
    """'(feature, side)' of the first signal, in FEATURE_SIDES order, that
    reads role, from the definitions in gaitview.features."""
    hips = {"left_hip", "right_hip"}
    reads = {STEP: lambda side: hips | {"left_ankle", "right_ankle"},
             KNEE: lambda side: {f"{side.value}_{part}" for part in ("hip", "knee", "ankle")},
             TRUNK: lambda side: hips | {"left_shoulder", "right_shoulder"},
             WRIST: lambda side: hips | {f"{side.value}_wrist"}}
    return next(f"({feature.value}, {side.value})" for feature, sides in FEATURE_SIDES.items()
                for side in sides if role in reads[feature](side))


@st.composite
def gait_sequences(draw):
    """(sequence, marker map, fault, role): a synthetic walk as markers
    (named by role or through a marker map) or as a frontal or lateral
    pose, optionally broken: a role absent from one frame, or hips that
    never move."""
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
    fault, role = draw(st.sampled_from([None, "absent", "standing"])), None
    if fault == "absent":
        role = draw(st.sampled_from(ROLES))
        name = marker_map[role] if marker_map else role
        values[draw(st.integers(0, len(seq) - 1)), seq.names.index(name)] = np.nan
    elif fault == "standing":
        hips = [seq.names.index(marker_map[r] if marker_map else r)
                for r in ("left_hip", "right_hip")]
        values[:, hips] = values[:1, hips]
    return seq.with_values(values), marker_map, fault, role


class TestExtractAllEqualsReference:
    @settings(max_examples=120, deadline=None)
    @given(gait_sequences())
    def test_equals_reference_and_first_error(self, case):
        seq, marker_map, fault, role = case
        rows = sequence_rows(seq)
        if fault is not None:
            with pytest.raises(GaitViewError) as info:
                extract_all(seq, marker_map)
            with pytest.raises(GaitViewError) as expected:
                features_reference(rows, seq.dims, marker_map)
            assert str(info.value) == str(expected.value)
            assert type(info.value.__cause__) is GaitViewError
            if fault == "standing":
                assert str(info.value) == ("(step_length, left): hip midpoint shows no net "
                                           "displacement")
            else:
                assert str(info.value).startswith(f"{first_reader(role)}: ")
            return
        fs = extract_all(seq, marker_map)
        reference = features_reference(rows, seq.dims, marker_map)
        assert list(fs.signals) == list(reference)  # the seven signals, in order
        for key, ts in fs.signals.items():
            np.testing.assert_allclose(ts, reference[key], rtol=1e-9, atol=0, err_msg=str(key))

    @pytest.mark.parametrize("role", ROLES)
    def test_role_absent_from_one_frame(self, role):
        seq = generate_gait(GaitModelParams(n_frames=40))
        values = seq.values.copy()
        values[17, seq.names.index(role)] = np.nan
        seq = seq.with_values(values)
        with pytest.raises(GaitViewError) as info:
            extract_all(seq)
        assert str(info.value) == f"{first_reader(role)}: marker {role!r} absent in frame 17"
