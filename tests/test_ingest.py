import io
import string

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gaitview.errors import DuplicateError, GapTooLarge, ParseError, SchemaError
from gaitview.ingest import (
    KEYPOINT_NAMES,
    MarkerFrame,
    MarkerSequence,
    PoseFrame,
    PoseSequence,
    fill_gaps,
    load_marker_map,
    parse_marker_csv,
    parse_pose_csv,
    write_marker_csv,
    write_pose_csv,
)
from gaitview.signal_core import ViewLabel

POSE_HEADER = "frame,time_s,keypoint,x,y,conf\n"
MARKER_HEADER = "frame,time_s,marker,x,y,z\n"


def make_pose(rows) -> PoseSequence:
    """rows: list of (frame, time, {name: (x, y, conf)})."""
    frames = [PoseFrame(f, t, dict(kps)) for f, t, kps in rows]
    return PoseSequence(view=ViewLabel.FRONTAL, frames=frames)


class TestParsePose:
    def test_header_only(self):
        seq = parse_pose_csv(io.StringIO(POSE_HEADER))
        assert len(seq) == 0

    def test_single_row(self):
        seq = parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.00,left_ankle,100.5,200.25,0.98\n"))
        assert len(seq) == 1
        assert seq.frames[0].keypoints["left_ankle"] == (100.5, 200.25, 0.98)

    def test_confidence_out_of_range(self):
        with pytest.raises(SchemaError):
            parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.0,left_ankle,1,2,1.5\n"))

    def test_unknown_keypoint(self):
        with pytest.raises(SchemaError):
            parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.0,left_toe,1,2,0.9\n"))

    def test_duplicate_keypoint(self):
        body = "0,0.0,nose,1,2,0.9\n0,0.0,nose,3,4,0.8\n"
        with pytest.raises(DuplicateError):
            parse_pose_csv(io.StringIO(POSE_HEADER + body))

    def test_malformed_row_positioned(self):
        with pytest.raises(ParseError) as err:
            parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.0,nose,abc,2,0.9\n"))
        assert err.value.line == 2
        assert err.value.column == 4

    def test_bad_header(self):
        with pytest.raises(ParseError):
            parse_pose_csv(io.StringIO("a,b,c\n"))

    def test_conflicting_frame_time_positioned(self):
        body = "50,0.5,left_hip,1,2,0.9\n50,99.0,nose,3,4,0.9\n"
        with pytest.raises(ParseError) as err:
            parse_pose_csv(io.StringIO(POSE_HEADER + body))
        assert (err.value.line, err.value.column) == (3, 2)
        assert "frame 50" in str(err.value)

    def test_frames_sorted(self):
        body = "5,0.05,nose,1,2,0.9\n1,0.01,nose,3,4,0.9\n"
        seq = parse_pose_csv(io.StringIO(POSE_HEADER + body))
        assert [fr.frame_index for fr in seq.frames] == [1, 5]

    def test_round_trip(self):
        rows = [
            (0, 0.0, {"nose": (1.25, 2.5, 0.9), "left_hip": (10.125, 20.0625, 0.75)}),
            (1, 0.01, {"nose": (1.3, 2.6, 0.95), "left_hip": (10.5, 20.5, 0.8)}),
        ]
        seq = make_pose(rows)
        buf = io.StringIO()
        write_pose_csv(seq, buf)
        parsed = parse_pose_csv(io.StringIO(buf.getvalue()))
        for orig, back in zip(seq.frames, parsed.frames):
            assert back.frame_index == orig.frame_index
            assert back.keypoints == orig.keypoints


class TestParseMarker:
    def test_header_only(self):
        assert len(parse_marker_csv(io.StringIO(MARKER_HEADER))) == 0

    def test_missing_z_column(self):
        with pytest.raises(ParseError):
            parse_marker_csv(io.StringIO(MARKER_HEADER + "0,0.0,pelvis,1,2\n"))

    def test_round_trip(self):
        frames = [
            MarkerFrame(0, 0.0, {"pelvis": (1.0, 2.0, 3.0), "l_ank": (-4.5, 0.25, 9.75)}),
            MarkerFrame(1, 0.01, {"pelvis": (1.1, 2.1, 3.1), "l_ank": (-4.6, 0.3, 9.8)}),
        ]
        seq = MarkerSequence(frames=frames)
        buf = io.StringIO()
        write_marker_csv(seq, buf)
        parsed = parse_marker_csv(io.StringIO(buf.getvalue()))
        for orig, back in zip(seq.frames, parsed.frames):
            assert back.markers == orig.markers

    def test_marker_set_must_be_constant(self):
        body = "0,0.0,a,1,2,3\n1,0.01,b,1,2,3\n"
        with pytest.raises(SchemaError):
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))

    def test_conflicting_frame_time(self):
        body = "0,0.0,a,1,2,3\n0,0.01,b,1,2,3\n"
        with pytest.raises(ParseError) as err:
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))
        assert err.value.line == 3

    def test_duplicate_marker(self):
        body = "0,0.0,a,1,2,3\n0,0.0,a,4,5,6\n"
        with pytest.raises(DuplicateError):
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))


finite = st.floats(allow_nan=False, allow_infinity=False)
frame_indices = st.lists(st.integers(-10, 10_000), min_size=0, max_size=6, unique=True).map(sorted)


@st.composite
def pose_sequences(draw):
    point = st.tuples(finite, finite, st.floats(0.0, 1.0))
    frames = [
        PoseFrame(index, draw(finite),
                  draw(st.dictionaries(st.sampled_from(KEYPOINT_NAMES), point, min_size=1)))
        for index in draw(frame_indices)
    ]
    return PoseSequence(view=draw(st.sampled_from(ViewLabel)), frames=frames)


@st.composite
def marker_sequences(draw):
    # csv quotes names holding commas or quote marks; the parser strips spaces
    name = st.text(string.ascii_letters + string.digits + "_-., '\"", min_size=1, max_size=8)
    names = draw(st.lists(name.filter(lambda n: n == n.strip()), min_size=1, max_size=4,
                          unique=True))
    point = st.tuples(finite, finite, finite)
    frames = [
        MarkerFrame(index, draw(finite), {n: draw(point) for n in names})
        for index in draw(frame_indices)
    ]
    return MarkerSequence(frames=frames)


class TestRoundTripProperty:
    @given(pose_sequences())
    def test_pose(self, seq):
        buf = io.StringIO()
        write_pose_csv(seq, buf)
        assert parse_pose_csv(io.StringIO(buf.getvalue()), view=seq.view) == seq

    @given(marker_sequences())
    def test_marker(self, seq):
        buf = io.StringIO()
        write_marker_csv(seq, buf)
        assert parse_marker_csv(io.StringIO(buf.getvalue())) == seq


class TestFillGaps:
    def test_noop_when_all_confident(self):
        seq = make_pose([(i, i / 100, {"nose": (float(i), 0.0, 0.9)}) for i in range(5)])
        out = fill_gaps(seq, 0.3, 10)
        assert all(
            out.frames[i].keypoints == seq.frames[i].keypoints for i in range(5)
        )

    def test_single_frame_interpolated(self):
        seq = make_pose([
            (0, 0.00, {"nose": (0.0, 0.0, 0.9)}),
            (1, 0.01, {"nose": (5.0, 5.0, 0.1)}),
            (2, 0.02, {"nose": (2.0, 0.0, 0.9)}),
        ])
        out = fill_gaps(seq, 0.3, 10)
        x, y, conf = out.frames[1].keypoints["nose"]
        assert (x, y) == (1.0, 0.0)
        assert conf == 0.3

    def test_missing_keypoint_counts_as_gap(self):
        seq = make_pose([
            (0, 0.00, {"nose": (0.0, 0.0, 0.9)}),
            (1, 0.01, {}),
            (2, 0.02, {"nose": (2.0, 2.0, 0.9)}),
        ])
        out = fill_gaps(seq, 0.3, 10)
        assert out.frames[1].keypoints["nose"][:2] == (1.0, 1.0)

    def test_gap_longer_than_max(self):
        rows = [(0, 0.0, {"nose": (0.0, 0.0, 0.9)})]
        rows += [(i, i / 100, {"nose": (0.0, 0.0, 0.1)}) for i in range(1, 12)]
        rows += [(12, 0.12, {"nose": (0.0, 0.0, 0.9)})]
        with pytest.raises(GapTooLarge):
            fill_gaps(make_pose(rows), 0.3, 10)

    def test_gap_at_boundary(self):
        seq = make_pose([
            (0, 0.00, {"nose": (0.0, 0.0, 0.1)}),
            (1, 0.01, {"nose": (1.0, 0.0, 0.9)}),
        ])
        with pytest.raises(GapTooLarge):
            fill_gaps(seq, 0.3, 10)

    def test_confident_points_untouched(self):
        import numpy as np

        rng = np.random.default_rng(5)
        rows = []
        for i in range(30):
            conf = 0.1 if i in (10, 11, 20) else float(rng.uniform(0.4, 1.0))
            rows.append((i, i / 100, {"nose": (float(rng.normal()), float(rng.normal()), conf)}))
        seq = make_pose(rows)
        out = fill_gaps(seq, 0.3, 10)
        for i in range(30):
            if seq.frames[i].keypoints["nose"][2] >= 0.3:
                assert out.frames[i].keypoints["nose"] == seq.frames[i].keypoints["nose"]


class TestMarkerMap:
    def test_basic(self):
        text = "# roles\nleft_ankle = LANK\nright_hip=RHIP  # vicon name\n\n"
        mapping = load_marker_map(io.StringIO(text))
        assert mapping == {"left_ankle": "LANK", "right_hip": "RHIP"}

    def test_bad_line(self):
        with pytest.raises(ParseError):
            load_marker_map(io.StringIO("left_ankle LANK\n"))


def test_keypoint_schema_is_17_names():
    assert len(KEYPOINT_NAMES) == 17
    assert len(set(KEYPOINT_NAMES)) == 17
    # 17 names x 2 coordinates = the 34-dimensional 2D feature space
    assert 2 * len(KEYPOINT_NAMES) == 34
