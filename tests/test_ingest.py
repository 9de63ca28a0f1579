import csv
import io
import math
import re
import string
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitview import ingest
from gaitview.errors import GaitViewError, ParseError
from gaitview.ingest import (
    KEYPOINT_NAMES,
    MarkerFrame,
    MarkerSequence,
    PoseFrame,
    PoseSequence,
    fill_gaps,
    parse_marker_csv,
    parse_pose_csv,
    read_key_values,
    write_marker_csv,
    write_pose_csv,
)
from gaitview.signal_core import ViewLabel
from oracles import fill_gaps_loop, parse_rows, write_csv_rows

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
        with pytest.raises(GaitViewError, match=r"^line 2: confidence 1\.5 outside \[0, 1\]$"):
            parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.0,left_ankle,1,2,1.5\n"))

    def test_unknown_keypoint(self):
        with pytest.raises(GaitViewError, match="^line 2: unknown keypoint 'left_toe'$"):
            parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.0,left_toe,1,2,0.9\n"))

    def test_duplicate_keypoint(self):
        body = "0,0.0,nose,1,2,0.9\n0,0.0,nose,3,4,0.8\n"
        with pytest.raises(GaitViewError,
                           match=r"^line 3: duplicate \(frame 0, keypoint 'nose'\)$"):
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

    def test_times_must_increase_with_frame_index(self):
        body = "0,0.00,nose,1,2,0.9\n1,0.01,nose,1,2,0.9\n2,0.01,nose,1,2,0.9\n"
        with pytest.raises(ParseError) as err:
            parse_pose_csv(io.StringIO(POSE_HEADER + body))
        assert (err.value.line, err.value.column) == (4, 2)
        assert "frame 2 does not increase on 0.01 of frame 1" in str(err.value)

    def test_times_must_increase_with_shuffled_rows(self):
        # rows may come in any order; frame 3 starts on line 2 and is earlier than frame 1
        body = "3,0.01,nose,1,2,0.9\n1,0.02,nose,1,2,0.9\n"
        with pytest.raises(ParseError) as err:
            parse_pose_csv(io.StringIO(POSE_HEADER + body))
        assert (err.value.line, err.value.column) == (2, 2)

    def test_numbers_are_plain_ascii_decimals(self):
        # Python's float() would read both; the bulk reader reads neither
        for cell in ("1_0", "\u0665"):
            with pytest.raises(ParseError) as err:
                parse_pose_csv(io.StringIO(POSE_HEADER + f"0,0.0,nose,{cell},2,0.9\n"))
            assert (err.value.line, err.value.column) == (2, 4)
            assert f"invalid x: {cell!r}" in str(err.value)

    def test_absent_points_are_nan(self):
        body = "0,0.0,nose,1,2,0.9\n0,0.0,left_hip,3,4,0.8\n1,0.01,nose,5,6,0.7\n"
        seq = parse_pose_csv(io.StringIO(POSE_HEADER + body))
        assert seq.names == ("left_hip", "nose")
        assert seq.values.shape == (2, 2, 3)
        assert np.isnan(seq.values[1, 0]).all()
        assert seq.values[1, 1].tolist() == [5.0, 6.0, 0.7]
        assert seq.frames[1].keypoints == {"nose": (5.0, 6.0, 0.7)}

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
        with pytest.raises(GaitViewError,
                           match="^marker set changes at frame 1; must be constant per trial$"):
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))

    def test_times_must_increase(self):
        body = "0,0.5,a,1,2,3\n1,0.5,a,1,2,3\n"
        with pytest.raises(ParseError) as err:
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))
        assert (err.value.line, err.value.column) == (3, 2)

    def test_conflicting_frame_time(self):
        body = "0,0.0,a,1,2,3\n0,0.01,b,1,2,3\n"
        with pytest.raises(ParseError) as err:
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))
        assert err.value.line == 3

    def test_duplicate_marker(self):
        body = "0,0.0,a,1,2,3\n0,0.0,a,4,5,6\n"
        with pytest.raises(GaitViewError, match=r"^line 3: duplicate \(frame 0, marker 'a'\)$"):
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))

    def test_bad_last_row_costs_log_rows_reads(self, monkeypatch):
        rows = [f"{f},{f / 100},m{k},1,2,3" for f in range(400) for k in range(5)]
        rows[-1] = rows[-1].replace(",3.99,", ",3.9x,")
        calls = []
        loadtxt = np.loadtxt
        monkeypatch.setattr(np, "loadtxt", lambda *a, **kw: calls.append(1) or loadtxt(*a, **kw))
        with pytest.raises(ParseError) as err:
            parse_marker_csv(io.StringIO(MARKER_HEADER + "\n".join(rows) + "\n"))
        assert (err.value.line, err.value.column) == (len(rows) + 1, 2)
        assert err.value.reason == "invalid time: '3.9x'"
        assert len(calls) <= 2 * math.ceil(math.log2(len(rows))) + 5  # cell by cell: 10,000

    def test_bad_last_row_reads_each_row_at_most_twice(self, monkeypatch):
        rows = [f"{f},{f / 100},m{k},1,2,3" for f in range(400) for k in range(5)]
        rows[-1] = rows[-1].replace(",3.99,", ",3.9x,")
        handed = []  # data rows (or single cells) given to each np.loadtxt call
        loadtxt = np.loadtxt

        def counting(source, *args, skiprows=0, **kwargs):
            buffered = isinstance(source, (io.StringIO, io.BytesIO))
            lines = source.getvalue().splitlines() if buffered else source
            handed.append(len(lines) - skiprows)
            return loadtxt(source, *args, skiprows=skiprows, **kwargs)

        monkeypatch.setattr(np, "loadtxt", counting)
        with pytest.raises(ParseError) as err:
            parse_marker_csv(io.StringIO(MARKER_HEADER + "\n".join(rows) + "\n"))
        assert (err.value.line, err.value.column) == (len(rows) + 1, 2)
        assert err.value.reason == "invalid time: '3.9x'"
        # the whole file, bisection probes holding fewer rows than the file,
        # and the five numeric cells of the unreadable row; probes that hand
        # np.loadtxt the whole file each time add up to about 24,000
        assert sum(handed) <= 2 * len(rows) + 5

    def test_bad_last_row_scans_the_rows_once(self, monkeypatch):
        rows = [f"{f},{f / 100},m{k},1,2,3" for f in range(400) for k in range(5)]
        rows[-1] = rows[-1].replace(",3.99,", ",3.9x,")
        yielded = []
        reader = csv.reader

        def counting(*args, **kwargs):
            for cells in reader(*args, **kwargs):
                yielded.append(cells)
                yield cells

        monkeypatch.setattr(ingest, "csv", types.SimpleNamespace(reader=counting, Error=csv.Error))
        with pytest.raises(ParseError) as err:
            parse_marker_csv(io.StringIO(MARKER_HEADER + "\n".join(rows) + "\n"))
        assert (err.value.line, err.value.column) == (len(rows) + 1, 2)
        # the header, one scan of the rows and the lookup of the error line;
        # a scan that restarts the reader for each row yields about 2,000,000
        assert len(yielded) <= 2 * len(rows) + 5

    def test_quoted_line_break_before_a_number(self):
        # np.loadtxt and the reference strip the line break and read 7
        text = MARKER_HEADER + '0,0.0,a,1,2,3\n"\n7",0.01,a,1,2,zz\n'
        with pytest.raises(ParseError, match=r"^line 3, column 6: invalid z: 'zz'$"):
            parse_marker_csv(io.StringIO(text))
        with pytest.raises(ParseError, match=r"^line 3, column 6: invalid z: 'zz'$"):
            parse_rows(text, False)


BARE_CR = "carriage return within the line; lines must end in LF or CRLF"
# the parser and the row-by-row reference, on marker CSV text
MARKER_PARSERS = (lambda t: parse_marker_csv(io.StringIO(t)), lambda t: parse_rows(t, False))


class TestCarriageReturns:
    """LF and CRLF end a line; a carriage return inside a line is a parse error at its line."""

    @pytest.mark.parametrize("text, line", [
        (MARKER_HEADER.replace("\n", "\r") + "0,0.0,a,1,2,3\r1,0.01,a,1,2,3\r", 1),
        (MARKER_HEADER + "0,0.0,a,1,2,3\n1,0.01,a,1,2,3\n2,0.02,a,1,2\r,3\n", 4),
        (MARKER_HEADER + '0,0.0,a,1,2,3\n1,0.01,"a\n",1,2\r,3\n', 4),  # csv's line, not its row
    ])
    def test_bare_carriage_return_names_its_line(self, text, line):
        for parse in MARKER_PARSERS:
            with pytest.raises(ParseError, match=f"^line {line}, column 1: {BARE_CR}$"):
                parse(text)

    def test_earlier_bad_row_wins(self):
        text = MARKER_HEADER + "0,0.0,a,1,2,nan\n1,0.01,a,1,2,3\n2,0.02,a,1,2\r,3\n"
        for parse in MARKER_PARSERS:
            with pytest.raises(ParseError, match=r"^line 2, column 6: non-finite z: 'nan'$"):
                parse(text)

    def test_bare_carriage_return_before_later_errors(self):
        # the rows after it are not read: its row ends the table
        text = POSE_HEADER + "0,0.0,nose,1,2\r,0.9\n0,0.0,nose,1,2,7\n"
        with pytest.raises(ParseError, match=f"^line 2, column 1: {BARE_CR}$"):
            parse_pose_csv(io.StringIO(text))

    @pytest.mark.parametrize("end", ["\r\n", "\r\r\n"])
    def test_crlf_line_ends_read_as_lf(self, end):
        body = "0,0.0,a,1,2,3\n1,0.01,a,1,2,3\n"
        assert parse_marker_csv(io.StringIO((MARKER_HEADER + body).replace("\n", end))) == \
            parse_marker_csv(io.StringIO(MARKER_HEADER + body))

    def test_not_utf8_file_is_named(self, tmp_path):
        path = tmp_path / "s01_mocap3d.csv"
        path.write_bytes(MARKER_HEADER.encode() + b"0,0.0,\xe9,1,2,3\n")
        with pytest.raises(GaitViewError, match=f"^{re.escape(str(path))}: 'utf-8' codec"):
            parse_marker_csv(path)


class TestTextDecoding:
    """Rows are split after LF only, as io.StringIO iterates them, and the
    bulk read decodes each line as UTF-8."""

    @settings(max_examples=300)
    @given(st.text(alphabet="a,\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"))
    def test_lines_as_stringio_iterates_them(self, text):
        assert list(ingest._lines(text)) == list(io.StringIO(text))

    @pytest.mark.parametrize("name", ["höft_l", "Ψ", "a\u2028b", "a\x85b", "c\x0bd"])
    def test_non_ascii_marker_name_as_written(self, name, tmp_path):
        text = MARKER_HEADER + f"0,0.0,{name},1,2,3\n1,0.01,{name},1,2,3\n"
        path = tmp_path / "s01_mocap3d.csv"
        path.write_text(text, encoding="utf-8", newline="")
        for source in (path, io.StringIO(text)):
            assert parse_marker_csv(source).names == (name,)

    def test_non_ascii_keypoint_named_as_written(self):
        with pytest.raises(GaitViewError, match="^line 2: unknown keypoint 'höft_l'$"):
            parse_pose_csv(io.StringIO(POSE_HEADER + "0,0.0,höft_l,1,2,0.5\n"))


finite = st.floats(allow_nan=False, allow_infinity=False)
frame_indices = st.lists(st.integers(-10, 10_000), min_size=0, max_size=6, unique=True).map(sorted)


@st.composite
def timed_indices(draw):
    """Sorted frame indices and times that strictly increase with them."""
    indices = draw(frame_indices)
    times = draw(st.lists(finite, min_size=len(indices), max_size=len(indices), unique=True))
    return list(zip(indices, sorted(times)))


@st.composite
def pose_sequences(draw):
    point = st.tuples(finite, finite, st.floats(0.0, 1.0))
    frames = [
        PoseFrame(index, time_s,
                  draw(st.dictionaries(st.sampled_from(KEYPOINT_NAMES), point, min_size=1)))
        for index, time_s in draw(timed_indices())
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
        MarkerFrame(index, time_s, {n: draw(point) for n in names})
        for index, time_s in draw(timed_indices())
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


@st.composite
def written_sequences(draw):
    """Pose or marker sequences with names csv must quote (and the empty
    name), absent points, signed zeros and any float, as the writer takes them."""
    names = draw(st.lists(st.text("ab ,'\"\n\r", max_size=4), min_size=1, max_size=4,
                          unique=True))
    n = draw(st.integers(0, 4))
    number = st.one_of(st.floats(allow_nan=False), st.sampled_from([0.0, -0.0]))
    point = st.one_of(st.tuples(number, number, number), st.just((np.nan,) * 3))
    arrays = {
        "frame_index": draw(st.lists(st.integers(-10, 10_000), min_size=n, max_size=n)),
        "times": draw(st.lists(number, min_size=n, max_size=n)),
        "names": names,
        "values": draw(st.lists(point, min_size=n * len(names), max_size=n * len(names))),
    }
    if draw(st.booleans()):
        return PoseSequence(draw(st.sampled_from(ViewLabel)), **arrays)
    return MarkerSequence(**arrays)


class TestWriterOracle:
    """The writer against csv.writer in tests/oracles.py."""

    @settings(max_examples=300, deadline=None)
    @given(written_sequences())
    @example(MarkerSequence(
        frame_index=[0, 1], times=[-0.0, 0.01], names=["", "a,b", 'say "hi"', "x\ny"],
        values=[[(-0.0, 0.0, 1e300), (np.nan,) * 3, (1.5, -2.0, 0.1), (3.0, -0.0, -0.0)],
                [(np.nan,) * 3, (0.1, 0.2, 0.3), (np.nan,) * 3, (-1e-310, 2.0, 5.0)]],
    ))
    def test_equals_csv_writer(self, seq):
        buf = io.StringIO()
        (write_pose_csv if isinstance(seq, PoseSequence) else write_marker_csv)(seq, buf)
        assert buf.getvalue() == write_csv_rows(seq)


def render(header: str, rows) -> str:
    buf = io.StringIO()
    buf.write(header)
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@st.composite
def csv_rows(draw, pose):
    """Rows of a valid file in any order: frame indices with holes, times
    increasing with them, and pose frames that lack some keypoints."""
    if pose:
        names = st.lists(st.sampled_from(KEYPOINT_NAMES), min_size=1, max_size=4, unique=True)
        third = st.floats(0.0, 1.0)
    else:
        marker_set = draw(st.lists(st.sampled_from(["head", "pelvis", "l_ank", "r ank", "a,b"]),
                                   min_size=1, max_size=3, unique=True))
        names = st.just(marker_set)
        third = finite
    rows = [
        [str(index), repr(time_s), name, repr(draw(finite)), repr(draw(finite)), repr(draw(third))]
        for index, time_s in draw(timed_indices())
        for name in draw(names)
    ]
    return draw(st.permutations(rows))


# cells a corruption writes: unreadable, non-finite, out of range, unknown
# names and readable numbers, quoted line breaks, bare carriage returns
# (csv.writer leaves a lone "\r" unquoted), and numbers that int() and
# float() read but the parser rejects ("_" separators, non-ASCII digits,
# frame indices past int64).
corrupt_cells = st.one_of(
    st.sampled_from(["abc", "", " ", "1.2.3", "0x1F", "nan", "-inf", "1e400", "NaN", " 7 ",
                     "+3", "1.5", "-0.25", "left_toe", " nose ", "head", "1_000", "1_0.5",
                     "\u0663", "\uff11", "9223372036854775807", "9223372036854775808",
                     "-9223372036854775808", "-9223372036854775809"]),
    st.text("0123456789.eE+- ,\"'xnaif\n\r", max_size=5),
    finite.map(repr),
    st.integers(-5, 20).map(str),
    st.sampled_from(KEYPOINT_NAMES),
)


SPACES = [c for c in map(chr, range(0x110000)) if c.isspace()]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    corrupt_cells,
    st.sampled_from(["inf", "+Inf", "-INFINITY", "infinity", "iNfInItY", "nan", "-nan", "+NaN",
                     "in", "infin", "nann", "1_0", "\u0665"]),
    st.tuples(st.sampled_from(SPACES), st.one_of(st.integers(-5, 20).map(str), finite.map(repr)),
              st.sampled_from(SPACES)).map("".join),
), st.sampled_from([0, 1, 3, 4, 5]))
def test_scan_reads_a_cell_as_loadtxt_does(cell, column):
    """The error path's verdict on a cell equals the bulk read of a file holding it."""
    row = ["0", "0.0", "a", "1", "2", "3"]
    row[column] = cell
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(row)  # quotes every cell holding "\r"
    text = MARKER_HEADER + buf.getvalue()
    (_, cells), = ingest._rows(text, ingest.MARKER_HEADER)
    scanned = ingest._number(cells[column], int if column == 0 else float)
    try:
        loaded = ingest._load(text)[0][column].item()
    except ValueError:
        loaded = None
    assert repr(scanned) == repr(loaded)


def outcome(parse, text):
    try:
        return "ok", parse(text)
    except GaitViewError as exc:
        return type(exc), str(exc)


def parse_with_oracle(text, pose, view=ViewLabel.LATERAL):
    frames = parse_rows(text, pose)
    if pose:
        return PoseSequence(view, [PoseFrame(*fr) for fr in frames])
    return MarkerSequence([MarkerFrame(*fr) for fr in frames])


def parse_dense(text, pose, view=ViewLabel.LATERAL):
    if pose:
        return parse_pose_csv(io.StringIO(text), view)
    return parse_marker_csv(io.StringIO(text))


class TestParseOracle:
    """The bulk parser against the row-by-row reference in tests/oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(st.data(), st.booleans())
    def test_equals_row_reader(self, data, pose):
        text = render(POSE_HEADER if pose else MARKER_HEADER, data.draw(csv_rows(pose)))
        seq = parse_dense(text, pose)
        assert seq == parse_with_oracle(text, pose)
        assert pose or seq.complete.all()  # every marker in every frame: analyze relies on it

    @settings(max_examples=300, deadline=None)
    @given(st.data(), st.booleans())
    def test_corrupt_cell_same_error(self, data, pose):
        rows = data.draw(csv_rows(pose).filter(bool))
        row = data.draw(st.sampled_from(rows))
        how = data.draw(st.sampled_from(["cell", "copy", "drop", "extra"]))
        column = data.draw(st.integers(0, 5))
        if how == "cell":  # a second bad cell in the row tests the order of the checks
            for column in data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=2,
                                             unique=True)):
                row[column] = data.draw(corrupt_cells)
        elif how == "copy":  # a cell of another row: duplicates, time conflicts, order
            row[column] = data.draw(st.sampled_from(rows))[column]
        elif how == "drop":
            del row[column]
        else:
            row.insert(column, data.draw(corrupt_cells))
        text = render(POSE_HEADER if pose else MARKER_HEADER, rows)
        assert outcome(lambda t: parse_dense(t, pose), text) == \
            outcome(lambda t: parse_with_oracle(t, pose), text)


@pytest.mark.parametrize("row", [
    "x,nan,left_toe,1,2,0.9",  # frame index before time
    "0,nan,left_toe,1,2,0.9",  # time before keypoint name
    "0,0.0,left_toe,abc,2,0.9",  # keypoint name before x
    "0,0.0,nose,inf,abc,0.9",  # x before y
    "0,0.0,nose,1,abc,1.5",  # y before the confidence range
    "0,0.0,nose,1,2,abc,7",  # field count first
    "0,0.0,nose,1,2,1.5",  # confidence range before the duplicate
    "0,0.5,nose,1,2,0.9",  # time conflict before the duplicate
    "0,0.0,nose,1,2,0.8",  # duplicate
])
def test_first_failing_check_of_a_row(row):
    text = POSE_HEADER + "0,0.0,nose,1,2,0.9\n" + row + "\n"
    assert outcome(lambda t: parse_dense(t, True), text) == \
        outcome(lambda t: parse_with_oracle(t, True), text)
    assert outcome(lambda t: parse_dense(t, True), text)[0] != "ok"


@st.composite
def gappy_frames(draw):
    """(frame index, time, points) frames whose keypoints go missing or
    fall below typical thresholds; the first and last frames are mostly
    confident, so that most gaps can be repaired."""
    names = draw(st.lists(st.sampled_from(KEYPOINT_NAMES), min_size=1, max_size=3, unique=True))
    coordinate = st.floats(-1e4, 1e4)
    conf = st.one_of(st.sampled_from([0.0, 0.1, 0.3, 0.5, 1.0]), st.floats(0.0, 1.0))
    timed = draw(timed_indices())
    anchored = draw(st.integers(0, 3)) > 0
    frames = []
    for j, (index, time_s) in enumerate(timed):
        edge = anchored and j in (0, len(timed) - 1)
        points = {}
        for name in names:
            if edge or draw(st.integers(0, 5)):  # one in six inner points is absent
                points[name] = (draw(coordinate), draw(coordinate), 1.0 if edge else draw(conf))
        frames.append((index, time_s, points))
    return frames


class TestFillGapsOracle:
    @settings(max_examples=300, deadline=None)
    @given(gappy_frames(), st.sampled_from([0.0, 0.3, 0.5, 1.0]), st.integers(0, 4))
    def test_equals_per_keypoint_loop(self, frames, threshold, max_gap):
        seq = PoseSequence(ViewLabel.FRONTAL, [PoseFrame(*fr) for fr in frames])

        def expected(_):
            repaired = fill_gaps_loop(frames, threshold, max_gap)
            return PoseSequence(ViewLabel.FRONTAL, [PoseFrame(*fr) for fr in repaired])

        got = outcome(lambda s: fill_gaps(s, threshold, max_gap), seq)
        want = outcome(expected, seq)
        assert got == want
        if got[0] == "ok":  # bit for bit, not only ==
            assert got[1].values.tobytes() == want[1].values.tobytes()


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
        with pytest.raises(GaitViewError,
                           match=r"^gap for 'nose' spanning frames \(1, 11\) cannot be repaired$"):
            fill_gaps(make_pose(rows), 0.3, 10)

    def test_gap_at_boundary(self):
        seq = make_pose([
            (0, 0.00, {"nose": (0.0, 0.0, 0.1)}),
            (1, 0.01, {"nose": (1.0, 0.0, 0.9)}),
        ])
        with pytest.raises(GaitViewError,
                           match=r"^gap for 'nose' spanning frames \(0, 0\) cannot be repaired$"):
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
        mapping = read_key_values(io.StringIO(text))
        assert mapping == {"left_ankle": "LANK", "right_hip": "RHIP"}

    def test_bad_line(self):
        with pytest.raises(ParseError):
            read_key_values(io.StringIO("left_ankle LANK\n"))

    def test_duplicate_role(self):
        text = "left_ankle = LANK\n# again\nleft_ankle = LANK2\n"
        with pytest.raises(ParseError) as err:
            read_key_values(io.StringIO(text))
        assert (err.value.line, err.value.reason) == (
            3, "duplicate key 'left_ankle', first set on line 1")


def test_keypoint_schema_is_17_names():
    assert len(KEYPOINT_NAMES) == 17
    assert len(set(KEYPOINT_NAMES)) == 17
    # 17 names x 2 coordinates = the 34-dimensional 2D feature space
    assert 2 * len(KEYPOINT_NAMES) == 34
