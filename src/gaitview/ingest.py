"""Parsers for 2D keypoint CSVs and 3D marker CSVs, plus confidence-gap repair.

File schemas:
  2D pose:   header ``frame,time_s,keypoint,x,y,conf``, one row per (frame, keypoint)
  3D marker: header ``frame,time_s,marker,x,y,z``
  marker map: ``role = marker_name`` lines, ``#`` comments

A sequence is dense: ``frame_index`` (N,), ``times`` (N,), ``names`` (K,)
and ``values`` (N, K, 3), which holds x, y, conf for pose keypoints and
x, y, z for markers. The parser sorts frames by index and names by name.
NaN marks a point absent from a frame; the parser rejects non-finite
input, so NaN never comes from a file. A PoseSequence carries its camera
view; a MarkerSequence's view is mocap3d. ``PoseFrame``/``MarkerFrame``
are only a conversion at the edge, for hand-built sequences: the
``frames=`` constructor and the read-only ``.frames`` view (a fresh list)
build one from the other.

Parsers are pure: a file either yields a sequence or raises a positioned
error; there is no partial silent output. Each file is read with one bulk
``np.loadtxt`` call and checked with vectorised masks; the error of the
first bad row wins, as if the rows were checked one by one. A number
cell may have whitespace around it; the rest is a plain ASCII decimal as
numpy reads it (no ``_`` separators), and a frame index fits in 64 bits.
When the bulk read fails, one row scan finds the first unreadable cell,
or CR inside a line (lines end in LF or CRLF), to name its line and column.
A file given by its path is streamed into that read, and its text is read
only when the read or a row check fails, to name the fault.
"""
from __future__ import annotations

import copy
import csv
import io
import itertools
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import GaitViewError, ParseError, read_text
from .signal_core import ViewLabel

KEYPOINT_NAMES = (
    "nose",
    "left_eye", "right_eye",
    "left_ear", "right_ear",
    "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
)

POSE_HEADER = ["frame", "time_s", "keypoint", "x", "y", "conf"]
MARKER_HEADER = ["frame", "time_s", "marker", "x", "y", "z"]

DEFAULT_CONF_THRESHOLD = 0.3
DEFAULT_MAX_GAP = 10  # frames; 100 ms at 100 Hz


@dataclass
class PoseFrame:
    frame_index: int
    time_s: float
    keypoints: dict[str, tuple[float, float, float]] = field(default_factory=dict)


@dataclass
class MarkerFrame:
    frame_index: int
    time_s: float
    markers: dict[str, tuple[float, float, float]] = field(default_factory=dict)


def _frame_points(fr) -> dict:
    return fr.keypoints if isinstance(fr, PoseFrame) else fr.markers


class _Sequence:
    """Dense points of one trial; see the module docstring for the layout."""

    header: list[str]
    point: str  # what a row names: "keypoint" or "marker"
    third: str  # the sixth column: "confidence" or "z"
    dims: int  # leading coordinates of a point: x, y (pose) or x, y, z (marker)
    _frame: type  # PoseFrame or MarkerFrame, for the conversions at the edge
    view: ViewLabel

    def __init__(self, frames=(), *, frame_index=None, times=None, names=(), values=None):
        if frame_index is None:
            frames = list(frames)
            points = [_frame_points(fr) for fr in frames]
            names = sorted(set().union(*points))
            absent = (np.nan,) * 3
            frame_index = [fr.frame_index for fr in frames]
            times = [fr.time_s for fr in frames]
            values = [[p.get(name, absent) for name in names] for p in points]
        elif frames:
            raise TypeError("give frames or arrays, not both")
        self.frame_index = np.asarray(frame_index, dtype=np.int64)
        self.times = np.asarray(times, dtype=np.float64)
        self.names = tuple(names)
        self.values = np.asarray(values, dtype=np.float64).reshape(
            len(self.frame_index), len(self.names), 3
        )

    def __len__(self) -> int:
        return len(self.frame_index)

    def __eq__(self, other):
        """Equal layout and values; absent points (NaN) compare equal."""
        if type(other) is not type(self):
            return NotImplemented
        return (
            (self.view, self.names) == (other.view, other.names)
            and np.array_equal(self.frame_index, other.frame_index)
            and np.array_equal(self.times, other.times)
            and np.array_equal(self.values, other.values, equal_nan=True)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({len(self)} frames, view={self.view.value}, "
                f"{self.point}s {list(self.names)})")

    @property
    def frames(self) -> list:
        """The sequence as frames holding their present points (a copy)."""
        present = ~np.isnan(self.values[..., 0])
        return [
            self._frame(index, time_s, {
                name: tuple(point) for name, point, here in zip(self.names, points, mask) if here
            })
            for index, time_s, points, mask in zip(
                self.frame_index.tolist(), self.times.tolist(),
                self.values.tolist(), present.tolist(),
            )
        ]

    @property
    def complete(self) -> np.ndarray:
        """(K,) mask of the points present in every frame (none without frames)."""
        return ~np.isnan(self.values[..., 0]).any(axis=0) & (len(self) > 0)

    def with_values(self, values: np.ndarray):
        """Copy of the sequence with values replaced; the other arrays are shared."""
        out = copy.copy(self)
        out.values = values
        return out

    def points(self, names, error: type[Exception] | None = ValueError) -> np.ndarray:
        """(frames, len(names), dims) coordinates of the named points: x, y
        for pose keypoints (confidence left out), x, y, z for markers.

        A point absent from a frame raises error, or is NaN if error is None.
        """
        column = {name: k for k, name in enumerate(self.names)}
        known = [name in column for name in names]
        out = np.full((len(self), len(names), self.dims), np.nan)
        out[:, known] = self.values[:, [column[n] for n in names if n in column], :self.dims]
        absent = np.isnan(out[..., 0])
        if error is not None and absent.any():
            i, j = divmod(int(np.argmax(absent)), len(names))
            raise error(f"{self.point} {names[j]!r} absent in frame {self.frame_index[i]}")
        return out


class PoseSequence(_Sequence):
    header = POSE_HEADER
    point = "keypoint"
    third = "confidence"
    dims = 2
    _frame = PoseFrame

    def __init__(self, view: ViewLabel = ViewLabel.FRONTAL, frames=(), **arrays):
        self.view = view
        super().__init__(frames, **arrays)


class MarkerSequence(_Sequence):
    header = MARKER_HEADER
    point = "marker"
    third = "z"
    dims = 3
    _frame = MarkerFrame
    view = ViewLabel.MOCAP3D


_TABLE = np.dtype([("frame", "i8"), ("time", "f8"), ("name", "O"),
                   ("x", "f8"), ("y", "f8"), ("third", "f8")])
_NUMERIC = ((0, int), (1, float), (3, float), (4, float), (5, float))  # (field, type)


def _lines(text: str):
    """The lines of text, each with its "\n"; as io.StringIO(text) iterates
    them, without copying the text into a buffer of 4 bytes per character."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _rows(lines, header: list[str]):
    """(line, cells) of every data row of lines (each with its "\n", as
    _lines splits them), numbered as csv rows from 2, once the header row is
    checked against header. The lines are read lazily. A row that csv.reader
    cannot read (a carriage return outside quotes that does not end its
    line) raises ParseError at csv's line."""
    reader = csv.reader(lines)
    try:
        got = next(reader, None)
        if got is None:
            raise ParseError(1, 1, "empty file, missing header")
        got = [c.strip() for c in got]
        if got != header:
            raise ParseError(1, 1, f"bad header {got!r}, expected {header!r}")
        yield from ((line, cells) for line, cells in enumerate(reader, start=2) if cells)
    except csv.Error as exc:
        raise ParseError(reader.line_num, 1, "carriage return within the line; lines must end "
                         "in LF or CRLF" if "new-line" in str(exc) else str(exc)) from None


def _load(stream):
    """Every data row of a CSV's UTF-8 bytes as a _TABLE array, in one
    np.loadtxt call.

    np.loadtxt iterates the binary stream's lines, split after LF only, and
    decodes each one as UTF-8 (a bytes source is latin-1 by default).
    """
    return np.loadtxt(stream, dtype=_TABLE, delimiter=",", skiprows=1, comments=None,
                      quotechar='"', ndmin=1, encoding="utf-8")


def _whole(table):
    """table and its all-False mask of unreadable fields (see _read)."""
    return table, np.zeros((len(table), 7), dtype=bool)


def _number(cell: str, convert):
    """convert(cell) if np.loadtxt reads the cell as that type, else None:
    stripped of whitespace, the cell is ASCII without ``_``, convert (int
    or float) reads it, and an integer fits in int64."""
    cell = cell.strip()
    if not cell.isascii() or "_" in cell:
        return None
    try:
        value = convert(cell)
    except ValueError:
        return None
    return value if convert is float or -2**63 <= value < 2**63 else None


def _read(text: str, header: list[str]):
    """The data rows of a CSV as a _TABLE array, and an (n, 7) mask of what
    np.loadtxt cannot read in them: the field count, then each field.

    A file np.loadtxt reads whole gives an all-False mask. Otherwise one
    scan of the rows, with no bisection and no further np.loadtxt call,
    converts each numeric cell with _number up to the first row that has an
    unreadable cell or that csv.reader cannot read. That row ends the table,
    with 0 or NaN in its unreadable fields; this error path only feeds the
    checks of _parse. A scan that reads every row gives the table as read:
    np.loadtxt, unlike csv.reader, rejects a CR CR LF line end.
    """
    if next(_rows(_lines(text), header), None) is None:
        return _whole(np.zeros(0, dtype=_TABLE))
    try:
        table = _load(io.BytesIO(text.encode("utf-8")))
    except ValueError:
        rows = []
        try:
            for _, cells in _rows(_lines(text), header):
                row = [0, np.nan, cells[2] if len(cells) > 2 else "", np.nan, np.nan, np.nan]
                flags = [len(cells) != 6] + [False] * 6
                for j, convert in _NUMERIC if len(cells) == 6 else ():
                    value = _number(cells[j], convert)
                    flags[j + 1] = value is None
                    if value is not None:
                        row[j] = value
                rows.append(tuple(row))
                if any(flags):
                    break
        except ParseError:  # flagged: rereading the rows raises it again for _parse
            rows.append((0, np.nan, "", np.nan, np.nan, np.nan))
            flags = [True] + [False] * 6
        unreadable = np.zeros((len(rows), 7), dtype=bool)
        unreadable[-1] = flags
        return np.array(rows, dtype=_TABLE), unreadable
    return _whole(table)


def _read_file(path, header: list[str]):
    """_read(read_text(path), header), with the file streamed into
    np.loadtxt: the bytes _read would hand it, so the same table.

    The header, and any blank lines before the first data row, are decoded
    line by line. Only when they, a byte that is not UTF-8 or the bulk read
    fail is the text read, and _read names the fault.
    """
    try:
        with open(path, "rb") as fh:
            if next(_rows((line.decode("utf-8") for line in fh), header), None) is None:
                return _whole(np.zeros(0, dtype=_TABLE))
            fh.seek(0)
            return _whole(_load(fh))
    except (ValueError, ParseError):  # UnicodeDecodeError is a ValueError
        return _read(read_text(path), header)


def _parse(source, cls) -> dict:
    """Dense arrays of a pose or marker CSV, frames sorted by index."""
    if isinstance(source, (str, Path)):
        text = None
        table, unreadable = _read_file(source, cls.header)
    else:
        text = source.read()
        table, unreadable = _read(text, cls.header)
    n, pose = len(table), cls is PoseSequence
    frame, time, x, y, third = (table[c] for c in ("frame", "time", "x", "y", "third"))
    raw = table["name"].tolist()
    bare = {name: name.strip() for name in dict.fromkeys(raw)}
    names = sorted(set(bare.values()))
    column = {name: k for k, name in enumerate(names)}
    name_ix = np.fromiter(map({name: column[b] for name, b in bare.items()}.__getitem__, raw),
                          dtype=np.intp, count=n)
    unknown = np.array([pose and name not in KEYPOINT_NAMES for name in names], dtype=bool)
    empty = np.array([not name for name in names], dtype=bool)
    frame_ids, first, frame_ix = np.unique(frame, return_index=True, return_inverse=True)
    frame_time = time[first]
    duplicate = np.ones(n, dtype=bool)
    duplicate[np.unique(frame_ix * len(names) + name_ix, return_index=True)[1]] = False

    def number(column, what, fault):
        return lambda i, line, cells: ParseError(
            line, column, f"{fault} {what}: {cells[column - 1]!r}")

    def schema(reason):
        return lambda i, line, cells: GaitViewError(f"line {line}: {reason(i)}")

    def row(i):  # (line, cells) of data row i; a file's text is read only here
        lines = _lines(read_text(source) if text is None else text)
        return next(itertools.islice(_rows(lines, cls.header), i, None))

    # every check of a row, in the order of a reader that checks one row at a time
    checks = [
        (unreadable[:, 0], lambda i, line, cells: ParseError(
            line, len(cells) + 1, f"expected 6 fields, got {len(cells)}")),
        (unreadable[:, 1], number(1, "frame index", "invalid")),
        (unreadable[:, 2], number(2, "time", "invalid")),
        (~np.isfinite(time), number(2, "time", "non-finite")),
        (unknown[name_ix], schema(lambda i: f"unknown keypoint {bare[raw[i]]!r}")),
        (empty[name_ix], schema(lambda i: "empty marker name")),
        (unreadable[:, 4], number(4, "x", "invalid")),
        (~np.isfinite(x), number(4, "x", "non-finite")),
        (unreadable[:, 5], number(5, "y", "invalid")),
        (~np.isfinite(y), number(5, "y", "non-finite")),
        (unreadable[:, 6], number(6, cls.third, "invalid")),
        (~np.isfinite(third), number(6, cls.third, "non-finite")),
        (pose & ((third < 0.0) | (third > 1.0)),
         schema(lambda i: f"confidence {third[i]} outside [0, 1]")),
        (time != frame_time[frame_ix], lambda i, line, cells: ParseError(
            line, 2, f"time {float(time[i])!r} of frame {frame[i]} conflicts with "
                     f"{float(frame_time[frame_ix[i]])!r} given by an earlier row")),
        (duplicate, lambda i, line, cells: GaitViewError(
            f"line {line}: duplicate (frame {frame[i]}, {cls.point} {bare[raw[i]]!r})")),
    ]
    code = np.select([mask for mask, _ in checks], np.arange(1, len(checks) + 1), 0)
    bad = np.flatnonzero(code)
    if bad.size:
        i = bad[0]
        raise checks[code[i] - 1][1](i, *row(i))

    present = np.zeros((len(frame_ids), len(names)), dtype=bool)
    present[frame_ix, name_ix] = True
    changed = np.flatnonzero((present != present[:1]).any(axis=1))
    if not pose and changed.size:
        raise GaitViewError(
            f"marker set changes at frame {frame_ids[changed[0]]}; must be constant per trial"
        )
    stalled = np.flatnonzero(frame_time[1:] <= frame_time[:-1]) + 1
    if stalled.size:
        k = stalled[0]
        raise ParseError(
            row(first[k])[0], 2,
            f"time {float(frame_time[k])!r} of frame {frame_ids[k]} does not "
            f"increase on {float(frame_time[k - 1])!r} of frame {frame_ids[k - 1]}",
        )
    values = np.full((len(frame_ids), len(names), 3), np.nan)
    values[frame_ix, name_ix] = np.stack((x, y, third), axis=-1)
    return {"frame_index": frame_ids, "times": frame_time, "names": names, "values": values}


def parse_pose_csv(source, view: ViewLabel = ViewLabel.FRONTAL) -> PoseSequence:
    """Parse a 2D pose CSV into a PoseSequence with frames sorted by index."""
    return PoseSequence(view, **_parse(source, PoseSequence))


def parse_marker_csv(source) -> MarkerSequence:
    """Parse a 3D marker CSV into a MarkerSequence with frames sorted by index."""
    return MarkerSequence(**_parse(source, MarkerSequence))


def _csv_cell(text: str) -> str:
    """text as csv.writer writes it between two other cells of a row."""
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="\n").writerow([text, None])
    return buffer.getvalue()[:-2]  # the empty last cell and the line end


def _write(seq, target) -> None:
    names = [_csv_cell(name) for name in seq.names]
    frames = map("{},{!r},".format, seq.frame_index.tolist(), seq.times.tolist())
    rows = "".join(
        f"{frame}{name},{x!r},{y!r},{third!r}\n"
        for frame, points in zip(frames, seq.values.tolist())
        for name, (x, y, third) in zip(names, points)
        if x == x  # NaN: an absent point
    )
    text = ",".join(seq.header) + "\n" + rows
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8", newline="")
    else:
        target.write(text)


def write_pose_csv(seq: PoseSequence, target) -> None:
    """Write a PoseSequence in the pose CSV schema (full float precision)."""
    _write(seq, target)


def write_marker_csv(seq: MarkerSequence, target) -> None:
    """Write a MarkerSequence in the marker CSV schema (full float precision)."""
    _write(seq, target)


def check_gap_setting(conf_threshold: float, max_gap: int) -> None:
    """Reject a confidence threshold outside [0, 1] (nan included) or a negative max_gap."""
    if not 0 <= conf_threshold <= 1:
        raise ValueError(f"conf_threshold must be in [0, 1], got {conf_threshold}")
    if max_gap < 0:
        raise ValueError(f"max_gap must be >= 0, got {max_gap}")


def fill_gaps(
    seq: PoseSequence,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    max_gap: int = DEFAULT_MAX_GAP,
) -> PoseSequence:
    """Repair short low-confidence keypoint gaps by linear interpolation.

    A keypoint missing from a frame counts as a gap. Repaired points carry
    confidence equal to the threshold. Gaps longer than max_gap, or touching
    the first or last frame, raise GaitViewError (the first by keypoint name,
    then by frame).
    """
    check_gap_setting(conf_threshold, max_gap)
    n = len(seq)
    values = seq.values.copy()
    good = values[..., 2] >= conf_threshold  # False where absent (NaN)
    rows = np.arange(n)[:, None]
    before = np.maximum.accumulate(np.where(good, rows, -1), axis=0)  # last good row <= i
    after = np.minimum.accumulate(np.where(good, rows, n)[::-1], axis=0)[::-1]  # first >= i
    gap = ~good
    fatal = gap & ((before < 0) | (after == n) | (after - before - 1 > max_gap))
    if fatal.any():
        k, i = divmod(int(np.argmax(fatal.T)), n)
        frames = seq.frame_index.tolist()
        span = (frames[before[i, k] + 1], frames[after[i, k] - 1])
        raise GaitViewError(f"gap for {seq.names[k]!r} spanning frames {span} cannot be repaired")
    i, k = np.nonzero(gap)
    i0, i1 = before[i, k], after[i, k]
    f = seq.frame_index
    t = ((f[i] - f[i0]) / (f[i1] - f[i0]))[:, None]
    start, end = values[i0, k, :2], values[i1, k, :2]
    values[i, k, :2] = start + t * (end - start)
    values[i, k, 2] = conf_threshold
    return seq.with_values(values)


def read_key_values(source, key_of=None) -> dict[str, str]:
    """Parse ``key = value`` lines (a marker map, or analyze's --config);
    ``#`` starts a comment. A key given a second time (as key_of maps it, if
    given) raises ParseError at its line."""
    path = source if isinstance(source, (str, Path)) else None
    text = read_text(path) if path is not None else source.read()
    values: dict[str, str] = {}
    lines: dict[str, int] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, 1, f"expected 'key = value', got {raw!r}", path)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(line_no, 1, f"empty key or value in {raw!r}", path)
        same = key_of(key) if key_of else key
        if same in lines:
            raise ParseError(line_no, 1, f"duplicate key {key!r}, first set on line "
                                         f"{lines[same]}", path)
        lines[same] = line_no
        values[key] = value
    return values
