"""Parsers for 2D keypoint CSVs and 3D marker CSVs, plus confidence-gap repair.

File schemas:
  2D pose:   header ``frame,time_s,keypoint,x,y,conf``, one row per (frame, keypoint)
  3D marker: header ``frame,time_s,marker,x,y,z``
  marker map: ``role = marker_name`` lines, ``#`` comments

All parsers are pure: a file either yields a sequence or raises a
positioned error; there is no partial silent output.

This is the only module that knows how a frame stores its points; the
other modules read and replace coordinates as arrays through _names,
_coordinates and _with_coordinates.
"""
from __future__ import annotations

import contextlib
import csv
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import DuplicateError, GapTooLarge, ParseError, SchemaError
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


@dataclass
class PoseSequence:
    view: ViewLabel
    frames: list[PoseFrame] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass
class MarkerSequence:
    frames: list[MarkerFrame] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.frames)


@dataclass(frozen=True)
class _Kind:
    """What separates the pose and the marker CSV schemas."""

    header: list[str]
    point: str  # what a row names: "keypoint" or "marker"
    third: str  # the sixth column: "confidence" or "z"
    dims: int  # leading coordinates of a point: x, y (pose) or x, y, z (marker)
    frame: type
    attr: str  # the frame's dict of points


_POSE = _Kind(POSE_HEADER, "keypoint", "confidence", 2, PoseFrame, "keypoints")
_MARKER = _Kind(MARKER_HEADER, "marker", "z", 3, MarkerFrame, "markers")


def _kind(seq) -> _Kind:
    return _POSE if isinstance(seq, PoseSequence) else _MARKER


def _open(source, mode: str):
    """Open a path; a file object passes through and is left open."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8", newline="")
    return contextlib.nullcontext(source)


def _parse_float(value: str, line: int, column: int, what: str) -> float:
    try:
        out = float(value)
    except ValueError:
        raise ParseError(line, column, f"invalid {what}: {value!r}") from None
    if not math.isfinite(out):
        raise ParseError(line, column, f"non-finite {what}: {value!r}")
    return out


def _parse_int(value: str, line: int, column: int, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParseError(line, column, f"invalid {what}: {value!r}") from None


def _check_header(row, expected, line):
    if row is None:
        raise ParseError(line, 1, "empty file, missing header")
    got = [c.strip() for c in row]
    if got != expected:
        raise ParseError(line, 1, f"bad header {got!r}, expected {expected!r}")


def _parse(source, kind: _Kind) -> list:
    """Frames of a pose or marker CSV, sorted by frame index."""
    with _open(source, "r") as handle:
        reader = csv.reader(handle)
        _check_header(next(reader, None), kind.header, 1)
        frames: dict[int, tuple[float, dict]] = {}
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 6:
                raise ParseError(line_no, len(row) + 1, f"expected 6 fields, got {len(row)}")
            frame = _parse_int(row[0], line_no, 1, "frame index")
            time_s = _parse_float(row[1], line_no, 2, "time")
            name = row[2].strip()
            if kind is _POSE and name not in KEYPOINT_NAMES:
                raise SchemaError(f"line {line_no}: unknown keypoint {name!r}")
            if not name:
                raise SchemaError(f"line {line_no}: empty marker name")
            x = _parse_float(row[3], line_no, 4, "x")
            y = _parse_float(row[4], line_no, 5, "y")
            third = _parse_float(row[5], line_no, 6, kind.third)
            if kind is _POSE and not (0.0 <= third <= 1.0):
                raise SchemaError(f"line {line_no}: confidence {third} outside [0, 1]")
            frame_time, points = frames.setdefault(frame, (time_s, {}))
            if time_s != frame_time:
                raise ParseError(
                    line_no, 2,
                    f"time {time_s!r} of frame {frame} conflicts with {frame_time!r} "
                    "given by an earlier row",
                )
            if name in points:
                raise DuplicateError(
                    f"line {line_no}: duplicate (frame {frame}, {kind.point} {name!r})"
                )
            points[name] = (x, y, third)
    ordered = [kind.frame(index, *frames[index]) for index in sorted(frames)]
    if kind is _MARKER and ordered:
        names = set(ordered[0].markers)
        for fr in ordered[1:]:
            if set(fr.markers) != names:
                raise SchemaError(
                    f"marker set changes at frame {fr.frame_index}; must be constant per trial"
                )
    return ordered


def parse_pose_csv(source, view: ViewLabel = ViewLabel.FRONTAL) -> PoseSequence:
    """Parse a 2D pose CSV into a PoseSequence with frames sorted by index."""
    return PoseSequence(view=view, frames=_parse(source, _POSE))


def parse_marker_csv(source) -> MarkerSequence:
    """Parse a 3D marker CSV into a MarkerSequence with frames sorted by index."""
    return MarkerSequence(frames=_parse(source, _MARKER))


def _write(seq, target) -> None:
    kind = _kind(seq)
    with _open(target, "w") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(kind.header)
        for fr in seq.frames:
            points = getattr(fr, kind.attr)
            for name in sorted(points):
                x, y, third = points[name]
                writer.writerow([fr.frame_index, repr(fr.time_s), name, repr(x), repr(y), repr(third)])


def write_pose_csv(seq: PoseSequence, target) -> None:
    """Write a PoseSequence in the pose CSV schema (full float precision)."""
    _write(seq, target)


def write_marker_csv(seq: MarkerSequence, target) -> None:
    """Write a MarkerSequence in the marker CSV schema (full float precision)."""
    _write(seq, target)


def _names(seq) -> list[str]:
    """Sorted names of the points present in every frame of seq."""
    attr = _kind(seq).attr
    sets = [getattr(fr, attr).keys() for fr in seq.frames]
    return sorted(set(sets[0]).intersection(*sets[1:])) if sets else []


def _coordinates(seq, names, error: type[Exception] = ValueError) -> np.ndarray:
    """(frames, len(names), dims) array of the named points' coordinates:
    x, y for pose keypoints (confidence left out), x, y, z for markers.

    A name absent from a frame raises error.
    """
    kind = _kind(seq)
    flat: list[float] = []
    for fr in seq.frames:
        points = getattr(fr, kind.attr)
        try:
            for name in names:
                flat.extend(points[name][: kind.dims])
        except KeyError as exc:
            raise error(
                f"{kind.point} {exc.args[0]!r} absent in frame {fr.frame_index}"
            ) from None
    return np.array(flat, dtype=np.float64).reshape(len(seq.frames), len(names), kind.dims)


def _with_coordinates(seq, names, values: np.ndarray):
    """Copy of seq whose named points take their coordinates from values
    (the layout of _coordinates); confidences and other points are kept."""
    kind = _kind(seq)
    frames = []
    for fr, rows in zip(seq.frames, values.tolist()):
        points = dict(getattr(fr, kind.attr))
        for name, coords in zip(names, rows):
            points[name] = tuple(coords) + points[name][kind.dims:]
        frames.append(kind.frame(fr.frame_index, fr.time_s, points))
    return replace(seq, frames=frames)


def fill_gaps(
    seq: PoseSequence,
    conf_threshold: float = DEFAULT_CONF_THRESHOLD,
    max_gap: int = DEFAULT_MAX_GAP,
) -> PoseSequence:
    """Repair short low-confidence keypoint gaps by linear interpolation.

    A keypoint missing from a frame counts as a gap. Repaired points carry
    confidence equal to the threshold. Gaps longer than max_gap, or touching
    the first or last frame, raise GapTooLarge.
    """
    if max_gap < 0:
        raise ValueError("max_gap must be >= 0")
    if not (0.0 <= conf_threshold <= 1.0):
        raise ValueError("conf_threshold must be in [0, 1]")
    n = len(seq.frames)
    names = sorted({name for fr in seq.frames for name in fr.keypoints})
    out_frames = [PoseFrame(fr.frame_index, fr.time_s, dict(fr.keypoints)) for fr in seq.frames]

    for name in names:
        good = [
            i
            for i, fr in enumerate(seq.frames)
            if name in fr.keypoints and fr.keypoints[name][2] >= conf_threshold
        ]
        good_set = set(good)
        i = 0
        while i < n:
            if i in good_set:
                i += 1
                continue
            start = i
            while i < n and i not in good_set:
                i += 1
            end = i  # gap covers [start, end)
            frame_range = (seq.frames[start].frame_index, seq.frames[end - 1].frame_index)
            if start == 0 or end == n:
                raise GapTooLarge(name, frame_range)
            if end - start > max_gap:
                raise GapTooLarge(name, frame_range)
            x0, y0, _ = seq.frames[start - 1].keypoints[name]
            x1, y1, _ = seq.frames[end].keypoints[name]
            f0 = seq.frames[start - 1].frame_index
            f1 = seq.frames[end].frame_index
            for j in range(start, end):
                t = (seq.frames[j].frame_index - f0) / (f1 - f0)
                out_frames[j].keypoints[name] = (
                    x0 + t * (x1 - x0),
                    y0 + t * (y1 - y0),
                    conf_threshold,
                )
    return PoseSequence(view=seq.view, frames=out_frames)


def _read_key_values(source) -> dict[str, str]:
    """Parse ``key = value`` lines; ``#`` starts a comment."""
    path = source if isinstance(source, (str, Path)) else None
    with _open(source, "r") as handle:
        text = handle.read()
    values: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(line_no, 1, f"expected 'key = value', got {raw!r}", path)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ParseError(line_no, 1, f"empty key or value in {raw!r}", path)
        values[key] = value
    return values


def load_marker_map(source) -> dict[str, str]:
    """Parse a key/value marker-map config: anatomical role -> marker name."""
    return _read_key_values(source)
