"""Independent brute-force references used only by the test suite.

These deliberately share no logic with the main implementations (the
parser reference takes only their error classes and schema names, the
gait loops only synth's marker roles and face offsets): DTW is
checked by explicit enumeration of every monotone warping path on short
signals and by the cell-by-cell recurrence on long ones, a metric_records.csv
row by numpy's interp, mean, std, correlate and histogram around that
recurrence, PCA by an out-of-place fit that adds the variance ratios one
at a time, the Wilcoxon exact p by enumeration of all 2^n sign assignments and by a
count that sums both tails of the W+ distribution, the CSV
parser by a reader that checks one row at a time and keeps a dict of
points per frame (a regular expression of csv's records finds a bare
carriage return, where the parser catches csv.Error), gap repair by a
loop over every keypoint's runs, the feature signals by a loop that
computes one frame at a time with the math module (the walking axis from
a closed-form 2x2 covariance eigenvector, not an SVD), the CSV writer by
csv.writer, and the synthetic gait model and its camera projection by
loops that compute one frame, marker and keypoint at a time.
"""
from __future__ import annotations

import csv
import io
import itertools
import math
import re

import numpy as np

from gaitview.errors import GaitViewError, ParseError
from gaitview.ingest import (
    KEYPOINT_NAMES,
    MARKER_HEADER,
    POSE_HEADER,
    MarkerSequence,
    PoseSequence,
)
from gaitview.signal_core import ViewLabel
from gaitview import synth
from gaitview.synth import _FACE_OFFSETS, MARKER_ROLES

DTW_MAX_LEN = 8
WILCOXON_MAX_N = 25


class BudgetExceeded(Exception):
    pass


def dtw_bruteforce(x, y) -> float:
    """Minimum total |x_i - y_j| cost over ALL monotone paths from (0, 0)
    to (n-1, m-1) with steps (1,0), (0,1), (1,1), enumerated explicitly."""
    x = list(x)
    y = list(y)
    n, m = len(x), len(y)
    if n > DTW_MAX_LEN or m > DTW_MAX_LEN:
        raise BudgetExceeded(f"lengths ({n}, {m}) exceed budget {DTW_MAX_LEN}")
    if n == 0 or m == 0:
        raise ValueError("empty sequence")
    best = math.inf
    stack = [(0, 0, abs(x[0] - y[0]))]
    while stack:
        i, j, acc = stack.pop()
        if i == n - 1 and j == m - 1:
            if acc < best:
                best = acc
            continue
        if i + 1 < n:
            stack.append((i + 1, j, acc + abs(x[i + 1] - y[j])))
        if j + 1 < m:
            stack.append((i, j + 1, acc + abs(x[i] - y[j + 1])))
        if i + 1 < n and j + 1 < m:
            stack.append((i + 1, j + 1, acc + abs(x[i + 1] - y[j + 1])))
    return best


def pca_reference(x, threshold: float) -> tuple[int, float] | None:
    """(k, explained ratio) of covariance PCA of x, or None if x has no
    variance: the singular values of x - x.mean(axis=0), taken out of
    place by the values-only LAPACK routine pca_fit uses (with vectors,
    LAPACK takes another algorithm, whose last bits differ), and k the first
    count whose running sum of variance ratios, added one at a time,
    reaches threshold - 1e-12 (else every component)."""
    s = np.linalg.svd(x - x.mean(axis=0), compute_uv=False)
    total = float(np.sum(s**2))
    if total == 0.0:
        return None
    explained = 0.0
    for k, ratio in enumerate((s**2 / total).tolist(), start=1):
        explained += ratio
        if explained >= threshold - 1e-12:
            return k, explained
    return s.size, explained


def dtw_recurrence(x, y) -> float:
    """Textbook O(nm) DTW: D(i, j) = |x_i - y_j| + min(D(i-1, j), D(i, j-1),
    D(i-1, j-1)), one cell at a time, a row of Python floats at a time."""
    y = list(y)
    prev = [0.0] + [math.inf] * len(y)  # D(-1, j): only D(-1, -1) = 0 is reachable
    for xi in x:
        cur = [math.inf]  # D(i, -1)
        for j, yj in enumerate(y):
            cur.append(abs(xi - yj) + min(prev[j], prev[j + 1], cur[j]))
        prev = cur
    return prev[-1]


def record_reference(signal_3d, signal_2d, bins: int, epsilon: float, log_base: float) -> dict:
    """One metric_records.csv row's numbers for a 3D signal and a 2D one,
    normalized: the 2D signal resampled onto the 3D length by np.interp
    over [0, 1], both z-normalized by np.mean and np.std, the recurrence
    above, the lag of the largest np.correlate product (ties to the
    smallest |lag|, then the negative one), and np.histogram counts over
    equal-width edges: the pooled range for KLD (every bin given epsilon
    mass, then renormalized; never below 0) and each signal's own range for
    IE (0 for a constant signal)."""
    n = len(signal_3d)
    y = np.interp(np.linspace(0.0, 1.0, n), np.linspace(0.0, 1.0, len(signal_2d)), signal_2d)
    x = (signal_3d - np.mean(signal_3d)) / np.std(signal_3d)
    y = (y - np.mean(y)) / np.std(y)
    products = np.correlate(y, x, mode="full").tolist()  # index k holds lag k - (n - 1)
    best = max(range(2 * n - 1), key=lambda k: (products[k], -abs(k - n + 1), -(k - n + 1)))

    def mass(values, edges):
        raw = [c / len(values) + epsilon for c in np.histogram(values, bins=edges)[0].tolist()]
        total = sum(raw)
        return [m / total for m in raw]

    def entropy(values):
        lo, hi = values.min(), values.max()
        if lo == hi:
            return 0.0
        counts = np.histogram(values, bins=np.linspace(lo, hi, bins + 1))[0].tolist()
        shares = [c / len(values) for c in counts if c]
        return -sum(p * math.log(p) for p in shares) / math.log(log_base)

    edges = np.linspace(min(x.min(), y.min()), max(x.max(), y.max()), bins + 1)
    kld = sum(p * math.log(p / q) for p, q in zip(mass(x, edges), mass(y, edges)))
    return {"dtw": dtw_recurrence(x.tolist(), y.tolist()), "mcc": products[best],
            "mcc_lag": best - (n - 1), "kld": max(kld / math.log(log_base), 0.0),
            "ie_2d": entropy(y), "ie_3d": entropy(x)}


def wilcoxon_enumerate(differences) -> float:
    """Exact two-sided p: the fraction of all 2^n sign assignments whose
    min(W+, W-) is <= the observed min(W+, W-)."""
    d = np.asarray(differences, dtype=float)
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        raise ValueError("all differences zero")
    if n > WILCOXON_MAX_N:
        raise BudgetExceeded(f"n = {n} exceeds budget {WILCOXON_MAX_N}")
    # midranks of |d|, computed from scratch
    order = np.argsort(np.abs(d), kind="stable")
    absd = np.abs(d)[order]
    ranks_sorted = np.empty(n)
    i = 0
    while i < n:
        j = i
        while j + 1 < n and absd[j + 1] == absd[i]:
            j += 1
        ranks_sorted[i : j + 1] = (i + j) / 2.0 + 1.0
        i = j + 1
    ranks = np.empty(n)
    ranks[order] = ranks_sorted

    def min_w(signs):
        w_plus = sum(r for r, s in zip(ranks, signs) if s > 0)
        w_minus = sum(r for r, s in zip(ranks, signs) if s < 0)
        return min(w_plus, w_minus)

    observed = min_w(np.sign(d))
    count = 0
    for assignment in itertools.product((1, -1), repeat=n):
        # midranks are multiples of 0.5, so these sums are float-exact
        if min_w(assignment) <= observed:
            count += 1
    return count / 2**n


def wilcoxon_two_tail_p(ranks, w: float) -> float:
    """Exact two-sided p from the W+ null distribution, counting the lower
    tail W+ <= w and the upper tail W+ >= total - w separately and
    subtracting their overlap once, so it assumes no symmetry."""
    doubled = np.rint(2.0 * np.asarray(ranks)).astype(np.int64)
    total = int(doubled.sum())
    dist = np.zeros(total + 1, dtype=np.float64)
    dist[0] = 1.0
    top = 0
    for r in doubled:
        nxt = dist.copy()
        nxt[r : top + r + 1] += dist[: top + 1]
        dist = nxt
        top += int(r)
    w2 = int(round(2.0 * w))
    low = dist[: w2 + 1].sum()  # W+ <= w
    hi_start = total - w2  # W- <= w  <=>  W+ >= total - w
    high = dist[hi_start:].sum() if hi_start <= total else 0.0
    overlap = 0.0
    if hi_start <= w2:  # the two tails intersect
        overlap = dist[hi_start : w2 + 1].sum()
    p = (low + high - overlap) / dist.sum()
    return min(1.0, float(p))


# the documented number rule: an ASCII decimal with whitespace around it
_INTEGER = re.compile(r"[+-]?[0-9]+")
_DECIMAL = re.compile(r"[+-]?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:e[+-]?[0-9]+)?|inf|infinity|nan)",
                      re.ASCII | re.IGNORECASE)


def _number(convert, value: str, line: int, column: int, what: str):
    """convert (int or float) of a cell that matches the rule; an int must
    also fit in int64."""
    text = value.strip()
    grammar = _INTEGER if convert is int else _DECIMAL
    if not grammar.fullmatch(text) or convert is int and not -2**63 <= int(text) < 2**63:
        raise ParseError(line, column, f"invalid {what}: {value!r}")
    out = convert(text)
    if not math.isfinite(out):
        raise ParseError(line, column, f"non-finite {what}: {value!r}")
    return out


# a CSV record as csv.reader reads it: fields that are quoted (a doubled quote
# is a quote, text after the closing quote joins the field) or not, then a line
# end, which may follow a run of carriage returns
_FIELD = r'(?:"(?:[^"]|"")*(?:"|\Z))?[^,\r\n]*'
_RECORD = re.compile(rf"{_FIELD}(?:,{_FIELD})*")
_LINE_END = re.compile(r"\r*(?:\n|\Z)")
_BARE_CR = "carriage return within the line; lines must end in LF or CRLF"


def _readable_records(text: str) -> tuple[str, int | None]:
    """The text of the records before the first one that holds a carriage
    return outside quotes not ending its line, and that return's line
    (None if no record holds one)."""
    start = 0
    while start < len(text):
        end = _RECORD.match(text, start).end()
        line_end = _LINE_END.match(text, end)
        if line_end is None:
            return text[:start], text.count("\n", 0, end) + 1
        start = line_end.end()
    return text, None


def parse_rows(text: str, pose: bool) -> list[tuple[int, float, dict]]:
    """(frame index, time, {name: (x, y, third)}) of a pose or marker CSV,
    sorted by frame index, read one row at a time; a number must match an
    ASCII decimal grammar before int() or float() reads it. Raises what the
    parser must raise on the first bad row (a bare carriage return makes
    its record bad), then on a changing marker set, then on a frame time
    that does not increase."""
    text, bare_cr_line = _readable_records(text)
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header is None:
        raise ParseError(bare_cr_line or 1, 1,
                         _BARE_CR if bare_cr_line else "empty file, missing header")
    expected = POSE_HEADER if pose else MARKER_HEADER
    if [c.strip() for c in header] != expected:
        raise ParseError(1, 1, f"bad header {[c.strip() for c in header]!r}, "
                               f"expected {expected!r}")
    point, third_name = ("keypoint", "confidence") if pose else ("marker", "z")
    frames: dict[int, tuple[float, dict, int]] = {}
    for line, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 6:
            raise ParseError(line, len(row) + 1, f"expected 6 fields, got {len(row)}")
        frame = _number(int, row[0], line, 1, "frame index")
        time_s = _number(float, row[1], line, 2, "time")
        name = row[2].strip()
        if pose and name not in KEYPOINT_NAMES:
            raise GaitViewError(f"line {line}: unknown keypoint {name!r}")
        if not name:
            raise GaitViewError(f"line {line}: empty marker name")
        x = _number(float, row[3], line, 4, "x")
        y = _number(float, row[4], line, 5, "y")
        third = _number(float, row[5], line, 6, third_name)
        if pose and not (0.0 <= third <= 1.0):
            raise GaitViewError(f"line {line}: confidence {third} outside [0, 1]")
        frame_time, points, _ = frames.setdefault(frame, (time_s, {}, line))
        if time_s != frame_time:
            raise ParseError(line, 2, f"time {time_s!r} of frame {frame} conflicts with "
                                      f"{frame_time!r} given by an earlier row")
        if name in points:
            raise GaitViewError(f"line {line}: duplicate (frame {frame}, {point} {name!r})")
        points[name] = (x, y, third)
    if bare_cr_line:
        raise ParseError(bare_cr_line, 1, _BARE_CR)
    ordered = sorted(frames.items())
    for index, (_, points, _) in ordered[1:]:
        if not pose and set(points) != set(ordered[0][1][1]):
            raise GaitViewError(
                f"marker set changes at frame {index}; must be constant per trial")
    for (before, (t0, _, _)), (index, (t1, _, line)) in zip(ordered, ordered[1:]):
        if t1 <= t0:
            raise ParseError(line, 2, f"time {t1!r} of frame {index} does not increase on "
                                      f"{t0!r} of frame {before}")
    return [(index, time_s, points) for index, (time_s, points, _) in ordered]


def fill_gaps_loop(frames, conf_threshold: float, max_gap: int):
    """Gap repair of (frame index, time, {keypoint: (x, y, conf)}) frames,
    one keypoint and one run of bad frames at a time."""
    n = len(frames)
    names = sorted({name for _, _, points in frames for name in points})
    out = [(index, time_s, dict(points)) for index, time_s, points in frames]
    for name in names:
        good = {i for i, (_, _, points) in enumerate(frames)
                if name in points and points[name][2] >= conf_threshold}
        i = 0
        while i < n:
            if i in good:
                i += 1
                continue
            start = i
            while i < n and i not in good:
                i += 1
            end = i  # the run is [start, end)
            frame_range = (frames[start][0], frames[end - 1][0])
            if start == 0 or end == n or end - start > max_gap:
                raise GaitViewError(f"gap for {name!r} spanning frames {frame_range} "
                                    "cannot be repaired")
            f0, _, before = frames[start - 1]
            f1, _, after = frames[end]
            (x0, y0, _), (x1, y1, _) = before[name], after[name]
            for j in range(start, end):
                t = (frames[j][0] - f0) / (f1 - f0)
                out[j][2][name] = (x0 + t * (x1 - x0), y0 + t * (y1 - y0), conf_threshold)
    return out


def sequence_rows(seq) -> list[tuple[int, float, dict]]:
    """(frame index, time, {name: (x, y, third)}) of a pose or marker
    sequence's frames, each holding its present (not NaN) points."""
    return [(index, time_s, {name: tuple(point) for name, point in zip(seq.names, points)
                             if point[0] == point[0]})
            for index, time_s, points in zip(seq.frame_index.tolist(), seq.times.tolist(),
                                             seq.values.tolist())]


# the seven signals of a feature set, in its order: (feature, side)
FEATURE_SIGNALS = (("step_length", "left"), ("step_length", "right"),
                   ("knee_rotation", "left"), ("knee_rotation", "right"),
                   ("trunk_rotation", "bilateral"),
                   ("wrist_hipmid", "left"), ("wrist_hipmid", "right"))


def _walking_axis(hip_mid) -> tuple[float, float]:
    """Unit eigenvector of the largest eigenvalue of the hip midpoints' 2x2
    ground-plane covariance, in closed form, pointing along the net
    displacement."""
    n = len(hip_mid)
    mx, my = (math.fsum(p[k] for p in hip_mid) / n for k in (0, 1))
    sxx = math.fsum((p[0] - mx) ** 2 for p in hip_mid)
    syy = math.fsum((p[1] - my) ** 2 for p in hip_mid)
    sxy = math.fsum((p[0] - mx) * (p[1] - my) for p in hip_mid)
    net = (hip_mid[-1][0] - hip_mid[0][0], hip_mid[-1][1] - hip_mid[0][1])
    if math.hypot(*net) < 1e-12:
        raise GaitViewError("hip midpoint shows no net displacement")
    largest = (sxx + syy) / 2 + math.hypot((sxx - syy) / 2, sxy)
    # (A - largest I) v = 0, from the row whose diagonal gap is the larger
    v = (largest - syy, sxy) if sxx >= syy else (sxy, largest - sxx)
    sign = 1.0 if v[0] * net[0] + v[1] * net[1] >= 0 else -1.0
    norm = math.hypot(*v)
    return sign * v[0] / norm, sign * v[1] / norm


def features_reference(rows, dims: int, marker_map: dict | None = None) -> dict:
    """{(feature, side): signal as a list} of (frame index, time, {name:
    point}) rows, in FEATURE_SIGNALS order, one frame at a time from the
    definitions in gaitview.features: dims is 2 for pose keypoints (x, y)
    and 3 for markers (x, y, z, ground plane x-y, names through
    marker_map). Step length is the signed ground-plane progression of the
    side's ankle over the other along the walking axis; knee rotation the
    acos of the normalized dot product of knee->hip and knee->ankle, in
    degrees; trunk rotation the atan2 angle of the shoulder line against
    the hip line (both left -> right, ground plane), -180 taken as 180; and
    wrist-hipmid the math.dist from the wrist to the hip midpoint. The first
    signal that fails raises GaitViewError '(feature, side): reason': a
    point absent from a frame, or hips with no net displacement."""
    point = "keypoint" if dims == 2 else "marker"

    def track(role):
        name = role if dims == 2 else (marker_map or {}).get(role, role)
        for index, _, points in rows:
            if name not in points:
                raise GaitViewError(f"{point} {name!r} absent in frame {index}")
        return [points[name][:dims] for _, _, points in rows]

    def hip_mid():
        return [tuple(0.5 * (a + b) for a, b in zip(l, r))
                for l, r in zip(track("left_hip"), track("right_hip"))]

    def step_length(side):
        other = "right" if side == "left" else "left"
        leading, trailing = track(f"{side}_ankle"), track(f"{other}_ankle")
        ax, ay = _walking_axis(hip_mid())
        return [(a[0] - b[0]) * ax + (a[1] - b[1]) * ay for a, b in zip(leading, trailing)]

    def knee_rotation(side):
        out = []
        joints = [track(f"{side}_{joint}") for joint in ("hip", "knee", "ankle")]
        for hip, knee, ankle in zip(*joints):
            u = [h - k for h, k in zip(hip, knee)]
            v = [a - k for a, k in zip(ankle, knee)]
            cosine = sum(p * q for p, q in zip(u, v)) / (
                math.sqrt(sum(p * p for p in u)) * math.sqrt(sum(q * q for q in v)))
            out.append(math.degrees(math.acos(max(-1.0, min(1.0, cosine)))))
        return out

    def trunk_rotation(_):
        out = []
        for ls, rs, lh, rh in zip(*map(track, ("left_shoulder", "right_shoulder",
                                               "left_hip", "right_hip"))):
            s = (rs[0] - ls[0], rs[1] - ls[1])
            h = (rh[0] - lh[0], rh[1] - lh[1])
            angle = math.degrees(math.atan2(h[0] * s[1] - h[1] * s[0], h[0] * s[0] + h[1] * s[1]))
            out.append(180.0 if angle <= -180.0 else angle)
        return out

    def wrist_hipmid(side):
        return [math.dist(w, m) for w, m in zip(track(f"{side}_wrist"), hip_mid())]

    kernels = {"step_length": step_length, "knee_rotation": knee_rotation,
               "trunk_rotation": trunk_rotation, "wrist_hipmid": wrist_hipmid}
    out = {}
    for feature, side in FEATURE_SIGNALS:
        try:
            out[feature, side] = kernels[feature](side)
        except GaitViewError as exc:
            raise GaitViewError(f"({feature}, {side}): {exc}") from exc
    return out


def write_csv_rows(seq) -> str:
    """The CSV text of a pose or marker sequence, every present point
    written by csv.writer with its floats as repr."""
    rows = (
        (index, time_s, name, repr(x), repr(y), repr(third))
        for index, time_s, points in zip(
            seq.frame_index.tolist(), map(repr, seq.times.tolist()), seq.values.tolist()
        )
        for name, (x, y, third) in zip(seq.names, points)
        if x == x  # NaN: an absent point
    )
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(seq.header)
    writer.writerows(rows)
    return out.getvalue()


def _rot_z(angle_rad: float) -> np.ndarray:
    c, s = np.cos(angle_rad), np.sin(angle_rad)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def generate_gait_loop(params) -> MarkerSequence:
    """synth.generate_gait one frame at a time, each marker from 3-vectors
    and the hip and shoulder lines turned by a z-rotation matrix."""
    p = params
    names = sorted(MARKER_ROLES)
    times, rows = [], []
    omega = 2.0 * np.pi * p.cycle_hz
    for i in range(p.n_frames):
        t = i / synth.SAMPLE_RATE_HZ
        phase = omega * t
        pelvis = np.array([p.walking_speed_mps * t, 0.0, synth.HIP_HEIGHT_M])
        markers: dict[str, np.ndarray] = {}

        hip_rot = np.radians(synth.HIP_ROT_AMP_DEG) * np.sin(phase)
        trunk_rot = -np.radians(p.trunk_rot_amp_deg) * np.sin(phase)
        rz_hip = _rot_z(hip_rot)
        rz_sh = _rot_z(trunk_rot)
        shoulder_mid = np.array([pelvis[0], 0.0, synth.SHOULDER_HEIGHT_M])
        for side, sign in (("left", 1.0), ("right", -1.0)):
            markers[f"{side}_hip"] = pelvis + rz_hip @ np.array(
                [0.0, sign * synth.HIP_WIDTH_M / 2, 0.0]
            )
            markers[f"{side}_shoulder"] = shoulder_mid + rz_sh @ np.array(
                [0.0, sign * synth.SHOULDER_WIDTH_M / 2, 0.0]
            )
        markers["head"] = np.array([pelvis[0], 0.0, synth.HEAD_HEIGHT_M])

        for side, side_phase in (("left", 0.0), ("right", np.pi)):
            leg = np.radians(p.leg_swing_amp_deg) * np.sin(phase + side_phase)
            flex = np.radians(p.knee_flex_amp_deg) * 0.5 * (1.0 - np.cos(phase + side_phase))
            hip = markers[f"{side}_hip"]
            knee = hip + synth.THIGH_LEN_M * np.array([np.sin(leg), 0.0, -np.cos(leg)])
            shank_angle = leg - flex
            ankle = knee + synth.SHANK_LEN_M * np.array(
                [np.sin(shank_angle), 0.0, -np.cos(shank_angle)]
            )
            markers[f"{side}_knee"] = knee
            markers[f"{side}_ankle"] = ankle

            arm = np.radians(p.arm_swing_amp_deg) * np.sin(phase + side_phase + np.pi)
            shoulder = markers[f"{side}_shoulder"]
            elbow = shoulder + synth.UPPER_ARM_LEN_M * np.array([np.sin(arm), 0.0, -np.cos(arm)])
            fore_angle = arm + np.radians(synth.ELBOW_FLEX_DEG)
            wrist = elbow + synth.FOREARM_LEN_M * np.array(
                [np.sin(fore_angle), 0.0, -np.cos(fore_angle)]
            )
            markers[f"{side}_elbow"] = elbow
            markers[f"{side}_wrist"] = wrist

        times.append(t)
        rows.append([markers[name] for name in names])
    return MarkerSequence(frame_index=np.arange(p.n_frames), times=times, names=names,
                          values=rows)


def _keypoint_world(markers: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    head = markers["head"]
    points = {name: head + np.asarray(off) for name, off in _FACE_OFFSETS.items()}
    for role in MARKER_ROLES:
        if role != "head":
            points[role] = markers[role]
    return points


def project_loop(seq, cam, conf: float = 1.0, view: ViewLabel = ViewLabel.FRONTAL):
    """synth.project one frame and one keypoint at a time, each point
    turned into the camera frame by its own rot @ v."""
    rot = cam.rotation_matrix
    pos = np.asarray(cam.position)
    fx = cam.focal_px
    cx, cy = cam.principal_point
    names = sorted(KEYPOINT_NAMES)
    rows = []
    for index, points in zip(seq.frame_index.tolist(), seq.values):
        keypoints: dict[str, tuple[float, float, float]] = {}
        for name, world in _keypoint_world(dict(zip(seq.names, points))).items():
            pc = rot @ (world - pos)
            if pc[2] <= 1e-9:
                raise GaitViewError(f"marker {name!r} at or behind the camera plane in "
                                    f"frame {index}")
            u = cx + fx * pc[0] / pc[2]
            v = cy + fx * pc[1] / pc[2]
            keypoints[name] = (u, v, conf)
        rows.append([keypoints[name] for name in names])
    return PoseSequence(view, frame_index=seq.frame_index, times=seq.times, names=names,
                        values=np.reshape(rows, (len(seq), len(names), 3)))
