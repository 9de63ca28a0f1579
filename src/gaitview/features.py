"""Gait-parameter time series extracted from 2D pose or 3D marker data.

Four features: step length (signed inter-ankle progression along the
walking axis), knee rotation (interior joint angle), trunk rotation
(shoulder line vs hip line), and wrist-to-hipmid distance.

2D angles are computed in raw image coordinates without perspective
correction: the projection distortion is exactly what the metrics
downstream are meant to measure. For 3D data the vertical axis is z and
the ground plane is x-y.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (
    DegenerateGeometry,
    FeatureError,
    MissingLandmark,
    NoWalkingDirection,
)
from .ingest import PoseSequence
from .signal_core import SideLabel, TimeSeries, TrialId, ViewLabel


class FeatureName(str, Enum):
    STEP_LENGTH = "step_length"
    KNEE_ROTATION = "knee_rotation"
    TRUNK_ROTATION = "trunk_rotation"
    WRIST_HIPMID = "wrist_hipmid"


# (feature, sides) layout of a complete feature set
FEATURE_SIDES: dict[FeatureName, tuple[SideLabel, ...]] = {
    FeatureName.STEP_LENGTH: (SideLabel.LEFT, SideLabel.RIGHT),
    FeatureName.KNEE_ROTATION: (SideLabel.LEFT, SideLabel.RIGHT),
    FeatureName.TRUNK_ROTATION: (SideLabel.BILATERAL,),
    FeatureName.WRIST_HIPMID: (SideLabel.LEFT, SideLabel.RIGHT),
}


def signal_key_name(feature: FeatureName, side: SideLabel) -> str:
    """Serialized signal name, e.g. step_length_left, trunk_rotation."""
    if side is SideLabel.BILATERAL:
        return feature.value
    return f"{feature.value}_{side.value}"


@dataclass
class GaitFeatureSet:
    trial: TrialId
    source: ViewLabel
    signals: dict[tuple[FeatureName, SideLabel], TimeSeries] = field(default_factory=dict)


def _is_pose(seq) -> bool:
    return isinstance(seq, PoseSequence)


def _positions(seq, role: str, marker_map: dict[str, str] | None = None) -> np.ndarray:
    """Per-frame positions of one anatomical role: (N, 2) px or (N, 3) mm."""
    name = role if _is_pose(seq) else (marker_map or {}).get(role, role)
    return seq.points([name], MissingLandmark)[:, 0]


def _sample_rate(seq) -> float:
    if len(seq) < 2:
        return 100.0
    dts = np.diff(seq.times)
    dt = float(np.median(dts))
    return 1.0 / dt if dt > 0 else 100.0


def _ground(points: np.ndarray) -> np.ndarray:
    """Ground-plane components: identity for 2D, drop z for 3D."""
    return points[:, :2]


def walking_axis(seq, marker_map: dict[str, str] | None = None) -> np.ndarray:
    """Unit walking-direction axis from the hip midpoint track.

    Principal direction of hip-midpoint displacement (image plane for 2D,
    ground plane for 3D), oriented along the net displacement.
    """
    mid = 0.5 * (
        _positions(seq, "left_hip", marker_map) + _positions(seq, "right_hip", marker_map)
    )
    plane = _ground(mid)
    centered = plane - plane.mean(axis=0)
    net = plane[-1] - plane[0]
    if np.linalg.norm(net) < 1e-12:
        raise NoWalkingDirection("hip midpoint shows no net displacement")
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axis = vt[0]
    if np.dot(axis, net) < 0:
        axis = -axis
    return axis / np.linalg.norm(axis)


def step_length_signal(
    seq, side: SideLabel, marker_map: dict[str, str] | None = None
) -> TimeSeries:
    """Signed projection of (ankle_side - ankle_other) onto the walking axis.

    Positive when the named side leads.
    """
    if side not in (SideLabel.LEFT, SideLabel.RIGHT):
        raise ValueError("step length is side-specific")
    other = SideLabel.RIGHT if side is SideLabel.LEFT else SideLabel.LEFT
    a = _ground(_positions(seq, f"{side.value}_ankle", marker_map))
    b = _ground(_positions(seq, f"{other.value}_ankle", marker_map))
    axis = walking_axis(seq, marker_map)
    values = (a - b) @ axis
    return TimeSeries(values, sample_rate_hz=_sample_rate(seq),
                      label=signal_key_name(FeatureName.STEP_LENGTH, side))


def _interior_angle_deg(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    bad = (nu < 1e-12) | (nv < 1e-12)
    if np.any(bad):
        raise DegenerateGeometry(f"zero-length limb vector at frame index {int(np.argmax(bad))}")
    cosang = np.einsum("ij,ij->i", u, v) / (nu * nv)
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def knee_rotation_signal(
    seq, side: SideLabel, marker_map: dict[str, str] | None = None
) -> TimeSeries:
    """Interior angle at the knee between knee->hip and knee->ankle, degrees [0, 180]."""
    if side not in (SideLabel.LEFT, SideLabel.RIGHT):
        raise ValueError("knee rotation is side-specific")
    hip = _positions(seq, f"{side.value}_hip", marker_map)
    knee = _positions(seq, f"{side.value}_knee", marker_map)
    ankle = _positions(seq, f"{side.value}_ankle", marker_map)
    values = _interior_angle_deg(hip - knee, ankle - knee)
    return TimeSeries(values, sample_rate_hz=_sample_rate(seq),
                      label=signal_key_name(FeatureName.KNEE_ROTATION, side))


def trunk_rotation_signal(seq, marker_map: dict[str, str] | None = None) -> TimeSeries:
    """Signed angle between the shoulder line and the hip line, degrees (-180, 180].

    Lines run left -> right; in 3D both are projected onto the ground plane
    first, so the angle is the rotation about the vertical axis.
    """
    ls = _positions(seq, "left_shoulder", marker_map)
    rs = _positions(seq, "right_shoulder", marker_map)
    lh = _positions(seq, "left_hip", marker_map)
    rh = _positions(seq, "right_hip", marker_map)
    s = _ground(rs - ls)
    h = _ground(rh - lh)
    ns = np.linalg.norm(s, axis=1)
    nh = np.linalg.norm(h, axis=1)
    bad = (ns < 1e-12) | (nh < 1e-12)
    if np.any(bad):
        raise DegenerateGeometry(
            f"zero-length shoulder or hip line at frame index {int(np.argmax(bad))}"
        )
    cross = h[:, 0] * s[:, 1] - h[:, 1] * s[:, 0]
    dot = np.einsum("ij,ij->i", h, s)
    values = np.degrees(np.arctan2(cross, dot))
    values[values <= -180.0] = 180.0
    return TimeSeries(values, sample_rate_hz=_sample_rate(seq),
                      label=signal_key_name(FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL))


def wrist_hipmid_signal(
    seq, side: SideLabel, marker_map: dict[str, str] | None = None
) -> TimeSeries:
    """Euclidean distance from the side's wrist to the hip midpoint (px or mm)."""
    if side not in (SideLabel.LEFT, SideLabel.RIGHT):
        raise ValueError("wrist-to-hipmid is side-specific")
    wrist = _positions(seq, f"{side.value}_wrist", marker_map)
    mid = 0.5 * (
        _positions(seq, "left_hip", marker_map) + _positions(seq, "right_hip", marker_map)
    )
    values = np.linalg.norm(wrist - mid, axis=1)
    return TimeSeries(values, sample_rate_hz=_sample_rate(seq),
                      label=signal_key_name(FeatureName.WRIST_HIPMID, side))


def extract_all(
    seq,
    marker_map: dict[str, str] | None = None,
    trial: TrialId | None = None,
    source: ViewLabel | None = None,
) -> GaitFeatureSet:
    """Extract the complete 7-signal feature set from one sequence."""
    if source is None:
        source = seq.view
    if trial is None:
        trial = TrialId(1, 1)
    out = GaitFeatureSet(trial=trial, source=source)
    extractors = {
        FeatureName.STEP_LENGTH: lambda side: step_length_signal(seq, side, marker_map),
        FeatureName.KNEE_ROTATION: lambda side: knee_rotation_signal(seq, side, marker_map),
        FeatureName.TRUNK_ROTATION: lambda side: trunk_rotation_signal(seq, marker_map),
        FeatureName.WRIST_HIPMID: lambda side: wrist_hipmid_signal(seq, side, marker_map),
    }
    for feature, sides in FEATURE_SIDES.items():
        for side in sides:
            try:
                out.signals[(feature, side)] = extractors[feature](side)
            except Exception as exc:
                raise FeatureError(feature.value, side.value, exc) from exc
    return out
