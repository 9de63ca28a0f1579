"""Gait-parameter time series extracted from 2D pose or 3D marker data.

Four features, seven signals: step length (signed inter-ankle progression
along the walking axis, left and right), knee rotation (interior joint
angle, left and right), trunk rotation (shoulder line vs hip line) and
wrist-to-hipmid distance (left and right). Each kernel's docstring gives
its definition, sign convention and units.

2D angles are computed in raw image coordinates without perspective
correction: the projection distortion is exactly what the metrics
downstream are meant to measure. For 3D data the vertical axis is z and
the ground plane is x-y.

There are two entry points, running the same private kernels.
extract_all gathers the ten body points once per sequence, with the
marker map resolved once, and computes the hip midpoint and walking axis
once for all seven signals. signal computes one signal and needs only the
points its feature reads.
"""
from __future__ import annotations

import functools
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
from .signal_core import SideLabel, TimeSeries


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
    signals: dict[tuple[FeatureName, SideLabel], TimeSeries] = field(default_factory=dict)


# every anatomical role a feature reads
_ROLES = tuple(f"{side}_{part}" for part in ("hip", "knee", "ankle", "shoulder", "wrist")
              for side in ("left", "right"))
_ROLE_INDEX = {role: k for k, role in enumerate(_ROLES)}


class _Body:
    """The roles of one sequence, gathered in one indexing call, and what
    several features share: hip midpoint and walking axis, each computed
    when first read.

    body[role] is the role's per-frame positions, (N, 2) px or (N, 3) mm;
    a role absent from a frame raises MissingLandmark when it is read.
    """

    def __init__(self, seq, marker_map: dict[str, str] | None = None):
        names = (_ROLES if isinstance(seq, PoseSequence)
                 else [(marker_map or {}).get(r, r) for r in _ROLES])
        self._seq, self._names = seq, names
        self._points = seq.points(names, None)
        self._absent = np.isnan(self._points[..., 0]).any(axis=0).tolist()

    def __getitem__(self, role: str) -> np.ndarray:
        k = _ROLE_INDEX[role]
        if self._absent[k]:
            self._seq.points([self._names[k]], MissingLandmark)  # raises, naming the frame
        return self._points[:, k]

    @functools.cached_property
    def hip_mid(self) -> np.ndarray:
        return 0.5 * (self["left_hip"] + self["right_hip"])

    @functools.cached_property
    def axis(self) -> np.ndarray:
        """Unit walking direction: the principal direction of hip-midpoint
        displacement (image plane for 2D, ground plane for 3D), oriented
        along the net displacement."""
        plane = _ground(self.hip_mid)
        centered = plane - plane.mean(axis=0)
        net = plane[-1] - plane[0]
        if np.linalg.norm(net) < 1e-12:
            raise NoWalkingDirection("hip midpoint shows no net displacement")
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        axis = vt[0]
        if np.dot(axis, net) < 0:
            axis = -axis
        return axis / np.linalg.norm(axis)


def _ground(points: np.ndarray) -> np.ndarray:
    """Ground-plane components: identity for 2D, drop z for 3D."""
    return points[:, :2]


def _step_length(body: _Body, side: SideLabel) -> TimeSeries:
    """Signed projection of (ankle_side - ankle_other) onto the walking axis,
    px or mm; positive when the named side leads."""
    other = SideLabel.RIGHT if side is SideLabel.LEFT else SideLabel.LEFT
    a = _ground(body[f"{side.value}_ankle"])
    b = _ground(body[f"{other.value}_ankle"])
    values = (a - b) @ body.axis
    return TimeSeries(values, label=signal_key_name(FeatureName.STEP_LENGTH, side))


def _interior_angle_deg(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    nu = np.linalg.norm(u, axis=1)
    nv = np.linalg.norm(v, axis=1)
    bad = (nu < 1e-12) | (nv < 1e-12)
    if np.any(bad):
        raise DegenerateGeometry(f"zero-length limb vector at frame index {int(np.argmax(bad))}")
    cosang = np.einsum("ij,ij->i", u, v) / (nu * nv)
    return np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))


def _knee_rotation(body: _Body, side: SideLabel) -> TimeSeries:
    """Interior angle at the knee between knee->hip and knee->ankle,
    degrees [0, 180]."""
    hip = body[f"{side.value}_hip"]
    knee = body[f"{side.value}_knee"]
    ankle = body[f"{side.value}_ankle"]
    values = _interior_angle_deg(hip - knee, ankle - knee)
    return TimeSeries(values, label=signal_key_name(FeatureName.KNEE_ROTATION, side))


def _trunk_rotation(body: _Body, side: SideLabel) -> TimeSeries:
    """Signed angle between the shoulder line and the hip line, degrees
    (-180, 180].

    Lines run left -> right; in 3D both are projected onto the ground plane
    first, so the angle is the rotation about the vertical axis.
    """
    ls = body["left_shoulder"]
    rs = body["right_shoulder"]
    lh = body["left_hip"]
    rh = body["right_hip"]
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
    return TimeSeries(values, label=signal_key_name(FeatureName.TRUNK_ROTATION, side))


def _wrist_hipmid(body: _Body, side: SideLabel) -> TimeSeries:
    """Euclidean distance from the side's wrist to the hip midpoint, px or mm."""
    wrist = body[f"{side.value}_wrist"]
    values = np.linalg.norm(wrist - body.hip_mid, axis=1)
    return TimeSeries(values, label=signal_key_name(FeatureName.WRIST_HIPMID, side))


_KERNELS = {
    FeatureName.STEP_LENGTH: _step_length,
    FeatureName.KNEE_ROTATION: _knee_rotation,
    FeatureName.TRUNK_ROTATION: _trunk_rotation,
    FeatureName.WRIST_HIPMID: _wrist_hipmid,
}


def signal(
    seq, feature: FeatureName, side: SideLabel, marker_map: dict[str, str] | None = None
) -> TimeSeries:
    """One signal of one sequence. Only the roles the feature reads must be
    present, so a partial body still yields the features it has; errors
    are raised unwrapped.
    """
    if side not in FEATURE_SIDES[feature]:
        raise ValueError(f"{feature.value} has no {side.value} side")
    return _KERNELS[feature](_Body(seq, marker_map), side)


def extract_all(seq, marker_map: dict[str, str] | None = None) -> GaitFeatureSet:
    """Extract the complete 7-signal feature set from one sequence.

    The roles are gathered once, and the hip midpoint and walking axis
    computed once, for all seven signals. The first signal that fails, in
    FEATURE_SIDES order, raises FeatureError.
    """
    out = GaitFeatureSet()
    body = _Body(seq, marker_map)
    for feature, sides in FEATURE_SIDES.items():
        for side in sides:
            try:
                out.signals[(feature, side)] = _KERNELS[feature](body, side)
            except Exception as exc:
                raise FeatureError(feature.value, side.value, exc) from exc
    return out
