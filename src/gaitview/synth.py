"""Synthetic 3D gait generator and pinhole-camera projector.

A deliberately simple sinusoidal kinematic chain: the pelvis translates at
constant speed along +x (vertical axis +z, subject's left +y), legs and
arms oscillate at the gait-cycle frequency with a left-right phase offset
of pi, and the shoulder and hip lines counter-rotate about the vertical
axis. Not biomechanically faithful; sufficient to exercise every pipeline
stage and reproduce the qualitative view asymmetries.

Generation works on whole arrays: each marker is computed for every frame
at once from the frame times, and projection turns an (N, 17, 3) array of
world points into pixels, so a cohort costs a few numpy calls per marker
rather than a loop over frames.

Camera presets: frontal 3 m anterior of the walking path at 1.2 m height
with a 10 degree downward tilt; lateral 2.5 m to the side at 0.9 m height
with no tilt. Intrinsics default to a generic 1000 px focal length on a
1920x1080 image with centered principal point.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .errors import BehindCamera
from .ingest import (
    KEYPOINT_NAMES,
    MarkerSequence,
    PoseSequence,
    write_marker_csv,
    write_pose_csv,
)
from .signal_core import ViewLabel

MARKER_ROLES = (
    "head",
    "left_shoulder", "right_shoulder",
    "left_elbow", "right_elbow",
    "left_wrist", "right_wrist",
    "left_hip", "right_hip",
    "left_knee", "right_knee",
    "left_ankle", "right_ankle",
)

DEFAULT_FOCAL_PX = 1000.0
DEFAULT_IMAGE_SIZE = (1920, 1080)


@dataclass(frozen=True)
class GaitModelParams:
    n_frames: int = 169
    sample_rate_hz: float = 100.0
    cycle_hz: float = 1.0
    walking_speed_mps: float = 1.1
    hip_height_m: float = 0.95
    shoulder_height_m: float = 1.45
    head_height_m: float = 1.68
    hip_width_m: float = 0.30
    shoulder_width_m: float = 0.38
    thigh_len_m: float = 0.45
    shank_len_m: float = 0.44
    upper_arm_len_m: float = 0.30
    forearm_len_m: float = 0.28
    leg_swing_amp_deg: float = 22.0
    knee_flex_amp_deg: float = 42.0
    arm_swing_amp_deg: float = 18.0
    elbow_flex_deg: float = 20.0
    trunk_rot_amp_deg: float = 9.0
    hip_rot_amp_deg: float = 4.0
    marker_noise_sd_mm: float = 0.0  # 3D noise on generated markers
    noise_sd: float = 0.0  # pixel noise added to projected keypoints
    seed: int = 0

    def __post_init__(self):
        if self.n_frames < 2:
            raise ValueError("n_frames must be >= 2")
        for f in fields(self):
            if f.type == "float" and not np.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        for name in (
            "sample_rate_hz", "cycle_hz", "walking_speed_mps", "hip_height_m",
            "shoulder_height_m", "head_height_m", "hip_width_m", "shoulder_width_m",
            "thigh_len_m", "shank_len_m", "upper_arm_len_m", "forearm_len_m",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.marker_noise_sd_mm < 0 or self.noise_sd < 0:
            raise ValueError("noise standard deviations must be >= 0")
        if self.cycle_hz >= self.sample_rate_hz / 2:
            raise ValueError(f"cycle_hz must be below the Nyquist frequency "
                             f"({self.sample_rate_hz / 2} Hz), got {self.cycle_hz}")


@dataclass(frozen=True)
class CameraModel:
    position: tuple[float, float, float]
    rotation: tuple  # 3x3 row-major: rows are camera right / down / forward in world
    focal_px: float = DEFAULT_FOCAL_PX
    principal_point: tuple[float, float] = (DEFAULT_IMAGE_SIZE[0] / 2, DEFAULT_IMAGE_SIZE[1] / 2)
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE

    def __post_init__(self):
        if self.focal_px <= 0:
            raise ValueError("focal_px must be positive")
        r = np.asarray(self.rotation, dtype=float)
        if r.shape != (3, 3) or np.max(np.abs(r @ r.T - np.eye(3))) > 1e-9:
            raise ValueError("rotation must be a 3x3 orthonormal matrix")

    @property
    def rotation_matrix(self) -> np.ndarray:
        return np.asarray(self.rotation, dtype=float)


def make_camera(
    position,
    look_dir_ground,
    tilt_down_deg: float = 0.0,
    focal_px: float = DEFAULT_FOCAL_PX,
    image_size: tuple[int, int] = DEFAULT_IMAGE_SIZE,
) -> CameraModel:
    """Camera at `position` facing along a ground-plane direction, pitched
    down by tilt_down_deg."""
    d = np.asarray(look_dir_ground, dtype=float)
    d[2] = 0.0
    norm = np.linalg.norm(d)
    if norm == 0:
        raise ValueError("look direction must have a ground-plane component")
    d /= norm
    tilt = np.radians(tilt_down_deg)
    forward = np.cos(tilt) * d + np.sin(tilt) * np.array([0.0, 0.0, -1.0])
    up = np.array([0.0, 0.0, 1.0])
    right = np.cross(forward, up)
    right /= np.linalg.norm(right)
    down = np.cross(forward, right)
    rot = np.vstack([right, down, forward])
    return CameraModel(
        position=tuple(float(v) for v in np.asarray(position, dtype=float)),
        rotation=tuple(tuple(float(v) for v in row) for row in rot),
        focal_px=focal_px,
        principal_point=(image_size[0] / 2, image_size[1] / 2),
        image_size=image_size,
    )


def preset_cameras(params: GaitModelParams) -> dict[ViewLabel, CameraModel]:
    """Frontal and lateral cameras matching the recording-geometry presets."""
    path_len = params.walking_speed_mps * (params.n_frames - 1) / params.sample_rate_hz
    frontal = make_camera(
        position=(path_len + 3.0, 0.0, 1.2),
        look_dir_ground=(-1.0, 0.0, 0.0),
        tilt_down_deg=10.0,
    )
    lateral = make_camera(
        position=(path_len / 2.0, -2.5, 0.9),
        look_dir_ground=(0.0, 1.0, 0.0),
        tilt_down_deg=0.0,
    )
    return {ViewLabel.FRONTAL: frontal, ViewLabel.LATERAL: lateral}


@np.errstate(over="ignore", invalid="ignore")
def generate_gait(params: GaitModelParams) -> MarkerSequence:
    """Deterministic sinusoidal walking trial as a 13-marker sequence (meters).

    Raises ValueError when the parameters overflow to a non-finite coordinate.
    """
    p = params
    t = np.arange(p.n_frames) / p.sample_rate_hz
    phase = 2.0 * np.pi * p.cycle_hz * t

    def xyz(x, y, z):
        return np.stack(np.broadcast_arrays(x, y, z), axis=-1)

    def turned(base, angle, half_width):
        # base plus (0, half_width, 0) rotated about the vertical axis by angle
        return base + xyz(-np.sin(angle) * half_width, np.cos(angle) * half_width, 0.0)

    def limb(start, length, angle):
        return start + length * xyz(np.sin(angle), 0.0, -np.cos(angle))

    pelvis = xyz(p.walking_speed_mps * t, 0.0, p.hip_height_m)
    shoulder_mid = xyz(pelvis[:, 0], 0.0, p.shoulder_height_m)
    hip_rot = np.radians(p.hip_rot_amp_deg) * np.sin(phase)
    trunk_rot = -np.radians(p.trunk_rot_amp_deg) * np.sin(phase)
    # insertion order is the order the marker noise is drawn in
    markers: dict[str, np.ndarray] = {}
    for side, sign in (("left", 1.0), ("right", -1.0)):
        markers[f"{side}_hip"] = turned(pelvis, hip_rot, sign * p.hip_width_m / 2)
        markers[f"{side}_shoulder"] = turned(shoulder_mid, trunk_rot,
                                             sign * p.shoulder_width_m / 2)
    markers["head"] = xyz(pelvis[:, 0], 0.0, p.head_height_m)
    for side, side_phase in (("left", 0.0), ("right", np.pi)):
        leg = np.radians(p.leg_swing_amp_deg) * np.sin(phase + side_phase)
        # knee flexes most during the swing phase of the same leg
        flex = np.radians(p.knee_flex_amp_deg) * 0.5 * (1.0 - np.cos(phase + side_phase))
        markers[f"{side}_knee"] = limb(markers[f"{side}_hip"], p.thigh_len_m, leg)
        markers[f"{side}_ankle"] = limb(markers[f"{side}_knee"], p.shank_len_m, leg - flex)
        arm = np.radians(p.arm_swing_amp_deg) * np.sin(phase + side_phase + np.pi)
        markers[f"{side}_elbow"] = limb(markers[f"{side}_shoulder"], p.upper_arm_len_m, arm)
        markers[f"{side}_wrist"] = limb(markers[f"{side}_elbow"], p.forearm_len_m,
                                        arm + np.radians(p.elbow_flex_deg))
    values = np.stack(list(markers.values()), axis=1)
    if p.marker_noise_sd_mm > 0:
        rng = np.random.default_rng([p.seed, 0x6A17])
        values = values + rng.normal(0.0, p.marker_noise_sd_mm / 1000.0, size=values.shape)
    if not np.isfinite(values).all():
        raise ValueError("parameters overflow: a generated coordinate is not finite")
    names = sorted(markers)
    return MarkerSequence(frame_index=np.arange(p.n_frames), times=t, names=names,
                          values=values[:, [list(markers).index(name) for name in names]])


_FACE_OFFSETS = {
    # synthesized from the head marker; x is the walking direction
    "nose": (0.09, 0.0, -0.05),
    "left_eye": (0.07, 0.03, -0.02),
    "right_eye": (0.07, -0.03, -0.02),
    "left_ear": (0.0, 0.07, -0.03),
    "right_ear": (0.0, -0.07, -0.03),
}
_BODY_ROLES = tuple(role for role in MARKER_ROLES if role != "head")
_WORLD_NAMES = (*_FACE_OFFSETS, *_BODY_ROLES)  # the order project checks keypoints in


@np.errstate(over="ignore", invalid="ignore")
def project(
    seq: MarkerSequence,
    cam: CameraModel,
    conf: float = 1.0,
    view: ViewLabel = ViewLabel.FRONTAL,
) -> PoseSequence:
    """Pinhole-project a marker sequence to the 17-keypoint pose schema.

    Face keypoints are synthesized from the head marker. Raises BehindCamera
    naming the first frame with a point on or behind the camera plane, and
    in it the first such keypoint: face points first, then MARKER_ROLES.
    A point whose pixel overflows to a non-finite value raises ValueError
    naming the first such frame and keypoint, in the same order.
    """
    column = {name: k for k, name in enumerate(seq.names)}
    world = np.concatenate([
        seq.values[:, [column["head"]]] + np.array(list(_FACE_OFFSETS.values())),
        seq.values[:, [column[name] for name in _BODY_ROLES]],
    ], axis=1)
    # one matrix-vector product per point, as numpy rounds rot @ v; a single
    # (N, 17, 3) @ rot.T product goes through gemm and rounds differently
    pc = (cam.rotation_matrix @ (world - np.asarray(cam.position))[..., None])[..., 0]
    behind = pc[..., 2] <= 1e-9
    if behind.any():
        i, k = divmod(int(np.argmax(behind)), len(_WORLD_NAMES))
        raise BehindCamera(int(seq.frame_index[i]), _WORLD_NAMES[k])
    fx = cam.focal_px
    cx, cy = cam.principal_point
    uvc = np.stack(np.broadcast_arrays(cx + fx * pc[..., 0] / pc[..., 2],
                                       cy + fx * pc[..., 1] / pc[..., 2], conf), axis=-1)
    unprojectable = ~np.isfinite(uvc[..., :2]).all(axis=-1)
    if unprojectable.any():
        i, k = divmod(int(np.argmax(unprojectable)), len(_WORLD_NAMES))
        raise ValueError(f"frame {int(seq.frame_index[i])}: keypoint {_WORLD_NAMES[k]} "
                         "projects to a non-finite pixel")
    names = sorted(KEYPOINT_NAMES)
    return PoseSequence(view, frame_index=seq.frame_index, times=seq.times, names=names,
                        values=uvc[:, [_WORLD_NAMES.index(name) for name in names]])


def add_pixel_noise(seq: PoseSequence, sd: float, rng: np.random.Generator) -> PoseSequence:
    """Add i.i.d. Gaussian noise to keypoint pixel coordinates."""
    if sd <= 0:
        return seq
    present = ~np.isnan(seq.values[..., 0])
    values = seq.values.copy()
    # one (dx, dy) draw per present point, frame by frame and name by name
    values[present, :2] += rng.normal(0.0, sd, size=(int(present.sum()), 2))
    return seq.with_values(values)


def _randomized_params(base: GaitModelParams, rng: np.random.Generator) -> GaitModelParams:
    """Per-subject variation around the defaults."""
    return replace(
        base,
        n_frames=max(80, int(round(rng.normal(base.n_frames, 14.0)))),
        cycle_hz=base.cycle_hz * float(rng.uniform(0.9, 1.1)),
        walking_speed_mps=base.walking_speed_mps * float(rng.uniform(0.85, 1.15)),
        leg_swing_amp_deg=base.leg_swing_amp_deg * float(rng.uniform(0.85, 1.15)),
        knee_flex_amp_deg=base.knee_flex_amp_deg * float(rng.uniform(0.85, 1.15)),
        arm_swing_amp_deg=base.arm_swing_amp_deg * float(rng.uniform(0.85, 1.15)),
        trunk_rot_amp_deg=base.trunk_rot_amp_deg * float(rng.uniform(0.85, 1.15)),
    )


def make_paired_dataset(
    params: GaitModelParams, subjects: int, out_dir
) -> Path:
    """Write per-subject 3D marker CSVs plus projected frontal/lateral pose
    CSVs and a manifest; returns the manifest path.

    Deterministic for a fixed params.seed: each subject's random streams
    derive from the seed and the subject number alone, so subject k's files
    do not depend on how many subjects come before it.
    """
    if subjects < 1:
        raise ValueError("subjects must be >= 1")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_rows = []
    for subject in range(1, subjects + 1):
        rng = np.random.default_rng([params.seed, subject])
        sub_params = _randomized_params(params, rng)
        seq3d = generate_gait(replace(sub_params, seed=params.seed + subject))
        cams = preset_cameras(sub_params)
        marker_path = out / f"s{subject:02d}_mocap3d.csv"
        # generation is in meters; the marker CSV schema is millimeters
        write_marker_csv(seq3d.with_values(1000.0 * seq3d.values), marker_path)
        manifest_rows.append((subject, 1, "mocap3d", marker_path.name))
        for view in (ViewLabel.FRONTAL, ViewLabel.LATERAL):
            pose = project(seq3d, cams[view], conf=1.0, view=view)
            pose = add_pixel_noise(pose, sub_params.noise_sd, rng)
            pose_path = out / f"s{subject:02d}_{view.value}.csv"
            write_pose_csv(pose, pose_path)
            manifest_rows.append((subject, 1, view.value, pose_path.name))
    manifest = out / "manifest.csv"
    with open(manifest, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject,trial,kind,path\n")
        for subject, trial, kind, name in manifest_rows:
            fh.write(f"{subject},{trial},{kind},{name}\n")
    return manifest
