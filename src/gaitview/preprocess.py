"""Zero-phase Butterworth low-pass filtering for gait coordinate tracks.

The net filter order is even: an order/2 design is applied forward and
backward, which doubles the attenuation and cancels phase. Defaults (7 Hz
cutoff, 100 Hz sampling, net order 4) follow standard gait-lab practice.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFilterSpec, SignalTooShort
from .ingest import _coordinates, _names, _with_coordinates
from .signal_core import TimeSeries

DEFAULT_CUTOFF_HZ = 7.0
DEFAULT_SAMPLE_RATE_HZ = 100.0
DEFAULT_ORDER = 4


@dataclass(frozen=True)
class FilterSpec:
    cutoff_hz: float = DEFAULT_CUTOFF_HZ
    sample_rate_hz: float = DEFAULT_SAMPLE_RATE_HZ
    order: int = DEFAULT_ORDER  # net order; design order is order // 2

    def __post_init__(self):
        if self.cutoff_hz <= 0 or self.sample_rate_hz <= 0:
            raise InvalidFilterSpec("cutoff and sample rate must be positive")
        if self.cutoff_hz >= self.sample_rate_hz / 2:
            raise InvalidFilterSpec(
                f"cutoff {self.cutoff_hz} Hz at or above Nyquist "
                f"({self.sample_rate_hz / 2} Hz)"
            )
        if self.order < 2 or self.order % 2 != 0:
            raise InvalidFilterSpec(f"order must be even and >= 2, got {self.order}")

    @property
    def design_order(self) -> int:
        return self.order // 2

    @property
    def pad_len(self) -> int:
        return 3 * (self.order + 1)


def butterworth_coeffs(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray]:
    """Discrete low-pass coefficients (b, a) for a single forward pass.

    Bilinear transform with frequency pre-warping of an analog Butterworth
    prototype of order spec.order / 2; DC gain is exactly 1.
    """
    from scipy import signal as sps  # imported on first use: recommend never filters

    b, a = sps.butter(spec.design_order, spec.cutoff_hz, btype="low", fs=spec.sample_rate_hz)
    return np.asarray(b), np.asarray(a)


def filtfilt(ts: TimeSeries, spec: FilterSpec | None = None) -> TimeSeries:
    """Apply the filter forward and backward (zero phase distortion).

    Edges are handled by odd reflection about the endpoints with padding
    length 3 * (order + 1); padding is stripped from the output.
    """
    if spec is None:
        spec = FilterSpec(sample_rate_hz=ts.sample_rate_hz)
    out = filtfilt_array(ts.samples, spec)
    return TimeSeries(out, sample_rate_hz=ts.sample_rate_hz, label=ts.label)


def filtfilt_array(values: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """filtfilt over a raw array (axis 0); used on coordinate tracks."""
    if values.shape[0] <= spec.pad_len:
        raise SignalTooShort(
            f"signal length {values.shape[0]} must exceed padding length {spec.pad_len}"
        )
    from scipy import signal as sps

    b, a = butterworth_coeffs(spec)
    return sps.filtfilt(b, a, values, axis=0, padtype="odd", padlen=spec.pad_len)


def _smooth(seq, spec: FilterSpec | None):
    """Filter every point track present in all frames, in one filtfilt call."""
    if spec is None:
        spec = FilterSpec()
    names = _names(seq)
    values = _coordinates(seq, names)
    if names:
        tracks = values.reshape(values.shape[0], -1)
        values = filtfilt_array(tracks, spec).reshape(values.shape)
    return _with_coordinates(seq, names, values)


def smooth_pose(seq, spec: FilterSpec | None = None):
    """Zero-phase filter each keypoint's x/y track; confidences untouched.

    Keypoints not present in every frame pass through unchanged (run
    fill_gaps first). Returns a new PoseSequence.
    """
    return _smooth(seq, spec)


def smooth_markers(seq, spec: FilterSpec | None = None):
    """Zero-phase filter each marker's x/y/z track. Returns a new MarkerSequence."""
    return _smooth(seq, spec)
