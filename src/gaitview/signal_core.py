"""Core signal and trial types shared by every other module.

All types are immutable after construction.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConstantSignal, DegenerateSignal


class ViewLabel(str, Enum):
    FRONTAL = "frontal"
    LATERAL = "lateral"
    MOCAP3D = "mocap3d"


class SideLabel(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    BILATERAL = "bilateral"


@dataclass(frozen=True, order=True)
class TrialId:
    subject_index: int
    trial_index: int = 1

    def __post_init__(self):
        if self.subject_index < 1 or self.trial_index < 1:
            raise ValueError("subject_index and trial_index must be >= 1")


class TimeSeries:
    """Uniformly sampled scalar signal; immutable after construction.

    Ingestion rejects non-finite values rather than repairing them, so any
    TimeSeries reaching a metric is guaranteed finite.
    """

    __slots__ = ("samples", "label")

    def __init__(self, samples, label: str = ""):
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite values")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "label", label)

    def __setattr__(self, name, value):
        raise AttributeError("TimeSeries is immutable")

    def __len__(self) -> int:
        return self.samples.size

    def __repr__(self) -> str:
        return f"TimeSeries(label={self.label!r}, n={len(self)})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeSeries):
            return NotImplemented
        return self.label == other.label and np.array_equal(self.samples, other.samples)


def resample_linear(ts: TimeSeries, target_len: int) -> TimeSeries:
    """Resample to target_len points by endpoint-preserving linear interpolation."""
    n = len(ts)
    if n < 2:
        raise DegenerateSignal(f"need >= 2 samples to resample, got {n}")
    if target_len < 2:
        raise DegenerateSignal(f"target_len must be >= 2, got {target_len}")
    if target_len == n:
        return ts
    old_t = np.linspace(0.0, 1.0, n)
    new_t = np.linspace(0.0, 1.0, target_len)
    out = np.interp(new_t, old_t, ts.samples)
    out[0] = ts.samples[0]
    out[-1] = ts.samples[-1]
    return TimeSeries(out, label=ts.label)


def znormalize(ts: TimeSeries) -> TimeSeries:
    """Shift/scale to zero mean and unit population standard deviation."""
    if len(ts) < 2:
        raise DegenerateSignal(f"need >= 2 samples to z-normalize, got {len(ts)}")
    mu = float(np.mean(ts.samples))
    sd = float(np.std(ts.samples))
    if sd == 0.0:
        raise ConstantSignal(f"signal {ts.label!r} has zero variance")
    return TimeSeries((ts.samples - mu) / sd, label=ts.label)
