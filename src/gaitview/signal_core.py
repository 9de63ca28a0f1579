"""Trial and label types shared by every other module, and the two
operations that prepare a signal for the metrics.

A signal is a 1-D float64 array of samples. It is checked for non-finite
values where it is made: by a feature kernel, resample_linear or
znormalize.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GaitViewError


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


def _finite(values: np.ndarray) -> np.ndarray:
    """values, if every one is finite: each signal is checked where it is made."""
    if not np.all(np.isfinite(values)):
        raise ValueError("samples contain non-finite values")
    return values


def resample_linear(values: np.ndarray, target_len: int) -> np.ndarray:
    """Resample to target_len points by endpoint-preserving linear interpolation."""
    n = len(values)
    if n < 2:
        raise GaitViewError(f"need >= 2 samples to resample, got {n}")
    if target_len < 2:
        raise GaitViewError(f"target_len must be >= 2, got {target_len}")
    if target_len == n:
        return _finite(values)
    old_t = np.linspace(0.0, 1.0, n)
    new_t = np.linspace(0.0, 1.0, target_len)
    out = np.interp(new_t, old_t, values)
    out[0] = values[0]
    out[-1] = values[-1]
    return _finite(out)


def znormalize(values: np.ndarray) -> np.ndarray:
    """Shift/scale to zero mean and unit population standard deviation."""
    if len(values) < 2:
        raise GaitViewError(f"need >= 2 samples to z-normalize, got {len(values)}")
    mu = float(np.mean(values))
    sd = float(np.std(values))
    if sd == 0.0:
        raise GaitViewError("signal has zero variance")
    return _finite((values - mu) / sd)
