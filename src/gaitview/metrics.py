"""The four agreement metrics: DTW, max cross-correlation, KL divergence,
and information entropy, comparing a 2D feature signal against its 3D
counterpart. A signal is a 1-D float64 array, finite where it was made.

All functions are pure and reentrant, and the metric functions score the
signals they are given: only compute_records applies cfg.normalize (on by
default; pixel and millimeter units are not directly comparable). Other
defaults: 256 equal-width histogram bins, base-2 logarithm, additive
epsilon smoothing.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import GaitViewError
from .features import FeatureName
from .signal_core import SideLabel, TrialId, ViewLabel, resample_linear, znormalize

DEFAULT_HISTOGRAM_BINS = 256
DEFAULT_LOG_BASE = 2.0
DEFAULT_SMOOTHING_EPSILON = 1e-10
_DTW_BLOCK = 64  # anti-diagonals whose costs are computed together


@dataclass(frozen=True)
class MetricConfig:
    normalize: bool = True
    histogram_bins: int = DEFAULT_HISTOGRAM_BINS
    log_base: float = DEFAULT_LOG_BASE
    smoothing_epsilon: float = DEFAULT_SMOOTHING_EPSILON

    def __post_init__(self):
        for name in ("log_base", "smoothing_epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.histogram_bins < 2:
            raise ValueError("histogram_bins must be >= 2")
        if self.smoothing_epsilon <= 0:
            raise ValueError("smoothing_epsilon must be positive")
        if self.log_base <= 1:
            raise ValueError("log_base must be > 1")


@dataclass(frozen=True)
class MetricRecord:
    trial: TrialId
    feature: FeatureName
    side: SideLabel
    view: ViewLabel
    dtw: float
    mcc: float
    mcc_lag: int
    kld: float
    ie_2d: float
    ie_3d: float


def _nonempty(*signals: np.ndarray) -> None:
    if any(len(values) == 0 for values in signals):
        raise GaitViewError("empty signal")


def dtw_distance(x: np.ndarray, y: np.ndarray) -> float:
    """Dynamic-time-warping distance with |a - b| point cost.

    Full n x m recurrence D(i,j) = d(i,j) + min(D(i-1,j), D(i,j-1),
    D(i-1,j-1)); no warping window, no slope constraint.

    The table is swept by anti-diagonals i + j = k: a cell depends only on
    diagonals k - 1 and k - 2, so each diagonal is one vectorised step.
    Diagonals are kept indexed by row i + 1, with +inf for the cells off
    the table, so the first row and column need no special case.

    The costs come a block of _DTW_BLOCK diagonals at a time, from one
    subtract and one abs: a sliding window over y reversed and padded with
    +inf holds y[k - i] in row n + m - 2 - k, column i, so the cells off
    the table cost inf. A block covers only the rows lo..hi-1 its diagonals
    touch, and the [lo:hi] and [lo+1:hi+1] views of the three diagonals are
    built once per block, which leaves three ufunc calls per diagonal.
    Memory stays O(block x n). Every cell still adds its own cost to the
    exact minimum of its predecessors, so the result equals the
    cell-by-cell recurrence bit for bit.
    """
    _nonempty(x, y)
    n, m = x.size, y.size
    pad = np.full(n - 1, np.inf)
    windows = sliding_window_view(np.concatenate((pad, y[::-1], pad)), n)
    top = n + m - 2  # windows[top - k, i] is y[k - i]
    bufs = tuple(np.full((3, n + 1), np.inf))  # diagonals k - 2, k - 1, k
    bufs[1][1] = abs(x[0] - y[0])
    cost = np.empty((min(_DTW_BLOCK, top), n))
    for k0 in range(1, top + 1, _DTW_BLOCK):
        k1 = min(k0 + _DTW_BLOCK, top + 1)
        lo = max(0, k0 - m + 1)  # rows lo..hi-1 of the table lie on diagonals k0..k1-1
        hi = min(n, k1)
        c = cost[:k1 - k0, :hi - lo]
        np.subtract(x[lo:hi], windows[top - k1 + 1:top - k0 + 1, lo:hi][::-1], out=c)
        np.abs(c, out=c)
        before, last, cur = ((b[lo:hi], b[lo + 1:hi + 1]) for b in bufs)
        for row in c:
            out = cur[1]
            np.minimum(last[0], last[1], out=out)  # up, left
            np.minimum(out, before[0], out=out)  # diagonal
            np.add(row, out, out=out)
            before, last, cur = last, cur, before
        turn = (k1 - k0) % 3
        bufs = bufs[turn:] + bufs[:turn]
    return float(bufs[1][n])


def max_cross_correlation(x: np.ndarray, y: np.ndarray) -> tuple[float, int]:
    """Maximum of the lagged inner product R(tau) = sum_t x_t * y_{t+tau}.

    Lags span -(N-1)..N-1 (negative lags shift x). Ties break toward the
    smallest |tau|, then toward negative tau.
    """
    if len(x) != len(y):
        raise GaitViewError(f"lengths {len(x)} and {len(y)} differ")
    if len(x) < 2:
        raise GaitViewError("need >= 2 samples")
    n = x.size
    r = np.correlate(y, x, mode="full")  # r[k] = sum_t x[t] y[t + (k - (n-1))]
    lags = np.arange(-(n - 1), n)
    order = np.lexsort((lags, np.abs(lags), -r))
    best = order[0]
    return float(r[best]), int(lags[best])


def _histogram_mass(values: np.ndarray, edges: np.ndarray, eps: float) -> np.ndarray:
    counts, _ = np.histogram(values, bins=edges)
    mass = counts / counts.sum() + eps
    return mass / mass.sum()


def kl_divergence(x: np.ndarray, y: np.ndarray, cfg: MetricConfig | None = None) -> float:
    """KL divergence D(P || Q): P from the 3D signal x, Q from the 2D signal y.

    Histograms share equal-width bins spanning the pooled range of both
    signals; every bin gets epsilon mass before renormalization, so the
    divergence is finite even when Q has empty bins.
    """
    cfg = cfg or MetricConfig()
    _nonempty(x, y)
    lo = min(x.min(), y.min())
    hi = max(x.max(), y.max())
    if hi - lo == 0.0:
        raise GaitViewError("pooled range of width zero")
    edges = np.linspace(lo, hi, cfg.histogram_bins + 1)
    p = _histogram_mass(x, edges, cfg.smoothing_epsilon)
    q = _histogram_mass(y, edges, cfg.smoothing_epsilon)
    val = float(np.sum(p * (np.log(p) - np.log(q)))) / math.log(cfg.log_base)
    return max(val, 0.0)


def information_entropy(x: np.ndarray, cfg: MetricConfig | None = None) -> float:
    """Shannon entropy of the signal's value histogram, in cfg.log_base units.

    A constant signal occupies a single bin and has entropy 0. Invariant
    to affine transforms of the samples (bins span the signal's own range).
    """
    cfg = cfg or MetricConfig()
    _nonempty(x)
    lo, hi = float(x.min()), float(x.max())
    if hi - lo == 0.0:
        return 0.0
    edges = np.linspace(lo, hi, cfg.histogram_bins + 1)
    counts, _ = np.histogram(x, bins=edges)
    p = counts[counts > 0] / x.size
    return float(-np.sum(p * np.log(p))) / math.log(cfg.log_base)


def compute_records(
    trial: TrialId,
    feature: FeatureName,
    side: SideLabel,
    signal_3d: np.ndarray,
    signals_2d: dict[ViewLabel, np.ndarray],
    cfg: MetricConfig | None = None,
) -> list[MetricRecord]:
    """One record per view of signals_2d, in its order, against one 3D signal.

    Each 2D signal is resampled to the 3D length first; with cfg.normalize
    every signal is z-normalized once before the metrics run, and the 3D
    signal and its entropy are prepared once, before any view. A failure
    names the view being scored, mocap3d while the 3D signal is prepared.
    """
    cfg = cfg or MetricConfig()
    records, view = [], ViewLabel.MOCAP3D
    try:
        sig3 = znormalize(signal_3d) if cfg.normalize else signal_3d
        ie3 = information_entropy(sig3, cfg)
        for view, signal_2d in signals_2d.items():
            sig2 = resample_linear(signal_2d, len(signal_3d))
            if cfg.normalize:
                sig2 = znormalize(sig2)
            dtw = dtw_distance(sig3, sig2)
            mcc, lag = max_cross_correlation(sig3, sig2)
            kld = kl_divergence(sig3, sig2, cfg)
            records.append(MetricRecord(
                trial=trial, feature=feature, side=side, view=view, dtw=dtw, mcc=mcc,
                mcc_lag=lag, kld=kld, ie_2d=information_entropy(sig2, cfg), ie_3d=ie3,
            ))
    except Exception as exc:
        raise GaitViewError(f"(subject {trial.subject_index}, trial {trial.trial_index}, "
                            f"{feature.value}, {side.value}, {view.value}): {exc}") from exc
    return records
