"""Paired nonparametric comparison of frontal vs lateral metric scores.

Wilcoxon signed-rank (exact by sign-assignment enumeration up to n = 25
nonzero differences, normal approximation with tie and continuity
corrections above; no nonzero difference gives p = 1), Cliff's
delta with Small/Medium/Large labels at |delta| thresholds 0.33 and 0.474.
compare_views takes each view's scores as a list, paired by position; the
caller picks the record field that is a metric's score.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaitViewError
from .features import FeatureName
from .report import DEFAULT_ALPHA, METRIC_DIRECTION, check_alpha
from .signal_core import SideLabel

EXACT_N_MAX = 25
DELTA_MEDIUM = 0.33
DELTA_LARGE = 0.474


@dataclass(frozen=True)
class PairedSample:
    values_a: tuple[float, ...]
    values_b: tuple[float, ...]

    def __post_init__(self):
        if len(self.values_a) != len(self.values_b):
            raise ValueError("paired samples must have equal length")
        if len(self.values_a) < 1:
            raise GaitViewError("need at least one pair")


@dataclass(frozen=True)
class StatResult:
    feature: FeatureName
    side: SideLabel
    metric: str
    mean_sd_a: tuple[float, float]  # frontal
    mean_sd_b: tuple[float, float]  # lateral
    p_value: float
    cliffs_delta: float
    effect_label: str
    winner: str  # "frontal" | "lateral" | "tie" | "" (IE: no winner direction)


def _midranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks; tied values share the mean of their ranks."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def wilcoxon_signed_rank(s: PairedSample) -> tuple[float, float, float]:
    """Two-sided Wilcoxon signed-rank test; returns (W+, W-, p).

    W+ and W- sum the midranks of the positive and negative |differences|
    after dropping zero differences. n alone selects the p: exact over all
    2^n sign assignments for n <= EXACT_N_MAX, else the normal approximation
    with tie and continuity corrections, both of W = min(W+, W-). With no
    nonzero difference, W+ = W- = 0 and the exact p is 1.
    """
    d = np.asarray(s.values_a, dtype=float) - np.asarray(s.values_b, dtype=float)
    d = d[d != 0.0]
    n = d.size
    ranks = _midranks(np.abs(d))
    w_plus = float(ranks[d > 0].sum())
    w_minus = float(ranks[d < 0].sum())
    w = min(w_plus, w_minus)
    p = _exact_p(ranks, w) if n <= EXACT_N_MAX else _approx_p(ranks, w, n)
    return w_plus, w_minus, p


def _exact_p(ranks: np.ndarray, w: float) -> float:
    """Exact two-sided p of W = min(W+, W-).

    Doubled midranks are exact integers, so the W+ null distribution is a
    polynomial product over {0, 2r} per rank. It is symmetric about half the
    rank sum, so p = 2 P(W+ <= w), capped at 1 for the balanced w = total / 2.
    The counts are exact integers (at most 2^25), so p is exact.
    """
    doubled = np.rint(2.0 * ranks).astype(np.int64)
    dist = np.zeros(int(doubled.sum()) + 1, dtype=np.float64)
    dist[0] = 1.0
    top = 0
    for r in doubled:
        nxt = dist.copy()
        nxt[r : top + r + 1] += dist[: top + 1]
        dist = nxt
        top += int(r)
    w2 = int(round(2.0 * w))
    return min(1.0, float(2 * dist[: w2 + 1].sum() / dist.sum()))


def _approx_p(ranks: np.ndarray, w: float, n: int) -> float:
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    _, tie_counts = np.unique(ranks, return_counts=True)
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0
    if var <= 0:
        return 1.0
    z = (w - mean + 0.5) / math.sqrt(var)  # continuity correction; W <= mean
    p = 1.0 + math.erf(z / math.sqrt(2.0))
    return min(1.0, float(p))


def effect_label(delta: float) -> str:
    mag = abs(delta)
    if mag >= DELTA_LARGE:
        return "large"
    if mag >= DELTA_MEDIUM:
        return "medium"
    return "small"


def cliffs_delta(s: PairedSample) -> tuple[float, str]:
    """Cliff's delta over all cross pairs, with its effect-size label."""
    a = np.asarray(s.values_a, dtype=float)
    b = np.asarray(s.values_b, dtype=float)
    diff = a[:, None] - b[None, :]
    wins = int(np.count_nonzero(diff > 0))
    losses = int(np.count_nonzero(diff < 0))
    delta = (wins - losses) / (a.size * b.size)
    return float(delta), effect_label(delta)


def compare_views(
    frontal,
    lateral,
    feature: FeatureName,
    side: SideLabel,
    metric: str,
    alpha: float = DEFAULT_ALPHA,
) -> StatResult:
    """Paired frontal-vs-lateral comparison of one metric for one feature/side.

    frontal and lateral hold the two views' scores, paired by position.
    A winner is declared only at p < alpha, by the sign of W+ - W- of the
    frontal - lateral differences and the metric's direction; IE has none.
    """
    if metric not in METRIC_DIRECTION:
        raise ValueError(f"unknown metric {metric!r}")
    check_alpha(alpha)
    a, b = tuple(frontal), tuple(lateral)
    sample = PairedSample(a, b)
    w_plus, w_minus, p = wilcoxon_signed_rank(sample)
    delta, label = cliffs_delta(sample)
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    sd_a = float(np.std(a, ddof=1)) if len(a) > 1 else 0.0
    sd_b = float(np.std(b, ddof=1)) if len(b) > 1 else 0.0
    direction = METRIC_DIRECTION[metric]
    if direction is None:
        winner = ""
    elif p >= alpha:
        winner = "tie"
    elif (w_plus < w_minus) == (direction == "lower"):
        winner = "frontal"
    else:
        winner = "lateral"
    return StatResult(
        feature=feature, side=side, metric=metric,
        mean_sd_a=(mean_a, sd_a), mean_sd_b=(mean_b, sd_b),
        p_value=float(p), cliffs_delta=delta, effect_label=label, winner=winner,
    )
