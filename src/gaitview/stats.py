"""Paired nonparametric comparison of frontal vs lateral metric scores.

Wilcoxon signed-rank (exact by sign-assignment enumeration up to n = 25
nonzero differences, normal approximation with tie and continuity
corrections above; no nonzero difference gives p = 1), Cliff's
delta with Small/Medium/Large labels at |delta| thresholds 0.33 and 0.474.
Each takes the two views' scores as sequences paired by position, and so
does compare_views; its caller picks the record field that is a score.
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


def _paired(a, b) -> tuple[np.ndarray, np.ndarray]:
    """Two paired score sequences as float64 arrays (a float64 array is not copied)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.size != b.size:
        raise ValueError("paired samples must have equal length")
    if a.size < 1:
        raise GaitViewError("need at least one pair")
    return a, b


def wilcoxon_signed_rank(a, b) -> tuple[float, float, float]:
    """Two-sided Wilcoxon signed-rank test of paired a and b; returns (W+, W-, p).

    W+ and W- sum the midranks of the positive and negative |differences|
    after dropping zero differences. n alone selects the p: exact over all
    2^n sign assignments for n <= EXACT_N_MAX, else the normal approximation
    with tie and continuity corrections, both of W = min(W+, W-). With no
    nonzero difference, W+ = W- = 0 and the exact p is 1.
    """
    d = np.subtract(*_paired(a, b))
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
    # ties of sizes t summing to n have sum(t^3 - t) <= n^3 - n, so var >= n(n+1)^2/16 > 0
    var -= float(np.sum(tie_counts**3 - tie_counts)) / 48.0  # exact: multiples of 1/8
    z = (w - mean + 0.5) / math.sqrt(var)  # continuity correction; W <= mean
    return min(1.0, math.erfc(-z / math.sqrt(2.0)))  # 2 * Phi(z), precise in the tail


def effect_label(delta: float) -> str:
    mag = abs(delta)
    if mag >= DELTA_LARGE:
        return "large"
    if mag >= DELTA_MEDIUM:
        return "medium"
    return "small"


def cliffs_delta(a, b) -> tuple[float, str]:
    """Cliff's delta of a over b across all cross pairs, with its effect-size label."""
    a, b = _paired(a, b)
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
    a, b = _paired(frontal, lateral)
    w_plus, w_minus, p = wilcoxon_signed_rank(a, b)
    delta, label = cliffs_delta(a, b)
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    sd_a = float(np.std(a, ddof=1)) if a.size > 1 else 0.0
    sd_b = float(np.std(b, ddof=1)) if b.size > 1 else 0.0
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
