import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gaitview.errors import GaitViewError
from gaitview import metrics
from gaitview.features import FeatureName
from gaitview.metrics import (
    MetricConfig,
    compute_records,
    dtw_distance,
    information_entropy,
    kl_divergence,
    max_cross_correlation,
)
from gaitview.signal_core import SideLabel, TrialId, ViewLabel, znormalize

from oracles import DTW_MAX_LEN, dtw_bruteforce


def ts(values):
    return np.asarray(values, dtype=float)


def dtw_cell_loop(xs, ys):
    """The former dtw_distance body: the full table filled one cell at a time."""
    n, m = xs.size, ys.size
    prev = np.cumsum(np.abs(xs[0] - ys)).tolist()
    for i in range(1, n):
        cost = np.abs(xs[i] - ys).tolist()
        cur = [0.0] * m
        cur[0] = cost[0] + prev[0]
        up = prev
        left = cur[0]
        for j in range(1, m):
            a = up[j]
            b = up[j - 1]
            best = a if a < b else b
            if left < best:
                best = left
            left = cost[j] + best
            cur[j] = left
        prev = cur
    return float(prev[-1])


BLOCK = metrics._DTW_BLOCK
# lengths up to about three blocks of anti-diagonals, and one block +- 1
blocked_lengths = st.one_of(st.integers(1, 3 * BLOCK + 2),
                            st.sampled_from([1, BLOCK - 1, BLOCK, BLOCK + 1]))

short_signals = st.lists(
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=DTW_MAX_LEN,
)


class TestDtw:
    def test_identical_is_zero(self):
        x = ts([1.0, 2.0, 3.0, 2.0])
        assert dtw_distance(x, x) == 0.0

    def test_singletons(self):
        assert dtw_distance(ts([3.0]), ts([7.5])) == 4.5

    def test_small_example(self):
        # D fills by hand: x=[0,1,2], y=[0,2] -> 1
        assert dtw_distance(ts([0.0, 1.0, 2.0]), ts([0.0, 2.0])) == 1.0

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            a = ts(rng.normal(size=rng.integers(2, 12)))
            b = ts(rng.normal(size=rng.integers(2, 12)))
            assert dtw_distance(a, b) == dtw_distance(b, a)

    def test_matches_bruteforce_enumeration(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            n = int(rng.integers(1, DTW_MAX_LEN + 1))
            m = int(rng.integers(1, DTW_MAX_LEN + 1))
            a = rng.normal(size=n)
            b = rng.normal(size=m)
            got = dtw_distance(ts(a), ts(b))
            want = dtw_bruteforce(a.tolist(), b.tolist())
            assert got == want

    @given(short_signals, short_signals)
    def test_oracle_property(self, a, b):
        assert dtw_distance(ts(a), ts(b)) == dtw_bruteforce(a, b)

    def test_equals_cell_loop(self):
        rng = np.random.default_rng(11)
        shapes = [(1, 1), (1, 300), (300, 1), (300, 7), (5, 280), (300, 300)]
        shapes += [tuple(rng.integers(1, 301, size=2)) for _ in range(24)]
        for n, m in shapes:
            for scale in (1e-6, 1.0, 1e6):
                a = rng.normal(size=n) * scale
                b = rng.normal(size=m) * scale
                assert dtw_distance(ts(a), ts(b)) == dtw_cell_loop(a, b), (n, m, scale)

    @settings(max_examples=60, deadline=None)
    @given(blocked_lengths, blocked_lengths, st.integers(0, 2**32 - 1),
           st.sampled_from([1e-6, 1.0, 1e6]))
    @example(1, 3 * BLOCK + 1, 0, 1.0)
    @example(3 * BLOCK + 1, 1, 0, 1.0)
    @example(3 * BLOCK, 5, 1, 1e6)
    @example(4, 3 * BLOCK, 2, 1e-6)
    @example(BLOCK - 1, BLOCK + 1, 3, 1.0)
    @example(BLOCK, BLOCK, 4, 1.0)
    def test_equals_cell_loop_across_blocks(self, n, m, seed, scale):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=n) * scale
        b = rng.normal(size=m) * scale
        assert dtw_distance(ts(a), ts(b)) == dtw_cell_loop(a, b)

    def test_memory_is_blocks_not_table(self):
        n = m = 2000
        rng = np.random.default_rng(5)
        a, b = ts(rng.normal(size=n)), ts(rng.normal(size=m))
        tracemalloc.start()
        try:
            dtw_distance(a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * m * 8 / 10

    def test_repeating_last_value_adds_nothing(self):
        a = [0.0, 1.0, 0.5]
        b = [0.0, 1.2, 0.5]
        base = dtw_distance(ts(a), ts(b))
        padded = dtw_distance(ts(a + [0.5, 0.5]), ts(b))
        assert padded == base


class TestMcc:
    def test_known_shift(self):
        n, period = 500, 100
        t = np.arange(n)
        base = np.sin(2 * np.pi * t / period)
        for k in (1, 3, 7, 20):
            x = ts(base)
            y = ts(np.sin(2 * np.pi * (t - k) / period))
            _, lag = max_cross_correlation(x, y)
            assert lag == k

    def test_zero_lag_for_identical(self):
        x = ts(np.sin(np.linspace(0, 12, 200)))
        val, lag = max_cross_correlation(x, x)
        assert lag == 0
        assert abs(val - float(np.dot(x, x))) < 1e-9

    def test_tie_breaks_toward_small_then_negative_lag(self):
        # constant signals tie every lag; shorter overlaps score less, so
        # the full-overlap lag 0 wins outright
        x = ts([1.0, 1.0, 1.0])
        _, lag = max_cross_correlation(x, x)
        assert lag == 0
        # two-point impulse pair ties lags -1 and +1 exactly
        a = ts([1.0, 0.0, 1.0])
        b = ts([0.0, 1.0, 0.0])
        _, lag = max_cross_correlation(a, b)
        assert lag == -1

    def test_length_mismatch(self):
        with pytest.raises(GaitViewError, match="^lengths 2 and 3 differ$"):
            max_cross_correlation(ts([1.0, 2.0]), ts([1.0, 2.0, 3.0]))


class TestKld:
    def test_identical_distributions_zero(self):
        rng = np.random.default_rng(2)
        v = rng.normal(size=400)
        assert kl_divergence(ts(v), ts(v)) == 0.0

    def test_two_bin_construction(self):
        # pooled range [0, 1], 2 bins. P: all mass in bin 0. Q: half/half.
        # D = 1*log2(1/0.5) = 1 bit (up to epsilon smoothing)
        cfg = MetricConfig(histogram_bins=2)
        x = ts(np.linspace(0.0, 0.1, 50).tolist() + [0.0, 1e-6])
        y = ts([0.05] * 26 + [1.0] * 26)
        val = kl_divergence(x, y, cfg)
        assert abs(val - 1.0) < 1e-6

    def test_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            a = ts(rng.normal(size=100))
            b = ts(rng.normal(loc=rng.uniform(-2, 2), size=100))
            assert kl_divergence(a, b) >= 0.0

    def test_asymmetric(self):
        rng = np.random.default_rng(12)
        a = ts(rng.normal(size=300))
        b = ts(rng.uniform(-3, 3, size=300))
        assert kl_divergence(a, b) != kl_divergence(b, a)

    def test_constant_pooled_range_rejected(self):
        with pytest.raises(GaitViewError, match="^pooled range of width zero$"):
            kl_divergence(ts([2.0, 2.0]), ts([2.0, 2.0]))

    def test_log_base_conversion(self):
        rng = np.random.default_rng(13)
        a = ts(rng.normal(size=200))
        b = ts(rng.normal(1.0, 2.0, size=200))
        bits = kl_divergence(a, b)
        nats = kl_divergence(a, b, MetricConfig(log_base=math.e))
        assert abs(bits * math.log(2) - nats) < 1e-12


class TestEntropy:
    def test_constant_is_zero(self):
        assert information_entropy(ts([4.0] * 10)) == 0.0

    def test_uniform_256_levels(self):
        vals = np.arange(256, dtype=float)
        assert abs(information_entropy(ts(vals)) - 8.0) < 1e-12

    def test_affine_invariance(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=500)
        base = information_entropy(ts(v))
        moved = information_entropy(ts(v * -3.5 + 11.0))
        assert abs(base - moved) < 1e-9

    def test_bounded_by_log_bins(self):
        rng = np.random.default_rng(6)
        v = rng.uniform(size=100000)
        h = information_entropy(ts(v))
        assert h <= 8.0 + 1e-12
        assert h > 7.9


class TestMetricConfig:
    @pytest.mark.parametrize("name, value", [
        ("log_base", math.inf), ("log_base", math.nan),
        ("smoothing_epsilon", math.inf), ("smoothing_epsilon", math.nan),
    ])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite, got {value}$"):
            MetricConfig(**{name: value})


class TestComputeRecord:
    def test_record_fields_and_resampling(self):
        t3 = np.linspace(0, 4 * np.pi, 200)
        t2 = np.linspace(0, 4 * np.pi, 150)
        sig3 = ts(np.sin(t3))
        sig2 = ts(np.sin(t2) * 40.0 + 300.0)  # pixel-ish scale
        rec = compute_records(
            TrialId(1, 2), FeatureName.STEP_LENGTH, SideLabel.LEFT,
            sig3, {ViewLabel.LATERAL: sig2},
        )[0]
        assert rec.view is ViewLabel.LATERAL
        assert rec.mcc_lag == 0
        assert rec.dtw < 2.0  # near-identical after z-normalization
        # 256 bins over 200 samples leave many near-empty bins; the bound
        # is loose but separates this from genuinely mismatched shapes
        assert rec.kld < 2.0
        assert abs(rec.ie_2d - rec.ie_3d) < 0.5

    def test_normalization_default(self):
        # offset and scale vanish under the default config, and only there
        args = (TrialId(1, 1), FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL)
        a = ts(np.sin(np.linspace(0, 6, 40)))
        b = ts(a * 13.0 + 5.0)
        assert compute_records(*args, a, {ViewLabel.LATERAL: b})[0].dtw < 1e-10
        assert compute_records(*args, a, {ViewLabel.LATERAL: b},
                               MetricConfig(normalize=False))[0].dtw > 100.0

    def test_errors_wrapped(self):
        with pytest.raises(GaitViewError, match=r"^\(subject 3, trial 2, knee_rotation, right, "
                                                r"mocap3d\): signal has zero variance$") as info:
            compute_records(
                TrialId(3, 2), FeatureName.KNEE_ROTATION, SideLabel.RIGHT,
                ts([1.0] * 50), {ViewLabel.FRONTAL: ts([1.0] * 50)},
            )
        assert str(info.value.__cause__) == "signal has zero variance"

    def test_3d_signal_that_cannot_be_prepared_names_mocap3d(self):
        good = {view: ts(np.sin(np.linspace(0, 6 + k, 60)))
                for k, view in enumerate((ViewLabel.FRONTAL, ViewLabel.LATERAL))}
        with pytest.raises(GaitViewError, match=r"^\(subject 1, trial 1, trunk_rotation, "
                                                r"bilateral, mocap3d\): signal has zero variance$"):
            compute_records(TrialId(1, 1), FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL,
                            ts([2.0] * 50), good)

    def test_views_share_one_prepared_3d_signal(self, monkeypatch):
        rng = np.random.default_rng(4)
        sig3 = ts(rng.normal(size=120))
        views = {ViewLabel.FRONTAL: ts(rng.normal(size=90)),
                 ViewLabel.LATERAL: ts(rng.normal(size=150))}
        args = (TrialId(2, 1), FeatureName.TRUNK_ROTATION, SideLabel.BILATERAL)
        expected = [compute_records(*args, sig3, {view: sig})[0] for view, sig in views.items()]
        normalized, pairs = [], []
        monkeypatch.setattr(metrics, "znormalize",
                            lambda s: normalized.append(s) or znormalize(s))
        monkeypatch.setattr(metrics, "dtw_distance",
                            lambda *a: pairs.append(a) or dtw_distance(*a))
        assert compute_records(*args, sig3, views) == expected
        assert len(normalized) == 3  # each 2D signal once, the 3D signal once
        assert len(pairs) == 2  # still one DTW per (2D, 3D) pair

    def test_error_names_the_failing_view(self):
        views = {ViewLabel.FRONTAL: ts(np.sin(np.arange(50.0))),
                 ViewLabel.LATERAL: ts([1.0] * 50)}
        with pytest.raises(GaitViewError, match=r"^\(subject 3, trial 2, knee_rotation, right, "
                                                r"lateral\): signal has zero variance$"):
            compute_records(TrialId(3, 2), FeatureName.KNEE_ROTATION, SideLabel.RIGHT,
                            ts(np.cos(np.arange(50.0))), views)
