import numpy as np
import pytest

from gaitview.errors import GaitViewError
from gaitview.signal_core import TrialId, _finite, resample_linear, znormalize


class TestTimeSeries:
    # a time series is a plain float array; _finite is its admission check
    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            _finite(np.array([0.0, np.nan, 1.0]))

    def test_rejects_inf(self):
        with pytest.raises(ValueError, match="samples contain non-finite values"):
            _finite(np.array([0.0, np.inf]))


class TestTrialId:
    def test_valid(self):
        t = TrialId(3, 2)
        assert (t.subject_index, t.trial_index) == (3, 2)

    def test_rejects_zero_subject(self):
        with pytest.raises(ValueError):
            TrialId(0)


class TestResampleLinear:
    def test_midpoint(self):
        out = resample_linear(np.array([0.0, 1.0]), 3)
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_identity_at_same_length(self):
        ts = np.array([3.0, 1.0, 4.0, 1.0, 5.0])
        out = resample_linear(ts, 5)
        assert np.array_equal(out, ts)

    def test_piecewise_linear_upsample(self):
        # expected values from direct evaluation of the piecewise-linear
        # interpolant of [0, 2, 4] on a uniform 5-point grid
        out = resample_linear(np.array([0.0, 2.0, 4.0]), 5)
        assert np.allclose(out, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_endpoints_exact(self):
        rng = np.random.default_rng(7)
        ts = rng.normal(size=37)
        out = resample_linear(ts, 101)
        assert out[0] == ts[0]
        assert out[-1] == ts[-1]

    def test_idempotent_at_fixed_length(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ts = rng.normal(size=rng.integers(2, 40))
            target = int(rng.integers(2, 40))
            once = resample_linear(ts, target)
            twice = resample_linear(once, target)
            assert np.array_equal(once, twice)

    def test_overflow_rejected(self):
        # the slope between the two samples overflows; the interior comes out non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^samples contain non-finite values$"):
                resample_linear(np.array([-1.7e308, 1.7e308]), 5)

    def test_too_short(self):
        with pytest.raises(GaitViewError, match="^need >= 2 samples to resample, got 1$"):
            resample_linear(np.array([1.0]), 5)
        with pytest.raises(GaitViewError, match="^target_len must be >= 2, got 1$"):
            resample_linear(np.array([1.0, 2.0]), 1)


class TestZnormalize:
    def test_constant_rejected(self):
        with pytest.raises(GaitViewError, match="^signal has zero variance$"):
            znormalize(np.array([1.0, 1.0, 1.0]))

    def test_two_point_symmetry(self):
        out = znormalize(np.array([0.0, 2.0]))
        assert np.allclose(out, [-1.0, 1.0])

    def test_moments_after_transform(self):
        out = znormalize(np.array([1.0, 2.0, 3.0, 4.0]))
        assert abs(out.mean()) < 1e-9
        assert abs(out.std() - 1.0) < 1e-9
        assert np.all(np.diff(out) > 0)  # ordering preserved

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        base = znormalize(x)
        for a, b in [(2.0, 5.0), (0.3, -7.0), (1e4, 0.0)]:
            out = znormalize(a * x + b)
            assert np.max(np.abs(out - base)) < 1e-9

    def test_negation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=30)
        pos = znormalize(x)
        neg = znormalize(-x)
        assert np.max(np.abs(neg + pos)) < 1e-12
