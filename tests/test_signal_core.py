import numpy as np
import pytest

from gaitview.errors import ConstantSignal, DegenerateSignal
from gaitview.signal_core import TimeSeries, TrialId, resample_linear, znormalize


class TestTimeSeries:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, np.nan, 1.0])

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            TimeSeries([0.0, np.inf])

    def test_immutable(self):
        ts = TimeSeries([1.0, 2.0])
        with pytest.raises(AttributeError):
            ts.label = "x"
        with pytest.raises(ValueError):
            ts.samples[0] = 9.0


class TestTrialId:
    def test_valid(self):
        t = TrialId(3, 2)
        assert (t.subject_index, t.trial_index) == (3, 2)

    def test_rejects_zero_subject(self):
        with pytest.raises(ValueError):
            TrialId(0)


class TestResampleLinear:
    def test_midpoint(self):
        out = resample_linear(TimeSeries([0.0, 1.0]), 3)
        assert np.allclose(out.samples, [0.0, 0.5, 1.0])

    def test_identity_at_same_length(self):
        ts = TimeSeries([3.0, 1.0, 4.0, 1.0, 5.0])
        out = resample_linear(ts, 5)
        assert np.array_equal(out.samples, ts.samples)

    def test_piecewise_linear_upsample(self):
        # expected values from direct evaluation of the piecewise-linear
        # interpolant of [0, 2, 4] on a uniform 5-point grid
        out = resample_linear(TimeSeries([0.0, 2.0, 4.0]), 5)
        assert np.allclose(out.samples, [0.0, 1.0, 2.0, 3.0, 4.0])

    def test_endpoints_exact(self):
        rng = np.random.default_rng(7)
        ts = TimeSeries(rng.normal(size=37))
        out = resample_linear(ts, 101)
        assert out.samples[0] == ts.samples[0]
        assert out.samples[-1] == ts.samples[-1]

    def test_idempotent_at_fixed_length(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            ts = TimeSeries(rng.normal(size=rng.integers(2, 40)))
            target = int(rng.integers(2, 40))
            once = resample_linear(ts, target)
            twice = resample_linear(once, target)
            assert np.array_equal(once.samples, twice.samples)

    def test_too_short(self):
        with pytest.raises(DegenerateSignal):
            resample_linear(TimeSeries([1.0]), 5)
        with pytest.raises(DegenerateSignal):
            resample_linear(TimeSeries([1.0, 2.0]), 1)


class TestZnormalize:
    def test_constant_rejected(self):
        with pytest.raises(ConstantSignal):
            znormalize(TimeSeries([1.0, 1.0, 1.0]))

    def test_two_point_symmetry(self):
        out = znormalize(TimeSeries([0.0, 2.0]))
        assert np.allclose(out.samples, [-1.0, 1.0])

    def test_moments_after_transform(self):
        out = znormalize(TimeSeries([1.0, 2.0, 3.0, 4.0]))
        assert abs(out.samples.mean()) < 1e-9
        assert abs(out.samples.std() - 1.0) < 1e-9
        assert np.all(np.diff(out.samples) > 0)  # ordering preserved

    def test_affine_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        base = znormalize(TimeSeries(x)).samples
        for a, b in [(2.0, 5.0), (0.3, -7.0), (1e4, 0.0)]:
            out = znormalize(TimeSeries(a * x + b)).samples
            assert np.max(np.abs(out - base)) < 1e-9

    def test_negation(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=30)
        pos = znormalize(TimeSeries(x)).samples
        neg = znormalize(TimeSeries(-x)).samples
        assert np.max(np.abs(neg + pos)) < 1e-12
