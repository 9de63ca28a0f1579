from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import signal as sps

from gaitview import preprocess
from gaitview.errors import GaitViewError
from gaitview.ingest import KEYPOINT_NAMES, MarkerFrame, MarkerSequence, PoseFrame, PoseSequence
from gaitview.preprocess import (
    FilterSpec,
    butterworth_coeffs,
    filtfilt_array,
    smooth,
)
from gaitview.signal_core import ViewLabel

SPEC = FilterSpec(7.0, 100.0, 4)  # the default cutoff and order on a 100 Hz file


def sine(freq_hz, fs=100.0, seconds=3.0, amp=1.0):
    t = np.arange(int(seconds * fs)) / fs
    return amp * np.sin(2 * np.pi * freq_hz * t)


def peak_lag(a, b):
    c = np.correlate(b - b.mean(), a - a.mean(), mode="full")
    return int(np.argmax(c) - (len(a) - 1))


class TestCoeffs:
    def test_dc_gain_unity(self):
        for cutoff, fs, order in [(7, 100, 4), (3, 60, 2), (10, 120, 8)]:
            b, a = butterworth_coeffs(FilterSpec(cutoff, fs, order))
            assert abs(b.sum() / a.sum() - 1.0) < 1e-12

    def test_half_power_at_cutoff(self):
        # single forward pass of the order-2 prototype: |H| = 1/sqrt(2) at cutoff
        spec = FilterSpec(7.0, 100.0, 4)
        b, a = butterworth_coeffs(spec)
        w = 2 * np.pi * spec.cutoff_hz / spec.sample_rate_hz
        z = np.exp(-1j * w)
        h = np.polyval(b[::-1], z) / np.polyval(a[::-1], z)
        assert abs(abs(h) - 1 / np.sqrt(2)) < 1e-6

    def test_cutoff_at_nyquist_rejected(self):
        with pytest.raises(GaitViewError,
                           match=r"^cutoff 60\.0 Hz at or above Nyquist \(50\.0 Hz\)$"):
            FilterSpec(cutoff_hz=60.0, sample_rate_hz=100.0, order=4)

    def test_odd_order_rejected(self):
        with pytest.raises(GaitViewError, match="^order must be even and >= 2, got 3$"):
            FilterSpec(7.0, 100.0, 3)

    @pytest.mark.parametrize("name, value", [
        ("cutoff_hz", np.nan), ("cutoff_hz", np.inf),
        ("sample_rate_hz", np.nan), ("sample_rate_hz", np.inf),
    ])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(GaitViewError, match=f"^{name} must be finite, got {value}$"):
            replace(SPEC, **{name: value})


class TestFiltfilt:
    def test_constant_preserved(self):
        ts = np.full(100, 5.0)
        out = filtfilt_array(ts, SPEC)
        assert np.max(np.abs(out - 5.0)) < 1e-9

    def test_passband_sine_zero_lag(self):
        ts = sine(2.0)
        out = filtfilt_array(ts, SPEC)
        assert len(out) == len(ts)
        assert peak_lag(ts, out) == 0
        ratio = np.max(np.abs(out)) / np.max(np.abs(ts))
        assert ratio > 0.98

    def test_stopband_sine_attenuated(self):
        ts = sine(30.0)
        out = filtfilt_array(ts, SPEC)
        # edge padding leaves a short transient; judge the steady-state interior
        ratio = np.max(np.abs(out[30:-30])) / np.max(np.abs(ts))
        assert ratio < 0.05

    def test_linearity(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=200)
        y = rng.normal(size=200)
        spec = SPEC
        a, b = 2.5, -1.25
        combined = filtfilt_array(a * x + b * y, spec)
        separate = a * filtfilt_array(x, spec) + b * filtfilt_array(y, spec)
        assert np.max(np.abs(combined - separate)) < 1e-9

    def test_time_reversal_symmetry(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=150)
        spec = SPEC
        fwd = filtfilt_array(x[::-1], spec)
        rev = filtfilt_array(x, spec)[::-1]
        # edge transients differ slightly; interior must agree
        assert np.max(np.abs(fwd[40:-40] - rev[40:-40])) < 1e-6

    def test_zero_phase_property_sweep(self):
        # any pure sinusoid below cutoff/2 keeps its phase
        for freq in (0.5, 1.0, 2.0, 3.0):
            ts = sine(freq, seconds=4.0)
            out = filtfilt_array(ts, SPEC)
            assert peak_lag(ts, out) == 0

    def test_too_short(self):
        with pytest.raises(GaitViewError, match="^signal length 10 must exceed padding length 15$"):
            filtfilt_array(np.arange(10.0), SPEC)


@st.composite
def filter_specs(draw):
    """Valid specs: even net orders 2-8, rates 30-250 Hz, cutoffs spread over
    the open band between 0 and Nyquist."""
    rate = draw(st.floats(30.0, 250.0))
    fraction = draw(st.floats(1e-3, 1 - 1e-3))
    return FilterSpec(fraction * rate / 2, rate, draw(st.sampled_from([2, 4, 6, 8])))


@st.composite
def tracks(draw, spec):
    """A 1-D, 2-D or 3-D array of pad_len + 1 samples or more, whose
    odd-extended length n + 2 * pad_len is at most 400 and is often drawn at
    the edges of the filter's 64-sample product blocks; scaled by 1e-3 to
    1e3: white noise, or a random walk like a coordinate track."""
    extended = draw(st.sampled_from([63, 64, 65, 127, 128, 129]) | st.integers(0, 400))
    n = max(extended - 2 * spec.pad_len, spec.pad_len + 1)
    trailing = draw(st.lists(st.integers(1, 6), max_size=2))  # []: one 1-D track
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((n, *trailing))
    if draw(st.booleans()):
        values = values.cumsum(axis=0)
    return values * 10.0 ** draw(st.floats(-3.0, 3.0))


class TestScipyOracle:
    """The numpy design and filter perform scipy's operations in scipy's
    order, so they must equal it bit for bit, not just closely."""

    @settings(max_examples=200, deadline=None)
    @given(filter_specs())
    def test_coeffs_equal_butter(self, spec):
        b, a = butterworth_coeffs(spec)
        b_ref, a_ref = sps.butter(spec.order // 2, spec.cutoff_hz, btype="low",
                                  fs=spec.sample_rate_hz)
        assert b.dtype == b_ref.dtype and a.dtype == a_ref.dtype
        assert np.array_equal(b, b_ref) and np.array_equal(a, a_ref)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_filtfilt_equals_scipy(self, data):
        spec = data.draw(filter_specs())
        values = data.draw(tracks(spec))
        b, a = sps.butter(spec.order // 2, spec.cutoff_hz, btype="low",
                          fs=spec.sample_rate_hz)
        expected = sps.filtfilt(b, a, values, axis=0, padtype="odd", padlen=spec.pad_len)
        before = values.tobytes()
        out = filtfilt_array(values, spec)
        assert out.shape == expected.shape
        assert np.array_equal(out, expected)
        assert values.tobytes() == before  # the passes run in place on a padded copy


def per_track_reference(seq, spec):
    """The former smoothing loop: one sps.filtfilt call per complete track."""
    b, a = sps.butter(spec.order // 2, spec.cutoff_hz, btype="low", fs=spec.sample_rate_hz)
    pose = isinstance(seq, PoseSequence)
    attr = "keypoints" if pose else "markers"
    frames = [replace(fr, **{attr: dict(getattr(fr, attr))}) for fr in seq.frames]
    names = sorted({name for fr in seq.frames for name in getattr(fr, attr)})
    for name in names:
        if not all(name in getattr(fr, attr) for fr in seq.frames):
            continue
        track = np.array([getattr(fr, attr)[name][: 2 if pose else 3] for fr in seq.frames])
        smoothed = sps.filtfilt(b, a, track, axis=0, padtype="odd", padlen=spec.pad_len)
        for fr, old, row in zip(frames, seq.frames, smoothed):
            rest = getattr(old, attr)[name][2:] if pose else ()
            getattr(fr, attr)[name] = tuple(float(v) for v in row) + rest
    return PoseSequence(seq.view, frames) if pose else MarkerSequence(frames)


def random_pose(rng, n=60):
    frames = []
    for i in range(n):
        kps = {name: (float(rng.normal(300, 50)), float(rng.normal(200, 50)),
                      float(rng.uniform(0.3, 1.0)))
               for name in KEYPOINT_NAMES}
        if i == 7:
            del kps["nose"]  # an incomplete track passes through unfiltered
        frames.append(PoseFrame(i, i / 100, kps))
    return PoseSequence(ViewLabel.LATERAL, frames)


def random_markers(rng, n=60):
    names = ("head", "left_ankle", "pelvis", "right_ankle")
    return MarkerSequence([
        MarkerFrame(i, i / 100, {name: tuple(float(v) for v in rng.normal(0, 500, 3))
                                 for name in names})
        for i in range(n)
    ])


class TestSmoothing:
    @pytest.mark.parametrize("make", [random_pose, random_markers])
    def test_equals_per_track_loop_with_one_design(self, make, monkeypatch):
        seq = make(np.random.default_rng(3))
        spec = FilterSpec(6.0, 100.0, 4)
        expected = per_track_reference(seq, spec)
        designs = []

        def counting(s):
            designs.append(s)
            return butterworth_coeffs(s)

        monkeypatch.setattr(preprocess, "butterworth_coeffs", counting)
        out = smooth([seq], [spec])[0]
        assert out == expected
        assert designs == [spec]


@st.composite
def mixed_sequences(draw):
    """1-4 pose or marker sequences sharing a few lengths and one or two
    specs of one order (files of one trial at two rates); some have no
    points, and some tracks miss a frame."""
    spec = draw(filter_specs())
    specs = [spec, *draw(st.lists(filter_specs().map(lambda other: replace(
        spec, sample_rate_hz=max(other.sample_rate_hz, 2.5 * spec.cutoff_hz))), max_size=1))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lengths = [spec.pad_len + 1 + extra for extra in draw(
        st.lists(st.sampled_from([0, 7, 40]), min_size=1, max_size=3))]
    seqs, seq_specs = [], []
    for _ in range(draw(st.integers(1, 4))):
        seq_specs.append(draw(st.sampled_from(specs)))
        n = draw(st.sampled_from(lengths))
        pose = draw(st.booleans())
        names = (sorted(draw(st.sets(st.sampled_from(KEYPOINT_NAMES), max_size=5))) if pose
                 else [f"m{k}" for k in range(draw(st.integers(0, 4)))])
        values = rng.normal(0, 300, (n, len(names), 3)).cumsum(axis=0)
        if pose:
            values[..., 2] = rng.uniform(0, 1, (n, len(names)))
        for k in draw(st.sets(st.integers(0, max(len(names) - 1, 0)), max_size=2)):
            if k < len(names):
                values[draw(st.integers(0, n - 1)), k] = np.nan  # an incomplete track
        arrays = dict(frame_index=np.arange(n), times=np.arange(n) / 100, names=names,
                      values=values)
        seqs.append(PoseSequence(ViewLabel.FRONTAL, **arrays) if pose
                    else MarkerSequence(**arrays))
    return seq_specs, seqs


class TestSmoothTogether:
    @settings(max_examples=150, deadline=None)
    @given(mixed_sequences())
    def test_equals_each_sequence_alone_with_one_design_per_length(self, case):
        specs, seqs = case
        before = [seq.values.tobytes() for seq in seqs]
        designs = []

        def counting(s):
            designs.append(s)
            return butterworth_coeffs(s)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(preprocess, "butterworth_coeffs", counting)
            together = smooth(seqs, specs)
        assert [seq.values.tobytes() for seq in seqs] == before  # the inputs are not filtered
        # one design per (length, spec), in the order they first appear
        groups = dict.fromkeys((len(seq), spec) for seq, spec in zip(seqs, specs)
                               if seq.complete.any())
        assert designs == [spec for _, spec in groups]
        assert len(together) == len(seqs)
        for seq, spec, out in zip(seqs, specs, together):
            alone = smooth([seq], [spec])[0]
            assert type(out) is type(seq) and out.names == seq.names
            assert out.values.tobytes() == alone.values.tobytes()
            untouched = ~seq.complete
            assert np.array_equal(out.values[:, untouched], seq.values[:, untouched],
                                  equal_nan=True)
            assert np.array_equal(out.values[..., seq.dims:], seq.values[..., seq.dims:],
                                  equal_nan=True)
