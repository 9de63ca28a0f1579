"""Zero-phase Butterworth low-pass filtering for gait coordinate tracks.

The net filter order is even: an order/2 design is applied forward and
backward, which doubles the attenuation and cancels phase. analyze's
defaults (7 Hz cutoff, net order 4) follow standard gait-lab practice
(Winter's zero-lag 4th-order Butterworth), at each file's own sample rate.

The design and the filter are numpy ports of scipy.signal.butter and
scipy.signal.filtfilt with odd padding, where each pass starts from the
steady-state step response (lfilter_zi; on initial states in
forward-backward filtering see Gustafsson 1996). They perform scipy's
floating-point operations in scipy's order, so their results equal scipy's
bit for bit; the tests hold scipy as the oracle. zpk2tf's step, zeros and
poles to polynomial coefficients, is np.poly. Filtering never imports
scipy.

smooth filters the sequences of a trial together, each at its own spec:
the complete tracks of sequences of one length and one spec become the
columns of one filtfilt_array call, with one design. Columns never
interact, so each value equals that of filtering its sequence alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GaitViewError

_LFILTER_BLOCK = 64  # samples whose b[i]*x products _lfilter holds at once


def check_setting(cutoff_hz: float, order: int) -> None:
    """Reject a cutoff or a net order that no sample rate makes valid."""
    if not math.isfinite(cutoff_hz):
        raise GaitViewError(f"cutoff_hz must be finite, got {cutoff_hz}")
    if cutoff_hz <= 0:
        raise GaitViewError(f"cutoff_hz must be positive, got {cutoff_hz}")
    if order < 2 or order % 2 != 0:
        raise GaitViewError(f"order must be even and >= 2, got {order}")


@dataclass(frozen=True)
class FilterSpec:
    cutoff_hz: float
    sample_rate_hz: float
    order: int  # net order; design order is order // 2

    def __post_init__(self):
        check_setting(self.cutoff_hz, self.order)
        if not math.isfinite(self.sample_rate_hz):
            raise GaitViewError(f"sample_rate_hz must be finite, got {self.sample_rate_hz}")
        if self.cutoff_hz >= self.sample_rate_hz / 2:  # a rate <= 0 too: the cutoff is > 0
            raise GaitViewError(f"cutoff {self.cutoff_hz} Hz at or above Nyquist "
                                f"({self.sample_rate_hz / 2} Hz)")

    @property
    def pad_len(self) -> int:
        return 3 * (self.order + 1)

    def check_length(self, n: int) -> None:
        """Reject a signal of n samples, too short for filtfilt_array's padding."""
        if n <= self.pad_len:
            raise GaitViewError(f"signal length {n} must exceed padding length {self.pad_len}")


def butterworth_coeffs(spec: FilterSpec) -> tuple[np.ndarray, np.ndarray]:
    """Discrete low-pass coefficients (b, a) for a single forward pass.

    Bilinear transform with frequency pre-warping of an analog Butterworth
    prototype of order spec.order / 2; DC gain is exactly 1. The steps and
    their order are those of scipy.signal.butter's low-pass 'ba' path:
    buttap, tan pre-warp at fs = 2, lp2lp_zpk, bilinear_zpk, zpk2tf.
    """
    order = spec.order // 2
    # analog prototype: poles on the left unit half-circle, no zeros, gain 1
    m = np.arange(-order + 1, order, 2, dtype=np.float64)
    poles = -np.exp(1j * np.pi * m / (2 * order))  # odd orders: m = 0 gives a real pole
    zeros = np.array([], dtype=np.float64)
    # pre-warp the normalised cutoff for a digital design at fs = 2
    wn = np.asarray(spec.cutoff_hz, dtype=np.float64) / (float(spec.sample_rate_hz) / 2)
    fs = 2.0
    warped = float(2 * fs * np.tan(np.pi * wn / fs))
    # low-pass to low-pass: scale radially to the warped cutoff
    zeros, poles, gain = warped * zeros, warped * poles, 1.0 * warped**order
    # bilinear transform; the zeros at infinity move to Nyquist (z = -1)
    fs2 = 2.0 * fs
    zeros_z = np.concatenate(((fs2 + zeros) / (fs2 - zeros), -np.ones(order)))
    poles_z = (fs2 + poles) / (fs2 - poles)
    gain = gain * np.real(np.prod(fs2 - zeros) / np.prod(fs2 - poles))
    return gain * np.poly(zeros_z), np.poly(poles_z)


def filtfilt_array(values: np.ndarray, spec: FilterSpec) -> np.ndarray:
    """Apply the filter forward and backward along axis 0 (zero phase
    distortion); used on coordinate tracks.

    Every track along axis 0 is filtered in the same pass. The edges are
    odd extensions of pad_len = 3 * (order + 1) samples, stripped from the
    output, and each pass starts from the steady-state response to its
    first sample (lfilter_zi), as in
    scipy.signal.filtfilt(b, a, values, axis=0, padtype="odd", padlen=pad_len).
    The odd-extended block is the one array allocated: both passes filter
    it in place, the backward pass through its reversed view.
    """
    values = np.asarray(values, dtype=np.float64)
    n, pad = values.shape[0], spec.pad_len
    spec.check_length(n)
    x = values.reshape(n, -1)
    ext = np.empty((n + 2 * pad, x.shape[1]))
    ext[:pad] = 2 * x[:1] - x[pad:0:-1]
    ext[pad:-pad] = x
    ext[-pad:] = 2 * x[-1:] - x[-2:-(pad + 2):-1]
    b, a = butterworth_coeffs(spec)
    zi = _steady_state(b, a)[:, None]
    for y in (ext, ext[::-1]):
        _lfilter(b, a, y, zi * y[:1])
    return ext[pad:-pad].reshape(values.shape)


def _steady_state(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Filter state after a unit step has settled (scipy.signal.lfilter_zi):
    solves zi = A zi + B for the transposed direct form II (a[0] == 1)."""
    companion = np.zeros((len(a) - 1, len(a) - 1))
    companion[0] = -a[1:] / (1.0 * a[0])
    companion[np.arange(1, len(a) - 1), np.arange(len(a) - 2)] = 1
    return np.linalg.solve(np.eye(len(a) - 1) - companion.T, b[1:] - a[1:] * b[0])


def _lfilter(b: np.ndarray, a: np.ndarray, x: np.ndarray, zi: np.ndarray) -> None:
    """Filter x (samples, columns) in place along axis 0: transposed direct
    form II from the state zi (len(a) - 1, columns), with a[0] == 1.

    Per sample this is scipy's lfilter loop, column by column:
    y = z[0] + b[0]*x; z[i] = (z[i+1] + x*b[i+1]) - y*a[i+1]; the last state
    has no z[i+1], which the trailing -0.0 of the state (x + -0.0 == x for
    every x) supplies without changing a bit. One add of the state to every
    b[i]*x gives y (row 0) and the sums carried into the new state. The
    products are taken for _LFILTER_BLOCK samples at a time, before those
    samples are overwritten by y.
    """
    state = np.concatenate((zi, np.full((1, x.shape[1]), -0.0)))
    lower, a_rest = state[:-1], a[1:, None]
    fed_back = np.empty_like(lower)
    products = np.empty((_LFILTER_BLOCK, len(b), x.shape[1]))
    for start in range(0, len(x), _LFILTER_BLOCK):
        block = x[start:start + _LFILTER_BLOCK]
        sums = np.multiply(b[:, None], block[:, None, :], out=products[:len(block)])
        for sums_k, y_k, carried_k in zip(sums, sums[:, 0], sums[:, 1:]):
            np.add(state, sums_k, out=sums_k)
            np.multiply(y_k, a_rest, out=fed_back)
            np.subtract(carried_k, fed_back, out=lower)
        block[...] = sums[:, 0]


def smooth(seqs, specs) -> list:
    """Zero-phase filter the coordinate tracks of each sequence at its spec in
    specs: x/y of each keypoint (confidences untouched), x/y/z of each marker.

    Tracks not present in every frame pass through unchanged (run fill_gaps
    first). Sequences of one length and one spec are filtered together:
    their tracks are copied, sequence by sequence, into the columns of one
    (frames, columns) block for one filtfilt_array call, so each
    (length, spec) costs one filter design, and each sequence's columns are
    written back into a copy of its values. Columns never interact, so every
    value equals that of filtering the sequence alone. Returns new sequences
    in the order given; the input values are not changed. A sequence with
    tracks no longer than its spec's pad_len raises GaitViewError.
    """
    where = [(slice(None), seq.complete, slice(seq.dims)) for seq in seqs]
    widths = [np.count_nonzero(at[1]) * seq.dims for seq, at in zip(seqs, where)]
    groups: dict[tuple[int, FilterSpec], list[int]] = {}
    for i, (seq, spec) in enumerate(zip(seqs, specs)):
        if widths[i]:
            groups.setdefault((len(seq), spec), []).append(i)
    out = [seq.values.copy() for seq in seqs]
    for (n, spec), members in groups.items():
        ends = np.cumsum([widths[i] for i in members]).tolist()
        block = np.empty((n, ends[-1]))
        for i, end in zip(members, ends):
            block[:, end - widths[i]:end] = seqs[i].values[where[i]].reshape(n, -1)
        filtered = filtfilt_array(block, spec)
        for i, end in zip(members, ends):
            out[i][where[i]] = filtered[:, end - widths[i]:end].reshape(n, -1, seqs[i].dims)
    return [seq.with_values(values) for seq, values in zip(seqs, out)]
