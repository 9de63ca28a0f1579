import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitview.dimred import (
    FeatureMatrix,
    pca_fit,
    pca_matrix,
)
from gaitview.errors import GaitViewError
from gaitview.ingest import KEYPOINT_NAMES, MarkerFrame, MarkerSequence, PoseFrame, PoseSequence
from gaitview.signal_core import ViewLabel

from oracles import pca_reference


def rank2_matrix(n=60, cols=5, seed=0):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=(n, 2))
    v = rng.normal(size=(2, cols))
    return FeatureMatrix(u @ v)


class TestFeatureMatrix:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros(5))
        with pytest.raises(ValueError):
            FeatureMatrix(np.zeros((1, 5)))
        with pytest.raises(ValueError):
            FeatureMatrix(np.array([[1.0, np.nan]] * 2))


class TestPcaFit:
    def test_rank2_needs_two_components(self):
        res = pca_fit(rank2_matrix(), threshold=0.95)
        assert res.k == 2
        assert res.explained_ratio > 1.0 - 1e-9

    def test_equal_variance_needs_all(self):
        # 4 orthogonal directions with identical variance: 0.95 needs all 4
        h = np.array([
            [1, 1, 1, 1],
            [1, -1, 1, -1],
            [1, 1, -1, -1],
            [1, -1, -1, 1],
        ], dtype=float)
        data = np.vstack([h, -h] * 10)
        res = pca_fit(FeatureMatrix(data), threshold=0.95)
        assert res.k == 4
        # exact cumulative hits: 3 components explain exactly 0.75
        res3 = pca_fit(FeatureMatrix(data), threshold=0.75)
        assert res3.k == 3

    def test_threshold_one_keeps_rank(self):
        res = pca_fit(rank2_matrix(), threshold=1.0)
        assert res.k == 2  # rank-deficient spectrum: two nonzero values

    def test_deterministic(self):
        values = np.random.default_rng(2).normal(size=(30, 8))
        r1 = pca_fit(FeatureMatrix(values.copy()))  # a fit centers its matrix in place
        r2 = pca_fit(FeatureMatrix(values.copy()))
        assert r1.k == r2.k

    @pytest.mark.parametrize("seed, shape, scale", [
        (10, (40, 6), 1.0), (11, (25, 9), 100.0), (12, (60, 4), 1e-3), (13, (8, 12), 1.0),
    ])
    def test_k_and_ratio_match_covariance_eigenvalues(self, seed, shape, scale):
        # columns of unequal spread, so the spectrum is uneven
        rng = np.random.default_rng(seed)
        values = rng.normal(size=shape) * np.geomspace(1.0, 0.05, shape[1]) * scale
        eig = np.clip(np.linalg.eigvalsh(np.cov(values, rowvar=False))[::-1], 0.0, None)
        cumulative = np.cumsum(eig) / eig.sum()
        for threshold in (0.2, 0.5, 0.9, 0.95, 0.99):
            res = pca_fit(FeatureMatrix(values.copy()), threshold)
            k = int(np.argmax(cumulative >= threshold - 1e-12)) + 1
            assert res.k == k
            assert res.explained_ratio == pytest.approx(cumulative[k - 1], rel=1e-9)

    def test_constant_matrix_rejected(self):
        with pytest.raises(GaitViewError, match="^all-constant matrix has no variance$"):
            pca_fit(FeatureMatrix(np.full((5, 3), 2.0)))

    def test_bad_threshold(self):
        with pytest.raises(ValueError):
            pca_fit(rank2_matrix(), threshold=0.0)
        with pytest.raises(ValueError):
            pca_fit(rank2_matrix(), threshold=1.5)


@st.composite
def matrices(draw):
    """2-400 rows and 1-40 columns of uneven spread, scaled by 1e-3..1e4,
    some columns constant (every column, at times)."""
    rows, cols = draw(st.integers(2, 400)), draw(st.integers(1, 40))
    scale = 10.0 ** draw(st.floats(-3.0, 4.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.normal(size=(rows, cols)) * np.geomspace(1.0, 0.01, cols) * scale
    constant = sorted(draw(st.sets(st.integers(0, cols - 1), max_size=cols)))
    x[:, constant] = rng.normal(size=len(constant)) * scale
    return x


class TestOneCopyFit:
    @given(x=matrices(), threshold=st.one_of(st.sampled_from([0.95, 1.0]), st.floats(0.01, 1.0)))
    @settings(max_examples=80, deadline=None)
    def test_equals_out_of_place_reference(self, x, threshold):
        expected = pca_reference(x, threshold)
        m = FeatureMatrix(x.copy())
        if expected is None:
            with pytest.raises(GaitViewError):
                pca_fit(m, threshold)
        else:
            res = pca_fit(m, threshold)
            assert res.k == expected[0]
            assert res.explained_ratio == expected[1]
        assert m.values.tobytes() == (x - x.mean(axis=0)).tobytes()  # centered in place

    def test_read_only_array_is_copied_not_centered(self):
        x = np.random.default_rng(3).normal(size=(20, 4))
        read_only = x.copy()
        read_only.flags.writeable = False
        assert pca_fit(FeatureMatrix(read_only)) == pca_fit(FeatureMatrix(x.copy()))
        assert np.array_equal(read_only, x)

    def test_fit_holds_under_a_quarter_matrix(self):
        # traced: the column means and singular values (LAPACK's working copy
        # is not numpy's); U made it one matrix, a centered copy two
        m = FeatureMatrix(np.random.default_rng(7).normal(size=(3000, 39)))
        gc.collect()
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            pca_fit(m)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert 0 < peak < 0.25 * m.values.nbytes, peak / m.values.nbytes


class TestStacking:
    def test_pose_matrix_layout(self):
        rng = np.random.default_rng(9)
        frames = []
        for i in range(3):
            kps = {name: (float(rng.normal()), float(rng.normal()), 1.0)
                   for name in KEYPOINT_NAMES}
            frames.append(PoseFrame(i, i / 100.0, kps))
        m = pca_matrix(PoseSequence(ViewLabel.FRONTAL, frames), KEYPOINT_NAMES)
        assert m.shape == (3, 34)
        # x, y of each keypoint in KEYPOINT_NAMES order
        assert m[1, :2].tolist() == list(frames[1].keypoints[KEYPOINT_NAMES[0]][:2])

    def test_pose_matrix_missing_keypoint(self):
        frames = [PoseFrame(0, 0.0, {"nose": (1.0, 2.0, 1.0)})]
        with pytest.raises(ValueError):
            pca_matrix(PoseSequence(ViewLabel.FRONTAL, frames), KEYPOINT_NAMES)

    def test_marker_matrix_sorted_columns(self):
        frames = [
            MarkerFrame(i, i / 100.0, {"b_mark": (1.0, 2.0, 3.0), "a_mark": (4.0, 5.0, 6.0)})
            for i in range(2)
        ]
        seq = MarkerSequence(frames)
        m = pca_matrix(seq, seq.names)
        assert m.shape == (2, 6)
        assert m[0].tolist() == [4.0, 5.0, 6.0, 1.0, 2.0, 3.0]  # a_mark's x, y, z first

    def test_marker_matrix_named_columns(self):
        # pooled PCA passes the first file's markers
        frames = [
            MarkerFrame(i, i / 100.0, {"b_mark": (1.0, 2.0, 3.0), "a_mark": (4.0, 5.0, 6.0)})
            for i in range(2)
        ]
        assert pca_matrix(MarkerSequence(frames), ["b_mark"]).tolist() == [[1.0, 2.0, 3.0]] * 2
        with pytest.raises(ValueError):
            pca_matrix(MarkerSequence(frames), ["c_mark"])

    def test_marker_matrix_empty(self):
        with pytest.raises(ValueError):  # no rows and no complete marker
            FeatureMatrix(pca_matrix(MarkerSequence([]), []))
