"""PCA with an explained-variance threshold over flattened trial matrices.

pca_matrix flattens a pose or marker sequence into one row per frame of
the named points' coordinates; the caller names the points (the pipeline:
the 17 keypoints, or a mocap3d file's markers). Columns are
mean-centered but not variance-scaled (covariance PCA: coordinate features
share units within a source). pca_fit centers the matrix in place, so a
fit holds the matrix, LAPACK's copy of it and U, not a centered copy as
well. A fit reports how many components reach the threshold and the
variance ratio they explain, the two numbers pca_summary.csv holds; no
basis is kept.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GaitViewError

DEFAULT_VARIANCE_THRESHOLD = 0.95


def check_threshold(threshold: float) -> None:
    """Reject an explained-variance threshold outside (0, 1], nan included."""
    if not 0 < threshold <= 1:
        raise ValueError(f"pca_threshold must be in (0, 1], got {threshold}")


@dataclass
class FeatureMatrix:
    values: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if arr.shape[0] < 2 or arr.shape[1] < 1:
            raise ValueError(f"need >= 2 rows and >= 1 column, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature matrix contains non-finite entries")
        self.values = arr if arr.flags.writeable else arr.copy()  # pca_fit centers it in place


@dataclass(frozen=True)
class PcaResult:
    k: int
    explained_ratio: float


def pca_fit(m: FeatureMatrix, threshold: float = DEFAULT_VARIANCE_THRESHOLD) -> PcaResult:
    """Fit PCA; k is the smallest count whose cumulative variance ratio
    reaches the threshold.

    m.values is centered in place (the same subtraction as values - mean),
    so a FeatureMatrix is fitted once; a writeable float64 array it was
    made from shares its values and is centered too."""
    check_threshold(threshold)
    values = m.values
    values -= values.mean(axis=0)
    _, s, _ = np.linalg.svd(values, full_matrices=False)
    total = float(np.sum(s**2))
    if total == 0.0:
        raise GaitViewError("all-constant matrix has no variance")
    ratios = s**2 / total
    cumulative = np.cumsum(ratios)
    k = int(np.searchsorted(cumulative, threshold - 1e-12) + 1)
    k = min(k, s.size)
    return PcaResult(k=k, explained_ratio=float(cumulative[k - 1]))


def pca_matrix(seq, names) -> np.ndarray:
    """One sequence as a (frames, len(names) * dims) array: the coordinates
    of each named point, in the order given."""
    return seq.points(names).reshape(len(seq), seq.dims * len(names))
