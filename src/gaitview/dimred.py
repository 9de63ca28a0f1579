"""PCA with an explained-variance threshold over flattened trial matrices.

Columns are mean-centered but not variance-scaled (covariance PCA:
coordinate features share units within a source). Basis signs are fixed
so each component's largest-magnitude entry is positive, making results
bit-deterministic across runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMatrix, DimensionMismatch
from .ingest import KEYPOINT_NAMES

DEFAULT_VARIANCE_THRESHOLD = 0.95


@dataclass
class FeatureMatrix:
    values: np.ndarray
    column_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError("feature matrix must be 2-D")
        if arr.shape[0] < 2 or arr.shape[1] < 1:
            raise ValueError(f"need >= 2 rows and >= 1 column, got {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("feature matrix contains non-finite entries")
        self.values = arr
        if not self.column_labels:
            self.column_labels = [f"c{i + 1}" for i in range(arr.shape[1])]
        if len(self.column_labels) != arr.shape[1]:
            raise ValueError("column label count does not match column count")

    @property
    def n_cols(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PcaResult:
    k: int
    explained_ratio: float
    component_basis: np.ndarray  # (k, n_cols), orthonormal rows
    singular_values: np.ndarray  # full nonincreasing spectrum
    column_means: np.ndarray


def pca_fit(m: FeatureMatrix, threshold: float = DEFAULT_VARIANCE_THRESHOLD) -> PcaResult:
    """Fit PCA; k is the smallest count whose cumulative variance ratio
    reaches the threshold."""
    if not (0.0 < threshold <= 1.0):
        raise ValueError("threshold must be in (0, 1]")
    means = m.values.mean(axis=0)
    centered = m.values - means
    _, s, vt = np.linalg.svd(centered, full_matrices=False)
    total = float(np.sum(s**2))
    if total == 0.0:
        raise DegenerateMatrix("all-constant matrix has no variance")
    ratios = s**2 / total
    cumulative = np.cumsum(ratios)
    k = int(np.searchsorted(cumulative, threshold - 1e-12) + 1)
    k = min(k, s.size)
    basis = vt[:k].copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return PcaResult(
        k=k,
        explained_ratio=float(cumulative[k - 1]),
        component_basis=basis,
        singular_values=s.copy(),
        column_means=means.copy(),
    )


def pca_project(m: FeatureMatrix, result: PcaResult) -> FeatureMatrix:
    """Project centered data onto the retained components (pc1..pck columns)."""
    if m.n_cols != result.column_means.size:
        raise DimensionMismatch(
            f"matrix has {m.n_cols} columns, basis expects {result.column_means.size}"
        )
    projected = (m.values - result.column_means) @ result.component_basis.T
    labels = [f"pc{i + 1}" for i in range(result.k)]
    return FeatureMatrix(projected, labels)


def pca_reconstruct(projected: FeatureMatrix, result: PcaResult) -> FeatureMatrix:
    """Map component scores back to the original feature space."""
    if projected.n_cols != result.k:
        raise DimensionMismatch(
            f"projected matrix has {projected.n_cols} columns, expected k = {result.k}"
        )
    back = projected.values @ result.component_basis + result.column_means
    return FeatureMatrix(back)


def pose_matrix(sequences) -> FeatureMatrix:
    """Stack pose frames into an (frames, 17*2) matrix (x, y per keypoint)."""
    values = np.concatenate([seq.points(KEYPOINT_NAMES) for seq in sequences])
    labels = [f"{name}_{axis}" for name in KEYPOINT_NAMES for axis in ("x", "y")]
    return FeatureMatrix(values.reshape(len(values), len(labels)), labels)


def marker_matrix(sequences) -> FeatureMatrix:
    """Stack marker frames into an (frames, markers*3) matrix; the columns
    are the markers of the first sequence with frames, sorted by name."""
    sequences = list(sequences)
    first = next((seq for seq in sequences if len(seq)), None)
    if first is None:
        raise ValueError("no frames supplied")
    names = [name for name, whole in zip(first.names, first.complete) if whole]
    values = np.concatenate([seq.points(names) for seq in sequences])
    labels = [f"{name}_{axis}" for name in names for axis in ("x", "y", "z")]
    return FeatureMatrix(values.reshape(len(values), len(labels)), labels)
