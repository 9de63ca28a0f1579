"""gaitview: multi-metric comparison of 2D gait signals against 3D
motion-capture ground truth, with per-parameter camera-view recommendation."""

__version__ = "0.1.0"

from .signal_core import (  # noqa: F401
    SideLabel,
    TimeSeries,
    TrialId,
    ViewLabel,
    resample_linear,
    znormalize,
)
from .metrics import (  # noqa: F401
    MetricConfig,
    MetricRecord,
    dtw_distance,
    information_entropy,
    kl_divergence,
    max_cross_correlation,
)
from .features import FeatureName, GaitFeatureSet, extract_all  # noqa: F401
from .stats import (  # noqa: F401
    PairedSample,
    StatResult,
    cliffs_delta,
    compare_views,
    wilcoxon_signed_rank,
)
