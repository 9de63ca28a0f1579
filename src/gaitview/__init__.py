"""gaitview: multi-metric comparison of 2D gait signals against 3D
motion-capture ground truth, with per-parameter camera-view recommendation."""

__version__ = "0.1.0"
