"""magrev: rotation-speed estimation from magnetic side-channel recordings.

The package covers the full chain: synthesizing sensor-array captures of
rotating machinery, spectral denoising and delay-and-sum enhancement,
harmonic detection (quantile threshold or a trainable spectrum-parsing
network), fuzzy-logic speed estimation, and a benchmark harness with
reference baselines.  The package namespace holds the estimation entry
points; everything else is imported from its module (see the README's
module map).
"""

from .estimator import (
    PipelineConfig,
    PipelineError,
    SpeedEstimate,
    detect_harmonics,
    estimate_rpm,
    estimate_rpm_multi,
)

__version__ = "0.1.0"

__all__ = [
    "PipelineConfig",
    "PipelineError",
    "SpeedEstimate",
    "detect_harmonics",
    "estimate_rpm",
    "estimate_rpm_multi",
]
