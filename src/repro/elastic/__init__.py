"""Elastic-scaling substrate: training-throughput scaling models."""

from repro.elastic.throughput import (
    LINEAR,
    SUBLINEAR_20,
    ScalingModel,
    get_scaling_model,
)

__all__ = [
    "LINEAR",
    "SUBLINEAR_20",
    "ScalingModel",
    "get_scaling_model",
]
