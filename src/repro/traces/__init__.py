"""Synthetic traces standing in for the paper's production data."""

from repro.traces.bootstrap import bootstrap_trace, bootstrap_traces
from repro.traces.inference import (
    SAMPLE_INTERVAL,
    InferenceTrace,
    generate_inference_trace,
)
from repro.traces.io import load_workload, save_workload
from repro.traces.models import (
    ALL_FAMILIES,
    BERT,
    ELASTIC_FAMILIES,
    GENERIC,
    GNMT,
    RESNET,
    VGG,
    ModelFamily,
    fig3_series,
)
from repro.traces.workload import TraceConfig, Workload, generate_workload

__all__ = [
    "ALL_FAMILIES",
    "BERT",
    "ELASTIC_FAMILIES",
    "GENERIC",
    "GNMT",
    "InferenceTrace",
    "ModelFamily",
    "RESNET",
    "SAMPLE_INTERVAL",
    "TraceConfig",
    "VGG",
    "Workload",
    "bootstrap_trace",
    "bootstrap_traces",
    "fig3_series",
    "generate_inference_trace",
    "generate_workload",
    "load_workload",
    "save_workload",
]
