"""Cluster substrate: GPUs, servers, jobs, and whitelist-based loaning."""

from repro.cluster.cluster import (
    Cluster,
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.gpu import A100, GPUType, T4, V100
from repro.cluster.job import Job, JobSpec, JobStatus
from repro.cluster.server import BASE_GROUP, FLEX_GROUP, Server

__all__ = [
    "A100",
    "BASE_GROUP",
    "Cluster",
    "ClusterPair",
    "FLEX_GROUP",
    "GPUType",
    "Job",
    "JobSpec",
    "JobStatus",
    "Server",
    "T4",
    "V100",
    "make_inference_cluster",
    "make_training_cluster",
]
