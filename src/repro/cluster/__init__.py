"""Cluster substrate: GPUs, servers, jobs, and whitelist-based loaning."""
