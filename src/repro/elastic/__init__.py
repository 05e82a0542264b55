"""Elastic-scaling substrate: training-throughput scaling models."""
