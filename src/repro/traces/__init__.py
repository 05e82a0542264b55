"""Synthetic traces standing in for the paper's production data."""
