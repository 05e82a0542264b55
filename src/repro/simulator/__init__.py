"""Discrete-event cluster simulator."""
