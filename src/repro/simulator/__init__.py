"""Discrete-event cluster simulator."""

from repro.simulator.engine import Engine
from repro.simulator.events import Activity, EventKind
from repro.simulator.metrics import (
    DistributionSummary,
    SimulationMetrics,
    TimeSeries,
    percentile,
    reduction,
)
from repro.simulator.simulation import Simulation, SimulationConfig

__all__ = [
    "Activity",
    "DistributionSummary",
    "Engine",
    "EventKind",
    "Simulation",
    "SimulationConfig",
    "SimulationMetrics",
    "TimeSeries",
    "percentile",
    "reduction",
]
