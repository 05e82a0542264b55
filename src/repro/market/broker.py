"""The capacity broker: the orchestrator, under its market name.

Clearing N lenders × M borrower regions is
:class:`~repro.core.orchestrator.ResourceOrchestrator`'s one rule — the
pair is its 1×1 case — so nothing is decided here.  The name stays
because ``build_sim(..., market=...)`` constructs it and the end-to-end
benchmark resolves ``CapacityBroker.plan_tick`` (inherited) to time
market ticks as their own ``market`` span.
"""

from repro.core.orchestrator import ResourceOrchestrator


class CapacityBroker(ResourceOrchestrator):
    """A :class:`ResourceOrchestrator`; holds no clearing logic."""
