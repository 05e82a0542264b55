"""Resource-manager substrate: worker placement, whitelists, node failures."""

from repro.rm.manager import NodeFailureReport, ResourceManager

__all__ = [
    "NodeFailureReport",
    "ResourceManager",
]
