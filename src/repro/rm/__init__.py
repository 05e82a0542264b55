"""Resource-manager substrate: containers, whitelists, node failures."""

from repro.rm.containers import Container, ContainerState
from repro.rm.manager import NodeFailureReport, ResourceManager

__all__ = [
    "Container",
    "ContainerState",
    "NodeFailureReport",
    "ResourceManager",
]
