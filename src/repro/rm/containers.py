"""Worker containers, as a YARN/Kubernetes-style resource manager sees
them.

Lyra's prototype executes its decisions through an existing resource
manager that launches and tears down *worker containers* (§3, §6).  One
container corresponds to one training worker; it pins a fixed number of
GPUs on exactly one server.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class ContainerState(enum.Enum):
    """Lifecycle of a worker container."""

    RUNNING = "running"
    RELEASED = "released"  # orderly teardown (scale-in, completion)
    LOST = "lost"          # node failure took it down


@dataclass
class Container:
    """One worker container.

    Attributes:
        container_id: Unique id minted by the launching resource
            manager, whose counter is run state; 0 outside a manager.
        job_id: Owning training job.
        server_id: Host server (containers never span servers).
        gpus: Physical GPUs pinned on the host (includes the §5.2
            normalization surcharge on weaker hardware).
        flexible: True for elastic-surplus workers.
        start_time: Launch timestamp.
        end_time: Teardown timestamp, when no longer running.
        state: Current lifecycle state.
    """

    job_id: int
    server_id: str
    gpus: int
    flexible: bool = False
    start_time: float = 0.0
    end_time: Optional[float] = None
    state: ContainerState = ContainerState.RUNNING
    container_id: int = 0

    def __post_init__(self) -> None:
        if self.gpus < 1:
            raise ValueError(f"gpus must be >= 1, got {self.gpus}")

    @property
    def running(self) -> bool:
        return self.state is ContainerState.RUNNING

    def stop(self, now: float, lost: bool = False) -> None:
        """Tear the container down (idempotent)."""
        if not self.running:
            return
        self.state = ContainerState.LOST if lost else ContainerState.RELEASED
        self.end_time = now
