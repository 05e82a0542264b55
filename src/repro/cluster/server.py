"""GPU server model.

The basic unit of capacity loaning is a physical server (§3): inference and
training never share one machine, so no extra isolation mechanism is needed.
Each server tracks which jobs occupy how many of its GPUs; a worker always
fits entirely on one server.  The book's total is kept as an integer
(``used_gpus``) by its only two writers, :meth:`Server.allocate` and
:meth:`Server.release`, so capacity reads never re-sum the book;
``ResourceManager.verify_books`` recounts it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.cluster.gpu import GPUType

#: Server-group tags used by Lyra's placement of elastic jobs (§5.3):
#: flexible (elastic-surplus) workers go to FLEX_GROUP on-loan servers so
#: reclaiming can vacate that group first without preempting anyone.
BASE_GROUP = "base"
FLEX_GROUP = "flex"


@dataclass
class Server:
    """A physical GPU server.

    Attributes:
        server_id: Unique id, e.g. ``"train-0012"``.
        gpu_type: Hardware installed in this server.
        num_gpus: GPU count (8 in the paper's clusters).
        home_cluster: Name of the cluster the server physically belongs
            to and returns to after reclaiming — ``"training"`` or
            ``"inference"`` in the single-pair setup, or any member
            cluster/region name in a multi-cluster capacity market.
        on_loan: True while an inference server is whitelisted to the
            training scheduler.
        group: On-loan server group (:data:`BASE_GROUP` or
            :data:`FLEX_GROUP`) assigned by the placement engine; None for
            dedicated training servers.
    """

    server_id: str
    gpu_type: GPUType
    num_gpus: int = 8
    home_cluster: str = "training"
    on_loan: bool = False
    group: Optional[str] = None
    #: relative throughput of workers hosted here (1.0 = nominal; fault
    #: injection lowers it while the server straggles)
    perf_factor: float = 1.0
    #: GPUs occupied per job id; a server starts empty, and allocate /
    #: release are its only writers
    allocations: Dict[int, int] = field(default_factory=dict, init=False)
    #: change hook wired by :meth:`Cluster.attach_view`; fired after every
    #: successful allocate/release so the ClusterView stays delta-current
    _on_change: Optional[Callable[["Server"], None]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        #: derived: the sum of ``allocations``, kept by its two writers
        #: and left out of pickles (restore recounts it)
        self.used_gpus = 0
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if not self.home_cluster or not isinstance(self.home_cluster, str):
            raise ValueError(
                f"home_cluster must be a non-empty cluster name, "
                f"got {self.home_cluster!r}"
            )

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["used_gpus"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.used_gpus = sum(state["allocations"].values())

    # ------------------------------------------------------------------
    # capacity
    # ------------------------------------------------------------------
    @property
    def free_gpus(self) -> int:
        return self.num_gpus - self.used_gpus

    @property
    def idle(self) -> bool:
        return not self.allocations

    @property
    def job_count(self) -> int:
        return len(self.allocations)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def allocate(self, job_id: int, gpus: int) -> None:
        """Reserve ``gpus`` GPUs for ``job_id``.

        Raises:
            ValueError: if the server lacks free GPUs.
        """
        if gpus <= 0:
            raise ValueError(f"gpus must be positive, got {gpus}")
        if gpus > self.free_gpus:
            raise ValueError(
                f"server {self.server_id}: requested {gpus} GPUs but only "
                f"{self.free_gpus} free"
            )
        self.allocations[job_id] = self.allocations.get(job_id, 0) + gpus
        self.used_gpus += gpus
        if self._on_change is not None:
            self._on_change(self)

    def release(self, job_id: int, gpus: Optional[int] = None) -> int:
        """Free GPUs held by ``job_id`` (all of them when ``gpus`` is None).

        Returns the number of GPUs actually released.  Releasing a job
        that holds nothing here is a no-op returning 0, so callers can
        blanket-release across candidate servers.
        """
        held = self.allocations.get(job_id, 0)
        if held == 0:
            return 0
        if gpus is None or gpus >= held:
            del self.allocations[job_id]
            self.used_gpus -= held
            if self._on_change is not None:
                self._on_change(self)
            return held
        if gpus <= 0:
            raise ValueError(f"gpus must be positive, got {gpus}")
        self.allocations[job_id] = held - gpus
        self.used_gpus -= gpus
        if self._on_change is not None:
            self._on_change(self)
        return gpus

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tag = " on-loan" if self.on_loan else ""
        return (
            f"Server({self.server_id}, {self.gpu_type.name}, "
            f"{self.used_gpus}/{self.num_gpus} used{tag})"
        )
