"""Cluster and whitelist-based capacity loaning.

Lyra implements loaning with a *whitelist API* (§6): each scheduler owns a
whitelist of servers under its control, and the resource orchestrator moves
server ids between whitelists.  :class:`Cluster` is one whitelist plus its
servers; :class:`ClusterPair` wires a training cluster and an inference
cluster together and implements the loan/return primitive.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.cluster.gpu import GPUType, T4, V100
from repro.cluster.server import Server


class Cluster:
    """A set of GPU servers under one scheduler's control (a whitelist)."""

    def __init__(self, name: str, servers: Iterable[Server] = ()):
        self.name = name
        self._servers: Dict[str, Server] = {}
        #: the scheduling view consuming this whitelist's deltas; only a
        #: kernel's training whitelist has one
        self._delta_sink = None
        for server in servers:
            self.add_server(server)

    # ------------------------------------------------------------------
    # whitelist maintenance
    # ------------------------------------------------------------------
    def attach_view(self, view) -> None:
        """Wire a ClusterView to receive every membership/booking delta.

        Existing members get their change hook pointed at the view; the
        view itself is expected to have indexed current state already
        (its constructor rebuilds before attaching).
        """
        self._delta_sink = view
        for server in self._servers.values():
            server._on_change = view.server_changed

    def add_server(self, server: Server) -> None:
        if server.server_id in self._servers:
            raise ValueError(f"duplicate server id {server.server_id!r}")
        self._servers[server.server_id] = server
        if self._delta_sink is not None:
            server._on_change = self._delta_sink.server_changed
            self._delta_sink.server_added(server)

    def remove_server(self, server_id: str) -> Server:
        """Drop a server from the whitelist.

        Lyra's orchestrator only removes a server after the scheduler
        confirms it hosts no running workers (§6), which we enforce.
        """
        server = self._servers.get(server_id)
        if server is None:
            raise KeyError(f"server {server_id!r} not in cluster {self.name!r}")
        if server.allocations:
            raise RuntimeError(
                f"server {server_id!r} still hosts jobs "
                f"{sorted(server.allocations)}; vacate before removal"
            )
        del self._servers[server_id]
        if self._delta_sink is not None:
            server._on_change = None
            self._delta_sink.server_removed(server)
        return server

    def __contains__(self, server_id: str) -> bool:
        return server_id in self._servers

    def __len__(self) -> int:
        return len(self._servers)

    def get(self, server_id: str) -> Server:
        return self._servers[server_id]

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def servers(self) -> List[Server]:
        """All servers, in stable (insertion) order."""
        return list(self._servers.values())

    @property
    def on_loan_servers(self) -> List[Server]:
        return [s for s in self._servers.values() if s.on_loan]

    @property
    def dedicated_servers(self) -> List[Server]:
        return [s for s in self._servers.values() if not s.on_loan]

    @property
    def total_gpus(self) -> int:
        return sum(s.num_gpus for s in self._servers.values())

    @property
    def free_gpus(self) -> int:
        return sum(s.free_gpus for s in self._servers.values())

    @property
    def used_gpus(self) -> int:
        return sum(s.used_gpus for s in self._servers.values())

    @property
    def normalized_capacity(self) -> float:
        """Total capacity in training-GPU equivalents (§5.2)."""
        return sum(s.normalized_gpus for s in self._servers.values())

    def utilization(self) -> float:
        """Fraction of GPUs currently allocated."""
        total = self.total_gpus
        return self.used_gpus / total if total else 0.0

    def release_job(self, job_id: int) -> int:
        """Release every GPU held by ``job_id`` anywhere in the cluster."""
        freed = 0
        for server in self._servers.values():
            freed += server.release(job_id)
        return freed


def make_training_cluster(
    num_servers: int,
    gpus_per_server: int = 8,
    gpu_type: GPUType = V100,
    name: str = "training",
    id_prefix: str = "train",
) -> Cluster:
    """Build a homogeneous dedicated training cluster.

    ``name``/``id_prefix`` let the capacity market build several named
    training regions; the defaults reproduce the single-pair cluster.
    """
    servers = [
        Server(
            server_id=f"{id_prefix}-{i:04d}",
            gpu_type=gpu_type,
            num_gpus=gpus_per_server,
            home_cluster=name,
        )
        for i in range(num_servers)
    ]
    return Cluster(name, servers)


def make_inference_cluster(
    num_servers: int,
    gpus_per_server: int = 8,
    gpu_type: GPUType = T4,
    name: str = "inference",
    id_prefix: str = "infer",
) -> Cluster:
    """Build a homogeneous inference cluster.

    ``name``/``id_prefix`` let the capacity market build several named
    lender clusters; the defaults reproduce the single-pair cluster.
    """
    servers = [
        Server(
            server_id=f"{id_prefix}-{i:04d}",
            gpu_type=gpu_type,
            num_gpus=gpus_per_server,
            home_cluster=name,
        )
        for i in range(num_servers)
    ]
    return Cluster(name, servers)


class ClusterPair:
    """A training cluster plus an inference cluster with capacity loaning.

    The inference scheduler autonomously decides *how many* servers to
    lend or ask back (§4 assumptions); this class provides the mechanism:
    :meth:`loan_ids` moves named idle inference servers into the training
    whitelist and :meth:`return_server` moves a vacated on-loan server
    back.
    """

    def __init__(self, training: Cluster, inference: Cluster):
        self.training = training
        self.inference = inference

    def clusters(self):
        """Every whitelist this pair manages, training first.

        The resource manager's server lookup and book audits iterate
        this instead of hardcoding ``(training, inference)``, so a
        multi-cluster :class:`~repro.market.ClusterSet` can expose its
        member whitelists through the same interface.
        """
        yield self.training
        yield self.inference

    def home_cluster_of(self, server: Server) -> Cluster:
        """The whitelist ``server`` physically belongs to (returns there).

        The pair has exactly two whitelists, so anything not homed on
        the training side is an inference server; a multi-cluster set
        overrides this to route by member-cluster name.
        """
        if server.home_cluster == self.training.name:
            return self.training
        return self.inference

    @property
    def loaned_count(self) -> int:
        return len(self.training.on_loan_servers)

    def loanable_servers(self) -> List[Server]:
        """Idle inference servers eligible for loaning."""
        return [s for s in self.inference.servers if s.idle]

    def loan_ids(self, server_ids: Sequence[str]) -> List[Server]:
        """Loan the *named* idle inference servers, in the given order.

        The orchestrator picks the ids when planning (via
        :meth:`~repro.rm.manager.ResourceManager.peek_loanable`, in
        whitelist insertion order) and the executor moves exactly those
        at commit.
        """
        # Validate every id before moving any: a bad id mid-list must
        # not leave the whitelists half-mutated (the executor treats
        # this as all-or-nothing, like every other plan action).
        for server_id in server_ids:
            if server_id not in self.inference:
                raise ValueError(
                    f"server {server_id!r} is not in the inference whitelist"
                )
            if not self.inference.get(server_id).idle:
                raise ValueError(
                    f"server {server_id!r} is busy; only idle servers "
                    f"can be loaned"
                )
        moved: List[Server] = []
        for server_id in server_ids:
            server = self.inference.get(server_id)
            self.inference.remove_server(server_id)
            server.on_loan = True
            self.training.add_server(server)
            moved.append(server)
        return moved

    def return_server(self, server_id: str) -> Server:
        """Return one vacated on-loan server to its home whitelist.

        Routing consults ``server.home_cluster`` (via
        :meth:`home_cluster_of`) rather than assuming a single lender —
        with several inference clusters in the loan pool, every server
        must go back to the whitelist it came from.
        """
        server = self.training.get(server_id)
        if not server.on_loan:
            raise ValueError(f"server {server_id!r} is not on loan")
        self.training.remove_server(server_id)
        server.on_loan = False
        server.group = None
        self.home_cluster_of(server).add_server(server)
        return server
