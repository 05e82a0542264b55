"""Whitelists, loan contracts and the one cluster topology.

Lyra implements loaning with a *whitelist API* (§6): each scheduler owns a
whitelist of servers under its control, and the resource orchestrator moves
server ids between whitelists.  :class:`Cluster` is one whitelist plus its
servers.  :class:`ClusterPair` is the topology every run has: one training
whitelist (whose servers are tagged with M >= 1 home regions) borrowing from
N >= 1 lender whitelists, with the loan/return primitive and the book of
open :class:`LoanContract` s.  Lyra's pair is the 1x1 case, built as
``ClusterPair(training, inference)``; :func:`ClusterSet` builds the same
class from lists of regions and lenders, putting several lenders behind a
read-only :class:`FederatedCluster`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.gpu import GPUType, T4, V100
from repro.cluster.server import Server


class Cluster:
    """A set of GPU servers under one scheduler's control (a whitelist)."""

    #: memo of :attr:`total_gpus`, reset by every membership change (a
    #: server's size never changes) and never pickled
    _total_gpus: Optional[int] = None

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
        self._total_gpus = None
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
        self._total_gpus = None
        if self._delta_sink is not None:
            server._on_change = None
            self._delta_sink.server_removed(server)
        return server

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_total_gpus", None)
        return state

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
    def members(self) -> List["Cluster"]:
        """The real whitelists behind this one: itself, unless it is a
        union (:class:`FederatedCluster`)."""
        return [self]

    @property
    def servers(self) -> List[Server]:
        """All servers, in stable (insertion) order."""
        return list(self._servers.values())

    @property
    def on_loan_servers(self) -> List[Server]:
        return [s for s in self._servers.values() if s.on_loan]

    @property
    def total_gpus(self) -> int:
        if self._total_gpus is None:
            self._total_gpus = sum(s.num_gpus for s in self._servers.values())
        return self._total_gpus

    @property
    def free_gpus(self) -> int:
        return sum(s.free_gpus for s in self._servers.values())

    @property
    def used_gpus(self) -> int:
        return sum(s.used_gpus for s in self._servers.values())


class FederatedCluster(Cluster):
    """The lender side of N > 1 lenders: their whitelists as a read-only
    union.

    Everything a :class:`ClusterPair` consumer reads off the inference
    side — membership, lookups, capacity sums, the loanable scan — spans
    all members (in member order, insertion order within each).  Removal
    routes to the owning member; insertion raises, because "the union" is
    not a place a server can live — returns go to the member named by the
    server's ``home_cluster``.
    """

    def __init__(self, name: str, members: Sequence[Cluster]):
        if not members:
            raise ValueError("a federated cluster needs at least one member")
        self.name = name
        self._members: List[Cluster] = list(members)
        seen = set()
        for member in self._members:
            if member.name in seen:
                raise ValueError(f"duplicate member cluster {member.name!r}")
            seen.add(member.name)

    @property
    def members(self) -> List[Cluster]:
        return self._members

    def owner_of(self, server_id: str) -> Cluster:
        for member in self.members:
            if server_id in member:
                return member
        raise KeyError(f"server {server_id!r} is in no member of {self.name!r}")

    def add_server(self, server: Server) -> None:
        raise TypeError(
            f"cannot add {server.server_id!r} to the federated "
            f"{self.name!r} whitelist: a union has no insertion point — "
            f"route the server to its home member "
            f"({server.home_cluster!r}) instead"
        )

    def remove_server(self, server_id: str) -> Server:
        return self.owner_of(server_id).remove_server(server_id)

    def __contains__(self, server_id: str) -> bool:
        return any(server_id in member for member in self.members)

    def __len__(self) -> int:
        return sum(len(member) for member in self.members)

    def get(self, server_id: str) -> Server:
        return self.owner_of(server_id).get(server_id)

    @property
    def servers(self) -> List[Server]:
        return [s for member in self.members for s in member.servers]

    @property
    def total_gpus(self) -> int:
        return sum(member.total_gpus for member in self.members)

    @property
    def free_gpus(self) -> int:
        return sum(member.free_gpus for member in self.members)

    @property
    def used_gpus(self) -> int:
        return sum(member.used_gpus for member in self.members)


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


HOUR = 3600.0


@dataclass(frozen=True)
class ContractTerms:
    """Topology-wide default terms for new loan contracts.

    Attributes:
        min_duration: Seconds a loan should run before a recall is
            penalty-free; whitelist churn is not free in production
            (draining, re-imaging, scheduler resync), so the market
            discourages flash loans.
        recall_penalty: Cost units accrued when a server is recalled
            before ``min_duration`` elapsed.
    """

    min_duration: float = 2 * HOUR
    recall_penalty: float = 1.0

    def __post_init__(self) -> None:
        if self.min_duration < 0:
            raise ValueError(
                f"min_duration must be >= 0, got {self.min_duration}"
            )
        if self.recall_penalty < 0:
            raise ValueError(
                f"recall_penalty must be >= 0, got {self.recall_penalty}"
            )


@dataclass(frozen=True)
class LoanContract:
    """One open loan: a server moved from ``lender`` (an inference
    whitelist) to ``borrower`` (a training region).  Opened by
    :meth:`ClusterPair.loan_ids`, settled by
    :meth:`ClusterPair.return_server`."""

    server_id: str
    lender: str
    borrower: str
    start: float
    min_duration: float = 2 * HOUR
    recall_penalty: float = 1.0

    def mature(self, now: float) -> bool:
        """Whether recalling at ``now`` is penalty-free."""
        return now - self.start >= self.min_duration

    def penalty_at(self, now: float) -> float:
        """The recall penalty due if the loan ends at ``now``."""
        return 0.0 if self.mature(now) else self.recall_penalty


class ClusterPair:
    """One training whitelist borrowing from N >= 1 lender whitelists.

    The inference schedulers autonomously decide *how many* servers to
    lend or ask back (§4 assumptions); this class provides the mechanism:
    :meth:`loan_ids` moves named idle inference servers into the training
    whitelist and :meth:`return_server` moves a vacated on-loan server
    back to the whitelist it came from.  Every loan is a
    :class:`LoanContract` in :attr:`contracts` until it is returned.

    Args:
        training: The single training scheduler's whitelist (one training
            scheduler owns all training hardware, §6).  Its M regions are
            encoded in each server's ``home_cluster`` tag.
        inference: The lender side: one whitelist, or a read-only union
            of several (its ``members`` are the real whitelists).
        training_region_names: The M region names; defaults to the one
            region named after ``training``.
        transfer_costs: ``{(lender, borrower): cost}`` the loan matching
            minimizes; missing pairs cost ``default_transfer_cost``.
        terms: Default :class:`ContractTerms` for new loans.
    """

    def __init__(
        self,
        training: Cluster,
        inference: Cluster,
        training_region_names: Optional[Sequence[str]] = None,
        transfer_costs: Optional[Dict[Tuple[str, str], float]] = None,
        default_transfer_cost: float = 1.0,
        terms: Optional[ContractTerms] = None,
    ):
        self.training = training
        self.inference = inference
        self.inference_members: List[Cluster] = inference.members
        self.training_region_names: Tuple[str, ...] = tuple(
            training_region_names or (training.name,)
        )
        self.transfer_costs: Dict[Tuple[str, str], float] = dict(
            transfer_costs or {}
        )
        self.default_transfer_cost = default_transfer_cost
        self.terms = terms if terms is not None else ContractTerms()
        #: open loan contracts by server id
        self.contracts: Dict[str, LoanContract] = {}
        #: settled-contract accounting
        self.contracts_opened = 0
        self.recalls = 0
        self.early_recalls = 0
        self.penalties_accrued = 0.0
        self.transfer_cost_paid = 0.0
        self.lenders_used: set = set()

    # ------------------------------------------------------------------
    # topology
    # ------------------------------------------------------------------
    @property
    def market_active(self) -> bool:
        """More than one cluster on either side.

        Read by exactly two decisions, each of which would cost or move
        a 1x1 run for nothing: placement's locality oracle and the
        reclaim planner's contract-aware candidate preference.
        """
        return (
            len(self.inference_members) > 1
            or len(self.training_region_names) > 1
        )

    def clusters(self):
        """Every real whitelist, training first."""
        yield self.training
        yield from self.inference_members

    def home_cluster_of(self, server: Server) -> Cluster:
        """The whitelist ``server`` physically belongs to (returns there)."""
        home = server.home_cluster
        if home in self.training_region_names:
            return self.training
        for member in self.inference_members:
            if member.name == home:
                return member
        raise KeyError(
            f"server {server.server_id!r} is homed in {home!r}, which "
            f"names no member cluster of this topology"
        )

    def region_of(self, server: Server) -> Optional[str]:
        """The region a server's capacity currently serves.

        Dedicated training servers serve their home region; an on-loan
        server serves the borrower region of its contract.  Placement
        uses this for same-region elastic growth.
        """
        if server.on_loan:
            return self.contracts[server.server_id].borrower
        return server.home_cluster

    def transfer_cost(self, lender: str, borrower: str) -> float:
        return self.transfer_costs.get(
            (lender, borrower), self.default_transfer_cost
        )

    def training_region_free_gpus(self) -> Dict[str, int]:
        """Free dedicated GPUs per training region (borrower pressure)."""
        free: Dict[str, int] = {
            name: 0 for name in self.training_region_names
        }
        for server in self.training.servers:
            if not server.on_loan and server.home_cluster in free:
                free[server.home_cluster] += server.free_gpus
        return free

    def outstanding_by_lender(self) -> Dict[str, int]:
        """Open loans per lender (every lender listed, zeros included)."""
        counts: Dict[str, int] = {
            member.name: 0 for member in self.inference_members
        }
        for contract in self.contracts.values():
            counts[contract.lender] += 1
        return counts

    @property
    def loaned_count(self) -> int:
        return len(self.training.on_loan_servers)

    def loanable_servers(self) -> List[Server]:
        """Idle inference servers eligible for loaning."""
        return [s for s in self.inference.servers if s.idle]

    # ------------------------------------------------------------------
    # loan/return
    # ------------------------------------------------------------------
    def loan_ids(
        self,
        server_ids: Sequence[str],
        borrower: Optional[str] = None,
        now: float = 0.0,
    ) -> List[Server]:
        """Loan the *named* idle inference servers, in the given order.

        The orchestrator picks the ids when planning (via
        :meth:`~repro.rm.manager.ResourceManager.peek_loanable`, in
        whitelist insertion order) and the executor moves exactly those
        at commit.  One contract opens per server, at ``now``, against
        ``borrower`` (default: the first training region).
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
        if borrower is None:
            borrower = self.training_region_names[0]
        moved: List[Server] = []
        for server_id in server_ids:
            server = self.inference.get(server_id)
            self.inference.remove_server(server_id)
            server.on_loan = True
            self.training.add_server(server)
            moved.append(server)
            lender = server.home_cluster
            self.contracts[server_id] = LoanContract(
                server_id=server_id,
                lender=lender,
                borrower=borrower,
                start=now,
                min_duration=self.terms.min_duration,
                recall_penalty=self.terms.recall_penalty,
            )
            self.contracts_opened += 1
            self.lenders_used.add(lender)
            self.transfer_cost_paid += self.transfer_cost(lender, borrower)
        return moved

    def return_server(self, server_id: str, now: float = 0.0) -> Server:
        """Return one vacated on-loan server to its home whitelist and
        settle its contract (an early recall accrues the penalty)."""
        server = self.training.get(server_id)
        if not server.on_loan:
            raise ValueError(f"server {server_id!r} is not on loan")
        home = self.home_cluster_of(server)
        penalty = self.contracts[server_id].penalty_at(now)
        self.training.remove_server(server_id)
        server.on_loan = False
        server.group = None
        home.add_server(server)
        del self.contracts[server_id]
        self.recalls += 1
        if penalty:
            self.early_recalls += 1
            self.penalties_accrued += penalty
        return server

    # ------------------------------------------------------------------
    def market_snapshot(self) -> Dict[str, object]:
        """Cumulative loan accounting, for CLI/benchmark reporting."""
        return {
            "inference_clusters": [m.name for m in self.inference_members],
            "training_regions": list(self.training_region_names),
            "contracts_open": len(self.contracts),
            "contracts_opened": self.contracts_opened,
            "recalls": self.recalls,
            "early_recalls": self.early_recalls,
            "penalties_accrued": round(self.penalties_accrued, 4),
            "transfer_cost_paid": round(self.transfer_cost_paid, 4),
            "lenders_used": sorted(self.lenders_used),
            "outstanding_by_lender": self.outstanding_by_lender(),
        }


def ClusterSet(
    training_regions: Sequence[Cluster],
    inference_clusters: Sequence[Cluster],
    **market,
) -> ClusterPair:
    """Build the topology from M training regions and N lender clusters.

    A single region or lender is used as it is — ``ClusterSet([t], [i])``
    is ``ClusterPair(t, i)``.  Several regions are merged into one
    training whitelist (each server keeps its region of origin in
    ``home_cluster``; placement uses the tags for locality, the training
    scheduler itself is region-blind); several lenders sit behind a
    :class:`FederatedCluster`.  ``market`` is :class:`ClusterPair`'s
    ``transfer_costs`` / ``default_transfer_cost`` / ``terms``.
    """
    training_regions = list(training_regions)
    inference_clusters = list(inference_clusters)
    if not training_regions or not inference_clusters:
        raise ValueError("the market needs >= 1 cluster on each side")
    region_names = tuple(c.name for c in training_regions)
    if len(set(region_names)) != len(region_names):
        raise ValueError("duplicate training region names")
    if len(training_regions) == 1:
        training = training_regions[0]
    else:
        training = Cluster(
            "training",
            [s for region in training_regions for s in region.servers],
        )
    if len(inference_clusters) == 1:
        inference = inference_clusters[0]
    else:
        inference = FederatedCluster("inference", inference_clusters)
    return ClusterPair(
        training, inference, training_region_names=region_names, **market
    )
