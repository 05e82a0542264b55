"""N inference + M training clusters behind the ClusterPair interface.

Lyra wires exactly one inference cluster to one training cluster; the
market generalizes both sides while keeping every existing consumer of
:class:`~repro.cluster.cluster.ClusterPair` working unchanged:

* the *training* side stays a single scheduler whitelist (one training
  scheduler owns all training hardware, §6) whose M regions are encoded
  in each server's ``home_cluster`` tag — placement uses the tags for
  locality, the scheduler itself is region-blind;
* the *inference* side becomes N real member whitelists (one autonomous
  inference scheduler each) presented to pair consumers as a read-only
  union (:class:`FederatedCluster`) — capacity sums, membership tests
  and lookups all work, but nothing can be *inserted* into the union:
  returns must route to the owning member via ``home_cluster``, which is
  exactly the invariant the pre-fix ``return_server`` violated.

With one cluster per side the set degenerates to the plain pair: the
single members are used directly, no federation wrapper, no behavior
change — only inert contract bookkeeping rides along.  The golden-log
equivalence suite pins this.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster.cluster import Cluster, ClusterPair
from repro.cluster.server import Server
from repro.market.contracts import ContractTerms, LoanContract


class FederatedCluster(Cluster):
    """A read-only union view over several member whitelists.

    Everything a :class:`ClusterPair` consumer reads off the inference
    side — membership, lookups, capacity sums, the loanable scan — works
    across all members (in member order, insertion order within each).
    Mutations route to the owning member, except insertion:
    :meth:`add_server` raises, because "the union" is not a place a
    server can live — returns go to the member named by the server's
    ``home_cluster``.
    """

    def __init__(self, name: str, members: Sequence[Cluster]):
        if not members:
            raise ValueError("a federated cluster needs at least one member")
        self.name = name
        self.members: List[Cluster] = list(members)
        self._by_name: Dict[str, Cluster] = {}
        for member in self.members:
            if member.name in self._by_name:
                raise ValueError(f"duplicate member cluster {member.name!r}")
            self._by_name[member.name] = member

    # -- membership ----------------------------------------------------
    def member(self, name: str) -> Cluster:
        return self._by_name[name]

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

    def attach_view(self, view) -> None:
        for member in self.members:
            member.attach_view(view)

    def __contains__(self, server_id: str) -> bool:
        return any(server_id in member for member in self.members)

    def __len__(self) -> int:
        return sum(len(member) for member in self.members)

    def get(self, server_id: str) -> Server:
        return self.owner_of(server_id).get(server_id)

    # -- aggregate views ------------------------------------------------
    @property
    def servers(self) -> List[Server]:
        return [s for member in self.members for s in member.servers]

    @property
    def on_loan_servers(self) -> List[Server]:
        return [s for s in self.servers if s.on_loan]

    @property
    def dedicated_servers(self) -> List[Server]:
        return [s for s in self.servers if not s.on_loan]

    @property
    def total_gpus(self) -> int:
        return sum(member.total_gpus for member in self.members)

    @property
    def free_gpus(self) -> int:
        return sum(member.free_gpus for member in self.members)

    @property
    def used_gpus(self) -> int:
        return sum(member.used_gpus for member in self.members)

    @property
    def normalized_capacity(self) -> float:
        return sum(member.normalized_capacity for member in self.members)

    def release_job(self, job_id: int) -> int:
        return sum(member.release_job(job_id) for member in self.members)


class ClusterSet(ClusterPair):
    """A capacity market's cluster topology, shaped like a ClusterPair.

    Args:
        training_regions: M training clusters.  Their servers are merged
            into the single training scheduler whitelist; each keeps its
            region of origin in ``home_cluster`` (placement locality).
            With exactly one region, that cluster *is* the training
            whitelist, untouched.
        inference_clusters: N lender clusters.  With exactly one, it is
            used directly (degenerate pair); otherwise consumers see the
            :class:`FederatedCluster` union.
        transfer_costs: ``{(lender, borrower): cost}`` per-pair transfer
            costs the broker minimizes when matching loans; missing pairs
            cost ``default_transfer_cost``.
        terms: Default :class:`ContractTerms` for new loans.
    """

    def __init__(
        self,
        training_regions: Sequence[Cluster],
        inference_clusters: Sequence[Cluster],
        transfer_costs: Optional[Dict[Tuple[str, str], float]] = None,
        default_transfer_cost: float = 1.0,
        terms: Optional[ContractTerms] = None,
    ):
        training_regions = list(training_regions)
        inference_clusters = list(inference_clusters)
        if not training_regions or not inference_clusters:
            raise ValueError("the market needs >= 1 cluster on each side")
        self.training_region_names: Tuple[str, ...] = tuple(
            c.name for c in training_regions
        )
        if len(set(self.training_region_names)) != len(training_regions):
            raise ValueError("duplicate training region names")
        if len(training_regions) == 1:
            training = training_regions[0]
        else:
            training = Cluster(
                "training",
                [s for region in training_regions for s in region.servers],
            )
        self.inference_members: List[Cluster] = inference_clusters
        self._inference_by_name: Dict[str, Cluster] = {
            c.name: c for c in inference_clusters
        }
        if len(inference_clusters) == 1:
            inference: Cluster = inference_clusters[0]
        else:
            inference = FederatedCluster("inference", inference_clusters)
        super().__init__(training, inference)
        self.transfer_costs: Dict[Tuple[str, str], float] = dict(
            transfer_costs or {}
        )
        self.default_transfer_cost = default_transfer_cost
        self.terms = terms if terms is not None else ContractTerms()
        #: market time, advanced by the resource manager on every
        #: loan/return so contracts carry real timestamps
        self.clock: float = 0.0
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
        """More than one cluster on either side: market machinery live.

        In the degenerate 1×1 configuration everything market-specific
        (locality placement, broker clearing, contract-aware reclaim
        preferences) must stay inert so behavior is byte-identical to
        the plain pair.
        """
        return (
            len(self.inference_members) > 1
            or len(self.training_region_names) > 1
        )

    def clusters(self):
        yield self.training
        for member in self.inference_members:
            yield member

    def home_cluster_of(self, server: Server) -> Cluster:
        home = server.home_cluster
        if home == self.training.name or home in self.training_region_names:
            return self.training
        member = self._inference_by_name.get(home)
        if member is not None:
            return member
        if len(self.inference_members) == 1:
            # degenerate pair semantics: anything not training-homed is
            # the (single) inference cluster's
            return self.inference
        raise KeyError(
            f"server {server.server_id!r} is homed in {home!r}, which names "
            f"no member cluster of this market"
        )

    def region_of(self, server: Server) -> Optional[str]:
        """The region a server's capacity currently serves.

        Dedicated training servers serve their home region; an on-loan
        server serves the borrower region of its contract.  Placement
        uses this for same-region elastic growth.
        """
        if server.on_loan:
            contract = self.contracts.get(server.server_id)
            return contract.borrower if contract is not None else None
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
            if server.on_loan:
                continue
            if server.home_cluster in free:
                free[server.home_cluster] += server.free_gpus
        return free

    def outstanding_by_lender(self) -> Dict[str, int]:
        """Open loans per lender (every lender listed, zeros included)."""
        counts: Dict[str, int] = {
            member.name: 0 for member in self.inference_members
        }
        for contract in self.contracts.values():
            counts[contract.lender] = counts.get(contract.lender, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # loan/return with contracts
    # ------------------------------------------------------------------
    @property
    def default_borrower(self) -> str:
        return self.training_region_names[0]

    def _open_contracts(
        self, moved: Iterable[Server], borrower: Optional[str]
    ) -> None:
        to = borrower if borrower is not None else self.default_borrower
        for server in moved:
            lender = server.home_cluster
            self.contracts[server.server_id] = LoanContract(
                server_id=server.server_id,
                lender=lender,
                borrower=to,
                start=self.clock,
                min_duration=self.terms.min_duration,
                recall_penalty=self.terms.recall_penalty,
            )
            self.contracts_opened += 1
            self.lenders_used.add(lender)
            self.transfer_cost_paid += self.transfer_cost(lender, to)

    def loan_ids(self, server_ids, borrower=None):
        moved = super().loan_ids(server_ids)
        self._open_contracts(moved, borrower)
        return moved

    def return_server(self, server_id: str) -> Server:
        server = super().return_server(server_id)
        contract = self.contracts.pop(server_id, None)
        if contract is not None:
            self.recalls += 1
            penalty = contract.penalty_at(self.clock)
            if penalty:
                self.early_recalls += 1
                self.penalties_accrued += penalty
        return server

    # ------------------------------------------------------------------
    def market_snapshot(self) -> Dict[str, object]:
        """Cumulative market accounting, for CLI/benchmark reporting."""
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
