"""N lender whitelists and M training regions as one :class:`ClusterPair`.

The topology class lives in :mod:`repro.cluster.cluster`; this module is
what only N > 1 or M > 1 needs:

* :class:`FederatedCluster` — the *inference* side of N > 1 lenders: N
  real member whitelists (one autonomous inference scheduler each)
  presented as a read-only union.  Capacity sums, membership tests and
  lookups all work, but nothing can be *inserted* into the union:
  returns route to the owning member via ``home_cluster``.
* :func:`ClusterSet` — the list-of-clusters constructor.  The *training*
  side stays a single scheduler whitelist (one training scheduler owns
  all training hardware, §6) whose M regions are encoded in each
  server's ``home_cluster`` tag — placement uses the tags for locality,
  the scheduler itself is region-blind.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.cluster.cluster import Cluster, ClusterPair
from repro.cluster.server import Server


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
        self._members: List[Cluster] = list(members)
        self._by_name: Dict[str, Cluster] = {}
        for member in self._members:
            if member.name in self._by_name:
                raise ValueError(f"duplicate member cluster {member.name!r}")
            self._by_name[member.name] = member

    # -- membership ----------------------------------------------------
    @property
    def members(self) -> List[Cluster]:
        return self._members

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
    def total_gpus(self) -> int:
        return sum(member.total_gpus for member in self.members)

    @property
    def free_gpus(self) -> int:
        return sum(member.free_gpus for member in self.members)

    @property
    def used_gpus(self) -> int:
        return sum(member.used_gpus for member in self.members)


def ClusterSet(
    training_regions: Sequence[Cluster],
    inference_clusters: Sequence[Cluster],
    **market,
) -> ClusterPair:
    """Build the topology from M training regions and N lender clusters.

    A single region or lender is used as it is — ``ClusterSet([t], [i])``
    is ``ClusterPair(t, i)``.  Several regions are merged into one
    training whitelist (each server keeps its region of origin in
    ``home_cluster``); several lenders sit behind a
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
