"""Multi-cluster capacity market (the Aryl direction, ROADMAP item 3).

N inference clusters in different time zones lend whitelist capacity to
M training regions.  There is no market-only topology or clearing rule:
every run is a :class:`~repro.cluster.cluster.ClusterPair` cleared by
:class:`~repro.core.orchestrator.ResourceOrchestrator`, and Lyra's pair
is the 1×1 market.  This package holds what only N > 1 or M > 1 needs —
the :class:`FederatedCluster` union, the :func:`ClusterSet` constructor,
``NxM`` specs / JSON configs and the setup builder that splits an
experiment's hardware — and re-exports the contract types.
"""

from repro.cluster.cluster import HOUR, ContractTerms, LoanContract
from repro.market.broker import CapacityBroker
from repro.market.cluster_set import ClusterSet, FederatedCluster
from repro.market.scenario import (
    MarketBuild,
    MarketConfig,
    RegionSpec,
    build_market_setup,
    market_config_from_file,
    market_config_from_spec,
    resolve_market,
)

__all__ = [
    "CapacityBroker",
    "ClusterSet",
    "FederatedCluster",
    "ContractTerms",
    "LoanContract",
    "HOUR",
    "MarketBuild",
    "MarketConfig",
    "RegionSpec",
    "build_market_setup",
    "market_config_from_file",
    "market_config_from_spec",
    "resolve_market",
]
