"""Multi-cluster capacity markets: specs, config files and the setup builder.

N inference clusters in different time zones lend whitelist capacity to
M training regions.  There is no market-only topology or clearing rule:
every run is a :class:`~repro.cluster.cluster.ClusterPair` (built here
by :func:`~repro.cluster.cluster.ClusterSet`) cleared by
:class:`~repro.core.orchestrator.ResourceOrchestrator`, and Lyra's pair
is the 1×1 market.  This module holds only what describes a market.

A market run is an ordinary :class:`~repro.scenarios.ExperimentSetup`
whose hardware is split across regions.  The split is described by a
:class:`MarketConfig`, obtained either from a compact ``"NxM"`` spec
(N inference lenders staggered across time zones, M training regions) or
from a JSON file for full control over names, sizes, transfer costs and
contract terms::

    {
      "inference": [{"name": "infer-eu", "servers": 24, "peak_hour": 20},
                    {"name": "infer-us", "servers": 24, "peak_hour": 4}],
      "training":  [{"name": "train-eu", "servers": 20},
                    {"name": "train-us", "servers": 20}],
      "transfer_costs": {"infer-eu->train-us": 2.0},
      "default_transfer_cost": 1.0,
      "min_duration": 7200.0,
      "recall_penalty": 1.0
    }

``servers`` may be omitted (or 0) to split the setup's cluster sizes
evenly across the regions, so the same workload runs on the same total
hardware whether it is one pair or a 3×2 market.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.cluster import (
    Cluster,
    ClusterPair,
    ClusterSet,
    ContractTerms,
    make_inference_cluster,
    make_training_cluster,
)
from repro.traces.inference import (
    DAY,
    SAMPLE_INTERVAL,
    InferenceTrace,
    generate_inference_trace,
)

_SPEC_RE = re.compile(r"^(\d+)x(\d+)$")

#: hours between consecutive auto-generated lenders' diurnal peaks —
#: roughly one continent apart, so their loanable troughs interleave
_TIMEZONE_STRIDE_HOURS = 8.0


@dataclass(frozen=True)
class RegionSpec:
    """One region's slice of a market side.

    ``servers=0`` means "an even share of the setup's total"; the
    remainder of an uneven split goes to the earlier regions.
    """

    name: str
    servers: int = 0
    peak_hour: float = 22.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region name must be non-empty")
        if self.servers < 0:
            raise ValueError(
                f"servers must be >= 0, got {self.servers} for {self.name!r}"
            )


@dataclass(frozen=True)
class MarketConfig:
    """The declarative shape of a capacity market."""

    inference: Tuple[RegionSpec, ...]
    training: Tuple[RegionSpec, ...]
    transfer_costs: Tuple[Tuple[str, str, float], ...] = ()
    default_transfer_cost: float = 1.0
    terms: ContractTerms = field(default_factory=ContractTerms)

    def __post_init__(self) -> None:
        if not self.inference or not self.training:
            raise ValueError("a market needs >= 1 region on each side")

    def transfer_cost_map(self) -> Dict[Tuple[str, str], float]:
        return {
            (lender, borrower): cost
            for lender, borrower, cost in self.transfer_costs
        }


def market_config_from_spec(spec: str) -> MarketConfig:
    """``"NxM"`` -> N lenders in staggered time zones, M training regions.

    Lender ``infer-r{i}`` peaks at ``(22 - 8*i) mod 24`` local hours so
    supply troughs interleave — when one region's inference traffic
    peaks (and it recalls its loans), another is in its trough (and has
    spare capacity), which is the condition under which a market beats N
    independent pairs.
    """
    match = _SPEC_RE.match(spec.strip())
    if not match:
        raise ValueError(
            f"bad market spec {spec!r}: expected 'NxM' "
            f"(N inference clusters x M training regions), e.g. '2x2'"
        )
    n, m = int(match.group(1)), int(match.group(2))
    if n < 1 or m < 1:
        raise ValueError(f"bad market spec {spec!r}: both sides need >= 1")
    inference = tuple(
        RegionSpec(
            name=f"infer-r{i}",
            peak_hour=(22.0 - _TIMEZONE_STRIDE_HOURS * i) % 24.0,
        )
        for i in range(n)
    )
    training = tuple(RegionSpec(name=f"train-r{j}") for j in range(m))
    return MarketConfig(inference=inference, training=training)


def market_config_from_file(path: str) -> MarketConfig:
    """Load a :class:`MarketConfig` from a JSON file (schema above)."""
    with open(path) as fh:
        raw = json.load(fh)
    def regions(key: str) -> Tuple[RegionSpec, ...]:
        entries = raw.get(key) or []
        return tuple(
            RegionSpec(
                name=e["name"],
                servers=int(e.get("servers", 0) or 0),
                peak_hour=float(e.get("peak_hour", 22.0)),
            )
            for e in entries
        )
    costs: List[Tuple[str, str, float]] = []
    for key, cost in (raw.get("transfer_costs") or {}).items():
        lender, sep, borrower = key.partition("->")
        if not sep or not lender or not borrower:
            raise ValueError(
                f"bad transfer_costs key {key!r}: expected 'lender->borrower'"
            )
        costs.append((lender, borrower, float(cost)))
    return MarketConfig(
        inference=regions("inference"),
        training=regions("training"),
        transfer_costs=tuple(costs),
        default_transfer_cost=float(raw.get("default_transfer_cost", 1.0)),
        terms=ContractTerms(
            min_duration=float(
                raw.get("min_duration", ContractTerms().min_duration)
            ),
            recall_penalty=float(
                raw.get("recall_penalty", ContractTerms().recall_penalty)
            ),
        ),
    )


def resolve_market(spec: Optional[str]) -> Optional[MarketConfig]:
    """CLI front door: ``None``, an ``"NxM"`` spec, or a JSON path."""
    if spec is None:
        return None
    if _SPEC_RE.match(spec.strip()):
        return market_config_from_spec(spec)
    if spec.endswith(".json"):
        return market_config_from_file(spec)
    raise ValueError(
        f"bad --clusters value {spec!r}: expected 'NxM' or a .json config path"
    )


# ----------------------------------------------------------------------
# building the topology
# ----------------------------------------------------------------------
@dataclass
class MarketBuild:
    """Everything :func:`~repro.scenarios.build_sim` needs to swap a
    market in for the plain pair."""

    pair: ClusterPair
    lender_traces: Dict[str, InferenceTrace]
    aggregate_trace: InferenceTrace


def _split(total: int, specs: Tuple[RegionSpec, ...]) -> List[int]:
    """Resolve per-region server counts; even split for ``servers=0``."""
    explicit = [s.servers for s in specs]
    if any(explicit):
        if not all(explicit):
            raise ValueError(
                "either give every region an explicit server count or none"
            )
        return explicit
    n = len(specs)
    base, remainder = divmod(total, n)
    counts = [base + (1 if i < remainder else 0) for i in range(n)]
    if any(c <= 0 for c in counts):
        raise ValueError(
            f"cannot split {total} servers across {n} regions: "
            f"every region needs at least one server"
        )
    return counts


def build_market_setup(
    setup: "ExperimentSetup", config: MarketConfig, seed: int = 0
) -> MarketBuild:
    """Split an experiment setup's hardware into the configured market.

    The total server counts (and the GPU shape) come from ``setup``, so
    a market run is load-comparable with the pair run it generalizes.
    Each lender gets its own diurnal trace, phase-shifted per its
    ``peak_hour``; the per-sample mean of those series (weighted by
    lender size) becomes the aggregate trace the simulator samples for
    overall-usage accounting.
    """
    days = (
        len(setup.inference_trace.utilization) * SAMPLE_INTERVAL / DAY
    )
    inference_counts = _split(setup.inference_servers, config.inference)
    training_counts = _split(setup.training_servers, config.training)

    inference_clusters: List[Cluster] = []
    lender_traces: Dict[str, InferenceTrace] = {}
    for i, (spec, count) in enumerate(zip(config.inference, inference_counts)):
        inference_clusters.append(
            make_inference_cluster(
                count,
                setup.gpus_per_server,
                name=spec.name,
                id_prefix=spec.name,
            )
        )
        lender_traces[spec.name] = generate_inference_trace(
            days=days,
            num_servers=count,
            seed=seed + i,
            peak_hour=spec.peak_hour,
        )

    training_clusters = [
        make_training_cluster(
            count,
            setup.gpus_per_server,
            name=spec.name,
            id_prefix=spec.name,
        )
        for spec, count in zip(config.training, training_counts)
    ]

    total = sum(inference_counts)
    weighted = np.zeros_like(next(iter(lender_traces.values())).utilization)
    for name in lender_traces:
        trace = lender_traces[name]
        weighted = weighted + trace.utilization * (trace.num_servers / total)
    aggregate = InferenceTrace(utilization=weighted, num_servers=total)

    pair = ClusterSet(
        training_regions=training_clusters,
        inference_clusters=inference_clusters,
        transfer_costs=config.transfer_cost_map(),
        default_transfer_cost=config.default_transfer_cost,
        terms=config.terms,
    )
    return MarketBuild(
        pair=pair, lender_traces=lender_traces, aggregate_trace=aggregate
    )
