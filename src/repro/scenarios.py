"""Evaluation scenarios and the one-call experiment runner (§7.1).

The paper evaluates four scenarios — Basic, Advanced, Heterogeneous and
Ideal — crossed with a set of schemes (Baseline FIFO, Lyra and its
loaning-only / scaling-only variants, Opportunistic, Random/SCF
reclaiming, Gandiva, AFS, Pollux, Lyra+TunedJobs).  This module provides:

* spec transforms implementing each scenario;
* parameter-sweep transforms (elastic fraction, heterogeneous fraction,
  checkpointing fraction) used by the sensitivity figures;
* :func:`run_scheme`, which wires a workload, cluster pair, policy,
  orchestrator and simulator together and returns the metrics — the
  single entry point used by every benchmark and example.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec
from repro.core.orchestrator import ResourceOrchestrator
from repro.obs import Observability
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.base import SchedulerPolicy
from repro.schedulers.fifo import (
    FIFOScheduler,
    OpportunisticScheduling,
    SJFScheduler,
)
from repro.schedulers.gandiva import GandivaScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.schedulers.pollux import PolluxScheduler
from repro.simulator.metrics import SimulationMetrics
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.traces.inference import InferenceTrace, generate_inference_trace
from repro.traces.workload import TraceConfig, Workload, generate_workload

SCENARIOS = ("basic", "advanced", "heterogeneous", "ideal")


@dataclass(frozen=True)
class Scheme:
    """How one evaluated scheme is wired (§7.1): which policy plans,
    whether a resource orchestrator loans capacity and with which
    reclaimer, and whether jobs scale elastically / arrive tuned."""

    policy: str
    loaning: bool = False
    reclaimer: str = "lyra"
    elastic: bool = False
    tuned: bool = False


SCHEMES: Dict[str, Scheme] = {
    "baseline": Scheme("fifo"),
    "sjf": Scheme("sjf"),
    "lyra": Scheme("lyra", loaning=True, elastic=True),
    # capacity-loaning-only group (elastic scaling disabled)
    "opportunistic": Scheme("opportunistic", loaning=True, reclaimer="random"),
    "random_loaning": Scheme("lyra", loaning=True, reclaimer="random"),
    "scf_loaning": Scheme("lyra", loaning=True, reclaimer="scf"),
    "lyra_loaning": Scheme("lyra", loaning=True),
    # elastic-scaling-only group (no loaning)
    "gandiva": Scheme("gandiva", elastic=True),
    "afs": Scheme("afs", elastic=True),
    "pollux": Scheme("pollux", elastic=True, tuned=True),
    "lyra_scaling": Scheme("lyra", elastic=True),
    "lyra_tuned": Scheme("lyra", elastic=True, tuned=True),
    # full system with tuning (used in §7.4 comparisons)
    "lyra_full_tuned": Scheme("lyra", loaning=True, elastic=True, tuned=True),
    # §10 future work: no running-time knowledge anywhere
    "lyra_agnostic": Scheme("lyra_agnostic", loaning=True, elastic=True),
    "lyra_agnostic_scaling": Scheme("lyra_agnostic", elastic=True),
}


# ----------------------------------------------------------------------
# spec transforms
# ----------------------------------------------------------------------
def _make_elastic(spec: JobSpec) -> JobSpec:
    """Ideal-scenario rule: requested demand becomes the base demand and
    the scaling range is twice that (§7.1), preserving total workload."""
    if spec.elastic:
        return spec
    return replace(
        spec,
        elastic=True,
        min_workers=spec.max_workers,
        max_workers=2 * spec.max_workers,
        duration=spec.duration / 2.0,
    )


def with_heterogeneous_fraction(
    specs: Sequence[JobSpec], fraction: float, seed: int = 0
) -> List[JobSpec]:
    """Mark a random ``fraction`` of jobs heterogeneous-capable."""
    rng = np.random.default_rng(seed)
    chosen = set(
        rng.choice(
            len(specs), size=int(round(fraction * len(specs))), replace=False
        ).tolist()
    )
    return [
        replace(s, heterogeneous=(i in chosen)) for i, s in enumerate(specs)
    ]


def with_checkpointing_fraction(
    specs: Sequence[JobSpec], fraction: float, seed: int = 0
) -> List[JobSpec]:
    """Enable checkpointing on a random ``fraction`` of jobs (Fig. 13)."""
    rng = np.random.default_rng(seed)
    chosen = set(
        rng.choice(
            len(specs), size=int(round(fraction * len(specs))), replace=False
        ).tolist()
    )
    return [
        replace(s, checkpointing=(i in chosen)) for i, s in enumerate(specs)
    ]


def with_elastic_fraction(
    specs: Sequence[JobSpec], fraction: float, seed: int = 0
) -> List[JobSpec]:
    """Make ``fraction`` of all jobs elastic (Figs. 14-16 sweeps).

    Already-elastic jobs count toward the target; additional jobs are
    converted with the requested-demand-becomes-base rule.
    """
    rng = np.random.default_rng(seed)
    specs = list(specs)
    target = int(round(fraction * len(specs)))
    elastic_idx = [i for i, s in enumerate(specs) if s.elastic]
    extra_needed = max(0, target - len(elastic_idx))
    candidates = [i for i, s in enumerate(specs) if not s.elastic]
    chosen = set(
        rng.choice(
            candidates, size=min(extra_needed, len(candidates)), replace=False
        ).tolist()
    )
    return [
        _make_elastic(replace(s, fungible=True)) if i in chosen else s
        for i, s in enumerate(specs)
    ]


def apply_scenario(
    specs: Sequence[JobSpec], scenario: str, seed: int = 0
) -> List[JobSpec]:
    """Transform a Basic-scenario trace into the requested scenario."""
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}; use one of {SCENARIOS}")
    specs = list(specs)
    if scenario == "basic":
        return specs
    if scenario == "advanced":
        # Basic + 10 % heterogeneous-capable jobs at <=70 % efficiency.
        return with_heterogeneous_fraction(specs, 0.10, seed)
    if scenario == "heterogeneous":
        # Fungible training load disabled; only the 10 % heterogeneous
        # jobs can touch on-loan servers (at non-ideal performance).
        specs = [replace(s, fungible=False) for s in specs]
        return with_heterogeneous_fraction(specs, 0.10, seed)
    # ideal: every job scales and runs heterogeneously at ideal speed.
    return [
        replace(_make_elastic(s), fungible=True, heterogeneous=True)
        for s in specs
    ]


# ----------------------------------------------------------------------
# experiment setup
# ----------------------------------------------------------------------
@dataclass
class ExperimentSetup:
    """A reusable bundle of workload, inference trace and cluster shape."""

    workload: Workload
    inference_trace: InferenceTrace
    training_servers: int
    inference_servers: int
    gpus_per_server: int = 8

    def make_pair(self) -> ClusterPair:
        return ClusterPair(
            make_training_cluster(self.training_servers, self.gpus_per_server),
            make_inference_cluster(self.inference_servers, self.gpus_per_server),
        )


def default_setup(
    num_jobs: int = 600,
    days: float = 3.0,
    training_servers: int = 40,
    inference_servers: int = 48,
    gpus_per_server: int = 8,
    seed: int = 0,
    target_load: float = 0.95,
    **trace_kwargs,
) -> ExperimentSetup:
    """A scaled-down analogue of the paper's production setup.

    The paper's clusters are 443 training and ~520 inference 8-GPU
    servers with 50,390 jobs over 15 days; the default here preserves the
    inference/training size ratio and the offered load while fitting in
    seconds of wall time.  Pass bigger numbers for full-scale runs.
    """
    config = TraceConfig(
        num_jobs=num_jobs,
        days=days,
        cluster_gpus=training_servers * gpus_per_server,
        seed=seed,
        target_load=target_load,
        **trace_kwargs,
    )
    workload = generate_workload(config)
    trace = generate_inference_trace(
        days=days + 2.0, num_servers=inference_servers, seed=seed
    )
    return ExperimentSetup(
        workload=workload,
        inference_trace=trace,
        training_servers=training_servers,
        inference_servers=inference_servers,
        gpus_per_server=gpus_per_server,
    )


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------
def make_policy(name: str, seed: int = 0, **kwargs) -> SchedulerPolicy:
    if name == "fifo":
        return FIFOScheduler()
    if name == "sjf":
        return SJFScheduler()
    if name == "opportunistic":
        return OpportunisticScheduling()
    if name == "lyra":
        return LyraScheduler()
    if name == "lyra_agnostic":
        from repro.schedulers.agnostic import LyraAgnosticScheduler

        return LyraAgnosticScheduler()
    if name == "gandiva":
        return GandivaScheduler()
    if name == "afs":
        return AFSScheduler()
    if name == "pollux":
        budget = {
            key: kwargs[f"pollux_{key}"]
            for key in ("generations", "population")
            if f"pollux_{key}" in kwargs
        }
        return PolluxScheduler(seed=seed, **budget)
    raise ValueError(f"unknown policy {name!r}")


def wire_scheme(
    scheme: str,
    seed: int = 0,
    sim_overrides: Optional[dict] = None,
    lender_traces: Optional[dict] = None,
    **policy_kwargs,
) -> Tuple[SchedulerPolicy, SimulationConfig, Optional[ResourceOrchestrator]]:
    """Resolve a :data:`SCHEMES` name into what a kernel is built from:
    ``(policy, config, orchestrator)``.

    The one reader of a scheme's wiring — the simulator
    (:func:`build_sim`) and the daemon (``repro serve``) both build
    their kernel from this triple, so a scheme means the same under
    either clock.  ``orchestrator`` is None for a scheme that does not
    loan; ``sim_overrides`` are extra :class:`SimulationConfig` fields.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {sorted(SCHEMES)}")
    wiring = SCHEMES[scheme]
    policy = make_policy(wiring.policy, seed=seed, **policy_kwargs)
    config = SimulationConfig(
        **{
            "elastic": wiring.elastic,
            "tuned_jobs": wiring.tuned,
            **(sim_overrides or {}),
        }
    )
    orchestrator = None
    if wiring.loaning:
        orchestrator = ResourceOrchestrator(
            reclaimer=wiring.reclaimer,
            seed=seed,
            scale_in_first=config.elastic,
            lender_traces=lender_traces,
        )
    return policy, config, orchestrator


def build_sim(
    setup: ExperimentSetup,
    scheme: str,
    scenario: str = "basic",
    seed: int = 0,
    specs: Optional[Sequence[JobSpec]] = None,
    scaling_model: str = "linear",
    estimate_error: Optional[tuple] = None,
    sim_overrides: Optional[dict] = None,
    obs: Optional[Observability] = None,
    market=None,
    **policy_kwargs,
) -> Simulation:
    """Wire one (scheme, scenario) cell into a ready-to-run Simulation.

    Args:
        setup: Workload + clusters bundle.
        scheme: Key into :data:`SCHEMES`.
        scenario: One of :data:`SCENARIOS`.
        seed: Seed for stochastic pieces (Random reclaimer, Pollux GA,
            estimate-error injection).
        specs: Pre-transformed job specs; defaults to applying
            ``scenario`` to the setup's workload.
        scaling_model: ``"linear"`` or ``"sublinear20"`` (§7.2).
        estimate_error: ``(wrong_fraction, max_error)`` for the Table 9
            study — that fraction of jobs get a runtime estimate off by a
            uniform factor within ``±max_error``.
        sim_overrides: Extra :class:`SimulationConfig` fields.
        obs: Observability bundle (tracer/registry/profiler); omit for
            the zero-overhead disabled default.
        market: Optional :class:`~repro.market.MarketConfig` — split the
            setup's hardware into a multi-cluster capacity market, each
            lender with its own utilization trace.  The same
            orchestrator rule clears it; ``market=None`` is the 1×1
            case on the setup's own pair and trace.
    """
    if specs is None:
        specs = apply_scenario(setup.workload.specs, scenario, seed=seed)

    lender_traces = None
    if market is not None:
        # Lazy import: the single-pair path does not need the market's
        # config module.
        from repro.market import build_market_setup

        built = build_market_setup(setup, market, seed=seed)
        pair = built.pair
        trace = built.aggregate_trace
        lender_traces = built.lender_traces
    else:
        pair = setup.make_pair()
        trace = setup.inference_trace  # always present: usage accounting
    policy, config, orchestrator = wire_scheme(
        scheme,
        seed=seed,
        sim_overrides={"scaling_model": scaling_model, **(sim_overrides or {})},
        lender_traces=lender_traces,
        **policy_kwargs,
    )

    sim = Simulation(
        specs,
        pair,
        policy,
        inference_trace=trace,
        orchestrator=orchestrator,
        config=config,
        obs=obs,
    )
    if scenario == "ideal":
        sim.hetero_ideal = True

    if estimate_error is not None:
        wrong_fraction, max_error = estimate_error
        rng = np.random.default_rng(seed)
        for job in sim.jobs.values():
            if rng.random() < wrong_fraction:
                job.estimate_error = 1.0 + rng.uniform(-max_error, max_error)

    return sim


def run_scheme(
    setup: ExperimentSetup,
    scheme: str,
    scenario: str = "basic",
    **kwargs,
) -> SimulationMetrics:
    """Run one (scheme, scenario) cell and return its metrics.

    A thin wrapper over :func:`build_sim` — the what-if tooling builds
    the same simulation but stops it mid-run to price hypothetical
    plans; every benchmark and example goes through here.
    """
    return build_sim(setup, scheme, scenario, **kwargs).run()
