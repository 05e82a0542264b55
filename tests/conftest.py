"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import Job, JobSpec
from repro.core.placement import PlacementEngine
from repro.core.view import ClusterView
from repro.rm.manager import ResourceManager
from repro.scenarios import ExperimentSetup
from repro.simulator.simulation import Simulation
from repro.traces.inference import generate_inference_trace
from repro.traces.workload import TraceConfig, generate_workload


def make_job(
    job_id: int = 0,
    submit_time: float = 0.0,
    duration: float = 100.0,
    max_workers: int = 2,
    min_workers: int = 0,
    gpus_per_worker: int = 1,
    **kwargs,
) -> Job:
    """Terse Job factory used throughout the tests."""
    return Job(
        JobSpec(
            job_id=job_id,
            submit_time=submit_time,
            duration=duration,
            max_workers=max_workers,
            min_workers=min_workers,
            gpus_per_worker=gpus_per_worker,
            **kwargs,
        )
    )


def loan(pair_or_rm, count: int, now: float = 0.0):
    """Loan up to ``count`` idle inference servers the way a committed
    ``LoanServers`` action does: peek the ids, then move exactly those.

    Setup shortcut for tests that need servers on loan without running
    an orchestrator; takes a resource manager, or a bare pair (wrapped
    in a throwaway manager).  Returns the servers moved.
    """
    rm = pair_or_rm
    if not isinstance(rm, ResourceManager):
        rm = ResourceManager(pair_or_rm, {})
    return rm.pair.loan_ids(rm.peek_loanable(count), now=now)


class ProbedSimulation(Simulation):
    """A simulation with one more timer, for tests that act mid-run:
    :meth:`probe` arms a ``("probe", i)`` tag, and its firing calls the
    ``i``-th function the test handed over."""

    TIMERS = {**Simulation.TIMERS, "probe": "_on_probe"}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.probes = []

    def probe(self, when: float, fn) -> None:
        """Call ``fn()`` at simulated time ``when``."""
        self.probes.append(fn)
        self.engine.schedule(when, ("probe", len(self.probes) - 1))

    def _on_probe(self, index: int) -> None:
        self.probes[index]()


def make_engine(cluster_or_view, **options) -> PlacementEngine:
    """A placement engine over a bare training whitelist (or a view of
    one), built the way the kernel builds it: over a view *and* a
    resource manager.  The manager's pair has an empty lender and its
    job table is empty — enough to launch and release, which is all
    placement asks of it."""
    view = cluster_or_view
    if not isinstance(view, ClusterView):
        view = ClusterView(view)
    pair = ClusterPair(view.cluster, make_inference_cluster(0))
    return PlacementEngine(view, ResourceManager(pair, {}), **options)


@pytest.fixture
def small_pair() -> ClusterPair:
    """4 training + 4 inference servers of 8 GPUs each."""
    return ClusterPair(
        make_training_cluster(4), make_inference_cluster(4)
    )


@pytest.fixture
def tiny_setup() -> ExperimentSetup:
    """A fast end-to-end setup: ~120 jobs over one day on 8+10 servers."""
    config = TraceConfig(
        num_jobs=120, days=1.0, cluster_gpus=64, seed=7, target_load=0.9
    )
    return ExperimentSetup(
        workload=generate_workload(config),
        inference_trace=generate_inference_trace(
            days=2.0, num_servers=10, seed=7
        ),
        training_servers=8,
        inference_servers=10,
    )
