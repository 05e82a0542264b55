"""Shared fixtures for the test suite."""

from __future__ import annotations

import faulthandler
import os
from dataclasses import dataclass
from typing import Optional

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import Job, JobSpec
from repro.core.placement import PlacementEngine
from repro.core.view import ClusterView
from repro.oracle.refview import ReferenceView
from repro.rm.manager import ResourceManager
from repro.scenarios import ExperimentSetup
from repro.simulator.simulation import Simulation
from repro.traces.inference import generate_inference_trace
from repro.traces.workload import TraceConfig, generate_workload
from tests.test_equivalence import LEGS, build_scenario, digest

#: Seconds one test may take, set-up and teardown included, before the
#: run is stopped with every thread's stack: the slowest test takes about
#: 5 s, so a test past this bound is stuck (a gang refused every epoch
#: until the 30-day drain limit, say), and the suite fails by the test's
#: name instead of hanging.
TEST_DEADLINE_S = 60.0

#: the terminal's stderr, duplicated before any test captures fd 2: a
#: dump written into the capture would die with the process
_deadline_stream = None


def pytest_configure(config):
    global _deadline_stream
    _deadline_stream = os.fdopen(os.dup(2), "w")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, exit=True, file=_deadline_stream
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()


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


@dataclass(frozen=True)
class GoldenRun:
    """A finished plain golden-scenario run, as its readers see it."""

    digest: str
    events: int
    plans_applied: int
    plans_rejected: int
    on_reference: bool
    #: the final view audit's failure, or None
    view_drift: Optional[str]
    #: whether a recovery manager, plan WAL or crash probe was wired
    durable_wired: bool
    #: trace events plus phase stats the run's obs bundle recorded
    obs_recorded: int


def _finish(sim: Simulation) -> GoldenRun:
    sim.run()
    sim.rm.verify_books()
    try:
        sim.view.assert_consistent()
        drift = None
    except AssertionError as exc:
        drift = str(exc)
    return GoldenRun(
        digest=digest(sim.activities),
        events=len(sim.activities),
        plans_applied=sim.executor.plans_applied,
        plans_rejected=sim.executor.plans_rejected,
        on_reference=isinstance(sim.view, ReferenceView),
        view_drift=drift,
        durable_wired=any(
            hook is not None
            for hook in (
                sim.recovery, sim.executor.wal, sim.executor.crash_probe
            )
        ),
        obs_recorded=len(sim.obs.tracer),
    )


@pytest.fixture(scope="session")
def golden_run():
    """``golden_run(name, leg="production")``: golden scenario ``name``
    on one leg of ``tests.test_equivalence.LEGS``, simulated once per
    session however many tests read it."""
    runs = {}

    def get(name: str, leg: str = "production") -> GoldenRun:
        if (name, leg) not in runs:
            runs[name, leg] = _finish(build_scenario(name, **LEGS[leg]))
        return runs[name, leg]

    return get
