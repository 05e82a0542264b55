"""Tests for the decision-plan core: actions, transactions, executor.

Covers the freeze-guard contract (policies and the orchestrator emit
plans; only the PlanExecutor applies them), dry-run pricing leaving the
simulation untouched, single-use plans, the closed action vocabulary,
the explicit ``epoch_idempotent`` declarations, the declared context an
open transaction exposes, and the hypothesis properties pinning
reclaim-plan rollback and the scale-in-first/preempt disjointness.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import Job, JobSpec
from repro.core.actions import (
    EpochPlan,
    PlanError,
    PlanRejected,
    PlanTransaction,
    ScaleIn,
)
from repro.core.orchestrator import ResourceOrchestrator
from repro.core.view import ClusterView
from repro.schedulers.afs import AFSScheduler
from repro.schedulers.agnostic import LyraAgnosticScheduler
from repro.schedulers.fifo import (
    FIFOScheduler,
    OpportunisticScheduling,
    SJFScheduler,
)
from repro.schedulers.gandiva import GandivaScheduler
from repro.schedulers.lyra import LyraScheduler
from repro.schedulers.pollux import PolluxScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from repro.traces.inference import InferenceTrace
from repro.traces.workload import TraceConfig, generate_workload

ALL_POLICIES = (
    FIFOScheduler,
    SJFScheduler,
    OpportunisticScheduling,
    LyraScheduler,
    LyraAgnosticScheduler,
    GandivaScheduler,
    AFSScheduler,
    PolluxScheduler,
)


def flat_trace(levels, num_servers=4):
    return InferenceTrace(utilization=np.array(levels, dtype=float), num_servers=num_servers)


def state_snapshot(sim) -> tuple:
    """A deep, comparable snapshot of everything a plan could touch."""
    servers = tuple(
        (
            s.server_id,
            s.on_loan,
            s.group,
            tuple(sorted(s.allocations.items())),
            s.free_gpus,
        )
        for cluster in (sim.pair.training, sim.pair.inference)
        for s in cluster.servers
    )
    jobs = tuple(
        (
            j.job_id,
            j.status.value,
            j.total_workers,
            j.remaining_work,
            tuple(sorted(j.base_placement.items())),
            tuple(sorted(j.flex_placement.items())),
            j.preemptions,
            j.hetero_penalty,
        )
        for j in sim.jobs.values()
    )
    # the job-side book, row by row: what every decision reads
    workers = tuple(
        (
            j.job_id,
            sid,
            j.base_placement.get(sid, 0),
            j.flex_placement.get(sid, 0),
            j.gpu_cost_on(sid),
        )
        for j in sim.jobs.values()
        for sid in sorted(j.servers | set(j._server_cost) | j._onloan_servers)
    )
    return (
        servers,
        jobs,
        workers,
        tuple(sorted(sim.running)),
        tuple(j.job_id for j in sim.pending),
        len(sim.activities),
        sim.metrics.scale_ops,
        len(sim.metrics.reclaim_ops),
        len(sim.metrics.loan_ops),
    )


def mid_run_sim(policy, until=3600.0, num_jobs=40, **cfg):
    specs = generate_workload(
        TraceConfig(
            num_jobs=num_jobs,
            days=0.5,
            cluster_gpus=32,
            seed=3,
            target_load=2.0,
        )
    ).specs
    pair = ClusterPair(make_training_cluster(4), make_inference_cluster(4))
    sim = Simulation(
        specs,
        pair,
        policy,
        inference_trace=flat_trace([0.2] * 24, num_servers=4),
        config=SimulationConfig(record_activities=True, **cfg),
    )
    sim.run(until=until)
    return sim


def loaning_sim(reclaimer="lyra", scale_in_first=True, until=4000.0):
    """A mid-run orchestrated sim with servers on loan and jobs on them."""
    trace = flat_trace([0.0] * 24, num_servers=4)
    specs = [
        # filler pins the dedicated training servers
        JobSpec(job_id=0, submit_time=0.0, duration=50000.0, max_workers=16),
        JobSpec(job_id=1, submit_time=0.0, duration=50000.0, max_workers=4,
                min_workers=1, elastic=True, fungible=True),
        JobSpec(job_id=2, submit_time=100.0, duration=50000.0, max_workers=4,
                min_workers=1, elastic=True, fungible=True),
        JobSpec(job_id=3, submit_time=200.0, duration=50000.0, max_workers=2, fungible=True),
    ]
    orch = ResourceOrchestrator(reclaimer=reclaimer, seed=5, scale_in_first=scale_in_first)
    pair = ClusterPair(make_training_cluster(2), make_inference_cluster(4))
    sim = Simulation(
        specs,
        pair,
        LyraScheduler(),
        inference_trace=trace,
        orchestrator=orch,
        config=SimulationConfig(record_activities=True),
    )
    sim.run(until=until)
    return sim


# ----------------------------------------------------------------------
# explicit epoch_idempotent declarations (satellite)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALL_POLICIES, ids=lambda c: c.__name__)
def test_every_policy_declares_epoch_idempotent_explicitly(cls):
    assert "epoch_idempotent" in cls.__dict__, (
        f"{cls.__name__} must declare epoch_idempotent in its own class "
        f"body, not inherit it — the flag is a per-policy contract"
    )
    assert isinstance(cls.__dict__["epoch_idempotent"], bool)


# ----------------------------------------------------------------------
# the pools a policy reads (satellite)
# ----------------------------------------------------------------------
# A sub-unit on-loan cost cannot reach a policy: ``Pools`` refuses it
# (tests/test_allocation.py::TestPools::test_cost_below_one_rejected) and
# the view's cost rule clamps at 1 (tests/test_view.py::
# TestDeterministicOnloanCost::test_cost_never_below_one).
def test_free_pools_weakest_type_default_with_empty_onloan_pool():
    # no servers on loan anywhere: the census holds no loaned types and
    # the cost must fall back to a conservative default of at least 1.0
    pools = ClusterView(make_training_cluster(2)).pools()
    assert pools.onloan == 0
    assert pools.onloan_cost >= 1.0
    assert pools.onloan_cost == 3.0  # the documented conservative default


# ----------------------------------------------------------------------
# freeze guard: every policy plans; dry runs leave no trace
# ----------------------------------------------------------------------
@pytest.mark.parametrize("cls", ALL_POLICIES, ids=lambda c: c.__name__)
def test_policy_plans_roundtrip_through_executor(cls):
    policy = cls()
    sim = mid_run_sim(policy)
    assert sim.executor.plans_applied > 0, (
        f"{cls.__name__} never produced a plan the executor applied — "
        f"the simulation must route every epoch through the plan core"
    )
    assert sim.executor.plans_rejected == 0

    # re-queue a running job so the next epoch has real work to stage
    running = sorted(sim.running)
    if running:
        sim.preempt(sim.jobs[running[0]], cause="scheduler")
    if isinstance(policy, PolluxScheduler):
        policy._last_ga = float("-inf")  # bypass the GA cadence gate

    before = state_snapshot(sim)
    plan = policy.plan(sim)
    assert isinstance(plan, EpochPlan)
    receipt = sim.executor.apply(plan, dry_run=True)
    assert not receipt.applied
    assert receipt.pricing is not None
    assert state_snapshot(sim) == before, (
        f"dry-running a {cls.__name__} plan changed the simulation"
    )
    sim.rm.verify_books()

    # the same decisions, re-planned, commit cleanly
    if isinstance(policy, PolluxScheduler):
        policy._last_ga = float("-inf")
    plan2 = policy.plan(sim)
    receipt2 = sim.executor.apply(plan2)
    assert receipt2.applied
    sim.rm.verify_books()
    if cls in (FIFOScheduler, SJFScheduler, GandivaScheduler, AFSScheduler, LyraScheduler):
        assert len(plan2.actions) > 0, (f"{cls.__name__} should have re-admitted the preempted job")


def test_plans_are_single_use():
    sim = mid_run_sim(FIFOScheduler())
    plan = sim.policy.plan(sim)
    sim.executor.apply(plan)
    with pytest.raises(PlanError, match="single-use"):
        sim.executor.apply(plan)


def test_open_transaction_blocks_a_second_plan():
    sim = mid_run_sim(FIFOScheduler())
    txn = PlanTransaction(sim, policy="outer")
    try:
        with pytest.raises(PlanError, match="already open"):
            sim.policy.plan(sim)
    finally:
        txn.abort()


# ----------------------------------------------------------------------
# orchestrator plans: dry-run pricing and real commit
# ----------------------------------------------------------------------
def test_orchestrator_reclaim_dry_run_prices_without_state_change():
    sim = loaning_sim()
    loaned = sim.pair.loaned_count
    assert loaned > 0, "fixture must have servers on loan"
    before = state_snapshot(sim)
    plan = sim.orchestrator.plan_reclaim(sim, demand=loaned)
    assert plan.policy == "orchestrator:lyra"
    assert len(plan.actions) > 0
    receipt = sim.executor.apply(plan, dry_run=True)
    assert not receipt.applied
    assert receipt.pricing["servers_reclaimed"] > 0
    assert state_snapshot(sim) == before
    sim.rm.verify_books()
    if sim.view is not None:
        sim.view.assert_consistent()


def test_orchestrator_reclaim_plan_commits_via_executor():
    sim = loaning_sim()
    loaned = sim.pair.loaned_count
    assert loaned > 0
    plan = sim.orchestrator.plan_reclaim(sim, demand=loaned)
    receipt = sim.executor.apply(plan)
    assert receipt.applied
    assert sim.pair.loaned_count < loaned
    assert sim.activities, "commit must write the RECLAIM activity"
    sim.rm.verify_books()
    if sim.view is not None:
        sim.view.assert_consistent()


def test_orchestrated_run_routes_ticks_through_executor():
    sim = loaning_sim(until=20000.0)
    assert sim.executor.plans_applied > 0
    assert sim.metrics.loan_ops, "no loans planned"


# ----------------------------------------------------------------------
# declarative scale-in (reclaim plans, the daemon's ``scale`` op)
# ----------------------------------------------------------------------
def flexed_sim():
    """Job 0 runs elastic at 1 base + 3 flexible workers on the only
    training server; job 1 (8 GPUs) cannot fit beside it and queues."""
    specs = [
        JobSpec(job_id=0, submit_time=0.0, duration=50000.0, max_workers=4,
                min_workers=1, elastic=True),
        JobSpec(job_id=1, submit_time=10.0, duration=50000.0, max_workers=8),
    ]
    pair = ClusterPair(make_training_cluster(1), make_inference_cluster(1))
    sim = Simulation(specs, pair, LyraScheduler(),
                     config=SimulationConfig(record_activities=True))
    sim.run(until=100.0)
    assert 0 in sim.running and sim.jobs[0].total_workers == 4
    assert [j.job_id for j in sim.pending] == [1]
    return sim


def declarative_scale_in(job_id, *removals):
    return ScaleIn(job_id=job_id, removals=tuple(removals), staged=False)


def test_declarative_scale_in_commits_through_the_executor():
    sim = flexed_sim()
    job = sim.jobs[0]
    (host,) = job.servers
    ops_before = sim.metrics.scale_ops
    plan = EpochPlan(now=sim.now, policy="test",
                     actions=(declarative_scale_in(0, (host, 2)),))
    assert sim.executor.apply(plan).applied
    assert job.total_workers == 2
    assert sim.metrics.scale_ops == ops_before + 1
    last = sim.activities[-1]
    assert (last.kind.value, last.job_id, last.detail) == ("scale_in", 0, 2)
    sim.rm.verify_books()


@pytest.mark.parametrize(
    "bad, message",
    [
        # the job holds 3 flexible workers; 4 would take its base worker
        (lambda host: declarative_scale_in(0, (host, 3)), "below base demand"),
        # the same §5.2 floor for a shrink a transaction already staged
        (
            lambda host: ScaleIn(job_id=0, removals=((host, 4),), workers=0, delta=-4),
            "job 0: scaling in to 0 workers would drop below base demand 1",
        ),
        (lambda host: declarative_scale_in(0, ("infer-0000", 1)), "holds 0"),
        (lambda host: declarative_scale_in(0, (host, 0)), "removes 0 workers"),
        (lambda host: declarative_scale_in(1, (host, 1)), "not running"),
        (lambda host: declarative_scale_in(77, (host, 1)), "unknown job"),
    ],
    ids=["below-floor", "staged-below-floor", "workers-not-held",
         "empty-removal", "job-not-running", "unknown-job"],
)
def test_bad_declarative_scale_in_rejects_the_whole_plan(bad, message):
    """One invalid ScaleIn rejects every action of its plan — including
    the valid shrink ahead of it — with nothing logged and books clean."""
    sim = flexed_sim()
    (host,) = sim.jobs[0].servers
    plan = EpochPlan(
        now=sim.now,
        policy="test",
        actions=(declarative_scale_in(0, (host, 1)), bad(host)),
    )
    before = state_snapshot(sim)
    with pytest.raises(PlanRejected, match=message):
        sim.executor.apply(plan)
    assert sim.executor.plans_rejected == 1
    assert state_snapshot(sim) == before
    sim.rm.verify_books()


def test_an_action_of_no_known_kind_rejects_the_plan():
    """The vocabulary is closed: six kinds, and anything else — here the
    retired ``migrate_job`` — rejects its plan with nothing committed."""
    sim = flexed_sim()
    stray = SimpleNamespace(kind="migrate_job", job_id=0)
    plan = EpochPlan(now=sim.now, policy="test", actions=(stray,))
    before = state_snapshot(sim)
    with pytest.raises(PlanRejected, match="unknown action kind 'migrate_job'"):
        sim.executor.apply(plan)
    assert state_snapshot(sim) == before


def shrink_to_launch_sim():
    """Job 0 runs elastic at 8 workers on the only training server; job 1
    has arrived, and its epoch (t=30), which shrinks job 0 to launch it,
    has not run."""
    specs = [
        JobSpec(
            job_id=0, submit_time=0.0, duration=50000.0, max_workers=8, min_workers=2, elastic=True
        ),
        JobSpec(job_id=1, submit_time=10.0, duration=50000.0, max_workers=4),
    ]
    pair = ClusterPair(make_training_cluster(1), make_inference_cluster(1))
    sim = Simulation(specs, pair, LyraScheduler(), config=SimulationConfig(record_activities=True))
    sim.run(until=20.0)
    assert sim.jobs[0].total_workers == 8 and [j.job_id for j in sim.pending] == [1]
    return sim


@pytest.mark.parametrize("how", ["dry-run", "rejected"])
def test_rolled_back_plan_leaves_the_container_ledger_as_found(how):
    """A staged plan that stops workers (job 0's flexible ones) and
    launches new ones (job 1, which never ran) is undone by negating
    each journaled book delta: both books come back row for row, no
    emptied key, cost or on-loan mark left behind, and they agree."""
    sim = shrink_to_launch_sim()
    before = state_snapshot(sim)
    plan = sim.policy.plan(sim)
    kinds = plan.by_kind()
    assert kinds.get("scale_in") and kinds.get("launch"), kinds
    assert state_snapshot(sim) != before, "the plan staged nothing"
    if how == "dry-run":
        assert not sim.executor.apply(plan, dry_run=True).applied
    else:
        plan.actions += (declarative_scale_in(77, ("nowhere", 1)),)
        with pytest.raises(PlanRejected, match="unknown job"):
            sim.executor.apply(plan)
    assert state_snapshot(sim) == before
    sim.rm.verify_books()


class _FailsAfterDeciding(LyraScheduler):
    """Stages its epoch, writes a job field that no hand-kept rollback
    list named, then fails.  The context has no job table: the jobs
    come from the simulation the test holds."""

    def __init__(self, jobs):
        self.jobs = jobs

    def decide(self, ctx):
        super().decide(ctx)
        for job_id in (0, 1):
            self.jobs[job_id].preempted_at = 5.0
        raise RuntimeError("decide failed")


def _attributes(job) -> dict:
    values = {name: getattr(job, name) for name in Job.__slots__}
    return {k: (v.copy() if isinstance(v, (dict, set)) else v) for k, v in values.items()}


def test_failed_decide_leaves_every_touched_job_as_found():
    """A decide() that raises after shrinking job 0 and launching job 1
    rolls back every attribute of both jobs, into the very placement
    maps they held."""
    sim = shrink_to_launch_sim()
    jobs = [sim.jobs[0], sim.jobs[1]]
    before = [_attributes(job) for job in jobs]
    maps = [(job.base_placement, job.flex_placement) for job in jobs]
    books = state_snapshot(sim)
    with pytest.raises(RuntimeError, match="decide failed"):
        _FailsAfterDeciding(sim.jobs).plan(sim)
    assert [_attributes(job) for job in jobs] == before
    for job, (base, flex) in zip(jobs, maps):
        assert job.base_placement is base and job.flex_placement is flex
    assert state_snapshot(sim) == books
    sim.rm.verify_books()


# ----------------------------------------------------------------------
# the declared context (satellite)
# ----------------------------------------------------------------------
#: what a policy reads and stages through; widening it is a reviewed diff
CONTEXT = {
    "now",
    "config",
    "cluster",
    "view",
    "placement_engine",
    "phase",
    "trace",
    "tracer",
    "obs",
    "hetero_ideal",
    "pending",
    "running",
    "running_elastic",
    "activate",
    "rescale",
    "scale_in_worker_counts",
    "note_provenance",
}
#: what the plan/executor lifecycle calls
LIFECYCLE = {"seal", "abort", "close", "rollback"}
#: what the resource manager calls while the transaction is its journal
JOURNAL_HOOKS = {"note_job", "record_book", "record_group"}


def test_an_open_transaction_exposes_exactly_the_declared_names():
    sim = flexed_sim()
    txn = PlanTransaction(sim, policy="surface")
    try:
        public = {name for name in dir(txn) if not name.startswith("_")}
        assert public == CONTEXT | LIFECYCLE | JOURNAL_HOOKS
        assert "__getattr__" not in vars(PlanTransaction)
    finally:
        txn.abort()


class _ReadsUndeclared(LyraScheduler):
    """Stages its epoch, then reads a name the context does not declare."""

    def decide(self, ctx):
        super().decide(ctx)
        self.staged = set(ctx.running)
        ctx.jobs


def test_an_undeclared_read_fails_and_leaves_nothing_staged():
    sim = shrink_to_launch_sim()
    jobs = [sim.jobs[0], sim.jobs[1]]
    before = [_attributes(job) for job in jobs]
    books = state_snapshot(sim)
    policy = _ReadsUndeclared()
    with pytest.raises(AttributeError, match="jobs"):
        policy.plan(sim)
    assert policy.staged == {0, 1}, "the epoch must have launched job 1 first"
    assert [_attributes(job) for job in jobs] == before
    assert state_snapshot(sim) == books
    assert sim.rm.journal is None
    sim.rm.verify_books()


# ----------------------------------------------------------------------
# hypothesis properties
# ----------------------------------------------------------------------
_SIM_CACHE = {}


def _cached_loaning_sim(reclaimer, scale_in_first):
    key = (reclaimer, scale_in_first)
    if key not in _SIM_CACHE:
        _SIM_CACHE[key] = loaning_sim(reclaimer=reclaimer, scale_in_first=scale_in_first)
    return _SIM_CACHE[key]


@settings(max_examples=40, deadline=None)
@given(
    demand=st.integers(min_value=1, max_value=6),
    reclaimer=st.sampled_from(["lyra", "scf", "random"]),
    scale_in_first=st.booleans(),
)
def test_reclaim_plan_dry_run_restores_clean_books(demand, reclaimer, scale_in_first):
    """Dry-running any reclaim plan leaves verify_books()-clean state.

    The same simulation is deliberately reused across examples: if a
    single dry run leaked state, later examples would catch the drift.
    """
    sim = _cached_loaning_sim(reclaimer, scale_in_first)
    before = state_snapshot(sim)
    plan = sim.orchestrator.plan_reclaim(sim, demand)
    receipt = sim.executor.apply(plan, dry_run=True)
    assert not receipt.applied
    assert state_snapshot(sim) == before
    sim.rm.verify_books()


@settings(max_examples=30, deadline=None)
@given(demand=st.integers(min_value=1, max_value=6))
def test_scale_in_first_never_preempts_a_scaled_in_job(demand):
    """§5.3: a job the plan shrinks is spared preemption in that plan."""
    sim = _cached_loaning_sim("lyra", True)
    plan = sim.orchestrator.plan_reclaim(sim, demand)
    scaled = {a.job_id for a in plan.actions if a.kind == "scale_in" and not a.staged}
    preempted = {a.job_id for a in plan.actions if a.kind == "preempt"}
    assert scaled.isdisjoint(preempted)
    for action in plan.actions:
        if a_is_final_reclaim(action):
            assert set(action.scaled_in).isdisjoint(set(action.preempted))
    sim.executor.apply(plan, dry_run=True)  # roll back for the next example


def a_is_final_reclaim(action) -> bool:
    return action.kind == "reclaim_servers" and not action.route_around


# ----------------------------------------------------------------------
# CLI surfaces
# ----------------------------------------------------------------------
_TINY_CLI = [
    "--jobs",
    "40",
    "--days",
    "0.5",
    "--training-servers",
    "4",
    "--inference-servers",
    "6",
    "--load",
    "3.0",
    "--seed",
    "1",
]


def test_cli_whatif_prices_without_state_change(capsys):
    import json as json_mod

    from repro.cli import main

    rc = main(["whatif", *_TINY_CLI, "--scheme", "lyra", "--at", "7200", "--demand", "1", "--json"])
    assert rc == 0
    payload = json_mod.loads(capsys.readouterr().out)
    assert payload["state_changed"] is False
    assert payload["demand"] == 1
    assert "pricing" in payload and "actions" in payload["plan"]


def test_cli_whatif_rejects_non_loaning_scheme(capsys):
    from repro.cli import main

    rc = main(["whatif", *_TINY_CLI, "--scheme", "baseline"])
    assert rc == 2
    assert "no resource orchestrator" in capsys.readouterr().err


def test_cli_run_explain_reports_plans(capsys):
    import json as json_mod

    from repro.cli import main

    rc = main(["run", *_TINY_CLI, "--scheme", "lyra", "--explain", "--json"])
    assert rc == 0
    payload = json_mod.loads(capsys.readouterr().out)
    assert payload["plans"], "--explain must record the applied plans"
    first = payload["plans"][0]
    assert {"now", "policy", "by_kind", "actions", "pricing"} <= set(first)
