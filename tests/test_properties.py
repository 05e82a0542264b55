"""Property-based tests over the core data structures and invariants.

Hypothesis drives randomized placements, allocations and mini-simulations
and checks the invariants every component must preserve regardless of
input shape: no server over-allocation, worker-count conservation,
knapsack feasibility, reclaim-plan consistency, and work conservation in
the simulator.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import Job, JobSpec
from repro.core.allocation import Pools, allocate_two_phase
from repro.core.placement import PlacementEngine, PlacementRequest
from repro.core.reclaim import plan_reclaim_lyra
from repro.core.view import ClusterView
from repro.rm.manager import ResourceManager
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from tests.conftest import loan
from tests.test_arrays import _walked


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
@st.composite
def job_specs(draw, max_jobs=8):
    """A small batch of mixed elastic/inelastic job specs."""
    count = draw(st.integers(1, max_jobs))
    specs = []
    for job_id in range(count):
        elastic = draw(st.booleans())
        gpw = draw(st.sampled_from([1, 2]))
        wmin = draw(st.integers(1, 4))
        wmax = wmin + draw(st.integers(1, 4)) if elastic else wmin
        specs.append(
            JobSpec(
                job_id=job_id,
                submit_time=float(draw(st.integers(0, 600))),
                duration=float(draw(st.integers(60, 4000))),
                max_workers=wmax,
                min_workers=wmin,
                gpus_per_worker=gpw,
                elastic=elastic,
                fungible=draw(st.booleans()),
            )
        )
    return specs


# ----------------------------------------------------------------------
# placement invariants
# ----------------------------------------------------------------------
class TestPlacementProperties:
    @given(specs=job_specs())
    @settings(max_examples=60, deadline=None)
    def test_never_overallocates_and_books_consistently(self, specs):
        pair = ClusterPair(make_training_cluster(3), make_inference_cluster(2))
        loan(pair, 2)
        engine = PlacementEngine(ClusterView(pair.training))
        jobs = [Job(s) for s in specs]
        requests = [
            PlacementRequest(
                job,
                base_workers=job.spec.min_workers,
                flex_workers=job.spec.max_workers - job.spec.min_workers,
            )
            for job in jobs
        ]
        result = engine.place(requests)
        for server in pair.training.servers:
            assert 0 <= server.used_gpus <= server.num_gpus
        placed_ids = {j.job_id for j in result.placed_base}
        failed_ids = {j.job_id for j in result.failed_base}
        assert placed_ids.isdisjoint(failed_ids)
        for job in jobs:
            if job.job_id in failed_ids:
                assert job.total_workers == 0
            elif job.job_id in placed_ids:
                assert job.base_workers == job.spec.min_workers
                # server-side and job-side GPU books agree
                for server in pair.training.servers:
                    booked = server.allocations.get(job.job_id, 0)
                    assert booked == job.gpus_on(server.server_id)

    @given(specs=job_specs())
    @settings(max_examples=40, deadline=None)
    def test_type_homogeneity_preserved(self, specs):
        pair = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
        loan(pair, 2)
        engine = PlacementEngine(ClusterView(pair.training))
        for spec in specs:
            job = Job(spec)
            engine.place(
                [
                    PlacementRequest(
                        job,
                        base_workers=spec.min_workers,
                        flex_workers=spec.max_workers - spec.min_workers,
                    )
                ]
            )
            if not spec.heterogeneous:
                types = {
                    pair.training.get(sid).gpu_type.name
                    for sid in job.servers
                    if sid in pair.training
                }
                assert len(types) <= 1


# ----------------------------------------------------------------------
# allocation invariants
# ----------------------------------------------------------------------
class TestAllocationProperties:
    @given(
        specs=job_specs(),
        training=st.integers(0, 48),
        onloan=st.integers(0, 48),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_allocates_beyond_capacity(self, specs, training, onloan):
        jobs = [Job(s) for s in specs]
        pools = Pools(training=training, onloan=onloan, onloan_cost=3.0)
        capacity = pools.total
        decision = allocate_two_phase(jobs, [], pools)
        granted = sum(
            job.spec.base_gpus for job, _ in decision.scheduled
        ) + sum(
            extra * j.spec.gpus_per_worker
            for j in jobs
            if j.elastic
            for extra in [decision.flex.get(j.job_id, 0)]
        )
        assert granted <= capacity
        # every job is either scheduled or skipped, never both
        scheduled_ids = {j.job_id for j, _ in decision.scheduled}
        skipped_ids = {j.job_id for j in decision.skipped}
        assert scheduled_ids.isdisjoint(skipped_ids)
        assert scheduled_ids | skipped_ids == {j.job_id for j in jobs}

    @given(specs=job_specs())
    @settings(max_examples=40, deadline=None)
    def test_flex_within_scaling_range(self, specs):
        jobs = [Job(s) for s in specs]
        decision = allocate_two_phase(jobs, [], Pools(training=64))
        for job in jobs:
            extra = decision.flex.get(job.job_id, 0)
            assert 0 <= extra <= job.spec.max_workers - job.spec.min_workers


# ----------------------------------------------------------------------
# reclaim invariants
# ----------------------------------------------------------------------
class TestReclaimProperties:
    @given(specs=job_specs(max_jobs=6), count=st.integers(0, 4))
    @settings(max_examples=50, deadline=None)
    def test_plan_consistency(self, specs, count):
        pair = ClusterPair(make_training_cluster(0), make_inference_cluster(4))
        loan(pair, 4)
        engine = PlacementEngine(ClusterView(pair.training))
        jobs = {}
        for spec in specs:
            job = Job(spec)
            jobs[job.job_id] = job
            if spec.fungible:
                engine.place(
                    [
                        PlacementRequest(
                            job,
                            base_workers=spec.min_workers,
                            flex_workers=spec.max_workers - spec.min_workers,
                        )
                    ]
                )
        plan = plan_reclaim_lyra(pair.training.on_loan_servers, jobs, count)
        # no duplicate servers, count honoured
        assert len(plan.servers) == len(set(plan.servers))
        assert len(plan.servers) <= max(count, 0) or count < 0
        # scaled-in jobs are never also preempted
        assert set(plan.scaled_in).isdisjoint(plan.preempted_jobs)
        # every preempted job had base workers on some selected server
        for job_id in plan.preempted_jobs:
            assert set(jobs[job_id].base_placement) & set(plan.servers)


# ----------------------------------------------------------------------
# resource-manager interleavings
# ----------------------------------------------------------------------
class TestResourceManagerInterleavings:
    """Seeded random interleavings of every RM mutation keep the books.

    The ledger invariant (`verify_books`) must hold after *every*
    operation — including rejected ones, which must leave no partial
    state behind.  This is the fault-injection substrate's contract:
    failures and recoveries can land at any point between loans,
    launches and scale-ins.  The ledger is also live-only after every
    operation: what it holds and indexes is exactly what runs.
    """

    OPS = ("launch", "scale_in", "release", "migrate", "loan", "return",
           "fail", "recover")

    @staticmethod
    def assert_ledger_live_only(rm, launched):
        running = {c.container_id for c in launched if c.running}
        assert set(rm._containers) == running
        for index, attr in ((rm._by_job, "job_id"), (rm._by_server, "server_id")):
            filed = [cid for ids in index.values() for cid in ids]
            assert sorted(filed) == sorted(running), "an index files a dead id"
            for key, ids in index.items():
                assert ids, f"emptied key {key!r} left behind"
                assert all(getattr(rm._containers[c], attr) == key for c in ids)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings_keep_books(self, seed):
        rng = random.Random(seed)
        pair = ClusterPair(make_training_cluster(3), make_inference_cluster(3))
        rm = ResourceManager(pair)
        jobs = {
            i: Job(JobSpec(
                job_id=i, submit_time=0.0, duration=1000.0,
                max_workers=6, min_workers=1, gpus_per_worker=1,
                elastic=True, fungible=True,
            ))
            for i in range(4)
        }
        now = 0.0
        launched = []  # every container ever launched, stopped or not
        for _ in range(50):
            now += 1.0
            op = rng.choice(self.OPS)
            job = jobs[rng.randrange(len(jobs))]
            all_servers = (
                pair.training.servers + pair.inference.servers
            )
            server = rng.choice(all_servers)
            try:
                if op == "launch":
                    launched += rm.launch(
                        job, server, rng.randint(1, 2), 1,
                        flexible=rng.random() < 0.5, now=now,
                    )
                elif op == "migrate":
                    rm.migrate_job(
                        job, server.server_id, rng.choice(all_servers)
                    )
                elif op == "scale_in":
                    rm.scale_in(job, server.server_id, rng.randint(1, 3),
                                now=now)
                elif op == "release":
                    rm.release_job(job, now=now)
                elif op == "loan":
                    loan(rm, rng.randint(1, 2), now=now)
                elif op == "return":
                    rm.return_server(server.server_id, now=now)
                elif op == "fail":
                    report = rm.fail_node(server.server_id, now=now)
                    # gang semantics: jobs that lost base workers are
                    # torn down entirely, like the simulator does
                    for job_id in report.jobs_lost_base:
                        rm.release_job(jobs[job_id], now=now)
                        jobs[job_id].clear_placement()
                elif op == "recover":
                    rm.recover_node(server.server_id)
            except (ValueError, RuntimeError, KeyError):
                pass  # invalid op rejected — must be atomic
            rm.verify_books()
            self.assert_ledger_live_only(rm, launched)
        # cleanup still balances: releasing every job empties the books
        for job in jobs.values():
            rm.release_job(job, now=now)
        rm.verify_books()
        assert not rm.running_containers()
        assert not (rm._containers or rm._by_job or rm._by_server)


# ----------------------------------------------------------------------
# scheduling-view invariants
# ----------------------------------------------------------------------
class TestClusterViewProperties:
    """Random mutation interleavings keep the ClusterView delta-exact.

    The view's contract: after *every* delta it must equal a from-scratch
    rebuild of its state — the per-server columns, pool totals, on-loan
    type census and the derived on-loan cost.
    The op mix covers every mutation source: RM-mediated launches,
    scale-ins and releases, capacity loans/returns, node failures and
    recoveries, direct server-book edits (the placement engine path),
    group reassignment and perf degradation.
    """

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_view_equals_rebuild_after_every_delta(self, seed):
        # the walk (and its op mix) is shared with the query-level
        # properties in tests/test_arrays.py
        _, pair, view, _ = _walked(
            seed, per_step=lambda view, ref: view.assert_consistent()
        )
        # the cached derived queries agree with scratch computation too
        rebuilt = ClusterView(
            pair.training, jobs=view.jobs, attach=False,
            default_onloan_cost=view.default_onloan_cost,
        )
        assert view.pools() == rebuilt.pools()
        assert view.reclaim_cost_index() == rebuilt.reclaim_cost_index()


# ----------------------------------------------------------------------
# simulator invariants
# ----------------------------------------------------------------------
class TestSimulationProperties:
    @given(specs=job_specs(max_jobs=6))
    @settings(max_examples=25, deadline=None)
    def test_work_conservation_and_drain(self, specs):
        pair = ClusterPair(make_training_cluster(3), make_inference_cluster(2))
        sim = Simulation(
            specs, pair, LyraScheduler(), config=SimulationConfig()
        )
        sim.run()
        for job in sim.jobs.values():
            assert job.finish_time is not None
            # no preemptions possible without loaning: JCT covers at
            # least the ideal running time
            assert job.preemptions == 0
            ideal = job.spec.total_work / (
                job.spec.max_workers * job.spec.gpus_per_worker
            )
            assert job.jct >= ideal * 0.999
            assert job.remaining_work <= 1e-3 * job.spec.total_work
        assert pair.training.used_gpus == 0

    @given(specs=job_specs(max_jobs=5), seed=st.integers(0, 100))
    @settings(max_examples=15, deadline=None)
    def test_determinism(self, specs, seed):
        def run_once():
            pair = ClusterPair(
                make_training_cluster(2), make_inference_cluster(2)
            )
            sim = Simulation(
                specs, pair, LyraScheduler(),
                config=SimulationConfig(),
            )
            sim.run()
            return [
                (j.job_id, j.first_start_time, j.finish_time)
                for j in sim.jobs.values()
            ]

        assert run_once() == run_once()
