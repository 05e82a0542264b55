"""Property-based tests over the core data structures and invariants.

Hypothesis drives randomized placements, allocations and mini-simulations
and checks the invariants every component must preserve regardless of
input shape: no server over-allocation, worker-count conservation,
knapsack feasibility, reclaim-plan consistency, and work conservation in
the simulator.
"""

import random
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import Job, JobSpec
from repro.core.actions import PlanTransaction
from repro.core.allocation import Pools, allocate_two_phase
from repro.core.placement import PlacementEngine, PlacementRequest
from repro.core.reclaim import plan_reclaim_lyra
from repro.core.view import ClusterView
from repro.rm.manager import ResourceManager
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig
from tests.conftest import loan, make_engine
from tests.test_view import _walked


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
        engine = make_engine(pair.training)
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
        engine = make_engine(pair.training)
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
        engine = make_engine(pair.training)
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
def _context(rm):
    """A stand-in kernel: the resource manager plus the names a plan
    transaction binds when it opens.  The mutations below go straight to
    the resource manager, so none of the bound names is read."""
    return SimpleNamespace(
        rm=rm,
        now=0.0,
        config=None,
        cluster=rm.pair.training,
        view=None,
        placement_engine=None,
        phase=None,
        trace=None,
        tracer=None,
        obs=None,
        hetero_ideal=False,
    )


class TestResourceManagerInterleavings:
    """Seeded random interleavings of every RM mutation keep the books.

    The two-book invariant (`verify_books`) must hold after *every*
    operation — including rejected ones, which must leave no partial
    state behind.  This is the fault-injection substrate's contract:
    failures and recoveries can land at any point between loans,
    launches and scale-ins.  Workers cost 1 GPU on the V100 training
    servers and 3 on the T4 lender hardware (§5.2), so a release that
    frees the nominal demand instead of the booked cost shows here.  A
    plan transaction opened over a run of mutations and rolled back
    leaves both books and every job as they were.
    """

    OPS = ("launch", "scale_in", "release", "loan", "return", "fail",
           "recover", "rolled_back_txn")

    @staticmethod
    def books(pair, jobs):
        """Both books, comparable: ``{server: allocations}`` and, per
        job, its placement maps, per-server costs and on-loan marks."""
        servers = {
            s.server_id: dict(s.allocations)
            for cluster in pair.clusters() for s in cluster.servers
        }
        placed = {
            j.job_id: (dict(j.base_placement), dict(j.flex_placement),
                       dict(j._server_cost), set(j._onloan_servers))
            for j in jobs.values()
        }
        return servers, placed

    def mutate(self, rm, jobs, rng, op):
        pair = rm.pair
        job = jobs[rng.randrange(len(jobs))]
        server = rng.choice(pair.training.servers + pair.inference.servers)
        if op == "launch":
            rm.launch(
                job, server, rng.randint(1, 2),
                PlacementEngine.worker_cost(job, server),
                flexible=rng.random() < 0.5,
            )
        elif op == "scale_in":
            rm.scale_in(job, server.server_id, rng.randint(1, 3))
        elif op == "release":
            rm.release_job(job)
        elif op == "loan":
            loan(rm, rng.randint(1, 2))
        elif op == "return":
            rm.return_server(server.server_id)
        elif op == "fail":
            report = rm.fail_node(server.server_id)
            # gang semantics: jobs that lost base workers are torn
            # down entirely, like the simulator does
            for job_id in report.jobs_lost_base:
                rm.release_job(jobs[job_id])
        elif op == "recover":
            rm.recover_node(server.server_id)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings_keep_books(self, seed):
        rng = random.Random(seed)
        pair = ClusterPair(make_training_cluster(3), make_inference_cluster(3))
        jobs = {
            i: Job(JobSpec(
                job_id=i, submit_time=0.0, duration=1000.0,
                max_workers=6, min_workers=1, gpus_per_worker=1,
                elastic=True, fungible=True,
            ))
            for i in range(4)
        }
        rm = ResourceManager(pair, jobs)
        def attempt(op):
            try:
                self.mutate(rm, jobs, rng, op)
            except (ValueError, RuntimeError, KeyError):
                pass  # invalid op rejected — must be atomic

        for _ in range(50):
            op = rng.choice(self.OPS)
            if op == "rolled_back_txn":
                before = self.books(pair, jobs)
                txn = PlanTransaction(_context(rm), "test")
                for _ in range(rng.randint(1, 4)):
                    attempt(rng.choice(("launch", "scale_in", "release")))
                txn.rollback()
                assert rm.journal is None
                assert self.books(pair, jobs) == before
            else:
                attempt(op)
            rm.verify_books()
            servers, _ = self.books(pair, jobs)
            for server_id, allocations in servers.items():
                assert allocations == {
                    j.job_id: j.workers_on(server_id) * j.gpu_cost_on(server_id)
                    for j in jobs.values() if j.workers_on(server_id)
                }
        # cleanup still balances: releasing every job empties the books
        for job in jobs.values():
            rm.release_job(job)
        rm.verify_books()
        assert pair.training.used_gpus == pair.inference.used_gpus == 0
        assert self.books(pair, jobs)[1] == {
            job_id: ({}, {}, {}, set()) for job_id in jobs
        }


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
        # properties in tests/test_view.py
        _, pair, view, _ = _walked(
            seed, per_step=lambda view, ref: view.assert_consistent()
        )
        # the cached pool totals agree with scratch computation too
        rebuilt = ClusterView(pair.training, attach=False)
        assert view.pools() == rebuilt.pools()


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
