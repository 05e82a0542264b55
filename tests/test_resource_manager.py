"""Tests for the resource-manager substrate and failure injection."""

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.faults.plan import FaultPlan, NodeFailureProcess
from repro.rm.manager import ResourceManager
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig

from tests.conftest import ProbedSimulation, loan, make_job as bare_job


@pytest.fixture
def rm():
    pair = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
    return ResourceManager(pair, {})


@pytest.fixture
def make_job(rm):
    """``conftest.make_job``, entered in the manager's job table the way
    the kernel's ``add_job_spec`` enters a job in its own."""
    def make(**kwargs):
        job = bare_job(**kwargs)
        rm.jobs[job.job_id] = job
        return job
    return make


def first_server(rm):
    return rm.pair.training.servers[0]


class TestLaunchRelease:
    def test_launch_books_both_sides(self, rm, make_job):
        job = make_job(max_workers=3)
        server = first_server(rm)
        rm.launch(job, server, 3, 1, flexible=False)
        assert server.allocations[job.job_id] == 3
        assert job.base_workers == 3
        rm.verify_books()

    def test_launch_over_capacity_rejected(self, rm, make_job):
        job = make_job(max_workers=5, gpus_per_worker=2)
        with pytest.raises(ValueError, match="free"):
            rm.launch(job, first_server(rm), 5, 2, flexible=False)
        rm.verify_books()

    def test_launch_on_unhealthy_rejected(self, rm, make_job):
        job = make_job()
        server = first_server(rm)
        rm.fail_node(server.server_id)
        with pytest.raises(ValueError, match="unhealthy"):
            rm.launch(job, server, 1, 1, flexible=False)

    def test_release_job_frees_everything(self, rm, make_job):
        """Base-only, flex-only and shared servers alike."""
        job = make_job(max_workers=4, min_workers=1, elastic=True)
        rm.launch(job, rm.pair.training.servers[0], 2, 1, flexible=False)
        rm.launch(job, rm.pair.training.servers[0], 1, 1, flexible=True)
        rm.launch(job, rm.pair.training.servers[1], 1, 1, flexible=True)
        released = rm.release_job(job)
        assert released == 4
        assert rm.pair.training.used_gpus == 0
        assert job.total_workers == 0
        rm.verify_books()

    def test_scale_in_releases_flex_only(self, rm, make_job):
        job = make_job(max_workers=6, min_workers=2, elastic=True)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        rm.launch(job, server, 3, 1, flexible=True)
        stopped = rm.scale_in(job, server.server_id, 2)
        assert stopped == 2
        assert job.flex_workers == 1
        assert job.base_workers == 2
        assert server.allocations[job.job_id] == 3
        rm.verify_books()

    def test_scale_in_frees_what_a_worker_costs_on_that_server(
        self, rm, make_job
    ):
        """On weaker on-loan hardware a worker books more GPUs than its
        nominal demand (§5.2); a scale-in frees that, not the nominal."""
        (t4,) = loan(rm, 1)
        job = make_job(max_workers=2, min_workers=1, elastic=True,
                       fungible=True)
        rm.launch(job, first_server(rm), 1, 1, flexible=False)
        rm.launch(job, t4, 2, 3, flexible=True)
        assert rm.scale_in(job, t4.server_id, 1) == 1
        assert t4.allocations[job.job_id] == 3
        rm.verify_books()
        assert rm.scale_in(job, t4.server_id, 5) == 1
        assert t4.idle and job.gpu_cost_on(t4.server_id) == 1
        assert not job._onloan_servers
        rm.verify_books()

    def test_scale_in_never_touches_base(self, rm, make_job):
        job = make_job(max_workers=4, min_workers=2, elastic=True)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        assert rm.scale_in(job, server.server_id, 5) == 0
        assert job.base_workers == 2


class TestWhitelist:
    def test_loan_and_return(self, rm):
        moved = loan(rm, 1, now=0.0)
        assert len(moved) == 1
        sid = moved[0].server_id
        assert sid in rm.pair.training and sid not in rm.pair.inference
        returned = rm.return_server(sid, now=1.0)
        assert not returned.on_loan
        assert sid in rm.pair.inference and sid not in rm.pair.training

    def test_return_refused_while_containers_run(self, rm, make_job):
        moved = loan(rm, 1)[0]
        job = make_job(fungible=True)
        rm.launch(job, moved, 1, 1, flexible=False)
        with pytest.raises(RuntimeError, match="vacated"):
            rm.return_server(moved.server_id)


class TestNodeFailure:
    def test_base_loss_reported(self, rm, make_job):
        job = make_job(max_workers=2)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        report = rm.fail_node(server.server_id)
        assert report.jobs_lost_base == {job.job_id}
        assert server.used_gpus == 0 and job.total_workers == 0
        assert not rm.is_healthy(server.server_id)

    def test_flex_only_loss_reported_separately(self, rm, make_job):
        job = make_job(max_workers=6, min_workers=2, elastic=True)
        base_server, flex_server = rm.pair.training.servers[:2]
        rm.launch(job, base_server, 2, 1, flexible=False)
        rm.launch(job, flex_server, 3, 1, flexible=True)
        report = rm.fail_node(flex_server.server_id)
        assert report.jobs_lost_base == set()
        assert report.jobs_lost_flex == {job.job_id: 3}

    def test_flex_only_loser_is_shrunk_on_its_own_book(self, rm, make_job):
        """``fail_node`` alone — no kernel behind it — takes the dead
        server out of the job: no workers there, and the per-server cost
        and on-loan mark go with the last of them."""
        (t4,) = loan(rm, 1)
        job = make_job(max_workers=3, min_workers=1, elastic=True,
                       fungible=True)
        rm.launch(job, first_server(rm), 1, 1, flexible=False)
        rm.launch(job, t4, 2, 3, flexible=True)
        assert job.gpu_cost_on(t4.server_id) == 3
        report = rm.fail_node(t4.server_id)
        assert report.jobs_lost_flex == {job.job_id: 2}
        assert job.workers_on(t4.server_id) == 0
        assert (job.base_workers, job.flex_workers) == (1, 0)
        assert t4.server_id not in job._server_cost
        assert not job._onloan_servers
        assert t4.idle
        rm.verify_books()

    def test_base_loss_subsumes_flex_loss(self, rm, make_job):
        job = make_job(max_workers=6, min_workers=2, elastic=True)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        rm.launch(job, server, 2, 1, flexible=True)
        report = rm.fail_node(server.server_id)
        assert report.jobs_lost_base == {job.job_id}
        assert job.job_id not in report.jobs_lost_flex

    def test_recovery(self, rm, make_job):
        server = first_server(rm)
        rm.fail_node(server.server_id)
        rm.recover_node(server.server_id)
        assert rm.is_healthy(server.server_id)
        job = make_job()
        rm.launch(job, server, 1, 1, flexible=False)  # usable again

    def test_verify_books_detects_drift(self, rm, make_job):
        job = make_job(max_workers=2)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        server.release(job.job_id, 1)  # sabotage behind the RM's back
        with pytest.raises(RuntimeError, match="mismatch"):
            rm.verify_books()

    @pytest.mark.parametrize(
        "drift", ["more-workers", "dearer-workers", "workers-elsewhere",
                  "unknown-job"],
    )
    def test_verify_books_detects_job_side_drift(self, rm, make_job, drift):
        """The audit compares the server books with the record decisions
        read — the jobs' own placement — in both directions; the error
        names the server and the job."""
        job = make_job(job_id=7, max_workers=4, min_workers=1, elastic=True)
        server, other = rm.pair.training.servers[:2]
        sid = server.server_id
        rm.launch(job, server, 1, 1, flexible=False)
        rm.launch(job, server, 1, 1, flexible=True)
        rm.verify_books()
        expect = f"book mismatch on {sid} job 7: "
        if drift == "more-workers":
            job.flex_placement[sid] += 1
            expect += "the job's placement says 3, the server says 2"
        elif drift == "dearer-workers":
            job._server_cost[sid] = 3
            expect += "the job's placement says 6, the server says 2"
        elif drift == "workers-elsewhere":
            job.flex_placement[other.server_id] = 2
            expect = (f"book mismatch on {other.server_id} job 7: the job "
                      f"places 2 workers there, the server books nothing")
        else:
            del rm.jobs[7]
            expect += "the job's placement says 0, the server says 2"
        with pytest.raises(RuntimeError, match=expect):
            rm.verify_books()

    @pytest.mark.parametrize(
        "drift", ["contract-without-loan", "loan-without-contract",
                  "two-whitelists", "wrong-lender"],
    )
    def test_verify_books_detects_loan_drift(self, rm, drift):
        """Loans conserve servers: each is in exactly one whitelist, and
        the open contracts are exactly the on-loan servers, lender by
        lender.  Plant each drift; the error names the server."""
        pair = rm.pair
        (moved,) = loan(rm, 1, now=1.0)
        rm.verify_books()
        if drift == "contract-without-loan":
            # the server went home behind the book's back
            pair.training.remove_server(moved.server_id)
            moved.on_loan = False
            pair.inference.add_server(moved)
            expect = "contracts without a loan: \\['infer-0000'\\]"
        elif drift == "loan-without-contract":
            del pair.contracts[moved.server_id]
            expect = "loans without a contract: \\['infer-0000'\\]"
        elif drift == "two-whitelists":
            pair.inference.add_server(moved)  # still in training too
            expect = "infer-0000 is in two whitelists"
        else:
            moved.home_cluster = "elsewhere"
            expect = "infer-0000 names lender 'inference'"
        with pytest.raises(RuntimeError, match=expect):
            rm.verify_books()


class TestFailureInjection:
    def run_with_failures(self, mtbf, specs=None, seed=1):
        pair = ClusterPair(make_training_cluster(3), make_inference_cluster(2))
        specs = specs or [
            JobSpec(job_id=i, submit_time=i * 50.0, duration=2000.0,
                    max_workers=4)
            for i in range(8)
        ]
        plan = FaultPlan(
            name="node-mtbf", seed=seed,
            process=NodeFailureProcess(mtbf=mtbf, repair_time=600.0),
        ) if mtbf else None
        sim = Simulation(
            specs, pair, LyraScheduler(),
            config=SimulationConfig(fault_plan=plan),
        )
        metrics = sim.run()
        return sim, metrics

    def test_failures_happen_and_jobs_still_finish(self):
        sim, metrics = self.run_with_failures(mtbf=1200.0)
        assert metrics.node_failures > 0
        assert all(
            j.status is JobStatus.FINISHED for j in sim.jobs.values()
        )
        assert sim.pair.training.used_gpus == 0

    def test_failed_jobs_pay_restart(self):
        sim, metrics = self.run_with_failures(mtbf=1500.0)
        restarted = [j for j in sim.jobs.values() if j.preemptions > 0]
        if restarted:  # failures hit at least one occupied server
            for job in restarted:
                assert job.jct > job.spec.duration

    def test_no_failures_without_mtbf(self):
        sim, metrics = self.run_with_failures(mtbf=None)
        assert metrics.node_failures == 0
        assert metrics.preemptions == 0

    def test_deterministic_failures(self):
        _, a = self.run_with_failures(mtbf=1000.0, seed=3)
        _, b = self.run_with_failures(mtbf=1000.0, seed=3)
        assert a.node_failures == b.node_failures
        assert a.jct_summary().mean == b.jct_summary().mean

    def test_elastic_job_survives_flex_loss(self):
        # One elastic job spanning base+flex: flex losses shrink it but
        # the job keeps running (no preemption) unless base is hit.
        specs = [
            JobSpec(job_id=0, submit_time=0.0, duration=4000.0,
                    max_workers=16, min_workers=4, elastic=True),
        ]
        sim, metrics = self.run_with_failures(mtbf=2000.0, specs=specs)
        job = sim.jobs[0]
        assert job.status is JobStatus.FINISHED


class TestOnLoanFailures:
    """Regression: node failures hitting loaned servers keep the books
    clean and attribute preemptions to the right cause."""

    def make_sim(self):
        # job 0 fills the only training server; job 1 (fungible, 2
        # workers at the 3x T4 footprint) fits only on a loaned server.
        pair = ClusterPair(make_training_cluster(1), make_inference_cluster(2))
        specs = [
            JobSpec(job_id=0, submit_time=0.0, duration=5000.0,
                    max_workers=8),
            JobSpec(job_id=1, submit_time=0.0, duration=5000.0,
                    max_workers=2, fungible=True),
        ]
        return ProbedSimulation(specs, pair, LyraScheduler(),
                                config=SimulationConfig())

    def loaned_busy_server(self, sim):
        for server in sim.cluster.servers:
            if server.on_loan and server.allocations:
                return server
        return None

    def test_failure_on_loaned_server_books_clean(self):
        sim = self.make_sim()

        def loan_one():
            assert loan(sim.rm, 1, now=sim.now)
            sim.trigger_schedule()

        observed = {}

        def fail():
            server = self.loaned_busy_server(sim)
            assert server is not None, "no job landed on the loaned server"
            observed["victims"] = set(server.allocations)
            assert sim.apply_node_failure(server.server_id, repair_time=600.0)
            sim.rm.verify_books()  # clean immediately after the failure

        sim.probe(10.0, loan_one)
        sim.probe(2000.0, fail)
        metrics = sim.run()

        assert observed["victims"], "failure hit an empty server"
        assert metrics.node_failures == 1
        by_cause = metrics.registry.counter(
            "sim.preemptions_by_cause", cause="node_failure"
        )
        assert by_cause.value == len(observed["victims"])
        assert all(
            j.status is JobStatus.FINISHED for j in sim.jobs.values()
        )
        sim.rm.verify_books()

    def test_failure_mid_reclaim_books_clean(self):
        # The orchestrator has vacated a loaned server (reclaim preempts
        # its job) and the node dies before the whitelist return
        # completes.  The return must still go through, the dead server
        # must not be re-loaned while unhealthy, and causes must stay
        # attributed: the preemption was the reclaim's, not the crash's.
        sim = self.make_sim()

        def loan_one():
            assert loan(sim.rm, 1, now=sim.now)
            sim.trigger_schedule()

        def reclaim_then_fail():
            server = self.loaned_busy_server(sim)
            assert server is not None
            victim = sim.jobs[next(iter(server.allocations))]
            sim.preempt(victim, cause="reclaim")
            sim.rm.verify_books()
            # node dies mid-reclaim, before the whitelist return
            assert sim.apply_node_failure(server.server_id,
                                          repair_time=600.0)
            sim.rm.verify_books()
            # the return still completes (server is vacated)...
            returned = sim.rm.return_server(server.server_id, now=sim.now)
            assert not returned.on_loan
            # ...and the unhealthy server is never loaned back out
            reloaned = loan(sim.rm, 1, now=sim.now)
            assert all(
                s.server_id != server.server_id for s in reloaned
            )
            sim.rm.verify_books()

        sim.probe(10.0, loan_one)
        sim.probe(2000.0, reclaim_then_fail)
        metrics = sim.run()

        reclaim_count = metrics.registry.counter(
            "sim.preemptions_by_cause", cause="reclaim"
        )
        crash_count = metrics.registry.counter(
            "sim.preemptions_by_cause", cause="node_failure"
        )
        assert reclaim_count.value == 1
        assert crash_count.value == 0  # the server was empty when it died
        assert all(
            j.status is JobStatus.FINISHED for j in sim.jobs.values()
        )
        sim.rm.verify_books()
