"""Tests for the resource-manager substrate and failure injection."""

import pytest

from repro.cluster.cluster import (
    ClusterPair,
    make_inference_cluster,
    make_training_cluster,
)
from repro.cluster.job import JobSpec, JobStatus
from repro.faults import FaultPlan, NodeFailureProcess
from repro.rm.containers import Container, ContainerState
from repro.rm.manager import ResourceManager
from repro.schedulers.lyra import LyraScheduler
from repro.simulator.simulation import Simulation, SimulationConfig

from tests.conftest import loan, make_job


@pytest.fixture
def rm():
    pair = ClusterPair(make_training_cluster(2), make_inference_cluster(2))
    return ResourceManager(pair)


def first_server(rm):
    return rm.pair.training.servers[0]


class TestContainer:
    def test_lifecycle(self):
        c = Container(job_id=1, server_id="s", gpus=2)
        assert c.running
        c.stop(10.0)
        assert c.state is ContainerState.RELEASED
        assert c.end_time == 10.0

    def test_stop_idempotent(self):
        c = Container(job_id=1, server_id="s", gpus=2)
        c.stop(10.0)
        c.stop(20.0, lost=True)
        assert c.state is ContainerState.RELEASED
        assert c.end_time == 10.0

    def test_lost_state(self):
        c = Container(job_id=1, server_id="s", gpus=2)
        c.stop(5.0, lost=True)
        assert c.state is ContainerState.LOST

    def test_unique_ids(self, rm):
        """Ids are minted by the manager that launches: unique within
        it, and the same sequence from every manager (no process-wide
        counter for one run to leak into the next)."""
        server = first_server(rm)
        launched = rm.launch(make_job(1), server, 2, 1, flexible=False)
        launched += rm.launch(make_job(2), server, 1, 1, flexible=False)
        assert [c.container_id for c in launched] == [1, 2, 3]
        other = ResourceManager(
            ClusterPair(make_training_cluster(1), make_inference_cluster(1))
        )
        [first] = other.launch(
            make_job(1), first_server(other), 1, 1, flexible=False
        )
        assert first.container_id == 1

    def test_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            Container(job_id=1, server_id="s", gpus=0)


class TestLaunchRelease:
    def test_launch_books_both_sides(self, rm):
        job = make_job(max_workers=3)
        server = first_server(rm)
        containers = rm.launch(job, server, 3, 1, flexible=False, now=5.0)
        assert len(containers) == 3
        assert server.allocations[job.job_id] == 3
        assert job.base_workers == 3
        rm.verify_books()

    def test_launch_over_capacity_rejected(self, rm):
        job = make_job(max_workers=5, gpus_per_worker=2)
        with pytest.raises(ValueError, match="free"):
            rm.launch(job, first_server(rm), 5, 2, flexible=False)
        rm.verify_books()

    def test_launch_on_unhealthy_rejected(self, rm):
        job = make_job()
        server = first_server(rm)
        rm.fail_node(server.server_id)
        with pytest.raises(ValueError, match="unhealthy"):
            rm.launch(job, server, 1, 1, flexible=False)

    def test_release_job_frees_everything(self, rm):
        job = make_job(max_workers=4)
        rm.launch(job, rm.pair.training.servers[0], 2, 1, flexible=False)
        rm.launch(job, rm.pair.training.servers[1], 2, 1, flexible=False)
        released = rm.release_job(job, now=9.0)
        assert released == 4
        assert rm.pair.training.used_gpus == 0
        assert job.total_workers == 0
        assert not rm.containers_of(job.job_id)
        rm.verify_books()

    def test_scale_in_releases_flex_only(self, rm):
        job = make_job(max_workers=6, min_workers=2, elastic=True)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        rm.launch(job, server, 3, 1, flexible=True)
        stopped = rm.scale_in(job, server.server_id, 2, now=3.0)
        assert stopped == 2
        assert job.flex_workers == 1
        assert job.base_workers == 2
        assert server.allocations[job.job_id] == 3
        rm.verify_books()

    def test_scale_in_never_touches_base(self, rm):
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

    def test_return_refused_while_containers_run(self, rm):
        moved = loan(rm, 1)[0]
        job = make_job(fungible=True)
        rm.launch(job, moved, 1, 1, flexible=False)
        with pytest.raises(RuntimeError, match="vacated"):
            rm.return_server(moved.server_id)


class TestNodeFailure:
    def test_base_loss_reported(self, rm):
        job = make_job(max_workers=2)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        report = rm.fail_node(server.server_id, now=4.0)
        assert report.jobs_lost_base == {job.job_id}
        assert len(report.lost_containers) == 2
        assert all(
            c.state is ContainerState.LOST for c in report.lost_containers
        )
        assert server.used_gpus == 0
        assert not rm.is_healthy(server.server_id)

    def test_flex_only_loss_reported_separately(self, rm):
        job = make_job(max_workers=6, min_workers=2, elastic=True)
        base_server, flex_server = rm.pair.training.servers[:2]
        rm.launch(job, base_server, 2, 1, flexible=False)
        rm.launch(job, flex_server, 3, 1, flexible=True)
        report = rm.fail_node(flex_server.server_id)
        assert report.jobs_lost_base == set()
        assert report.jobs_lost_flex == {job.job_id: 3}

    def test_base_loss_subsumes_flex_loss(self, rm):
        job = make_job(max_workers=6, min_workers=2, elastic=True)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        rm.launch(job, server, 2, 1, flexible=True)
        report = rm.fail_node(server.server_id)
        assert report.jobs_lost_base == {job.job_id}
        assert job.job_id not in report.jobs_lost_flex

    def test_recovery(self, rm):
        server = first_server(rm)
        rm.fail_node(server.server_id)
        rm.recover_node(server.server_id)
        assert rm.is_healthy(server.server_id)
        job = make_job()
        rm.launch(job, server, 1, 1, flexible=False)  # usable again

    def test_verify_books_detects_drift(self, rm):
        job = make_job(max_workers=2)
        server = first_server(rm)
        rm.launch(job, server, 2, 1, flexible=False)
        server.release(job.job_id, 1)  # sabotage behind the RM's back
        with pytest.raises(RuntimeError, match="mismatch"):
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
        return Simulation(specs, pair, LyraScheduler(),
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

        sim.engine.schedule(10.0, loan_one)
        sim.engine.schedule(2000.0, fail)
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

        sim.engine.schedule(10.0, loan_one)
        sim.engine.schedule(2000.0, reclaim_then_fail)
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
